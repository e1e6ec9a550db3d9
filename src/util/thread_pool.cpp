#include "util/thread_pool.hpp"

#include <algorithm>
#include <cstdio>
#include <string>

#include "obs/metrics.hpp"
#include "obs/trace_event.hpp"

namespace webppm::util {
namespace {

/// Must be called from inside a catch block.
std::string describe_current_exception() {
  try {
    throw;
  } catch (const std::exception& e) {
    return e.what();
  } catch (...) {
    return "unknown exception type";
  }
}

}  // namespace

ThreadPool::ThreadPool(std::size_t threads)
    : own_metrics_(std::make_unique<obs::MetricsRegistry>()),
      submitted_(&own_metrics_->counter("webppm_pool_tasks_submitted_total")),
      executed_(&own_metrics_->counter("webppm_pool_tasks_executed_total")),
      failed_(&own_metrics_->counter("webppm_pool_tasks_failed_total")) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mu_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

std::future<void> ThreadPool::submit(std::function<void()> task) {
  submitted_->add();
  std::packaged_task<void()> pt(
      [this, t = std::move(task)] { run_task(t); });
  auto fut = pt.get_future();
  std::size_t depth;
  {
    std::lock_guard lock(mu_);
    queue_.push_back(std::move(pt));
    depth = queue_.size();
    queue_high_water_ = std::max(queue_high_water_, depth);
  }
  if (queue_depth_ != nullptr) {
    queue_depth_->set(static_cast<std::int64_t>(depth));
  }
  cv_.notify_one();
  return fut;
}

void ThreadPool::run_task(const std::function<void()>& task) {
  try {
    task();
    executed_->add();
  } catch (...) {
    failed_->add();
    const std::string what = describe_current_exception();
    obs::log_event(obs::Severity::kError, "thread_pool.task_failed", what);
    std::fprintf(stderr, "webppm::util::ThreadPool: task failed: %s\n",
                 what.c_str());
    throw;  // re-captured by the packaged_task into the future
  }
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::packaged_task<void()> task;
    std::size_t depth;
    {
      std::unique_lock lock(mu_);
      cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ and drained
      task = std::move(queue_.front());
      queue_.pop_front();
      depth = queue_.size();
    }
    if (queue_depth_ != nullptr) {
      queue_depth_->set(static_cast<std::int64_t>(depth));
    }
    task();  // packaged_task captures exceptions into the future
  }
}

ThreadPoolStats ThreadPool::stats() const {
  ThreadPoolStats s;
  s.tasks_submitted = submitted_->value();
  s.tasks_executed = executed_->value();
  s.tasks_failed = failed_->value();
  {
    std::lock_guard lock(mu_);
    s.queue_depth = queue_.size();
    s.queue_high_water = queue_high_water_;
  }
  return s;
}

void ThreadPool::attach_metrics(obs::MetricsRegistry& registry,
                                std::string_view prefix) {
  const std::string p(prefix);
  // Carry the counts so far over, then count into `registry` alone.
  const auto move_to = [&](obs::Counter*& c, const char* name) {
    obs::Counter& to = registry.counter(p + name);
    if (&to != c) to.add(c->value());
    c = &to;
  };
  move_to(submitted_, "_tasks_submitted_total");
  move_to(executed_, "_tasks_executed_total");
  move_to(failed_, "_tasks_failed_total");
  queue_depth_ = &registry.gauge(p + "_queue_depth");
}

void parallel_for(ThreadPool& pool, std::size_t n,
                  const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  std::vector<std::future<void>> futures;
  futures.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    futures.push_back(pool.submit([&fn, i] { fn(i); }));
  }
  std::exception_ptr first_error;
  for (auto& f : futures) {
    try {
      f.get();
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
    }
  }
  if (first_error) std::rethrow_exception(first_error);
}

ThreadPool& shared_thread_pool() {
  static ThreadPool pool;  // hardware_concurrency workers; never destroyed
                           // before main() exits (function-local static)
  return pool;
}

}  // namespace webppm::util
