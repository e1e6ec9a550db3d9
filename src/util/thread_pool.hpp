// Minimal work-stealing-free thread pool with a parallel_for helper.
//
// The experiment harnesses sweep independent configurations (training-day
// counts, models, client counts); each configuration is an independent
// simulation, so the sweep parallelises trivially across cores.
//
// Failure visibility: a task that throws stores its exception in the
// future returned by submit() (parallel_for rethrows the first one), and —
// because fire-and-forget callers may never touch that future — every
// failure is additionally counted (stats().tasks_failed), reported as a
// structured obs error event, and echoed to stderr. Nothing is silently
// swallowed.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <string_view>
#include <thread>
#include <vector>

namespace webppm::obs {
class Counter;
class Gauge;
class MetricsRegistry;
}  // namespace webppm::obs

namespace webppm::util {

/// Point-in-time pool accounting. Counters are cumulative over the pool's
/// life (read from the pool's registry counters); queue_depth is the
/// instantaneous backlog (tasks not yet started).
struct ThreadPoolStats {
  std::uint64_t tasks_submitted = 0;
  std::uint64_t tasks_executed = 0;  ///< completed without throwing
  std::uint64_t tasks_failed = 0;    ///< threw; exception kept in the future
  std::size_t queue_depth = 0;
  std::size_t queue_high_water = 0;
};

class ThreadPool {
 public:
  /// Spawns `threads` workers; 0 means std::thread::hardware_concurrency().
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t thread_count() const { return workers_.size(); }

  /// Enqueues a task; the returned future reports completion/exceptions.
  std::future<void> submit(std::function<void()> task);

  ThreadPoolStats stats() const;

  /// Moves the pool's counts into `registry`:
  /// {prefix}_tasks_{submitted,executed,failed}_total counters, which start
  /// from the counts so far (until attached the pool counts into a private
  /// registry), and a {prefix}_queue_depth gauge. Attach while the pool is
  /// idle (the metric pointers are read unsynchronised on the task path).
  void attach_metrics(obs::MetricsRegistry& registry,
                      std::string_view prefix = "webppm_pool");

 private:
  void worker_loop();
  void run_task(const std::function<void()>& task);

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::packaged_task<void()>> queue_;
  std::vector<std::thread> workers_;
  bool stopping_ = false;
  std::size_t queue_high_water_ = 0;  ///< under mu_

  std::unique_ptr<obs::MetricsRegistry> own_metrics_;
  obs::Counter* submitted_;
  obs::Counter* executed_;
  obs::Counter* failed_;
  obs::Gauge* queue_depth_ = nullptr;  ///< attached registry only
};

/// Runs fn(i) for i in [0, n), distributing iterations across the pool and
/// blocking until all complete. Exceptions from any iteration propagate
/// (the first one encountered is rethrown).
void parallel_for(ThreadPool& pool, std::size_t n,
                  const std::function<void(std::size_t)>& fn);

/// Process-wide pool sized to the hardware, created on first use. Bench
/// harnesses and the sweep engine share it instead of each spawning their
/// own workers.
ThreadPool& shared_thread_pool();

}  // namespace webppm::util
