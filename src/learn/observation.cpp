#include "learn/observation.hpp"

#include <algorithm>

#include "fault/fault.hpp"

namespace webppm::learn {
namespace {

/// One evaluation of the learn.queue.push fault site: true when the armed
/// plan drops this observation (a throwing rule drops it too).
bool injected_drop() noexcept {
  try {
    return WEBPPM_FAULT_INJECT("learn.queue.push");
  } catch (...) {
    return true;
  }
}

}  // namespace

ObservationQueue::ObservationQueue(std::size_t capacity,
                                   obs::MetricsRegistry* metrics)
    : capacity_(std::max<std::size_t>(1, capacity)),
      pushed_(obs::attached_or_owned(metrics, own_metrics_)
                  .counter("webppm_learn_queue_pushed_total")),
      dropped_(obs::attached_or_owned(metrics, own_metrics_)
                   .counter("webppm_learn_dropped_total")) {
  ring_.resize(capacity_);
}

bool ObservationQueue::push(const Observation& o) noexcept {
  if (injected_drop()) {
    dropped_.add();
    return false;
  }
  return append(std::span(&o, 1)) == 1;
}

void ObservationQueue::on_requests(
    std::span<const trace::Request> reqs) noexcept {
  // The fault site fires per observation, in order and outside the lock,
  // exactly as reqs.size() push() calls would evaluate it; the survivors
  // are staged so one append takes them all.
  thread_local std::vector<Observation> staged;
  staged.clear();
  try {
    for (const auto& r : reqs) {
      if (!injected_drop()) staged.push_back(Observation::from(r));
    }
  } catch (...) {
    // Staging ran out of memory: the whole batch drops.
    dropped_.add(reqs.size());
    return;
  }
  dropped_.add(reqs.size() - staged.size());
  append(staged);
}

std::size_t ObservationQueue::append(
    std::span<const Observation> obs) noexcept {
  // The serve path must never see an exception out of the tap; the only
  // throwing operation here is the mutex (resource exhaustion), and a
  // dropped observation is the designed answer to any failure to enqueue.
  std::size_t accepted = 0;
  bool notify = false;
  try {
    std::lock_guard lock(mu_);
    if (!closed_) {
      // What fits goes in, in order; the rest drops, as a full ring drops
      // every push past it.
      accepted = std::min(obs.size(), capacity_ - count_);
      const std::size_t tail = (head_ + count_) % capacity_;
      const std::size_t first = std::min(accepted, capacity_ - tail);
      std::copy_n(obs.data(), first, ring_.data() + tail);
      std::copy_n(obs.data() + first, accepted - first, ring_.data());
      notify = count_ == 0 && accepted != 0;
      count_ += accepted;
    }
  } catch (...) {
    // The lock failed: nothing was accepted, everything drops below.
  }
  pushed_.add(accepted);
  dropped_.add(obs.size() - accepted);
  // At most one wake per append, and only when it made the ring non-empty:
  // a non-empty ring already has its consumer's wake outstanding.
  if (notify) cv_.notify_one();
  return accepted;
}

std::size_t ObservationQueue::drain(std::vector<Observation>& out) {
  std::lock_guard lock(mu_);
  const std::size_t n = count_;
  out.reserve(out.size() + n);
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(ring_[(head_ + i) % capacity_]);
  }
  head_ = (head_ + n) % capacity_;
  count_ = 0;
  return n;
}

std::size_t ObservationQueue::drain_wait(std::vector<Observation>& out,
                                         std::chrono::milliseconds timeout) {
  std::unique_lock lock(mu_);
  cv_.wait_for(lock, timeout, [this] { return count_ != 0 || closed_; });
  const std::size_t n = count_;
  out.reserve(out.size() + n);
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(ring_[(head_ + i) % capacity_]);
  }
  head_ = (head_ + n) % capacity_;
  count_ = 0;
  return n;
}

void ObservationQueue::close() {
  {
    std::lock_guard lock(mu_);
    closed_ = true;
  }
  cv_.notify_all();
}

bool ObservationQueue::closed() const {
  std::lock_guard lock(mu_);
  return closed_;
}

std::size_t ObservationQueue::size() const {
  std::lock_guard lock(mu_);
  return count_;
}

}  // namespace webppm::learn
