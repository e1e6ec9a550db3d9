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
                   .counter("webppm_learn_dropped_total")) {}

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
  // The serve path must never see an exception out of the tap; the
  // throwing operations here are the mutex and the buffer's growth
  // (resource exhaustion), and a dropped observation is the designed
  // answer to any failure to enqueue.
  std::size_t accepted = 0;
  bool notify = false;
  try {
    std::lock_guard lock(mu_);
    if (!closed_) {
      // What fits goes in, in order; the rest drops, as a full queue drops
      // every push past it. The buffer doubles, capped at capacity_ slots.
      const std::size_t fits =
          std::min(obs.size(), capacity_ - pending_.size());
      const std::size_t need = pending_.size() + fits;
      if (need > pending_.capacity()) {
        pending_.reserve(
            std::min(capacity_, std::max(need, 2 * pending_.capacity())));
      }
      const bool was_empty = pending_.empty();
      const auto take = obs.first(fits);
      pending_.insert(pending_.end(), take.begin(), take.end());
      accepted = fits;
      notify = was_empty && fits != 0;
    }
  } catch (...) {
    // The lock or the buffer's growth failed: nothing was accepted (a
    // failed reserve leaves the buffer as it was), everything drops below.
  }
  pushed_.add(accepted);
  dropped_.add(obs.size() - accepted);
  // At most one wake per append, and only when it made the queue
  // non-empty: a non-empty queue already has its consumer's wake
  // outstanding.
  if (notify) cv_.notify_one();
  return accepted;
}

std::size_t ObservationQueue::take_locked(std::vector<Observation>& out) {
  const std::size_t n = pending_.size();
  if (out.empty()) {
    out.swap(pending_);
  } else {
    out.insert(out.end(), pending_.begin(), pending_.end());
  }
  pending_.clear();
  // A buffer grown for an earlier, deeper backlog is released: kept, it
  // would stay for the queue's life. The next pushes grow one to the
  // backlog they make.
  if (pending_.capacity() > kReleaseRatio * std::max<std::size_t>(n, 1)) {
    pending_ = std::vector<Observation>();
  }
  return n;
}

std::size_t ObservationQueue::drain(std::vector<Observation>& out) {
  std::lock_guard lock(mu_);
  return take_locked(out);
}

std::size_t ObservationQueue::drain_wait(std::vector<Observation>& out,
                                         std::chrono::milliseconds timeout) {
  std::unique_lock lock(mu_);
  cv_.wait_for(lock, timeout, [this] { return !pending_.empty() || closed_; });
  return take_locked(out);
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
  return pending_.size();
}

std::size_t ObservationQueue::memory_bytes() const {
  std::lock_guard lock(mu_);
  return pending_.capacity() * sizeof(Observation);
}

}  // namespace webppm::learn
