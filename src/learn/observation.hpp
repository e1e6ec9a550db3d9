// learn::ObservationQueue — the bounded handoff between the serving hot
// path and the online trainer (DESIGN.md §15).
//
// The queue is the serve-side half of the training pipeline: it implements
// serve::RequestObserver, so attaching it to a ModelServer
// (attach_observer(&trainer.queue())) makes every admitted request —
// queries, batch entries, and v3 observe-frame entries alike — land here
// as a compact Observation, in arrival order per query thread.
//
// Contract inherited from RequestObserver: on_request runs on the query
// thread under no lock of the server's and must be cheap, thread-safe and
// noexcept. push() is therefore *non-blocking*: when the trainer falls
// behind and `capacity` observations are buffered, the observation is
// dropped and counted — serving latency is never held hostage to training
// throughput. Dropped observations cost training coverage, not
// correctness: the trainer's shadow model just learns from a sampled
// stream until it catches up (dropped_total is the gauge to alarm on).
//
// Storage follows the backlog, not the bound: the buffer starts empty,
// grows geometrically (never past `capacity` slots) as observations
// arrive, and drain() hands it to the consumer whole instead of copying
// it. A consumer that drains into the same empty vector each round gets
// its previous buffer taken back in exchange, so in steady state two
// buffers alternate and the serve path stops allocating. A buffer the
// queue keeps after a drain is released when it holds more than
// kReleaseRatio slots per observation drained, so one deep backlog does
// not leave two buffers of its depth behind for the trainer's life.
//
// query_batch hands its whole batch to on_requests: one lock and at most
// one trainer wake per batch instead of per observation — on a shared CPU
// a wake per observation lets the trainer preempt the serving thread once
// per request. query_ex and v1 frames are batches of one; observe and v3
// observe frames still push one at a time.
//
// Fault site (chaos suite): learn.queue.push — a firing rule drops the
// observation exactly as a full queue would, proving the serve path is
// indifferent to observation loss. It fires once per observation on both
// entry points.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "obs/metrics.hpp"
#include "serve/model_server.hpp"
#include "trace/record.hpp"
#include "util/types.hpp"

namespace webppm::learn {

/// One observed request, compacted to what training consumes: the
/// sessionizer keys on (timestamp, client, url) and the popularity table
/// counts every request including errors, so the status survives as a
/// flag-sized field while size_bytes/method (never read by training) are
/// dropped.
struct Observation {
  TimeSec timestamp = 0;
  ClientId client = 0;
  UrlId url = 0;
  std::uint16_t status = 200;

  static Observation from(const trace::Request& r) {
    return Observation{r.timestamp, r.client, r.url,
                       static_cast<std::uint16_t>(r.status)};
  }
};

class ObservationQueue final : public serve::RequestObserver {
 public:
  /// `capacity` bounds buffered observations (>= 1); pushes beyond it drop.
  /// It is a bound, not a reservation: nothing is allocated until the
  /// first push.
  /// Accepted and dropped observations count into `metrics`'
  /// webppm_learn_queue_pushed_total / webppm_learn_dropped_total (null: a
  /// private registry) — the trainer passes its own, so a drop shows in
  /// its registry the moment it happens.
  explicit ObservationQueue(std::size_t capacity = 1 << 16,
                            obs::MetricsRegistry* metrics = nullptr);

  /// Non-blocking bounded push. False when the observation was dropped
  /// (queue full, queue closed, or an injected learn.queue.push fault).
  bool push(const Observation& o) noexcept;

  /// RequestObserver: the serve-side tap.
  void on_request(const trace::Request& r) noexcept override {
    (void)push(Observation::from(r));
  }

  /// RequestObserver, batched (query_batch): the same outcome as one
  /// push() per request with no drain in between — the fault site fires
  /// per observation, in order, outside the lock; then one lock appends
  /// what fits, the rest drops and is counted, and the consumer is woken
  /// at most once, only when the batch made the queue non-empty.
  void on_requests(std::span<const trace::Request> reqs) noexcept override;

  /// Appends everything currently buffered to `out` (non-blocking).
  /// Returns the number of observations moved. When `out` is empty the
  /// buffer is not copied: `out` and the queue's buffer swap, so the
  /// queue keeps `out`'s (empty) allocation — unless it exceeds
  /// kReleaseRatio slots per observation moved (an empty drain counts as
  /// one), in which case the queue frees it.
  std::size_t drain(std::vector<Observation>& out);

  /// See drain(): the most buffer slots per drained observation the queue
  /// keeps after a drain.
  static constexpr std::size_t kReleaseRatio = 8;

  /// Like drain(), but when the queue is empty waits up to `timeout` for
  /// an observation (or close()) first. Returns observations moved — 0
  /// means the wait timed out or the queue closed empty.
  std::size_t drain_wait(std::vector<Observation>& out,
                         std::chrono::milliseconds timeout);

  /// Closes the queue: subsequent pushes drop, blocked drain_wait() calls
  /// wake. Buffered observations stay drainable.
  void close();
  bool closed() const;

  std::size_t capacity() const { return capacity_; }
  std::size_t size() const;

  /// Observations accepted / dropped since construction (exact).
  std::uint64_t pushed() const { return pushed_.value(); }
  std::uint64_t dropped() const { return dropped_.value(); }

  /// Bytes of the buffer the queue holds (storage accounting): 0 until
  /// the first push. The queue grows its buffer to at most twice its
  /// backlog, capped at `capacity` slots; a drain() into an empty vector
  /// leaves it holding that vector's allocation instead, if that is at
  /// most kReleaseRatio slots per observation drained.
  std::size_t memory_bytes() const;

 private:
  /// Appends what fits of `obs` under one lock and drops the rest (all of
  /// it when closed), counting both; wakes the consumer when the queue was
  /// empty. Returns how many were accepted.
  std::size_t append(std::span<const Observation> obs) noexcept;
  /// drain()'s body; mu_ held.
  std::size_t take_locked(std::vector<Observation>& out);

  const std::size_t capacity_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::vector<Observation> pending_;  ///< buffered, in arrival order
  bool closed_ = false;
  std::unique_ptr<obs::MetricsRegistry> own_metrics_;
  obs::Counter& pushed_;
  obs::Counter& dropped_;
};

}  // namespace webppm::learn
