// cluster::Upstream — one shard's pooled, breaker-guarded client side of
// the wire protocol (DESIGN.md §14).
//
// The router leases a pooled blocking connection for one strict
// request/response round trip at a time (the wire protocol has no
// correlation ids, so a connection can never carry two outstanding
// frames), and every transient failure — refused connect, EPIPE, a read
// timing out or the socket dying mid-response, or the shard answering
// kRetryLater — is retried under capped exponential backoff with seeded
// jitter, bounded two ways:
//
//   * per round trip by `max_attempts` and a wall-clock deadline
//     (`admit_wait_ms`), after which the router degrades that one answer
//     to kRetryLater instead of wedging the client forever;
//   * across the router by a RetryBudget: only `slots` round trips may be
//     in their retry phase (backoff sleep + re-attempt) concurrently, so a
//     shard outage turns into an orderly queue, not a retry storm that
//     greets the recovering shard with a thundering herd.
//
// A shard that fails `breaker_threshold` consecutive attempts trips the
// circuit breaker: new round trips park at the admission gate instead of
// burning their attempt budget against a dead socket. While open, one
// waiter per `breaker_retry_ms` is let through as the half-open trial;
// its success — or the health prober seeing /healthz serving again —
// closes the breaker and wakes everyone. The same gate implements
// quiesce(): the supervisor closes admission before restarting the shard
// (waiting out in-flight IO so no frame is mid-socket when the server
// drains) and readmit()s after the restarted shard probes healthy, which
// is what makes a rolling restart drop zero predictions.
//
// Retry safety: the sessionizer feeds on every processed click, so a
// retried frame must never have been processed the first time. The
// transient causes above all precede processing (connect/send failures,
// shed-at-accept kRetryLater) — except a read failure after a successful
// send, where the shard may or may not have answered. Those are retried
// at-least-once and counted separately (read_failures); the chaos gate
// injects only the pre-send fault sites (`cluster.upstream.connect`,
// `cluster.upstream.send`), so determinism gates stay exact while the
// read-failure path stays covered by the non-gating storm tests.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "net/backoff.hpp"
#include "net/event_loop.hpp"
#include "obs/metrics.hpp"

namespace webppm::cluster {

struct ShardEndpoint {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;        ///< prediction port
  std::uint16_t admin_port = 0;  ///< /metrics + /healthz (0 = no admin)
};

/// Bounds how many round trips may be in their retry phase at once across
/// the whole router. Waiting for a slot is deliberate load shedding: a
/// parked waiter costs nothing, a retry burst against a struggling shard
/// costs it exactly the capacity it needs to recover.
class RetryBudget {
 public:
  /// Contended acquisitions count into `metrics`'
  /// webppm_cluster_retry_budget_waits_total (null: a private registry).
  explicit RetryBudget(std::size_t slots,
                       obs::MetricsRegistry* metrics = nullptr);

  /// Blocks until a slot frees or `abort` goes true (returns false; no
  /// slot held). Counts the contended acquisitions; `*waited` reports
  /// whether *this* call had to wait.
  bool acquire(const std::atomic<bool>& abort, bool* waited = nullptr);
  void release();

  /// Acquisitions that had to wait for a slot.
  std::uint64_t waits() const { return waits_.value(); }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::size_t free_;
  std::unique_ptr<obs::MetricsRegistry> own_metrics_;
  obs::Counter& waits_;
};

struct UpstreamConfig {
  ShardEndpoint endpoint;
  /// Idle pooled connections kept per shard (excess closes on return).
  std::size_t max_idle = 4;
  /// SO_RCVTIMEO/SO_SNDTIMEO on every leased socket: a wedged shard turns
  /// into a counted IO failure, never a hung router thread.
  std::uint64_t io_timeout_ms = 5000;
  /// IO attempts per round trip before the router degrades the answer.
  std::size_t max_attempts = 10;
  /// Wall-clock budget per round trip, covering admission waits (a shard
  /// mid-restart) and backoff sleeps. Must comfortably exceed a rolling
  /// restart's quiesce→readmit window.
  std::uint64_t admit_wait_ms = 10'000;
  net::BackoffPolicy backoff{.initial_ms = 1, .max_ms = 100};
  /// Consecutive failed attempts that trip the breaker open.
  std::uint32_t breaker_threshold = 3;
  /// While open, one half-open trial is admitted per this interval.
  std::uint64_t breaker_retry_ms = 100;
  /// Jitter seed (shard index folded in by the router for distinct
  /// per-shard streams).
  std::uint64_t seed = 1;
};

/// Exact per-shard counters: a breakdown of the router's webppm_cluster_*
/// totals, which /cluster prints per shard.
struct UpstreamCounters {
  std::atomic<std::uint64_t> round_trips{0};   ///< successful round trips
  std::atomic<std::uint64_t> retries{0};       ///< re-attempts taken
  std::atomic<std::uint64_t> connects{0};      ///< sockets opened
  std::atomic<std::uint64_t> connect_failures{0};
  std::atomic<std::uint64_t> send_failures{0};
  std::atomic<std::uint64_t> read_failures{0};
  std::atomic<std::uint64_t> retry_later{0};   ///< upstream shed answers
  std::atomic<std::uint64_t> breaker_opens{0};
  std::atomic<std::uint64_t> breaker_closes{0};
  std::atomic<std::uint64_t> give_ups{0};      ///< round trips abandoned
};

/// The cluster tier's webppm_cluster_* metrics, shared by the router and
/// its upstreams (nullable for a standalone Upstream).
struct ClusterInstruments {
  obs::Counter* requests = nullptr;
  obs::Counter* responses = nullptr;
  obs::Counter* batches = nullptr;
  obs::Counter* degraded = nullptr;
  obs::Counter* retries = nullptr;
  obs::Counter* connect_failures = nullptr;
  obs::Counter* send_failures = nullptr;
  obs::Counter* read_failures = nullptr;
  obs::Counter* retry_later = nullptr;
  obs::Counter* breaker_opens = nullptr;
  obs::Counter* breaker_closes = nullptr;
  obs::Counter* give_ups = nullptr;
  obs::Counter* quiesces = nullptr;
  obs::Counter* readmits = nullptr;
  obs::Counter* probes = nullptr;
  obs::Counter* probe_failures = nullptr;
  obs::Counter* protocol_errors = nullptr;
  obs::Gauge* version_skew = nullptr;
  obs::Gauge* shards_serving = nullptr;
  obs::Gauge* breakers_open = nullptr;
};

class Upstream {
 public:
  /// `budget` and `abort` are shared router-level objects (both may be
  /// null for standalone use); `ins` the router's totals (nullable).
  Upstream(UpstreamConfig config, RetryBudget* budget,
           const std::atomic<bool>* abort, ClusterInstruments* ins);
  ~Upstream();

  Upstream(const Upstream&) = delete;
  Upstream& operator=(const Upstream&) = delete;

  /// Sends one framed request (`frame` = header + body, forwarded
  /// verbatim) and reads one whole response frame into `resp` (header +
  /// body, cleared first). Blocking; retries transients per config.
  /// Returns false when the attempt/deadline budget is spent or the
  /// router is stopping — the caller answers the client kRetryLater.
  bool round_trip(std::span<const std::uint8_t> frame,
                  std::uint32_t max_resp_frame_bytes,
                  std::vector<std::uint8_t>& resp, std::string* error);

  /// Close admission, wait out in-flight IO, drop pooled sockets. Round
  /// trips arriving meanwhile park at the gate (within their deadline).
  void quiesce();
  /// Reopen admission (after the shard probes healthy) and wake waiters.
  void readmit();
  bool admitting() const;

  bool breaker_open() const;
  /// Health-prober feedback: a serving /healthz closes the breaker (and
  /// resets the failure streak) without burning a request as the trial.
  void note_probe(bool serving);

  const UpstreamCounters& counters() const { return counters_; }
  const ShardEndpoint& endpoint() const { return config_.endpoint; }
  const UpstreamConfig& config() const { return config_; }

 private:
  enum class AttemptOutcome : std::uint8_t {
    kOk,
    kConnectFailed,
    kSendFailed,
    kReadFailed,
    kRetryLater,  ///< shard answered a v1 kRetryLater shed frame
  };

  /// One IO attempt: lease/connect, send, read one frame. Never blocks
  /// beyond io_timeout_ms per syscall.
  AttemptOutcome attempt(std::span<const std::uint8_t> frame,
                         std::uint32_t max_resp_frame_bytes,
                         std::vector<std::uint8_t>& resp, std::string* error);

  /// Waits at the admission gate (quiesce + breaker). Returns false on
  /// abort/deadline. On success the caller is inside the IO section
  /// (inflight_io_ incremented).
  bool admit(std::uint64_t deadline_ms, std::string* error);
  void leave_io(AttemptOutcome outcome);

  void bump(std::atomic<std::uint64_t>& exact, obs::Counter* mirror,
            std::uint64_t n = 1);

  UpstreamConfig config_;
  RetryBudget* budget_;
  const std::atomic<bool>* abort_;
  ClusterInstruments* ins_;
  UpstreamCounters counters_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::vector<net::OwnedFd> idle_;
  bool admitting_ = true;
  bool breaker_open_ = false;
  std::uint32_t consecutive_failures_ = 0;
  std::uint64_t next_trial_ms_ = 0;
  std::size_t inflight_io_ = 0;
  std::uint64_t seed_sequence_ = 0;  ///< distinct jitter stream per trip
};

}  // namespace webppm::cluster
