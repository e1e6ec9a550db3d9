// webppm::obs v2 — the prediction-outcome scoreboard (DESIGN.md §13).
//
// The serving tier so far observes itself operationally (counters, latency
// histograms); the scoreboard observes whether the predictions it ships
// come true. Each client keeps a small bounded ring of *outstanding*
// predictions (URL + issue time + snapshot version + popularity grade);
// every subsequent request from that client is matched against its ring:
//
//   hit        — the client requested a predicted URL within the validity
//                window (the paper's prefetch-hit event, measured live);
//   expired    — the window elapsed before the URL was requested;
//   evicted    — the ring was full and the oldest entry was pushed out
//                before its window elapsed;
//   superseded — a fresh prediction of the same URL replaced the entry
//                (re-issued, neither right nor wrong yet);
//   unresolved — still open when settle() finalized the run.
//
// precision = hits / (hits + expired + evicted); usefulness = hits /
// requests — the paper's §4 accuracy/usefulness pair, computed online.
// Outcomes are sliced by the predicted URL's popularity grade and by the
// snapshot version that issued the prediction, so a bad publish is visible
// within seconds of going live.
//
// Determinism contract (bench/scoreboard_check): outcome *counts* for a
// replayed trace are a pure function of the request stream and the
// prediction lists — independent of sweep timing (the idle-sweep horizon is
// clamped to >= the validity window, so a swept entry is always already
// expired), of batching (the batch path replays per-shard request order),
// and of client-disjoint threading (every counter is an order-independent
// sum). The DriftWatch EWMAs are the one part that is interleaving-
// dependent and are excluded from that contract.
//
// Concurrency: ring state lives in a per-shard ShardState owned by
// ModelServer's context shards; observe/record/sweep/settle_shard must be
// called under the owning shard's mutex. Aggregate counters are
// obs::Counter (thread-sharded relaxed atomics), the per-version table is
// a small CAS-claimed slot array, and DriftWatch takes its own mutex — so
// cross-shard aggregation never adds ordering between shards.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "obs/metrics.hpp"
#include "popularity/popularity.hpp"
#include "ppm/predictor.hpp"
#include "util/types.hpp"

namespace webppm::serve {

struct ScoreboardOptions {
  /// Master arm switch: false (the default) allocates nothing and leaves
  /// the query path exactly as before — not even a branch on a toggle.
  bool enabled = false;
  /// Initial state of the runtime scoring toggle (see
  /// Scoreboard::set_scoring). Armed-but-idle (enabled, !scoring) costs
  /// one relaxed load per query — the <3% bench gate covers this state.
  bool scoring = true;
  /// Outstanding predictions kept per client (oldest evicted beyond this).
  std::size_t ring_capacity = 8;
  /// Predictions tracked per query — the first K of the (probability-
  /// sorted) prediction list, i.e. what a prefetcher would actually fetch.
  std::size_t track_top_k = 4;
  /// Validity window: a prediction unconsumed this many seconds (trace
  /// time) after issue scores as expired. Mirrors a prefetch cache TTL.
  TimeSec window_sec = 300;
  /// Cap on rings per shard (0 = unbounded). Predictions for clients
  /// refused by the cap are counted untracked, never silently dropped.
  std::size_t max_rings_per_shard = 0;

  // DriftWatch: short-vs-long EWMAs of precision (per scored outcome) and
  // of head-URL mass (fraction of requests for grade>=2 URLs, per
  // request). score = max of the two |short - long| gaps once min_samples
  // outcomes arrived; alert when score > threshold.
  double drift_short_alpha = 1.0 / 64;
  double drift_long_alpha = 1.0 / 1024;
  double drift_threshold = 0.15;
  std::uint64_t drift_min_samples = 512;
};

/// Outcome counts of one service class (model-served or fallback-served).
struct ScoreboardCounts {
  std::uint64_t issued = 0;
  std::uint64_t hits = 0;
  std::uint64_t expired = 0;
  std::uint64_t evicted = 0;
  std::uint64_t superseded = 0;
  std::uint64_t unresolved = 0;

  std::uint64_t scored() const { return hits + expired + evicted; }
  double precision() const {
    return scored() == 0
               ? 0.0
               : static_cast<double>(hits) / static_cast<double>(scored());
  }
};

/// Per-snapshot-version outcome row. version 0 is the overflow row —
/// versions beyond the slot table fold into it.
struct ScoreboardVersionRow {
  std::uint64_t version = 0;
  std::uint64_t issued = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;  ///< expired + evicted
  std::uint64_t superseded = 0;
};

/// Point-in-time aggregate, assembled from the relaxed counters.
struct ScoreboardTotals {
  std::uint64_t requests = 0;  ///< requests scored (admitted past skip/fault)
  ScoreboardCounts model;
  ScoreboardCounts fallback;
  std::uint64_t untracked = 0;  ///< predictions dropped by the ring cap
  std::array<std::uint64_t, popularity::kGradeCount> grade_issued{};
  std::array<std::uint64_t, popularity::kGradeCount> grade_hits{};
  std::vector<ScoreboardVersionRow> versions;  ///< version-sorted

  double usefulness() const {
    return requests == 0 ? 0.0
                         : static_cast<double>(model.hits + fallback.hits) /
                               static_cast<double>(requests);
  }
};

/// Short-vs-long EWMA divergence detector over two channels: precision
/// (one sample per scored model outcome) and head-URL mass (one sample per
/// scored request). Thread-safe; the mutex guards a handful of doubles.
class DriftWatch {
 public:
  struct Config {
    double short_alpha = 1.0 / 64;
    double long_alpha = 1.0 / 1024;
    double threshold = 0.15;
    std::uint64_t min_samples = 512;
  };

  struct State {
    double precision_short = 0.0;
    double precision_long = 0.0;
    double mass_short = 0.0;
    double mass_long = 0.0;
    std::uint64_t outcomes = 0;
    std::uint64_t requests = 0;
    double score = 0.0;
    bool alert = false;
  };

  explicit DriftWatch(const Config& cfg) : cfg_(cfg) {}

  void record_outcome(bool hit);
  void record_request(bool popular);
  State state() const;

  /// Number of false→true alert transitions so far — the edge-triggered
  /// form of State::alert. A consumer (the online trainer, a test) stores
  /// the last epoch it acted on and compares: `epoch != seen` means a new
  /// alert *edge* fired since, no matter how briefly the level was up or
  /// how long it stays up. Level-polling State::alert misses short alerts
  /// and re-fires on long ones; the epoch does neither.
  std::uint64_t alert_epoch() const;

 private:
  /// Recomputes the alert level after a sample and counts rising edges.
  /// Caller holds mu_.
  void update_alert_locked();

  Config cfg_;
  mutable std::mutex mu_;
  double p_short_ = 0.0, p_long_ = 0.0;
  double m_short_ = 0.0, m_long_ = 0.0;
  std::uint64_t outcomes_ = 0, requests_ = 0;
  bool alert_ = false;
  std::uint64_t alert_epoch_ = 0;
};

class Scoreboard {
 public:
  /// One outstanding prediction.
  struct Entry {
    UrlId url = 0;
    TimeSec issued = 0;
    std::uint64_t version = 0;
    std::uint8_t grade = 0;
    bool fallback = false;
  };

  /// Ring state of the clients hashed to one ModelServer shard. Lives in
  /// the shard and is mutated only under that shard's mutex.
  class ShardState {
   public:
    std::size_t ring_count() const { return rings_.size(); }

   private:
    friend class Scoreboard;
    struct Ring {
      std::vector<Entry> entries;  ///< oldest first
      TimeSec last_seen = 0;
    };
    std::unordered_map<ClientId, Ring> rings_;
  };

  /// The aggregate counters are the webppm_serve_scoreboard_* metrics of
  /// `metrics` (null: of a private registry), so totals() and a scrape
  /// read the same counters.
  Scoreboard(const ScoreboardOptions& opt, obs::MetricsRegistry* metrics);

  /// Runtime scoring toggle. Off = armed-but-idle: state is retained, the
  /// query path pays one relaxed load. Flipping it back on resumes scoring
  /// with whatever rings survived (stale entries expire normally).
  bool scoring() const { return scoring_.load(std::memory_order_relaxed); }
  void set_scoring(bool on) {
    scoring_.store(on, std::memory_order_relaxed);
  }

  // --- shard-locked API (caller holds the owning shard's mutex) ---

  /// Scores one arriving request against the client's outstanding ring:
  /// expired entries out first, then a URL match scores a hit. `pop` (the
  /// serving snapshot's table; may be null pre-publish) feeds the
  /// head-mass drift channel.
  void observe(ShardState& ss, ClientId client, UrlId url, TimeSec now,
               const popularity::PopularityTable* pop);

  /// Records the predictions issued for a request (the first track_top_k
  /// of `preds`). A still-outstanding entry for the same URL is
  /// superseded; a full ring evicts its oldest entry (scored evicted, or
  /// expired if its window already elapsed).
  void record(ShardState& ss, ClientId client,
              std::span<const ppm::Prediction> preds, TimeSec now,
              std::uint64_t version, bool fallback,
              const popularity::PopularityTable& pop);

  /// Drops rings idle past `horizon` (clamped to >= window_sec, so every
  /// dropped entry is necessarily past its window and scores expired —
  /// sweep timing can never change outcome counts). Returns rings dropped.
  std::size_t sweep(ShardState& ss, TimeSec now, TimeSec horizon);

  /// Finalizes every ring in the shard at `now`: past-window entries score
  /// expired, still-open ones unresolved; rings are released. Used at the
  /// end of a replay so live counts can be compared against an oracle.
  void settle_shard(ShardState& ss, TimeSec now);

  // --- lock-free readers ---

  ScoreboardTotals totals() const;
  DriftWatch::State drift() const { return drift_.state(); }
  std::uint64_t drift_alert_epoch() const { return drift_.alert_epoch(); }
  obs::HistogramSnapshot hit_lag() const { return hit_lag_->snapshot(); }

  /// The /scoreboard JSON document. `rings` is the current ring count
  /// (the caller sums shards; 0 when unknown).
  std::string json_text(std::size_t rings) const;

  /// Re-derives the summary gauges (precision/usefulness/drift/rings) into
  /// the registry. Counters need no publishing step — they are written in
  /// place.
  void publish_metrics(std::size_t rings);

  const ScoreboardOptions& options() const { return opt_; }

 private:
  struct ClassCounters {
    obs::Counter* issued;
    obs::Counter* hits;
    obs::Counter* expired;
    obs::Counter* evicted;
    obs::Counter* superseded;
    obs::Counter* unresolved;
  };

  /// Per-version outcome slots, CAS-claimed by version id on first use.
  struct VersionSlot {
    std::atomic<std::uint64_t> version{0};
    std::atomic<std::uint64_t> issued{0};
    std::atomic<std::uint64_t> hits{0};
    std::atomic<std::uint64_t> misses{0};
    std::atomic<std::uint64_t> superseded{0};
  };
  static constexpr std::size_t kVersionSlots = 8;

  VersionSlot& slot_for(std::uint64_t version);
  void score_hit(const Entry& e, TimeSec now);
  void score_miss(const Entry& e, bool expired);
  void score_superseded(const Entry& e);
  void score_unresolved(const Entry& e);
  bool entry_expired(const Entry& e, TimeSec now) const {
    return now > e.issued + opt_.window_sec;
  }

  ScoreboardOptions opt_;
  std::atomic<bool> scoring_{true};
  DriftWatch drift_;

  std::unique_ptr<obs::MetricsRegistry> own_metrics_;
  obs::Counter* requests_;
  obs::Counter* untracked_;
  ClassCounters model_;
  ClassCounters fallback_;
  std::array<obs::Counter*, popularity::kGradeCount> grade_issued_;
  std::array<obs::Counter*, popularity::kGradeCount> grade_hits_;
  obs::LogHistogram* hit_lag_;

  std::array<VersionSlot, kVersionSlots> version_slots_;
  VersionSlot overflow_;

  // Summary gauges, re-derived by publish_metrics().
  obs::Gauge* precision_gauge_;
  obs::Gauge* usefulness_gauge_;
  obs::Gauge* rings_gauge_;
  obs::Gauge* drift_score_gauge_;
  obs::Gauge* drift_alert_gauge_;
};

}  // namespace webppm::serve
