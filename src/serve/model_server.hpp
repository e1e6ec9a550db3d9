// Concurrent model server — the deployment shape the paper's §2 server
// describes: train on historical days offline, then answer per-click
// prediction queries for every active client from a frozen model.
//
// Concurrency design:
//   * The trained model lives in an immutable Snapshot behind an atomically
//     swapped shared_ptr (RCU-style). Readers grab the pointer — a refcount
//     bump under a slot mutex held for two instructions — then predict on
//     the const query API with no lock at all; publish() installs a new
//     snapshot without pausing queries — in-flight readers keep the old
//     snapshot alive until their shared_ptr drops. (The slot is a mutex
//     rather than std::atomic<shared_ptr>: libstdc++'s _Sp_atomic unlocks
//     its load() spin-bit with memory_order_relaxed, which leaves the
//     pointer read formally unordered against a concurrent store — TSan
//     reports it, and the mutex costs nothing at snapshot-copy granularity.)
//   * Client session contexts are mutable per-click state; they are sharded
//     by ClientId hash over N OnlineSessionizer shards, each with its own
//     mutex. A query locks exactly one shard, copies the (<= window-length)
//     context out, and predicts outside the lock.
//
// Graceful degradation (DESIGN.md §9): every snapshot also owns a
// popularity-only Top-N fallback predictor built from its popularity
// table. When the full model is unavailable (a degraded snapshot published
// after total snapshot-store loss) or a client is shed by the per-shard
// client cap, the server answers from the fallback instead of failing —
// prefetching degrades to the paper's Top-10 baseline rather than
// stopping. Every degraded answer and shed admission is counted in
// webppm_serve_degraded_* metrics.
//
// The snapshot owns everything prediction needs: the predictor and the
// popularity table its grades point into (PB-PPM reads grades at predict
// time), so a snapshot outlives any retraining cycle that produced its
// successor.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "popularity/popularity.hpp"
#include "ppm/predictor.hpp"
#include "serve/scoreboard.hpp"
#include "session/online.hpp"
#include "trace/record.hpp"
#include "util/types.hpp"

namespace webppm::serve {

/// Immutable published model: a predictor plus the popularity table of its
/// training window, plus the popularity-only fallback used for degraded
/// service. Never mutated after construction — shared freely across query
/// threads. `model` may be null in a *degraded snapshot* (fallback-only
/// service); `fallback` is null only when the popularity table is empty.
struct Snapshot {
  popularity::PopularityTable popularity;
  std::unique_ptr<const ppm::Predictor> model;
  std::unique_ptr<const ppm::Predictor> fallback;
  std::uint64_t version = 0;

  bool degraded() const { return model == nullptr; }

  /// Bytes the snapshot's predictors hold to serve queries: the model plus
  /// the popularity fallback, via Predictor::storage_bytes(). An arena
  /// model reports its heap footprint; a frozen model reports its payload
  /// size (mmapped or heap-backed) — the gauge exported from this is how
  /// the ~6x arena-to-frozen shrink shows up in /metrics.
  std::size_t storage_bytes() const {
    std::size_t bytes = 0;
    if (model != nullptr) bytes += model->storage_bytes();
    if (fallback != nullptr) bytes += fallback->storage_bytes();
    return bytes;
  }
};

/// Wraps a trained predictor into a publishable snapshot. `popularity` is
/// moved in; no model reads it (a PB model's grades are in its frozen
/// payload), so the snapshot is self-contained. A Top-N fallback is
/// derived from the popularity table (absent when the table is empty).
/// `fallback_top_n` sizes its push set.
std::shared_ptr<const Snapshot> make_snapshot(
    std::unique_ptr<ppm::Predictor> model,
    popularity::PopularityTable popularity, std::uint64_t version,
    std::size_t fallback_top_n = 10);

/// Fallback-only snapshot for when no full model can be recovered (every
/// snapshot-store generation corrupt, say): serves the popularity table's
/// Top-N push set to every query. Publishing one flips the server into
/// degraded mode.
std::shared_ptr<const Snapshot> make_degraded_snapshot(
    popularity::PopularityTable popularity, std::uint64_t version,
    std::size_t fallback_top_n = 10);

/// Structured result of opening a persisted snapshot: exactly one of
/// `snapshot` / `error` is meaningful. The error string names what the
/// bytes violated, so snapshot-store rollback can log *why* a generation
/// was rejected.
struct SnapshotLoadResult {
  std::shared_ptr<const Snapshot> snapshot;
  std::string error;
};

/// Sink for the server's request stream — the tap the online-training
/// pipeline hangs off (DESIGN.md §15). An attached observer sees *every*
/// request offered to query_ex/query_batch/observe, in arrival order,
/// before admission filtering: error-status requests are included (the
/// popularity table counts them, so a trainer that skipped them would
/// diverge from the offline oracle) and so are requests a chaos fault or
/// the shed cap later refuses — the observer mirrors the raw access log,
/// which is exactly what offline training consumes.
///
/// on_request runs on the query thread under no lock; implementations must
/// be cheap, thread-safe, and noexcept (a bounded queue push, not a train
/// step). Detached (the default) the hook costs one relaxed load + branch;
/// the online-training bench gates that at <3% with byte-identical
/// predictions.
///
/// query_batch hands over its whole batch in one on_requests call (request
/// order, same admission rule) — so query_ex, a batch of one, passes a
/// one-request span; observe calls on_request. The default on_requests
/// forwards one request at a time, so an observer that only overrides
/// on_request sees the same stream either way; overriding it lets a queue
/// take a batch under one lock and wake its consumer once.
class RequestObserver {
 public:
  virtual ~RequestObserver() = default;
  virtual void on_request(const trace::Request& r) noexcept = 0;
  virtual void on_requests(std::span<const trace::Request> reqs) noexcept {
    for (const auto& r : reqs) on_request(r);
  }
};

struct ModelServerConfig {
  /// Client-context shards. More shards = less lock contention between
  /// concurrent queries; memory cost is one sessionizer table per shard.
  std::size_t shards = 16;
  /// Session rules — must mirror training (idle timeout, reload dedup,
  /// error skipping) so serve-time contexts match training-time sessions.
  session::SessionizerOptions session;
  /// Click-context window length (same role as the simulator's).
  std::size_t context_window = 16;
  /// Drop client contexts idle longer than idle_timeout * this factor
  /// (0 disables). An evicted context is indistinguishable from an
  /// idle-timeout reset, so eviction never changes prediction results —
  /// it only bounds memory for million-client populations.
  double idle_eviction_factor = 0.0;
  /// Hard cap on client contexts per shard (0 = unbounded). A request from
  /// an unseen client that lands on a full shard is *shed*: no context is
  /// created and the query is answered from the snapshot's popularity
  /// fallback (degraded service) instead of growing the table. Known
  /// clients keep full service — the cap only refuses new admissions.
  std::size_t max_clients_per_shard = 0;
  /// The registry the webppm_serve_* counters and gauges live in: query,
  /// publish, degradation, fault and observe counts, snapshot-generation
  /// gauges, sessionizer eviction totals. Null gives the server a private
  /// one, so the count accessors below work either way. Only an attached
  /// registry gets the sampled query-latency histogram and the shard-lock
  /// contention probe, so a detached server reads no clock — the overhead
  /// bench asserts the attached cost < 3%.
  obs::MetricsRegistry* metrics = nullptr;
  /// Record one query-latency sample every N queries (>= 1, 1 = every
  /// query). Sampling keeps the two clock reads off the common path;
  /// counters are exact regardless. The cadence counter is per-instance,
  /// so two servers sharing a thread each sample every Nth of *their own*
  /// queries.
  std::uint32_t latency_sample_every = 64;
  /// Prediction-outcome scoreboard (DESIGN.md §13). Disabled by default:
  /// nothing is allocated and the query path is unchanged. When enabled,
  /// ring state lives in the context shards (under the shard mutexes) and
  /// the webppm_serve_scoreboard_* metrics register into the server's
  /// registry. Scoring never changes predictions —
  /// ServePiggyback.ScoringServerMatchesSimulator checks byte identity
  /// with the scoreboard armed.
  ScoreboardOptions scoreboard;
};

/// How a query was answered (QueryResult::served).
enum class ServedBy : std::uint8_t {
  kNone,      ///< no snapshot, skipped error request, or refused
  kModel,     ///< the full Markov model
  kFallback,  ///< the popularity-only fallback (degraded service)
};

/// Outcome of one query: what query_ex() returns, and what each
/// BatchQueryItem of a query_batch() carries.
struct QueryResult {
  bool predicted = false;        ///< a prediction pass ran (out is valid)
  ServedBy served = ServedBy::kNone;
  bool shed = false;             ///< client refused by the per-shard cap
  /// Version of the snapshot the call loaded (0 when none was published) —
  /// the label a response must carry: reading version() afterwards races
  /// a concurrent publish.
  std::uint64_t snapshot_version = 0;
};

/// Per-request outcome of a query_batch() call: its QueryResult plus the
/// slice of BatchQueryScratch::predictions holding its prefetch candidates
/// ([first, first + count); empty unless result.predicted).
struct BatchQueryItem {
  QueryResult result;
  std::uint32_t first = 0;
  std::uint32_t count = 0;
};

/// Caller-owned scratch for query_batch(). Reuse one instance across
/// batches (per connection / per worker thread) — every vector inside
/// reaches a steady-state capacity after a few batches, so the batched hot
/// path stops allocating entirely. Outputs: `items` (one per request, in
/// request order), the flat `predictions` pool they slice, and the
/// `snapshot_version` every sub-result was answered from.
struct BatchQueryScratch {
  std::vector<BatchQueryItem> items;
  std::vector<ppm::Prediction> predictions;
  std::uint64_t snapshot_version = 0;

  /// Slice of `predictions` belonging to `items[i]`.
  std::span<const ppm::Prediction> predictions_of(std::size_t i) const {
    return std::span<const ppm::Prediction>(predictions)
        .subspan(items[i].first, items[i].count);
  }

  // Internal grouping state (exposed only so the allocations are reused).
  std::vector<std::uint32_t> shard_index;
  std::vector<std::uint32_t> shard_count;
  std::vector<std::uint32_t> shard_start;
  std::vector<std::uint32_t> order;
  std::vector<UrlId> ctx_flat;
  std::vector<std::uint32_t> ctx_begin;
  std::vector<std::uint32_t> ctx_len;
  std::vector<ppm::Prediction> preds_tmp;
};

class ModelServer {
 public:
  explicit ModelServer(const ModelServerConfig& config = {});

  /// Atomically installs `snap` as the serving model. Queries in flight
  /// finish on the previous snapshot; new queries see `snap`. Never blocks
  /// readers. Typically called from a training thread. Publishing a
  /// degraded (fallback-only) snapshot flips the server into degraded
  /// mode; transitions are counted and logged.
  void publish(std::shared_ptr<const Snapshot> snap);

  /// Current snapshot (nullptr before the first publish). Readers may hold
  /// it as long as they like.
  std::shared_ptr<const Snapshot> snapshot() const;

  /// Version of the current snapshot; 0 before the first publish.
  std::uint64_t version() const;

  /// True when the current snapshot is fallback-only (no full model).
  bool degraded() const;

  /// Feeds one client click and fills `out` with prefetch candidates for
  /// that client's updated context: query_batch over a one-request span
  /// (with a thread-local scratch), so it has no semantics of its own. The
  /// result says whether a prediction pass ran, which predictor answered,
  /// and whether the client was shed by the per-shard cap.
  QueryResult query_ex(const trace::Request& r,
                       std::vector<ppm::Prediction>& out);

  /// Compatibility form: true when a prediction pass ran (model or
  /// fallback), false when no model is published yet or the request is a
  /// skipped error.
  bool query(const trace::Request& r, std::vector<ppm::Prediction>& out) {
    return query_ex(r, out).predicted;
  }

  /// The query path: feeds every request and fills `scratch` with one
  /// item per request (request order preserved). Per-request semantics —
  /// error skipping, the serve.query fault site, shed admission, fallback
  /// selection, every counter — do not depend on how requests are
  /// batched: a batch answers exactly as replaying its requests one at a
  /// time (each a batch of one, as query_ex runs them) would. Batching
  /// changes only the cost: requests are grouped by context shard and each
  /// touched shard's lock is taken *once per batch* (contexts copied out
  /// under it), the snapshot pointer is loaded once, and predictions go
  /// into one flat caller-owned pool. The per-shard loops walk only the
  /// range of shards the batch touched, so a batch of one costs one shard.
  /// Because the client→shard map is a pure hash, one client's clicks stay
  /// in one group in arrival order, so its sessionizer sees the exact
  /// sequence a per-request replay would. The attached observer gets the
  /// batch in one on_requests call. Thread-safe against concurrent
  /// query_batch / query_ex / publish; every sub-result reports the same
  /// snapshot_version.
  void query_batch(std::span<const trace::Request> reqs,
                   BatchQueryScratch& scratch);

  /// Total query calls that produced a prediction pass (full or degraded).
  std::uint64_t query_count() const { return c_.queries.value(); }

  /// Queries answered by the popularity fallback (degraded snapshot or
  /// shed client).
  std::uint64_t degraded_query_count() const {
    return c_.degraded_queries.value();
  }

  /// Queries from unseen clients refused by the per-shard client cap.
  std::uint64_t shed_count() const { return c_.shed.value(); }

  /// Queries refused by an injected "serve.query" fault.
  std::uint64_t fault_rejected_count() const {
    return c_.fault_rejected.value();
  }

  /// Client contexts currently held (sums all shards; locks each briefly).
  std::size_t client_count() const;

  /// Forces an idle-context sweep on every shard (see
  /// ModelServerConfig::idle_eviction_factor). Returns contexts dropped.
  std::size_t evict_idle(TimeSec now);

  /// Snapshot generations still alive: the current one plus every retired
  /// snapshot kept pinned by in-flight readers. 1 is steady state; > 2
  /// means old models are not being released (the leak canary logs a
  /// structured warning event when publish observes that).
  std::size_t snapshot_generations_live() const;

  /// Outstanding shared references to retired (non-current) snapshots —
  /// how many holders still sit on a superseded model.
  std::size_t retired_snapshot_refs() const;

  /// Re-derives the metrics that are summaries of server state (client
  /// count, eviction totals, snapshot generations and bytes) into the
  /// registry. Cheap but shard-locking — call it from a reporter tick, not
  /// the query path. Counts need no refresh: they are counted in place.
  void refresh_gauges();

  /// The prediction-outcome scoreboard; nullptr unless
  /// config.scoreboard.enabled.
  Scoreboard* scoreboard() { return sb_.get(); }
  const Scoreboard* scoreboard() const { return sb_.get(); }

  /// Outstanding-prediction rings currently held (sums all shards; locks
  /// each briefly). 0 when the scoreboard is disabled.
  std::size_t scoreboard_ring_count() const;

  /// Finalizes every outstanding prediction at `now` (past-window entries
  /// score expired, open ones unresolved) — the end-of-replay step that
  /// makes live counts comparable to an offline oracle. No-op when the
  /// scoreboard is disabled.
  void scoreboard_settle(TimeSec now);

  /// The /scoreboard JSON document ("{}\n" when disabled).
  std::string scoreboard_json() const;

  /// True when the DriftWatch currently signals drift (always false when
  /// the scoreboard is disabled) — the /healthz "drift" state and the
  /// online-training trigger hook.
  bool drift_alert() const;

  /// Rising-edge count of the drift alert (0 when the scoreboard is
  /// disabled). Consumers keep the last epoch they handled and compare —
  /// the edge-triggered API the online trainer and tests use instead of
  /// level-polling drift_alert() or scraping /healthz.
  std::uint64_t drift_alert_epoch() const;

  /// Attaches (or, with nullptr, detaches) the request-stream observer.
  /// The hook is a single atomic pointer: attach/detach is safe against
  /// concurrent queries, but the caller must keep the observer alive until
  /// detach has returned *and* in-flight queries have drained (in practice:
  /// detach, then stop the traffic source, then destroy).
  void attach_observer(RequestObserver* observer) {
    observer_.store(observer, std::memory_order_release);
  }
  RequestObserver* observer() const {
    return observer_.load(std::memory_order_acquire);
  }

  /// Feeds one request into the server *without* predicting: the observe
  /// frame's backend (DESIGN.md §15). The request reaches the attached
  /// RequestObserver, advances the client's session context (so a later
  /// query predicts from the full click history), and — when the
  /// scoreboard is scoring — resolves outstanding predictions for the
  /// client (a prefetched URL consumed via a path that never asked for a
  /// prediction still counts as a hit). No prediction pass runs and no
  /// prediction is recorded; query_count() is unaffected.
  void observe(const trace::Request& r);

  /// Requests fed through observe() (including skipped error requests).
  std::uint64_t observe_count() const { return c_.observes.value(); }

  const ModelServerConfig& config() const { return config_; }

 private:
  struct Shard {
    mutable std::mutex mu;
    session::OnlineSessionizer contexts;
    Scoreboard::ShardState sb;  ///< under mu, like the contexts
    explicit Shard(const ModelServerConfig& cfg)
        : contexts(cfg.session, cfg.context_window, cfg.idle_eviction_factor,
                   cfg.max_clients_per_shard) {}
  };

  std::size_t shard_index_of(ClientId client) const {
    // Multiplicative hash: trace ClientIds are small dense integers, so
    // modulo alone would put consecutive clients in consecutive shards —
    // fine — but hash anyway so adversarial id patterns cannot pile onto
    // one shard.
    const std::uint64_t h = (client + 1) * 0x9e3779b97f4a7c15ull;
    return (h >> 32) % shards_.size();
  }

  /// Locks `sh.mu` (caller adopts), recording the wait when contended —
  /// the shared slow path of query_batch and observe. The uncontended
  /// fast path records nothing: try_lock success costs the same as a
  /// plain lock.
  void lock_shard(Shard& sh) {
    if (timing_ != nullptr && !sh.mu.try_lock()) {
      const std::uint64_t w0 = obs::now_ns();
      sh.mu.lock();
      timing_->shard_lock_wait.record(obs::now_ns() - w0);
      timing_->shard_lock_contended.add();
    } else if (timing_ == nullptr) {
      sh.mu.lock();
    }
  }

  /// The RCU slot: holds the current snapshot; load() copies the pointer
  /// (refcount bump) and store() swaps it, each under a mutex held for the
  /// duration of that pointer operation only. The displaced snapshot is
  /// released outside the lock so its destructor (a whole model) never runs
  /// under the slot mutex.
  class SnapshotSlot {
   public:
    std::shared_ptr<const Snapshot> load() const {
      std::lock_guard lock(mu_);
      return snap_;
    }
    /// Installs `snap` and returns the displaced snapshot so the caller
    /// can track (and eventually destroy) it outside the slot lock.
    std::shared_ptr<const Snapshot> exchange(
        std::shared_ptr<const Snapshot> snap) {
      std::lock_guard lock(mu_);
      snap_.swap(snap);
      return snap;
    }

   private:
    mutable std::mutex mu_;
    std::shared_ptr<const Snapshot> snap_;
  };

  /// Registry handles resolved once at construction so the query path
  /// never does a name lookup: every count and gauge, in the attached
  /// registry or the server's own.
  struct Counters {
    obs::Counter &queries, &publishes, &evictions, &degraded_queries, &shed,
        &fault_rejected, &degraded_transitions, &observes;
    obs::Gauge &snapshot_version, &generations_live, &retired_refs, &clients,
        &degraded_mode, &snapshot_bytes;
  };
  static Counters register_counters(obs::MetricsRegistry& reg);
  /// Sampled timing and the contention probe: attached registry only.
  struct Timing {
    obs::Counter& shard_lock_contended;
    obs::LogHistogram &query_latency, &shard_lock_wait;
  };

  /// True every config.latency_sample_every-th query *of this server* —
  /// the cadence counter is a per-instance atomic, so two servers sharing
  /// a thread (tests, benches) keep independent sampling cadences.
  bool sample_latency_now() {
    if (config_.latency_sample_every <= 1) return true;
    return latency_tick_.fetch_add(1, std::memory_order_relaxed) %
               config_.latency_sample_every ==
           0;
  }

  void update_generation_metrics();

  ModelServerConfig config_;
  std::unique_ptr<obs::MetricsRegistry> own_metrics_;
  obs::MetricsRegistry& metrics_;  ///< attached, else own_metrics_
  Counters c_;
  std::unique_ptr<Timing> timing_;
  std::vector<std::unique_ptr<Shard>> shards_;
  SnapshotSlot snap_;
  std::atomic<RequestObserver*> observer_{nullptr};
  std::atomic<std::uint32_t> latency_tick_{0};

  std::unique_ptr<Scoreboard> sb_;  ///< null unless scoreboard.enabled
  TimeSec sb_sweep_horizon_ = 0;    ///< idle horizon handed to sb_->sweep

  /// Retired-snapshot tracking (weak: tracking never keeps a model alive).
  /// Maintained regardless of instrumentation so the generation accessors
  /// work on any server; cost is publish-rate only.
  mutable std::mutex gen_mu_;
  std::vector<std::weak_ptr<const Snapshot>> retired_;
  bool degraded_mode_ = false;            ///< under gen_mu_ (publish state)
  std::uint64_t evictions_reported_ = 0;  ///< under gen_mu_ (counter delta)
};

}  // namespace webppm::serve
