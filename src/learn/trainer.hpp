// learn::OnlineTrainer — the online-training pipeline: learn from the
// traffic being served and continuously republish the model
// (DESIGN.md §15).
//
// The deployment loop the paper leaves offline — collect a day's log,
// re-run training, hand the server a new model — becomes a pipeline inside
// the serving process:
//
//   ModelServer query/observe path
//     └─ RequestObserver tap (one atomic load when detached)
//          └─ ObservationQueue (bounded, drop-on-full — never blocks serving)
//               └─ trainer: sessionize → extend shadow model → publish
//                    └─ ModelServer::publish (RCU swap; queries never pause)
//
// Each observation is copied once, at the tap. The queue's buffer grows
// with its backlog (queue_capacity only bounds it), a drain takes the
// buffer whole, and the trainer feeds the popularity counts and the
// sessionizer straight from the drained observations.
//
// The *shadow model* is the trainer's private growing base — the serving
// snapshot is never mutated. It is a core::IncrementalModel, the one
// family the offline SweepEngine drives too (core/incremental_model.hpp):
// closed sessions append via train_more (exact for Standard/LRS/Top-N),
// and PB-PPM keeps an unpruned ppm::PbBase reading the popularity grades
// of the last publish, regraded in place when grades drift. Steps absorb
// the sessions their feeds close, in batches of kAbsorbBatch as they
// close (catch-up steps included): they join the retained window and the
// shadow, a PB base inserting them under the grades it holds (the first
// absorb creates the base under a table built from the counts seen so
// far). A publish then settles its boundary, regrades a PB base to the
// new table (re-walking, where they lie, only the retained sessions that
// hold a URL whose grade moved, found through the PB model's URL ->
// session index), absorbs the sessions still waiting and those the settle
// closed, applies the open tails (to a copy, or for PB inserted into the
// base for the pruned emit and retracted after it), wraps the model with
// the cumulative popularity table via make_snapshot, optionally freezes
// it (a PB model is emitted frozen), optionally persists it through a
// SnapshotStore, and RCU-publishes into the target server. So a publish
// costs what changed since the last one, not the window.
//
// Determinism contract (OnlineTrainer.ConvergesToOracle*): fed the same
// request stream the offline oracle trains on — errors included, in
// timestamp order — and publishing only at day boundaries, the trainer's
// published model answers *byte-identically* to
// core::train_model(spec, trace, 0, k - 1) at every boundary k. It holds
// because:
//   * both sides see the same sessions and the same table. The trainer's
//     feeds are split at each boundary before it settles, so its closed
//     plus open sessions at boundary k are the multiset extract_sessions
//     returns for days [0, k), and its counts (errors included) build the
//     table PopularityTable::build does; the publish regrades the base to
//     that table before it emits;
//   * PbBase's stored shape depends only on the multiset of branches it
//     holds, so batched inserts in closing order, regrades in place and
//     tails inserted around the emit give what one batch insert gives;
//   * train_more appends exactly, so an append model absorbed in batches,
//     with the tails applied to a copy, equals one train() over the
//     window.
// Mid-day publishes (drift/interval/threshold triggers) publish windows
// that end between day boundaries, which no oracle run trains on, so the
// gate pins day_boundaries only.
//
// Old-window decay: retention is bounded by max_retained_sessions. After
// each absorb the oldest sessions past the bound leave the window there,
// and a PB base retracts them (and the index drops them) at once, so a
// capped PB trainer holds and publishes PB over exactly its window. The
// append-only shadows keep evicted history until
// policy.rebuild_every_publishes rebuilds them from the retained window;
// PB ignores that option. Popularity counts stay cumulative (they are
// cheap and error-inclusive; a rotating head re-grades itself by
// accumulation).
//
// Observations whose URL id exceeds kMaxTrainedUrl are dropped and counted
// (rejected()): URL ids size the popularity count table, and the serve tap
// passes on whatever a client sent.
//
// Fault site (chaos suite): learn.publish — a firing rule aborts the
// publish *before* it settles anything: the sessionizer, retained window,
// shadow base and serving snapshot are all as the last step left them,
// and the next publish covers the skipped one. What earlier steps
// absorbed stays absorbed: those sessions had closed, and every later
// publish includes them. A trainer crash or failed publish can therefore
// never corrupt serving — the server just keeps answering from the last
// good snapshot.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <thread>
#include <vector>

#include "core/experiment.hpp"
#include "core/incremental_model.hpp"
#include "learn/observation.hpp"
#include "obs/metrics.hpp"
#include "serve/model_server.hpp"
#include "serve/snapshot_store.hpp"
#include "session/session.hpp"
#include "util/types.hpp"

namespace webppm::learn {

/// Largest URL id the trainer learns from. The popularity counts are a
/// table indexed by URL id at 4 bytes per id, so this bound (2^24 ids)
/// caps that table at 64 MiB.
inline constexpr UrlId kMaxTrainedUrl = (UrlId{1} << 24) - 1;

/// Closed sessions a step lets wait before it absorbs them into the window
/// and the shadow; a publish absorbs whatever waits. A PB base takes a
/// batch this size with its hot nodes cached from one session to the
/// next, and an LRS or Top-N shadow re-derives its model once per batch,
/// not once per step. On a CPU shared with serving, absorbing at every
/// step put a cache-cold insert inside most served frames (DESIGN.md §15).
inline constexpr std::size_t kAbsorbBatch = 1024;

/// When the trainer freezes-and-publishes its shadow. Time here is *trace
/// time* (observation timestamps), not wall clock: the trainer serves
/// replayed history and live traffic with the same code.
struct PublishPolicy {
  /// Publish whenever the observed stream crosses a UTC day boundary —
  /// the offline protocol's cadence, and the only trigger active during
  /// the byte-identity convergence gate.
  bool day_boundaries = true;
  /// Publish every `interval_sec` of observed time (0 = off).
  TimeSec interval_sec = 0;
  /// Publish after this many observations since the last publish (0 = off).
  std::uint64_t observation_threshold = 0;
  /// Publish immediately when the target server's DriftWatch raises a new
  /// alert (edge-triggered via ModelServer::drift_alert_epoch) — the
  /// flash-crowd recovery path OnlineTrainer.RecoversDriftAFrozenSnapshotCannot
  /// demonstrates.
  bool on_drift_alert = false;
  /// Every Nth publish, rebuild the shadow from the *retained* session
  /// window only (0 = never). With bounded retention this is the
  /// Standard/LRS/Top-N decay mechanism: evicted history is forgotten by
  /// the rebuilt base. PB ignores it and counts no rebuild: its base
  /// retracts evicted sessions as they leave, so it already holds exactly
  /// the window.
  std::uint32_t rebuild_every_publishes = 0;
};

/// Why the most recent publish happened.
enum class PublishTrigger : std::uint8_t {
  kNone,
  kManual,
  kDayBoundary,
  kInterval,
  kThreshold,
  kDriftAlert,
};

struct OnlineTrainerConfig {
  /// Model family + parameters the shadow trains; identical role to the
  /// offline ModelSpec.
  core::ModelSpec spec = core::ModelSpec::pb_model();
  /// Session rules — must mirror the target server's (and offline
  /// training's) so shadow sessions match.
  session::SessionizerOptions session;
  PublishPolicy policy;
  /// Most observations the queue between the serve tap and the trainer
  /// buffers; pushes past it drop. A bound, not a reservation: the
  /// queue's buffer grows with its backlog (learn/observation.hpp).
  std::size_t queue_capacity = 1 << 16;
  /// Closed sessions kept in the window (0 = unbounded — required for the
  /// convergence gate; bound it in production). The cap holds after every
  /// absorb. A PB model covers exactly the retained window; the other
  /// families forget evicted history at their next
  /// rebuild_every_publishes rebuild. Counted in storage_bytes().
  std::size_t max_retained_sessions = 0;
  /// Pre-size the popularity count vector (0 = grow on demand). Matching
  /// the trace's URL-space size makes the published popularity table
  /// equal the offline oracle's field-for-field, not just grade-for-grade.
  std::size_t url_count_hint = 0;
  /// Top-N size of published snapshots' degraded-service fallback.
  std::size_t fallback_top_n = 10;
  /// Freeze the published snapshot (serve::freeze_snapshot) so the target
  /// serves the compact SoA layout. Skipped for Top-N specs, whose only
  /// frozen form is popularity-only (it would degrade serving). A PB
  /// model is published frozen whether or not this is set; its freeze
  /// step passes it through.
  bool freeze_published = false;
  /// Non-null: every publish is also durably written here (generation
  /// file + manifest) before the in-memory publish. A store failure is
  /// counted and logged but does *not* block the in-memory publish —
  /// serving freshness beats durability for an online model.
  serve::SnapshotStore* store = nullptr;
  /// Trainer-thread wakeup cadence when the queue is idle.
  std::uint64_t poll_interval_ms = 50;
  /// The registry the webppm_learn_* counters and gauges live in, the
  /// queue's drop count included (null: a private one, so the accessors
  /// count either way). Only an attached registry gets the publish-stage
  /// histograms: webppm_learn_publish_model_ns (settle until the snapshot
  /// is built), _freeze_ns (sampled by freezing publishes only), _store_ns
  /// (sampled with a store only) and _swap_ns. A publish that the
  /// learn.publish fault aborts records none of them.
  obs::MetricsRegistry* metrics = nullptr;
};

class OnlineTrainer {
 public:
  /// `target` (and `config.store`, when set) must outlive the trainer.
  /// Nothing observes until attach() and nothing trains until step() or
  /// start().
  explicit OnlineTrainer(serve::ModelServer& target,
                         OnlineTrainerConfig config = {});
  ~OnlineTrainer();

  OnlineTrainer(const OnlineTrainer&) = delete;
  OnlineTrainer& operator=(const OnlineTrainer&) = delete;

  /// The serve-side tap; attach() is sugar for
  /// target.attach_observer(&queue()).
  ObservationQueue& queue() { return queue_; }
  const ObservationQueue& queue() const { return queue_; }
  void attach() { target_.attach_observer(&queue_); }
  /// Detaches only if this trainer's queue is the attached observer.
  void detach();

  // --- Manual stepping (deterministic single-threaded mode; the
  // convergence gate and most tests drive the trainer this way). Safe to
  // interleave with a running trainer thread, though pointless.

  /// Drains the queue, absorbs the batch (count + sessionize, and, once
  /// kAbsorbBatch closed sessions wait, those into the window and the
  /// shadow), and runs the publish policy. Returns observations absorbed.
  std::size_t step();

  /// Publishes at `settle_ts`: sessions idle since before it close into
  /// the shadow (after a PB base moved to the new grades), sessions still
  /// open apply to the published model as tails. False when an injected
  /// learn.publish fault aborted (state as the last step left it). For
  /// replay-exactness settle only at day boundaries (header comment).
  bool publish_at(TimeSec settle_ts);

  /// publish_at(latest observed timestamp) — "publish what you have now".
  bool publish_now();

  // --- Background mode.

  /// Spawns the trainer thread: drain → absorb → policy, waking on queue
  /// activity or every poll_interval_ms. False if already running.
  bool start();
  /// Closes the queue (subsequent taps drop), absorbs what was buffered,
  /// and joins. Idempotent; the destructor calls it. Detach the observer
  /// first if the target keeps serving.
  void stop();
  bool running() const { return running_.load(std::memory_order_acquire); }

  // --- Introspection (exact; safe from any thread). Each count is read
  // back from its one webppm_learn_* counter.

  std::uint64_t observations() const { return c_.observations.value(); }
  std::uint64_t dropped() const { return queue_.dropped(); }
  std::uint64_t publishes() const { return c_.publishes.value(); }
  std::uint64_t publish_failures() const { return c_.publish_failures.value(); }
  std::uint64_t store_failures() const { return c_.store_failures.value(); }
  /// Full rebuilds of the shadow from the retained window
  /// (rebuild_every_publishes; never for PB, which has nothing to rebuild).
  std::uint64_t rebuilds() const { return c_.rebuilds.value(); }
  /// Sessions whose branches PB regrades re-derived (grade drift applied
  /// in place): at each publish, the sessions of the base that hold a URL
  /// whose grade moved.
  std::uint64_t regraded_sessions() const { return c_.regraded_sessions.value(); }
  /// Observations dropped for a URL id past kMaxTrainedUrl.
  std::uint64_t rejected() const { return c_.rejected.value(); }
  std::uint64_t drift_republishes() const { return c_.drift_republishes.value(); }
  std::uint64_t last_published_version() const {
    return static_cast<std::uint64_t>(c_.version.value());
  }
  PublishTrigger last_trigger() const { return last_trigger_.load(std::memory_order_relaxed); }

  /// Closed sessions in the window, every one absorbed into the shadow
  /// (fewer than kAbsorbBatch more may wait in the sessionizer).
  std::size_t retained_sessions() const;
  /// Sessions still open inside the trainer's sessionizer.
  std::size_t open_sessions() const;
  /// Trainer-side resident bytes: shadow (for PB: base, grade table and
  /// URL index) + retained sessions + popularity counts + the buffer the
  /// observation queue holds (its backlog, not queue_capacity).
  std::size_t storage_bytes() const;

  const OnlineTrainerConfig& config() const { return config_; }

 private:
  /// Feeds one drained batch: sorts/clamps timestamps, splits it at day
  /// boundaries (publishing at each when the policy says so — the split
  /// keeps sessionizer operation history identical to the offline
  /// engine's), counts popularity, and feeds the sessionizer.
  void absorb_locked(std::vector<Observation>& batch);
  /// Feeds a timestamp-ordered sub-batch that crosses no publish boundary,
  /// then absorbs the closed sessions once kAbsorbBatch wait.
  void feed_locked(std::span<const Observation> batch);
  /// Moves the sessions the sessionizer closed into the retained window
  /// and the shadow, evicting the oldest past max_retained_sessions.
  void absorb_closed_locked();
  void policy_after_batch_locked();
  bool publish_locked(TimeSec settle_ts, PublishTrigger why);
  std::size_t storage_bytes_locked() const;
  void trainer_main();

  /// The webppm_learn_* counters and gauges (the queue registers its own).
  struct Counters {
    obs::Counter &observations, &publishes, &publish_failures,
        &store_failures, &rebuilds, &regraded_sessions, &rejected,
        &drift_republishes;
    obs::Gauge &retained, &storage_bytes, &version;
  };
  static Counters register_counters(obs::MetricsRegistry& reg);
  /// Publish-stage histograms; present only with an attached registry.
  struct Timing;

  serve::ModelServer& target_;
  OnlineTrainerConfig config_;
  std::unique_ptr<obs::MetricsRegistry> own_metrics_;
  Counters c_;
  ObservationQueue queue_;

  mutable std::mutex mu_;  ///< trainer state below
  session::IncrementalSessionizer sessionizer_;
  std::unique_ptr<core::IncrementalModel> shadow_;
  std::vector<session::Session> retained_;  ///< all in the shadow
  std::size_t retained_bytes_ = 0;  ///< resident bytes of retained_
  std::vector<std::uint32_t> counts_;  ///< cumulative per-URL (errors incl.)
  TimeSec max_seen_ts_ = 0;
  bool seen_any_ = false;
  TimeSec next_day_boundary_ = 0;
  TimeSec last_publish_ts_ = 0;
  std::uint64_t since_publish_ = 0;  ///< observations since last publish
  std::uint64_t drift_epoch_handled_ = 0;
  std::uint32_t publishes_since_rebuild_ = 0;
  std::uint64_t version_counter_ = 0;

  std::atomic<PublishTrigger> last_trigger_{PublishTrigger::kNone};

  std::thread thread_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};

  std::unique_ptr<Timing> timing_;
};

}  // namespace webppm::learn
