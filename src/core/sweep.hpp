// Incremental day-sweep engine — the shared machinery behind every
// table/figure harness.
//
// The paper's protocol ("train on days 1..k, evaluate day k+1", swept over
// k) makes the naive driver quadratic: run_day_experiment retrains each
// model from scratch per sweep point and recomputes every trace-level
// input. The engine owns all cross-experiment shared state and removes the
// redundancy without changing any result:
//
//   * prepared once per trace  — sessions (streamed day-by-day through an
//     IncrementalSessionizer into closed sessions + per-day open tails),
//     client classification, and per-window PopularityTables built from
//     cumulative day counts;
//   * incremental training     — each model of a sweep is one
//     core::IncrementalModel (core/incremental_model.hpp), the family the
//     online trainer drives too, trained on the closed sessions of the
//     window: advancing a sweep point regrades it to the new window's
//     table and absorbs one day's closed sessions instead of retraining
//     the window. Sessions still open at the window edge are applied to
//     what each sweep point evaluates, never to the base. A PB model
//     re-walks only the sessions that hold a URL whose grade moved;
//   * baseline memoisation     — the prefetch-disabled run never consults
//     the predictor or popularity table, so it is cached per eval day and
//     shared across all models of a multi-model sweep;
//   * optional parallelism     — with a ThreadPool, per-cell (model × day)
//     simulations run concurrently on owned model snapshots; the models
//     share the engine's window read-only.
//
// The naive run_day_experiment stays untouched as the correctness oracle;
// tests/core_sweep_test.cpp asserts field-for-field equality against it.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "core/experiment.hpp"
#include "obs/metrics.hpp"
#include "session/session.hpp"
#include "sim/simulator.hpp"
#include "util/thread_pool.hpp"

namespace webppm::core {

/// Where an engine's wall-clock time went, plus the cache-effectiveness
/// counters bench/sweep_perf reports. Cumulative over the engine's life.
struct SweepTimings {
  double prepare_seconds = 0.0;   ///< ctor: sessions + popularity prefixes
  double train_seconds = 0.0;     ///< incremental training + snapshots
  double simulate_seconds = 0.0;  ///< with-prefetch + baseline simulations
  std::size_t baseline_runs = 0;         ///< prefetch-disabled sims executed
  std::size_t baseline_memo_hits = 0;    ///< ... served from the memo instead
  std::size_t pb_regraded_sessions = 0;  ///< PB sessions regraded on drift
  std::size_t cells = 0;                 ///< (model × day) evaluations done
};

class SweepEngine {
 public:
  /// Prepares the per-day caches for `trace` (which must outlive the
  /// engine). `sim_config` is the base config every evaluation uses (the
  /// per-model prefetch policy is applied on top, exactly as
  /// run_day_experiment does). With a non-null `pool` of more than one
  /// thread, sweeps simulate cells concurrently; otherwise they run
  /// serially and in place, which avoids model snapshots entirely.
  /// `metrics`, when non-null, attaches webppm_sweep_* instrumentation:
  /// per-cell train/eval latency histograms, baseline-memo hit/miss and
  /// PB regraded-session counters, and a thread-pool queue-depth gauge
  /// sampled at cell granularity. SweepTimings stays authoritative either
  /// way.
  explicit SweepEngine(const trace::Trace& trace,
                       const sim::SimulationConfig& sim_config = {},
                       util::ThreadPool* pool = nullptr,
                       obs::MetricsRegistry* metrics = nullptr);

  /// run_day_experiment(trace, spec, k) for k = 1..max_train_days, in day
  /// order, trained incrementally. Identical results to the naive loop.
  std::vector<DayEvalResult> sweep(const ModelSpec& spec,
                                   std::uint32_t max_train_days);

  /// Multi-model sweep sharing the baseline memo across models. Returns
  /// one day-ordered vector per spec, in spec order.
  std::vector<std::vector<DayEvalResult>> sweep_models(
      std::span<const ModelSpec> specs, std::uint32_t max_train_days);

  /// One sweep point (== run_day_experiment), using the engine's caches.
  DayEvalResult evaluate(const ModelSpec& spec, std::uint32_t train_days);

  /// Model size per window (the space tables): node_count of the model
  /// trained on days 1..k, for k = 1..max_train_days. No simulations.
  std::vector<std::size_t> node_count_sweep(const ModelSpec& spec,
                                            std::uint32_t max_train_days);

  /// Calls `visit(k, model)` with the incrementally trained window-k model
  /// for k = 1..max_train_days, in order: the models sweep() evaluates.
  /// `model` is valid only during the call.
  void visit_models(
      const ModelSpec& spec, std::uint32_t max_train_days,
      const std::function<void(std::uint32_t, const ppm::Predictor&)>& visit);

  /// Client classification of the full trace (computed once, shared).
  const session::ClientClassification& classes() const;

  /// Popularity table of the window days [0, train_days). Reference is
  /// stable for the engine's life.
  const popularity::PopularityTable& window_popularity(
      std::uint32_t train_days) const;

  /// Prefetch-disabled metrics for `eval_day`, memoised. Model-independent:
  /// with prefetching off the simulator never consults the predictor or
  /// the popularity table. Reference is stable for the engine's life.
  const sim::Metrics& baseline(std::uint32_t eval_day);

  const SweepTimings& timings() const { return timings_; }
  const trace::Trace& trace() const { return trace_; }
  const sim::SimulationConfig& sim_config() const { return sim_config_; }

  // The session window, which the engine hands its IncrementalModels and
  // the equivalence tests read. Window k = days [0, k); closed/open refer
  // to the sessionizer state after feeding exactly those days.
  std::span<const session::Session> closed_through(
      std::uint32_t train_days) const;
  std::span<const session::Session> closed_delta(std::uint32_t from_days,
                                                 std::uint32_t to_days) const;
  std::span<const session::Session> open_tails(
      std::uint32_t train_days) const;

 private:
  /// One (model × day) evaluation on an already-trained window-k model;
  /// produces exactly run_day_experiment's DayEvalResult fields. The model
  /// is read-only: the path-utilisation metric accumulates in a local
  /// UsageScratch, so one model instance can serve many cells (and threads)
  /// at once.
  DayEvalResult evaluate_cell(const ModelSpec& spec,
                              const ppm::Predictor& model,
                              std::uint32_t train_days);

  struct DayState {
    std::size_t closed_end = 0;  ///< sessionizer closed() size after day d
    std::vector<session::Session> tails;  ///< open sessions after day d
    popularity::PopularityTable popularity;  ///< over days [0, d]
  };

  /// Resolved registry handles (null registry => null struct). Counters
  /// mirror the SweepTimings cache-effectiveness fields live; histograms
  /// record per-cell nanoseconds.
  struct Instruments {
    obs::Counter* cells;
    obs::Counter* baseline_runs;
    obs::Counter* baseline_memo_hits;
    obs::Counter* pb_regraded;
    obs::Gauge* pool_queue_depth;
    obs::LogHistogram* train_cell;
    obs::LogHistogram* eval_cell;
  };

  const trace::Trace& trace_;
  sim::SimulationConfig sim_config_;
  util::ThreadPool* pool_ = nullptr;
  std::unique_ptr<Instruments> ins_;
  session::IncrementalSessionizer sessionizer_;
  std::vector<DayState> days_;

  std::mutex mu_;  ///< guards baselines_ and timings_
  std::map<std::uint32_t, sim::Metrics> baselines_;  ///< stable references
  SweepTimings timings_;

  // The baseline run needs *a* predictor and popularity table to satisfy
  // simulate_direct's signature; with prefetching disabled neither is ever
  // consulted, so share inert dummies across all baseline runs.
  ppm::TopNPredictor baseline_dummy_;
  popularity::PopularityTable empty_popularity_;
};

}  // namespace webppm::core
