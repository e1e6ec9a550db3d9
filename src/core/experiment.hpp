// High-level experiment API: everything the examples and the table/figure
// benches consume. Wraps the full pipeline —
//   page trace -> sessions(train window) -> popularity table -> model
//   -> simulate eval day (with and without prefetching) -> metrics
// — following the paper's protocol of training on days 1..k and evaluating
// on day k+1.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "popularity/popularity.hpp"
#include "ppm/lrs_ppm.hpp"
#include "ppm/pb_base.hpp"
#include "ppm/standard_ppm.hpp"
#include "ppm/top_n.hpp"
#include "session/session.hpp"
#include "sim/simulator.hpp"
#include "trace/record.hpp"
#include "util/thread_pool.hpp"

namespace webppm::core {

enum class ModelKind { kStandard, kLrs, kPopularity, kTopN };

/// Full specification of one prediction model plus its prefetch policy
/// (the paper pairs per-model size thresholds with the models, §4.1).
struct ModelSpec {
  ModelKind kind = ModelKind::kPopularity;
  ppm::StandardPpmConfig standard;
  ppm::LrsPpmConfig lrs;
  ppm::PopularityPpmConfig pb;
  ppm::TopNConfig top_n;
  /// Prefetch size threshold for this model.
  std::uint64_t size_threshold_bytes = 100 * 1024;
  std::string label;

  /// Paper §4.1 configurations.
  static ModelSpec standard_unbounded();  ///< upper-bound standard PPM
  static ModelSpec standard_fixed(std::uint32_t height);  ///< e.g. 3-PPM
  static ModelSpec lrs_model();
  static ModelSpec pb_model();  ///< PB-PPM, 30 KB threshold, 10% cut
  /// PB-PPM with both space optimisations (used for the UCB-CS trace).
  static ModelSpec pb_model_aggressive();
  /// Markatos & Chronaki Top-N server-push baseline (paper §6, [20]).
  static ModelSpec top_n_model(std::size_t n = 10);
};

/// A trained predictor plus the popularity table of its training window.
/// A PB predictor is a frozen::FrozenModel (its only form).
struct TrainedModel {
  std::unique_ptr<ppm::Predictor> predictor;
  popularity::PopularityTable popularity;
  std::size_t training_sessions = 0;
  std::size_t training_requests = 0;
};

/// Trains `spec` on the page-level requests of days [first_day, last_day].
TrainedModel train_model(const ModelSpec& spec, const trace::Trace& trace,
                         std::uint32_t first_day, std::uint32_t last_day,
                         const session::SessionizerOptions& sessions = {});

/// `session::classify_clients(trace)` memoised per trace. Classification is
/// a function of the full trace (not the training window), so every sweep
/// point of every experiment shares one result; the raw call is O(trace)
/// and used to be recomputed inside every run_day_experiment. Thread-safe;
/// the reference stays valid for the life of the process (entries are never
/// evicted — a handful of traces exist per run).
const session::ClientClassification& cached_client_classes(
    const trace::Trace& trace);

/// Applies a model's prefetch policy to a base simulation config (shared by
/// run_day_experiment and the sweep engine so both build identical configs).
sim::SimulationConfig apply_prefetch_policy(const sim::SimulationConfig& base,
                                            const ModelSpec& spec,
                                            bool enabled);

/// Result of one train-k-days / evaluate-day-k run.
struct DayEvalResult {
  std::string model;
  std::uint32_t train_days = 0;
  sim::Metrics with_prefetch;
  sim::Metrics baseline;          ///< identical run, prefetching disabled
  double latency_reduction = 0.0; ///< 1 - latency(with)/latency(baseline)
  double path_utilization = 0.0;  ///< fraction of used root->leaf paths
  std::size_t node_count = 0;     ///< model space (paper Tables 1-2)
};

/// Trains on days [0, train_days) and evaluates on day `train_days`.
DayEvalResult run_day_experiment(const trace::Trace& trace,
                                 const ModelSpec& spec,
                                 std::uint32_t train_days,
                                 const sim::SimulationConfig& sim_config = {});

/// Runs run_day_experiment for train_days = 1..max_train_days across a
/// thread pool (each configuration is independent). Results are returned
/// in day order and are identical to the sequential sweep.
std::vector<DayEvalResult> parallel_day_sweep(
    const trace::Trace& trace, const ModelSpec& spec,
    std::uint32_t max_train_days, util::ThreadPool& pool,
    const sim::SimulationConfig& sim_config = {});

/// §5: N browser clients behind one shared proxy. Clients are drawn
/// deterministically (by `seed`) from the browsers active on the eval day.
struct ProxyEvalResult {
  std::string model;
  std::size_t client_count = 0;
  sim::Metrics metrics;
};

ProxyEvalResult run_proxy_experiment(const trace::Trace& trace,
                                     const ModelSpec& spec,
                                     std::uint32_t train_days,
                                     std::size_t client_count,
                                     std::uint64_t seed = 42,
                                     const sim::SimulationConfig& sim_config = {});

/// Browsers active on `day`, shuffled deterministically by `seed`, truncated
/// to `count`. The §5 client-selection rule, exposed for sweeps that reuse
/// one trained model across many group sizes.
std::vector<ClientId> sample_active_browsers(const trace::Trace& trace,
                                             std::uint32_t day,
                                             std::size_t count,
                                             std::uint64_t seed = 42);

/// §5 evaluation against an already-trained model (no retraining per group
/// size). `spec` supplies the prefetch size threshold and label.
ProxyEvalResult evaluate_proxy_group(const trace::Trace& trace,
                                     const ModelSpec& spec,
                                     TrainedModel& trained,
                                     std::uint32_t eval_day,
                                     std::span<const ClientId> clients,
                                     const sim::SimulationConfig& sim_config = {});

}  // namespace webppm::core
