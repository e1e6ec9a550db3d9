// Trace-driven prefetching simulator (paper §2.2): a Web server holding a
// trained prediction model serves a stream of client requests, piggybacking
// prefetched documents onto responses. Clients (browsers or proxies) hold
// LRU caches; hits, latency, and traffic are accounted per §2.3.
//
// Two topologies:
//   * simulate_direct  — §4 experiments: every trace client talks straight
//     to the server; its cache size depends on its browser/proxy
//     classification (10 MB vs 16 GB).
//   * simulate_proxy_group — §5 experiments: a chosen set of browser
//     clients shares one proxy cache; prefetched documents are pushed to
//     the proxy, and total hits = browser hits + proxy hits (cached or
//     prefetched).
#pragma once

#include <span>
#include <vector>

#include "cache/document_cache.hpp"
#include "net/latency.hpp"
#include "obs/metrics.hpp"
#include "popularity/popularity.hpp"
#include "ppm/predictor.hpp"
#include "session/session.hpp"
#include "sim/metrics.hpp"
#include "trace/record.hpp"

namespace webppm::sim {

struct PrefetchPolicy {
  bool enabled = true;
  /// Documents larger than this are never prefetched (paper §4.1: 30 KB for
  /// PB-PPM, 100 KB for the standard and LRS models; §5 sweeps 40/100 KB).
  std::uint64_t size_threshold_bytes = 100 * 1024;
  /// Safety cap on prefetches piggybacked per request.
  std::size_t max_prefetch_per_request = 16;
};

struct EndpointConfig {
  std::uint64_t browser_cache_bytes = 10ull << 20;  ///< 10 MB (§2.2)
  std::uint64_t proxy_cache_bytes = 16ull << 30;    ///< 16 GB (§2.2)
  /// Replacement policy for every cache (paper: LRU; GDSF available for
  /// the cache-policy ablation).
  cache::Policy cache_policy = cache::Policy::kLru;
  /// Session context handling must mirror training: idle gap that resets
  /// the context, context window length, and reload deduplication.
  TimeSec idle_timeout = 30 * 60;
  std::size_t context_window = 16;
  bool dedup_consecutive = true;
};

struct SimulationConfig {
  PrefetchPolicy policy;
  EndpointConfig endpoints;
  net::LatencyModel latency{0.35, 1.0 / (64.0 * 1024.0)};
  /// Latency of a proxy-cache hit as a fraction of a server fetch's
  /// connect time (LAN hop; browsers hits cost zero).
  double proxy_hit_connect_fraction = 0.1;
};

/// One piggyback prediction pass as the simulator issued it: which client,
/// on which click, and the model's full candidate list before the prefetch
/// policy (size threshold, cache state, per-request cap) filtered it.
struct PredictionLogEntry {
  ClientId client = 0;
  UrlId current = kInvalidUrl;
  std::vector<ppm::Prediction> predictions;
};

struct PredictionLog {
  std::vector<PredictionLogEntry> entries;
};

/// Optional observer taps on a simulation run. The simulator itself never
/// mutates the model; callers who want the paper's path-utilisation metric
/// pass a UsageScratch here and read model.path_usage(scratch) (or fold it
/// in with apply_usage) afterwards. The prediction log records every
/// piggyback predict() for external replay verification (ServePiggyback.*).
struct SimHooks {
  ppm::UsageScratch* usage = nullptr;
  PredictionLog* prediction_log = nullptr;
  /// Non-null surfaces the run's accounting as webppm_sim_* registry
  /// metrics: per-pass prediction counts (a candidates-per-pass histogram
  /// recorded inline) plus every sim::Metrics field exported as counters
  /// when the run completes. Totals reconcile exactly with the
  /// PredictionLog: prediction_passes_total == entries, predictions_total
  /// == summed candidate-list lengths.
  obs::MetricsRegistry* metrics = nullptr;
};

/// Folds one finished run's accounting into `registry` as webppm_sim_*
/// counters (requests/hits/prefetch hits/wasted prefetches/bytes...).
/// Called automatically by the simulators when hooks.metrics is set;
/// public so external replay drivers can reuse the same metric names.
void export_metrics(const Metrics& m, obs::MetricsRegistry& registry);

/// §4 topology. `trace` supplies URL sizes; `eval` is the evaluation-day
/// request stream (a sub-span of trace.requests). The predictor must have
/// been trained on earlier days. `classes` assigns cache sizes.
Metrics simulate_direct(const trace::Trace& trace,
                        std::span<const trace::Request> eval,
                        const ppm::Predictor& model,
                        const popularity::PopularityTable& popularity,
                        const session::ClientClassification& classes,
                        const SimulationConfig& config,
                        const SimHooks& hooks = {});

/// §5 topology: the given browser clients share one proxy cache.
/// Requests from clients not listed are ignored.
Metrics simulate_proxy_group(const trace::Trace& trace,
                             std::span<const trace::Request> eval,
                             const ppm::Predictor& model,
                             const popularity::PopularityTable& popularity,
                             std::span<const ClientId> clients,
                             const SimulationConfig& config,
                             const SimHooks& hooks = {});

}  // namespace webppm::sim
