// Shared helpers for the table/figure reproduction harnesses.
//
// Every bench regenerates the same deterministic synthetic traces (seeded
// profiles), so rows are reproducible run to run. The paper's evaluation
// protocol is fixed here: train on days 1..k, evaluate on day k+1.
#pragma once

#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/webppm.hpp"
#include "util/thread_pool.hpp"

namespace webppm::bench {

/// The nasa-like trace used by every §4 harness: 8 days so that day sweeps
/// reach 7 training days like the paper's Table 1.
inline const trace::Trace& nasa_trace() {
  static const trace::Trace t =
      workload::generate_page_trace(workload::nasa_like(/*days=*/8));
  return t;
}

/// The ucb-like trace: 6 days (paper's Table 2 sweeps 1-5 training days).
inline const trace::Trace& ucb_trace() {
  static const trace::Trace t =
      workload::generate_page_trace(workload::ucb_like(/*days=*/6));
  return t;
}

inline void print_header(const char* title, const trace::Trace& trace) {
  std::printf("%s\n", title);
  std::printf("trace: %zu page requests, %zu URLs, %u days "
              "(deterministic synthetic; see DESIGN.md)\n\n",
              trace.requests.size(), trace.urls.size(), trace.day_count());
}

/// Process-wide SweepEngine per trace (default simulation config, shared
/// thread pool): every sweep in a bench binary reuses the prepared per-day
/// caches (sessions, popularity prefixes, client classes) and the baseline
/// memo. Each sweep trains its own models.
inline core::SweepEngine& engine_for(const trace::Trace& trace) {
  static std::map<const trace::Trace*, std::unique_ptr<core::SweepEngine>>
      engines;
  auto& e = engines[&trace];
  if (!e) {
    e = std::make_unique<core::SweepEngine>(trace, sim::SimulationConfig{},
                                            &util::shared_thread_pool());
  }
  return *e;
}

/// Runs a model over a range of training-day counts. Rows are identical to
/// looping run_day_experiment (the engine is tested against it), just not
/// retrained from scratch per day.
inline std::vector<core::DayEvalResult> day_sweep(
    const trace::Trace& trace, const core::ModelSpec& spec,
    std::uint32_t max_train_days) {
  return engine_for(trace).sweep(spec, max_train_days);
}

}  // namespace webppm::bench
