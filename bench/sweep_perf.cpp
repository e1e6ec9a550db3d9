// Performance harness for the incremental sweep engine: times the paper's
// full four-model, 7-day nasa-like day sweep on the naive path (a
// run_day_experiment loop — retrains every model from scratch at every
// sweep point) and on core::SweepEngine, verifies the results are
// identical field-for-field, prints a per-stage breakdown, and emits
// BENCH_sweep.json so the speedup is tracked across PRs.
//
// Exits non-zero on any result mismatch — this harness doubles as an
// end-to-end equivalence check (tests/core_sweep_test.cpp is the unit-level
// oracle on smaller traces).
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"

namespace {

using namespace webppm;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

bool metrics_equal(const sim::Metrics& a, const sim::Metrics& b) {
  return a.requests == b.requests && a.hits == b.hits &&
         a.browser_hits == b.browser_hits && a.proxy_hits == b.proxy_hits &&
         a.prefetch_hits == b.prefetch_hits &&
         a.popular_prefetch_hits == b.popular_prefetch_hits &&
         a.demand_misses == b.demand_misses &&
         a.prefetches_sent == b.prefetches_sent &&
         a.bytes_demand == b.bytes_demand &&
         a.bytes_prefetched == b.bytes_prefetched &&
         a.bytes_prefetch_used == b.bytes_prefetch_used &&
         a.latency_seconds == b.latency_seconds;
}

bool rows_equal(const core::DayEvalResult& a, const core::DayEvalResult& b) {
  return a.model == b.model && a.train_days == b.train_days &&
         metrics_equal(a.with_prefetch, b.with_prefetch) &&
         metrics_equal(a.baseline, b.baseline) &&
         a.latency_reduction == b.latency_reduction &&
         a.path_utilization == b.path_utilization &&
         a.node_count == b.node_count;
}

}  // namespace

int main() {
  using namespace webppm::bench;
  const auto& trace = nasa_trace();
  print_header("=== sweep_perf: naive O(days^2) sweep vs incremental "
               "engine (nasa-like) ===",
               trace);

  const std::vector<core::ModelSpec> specs = {
      core::ModelSpec::standard_unbounded(), core::ModelSpec::lrs_model(),
      core::ModelSpec::pb_model(), core::ModelSpec::top_n_model(10)};
  constexpr std::uint32_t kMaxDays = 7;

  // Naive path: the retained correctness oracle, timed as the benches ran
  // it before the engine existed. (Client classification is memoised
  // process-wide; warm it first so neither path is charged for it.)
  (void)core::cached_client_classes(trace);
  auto t0 = Clock::now();
  std::vector<std::vector<core::DayEvalResult>> naive(specs.size());
  for (std::size_t s = 0; s < specs.size(); ++s) {
    for (std::uint32_t d = 1; d <= kMaxDays; ++d) {
      naive[s].push_back(core::run_day_experiment(trace, specs[s], d));
    }
  }
  const double naive_seconds = seconds_since(t0);

  // Engine path, including its one-time trace preparation.
  t0 = Clock::now();
  core::SweepEngine engine(trace, sim::SimulationConfig{},
                           &util::shared_thread_pool());
  const auto rows = engine.sweep_models(specs, kMaxDays);
  const double engine_seconds = seconds_since(t0);

  // Field-for-field verification against the oracle.
  std::size_t mismatches = 0;
  for (std::size_t s = 0; s < specs.size(); ++s) {
    for (std::uint32_t d = 1; d <= kMaxDays; ++d) {
      if (!rows_equal(naive[s][d - 1], rows[s][d - 1])) {
        ++mismatches;
        std::fprintf(stderr, "MISMATCH: model=%s train_days=%u\n",
                     specs[s].label.c_str(), d);
      }
    }
  }

  const auto& t = engine.timings();
  const double speedup = naive_seconds / engine_seconds;
  const std::size_t threads = util::shared_thread_pool().thread_count();

  std::printf("%-28s %10s\n", "stage", "seconds");
  std::printf("%-28s %10.3f\n", "naive sweep (oracle)", naive_seconds);
  std::printf("%-28s %10.3f\n", "engine total", engine_seconds);
  std::printf("%-28s %10.3f\n", "  prepare (sessions+pop)", t.prepare_seconds);
  std::printf("%-28s %10.3f\n", "  incremental training", t.train_seconds);
  std::printf("%-28s %10.3f\n", "  simulation", t.simulate_seconds);
  std::printf("\n");
  std::printf("cells: %zu  baseline runs: %zu (memo hits: %zu)  "
              "pb regraded sessions: %zu  pool threads: %zu\n",
              t.cells, t.baseline_runs, t.baseline_memo_hits,
              t.pb_regraded_sessions, threads);
  std::printf("speedup: %.2fx  (%s, %zu/%zu rows identical)\n", speedup,
              mismatches == 0 ? "results verified identical"
                              : "RESULTS DIFFER",
              specs.size() * kMaxDays - mismatches, specs.size() * kMaxDays);

  if (FILE* f = std::fopen("BENCH_sweep.json", "w")) {
    std::fprintf(
        f,
        "{\n"
        "  \"benchmark\": \"four-model 7-day nasa-like sweep\",\n"
        "  \"naive_seconds\": %.6f,\n"
        "  \"engine_seconds\": %.6f,\n"
        "  \"speedup\": %.3f,\n"
        "  \"stages\": {\n"
        "    \"prepare_seconds\": %.6f,\n"
        "    \"train_seconds\": %.6f,\n"
        "    \"simulate_seconds\": %.6f\n"
        "  },\n"
        "  \"cells\": %zu,\n"
        "  \"baseline_runs\": %zu,\n"
        "  \"baseline_memo_hits\": %zu,\n"
        "  \"pb_regraded_sessions\": %zu,\n"
        "  \"pool_threads\": %zu,\n"
        "  \"results_identical\": %s\n"
        "}\n",
        naive_seconds, engine_seconds, speedup, t.prepare_seconds,
        t.train_seconds, t.simulate_seconds, t.cells, t.baseline_runs,
        t.baseline_memo_hits, t.pb_regraded_sessions, threads,
        mismatches == 0 ? "true" : "false");
    std::fclose(f);
    std::printf("wrote BENCH_sweep.json\n");
  }

  return mismatches == 0 ? 0 : 1;
}
