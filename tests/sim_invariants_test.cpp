// Simulator conservation laws, checked over full generated workloads for
// every model and both topologies: the byte and event accounting must obey
// the identities the paper's metrics are defined in terms of (§2.3).
#include <gtest/gtest.h>

#include "core/experiment.hpp"
#include "workload/generator.hpp"

namespace webppm::sim {
namespace {

const trace::Trace& small_trace() {
  static const trace::Trace t = [] {
    auto cfg = workload::nasa_like(3, 0.2);
    cfg.site.total_pages = 700;
    return workload::generate_page_trace(cfg);
  }();
  return t;
}

void check_invariants(const Metrics& m) {
  // Every request either hits a cache or is a demand miss.
  EXPECT_EQ(m.hits + m.demand_misses, m.requests);
  // Prefetch hits are hits, and each corresponds to one sent prefetch.
  EXPECT_LE(m.prefetch_hits, m.hits);
  EXPECT_LE(m.prefetch_hits, m.prefetches_sent);
  EXPECT_LE(m.popular_prefetch_hits, m.prefetch_hits);
  // Used prefetch bytes are a subset of sent prefetch bytes.
  EXPECT_LE(m.bytes_prefetch_used, m.bytes_prefetched);
  // Rates live in their domains.
  EXPECT_GE(m.hit_ratio(), 0.0);
  EXPECT_LE(m.hit_ratio(), 1.0);
  EXPECT_GE(m.traffic_increment(), 0.0);
  EXPECT_GE(m.prefetch_accuracy(), 0.0);
  EXPECT_LE(m.prefetch_accuracy(), 1.0);
  // Latency is non-negative and zero only if every request hit.
  EXPECT_GE(m.latency_seconds, 0.0);
  if (m.demand_misses > 0) {
    EXPECT_GT(m.latency_seconds, 0.0);
  }
}

class SimInvariantsTest
    : public ::testing::TestWithParam<core::ModelKind> {
 protected:
  static core::ModelSpec spec() {
    switch (GetParam()) {
      case core::ModelKind::kStandard:
        return core::ModelSpec::standard_fixed(3);
      case core::ModelKind::kLrs: return core::ModelSpec::lrs_model();
      case core::ModelKind::kPopularity: return core::ModelSpec::pb_model();
      case core::ModelKind::kTopN: return core::ModelSpec::top_n_model(10);
    }
    return {};
  }
};

TEST_P(SimInvariantsTest, DirectTopology) {
  const auto r = core::run_day_experiment(small_trace(), spec(), 2);
  check_invariants(r.with_prefetch);
  check_invariants(r.baseline);
  EXPECT_EQ(r.baseline.prefetches_sent, 0u);
  EXPECT_EQ(r.baseline.prefetch_hits, 0u);
}

TEST_P(SimInvariantsTest, ProxyTopology) {
  const auto r = core::run_proxy_experiment(small_trace(), spec(), 2, 16);
  check_invariants(r.metrics);
  // Hits decompose into browser hits and proxy hits in this topology.
  EXPECT_EQ(r.metrics.browser_hits + r.metrics.proxy_hits, r.metrics.hits);
}

TEST_P(SimInvariantsTest, GdsfPolicyKeepsInvariants) {
  sim::SimulationConfig cfg;
  cfg.endpoints.cache_policy = cache::Policy::kGdsf;
  const auto r = core::run_day_experiment(small_trace(), spec(), 2, cfg);
  check_invariants(r.with_prefetch);
}

TEST_P(SimInvariantsTest, TinyCachesKeepInvariants) {
  // Pathologically small caches force constant eviction; the accounting
  // identities must survive.
  sim::SimulationConfig cfg;
  cfg.endpoints.browser_cache_bytes = 20 * 1024;
  cfg.endpoints.proxy_cache_bytes = 60 * 1024;
  const auto r = core::run_day_experiment(small_trace(), spec(), 2, cfg);
  check_invariants(r.with_prefetch);
}

INSTANTIATE_TEST_SUITE_P(AllModels, SimInvariantsTest,
                         ::testing::Values(core::ModelKind::kStandard,
                                           core::ModelKind::kLrs,
                                           core::ModelKind::kPopularity,
                                           core::ModelKind::kTopN));

TEST(ParallelSweep, MatchesSequentialResults) {
  util::ThreadPool pool(3);
  const auto spec = core::ModelSpec::pb_model();
  const auto parallel =
      core::parallel_day_sweep(small_trace(), spec, 2, pool);
  ASSERT_EQ(parallel.size(), 2u);
  for (std::uint32_t d = 1; d <= 2; ++d) {
    const auto seq = core::run_day_experiment(small_trace(), spec, d);
    const auto& par = parallel[d - 1];
    EXPECT_EQ(par.train_days, d);
    EXPECT_EQ(par.node_count, seq.node_count);
    EXPECT_EQ(par.with_prefetch.hits, seq.with_prefetch.hits);
    EXPECT_EQ(par.with_prefetch.bytes_prefetched,
              seq.with_prefetch.bytes_prefetched);
    EXPECT_DOUBLE_EQ(par.latency_reduction, seq.latency_reduction);
  }
}

}  // namespace
}  // namespace webppm::sim
