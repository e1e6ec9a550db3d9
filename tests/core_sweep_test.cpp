// SweepEngine correctness: the incremental, memoised, optionally parallel
// day sweep must be *indistinguishable* from the naive run_day_experiment
// loop — field-for-field, including exact doubles. run_day_experiment is
// the oracle; these tests cover every ModelKind, both workload shapes,
// serial and pooled execution, the streaming sessionizer, the open-tail
// (midnight-spanning session) path, and the baseline memo.
#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>
#include <vector>

#include "core/webppm.hpp"

namespace webppm::core {
namespace {

const trace::Trace& nasa_small() {
  static const trace::Trace t =
      workload::generate_page_trace(workload::nasa_like(5, 0.25));
  return t;
}

const trace::Trace& ucb_small() {
  static const trace::Trace t =
      workload::generate_page_trace(workload::ucb_like(4, 0.25));
  return t;
}

std::vector<ModelSpec> nasa_specs() {
  return {ModelSpec::standard_unbounded(), ModelSpec::lrs_model(),
          ModelSpec::pb_model(), ModelSpec::top_n_model(10)};
}

std::vector<ModelSpec> ucb_specs() {
  // The UCB-CS table uses the aggressive PB variant; keep one model of
  // every other kind so all four trainers run on this shape too.
  return {ModelSpec::standard_fixed(3), ModelSpec::lrs_model(),
          ModelSpec::pb_model_aggressive(), ModelSpec::top_n_model(5)};
}

void expect_metrics_eq(const sim::Metrics& a, const sim::Metrics& b) {
  EXPECT_EQ(a.requests, b.requests);
  EXPECT_EQ(a.hits, b.hits);
  EXPECT_EQ(a.browser_hits, b.browser_hits);
  EXPECT_EQ(a.proxy_hits, b.proxy_hits);
  EXPECT_EQ(a.prefetch_hits, b.prefetch_hits);
  EXPECT_EQ(a.popular_prefetch_hits, b.popular_prefetch_hits);
  EXPECT_EQ(a.demand_misses, b.demand_misses);
  EXPECT_EQ(a.prefetches_sent, b.prefetches_sent);
  EXPECT_EQ(a.bytes_demand, b.bytes_demand);
  EXPECT_EQ(a.bytes_prefetched, b.bytes_prefetched);
  EXPECT_EQ(a.bytes_prefetch_used, b.bytes_prefetch_used);
  EXPECT_EQ(a.latency_seconds, b.latency_seconds);
}

void expect_rows_eq(const DayEvalResult& naive, const DayEvalResult& engine) {
  SCOPED_TRACE("model=" + naive.model +
               " train_days=" + std::to_string(naive.train_days));
  EXPECT_EQ(naive.model, engine.model);
  EXPECT_EQ(naive.train_days, engine.train_days);
  expect_metrics_eq(naive.with_prefetch, engine.with_prefetch);
  expect_metrics_eq(naive.baseline, engine.baseline);
  EXPECT_EQ(naive.latency_reduction, engine.latency_reduction);
  EXPECT_EQ(naive.path_utilization, engine.path_utilization);
  EXPECT_EQ(naive.node_count, engine.node_count);
}

/// Runs the naive oracle loop and the engine sweep (serial or pooled) and
/// asserts exact equality on every cell.
void check_engine_matches_naive(const trace::Trace& trace,
                                const std::vector<ModelSpec>& specs,
                                std::uint32_t max_days,
                                util::ThreadPool* pool,
                                const sim::SimulationConfig& cfg = {}) {
  SweepEngine engine(trace, cfg, pool);
  const auto rows = engine.sweep_models(specs, max_days);
  ASSERT_EQ(rows.size(), specs.size());
  for (std::size_t s = 0; s < specs.size(); ++s) {
    ASSERT_EQ(rows[s].size(), max_days);
    for (std::uint32_t d = 1; d <= max_days; ++d) {
      const auto naive = run_day_experiment(trace, specs[s], d, cfg);
      expect_rows_eq(naive, rows[s][d - 1]);
    }
  }
}

TEST(SweepEngine, MatchesNaiveSerialNasa) {
  check_engine_matches_naive(nasa_small(), nasa_specs(), 4, nullptr);
}

TEST(SweepEngine, MatchesNaiveParallelNasa) {
  util::ThreadPool pool(3);
  check_engine_matches_naive(nasa_small(), nasa_specs(), 4, &pool);
}

TEST(SweepEngine, MatchesNaiveSerialUcb) {
  check_engine_matches_naive(ucb_small(), ucb_specs(), 3, nullptr);
}

TEST(SweepEngine, MatchesNaiveParallelUcb) {
  util::ThreadPool pool(3);
  check_engine_matches_naive(ucb_small(), ucb_specs(), 3, &pool);
}

TEST(SweepEngine, SingleModelSweepMatchesNaive) {
  SweepEngine engine(nasa_small());
  const auto rows = engine.sweep(ModelSpec::pb_model(), 4);
  ASSERT_EQ(rows.size(), 4u);
  for (std::uint32_t d = 1; d <= 4; ++d) {
    expect_rows_eq(run_day_experiment(nasa_small(), ModelSpec::pb_model(), d),
                   rows[d - 1]);
  }
}

TEST(SweepEngine, EvaluateMatchesNaiveWithCustomSimConfig) {
  sim::SimulationConfig cfg;
  cfg.endpoints.cache_policy = cache::Policy::kGdsf;
  SweepEngine engine(nasa_small(), cfg);
  for (const auto& spec : nasa_specs()) {
    expect_rows_eq(run_day_experiment(nasa_small(), spec, 3, cfg),
                   engine.evaluate(spec, 3));
  }
}

TEST(SweepEngine, NodeCountSweepMatchesTrainModel) {
  SweepEngine engine(nasa_small());
  for (const auto& spec : nasa_specs()) {
    const auto nodes = engine.node_count_sweep(spec, 5);
    ASSERT_EQ(nodes.size(), 5u);
    for (std::uint32_t k = 1; k <= 5; ++k) {
      const auto trained = train_model(spec, nasa_small(), 0, k - 1);
      EXPECT_EQ(nodes[k - 1], trained.predictor->node_count())
          << spec.label << " k=" << k;
    }
  }
}

TEST(SweepEngine, TrainMatchesTrainModel) {
  SweepEngine engine(nasa_small());
  const auto& classes = cached_client_classes(nasa_small());
  for (const auto& spec : nasa_specs()) {
    SCOPED_TRACE(spec.label);
    const auto direct = train_model(spec, nasa_small(), 0, 2);
    auto cached = engine.train(spec, 3);
    EXPECT_EQ(direct.predictor->node_count(), cached.predictor->node_count());
    EXPECT_EQ(direct.training_sessions, cached.training_sessions);
    EXPECT_EQ(direct.training_requests, cached.training_requests);
    // Strongest observable check: both models drive an identical simulation.
    const auto cfg = apply_prefetch_policy({}, spec, /*enabled=*/true);
    const auto a =
        sim::simulate_direct(nasa_small(), nasa_small().day_slice(3),
                             *direct.predictor, direct.popularity, classes,
                             cfg);
    const auto b =
        sim::simulate_direct(nasa_small(), nasa_small().day_slice(3),
                             *cached.predictor, cached.popularity, classes,
                             cfg);
    expect_metrics_eq(a, b);
  }
}

TEST(SweepEngine, BaselineMemoSharedAcrossModels) {
  const std::uint32_t max_days = 3;
  SweepEngine engine(nasa_small());
  const auto specs = nasa_specs();
  (void)engine.sweep_models(specs, max_days);
  const auto& t = engine.timings();
  // One prefetch-disabled run per eval day; every other model hits the memo.
  EXPECT_EQ(t.baseline_runs, max_days);
  EXPECT_EQ(t.baseline_memo_hits, specs.size() * max_days - max_days);
  EXPECT_EQ(t.cells, specs.size() * max_days);
  // Re-querying a memoised day is a hit, and the reference is stable.
  const auto* before = &engine.baseline(1);
  EXPECT_EQ(before, &engine.baseline(1));
  EXPECT_GT(engine.timings().baseline_memo_hits, t.baseline_memo_hits - 1);
}

TEST(SweepEngine, WindowPopularityMatchesBatchBuild) {
  SweepEngine engine(nasa_small());
  for (std::uint32_t k = 1; k <= 4; ++k) {
    const auto window = nasa_small().day_range(0, k - 1);
    const auto batch =
        popularity::PopularityTable::build(window, nasa_small().urls.size());
    const auto& cached = engine.window_popularity(k);
    for (UrlId u = 0; u < nasa_small().urls.size(); ++u) {
      ASSERT_EQ(batch.grade(u), cached.grade(u)) << "k=" << k << " url=" << u;
      ASSERT_EQ(batch.accesses(u), cached.accesses(u))
          << "k=" << k << " url=" << u;
    }
  }
}

// ---------------------------------------------------------------------------
// Streaming sessionizer: closed() + open_snapshot() after feeding days
// [0, k) must be exactly the multiset extract_sessions returns on the same
// window, for every prefix.

using SessionKey = std::tuple<ClientId, TimeSec, TimeSec, std::vector<UrlId>>;

SessionKey key_of(const session::Session& s) {
  return {s.client, s.start, s.end, s.urls};
}

std::vector<SessionKey> sorted_keys(std::vector<session::Session> sessions) {
  std::vector<SessionKey> keys;
  keys.reserve(sessions.size());
  for (auto& s : sessions) keys.push_back(key_of(s));
  std::sort(keys.begin(), keys.end());
  return keys;
}

void check_sessionizer_prefixes(const trace::Trace& trace) {
  session::IncrementalSessionizer inc;
  for (std::uint32_t d = 0; d < trace.day_count(); ++d) {
    inc.feed(trace.day_slice(d));
    auto streamed = inc.closed();
    for (auto& s : inc.open_snapshot()) streamed.push_back(std::move(s));
    const auto batch = session::extract_sessions(trace.day_range(0, d));
    ASSERT_EQ(sorted_keys(std::move(streamed)), sorted_keys(batch))
        << "prefix through day " << d;
  }
}

TEST(IncrementalSessionizer, PrefixesMatchBatchNasa) {
  check_sessionizer_prefixes(nasa_small());
}

TEST(IncrementalSessionizer, PrefixesMatchBatchUcb) {
  check_sessionizer_prefixes(ucb_small());
}

// ---------------------------------------------------------------------------
// Midnight-spanning sessions: the synthetic workloads happen to close every
// session within its day, so the engine's open-tail path (train a throwaway
// copy on the sessions still open at the window edge) needs a hand-built
// trace to be exercised at all.

trace::Trace midnight_trace() {
  trace::Trace t;
  const UrlId a = t.urls.intern("/a.html");
  const UrlId b = t.urls.intern("/b.html");
  const UrlId c = t.urls.intern("/c.html");
  const UrlId d = t.urls.intern("/d.html");
  const ClientId c0 = t.clients.intern("host0");
  const ClientId c1 = t.clients.intern("host1");
  const ClientId c2 = t.clients.intern("host2");
  const auto add = [&](TimeSec ts, ClientId cl, UrlId u) {
    trace::Request r;
    r.timestamp = ts;
    r.client = cl;
    r.url = u;
    r.size_bytes = 2048;
    t.requests.push_back(r);
  };
  constexpr TimeSec kDay = kSecondsPerDay;
  // Day 0, fully inside the day.
  add(100, c0, a);
  add(200, c0, b);
  add(300, c0, c);
  // c1 starts near midnight and keeps clicking into day 1 with gaps well
  // under the 30-minute timeout: ONE session spanning the day boundary.
  add(kDay - 120, c1, a);
  add(kDay - 60, c1, b);
  add(kDay + 90, c1, c);
  add(kDay + 180, c1, d);
  // c2 likewise spans the day 1 -> day 2 boundary.
  add(2 * kDay - 200, c2, b);
  add(2 * kDay + 40, c2, a);
  add(2 * kDay + 100, c2, d);
  // Regular activity on days 1 and 2 (the evaluation days).
  add(kDay + 1000, c0, a);
  add(kDay + 1100, c0, b);
  add(kDay + 1300, c0, d);
  add(2 * kDay + 1000, c0, a);
  add(2 * kDay + 1100, c0, c);
  add(2 * kDay + 1200, c1, a);
  add(2 * kDay + 1300, c1, b);
  t.finalize();
  return t;
}

TEST(SweepEngine, MidnightSpanningSessionsExerciseTailPath) {
  const auto trace = midnight_trace();
  ASSERT_EQ(trace.day_count(), 3u);
  check_sessionizer_prefixes(trace);

  SweepEngine engine(trace);
  // The hand-built trace leaves a session open at both window edges — the
  // property the synthetic workloads never produce.
  EXPECT_FALSE(engine.open_tails(1).empty());
  EXPECT_FALSE(engine.open_tails(2).empty());

  const auto specs =
      std::vector<ModelSpec>{ModelSpec::standard_unbounded(),
                             ModelSpec::lrs_model(), ModelSpec::pb_model(),
                             ModelSpec::top_n_model(3)};
  check_engine_matches_naive(trace, specs, 2, nullptr);
  util::ThreadPool pool(2);
  check_engine_matches_naive(trace, specs, 2, &pool);
}

}  // namespace
}  // namespace webppm::core
