// Prediction-outcome scoreboard tests (DESIGN.md §13): ring scoring rules
// driven directly on serve::Scoreboard, the ModelServer integration (hits
// score live, evict_idle sweeps rings, shed clients' fallback answers are
// scored in their own class), batch-vs-sequential count equality, the
// per-entry batch latency sampling regression, and a threads × disjoint
// clients hammer for the tsan preset.
#include "serve/scoreboard.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <initializer_list>
#include <span>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "ppm/standard_ppm.hpp"
#include "serve/model_server.hpp"
#include "session/online.hpp"

namespace webppm::serve {
namespace {

trace::Request click(ClientId c, UrlId u, TimeSec t,
                     std::uint16_t status = 200) {
  trace::Request r;
  r.client = c;
  r.url = u;
  r.timestamp = t;
  r.status = status;
  r.size_bytes = 1000;
  return r;
}

session::Session make_session(std::vector<UrlId> urls) {
  session::Session s;
  s.urls = std::move(urls);
  return s;
}

/// A small standard-PPM snapshot trained on a fixed pattern. With
/// `with_popularity`, URLs 1..4 get non-zero access counts so the snapshot
/// carries a Top-N fallback (needed by the shed tests) and real grades.
std::shared_ptr<const Snapshot> tiny_snapshot(std::uint64_t version = 1,
                                              bool with_popularity = false) {
  auto m = std::make_unique<ppm::StandardPpm>();
  const std::vector<session::Session> train{
      make_session({1, 2, 3}), make_session({1, 2, 3}),
      make_session({1, 2, 4})};
  m->train(train);
  popularity::PopularityTable pop;
  if (with_popularity) {
    pop = popularity::PopularityTable::from_counts({0, 100, 90, 60, 20});
  }
  return make_snapshot(std::move(m), std::move(pop), version);
}

std::vector<ppm::Prediction> preds(std::initializer_list<UrlId> urls) {
  std::vector<ppm::Prediction> out;
  for (const UrlId u : urls) out.push_back({u, 0.5f});
  return out;
}

/// issued must equal hits + expired + evicted + superseded + unresolved
/// once a scoreboard is settled — nothing double-counted, nothing leaked.
void expect_conserved(const ScoreboardCounts& c, const char* label) {
  EXPECT_EQ(c.issued,
            c.hits + c.expired + c.evicted + c.superseded + c.unresolved)
      << label;
}

ScoreboardOptions opts(TimeSec window, std::size_t ring_capacity = 8,
                       std::size_t track_top_k = 4) {
  ScoreboardOptions o;
  o.enabled = true;
  o.window_sec = window;
  o.ring_capacity = ring_capacity;
  o.track_top_k = track_top_k;
  return o;
}

// ---------------------------------------------------------------------------
// Scoreboard unit tests (direct ShardState driving; no server).

TEST(Scoreboard, HitWithinWindowExpiryAfter) {
  Scoreboard sb(opts(/*window=*/10), nullptr);
  Scoreboard::ShardState ss;
  popularity::PopularityTable pop;

  sb.record(ss, 1, preds({7, 8}), /*now=*/0, /*version=*/1, false, pop);
  sb.observe(ss, 1, 7, /*now=*/5, nullptr);  // within window: hit
  sb.observe(ss, 1, 8, /*now=*/20, nullptr);  // past window: expiry wins
  sb.settle_shard(ss, 20);

  const auto t = sb.totals();
  EXPECT_EQ(t.model.issued, 2u);
  EXPECT_EQ(t.model.hits, 1u);
  EXPECT_EQ(t.model.expired, 1u);
  EXPECT_EQ(t.requests, 2u);
  expect_conserved(t.model, "model");
}

TEST(Scoreboard, SupersededEntryNeitherHitNorMiss) {
  Scoreboard sb(opts(/*window=*/100), nullptr);
  Scoreboard::ShardState ss;
  popularity::PopularityTable pop;

  sb.record(ss, 1, preds({7}), 0, 1, false, pop);
  sb.record(ss, 1, preds({7}), 5, 1, false, pop);  // re-issued: supersede
  sb.observe(ss, 1, 7, 6, nullptr);                // hits the fresh entry
  sb.settle_shard(ss, 6);

  const auto t = sb.totals();
  EXPECT_EQ(t.model.issued, 2u);
  EXPECT_EQ(t.model.superseded, 1u);
  EXPECT_EQ(t.model.hits, 1u);
  EXPECT_EQ(t.model.unresolved, 0u);
  expect_conserved(t.model, "model");
}

TEST(Scoreboard, CapacityEvictionClassifiesExpiredVsEvicted) {
  Scoreboard sb(opts(/*window=*/10, /*ring_capacity=*/2), nullptr);
  Scoreboard::ShardState ss;
  popularity::PopularityTable pop;

  sb.record(ss, 1, preds({1, 2}), 0, 1, false, pop);  // ring full
  // Oldest (url 1, issued 0) pushed out at t=5: still in-window -> evicted.
  sb.record(ss, 1, preds({3}), 5, 1, false, pop);
  // Oldest (url 2, issued 0) pushed out at t=20: past window -> expired.
  sb.record(ss, 1, preds({4}), 20, 1, false, pop);
  sb.settle_shard(ss, 20);

  const auto t = sb.totals();
  EXPECT_EQ(t.model.evicted, 1u);
  // url 2 expired at push-out; url 3 (issued t=5) expired at settle t=20.
  EXPECT_EQ(t.model.expired, 2u);
  EXPECT_EQ(t.model.unresolved, 1u);  // url 4 (issued t=20) still open
  expect_conserved(t.model, "model");
}

TEST(Scoreboard, TrackTopKLimitsEntries) {
  Scoreboard sb(opts(/*window=*/100, /*ring_capacity=*/8, /*top_k=*/2),
                nullptr);
  Scoreboard::ShardState ss;
  popularity::PopularityTable pop;

  sb.record(ss, 1, preds({1, 2, 3, 4, 5}), 0, 1, false, pop);
  sb.settle_shard(ss, 0);
  const auto t = sb.totals();
  EXPECT_EQ(t.model.issued, 2u);  // only the top 2 tracked
  EXPECT_EQ(t.model.unresolved, 2u);
}

TEST(Scoreboard, SweepHorizonClampedToWindow) {
  Scoreboard sb(opts(/*window=*/100), nullptr);
  Scoreboard::ShardState ss;
  popularity::PopularityTable pop;

  sb.record(ss, 1, preds({7}), 0, 1, false, pop);
  // Horizon 1 is clamped to the 100 s window: at t=100 the ring is not yet
  // idle past the (clamped) horizon, so nothing is swept.
  EXPECT_EQ(sb.sweep(ss, 100, /*horizon=*/1), 0u);
  EXPECT_EQ(ss.ring_count(), 1u);
  // At t=101 it is — and the swept entry is necessarily past its window.
  EXPECT_EQ(sb.sweep(ss, 101, /*horizon=*/1), 1u);
  EXPECT_EQ(ss.ring_count(), 0u);

  const auto t = sb.totals();
  EXPECT_EQ(t.model.expired, 1u);
  EXPECT_EQ(t.model.evicted, 0u);
  expect_conserved(t.model, "model");
}

TEST(Scoreboard, MaxRingsPerShardCountsUntracked) {
  auto o = opts(/*window=*/100);
  o.max_rings_per_shard = 1;
  Scoreboard sb(o, nullptr);
  Scoreboard::ShardState ss;
  popularity::PopularityTable pop;

  sb.record(ss, 1, preds({7}), 0, 1, false, pop);   // ring created
  sb.record(ss, 2, preds({8, 9}), 0, 1, false, pop);  // refused by cap
  sb.record(ss, 1, preds({8}), 1, 1, false, pop);   // known ring: tracked
  sb.settle_shard(ss, 1);

  const auto t = sb.totals();
  EXPECT_EQ(t.untracked, 2u);
  EXPECT_EQ(t.model.issued, 2u);
  EXPECT_EQ(ss.ring_count(), 0u);
  expect_conserved(t.model, "model");
}

TEST(Scoreboard, VersionRowsTrackIssuerAndOverflow) {
  Scoreboard sb(opts(/*window=*/100), nullptr);
  Scoreboard::ShardState ss;
  popularity::PopularityTable pop;

  // 10 distinct versions against an 8-slot table: the last two fold into
  // the version-0 overflow row.
  for (std::uint64_t v = 1; v <= 10; ++v) {
    sb.record(ss, static_cast<ClientId>(v), preds({7}), 0, v, false, pop);
  }
  sb.settle_shard(ss, 0);

  const auto t = sb.totals();
  ASSERT_EQ(t.versions.size(), 9u);  // overflow row + 8 claimed slots
  EXPECT_EQ(t.versions.front().version, 0u);
  EXPECT_EQ(t.versions.front().issued, 2u);
  std::uint64_t issued_sum = 0;
  for (const auto& row : t.versions) issued_sum += row.issued;
  EXPECT_EQ(issued_sum, t.model.issued);
}

TEST(Scoreboard, GradeSlicesFollowPopularityTable) {
  Scoreboard sb(opts(/*window=*/100), nullptr);
  Scoreboard::ShardState ss;
  const auto pop = popularity::PopularityTable::from_counts({0, 100, 1});

  sb.record(ss, 1, preds({1, 2}), 0, 1, false, pop);
  sb.observe(ss, 1, 1, 1, &pop);  // hit on the popular URL
  sb.settle_shard(ss, 1);

  const auto t = sb.totals();
  const int hot = pop.grade(1);
  const int cold = pop.grade(2);
  ASSERT_NE(hot, cold);
  EXPECT_EQ(t.grade_issued[static_cast<std::size_t>(hot)], 1u);
  EXPECT_EQ(t.grade_issued[static_cast<std::size_t>(cold)], 1u);
  EXPECT_EQ(t.grade_hits[static_cast<std::size_t>(hot)], 1u);
  EXPECT_EQ(t.grade_hits[static_cast<std::size_t>(cold)], 0u);
}

TEST(Scoreboard, FallbackOutcomesStayInTheirClass) {
  Scoreboard sb(opts(/*window=*/10), nullptr);
  Scoreboard::ShardState ss;
  popularity::PopularityTable pop;

  sb.record(ss, 1, preds({7, 8}), 0, 1, /*fallback=*/true, pop);
  sb.observe(ss, 1, 7, 5, nullptr);   // fallback hit
  sb.observe(ss, 1, 9, 20, nullptr);  // url 8 expires
  sb.settle_shard(ss, 20);

  const auto t = sb.totals();
  EXPECT_EQ(t.fallback.issued, 2u);
  EXPECT_EQ(t.fallback.hits, 1u);
  EXPECT_EQ(t.fallback.expired, 1u);
  EXPECT_EQ(t.model.issued, 0u);
  // Fallback outcomes feed neither the grade slices nor the version rows.
  for (std::size_t g = 0; g < popularity::kGradeCount; ++g) {
    EXPECT_EQ(t.grade_issued[g], 0u);
  }
  EXPECT_TRUE(t.versions.empty());
  expect_conserved(t.fallback, "fallback");
}

TEST(Scoreboard, ScoringToggleFreezesCounts) {
  Scoreboard sb(opts(/*window=*/100), nullptr);
  EXPECT_TRUE(sb.scoring());
  sb.set_scoring(false);
  EXPECT_FALSE(sb.scoring());
  sb.set_scoring(true);
  EXPECT_TRUE(sb.scoring());
}

TEST(Scoreboard, MetricsRegistryBackedCountersExpose) {
  obs::MetricsRegistry reg;
  Scoreboard sb(opts(/*window=*/10), &reg);
  Scoreboard::ShardState ss;
  popularity::PopularityTable pop;

  sb.record(ss, 1, preds({7}), 0, 1, false, pop);
  sb.observe(ss, 1, 7, 5, nullptr);
  sb.publish_metrics(ss.ring_count());

  const auto* hits =
      reg.find_counter("webppm_serve_scoreboard_hits_total");
  ASSERT_NE(hits, nullptr);
  EXPECT_EQ(hits->value(), 1u);
  const auto* precision =
      reg.find_gauge("webppm_serve_scoreboard_precision_ppm");
  ASSERT_NE(precision, nullptr);
  EXPECT_EQ(precision->value(), 1'000'000);
  ASSERT_NE(reg.find_gauge("webppm_serve_drift_alert"), nullptr);
}

TEST(DriftWatch, ShortLongGapRaisesAlert) {
  DriftWatch::Config cfg;
  cfg.short_alpha = 0.5;
  cfg.long_alpha = 0.001;
  cfg.threshold = 0.3;
  cfg.min_samples = 4;
  DriftWatch dw(cfg);

  for (int i = 0; i < 16; ++i) dw.record_outcome(true);
  EXPECT_FALSE(dw.state().alert);  // steady precision: no gap

  for (int i = 0; i < 16; ++i) dw.record_outcome(false);
  const auto s = dw.state();
  EXPECT_LT(s.precision_short, 0.1);  // short EWMA collapsed
  EXPECT_GT(s.precision_long, 0.9);   // long EWMA barely moved
  EXPECT_GT(s.score, cfg.threshold);
  EXPECT_TRUE(s.alert);
}

TEST(DriftWatch, MassChannelAlertsIndependently) {
  DriftWatch::Config cfg;
  cfg.short_alpha = 0.5;
  cfg.long_alpha = 0.001;
  cfg.threshold = 0.3;
  cfg.min_samples = 4;
  DriftWatch dw(cfg);

  for (int i = 0; i < 16; ++i) dw.record_request(true);
  EXPECT_FALSE(dw.state().alert);
  for (int i = 0; i < 16; ++i) dw.record_request(false);
  EXPECT_TRUE(dw.state().alert);  // head-URL mass collapsed, precision idle
  EXPECT_EQ(dw.state().outcomes, 0u);
}

// ---------------------------------------------------------------------------
// ModelServer integration.

ModelServerConfig armed_config(TimeSec window = 300) {
  ModelServerConfig cfg;
  cfg.scoreboard.enabled = true;
  cfg.scoreboard.window_sec = window;
  return cfg;
}

TEST(ModelServerScoreboard, LiveHitsScoreThroughQueryPath) {
  ModelServer server(armed_config());
  server.publish(tiny_snapshot());
  std::vector<ppm::Prediction> out;

  server.query(click(0, 1, 0), out);  // predicts {2}
  server.query(click(0, 2, 1), out);  // hit on 2; predicts {3, 4}
  server.query(click(0, 3, 2), out);  // hit on 3

  ASSERT_NE(server.scoreboard(), nullptr);
  EXPECT_EQ(server.scoreboard_ring_count(), 1u);
  server.scoreboard_settle(2);
  EXPECT_EQ(server.scoreboard_ring_count(), 0u);
  const auto t = server.scoreboard()->totals();
  EXPECT_EQ(t.requests, 3u);
  EXPECT_EQ(t.model.hits, 2u);
  expect_conserved(t.model, "model");

  const auto json = server.scoreboard_json();
  EXPECT_NE(json.find("\"hits\": 2"), std::string::npos) << json;
}

TEST(ModelServerScoreboard, DisabledServerReportsEmpty) {
  ModelServer server;
  server.publish(tiny_snapshot());
  std::vector<ppm::Prediction> out;
  server.query(click(0, 1, 0), out);
  EXPECT_EQ(server.scoreboard(), nullptr);
  EXPECT_EQ(server.scoreboard_ring_count(), 0u);
  EXPECT_EQ(server.scoreboard_json(), "{}\n");
  EXPECT_FALSE(server.drift_alert());
  server.scoreboard_settle(0);  // no-op, must not crash
}

TEST(ModelServerScoreboard, ScoringOffLeavesRingsUntouched) {
  auto cfg = armed_config();
  cfg.scoreboard.scoring = false;
  ModelServer server(cfg);
  server.publish(tiny_snapshot());
  std::vector<ppm::Prediction> out;
  server.query(click(0, 1, 0), out);
  server.query(click(0, 2, 1), out);
  EXPECT_EQ(server.scoreboard_ring_count(), 0u);
  EXPECT_EQ(server.scoreboard()->totals().requests, 0u);

  server.scoreboard()->set_scoring(true);
  server.query(click(0, 3, 2), out);  // scoring resumes from here
  EXPECT_EQ(server.scoreboard()->totals().requests, 1u);
}

TEST(ModelServerScoreboard, EvictIdleSweepsRingsAsExpired) {
  auto cfg = armed_config(/*window=*/300);
  cfg.idle_eviction_factor = 1.0;  // sweep horizon = idle_timeout (1800 s)
  ModelServer server(cfg);
  server.publish(tiny_snapshot());
  std::vector<ppm::Prediction> out;

  server.query(click(0, 1, 0), out);
  server.query(click(0, 2, 1), out);  // ring holds {3, 4}
  EXPECT_EQ(server.scoreboard_ring_count(), 1u);

  // Way past both the idle horizon and the validity window: the client's
  // context AND its scoreboard ring are evicted; outstanding predictions
  // score as expired, not leaked and not unresolved.
  EXPECT_EQ(server.evict_idle(/*now=*/10'000), 1u);
  EXPECT_EQ(server.scoreboard_ring_count(), 0u);
  const auto t = server.scoreboard()->totals();
  EXPECT_EQ(t.model.unresolved, 0u);
  EXPECT_EQ(t.model.evicted, 0u);
  EXPECT_GE(t.model.expired, 2u);
  expect_conserved(t.model, "model");
}

TEST(ModelServerScoreboard, ShedClientFallbackScoredSeparately) {
  auto cfg = armed_config(/*window=*/300);
  cfg.shards = 1;
  cfg.max_clients_per_shard = 1;
  ModelServer server(cfg);
  server.publish(tiny_snapshot(1, /*with_popularity=*/true));
  std::vector<ppm::Prediction> out;

  server.query(click(1, 1, 0), out);  // admitted: model-served
  ASSERT_TRUE(server.query_ex(click(2, 1, 1), out).shed);
  ASSERT_FALSE(out.empty());  // popularity fallback answered
  const UrlId top = out[0].url;
  server.query(click(2, top, 2), out);  // fallback prediction comes true

  server.scoreboard_settle(2);
  const auto t = server.scoreboard()->totals();
  EXPECT_GE(t.fallback.issued, 1u);
  EXPECT_EQ(t.fallback.hits, 1u);
  expect_conserved(t.fallback, "fallback");
  expect_conserved(t.model, "model");
  // The shed client's ring exists (sheds are scored, not dropped) but its
  // outcomes never leak into the model class or the grade slices.
  std::uint64_t grade_sum = 0;
  for (std::size_t g = 0; g < popularity::kGradeCount; ++g) {
    grade_sum += t.grade_issued[g];
  }
  EXPECT_EQ(grade_sum, t.model.issued);
}

TEST(ModelServerScoreboard, BatchTotalsMatchSequential) {
  std::vector<trace::Request> stream;
  TimeSec t = 0;
  for (int round = 0; round < 6; ++round) {
    for (ClientId c = 0; c < 9; ++c) {
      stream.push_back(click(c, 1, t));
      stream.push_back(click(c, 2, t + 1));
      stream.push_back(click(c, round % 2 == 0 ? 3u : 4u, t + 2));
      stream.push_back(click(c, 9, t + 3, /*status=*/404));  // skipped
    }
    t += 400;  // next round lands past the 300 s window: expiries
  }

  ModelServer seq(armed_config());
  seq.publish(tiny_snapshot());
  std::vector<ppm::Prediction> out;
  for (const auto& r : stream) seq.query(r, out);
  seq.scoreboard_settle(t);

  ModelServer bat(armed_config());
  bat.publish(tiny_snapshot());
  BatchQueryScratch scratch;
  constexpr std::size_t kChunk = 7;  // deliberately not client-aligned
  const std::span<const trace::Request> all(stream);
  for (std::size_t off = 0; off < all.size(); off += kChunk) {
    bat.query_batch(all.subspan(off, std::min(kChunk, all.size() - off)),
                    scratch);
  }
  bat.scoreboard_settle(t);

  const auto a = seq.scoreboard()->totals();
  const auto b = bat.scoreboard()->totals();
  EXPECT_EQ(a.requests, b.requests);
  EXPECT_EQ(a.model.issued, b.model.issued);
  EXPECT_EQ(a.model.hits, b.model.hits);
  EXPECT_EQ(a.model.expired, b.model.expired);
  EXPECT_EQ(a.model.evicted, b.model.evicted);
  EXPECT_EQ(a.model.superseded, b.model.superseded);
  EXPECT_EQ(a.model.unresolved, b.model.unresolved);
  for (std::size_t g = 0; g < popularity::kGradeCount; ++g) {
    EXPECT_EQ(a.grade_issued[g], b.grade_issued[g]) << "grade " << g;
    EXPECT_EQ(a.grade_hits[g], b.grade_hits[g]) << "grade " << g;
  }
  EXPECT_GT(a.model.hits, 0u);
  EXPECT_GT(a.model.expired, 0u);
}

TEST(ModelServerScoreboard, BatchLatencyHistogramMatchesSequential) {
  // ISSUE 8 satellite: query_batch used to record one *mean* latency
  // sample per batch; it must record true per-entry samples on the same
  // cadence as a sequential replay. With sampling every query, the two
  // histograms must hold exactly the same number of samples.
  std::vector<trace::Request> stream;
  for (ClientId c = 0; c < 5; ++c) {
    stream.push_back(click(c, 1, 0));
    stream.push_back(click(c, 2, 1));
    stream.push_back(click(c, 9, 2, /*status=*/404));  // skipped: no sample
    stream.push_back(click(c, 3, 3));
  }

  obs::MetricsRegistry seq_reg, bat_reg;
  ModelServerConfig seq_cfg, bat_cfg;
  seq_cfg.metrics = &seq_reg;
  seq_cfg.latency_sample_every = 1;
  bat_cfg.metrics = &bat_reg;
  bat_cfg.latency_sample_every = 1;

  ModelServer seq(seq_cfg);
  seq.publish(tiny_snapshot());
  std::vector<ppm::Prediction> out;
  for (const auto& r : stream) seq.query(r, out);

  ModelServer bat(bat_cfg);
  bat.publish(tiny_snapshot());
  BatchQueryScratch scratch;
  constexpr std::size_t kChunk = 6;
  const std::span<const trace::Request> all(stream);
  for (std::size_t off = 0; off < all.size(); off += kChunk) {
    bat.query_batch(all.subspan(off, std::min(kChunk, all.size() - off)),
                    scratch);
  }

  const auto* seq_lat =
      seq_reg.find_histogram("webppm_serve_query_latency_ns");
  const auto* bat_lat =
      bat_reg.find_histogram("webppm_serve_query_latency_ns");
  ASSERT_NE(seq_lat, nullptr);
  ASSERT_NE(bat_lat, nullptr);
  EXPECT_EQ(seq_lat->snapshot().count, bat_lat->snapshot().count);
  EXPECT_EQ(seq_lat->snapshot().count, 15u);  // 20 requests - 5 skipped
}

TEST(ModelServerScoreboard, ConcurrentScoringConservesCounts) {
  ModelServer server(armed_config(/*window=*/50));
  server.publish(tiny_snapshot());

  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kClientsPerThread = 8;
  constexpr std::size_t kRounds = 40;
  std::vector<std::thread> threads;
  for (std::size_t w = 0; w < kThreads; ++w) {
    threads.emplace_back([&, w] {
      std::vector<ppm::Prediction> out;
      for (std::size_t round = 0; round < kRounds; ++round) {
        const TimeSec t = round * 3;
        for (std::size_t i = 0; i < kClientsPerThread; ++i) {
          const auto c =
              static_cast<ClientId>(w * kClientsPerThread + i);
          server.query(click(c, 1, t), out);
          server.query(click(c, 2, t + 1), out);
          server.query(click(c, (round % 2 == 0) ? 3u : 4u, t + 2), out);
        }
        if (w == 0 && round % 16 == 7) {
          (void)server.evict_idle(t);  // sweeps race queries on purpose
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  server.scoreboard_settle(kRounds * 3 + 1'000);

  const auto t = server.scoreboard()->totals();
  EXPECT_EQ(t.requests, kThreads * kClientsPerThread * kRounds * 3);
  EXPECT_GT(t.model.hits, 0u);
  expect_conserved(t.model, "model");
  EXPECT_EQ(server.scoreboard_ring_count(), 0u);
}

}  // namespace
}  // namespace webppm::serve
