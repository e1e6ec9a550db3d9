#include "serve/model_server.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "fault/fault.hpp"
#include "obs/metrics.hpp"
#include "obs/trace_event.hpp"
#include "ppm/standard_ppm.hpp"
#include "serve/metrics_reporter.hpp"
#include "session/online.hpp"

namespace webppm::serve {
namespace {

trace::Request click(ClientId c, UrlId u, TimeSec t, std::uint16_t status = 200) {
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

/// A small standard-PPM snapshot trained on a fixed pattern.
std::shared_ptr<const Snapshot> tiny_snapshot(std::uint64_t version = 1) {
  auto m = std::make_unique<ppm::StandardPpm>();
  const std::vector<session::Session> train{
      make_session({1, 2, 3}), make_session({1, 2, 3}),
      make_session({1, 2, 4})};
  m->train(train);
  return make_snapshot(std::move(m), popularity::PopularityTable{}, version);
}

TEST(ModelServer, NoModelPublishedReturnsFalse) {
  ModelServer server;
  std::vector<ppm::Prediction> out;
  EXPECT_FALSE(server.query(click(0, 1, 0), out));
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(server.version(), 0u);
}

TEST(ModelServer, QueryPredictsFromPublishedModel) {
  ModelServer server;
  server.publish(tiny_snapshot(7));
  EXPECT_EQ(server.version(), 7u);

  std::vector<ppm::Prediction> out;
  ASSERT_TRUE(server.query(click(0, 1, 0), out));
  ASSERT_TRUE(server.query(click(0, 2, 1), out));
  // Context {1, 2} -> 3 (p = 2/3) above the 0.25 threshold; 4 (1/3) too.
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].url, 3u);
  EXPECT_EQ(out[1].url, 4u);
}

TEST(ModelServer, ErrorRequestsAreSkipped) {
  ModelServer server;
  server.publish(tiny_snapshot());
  std::vector<ppm::Prediction> out;
  server.query(click(0, 1, 0), out);
  EXPECT_FALSE(server.query(click(0, 2, 1, /*status=*/404), out));
  // Context is still {1}: the 404 never entered it.
  ASSERT_TRUE(server.query(click(0, 2, 2), out));
  ASSERT_FALSE(out.empty());
  EXPECT_EQ(out[0].url, 3u);
}

TEST(ModelServer, ContextsArePerClient) {
  ModelServer server;
  server.publish(tiny_snapshot());
  std::vector<ppm::Prediction> a, b;
  server.query(click(10, 1, 0), a);
  server.query(click(11, 5, 0), b);  // unrelated URL for another client
  ASSERT_TRUE(server.query(click(10, 2, 1), a));
  EXPECT_FALSE(a.empty());  // client 10's context is {1, 2} regardless of 11
  EXPECT_EQ(server.client_count(), 2u);
}

TEST(ModelServer, PublishSwapsModelWithoutDroppingContexts) {
  ModelServer server;
  server.publish(tiny_snapshot(1));
  std::vector<ppm::Prediction> out;
  server.query(click(0, 1, 0), out);

  // New model trained on 1 -> 9 only.
  auto m = std::make_unique<ppm::StandardPpm>();
  m->train(std::vector<session::Session>{make_session({1, 9}),
                                         make_session({1, 9})});
  server.publish(make_snapshot(std::move(m), {}, 2));
  EXPECT_EQ(server.version(), 2u);

  // The client's rolling context survived the swap (the repeated click of
  // 1 is deduplicated against it, leaving context {1}), and the prediction
  // now comes from the new model.
  ASSERT_TRUE(server.query(click(0, 1, 10), out));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].url, 9u);
  EXPECT_EQ(server.client_count(), 1u);
}

TEST(ModelServer, IdleEvictionBoundsClientCount) {
  ModelServerConfig cfg;
  cfg.idle_eviction_factor = 2.0;  // evict after 2 * 30 min idle
  ModelServer server(cfg);
  server.publish(tiny_snapshot());
  std::vector<ppm::Prediction> out;
  for (ClientId c = 0; c < 50; ++c) server.query(click(c, 1, 0), out);
  EXPECT_EQ(server.client_count(), 50u);

  // One hour later every context is past the eviction horizon.
  const TimeSec later = 2 * 1800 + 1;
  EXPECT_EQ(server.evict_idle(later), 50u);
  EXPECT_EQ(server.client_count(), 0u);

  // Factor 0 disables eviction entirely.
  ModelServer keep{ModelServerConfig{}};
  keep.publish(tiny_snapshot());
  for (ClientId c = 0; c < 10; ++c) keep.query(click(c, 1, 0), out);
  EXPECT_EQ(keep.evict_idle(later), 0u);
  EXPECT_EQ(keep.client_count(), 10u);
}

// Multi-threaded stress: queries from many threads race against repeated
// publishes. Run under the tsan preset this is the serve layer's data-race
// certification; under any build it checks nothing crashes, predictions
// stay well-formed, and the final version wins.
TEST(ModelServerStress, ConcurrentQueriesAndPublishes) {
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kClicksPerThread = 4000;
  constexpr std::uint64_t kPublishes = 25;

  ModelServerConfig cfg;
  cfg.shards = 8;
  ModelServer server(cfg);
  server.publish(tiny_snapshot(1));

  std::atomic<std::uint64_t> predicted{0};

  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (std::size_t w = 0; w < kThreads; ++w) {
    workers.emplace_back([&, w] {
      std::vector<ppm::Prediction> out;
      TimeSec t = 0;
      for (std::size_t i = 0; i < kClicksPerThread; ++i) {
        // 64 clients per thread, disjoint across threads; alternate the
        // trained pattern so predictions fire regularly.
        const auto c = static_cast<ClientId>(w * 64 + i % 64);
        const auto u = static_cast<UrlId>(1 + i % 3);
        if (server.query(click(c, u, t), out)) {
          for (const auto& p : out) {
            ASSERT_NE(p.url, kInvalidUrl);
            ASSERT_GE(p.probability, 0.0f);
            ASSERT_LE(p.probability, 1.0f);
          }
          predicted.fetch_add(1, std::memory_order_relaxed);
        }
        t += 1;
      }
    });
  }

  std::thread publisher([&] {
    for (std::uint64_t v = 2; v <= kPublishes + 1; ++v) {
      server.publish(tiny_snapshot(v));
      std::this_thread::yield();
    }
  });

  for (auto& th : workers) th.join();
  publisher.join();

  EXPECT_EQ(server.version(), kPublishes + 1);
  EXPECT_EQ(predicted.load(), kThreads * kClicksPerThread);
  EXPECT_EQ(server.query_count(), kThreads * kClicksPerThread);
}

// --- Observability (ISSUE 3): instrumentation must observe, never steer --

/// Replays a fixed click stream and returns the concatenated predictions.
std::vector<ppm::Prediction> replay(ModelServer& server, int clicks) {
  std::vector<ppm::Prediction> all, out;
  for (int i = 0; i < clicks; ++i) {
    const auto c = static_cast<ClientId>(i % 7);
    const auto u = static_cast<UrlId>(1 + i % 3);
    server.query(click(c, u, static_cast<TimeSec>(i)), out);
    all.insert(all.end(), out.begin(), out.end());
  }
  return all;
}

TEST(ModelServerObs, InstrumentedPredictionsIdentical) {
  constexpr int kClicks = 500;
  ModelServer plain;
  plain.publish(tiny_snapshot(3));

  obs::MetricsRegistry reg;
  ModelServerConfig cfg;
  cfg.metrics = &reg;
  cfg.latency_sample_every = 1;  // sample every query: counts must match
  ModelServer instrumented(cfg);
  instrumented.publish(tiny_snapshot(3));

  const auto a = replay(plain, kClicks);
  const auto b = replay(instrumented, kClicks);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].url, b[i].url);
    EXPECT_EQ(a[i].probability, b[i].probability);
  }
  EXPECT_EQ(plain.query_count(), instrumented.query_count());

  // Totals reconcile exactly with the server's own accounting.
  const auto* lat = reg.find_histogram("webppm_serve_query_latency_ns");
  ASSERT_NE(lat, nullptr);
  EXPECT_EQ(lat->count(), instrumented.query_count());

  instrumented.refresh_gauges();
  EXPECT_EQ(reg.counter("webppm_serve_queries_total").value(),
            instrumented.query_count());
  EXPECT_EQ(reg.counter("webppm_serve_publish_total").value(), 1u);
  EXPECT_EQ(reg.gauge("webppm_serve_snapshot_version").value(), 3);
  EXPECT_EQ(reg.gauge("webppm_serve_clients").value(),
            static_cast<std::int64_t>(instrumented.client_count()));

  // refresh_gauges is a delta export: calling it again must not double-add.
  instrumented.refresh_gauges();
  EXPECT_EQ(reg.counter("webppm_serve_queries_total").value(),
            instrumented.query_count());
}

TEST(ModelServerObs, QueryCounterIsLiveWithoutRefresh) {
  // The query path counts into the registry itself: a scrape never lags
  // query_count() waiting for a refresh_gauges() call.
  obs::MetricsRegistry reg;
  ModelServerConfig cfg;
  cfg.metrics = &reg;
  ModelServer server(cfg);
  server.publish(tiny_snapshot(3));
  replay(server, 200);
  ASSERT_GT(server.query_count(), 0u);
  const auto* queries = reg.find_counter("webppm_serve_queries_total");
  ASSERT_NE(queries, nullptr);
  EXPECT_EQ(queries->value(), server.query_count());
}

TEST(ModelServerObs, EvictionCounterReconciles) {
  obs::MetricsRegistry reg;
  ModelServerConfig cfg;
  cfg.metrics = &reg;
  cfg.idle_eviction_factor = 2.0;
  ModelServer server(cfg);
  server.publish(tiny_snapshot());
  std::vector<ppm::Prediction> out;
  for (ClientId c = 0; c < 20; ++c) server.query(click(c, 1, 0), out);

  EXPECT_EQ(server.evict_idle(2 * 1800 + 1), 20u);
  server.refresh_gauges();
  EXPECT_EQ(reg.counter("webppm_serve_sessionizer_evictions_total").value(),
            20u);
  EXPECT_EQ(reg.gauge("webppm_serve_clients").value(), 0);
}

TEST(ModelServerObs, GenerationGaugesAndLeakCanary) {
  obs::clear_events();
  obs::MetricsRegistry reg;
  ModelServerConfig cfg;
  cfg.metrics = &reg;
  ModelServer server(cfg);

  server.publish(tiny_snapshot(1));
  EXPECT_EQ(server.snapshot_generations_live(), 1u);
  EXPECT_EQ(reg.gauge("webppm_serve_snapshot_generations_live").value(), 1);

  // A held reader pins the retired generation.
  auto held1 = server.snapshot();
  server.publish(tiny_snapshot(2));
  EXPECT_EQ(server.snapshot_generations_live(), 2u);
  EXPECT_GE(server.retired_snapshot_refs(), 1u);
  EXPECT_EQ(reg.gauge("webppm_serve_snapshot_generations_live").value(), 2);
  EXPECT_TRUE(obs::recent_events().empty());  // 2 generations: no canary yet

  // A second pinned generation crosses the leak threshold (> 2 live).
  auto held2 = server.snapshot();
  server.publish(tiny_snapshot(3));
  EXPECT_EQ(server.snapshot_generations_live(), 3u);
  bool canary = false;
  for (const auto& e : obs::recent_events()) {
    if (e.name == "serve.snapshot_generations_live" &&
        e.severity == obs::Severity::kWarn) {
      canary = true;
    }
  }
  EXPECT_TRUE(canary);

  // Releasing the holders lets retirement drain back to steady state.
  held1.reset();
  held2.reset();
  server.refresh_gauges();
  EXPECT_EQ(server.snapshot_generations_live(), 1u);
  EXPECT_EQ(server.retired_snapshot_refs(), 0u);
  EXPECT_EQ(reg.gauge("webppm_serve_snapshot_generations_live").value(), 1);
  EXPECT_EQ(reg.gauge("webppm_serve_retired_snapshot_refs").value(), 0);
  obs::clear_events();
}

TEST(ModelServerObs, RepublishingSameSnapshotIsNotRetirement) {
  ModelServer server;
  const auto snap = tiny_snapshot(1);
  server.publish(snap);
  server.publish(snap);  // idempotent republish
  EXPECT_EQ(server.snapshot_generations_live(), 1u);
  EXPECT_EQ(server.retired_snapshot_refs(), 0u);
}

// Readers holding a snapshot across a publish keep a valid model (RCU
// lifetime guarantee): the old snapshot must stay alive until the last
// holder drops it.
TEST(ModelServerObs, TwoServersSampleLatencyIndependently) {
  // Regression: the sampling cadence counter used to be a shared
  // thread_local, so two servers on one thread stole each other's ticks —
  // one of them could record zero latency samples. Per-instance cadence
  // gives each server exactly every Nth of its *own* queries.
  obs::MetricsRegistry reg_a, reg_b;
  ModelServerConfig cfg;
  cfg.latency_sample_every = 4;

  cfg.metrics = &reg_a;
  ModelServer a(cfg);
  cfg.metrics = &reg_b;
  ModelServer b(cfg);
  a.publish(tiny_snapshot(1));
  b.publish(tiny_snapshot(1));

  std::vector<ppm::Prediction> out;
  for (int i = 0; i < 40; ++i) {  // strictly interleaved on one thread
    a.query(click(0, 1, static_cast<TimeSec>(i)), out);
    b.query(click(0, 1, static_cast<TimeSec>(i)), out);
  }
  EXPECT_EQ(
      reg_a.histogram("webppm_serve_query_latency_ns").count(), 10u);
  EXPECT_EQ(
      reg_b.histogram("webppm_serve_query_latency_ns").count(), 10u);
}

/// A snapshot whose popularity table is non-empty, so it carries a Top-N
/// fallback (url 7 most popular, then 8, then 9).
std::shared_ptr<const Snapshot> snapshot_with_fallback(
    std::uint64_t version) {
  auto m = std::make_unique<ppm::StandardPpm>();
  m->train(std::vector<session::Session>{make_session({1, 2, 3}),
                                         make_session({1, 2, 3})});
  return make_snapshot(
      std::move(m),
      popularity::PopularityTable::from_counts(
          {0, 1, 1, 1, 0, 0, 0, 9, 5, 2}),
      version);
}

TEST(ModelServerDegraded, ShedClientsAreServedByFallback) {
  obs::MetricsRegistry registry;
  ModelServerConfig cfg;
  cfg.shards = 1;
  cfg.max_clients_per_shard = 1;
  cfg.metrics = &registry;
  ModelServer server(cfg);
  server.publish(snapshot_with_fallback(1));

  std::vector<ppm::Prediction> out;
  // Client 1 is admitted and gets full model service.
  auto r = server.query_ex(click(1, 1, 0), out);
  EXPECT_TRUE(r.predicted);
  EXPECT_EQ(r.served, ServedBy::kModel);
  EXPECT_FALSE(r.shed);

  // Client 2 lands on the full shard: shed, but still answered — with the
  // popularity push set, not silence.
  r = server.query_ex(click(2, 1, 1), out);
  EXPECT_TRUE(r.predicted);
  EXPECT_EQ(r.served, ServedBy::kFallback);
  EXPECT_TRUE(r.shed);
  ASSERT_FALSE(out.empty());
  EXPECT_EQ(out[0].url, 7u);

  // The admitted client keeps full service.
  r = server.query_ex(click(1, 2, 2), out);
  EXPECT_EQ(r.served, ServedBy::kModel);

  EXPECT_EQ(server.shed_count(), 1u);
  EXPECT_EQ(server.degraded_query_count(), 1u);
  EXPECT_EQ(registry.counter("webppm_serve_degraded_shed_total").value(),
            1u);
  EXPECT_EQ(registry.counter("webppm_serve_degraded_queries_total").value(),
            1u);
}

TEST(ModelServerDegraded, DegradedSnapshotFlipsModeAndServesTopN) {
  obs::MetricsRegistry registry;
  ModelServerConfig cfg;
  cfg.metrics = &registry;
  ModelServer server(cfg);
  EXPECT_FALSE(server.degraded());

  server.publish(make_degraded_snapshot(
      popularity::PopularityTable::from_counts({0, 2, 8, 4}), 3));
  EXPECT_TRUE(server.degraded());
  EXPECT_EQ(registry.gauge("webppm_serve_degraded_mode").value(), 1);
  EXPECT_EQ(
      registry.counter("webppm_serve_degraded_transitions_total").value(),
      1u);

  std::vector<ppm::Prediction> out;
  const auto r = server.query_ex(click(5, 1, 0), out);
  EXPECT_TRUE(r.predicted);
  EXPECT_EQ(r.served, ServedBy::kFallback);
  ASSERT_FALSE(out.empty());
  EXPECT_EQ(out[0].url, 2u);  // most popular first

  // Publishing a full model clears degraded mode (a second transition).
  server.publish(tiny_snapshot(4));
  EXPECT_FALSE(server.degraded());
  EXPECT_EQ(registry.gauge("webppm_serve_degraded_mode").value(), 0);
  EXPECT_EQ(
      registry.counter("webppm_serve_degraded_transitions_total").value(),
      2u);
}

TEST(ModelServerDegraded, QueryFaultRejectsAndCounts) {
#ifdef WEBPPM_FAULT_DISABLED
  GTEST_SKIP() << "fault layer compiled out";
#else
  obs::MetricsRegistry registry;
  ModelServerConfig cfg;
  cfg.metrics = &registry;
  ModelServer server(cfg);
  server.publish(tiny_snapshot(1));

  fault::arm(fault::Plan{}.fail_nth("serve.query", 1, 1));
  std::vector<ppm::Prediction> out;
  EXPECT_TRUE(server.query(click(0, 1, 0), out));   // hit 1 passes
  const auto r = server.query_ex(click(0, 2, 1), out);  // hit 2 rejected
  EXPECT_FALSE(r.predicted);
  EXPECT_EQ(r.served, ServedBy::kNone);
  EXPECT_TRUE(server.query(click(0, 2, 2), out));   // hit 3 passes
  fault::disarm();

  EXPECT_EQ(server.fault_rejected_count(), 1u);
  EXPECT_EQ(
      registry.counter("webppm_serve_fault_query_rejected_total").value(),
      1u);
#endif
}

/// The batch path's contract is sequential equivalence: the same stream
/// through query_batch must produce the same per-request answers and the
/// same counters as one query_ex per request on a twin server — including
/// shed decisions and skipped error requests.
TEST(ModelServerBatch, BatchMatchesSequentialQueryEx) {
  ModelServerConfig cfg;
  cfg.shards = 2;
  cfg.max_clients_per_shard = 2;  // some clients will land on a full shard
  ModelServer seq(cfg), bat(cfg);
  seq.publish(snapshot_with_fallback(3));
  bat.publish(snapshot_with_fallback(3));

  std::vector<trace::Request> reqs;
  for (int round = 0; round < 3; ++round) {
    for (ClientId c = 1; c <= 8; ++c) {
      reqs.push_back(click(c, static_cast<UrlId>(1 + round),
                           static_cast<TimeSec>(round) * 100 + c));
    }
  }
  // An error request mid-stream: skipped, and its client's context must
  // not advance in either path.
  reqs[5] = click(3, 2, 42, /*status=*/500);

  std::vector<QueryResult> want_r;
  std::vector<std::vector<ppm::Prediction>> want_p;
  std::vector<ppm::Prediction> out;
  for (const auto& r : reqs) {
    want_r.push_back(seq.query_ex(r, out));
    want_p.push_back(out);
  }

  BatchQueryScratch scratch;
  bat.query_batch(reqs, scratch);
  ASSERT_EQ(scratch.items.size(), reqs.size());
  EXPECT_EQ(scratch.snapshot_version, 3u);
  bool saw_shed = false;
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    const auto& item = scratch.items[i];
    EXPECT_EQ(item.result.predicted, want_r[i].predicted) << "request " << i;
    EXPECT_EQ(item.result.served, want_r[i].served) << "request " << i;
    EXPECT_EQ(item.result.shed, want_r[i].shed) << "request " << i;
    saw_shed = saw_shed || item.result.shed;
    const auto got = scratch.predictions_of(i);
    ASSERT_EQ(got.size(), want_p[i].size()) << "request " << i;
    for (std::size_t j = 0; j < got.size(); ++j) {
      EXPECT_EQ(got[j], want_p[i][j]) << "request " << i << " pred " << j;
    }
  }
  EXPECT_TRUE(saw_shed);  // the workload must actually exercise shedding

  EXPECT_EQ(bat.query_count(), seq.query_count());
  EXPECT_EQ(bat.shed_count(), seq.shed_count());
  EXPECT_EQ(bat.degraded_query_count(), seq.degraded_query_count());
  EXPECT_EQ(bat.fault_rejected_count(), seq.fault_rejected_count());
  EXPECT_EQ(bat.client_count(), seq.client_count());
}

TEST(ModelServerBatch, NoSnapshotAnswersNothingButKeepsContexts) {
  ModelServer server;
  const std::vector<trace::Request> reqs{click(1, 1, 0), click(2, 5, 1)};
  BatchQueryScratch scratch;
  server.query_batch(reqs, scratch);
  ASSERT_EQ(scratch.items.size(), 2u);
  EXPECT_EQ(scratch.snapshot_version, 0u);
  for (std::size_t i = 0; i < scratch.items.size(); ++i) {
    EXPECT_FALSE(scratch.items[i].result.predicted);
    EXPECT_TRUE(scratch.predictions_of(i).empty());
  }
  // The observes still happened: contexts exist before the first publish,
  // exactly as with sequential query_ex.
  EXPECT_EQ(server.client_count(), 2u);
}

TEST(ModelServerBatch, FaultHitsLandOnTheSameRequestsAsSequential) {
#ifdef WEBPPM_FAULT_DISABLED
  GTEST_SKIP() << "fault layer compiled out";
#else
  ModelServer seq, bat;
  seq.publish(tiny_snapshot(1));
  bat.publish(tiny_snapshot(1));

  // Request 1 is an error: it must be skipped *before* the fault site is
  // consulted, so the fault hit counter advances on the same requests in
  // both paths.
  std::vector<trace::Request> reqs{click(0, 1, 0), click(0, 2, 1, 500),
                                   click(0, 2, 2), click(0, 3, 3),
                                   click(0, 1, 4)};

  fault::arm(fault::Plan{}.fail_nth("serve.query", 1, 1));
  std::vector<QueryResult> want_r;
  std::vector<ppm::Prediction> out;
  for (const auto& r : reqs) want_r.push_back(seq.query_ex(r, out));
  fault::disarm();

  fault::arm(fault::Plan{}.fail_nth("serve.query", 1, 1));
  BatchQueryScratch scratch;
  bat.query_batch(reqs, scratch);
  fault::disarm();

  ASSERT_EQ(scratch.items.size(), reqs.size());
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    EXPECT_EQ(scratch.items[i].result.predicted, want_r[i].predicted)
        << "request " << i;
    EXPECT_EQ(scratch.items[i].result.served, want_r[i].served)
        << "request " << i;
  }
  EXPECT_EQ(bat.fault_rejected_count(), seq.fault_rejected_count());
  EXPECT_EQ(bat.query_count(), seq.query_count());
#endif
}

TEST(MetricsReporter, UnwritablePathCountsFailuresAndNeverTearsFile) {
  namespace fs = std::filesystem;
  obs::MetricsRegistry registry;
  ModelServer server;

  // A path whose parent directory does not exist is permanently
  // unwritable: every tick must count a failure and leave no file behind.
  {
    MetricsReporter::Options opt;
    opt.interval = std::chrono::milliseconds(100000);  // manual ticks only
    opt.path = (fs::path(::testing::TempDir()) / "no_such_dir" / "m.prom")
                   .string();
    MetricsReporter reporter(server, registry, opt);
    reporter.tick_now();
    reporter.tick_now();
    EXPECT_EQ(reporter.report_failures(), 2u);
    EXPECT_FALSE(fs::exists(opt.path));
    reporter.stop();  // final flush fails too, still no crash
    EXPECT_EQ(reporter.report_failures(), 3u);
  }
  EXPECT_EQ(registry.counter("webppm_serve_report_failures_total").value(),
            3u);

  // A transient failure (injected) keeps the last-good exposition intact
  // and removes the stale temp file. Needs the fault layer compiled in.
#ifndef WEBPPM_FAULT_DISABLED
  {
    const std::string path =
        (fs::path(::testing::TempDir()) / "reporter_lastgood.prom").string();
    std::remove(path.c_str());
    MetricsReporter::Options opt;
    opt.interval = std::chrono::milliseconds(100000);
    opt.path = path;
    MetricsReporter reporter(server, registry, opt);
    reporter.tick_now();  // clean tick: file exists
    ASSERT_TRUE(fs::exists(path));
    std::ifstream in(path);
    std::stringstream good;
    good << in.rdbuf();
    ASSERT_FALSE(good.str().empty());

    fault::arm(fault::Plan{}.fail("serve.report.rename"));
    registry.counter("test_extra_counter").add();  // change the exposition
    reporter.tick_now();
    fault::disarm();

    EXPECT_FALSE(fs::exists(path + ".tmp"));  // stale temp removed
    std::ifstream again(path);
    std::stringstream now;
    now << again.rdbuf();
    EXPECT_EQ(now.str(), good.str());  // last-good exposition untouched
    reporter.stop();  // clean final flush now succeeds and updates the file
    std::remove(path.c_str());
  }
#endif
}

TEST(ModelServerStress, SnapshotOutlivesPublish) {
  ModelServer server;
  server.publish(tiny_snapshot(1));
  const auto held = server.snapshot();
  ASSERT_NE(held, nullptr);

  std::thread publisher([&] {
    for (std::uint64_t v = 2; v < 30; ++v) server.publish(tiny_snapshot(v));
  });

  std::vector<ppm::Prediction> out;
  const UrlId ctx[] = {1, 2};
  for (int i = 0; i < 1000; ++i) {
    held->model->predict(ctx, out);
    ASSERT_EQ(out.size(), 2u);
  }
  publisher.join();
  EXPECT_EQ(held->version, 1u);
  EXPECT_EQ(server.version(), 29u);
}

}  // namespace
}  // namespace webppm::serve
