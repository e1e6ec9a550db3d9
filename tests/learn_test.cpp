// Online-training suite ("learn" label, run under asan/tsan by the
// *-learn presets and the CI learn job):
//   * ObservationQueue semantics — bounded non-blocking push, drop
//     accounting, close, and the learn.queue.push fault site, for single
//     pushes and for the batch tap query_batch feeds (on_requests);
//   * the convergence contract — an OnlineTrainer fed the same stream the
//     offline oracle (core::train_model) trains on, through observe,
//     query_batch, or v3 observe frames over a socket, publishes models
//     that answer byte-identically to the oracle at every day boundary,
//     and an attached, draining trainer never changes an answer;
//   * drift recovery — on the rotating-head nasa_drift workload a frozen
//     offline snapshot's next-click precision collapses while a trainer
//     republishing on the drift alert and on an interval recovers it;
//   * publish-policy triggers (threshold, interval, manual) and the
//     drift_alert_epoch edge-triggered API;
//   * chaos — learn.publish aborts leave trainer and serving state
//     untouched; a snapshot-store failure costs durability, not freshness;
//   * publish-stage histograms — one sample per stage per publish, none
//     for an aborted one;
//   * absorbing as sessions close — steps move closed sessions into the
//     window and the shadow, and the first publish still emits what a
//     fresh base over the window emits;
//   * decay — bounded retention plus periodic rebuild forgets evicted
//     history without breaking serving; a capped PB trainer publishes PB
//     over exactly its window, ignores rebuilds, and its bytes stay flat
//     over a month of traffic;
//   * mobile-style churn — high client turnover against per-shard caps and
//     idle eviction racing the trainer thread's settlement (the tsan
//     preset's main course).
#include "learn/trainer.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/experiment.hpp"
#include "fault/fault.hpp"
#include "frozen/frozen.hpp"
#include "learn/observation.hpp"
#include "net/load_client.hpp"
#include "net/server.hpp"
#include "serve/model_server.hpp"
#include "serve/scoreboard.hpp"
#include "serve/snapshot_store.hpp"
#include "workload/generator.hpp"

namespace webppm::learn {
namespace {

namespace fs = std::filesystem;

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

Observation obs_at(TimeSec t, ClientId c = 0, UrlId u = 0) {
  Observation o;
  o.timestamp = t;
  o.client = c;
  o.url = u;
  return o;
}

/// Pushes `n` clicks of one client into the trainer's queue directly
/// (bypassing a server), one second apart starting at `t0`.
void push_clicks(OnlineTrainer& trainer, std::size_t n, TimeSec t0,
                 ClientId client = 1) {
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_TRUE(trainer.queue().push(
        obs_at(t0 + static_cast<TimeSec>(i), client,
               static_cast<UrlId>(i % 5))));
  }
}

// ---------------------------------------------------------------------------
// ObservationQueue.

TEST(ObservationQueue, PushDrainRoundTrip) {
  ObservationQueue q(8);
  EXPECT_EQ(q.capacity(), 8u);
  EXPECT_EQ(q.size(), 0u);
  for (TimeSec t = 0; t < 5; ++t) EXPECT_TRUE(q.push(obs_at(t, 7, 9)));
  EXPECT_EQ(q.size(), 5u);
  EXPECT_EQ(q.pushed(), 5u);

  std::vector<Observation> out;
  EXPECT_EQ(q.drain(out), 5u);
  EXPECT_EQ(out.size(), 5u);
  EXPECT_EQ(q.size(), 0u);
  for (TimeSec t = 0; t < 5; ++t) {
    EXPECT_EQ(out[t].timestamp, t);
    EXPECT_EQ(out[t].client, 7u);
    EXPECT_EQ(out[t].url, 9u);
  }
  // Drain on empty is a no-op append.
  EXPECT_EQ(q.drain(out), 0u);
  EXPECT_EQ(out.size(), 5u);
}

TEST(ObservationQueue, DropsWhenFullAndCounts) {
  ObservationQueue q(4);
  for (TimeSec t = 0; t < 4; ++t) EXPECT_TRUE(q.push(obs_at(t)));
  EXPECT_FALSE(q.push(obs_at(4)));
  EXPECT_FALSE(q.push(obs_at(5)));
  EXPECT_EQ(q.pushed(), 4u);
  EXPECT_EQ(q.dropped(), 2u);

  // Draining frees the ring; pushes succeed again.
  std::vector<Observation> out;
  EXPECT_EQ(q.drain(out), 4u);
  EXPECT_TRUE(q.push(obs_at(6)));
  EXPECT_EQ(q.pushed(), 5u);
}

TEST(ObservationQueue, CloseDropsNewKeepsBuffered) {
  ObservationQueue q(8);
  EXPECT_TRUE(q.push(obs_at(1)));
  q.close();
  EXPECT_TRUE(q.closed());
  EXPECT_FALSE(q.push(obs_at(2)));
  EXPECT_EQ(q.dropped(), 1u);

  std::vector<Observation> out;
  EXPECT_EQ(q.drain(out), 1u);  // buffered observations stay drainable
  // drain_wait on a closed empty queue returns immediately, not after the
  // timeout.
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_EQ(q.drain_wait(out, std::chrono::milliseconds(2000)), 0u);
  EXPECT_LT(std::chrono::steady_clock::now() - t0,
            std::chrono::milliseconds(1000));
}

TEST(ObservationQueue, FaultSiteDropsExactNth) {
#ifdef WEBPPM_FAULT_DISABLED
  GTEST_SKIP() << "fault layer compiled out";
#else
  ObservationQueue q(16);
  fault::arm(fault::Plan{}.fail_nth("learn.queue.push", 1, 1));
  EXPECT_TRUE(q.push(obs_at(0)));
  EXPECT_FALSE(q.push(obs_at(1)));  // the scripted second hit
  EXPECT_TRUE(q.push(obs_at(2)));
  fault::disarm();
  EXPECT_EQ(q.pushed(), 2u);
  EXPECT_EQ(q.dropped(), 1u);
#endif
}

/// Clicks of one client at t0, t0 + 1, ... (url = i % 7), as the server
/// would hand them to the tap.
std::vector<trace::Request> clicks_from(TimeSec t0, std::size_t n) {
  std::vector<trace::Request> reqs;
  for (std::size_t i = 0; i < n; ++i) {
    reqs.push_back(click(3, static_cast<UrlId>(i % 7),
                         t0 + static_cast<TimeSec>(i)));
  }
  return reqs;
}

std::vector<TimeSec> drained_times(ObservationQueue& q) {
  std::vector<Observation> out;
  q.drain(out);
  std::vector<TimeSec> times;
  for (const auto& o : out) times.push_back(o.timestamp);
  return times;
}

TEST(ObservationQueue, BatchPushKeepsArrivalOrder) {
  ObservationQueue q(16);
  ASSERT_TRUE(q.push(obs_at(0)));
  auto reqs = clicks_from(1, 5);
  reqs[2].status = 404;  // errors are observations too
  q.on_requests(reqs);
  EXPECT_EQ(q.pushed(), 6u);
  EXPECT_EQ(q.dropped(), 0u);

  std::vector<Observation> out;
  ASSERT_EQ(q.drain(out), 6u);
  for (std::size_t i = 1; i < out.size(); ++i) {
    const auto& r = reqs[i - 1];
    EXPECT_EQ(out[i].timestamp, r.timestamp);
    EXPECT_EQ(out[i].client, r.client);
    EXPECT_EQ(out[i].url, r.url);
    EXPECT_EQ(out[i].status, r.status);
  }
}

TEST(ObservationQueue, BatchPastFreeSpacePushesWhatFitsDropsRest) {
  ObservationQueue q(8);
  // Fill and drain first, so the batch lands in a queue emptied by a drain.
  for (TimeSec t = 0; t < 6; ++t) ASSERT_TRUE(q.push(obs_at(t)));
  std::vector<Observation> sink;
  ASSERT_EQ(q.drain(sink), 6u);
  ASSERT_TRUE(q.push(obs_at(99)));

  // Seven slots free: the first seven of ten go in, in order; three drop.
  q.on_requests(clicks_from(100, 10));
  EXPECT_EQ(q.size(), 8u);
  EXPECT_EQ(q.pushed(), 6u + 1u + 7u);
  EXPECT_EQ(q.dropped(), 3u);
  EXPECT_EQ(q.pushed() + q.dropped(), 6u + 1u + 10u);
  EXPECT_EQ(drained_times(q),
            (std::vector<TimeSec>{99, 100, 101, 102, 103, 104, 105, 106}));

  // A full queue drops the whole batch.
  for (TimeSec t = 0; t < 8; ++t) ASSERT_TRUE(q.push(obs_at(t)));
  q.on_requests(clicks_from(200, 4));
  EXPECT_EQ(q.dropped(), 3u + 4u);
  EXPECT_EQ(q.size(), 8u);
}

TEST(ObservationQueue, ClosedQueueDropsWholeBatch) {
  ObservationQueue q(16);
  ASSERT_TRUE(q.push(obs_at(1)));
  q.close();
  q.on_requests(clicks_from(10, 5));
  EXPECT_EQ(q.pushed(), 1u);
  EXPECT_EQ(q.dropped(), 5u);
  EXPECT_EQ(drained_times(q), (std::vector<TimeSec>{1}));
}

TEST(ObservationQueue, MemoryFollowsDepthNotCapacity) {
  // The capacity bounds the backlog and reserves nothing.
  constexpr std::size_t kSlot = sizeof(Observation);
  ObservationQueue q(1 << 20);
  EXPECT_EQ(q.memory_bytes(), 0u);

  // The buffer grows with the backlog, to at most twice its depth.
  constexpr std::size_t kDepth = 1000;
  for (TimeSec t = 0; t < kDepth; ++t) ASSERT_TRUE(q.push(obs_at(t)));
  EXPECT_GE(q.memory_bytes(), kDepth * kSlot);
  EXPECT_LE(q.memory_bytes(), 2 * kDepth * kSlot);

  // Draining into an empty vector hands the buffer over whole.
  std::vector<Observation> out;
  ASSERT_EQ(q.drain(out), kDepth);
  EXPECT_EQ(q.memory_bytes(), 0u);
  EXPECT_GE(out.capacity(), kDepth);

  // A consumer that reuses its vector trades buffers with the queue, but
  // the queue keeps at most kReleaseRatio slots per observation drained:
  // the buffer grown for the deeper backlog is released, not kept.
  out.clear();
  q.on_requests(clicks_from(0, 10));
  ASSERT_EQ(q.drain(out), 10u);
  EXPECT_LE(q.memory_bytes(), ObservationQueue::kReleaseRatio * 10 * kSlot);

  // Growth never passes the bound: a full queue holds capacity slots.
  ObservationQueue bounded(100);
  bounded.on_requests(clicks_from(0, 64));
  bounded.on_requests(clicks_from(64, 64));
  EXPECT_EQ(bounded.size(), 100u);
  EXPECT_EQ(bounded.dropped(), 28u);
  EXPECT_EQ(bounded.memory_bytes(), 100 * kSlot);
}

TEST(ObservationQueue, BatchFaultDropsSameObservationsAsSingles) {
  // Each plan is replayed twice from a fresh arm: once with the stream as
  // one batch, once one request at a time. The fault site must fire on
  // the same observations either way.
  const auto reqs = clicks_from(0, 24);
  const std::vector<fault::Plan> plans{
      fault::Plan{}.fail_nth("learn.queue.push", 2, 3),
      fault::Plan{}
          .fail_nth("learn.queue.push", 0, 1)
          .throw_nth("learn.queue.push", 10, 2),
      fault::Plan{}.fail_with_probability("learn.queue.push", 0.3),
  };
  for (std::size_t p = 0; p < plans.size(); ++p) {
    ObservationQueue batched(64);
    fault::arm(plans[p]);
    batched.on_requests(reqs);
    fault::disarm();

    ObservationQueue single(64);
    fault::arm(plans[p]);
    for (const auto& r : reqs) single.on_request(r);
    fault::disarm();

#ifndef WEBPPM_FAULT_DISABLED
    EXPECT_GT(single.dropped(), 0u) << "plan " << p;
#endif
    EXPECT_EQ(batched.dropped(), single.dropped()) << "plan " << p;
    EXPECT_EQ(batched.pushed(), single.pushed()) << "plan " << p;
    EXPECT_EQ(drained_times(batched), drained_times(single)) << "plan " << p;
  }
}

/// Records which entry point delivered each request.
class RecordingObserver final : public serve::RequestObserver {
 public:
  void on_request(const trace::Request& r) noexcept override {
    singles.push_back(r.timestamp);
  }
  void on_requests(std::span<const trace::Request> reqs) noexcept override {
    batches.emplace_back();
    for (const auto& r : reqs) batches.back().push_back(r.timestamp);
  }
  std::vector<TimeSec> singles;
  std::vector<std::vector<TimeSec>> batches;
};

/// Overrides only on_request, like an observer written before the batch
/// entry point existed.
class SingleOnlyObserver final : public serve::RequestObserver {
 public:
  void on_request(const trace::Request& r) noexcept override {
    seen.push_back(r.timestamp);
  }
  std::vector<TimeSec> seen;
};

/// A batch with an error-status entry, served by a published model while
/// a serve.query rule refuses its second admitted entry.
std::vector<trace::Request> mixed_batch() {
  std::vector<trace::Request> reqs = clicks_from(50, 6);
  reqs[1].status = 404;
  reqs[4].client = 9;
  return reqs;
}

std::shared_ptr<const serve::Snapshot> popularity_snapshot() {
  return serve::make_degraded_snapshot(
      popularity::PopularityTable::from_counts({0, 5, 4, 3, 2, 1, 1}), 1);
}

TEST(ObservationQueue, QueryBatchHandsObserverOneCallPerBatch) {
  serve::ModelServer target;
  target.publish(popularity_snapshot());
  RecordingObserver rec;
  target.attach_observer(&rec);
  const auto reqs = mixed_batch();
  std::vector<TimeSec> times;
  for (const auto& r : reqs) times.push_back(r.timestamp);

  serve::BatchQueryScratch scratch;
  fault::arm(fault::Plan{}.fail_nth("serve.query", 1, 1));
  target.query_batch(reqs, scratch);
  fault::disarm();
#ifndef WEBPPM_FAULT_DISABLED
  EXPECT_EQ(target.fault_rejected_count(), 1u);
  EXPECT_FALSE(scratch.items[2].result.predicted);  // the refused entry
#endif
  EXPECT_FALSE(scratch.items[1].result.predicted);  // the error entry
  EXPECT_TRUE(scratch.items[0].result.predicted);

  target.query_batch(std::span(reqs).first(2), scratch);
  target.query_batch({}, scratch);  // nothing to observe: no call
  target.attach_observer(nullptr);

  EXPECT_TRUE(rec.singles.empty());
  ASSERT_EQ(rec.batches.size(), 2u);
  EXPECT_EQ(rec.batches[0], times);
  EXPECT_EQ(rec.batches[1], std::vector<TimeSec>(times.begin(),
                                                 times.begin() + 2));
}

TEST(ObservationQueue, SingleOnlyObserverSeesEveryBatchedRequest) {
  serve::ModelServer target;
  target.publish(popularity_snapshot());
  SingleOnlyObserver seen;
  target.attach_observer(&seen);
  const auto reqs = mixed_batch();
  serve::BatchQueryScratch scratch;
  fault::arm(fault::Plan{}.fail_nth("serve.query", 1, 1));
  target.query_batch(reqs, scratch);
  fault::disarm();
  target.attach_observer(nullptr);

  std::vector<TimeSec> times;
  for (const auto& r : reqs) times.push_back(r.timestamp);
  EXPECT_EQ(seen.seen, times);
}

TEST(ObservationQueue, TapSeesErrorRequests) {
  // The observer fires before the server's skip-errors gate: the trainer
  // must see the raw access log (popularity counts errors).
  serve::ModelServer target;
  ObservationQueue q(8);
  target.attach_observer(&q);
  target.observe(click(1, 2, 10, 404));
  target.attach_observer(nullptr);
  EXPECT_EQ(q.pushed(), 1u);
  std::vector<Observation> out;
  q.drain(out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].status, 404);
}

// ---------------------------------------------------------------------------
// Convergence: online == offline oracle, byte for byte, at day boundaries.

/// Replays `eval` through two servers and asserts every query answers
/// identically: same predicted/served flags, same prediction list (UrlId +
/// float probability compared exactly).
void expect_identical_service(serve::ModelServer& sa, serve::ModelServer& sb,
                              std::span<const trace::Request> eval) {
  std::vector<ppm::Prediction> pa;
  std::vector<ppm::Prediction> pb;
  for (const auto& r : eval) {
    const auto ra = sa.query_ex(r, pa);
    const auto rb = sb.query_ex(r, pb);
    ASSERT_EQ(ra.predicted, rb.predicted);
    ASSERT_EQ(static_cast<int>(ra.served), static_cast<int>(rb.served));
    ASSERT_EQ(pa, pb);
  }
}

/// The same, through two fresh servers holding one snapshot each.
void expect_identical_service(std::shared_ptr<const serve::Snapshot> a,
                              std::shared_ptr<const serve::Snapshot> b,
                              std::span<const trace::Request> eval) {
  serve::ModelServer sa;
  serve::ModelServer sb;
  sa.publish(std::move(a));
  sb.publish(std::move(b));
  expect_identical_service(sa, sb, eval);
}

/// How run_convergence feeds each day to the served ModelServer.
enum class Feed {
  kObserve,     ///< one ModelServer::observe per request
  kQueryBatch,  ///< query_batch chunks (the batch tap)
  /// query_batch chunks, the trainer stepping after each: sessions are
  /// absorbed over many steps, and a day's first step publishes.
  kQueryBatchStepped,
};

void feed_day(serve::ModelServer& target, std::span<const trace::Request> day,
              Feed feed, OnlineTrainer* trainer = nullptr) {
  if (feed == Feed::kObserve) {
    for (const auto& r : day) target.observe(r);
    return;
  }
  // An odd chunk size, so chunks start mid-session and the last one is
  // short.
  constexpr std::size_t kChunk = 61;
  serve::BatchQueryScratch scratch;
  for (std::size_t i = 0; i < day.size(); i += kChunk) {
    target.query_batch(day.subspan(i, std::min(kChunk, day.size() - i)),
                       scratch);
    if (feed == Feed::kQueryBatchStepped) trainer->step();
  }
}

void run_convergence(const core::ModelSpec& spec,
                     const workload::GeneratorConfig& wcfg,
                     Feed feed = Feed::kObserve) {
  const trace::Trace trace = workload::generate_page_trace(wcfg);

  serve::ModelServer target;
  OnlineTrainerConfig tc;
  tc.spec = spec;
  tc.url_count_hint = trace.urls.size();
  OnlineTrainer trainer(target, tc);
  trainer.attach();

  const std::uint32_t days = trace.day_count();
  ASSERT_GE(days, 3u);
  for (std::uint32_t d = 0; d < days; ++d) {
    feed_day(target, trace.day_slice(d), feed, &trainer);
    trainer.step();
    if (d == 0) {
      // No boundary crossed yet: nothing published.
      EXPECT_EQ(trainer.publishes(), 0u);
      continue;
    }
    // Feeding day d crossed boundary d: the published window is days
    // [0, d), exactly what the oracle trains on.
    ASSERT_EQ(trainer.publishes(), d);
    EXPECT_EQ(trainer.last_trigger(), PublishTrigger::kDayBoundary);
    auto online = target.snapshot();
    ASSERT_NE(online, nullptr);

    core::TrainedModel oracle = core::train_model(spec, trace, 0, d - 1);
    auto oracle_snap = serve::make_snapshot(
        std::move(oracle.predictor), std::move(oracle.popularity),
        online->version, tc.fallback_top_n);
    expect_identical_service(std::move(oracle_snap), std::move(online),
                             trace.day_slice(d));
  }
  EXPECT_EQ(trainer.dropped(), 0u);
}

TEST(OnlineTrainer, ConvergesToOracleNasaPb) {
  run_convergence(core::ModelSpec::pb_model(), workload::nasa_like(3, 0.15));
}

TEST(OnlineTrainer, ConvergesToOracleNasaStandard) {
  run_convergence(core::ModelSpec::standard_fixed(3),
                  workload::nasa_like(3, 0.15));
}

TEST(OnlineTrainer, ConvergesToOracleNasaLrs) {
  run_convergence(core::ModelSpec::lrs_model(), workload::nasa_like(3, 0.15));
}

TEST(OnlineTrainer, ConvergesToOracleNasaTopN) {
  run_convergence(core::ModelSpec::top_n_model(),
                  workload::nasa_like(3, 0.15));
}

TEST(OnlineTrainer, ConvergesToOracleUcbPb) {
  run_convergence(core::ModelSpec::pb_model_aggressive(),
                  workload::ucb_like(3, 0.15));
}

TEST(OnlineTrainer, ConvergesToOracleThroughQueryBatch) {
  run_convergence(core::ModelSpec::pb_model_aggressive(),
                  workload::ucb_like(3, 0.15), Feed::kQueryBatch);
}

TEST(OnlineTrainer, ConvergesToOracleSteppingEveryChunk) {
  // Enough traffic that steps absorb batches mid-day.
  run_convergence(core::ModelSpec::pb_model_aggressive(),
                  workload::ucb_like(3, 1.0), Feed::kQueryBatchStepped);
}

TEST(OnlineTrainer, ConvergesToOracleLrsSteppingEveryChunk) {
  // The append path absorbing batches mid-day, as PB does above.
  run_convergence(core::ModelSpec::lrs_model(), workload::ucb_like(3, 1.0),
                  Feed::kQueryBatchStepped);
}

TEST(OnlineTrainer, ConvergesToOracleOverObserveFrames) {
  // The stream arrives as v3 observe frames through a real PredictServer
  // socket; one connection preserves its order end to end.
  const auto spec = core::ModelSpec::pb_model();
  const trace::Trace trace =
      workload::generate_page_trace(workload::nasa_like(3, 0.2));
  serve::ModelServer target;
  OnlineTrainerConfig tc;
  tc.spec = spec;
  tc.url_count_hint = trace.urls.size();
  tc.queue_capacity = trace.requests.size() + 1;
  OnlineTrainer trainer(target, tc);
  trainer.attach();
  net::PredictServer server(target, net::NetServerConfig{});
  ASSERT_TRUE(server.start());
  net::LoadClientConfig lc;
  lc.port = server.port();
  lc.connections = 1;
  lc.batch_size = 512;
  lc.observe = true;
  const auto res = net::LoadClient(lc).run(trace.requests);
  server.shutdown();
  ASSERT_TRUE(res.ok) << res.error;
  trainer.step();  // absorbs the whole stream; publishes at every boundary

  const std::uint32_t last = trace.day_count() - 1;
  ASSERT_EQ(trainer.publishes(), last);
  EXPECT_EQ(trainer.dropped(), 0u);
  auto online = target.snapshot();
  ASSERT_NE(online, nullptr);
  core::TrainedModel oracle = core::train_model(spec, trace, 0, last - 1);
  auto oracle_snap = serve::make_snapshot(std::move(oracle.predictor),
                                          std::move(oracle.popularity),
                                          online->version, tc.fallback_top_n);
  expect_identical_service(std::move(oracle_snap), std::move(online),
                           trace.day_slice(last));
}

TEST(OnlineTrainer, AttachedDrainingTrainerNeverChangesAnswers) {
  const auto spec = core::ModelSpec::pb_model();
  const trace::Trace trace =
      workload::generate_page_trace(workload::nasa_like(3, 0.2));
  core::TrainedModel tm = core::train_model(spec, trace, 0, 1);
  const auto snap = serve::make_snapshot(std::move(tm.predictor),
                                         std::move(tm.popularity), 1);
  serve::ModelServer plain;
  serve::ModelServer observed;
  plain.publish(snap);
  observed.publish(snap);
  OnlineTrainerConfig tc;
  tc.spec = spec;
  tc.policy.day_boundaries = false;  // absorb only, never republish
  OnlineTrainer trainer(observed, tc);
  trainer.attach();
  ASSERT_TRUE(trainer.start());
  expect_identical_service(plain, observed, trace.day_slice(2));
  trainer.detach();
  trainer.stop();
  EXPECT_GT(trainer.observations(), 0u);
}

/// Next-click hit rate: a query's top-4 predictions score a hit when the
/// same client's next request is among them. Every consecutive same-client
/// transition is scored; a query with no predictions scores its successor
/// as a miss, so a model that rarely predicts cannot look better than one
/// that predicts and is sometimes wrong.
struct PrecisionProbe {
  std::unordered_map<ClientId, std::vector<UrlId>> last;
  std::uint64_t hits = 0;
  std::uint64_t scored = 0;

  void feed(const trace::Request& r, bool predicted,
            const std::vector<ppm::Prediction>& preds) {
    if (const auto it = last.find(r.client); it != last.end()) {
      ++scored;
      if (std::find(it->second.begin(), it->second.end(), r.url) !=
          it->second.end()) {
        ++hits;
      }
    }
    auto& v = last[r.client];
    v.clear();
    for (std::size_t i = 0; predicted && i < preds.size() && i < 4; ++i) {
      v.push_back(preds[i].url);
    }
  }
  double precision() const {
    return scored == 0 ? 0.0
                       : static_cast<double>(hits) /
                             static_cast<double>(scored);
  }
};

TEST(OnlineTrainer, RecoversDriftAFrozenSnapshotCannot) {
  // The nasa_drift head rotates mid-day 2: days 0-1 are history, days 2-3
  // are live. Standard 3-PPM, deliberately: PB-PPM's grade machinery backs
  // off to shorter, still-valid contexts and blunts the collapse, while the
  // fixed-order model leans fully on exact learned contexts.
  const double rotate_days = 2.5;
  const trace::Trace trace = workload::generate_page_trace(
      workload::nasa_drift(4, rotate_days, 0.3));
  const auto rotate_at = static_cast<TimeSec>(rotate_days * kSecondsPerDay);
  // The online side gets half a day after the rotation to settle.
  const TimeSec settle_until = rotate_at + kSecondsPerDay / 2;
  const auto spec = core::ModelSpec::standard_fixed(3);
  // Both sides start from the day-boundary model trained on days 0-1.
  auto offline = [&] {
    core::TrainedModel tm = core::train_model(spec, trace, 0, 1);
    return serve::make_snapshot(std::move(tm.predictor),
                                std::move(tm.popularity), 1);
  };
  const auto live = trace.day_range(2, 3);
  std::vector<ppm::Prediction> preds;

  PrecisionProbe frozen_pre, frozen_late;
  {  // The paper's deployment: a frozen offline snapshot, never retrained.
    serve::ModelServer server;
    server.publish(offline());
    for (const auto& r : live) {
      const bool predicted = server.query_ex(r, preds).predicted;
      if (r.timestamp < rotate_at) frozen_pre.feed(r, predicted, preds);
      if (r.timestamp >= settle_until) frozen_late.feed(r, predicted, preds);
    }
  }

  PrecisionProbe online_late;
  serve::ModelServerConfig mc;
  mc.scoreboard.enabled = true;
  serve::ModelServer server(mc);
  OnlineTrainerConfig tc;
  tc.spec = spec;
  tc.url_count_hint = trace.urls.size();
  tc.queue_capacity = trace.requests.size() + 1;
  tc.policy.interval_sec = 6 * 3600;  // observed-time refresh cadence
  tc.policy.on_drift_alert = true;
  OnlineTrainer trainer(server, tc);
  trainer.attach();
  // A trainer that was running all along saw the same history; the replay
  // then starts from the exact frozen model.
  for (const auto& r : trace.day_range(0, 1)) server.observe(r);
  trainer.step();
  server.publish(offline());
  std::size_t since_step = 0;
  for (const auto& r : live) {
    const bool predicted = server.query_ex(r, preds).predicted;
    if (r.timestamp >= settle_until) online_late.feed(r, predicted, preds);
    if (++since_step == 256) {  // the trainer thread's poll cadence
      since_step = 0;
      trainer.step();
    }
  }
  trainer.step();
  trainer.detach();

  EXPECT_LT(frozen_late.precision(), 0.75 * frozen_pre.precision());
  EXPECT_GE(trainer.drift_republishes(), 1u);
  EXPECT_GE(online_late.precision(), 1.5 * frozen_late.precision());
}

std::string_view payload_of(const serve::Snapshot& snap) {
  return dynamic_cast<const frozen::FrozenModel&>(*snap.model).payload();
}

TEST(OnlineTrainer, StepsAbsorbSettledSessionsBeforeAnyPublish) {
  // Steps absorb the sessions their feeds closed into the window and the
  // PB base, once kAbsorbBatch wait, with no publish yet. The first
  // publish settles, regrades and inserts what waits and what the settle
  // closed, and emits what a fresh base over the whole window plus the
  // open tails emits.
  const trace::Trace trace =
      workload::generate_page_trace(workload::ucb_like(3, 1.0));
  serve::ModelServer target;
  OnlineTrainerConfig tc;
  tc.spec = core::ModelSpec::pb_model_aggressive();
  tc.policy.day_boundaries = false;
  tc.url_count_hint = trace.urls.size();
  tc.queue_capacity = trace.requests.size() + 1;
  OnlineTrainer trainer(target, tc);

  // Days 0-1 in two steps, as a catch-up feeds its window, mirrored.
  session::IncrementalSessionizer mirror(tc.session);
  std::vector<session::Session> closed;
  const auto take_closed = [&] {
    auto fresh = mirror.take_closed();
    closed.insert(closed.end(), std::make_move_iterator(fresh.begin()),
                  std::make_move_iterator(fresh.end()));
  };
  const auto window = trace.day_range(0, 1);
  const std::size_t half = window.size() / 2;
  for (const auto part : {window.first(half), window.subspan(half)}) {
    for (const auto& r : part) {
      ASSERT_TRUE(trainer.queue().push(Observation::from(r)));
    }
    trainer.step();
    mirror.feed(part);
    if (mirror.closed().size() >= kAbsorbBatch) take_closed();
  }
  ASSERT_GE(closed.size(), kAbsorbBatch);
  EXPECT_EQ(trainer.publishes(), 0u);
  EXPECT_EQ(trainer.retained_sessions(), closed.size());
  // The trainer holds more than its counts, its queue buffer and its
  // window: the base is built.
  std::size_t held = tc.url_count_hint * sizeof(std::uint32_t) +
                     trainer.queue().memory_bytes();
  for (const auto& s : closed) {
    held += sizeof(session::Session) + s.urls.capacity() * sizeof(UrlId);
  }
  EXPECT_GT(trainer.storage_bytes(), held);

  const TimeSec boundary = 2 * kSecondsPerDay;
  ASSERT_TRUE(trainer.publish_at(boundary));
  mirror.settle_before(boundary);
  take_closed();
  EXPECT_EQ(trainer.retained_sessions(), closed.size());
  const auto snap = target.snapshot();
  ASSERT_NE(snap, nullptr);
  ppm::PbBase fresh(tc.spec.pb, &snap->popularity);
  fresh.insert(closed);
  fresh.insert(mirror.open_snapshot());
  EXPECT_TRUE(payload_of(*snap) == fresh.emit());
}

// ---------------------------------------------------------------------------
// Publish-policy triggers.

TEST(OnlineTrainer, ThresholdTrigger) {
  serve::ModelServer target;
  OnlineTrainerConfig tc;
  tc.policy.day_boundaries = false;
  tc.policy.observation_threshold = 5;
  OnlineTrainer trainer(target, tc);

  push_clicks(trainer, 4, 100);
  trainer.step();
  EXPECT_EQ(trainer.publishes(), 0u);
  push_clicks(trainer, 1, 104);
  trainer.step();
  EXPECT_EQ(trainer.publishes(), 1u);
  EXPECT_EQ(trainer.last_trigger(), PublishTrigger::kThreshold);
  EXPECT_EQ(target.version(), trainer.last_published_version());
  ASSERT_NE(target.snapshot(), nullptr);
}

TEST(OnlineTrainer, IntervalTrigger) {
  serve::ModelServer target;
  OnlineTrainerConfig tc;
  tc.policy.day_boundaries = false;
  tc.policy.interval_sec = 100;
  OnlineTrainer trainer(target, tc);

  push_clicks(trainer, 5, 1000);
  trainer.step();
  EXPECT_EQ(trainer.publishes(), 0u);  // only 4 observed seconds elapsed
  push_clicks(trainer, 1, 1100);
  trainer.step();
  EXPECT_EQ(trainer.publishes(), 1u);
  EXPECT_EQ(trainer.last_trigger(), PublishTrigger::kInterval);
}

TEST(OnlineTrainer, ManualPublishAndVersionMonotonic) {
  serve::ModelServer target;
  OnlineTrainerConfig tc;
  tc.policy.day_boundaries = false;
  OnlineTrainer trainer(target, tc);

  push_clicks(trainer, 3, 10);
  trainer.step();
  EXPECT_TRUE(trainer.publish_now());
  EXPECT_EQ(trainer.last_trigger(), PublishTrigger::kManual);
  const std::uint64_t v1 = target.version();
  EXPECT_GE(v1, 1u);

  // Someone else publishes a newer version out of band; the trainer's next
  // publish must still move the version forward, not backward.
  auto side = target.snapshot();
  auto bumped = std::make_shared<serve::Snapshot>();
  bumped->popularity = side->popularity;
  bumped->version = v1 + 10;
  target.publish(std::shared_ptr<const serve::Snapshot>(std::move(bumped)));
  push_clicks(trainer, 3, 50);
  trainer.step();
  EXPECT_TRUE(trainer.publish_now());
  EXPECT_GT(target.version(), v1 + 10);
}

TEST(OnlineTrainer, StorageBytesDoNotDependOnQueueCapacity) {
  // queue_capacity bounds the backlog and reserves nothing: two trainers
  // that take the same stream hold the same bytes, whatever their bound.
  const trace::Trace trace =
      workload::generate_page_trace(workload::ucb_like(3, 0.15));
  constexpr std::size_t kSmall = 1 << 10;
  OnlineTrainerConfig tc;
  tc.spec = core::ModelSpec::pb_model_aggressive();
  tc.url_count_hint = trace.urls.size();
  serve::ModelServer small_target;
  tc.queue_capacity = kSmall;
  OnlineTrainer small(small_target, tc);
  serve::ModelServer big_target;
  tc.queue_capacity = trace.requests.size() + 1;
  OnlineTrainer big(big_target, tc);

  // Chunks the small queue holds whole, so neither trainer drops.
  const std::span<const trace::Request> reqs = trace.requests;
  std::uint64_t compared = 0;
  for (std::size_t i = 0; i < reqs.size(); i += kSmall) {
    for (const auto& r : reqs.subspan(i, std::min(kSmall, reqs.size() - i))) {
      ASSERT_TRUE(small.queue().push(Observation::from(r)));
      ASSERT_TRUE(big.queue().push(Observation::from(r)));
    }
    small.step();
    big.step();
    ASSERT_EQ(small.publishes(), big.publishes());
    if (small.publishes() == compared) continue;
    compared = small.publishes();
    EXPECT_EQ(small.storage_bytes(), big.storage_bytes())
        << "after publish " << compared;
  }
  EXPECT_EQ(compared, trace.day_count() - 1u);
  EXPECT_EQ(small.dropped() + big.dropped(), 0u);
}

TEST(DriftEpoch, EdgeTriggeredNotLevelPolled) {
  serve::DriftWatch::Config cfg;
  cfg.short_alpha = 0.5;
  cfg.long_alpha = 0.001;
  cfg.threshold = 0.2;
  cfg.min_samples = 4;
  serve::DriftWatch watch(cfg);
  EXPECT_EQ(watch.alert_epoch(), 0u);

  // A healthy hit stream keeps both EWMAs together: no alert.
  for (int i = 0; i < 16; ++i) watch.record_outcome(true);
  EXPECT_FALSE(watch.state().alert);
  EXPECT_EQ(watch.alert_epoch(), 0u);

  // Precision collapses: the fast EWMA drops away from the slow one — one
  // rising edge, however long the level then stays up.
  for (int i = 0; i < 64; ++i) watch.record_outcome(false);
  EXPECT_TRUE(watch.state().alert);
  EXPECT_EQ(watch.alert_epoch(), 1u);
  for (int i = 0; i < 64; ++i) watch.record_outcome(false);
  EXPECT_EQ(watch.alert_epoch(), 1u);  // still the same edge
}

TEST(DriftEpoch, DisabledScoreboardReportsZero) {
  serve::ModelServer target;  // scoreboard disabled by default
  EXPECT_FALSE(target.drift_alert());
  EXPECT_EQ(target.drift_alert_epoch(), 0u);
}

// ---------------------------------------------------------------------------
// Chaos: failed publishes never corrupt serving.

TEST(OnlineTrainer, PublishFaultLeavesEverythingUntouched) {
  serve::ModelServer target;
  OnlineTrainerConfig tc;
  tc.policy.day_boundaries = false;
  OnlineTrainer trainer(target, tc);

  push_clicks(trainer, 8, 100);
  trainer.step();
  ASSERT_TRUE(trainer.publish_now());
  const auto before = target.snapshot();
  const std::uint64_t obs_before = trainer.observations();

  push_clicks(trainer, 8, 200);
  trainer.step();
#ifndef WEBPPM_FAULT_DISABLED
  fault::arm(fault::Plan{}.fail("learn.publish"));
  EXPECT_FALSE(trainer.publish_now());
  fault::disarm();
  EXPECT_EQ(trainer.publish_failures(), 1u);
#endif
  EXPECT_EQ(trainer.publishes(), 1u);
  // Serving still answers from the pre-fault snapshot...
  EXPECT_EQ(target.snapshot().get(), before.get());
  // ...and nothing was half-absorbed: the observations are still there and
  // the next publish covers them.
  EXPECT_EQ(trainer.observations(), obs_before + 8);
  EXPECT_TRUE(trainer.publish_now());
  EXPECT_NE(target.snapshot().get(), before.get());
  EXPECT_EQ(trainer.publishes(), 2u);
}

TEST(OnlineTrainer, StoreFailureKeepsInMemoryPublish) {
  const fs::path dir =
      fs::path(::testing::TempDir()) /
      ("learn_store_" + std::to_string(::getpid()));
  fs::create_directories(dir);
  serve::SnapshotStoreConfig sc;
  sc.dir = dir.string();
  sc.backoff = std::chrono::milliseconds(0);
  serve::SnapshotStore store(sc);

  serve::ModelServer target;
  OnlineTrainerConfig tc;
  tc.policy.day_boundaries = false;
  tc.store = &store;
  OnlineTrainer trainer(target, tc);

  push_clicks(trainer, 8, 100);
  trainer.step();
  fault::arm(fault::Plan{}.fail("serve.snapshot.write"));
  EXPECT_TRUE(trainer.publish_now());  // freshness beats durability
  fault::disarm();
#ifndef WEBPPM_FAULT_DISABLED
  EXPECT_EQ(trainer.store_failures(), 1u);
#endif
  EXPECT_EQ(trainer.publishes(), 1u);
  ASSERT_NE(target.snapshot(), nullptr);

  // With the store healthy again the next publish persists, and what it
  // persisted is loadable at the published version.
  push_clicks(trainer, 4, 200);
  trainer.step();
  EXPECT_TRUE(trainer.publish_now());
#ifndef WEBPPM_FAULT_DISABLED
  EXPECT_EQ(trainer.store_failures(), 1u);
#endif
  auto loaded = store.load_latest();
  ASSERT_NE(loaded.snapshot, nullptr) << loaded.error;
  EXPECT_EQ(loaded.snapshot->version, trainer.last_published_version());
  fs::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Publish-stage histograms.

TEST(OnlineTrainer, PublishStageHistogramsCountEveryPublish) {
  const fs::path dir =
      fs::path(::testing::TempDir()) /
      ("learn_stages_" + std::to_string(::getpid()));
  fs::create_directories(dir);
  serve::SnapshotStoreConfig sc;
  sc.dir = dir.string();
  serve::SnapshotStore store(sc);

  obs::MetricsRegistry reg;
  serve::ModelServer target;
  OnlineTrainerConfig tc;
  tc.policy.day_boundaries = false;
  tc.freeze_published = true;
  tc.store = &store;
  tc.metrics = &reg;
  OnlineTrainer trainer(target, tc);

  // Samples of the model, freeze, store and swap stages, in that order.
  const auto expect_stage_counts = [](const obs::MetricsRegistry& r,
                                      std::array<std::uint64_t, 4> n) {
    const char* const names[] = {
        "webppm_learn_publish_model_ns", "webppm_learn_publish_freeze_ns",
        "webppm_learn_publish_store_ns", "webppm_learn_publish_swap_ns"};
    for (std::size_t i = 0; i < n.size(); ++i) {
      const obs::LogHistogram* h = r.find_histogram(names[i]);
      ASSERT_NE(h, nullptr) << names[i];
      EXPECT_EQ(h->count(), n[i]) << names[i];
    }
  };
  push_clicks(trainer, 8, 100);
  trainer.step();
  ASSERT_TRUE(trainer.publish_now());
  push_clicks(trainer, 8, 200);
  trainer.step();
  ASSERT_TRUE(trainer.publish_now());
  EXPECT_EQ(trainer.publishes(), 2u);
  expect_stage_counts(reg, {2, 2, 2, 2});

  // A publish the fault aborts has no stages to time.
#ifndef WEBPPM_FAULT_DISABLED
  fault::arm(fault::Plan{}.fail("learn.publish"));
  EXPECT_FALSE(trainer.publish_now());
  fault::disarm();
#endif
  EXPECT_EQ(trainer.publishes(), 2u);
  expect_stage_counts(reg, {2, 2, 2, 2});
  fs::remove_all(dir);

  // Without a store or freezing, those two stages are never sampled.
  obs::MetricsRegistry bare_reg;
  serve::ModelServer bare_target;
  OnlineTrainerConfig bare;
  bare.policy.day_boundaries = false;
  bare.metrics = &bare_reg;
  OnlineTrainer bare_trainer(bare_target, bare);
  push_clicks(bare_trainer, 8, 100);
  bare_trainer.step();
  ASSERT_TRUE(bare_trainer.publish_now());
  expect_stage_counts(bare_reg, {1, 0, 0, 1});
}

TEST(OnlineTrainer, QueueDropsShowInTheRegistryBeforeTheNextStep) {
  // The queue counts its drops into the trainer's registry as they happen;
  // no step() has to run before a scrape sees them.
  obs::MetricsRegistry reg;
  serve::ModelServer target;
  OnlineTrainerConfig tc;
  tc.policy.day_boundaries = false;
  tc.queue_capacity = 4;
  tc.metrics = &reg;
  OnlineTrainer trainer(target, tc);
  std::size_t accepted = 0;
  for (TimeSec t = 0; t < 6; ++t) {
    if (trainer.queue().push(obs_at(100 + t, 1, 1))) ++accepted;
  }
  EXPECT_EQ(accepted, 4u);
  EXPECT_EQ(trainer.dropped(), 2u);
  const obs::Counter* dropped = reg.find_counter("webppm_learn_dropped_total");
  ASSERT_NE(dropped, nullptr);
  EXPECT_EQ(dropped->value(), 2u);
}

// ---------------------------------------------------------------------------
// URL ids past kMaxTrainedUrl.

TEST(OnlineTrainer, UrlIdsPastTheBoundAreDroppedAndCounted) {
  obs::MetricsRegistry reg;
  serve::ModelServer target;
  OnlineTrainerConfig tc;
  tc.policy.day_boundaries = false;
  tc.metrics = &reg;
  OnlineTrainer trainer(target, tc);

  // 0xFFFFFFFF used to wrap the count table's size to zero and write past
  // it; 0xFFFFFFF0 asked for a 16 GiB table. Neither may reach the counts,
  // the clock or the sessionizer.
  push_clicks(trainer, 8, 100);
  for (const UrlId url : {UrlId{0xFFFFFFFFu}, UrlId{0xFFFFFFF0u},
                          UrlId{kMaxTrainedUrl + 1}}) {
    ASSERT_TRUE(trainer.queue().push(obs_at(5000, 2, url)));
  }
  trainer.step();
  EXPECT_EQ(trainer.rejected(), 3u);
  EXPECT_EQ(trainer.observations(), 8u);
  ASSERT_TRUE(trainer.publish_now());
  EXPECT_EQ(trainer.publishes(), 1u);
  ASSERT_NE(target.snapshot(), nullptr);
  EXPECT_EQ(target.snapshot()->popularity.url_count(), 5u);
  const obs::Counter* rejected =
      reg.find_counter("webppm_learn_rejected_total");
  ASSERT_NE(rejected, nullptr);
  EXPECT_EQ(rejected->value(), 3u);
}

// ---------------------------------------------------------------------------
// Decay: bounded retention + periodic rebuild.

TEST(OnlineTrainer, RetentionCapAndRebuildDecay) {
  const trace::Trace trace =
      workload::generate_page_trace(workload::nasa_like(4, 0.15));
  serve::ModelServer target;
  OnlineTrainerConfig tc;
  tc.spec = core::ModelSpec::standard_fixed(3);
  tc.max_retained_sessions = 40;
  tc.policy.rebuild_every_publishes = 2;
  OnlineTrainer trainer(target, tc);
  trainer.attach();

  for (std::uint32_t d = 0; d < trace.day_count(); ++d) {
    for (const auto& r : trace.day_slice(d)) target.observe(r);
    trainer.step();
  }
  EXPECT_GE(trainer.publishes(), 3u);
  EXPECT_LE(trainer.retained_sessions(), 40u);
  EXPECT_GE(trainer.rebuilds(), 1u);
  EXPECT_GT(trainer.storage_bytes(), 0u);

  // The decayed model still serves: replay a slice and require predictions.
  auto snap = target.snapshot();
  ASSERT_NE(snap, nullptr);
  serve::ModelServer fresh;
  fresh.publish(snap);
  std::vector<ppm::Prediction> out;
  std::size_t predicted = 0;
  for (const auto& r : trace.day_slice(trace.day_count() - 1)) {
    if (fresh.query(r, out)) ++predicted;
  }
  EXPECT_GT(predicted, 0u);
}

TEST(OnlineTrainer, CappedPbPublishesPbOverExactlyItsWindow) {
  // A drifting trace (grades move at the day boundaries) under a cap that
  // evicts at most of them. A step absorbs the sessions its feed closed
  // once kAbsorbBatch wait, and evicts past the cap there; a publish
  // absorbs what waits and what its settle closed. At every publish the
  // trainer's payload must be what a fresh base emits over exactly the
  // retained window plus the open tails, under the published table. A
  // twin trainer asks for a rebuild at every publish: PB skips it, so its
  // payloads are the same and it counts none.
  const trace::Trace trace =
      workload::generate_page_trace(workload::ucb_like(6, 1.0));
  constexpr std::size_t kCap = 2000;
  OnlineTrainerConfig tc;
  tc.spec = core::ModelSpec::pb_model_aggressive();
  tc.url_count_hint = trace.urls.size();
  tc.queue_capacity = trace.requests.size() + 1;
  tc.max_retained_sessions = kCap;
  serve::ModelServer target;
  OnlineTrainer trainer(target, tc);
  trainer.attach();
  OnlineTrainerConfig rebuild_tc = tc;
  rebuild_tc.policy.rebuild_every_publishes = 1;
  serve::ModelServer rebuild_target;
  OnlineTrainer rebuilding(rebuild_target, rebuild_tc);
  rebuilding.attach();

  // The trainer's sessions, replayed: the same clicks, closed by the same
  // feeds and settles, absorbed at the same steps, evicted oldest first.
  session::IncrementalSessionizer mirror(tc.session);
  std::vector<session::Session> closed;
  std::size_t capped = 0;
  const auto take_closed = [&] {
    auto fresh = mirror.take_closed();
    closed.insert(closed.end(), std::make_move_iterator(fresh.begin()),
                  std::make_move_iterator(fresh.end()));
    if (closed.size() > kCap) {
      closed.erase(closed.begin(), closed.end() - kCap);
      ++capped;
    }
  };
  for (std::uint32_t d = 0; d < trace.day_count(); ++d) {
    const auto day = trace.day_slice(d);
    feed_day(target, day, Feed::kObserve);
    feed_day(rebuild_target, day, Feed::kObserve);
    trainer.step();
    rebuilding.step();
    if (d > 0) {
      ASSERT_EQ(trainer.publishes(), d);
      mirror.settle_before(static_cast<TimeSec>(d) * kSecondsPerDay);
      take_closed();

      const auto snap = target.snapshot();
      ASSERT_NE(snap, nullptr);
      ppm::PbBase fresh_base(tc.spec.pb, &snap->popularity);
      fresh_base.insert(closed);
      fresh_base.insert(mirror.open_snapshot());
      EXPECT_TRUE(payload_of(*snap) == fresh_base.emit())
          << "publish at boundary " << d;
      ASSERT_NE(rebuild_target.snapshot(), nullptr);
      EXPECT_TRUE(payload_of(*rebuild_target.snapshot()) == payload_of(*snap))
          << "rebuilding twin at boundary " << d;
    }
    mirror.feed(day);
    if (mirror.closed().size() >= kAbsorbBatch) take_closed();
    EXPECT_EQ(trainer.retained_sessions(), closed.size()) << "day " << d;
    EXPECT_LE(trainer.retained_sessions(), kCap);
  }
  EXPECT_GE(capped, 6u);
  EXPECT_GT(trainer.regraded_sessions(), 0u);
  EXPECT_EQ(trainer.rebuilds(), 0u);
  EXPECT_EQ(rebuilding.publishes(), trainer.publishes());
  EXPECT_EQ(rebuilding.rebuilds(), 0u);
}

TEST(OnlineTrainer, CappedPbStorageStaysFlatOverAMonth) {
  // A capped PB trainer's bytes follow its window, not its history: once
  // the window is full, storage_bytes() at each publish (the
  // webppm_learn_storage_bytes gauge) stays within 2x its value at the
  // first publish that evicts. The base retracts what leaves the window,
  // and the URL index drops its postings.
  const trace::Trace trace =
      workload::generate_page_trace(workload::ucb_like(30, 0.04));
  constexpr std::size_t kCap = 300;
  constexpr std::size_t kChunk = 256;  // keeps the queue's buffer small
  obs::MetricsRegistry reg;
  serve::ModelServer target;
  OnlineTrainerConfig tc;
  tc.spec = core::ModelSpec::pb_model_aggressive();
  tc.url_count_hint = trace.urls.size();
  tc.queue_capacity = kChunk;
  tc.max_retained_sessions = kCap;
  tc.metrics = &reg;
  OnlineTrainer trainer(target, tc);
  const obs::Gauge* bytes = reg.find_gauge("webppm_learn_storage_bytes");
  ASSERT_NE(bytes, nullptr);

  const std::span<const trace::Request> reqs = trace.requests;
  std::int64_t first = 0;
  std::uint64_t checked = 0;
  for (std::size_t i = 0; i < reqs.size(); i += kChunk) {
    const std::uint64_t before = trainer.publishes();
    for (const auto& r : reqs.subspan(i, std::min(kChunk, reqs.size() - i))) {
      ASSERT_TRUE(trainer.queue().push(Observation::from(r)));
    }
    trainer.step();
    if (trainer.publishes() == before) continue;
    if (first == 0) {
      if (trainer.retained_sessions() == kCap) first = bytes->value();
      continue;
    }
    ++checked;
    EXPECT_LE(bytes->value(), 2 * first)
        << "publish " << trainer.publishes() << " against " << first;
  }
  EXPECT_EQ(trainer.publishes(), trace.day_count() - 1u);
  EXPECT_GE(checked, 20u);
}

// ---------------------------------------------------------------------------
// Background thread + mobile-style churn.

TEST(OnlineTrainer, BackgroundThreadDrainsEverythingOnStop) {
  serve::ModelServer target;
  OnlineTrainerConfig tc;
  tc.policy.day_boundaries = false;
  tc.poll_interval_ms = 1;
  OnlineTrainer trainer(target, tc);
  trainer.attach();
  ASSERT_TRUE(trainer.start());
  EXPECT_FALSE(trainer.start());  // already running
  for (TimeSec t = 0; t < 1000; ++t) {
    target.observe(click(static_cast<ClientId>(t % 17),
                         static_cast<UrlId>(t % 31), t));
  }
  trainer.detach();
  trainer.stop();
  trainer.stop();  // idempotent
  EXPECT_FALSE(trainer.running());
  EXPECT_EQ(trainer.observations() + trainer.dropped(), 1000u);
  EXPECT_EQ(trainer.observations(), trainer.queue().pushed());
}

TEST(OnlineTrainer, MobileChurnAgainstCapsAndEviction) {
  // High client turnover against per-shard client caps and idle eviction,
  // racing the trainer thread's settlement — the scenario that loses
  // sessions or corrupts contexts if serve-side eviction and trainer-side
  // sessionization share state they should not.
  serve::ModelServerConfig mc;
  mc.shards = 4;
  mc.max_clients_per_shard = 16;
  mc.idle_eviction_factor = 1.0;
  serve::ModelServer target(mc);

  // Serve something real so queries run a full prediction pass.
  {
    const trace::Trace warm =
        workload::generate_page_trace(workload::nasa_like(1, 0.1));
    auto tm = core::train_model(core::ModelSpec::pb_model(), warm, 0, 0);
    target.publish(serve::make_snapshot(std::move(tm.predictor),
                                        std::move(tm.popularity), 1));
  }

  OnlineTrainerConfig tc;
  tc.spec = core::ModelSpec::pb_model();
  tc.policy.day_boundaries = false;
  tc.policy.observation_threshold = 512;
  tc.poll_interval_ms = 1;
  tc.queue_capacity = 1 << 12;
  OnlineTrainer trainer(target, tc);
  trainer.attach();
  ASSERT_TRUE(trainer.start());

  constexpr int kThreads = 4;
  constexpr int kReqs = 3000;
  constexpr int kBlock = 8;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int w = 0; w < kThreads; ++w) {
    workers.emplace_back([&, w] {
      std::vector<ppm::Prediction> out;
      std::vector<trace::Request> block;
      serve::BatchQueryScratch scratch;
      for (int b = 0; b < kReqs / kBlock; ++b) {
        block.clear();
        for (int i = b * kBlock; i < (b + 1) * kBlock; ++i) {
          // Fresh client every four clicks: mobile-style churn that keeps
          // slamming the admission cap while old contexts idle out.
          const ClientId c = static_cast<ClientId>(w) * 1000000u +
                             static_cast<ClientId>(i / 4);
          block.push_back(click(c, static_cast<UrlId>(i % 97),
                                static_cast<TimeSec>(i) * 2));
        }
        // Blocks rotate through the three entry points of the tap: single
        // observes, single queries, and one batch (one queue lock).
        if (b % 3 == 0) {
          for (const auto& r : block) target.observe(r);
        } else if (b % 3 == 1) {
          for (const auto& r : block) target.query_ex(r, out);
        } else {
          target.query_batch(block, scratch);
        }
        if (w == 0 && b % 32 == 31) {
          target.evict_idle(block.back().timestamp);
        }
      }
    });
  }
  // A scrape reads the trainer's bytes, the queue's buffer included,
  // while the serving threads push and the trainer thread drains. The
  // buffers the two trade are ones the queue grew, so neither passes the
  // bound.
  std::atomic<bool> serving{true};
  std::size_t max_queue_bytes = 0;
  std::thread scraper([&] {
    while (serving.load(std::memory_order_acquire)) {
      max_queue_bytes =
          std::max(max_queue_bytes, trainer.queue().memory_bytes());
      (void)trainer.storage_bytes();  // the trainer's lock, then the queue's
    }
  });
  for (auto& t : workers) t.join();
  serving.store(false, std::memory_order_release);
  scraper.join();
  EXPECT_LE(max_queue_bytes, tc.queue_capacity * sizeof(Observation));
  trainer.detach();
  trainer.stop();

  // Every request offered reached the tap (pushed or deliberately dropped),
  // and everything pushed was absorbed by the final drain.
  EXPECT_EQ(trainer.queue().pushed() + trainer.queue().dropped(),
            static_cast<std::uint64_t>(kThreads) * kReqs);
  EXPECT_EQ(trainer.observations(), trainer.queue().pushed());
  EXPECT_GE(trainer.publishes(), 1u);
  // The admission cap held: contexts never exceeded shards * cap.
  EXPECT_LE(target.client_count(), mc.shards * mc.max_clients_per_shard);
  ASSERT_NE(target.snapshot(), nullptr);
}

}  // namespace
}  // namespace webppm::learn
