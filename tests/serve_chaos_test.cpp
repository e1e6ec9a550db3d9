// Chaos acceptance gate (ISSUE: fault-tolerant serving). One scripted plan
// drives the full failure story end to end:
//
//   1. the newest on-disk snapshot generation is corrupted (bit flip),
//   2. the next two publish writes fail (injected),
//   3. one shard is flooded past its client cap,
//
// and the system must never crash, must recover to the newest *intact*
// generation with its exact version, must serve predictions byte-identical
// to a fault-free server once the plan is done, and must account every
// injected fault in webppm_serve_fault_* / webppm_serve_degraded_* metrics.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "fault/fault.hpp"
#include "learn/trainer.hpp"
#include "obs/metrics.hpp"
#include "ppm/standard_ppm.hpp"
#include "serve/model_server.hpp"
#include "serve/snapshot_store.hpp"

namespace webppm::serve {
namespace {

namespace fs = std::filesystem;

trace::Request click(ClientId c, UrlId u, TimeSec t) {
  trace::Request r;
  r.client = c;
  r.url = u;
  r.timestamp = t;
  r.status = 200;
  r.size_bytes = 1000;
  return r;
}

session::Session make_session(std::vector<UrlId> urls) {
  session::Session s;
  s.urls = std::move(urls);
  return s;
}

std::shared_ptr<const Snapshot> trained_snapshot(std::uint64_t version) {
  auto m = std::make_unique<ppm::StandardPpm>();
  m->train(std::vector<session::Session>{make_session({1, 2, 3}),
                                         make_session({1, 2, 3}),
                                         make_session({1, 2, 4}),
                                         make_session({5, 6, 7})});
  return make_snapshot(std::move(m),
                       popularity::PopularityTable::from_counts(
                           {0, 4, 3, 2, 1, 1, 1, 1}),
                       version);
}

/// Replays a fixed click script against a server and returns every
/// prediction list produced, in order — the byte-identity probe.
std::vector<std::vector<ppm::Prediction>> replay_script(ModelServer& server,
                                                        ClientId base,
                                                        TimeSec t) {
  std::vector<std::vector<ppm::Prediction>> all;
  std::vector<ppm::Prediction> out;
  for (const UrlId u : {1u, 2u, 3u, 1u, 2u, 4u, 5u, 6u}) {
    server.query(click(base, u, t++), out);
    all.push_back(out);
  }
  server.query(click(base + 1, 1, t++), out);
  all.push_back(out);
  server.query(click(base + 1, 2, t++), out);
  all.push_back(out);
  return all;
}

TEST(ServeChaos, FullFaultPlanRecoversToLastGoodAndStaysIdentical) {
  const std::string dir =
      (fs::path(::testing::TempDir()) / "chaos_store").string();
  fs::remove_all(dir);

  obs::MetricsRegistry registry;
  fault::attach_metrics(&registry);

  SnapshotStoreConfig store_cfg;
  store_cfg.dir = dir;
  store_cfg.publish_attempts = 4;
  store_cfg.backoff = std::chrono::milliseconds(0);
  store_cfg.metrics = &registry;
  SnapshotStore store(store_cfg);

  // Three healthy generations on disk.
  ASSERT_TRUE(store.publish(*trained_snapshot(101)).ok);  // gen 1
  ASSERT_TRUE(store.publish(*trained_snapshot(102)).ok);  // gen 2
  ASSERT_TRUE(store.publish(*trained_snapshot(103)).ok);  // gen 3

  // --- Chaos step 1: corrupt the newest generation on disk. -------------
  {
    const std::string path = dir + "/gen-3.snap";
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    std::string bytes = buf.str();
    ASSERT_FALSE(bytes.empty());
    bytes[bytes.size() / 3] =
        static_cast<char>(bytes[bytes.size() / 3] ^ 0x08);
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << bytes;
  }

  // --- Chaos step 2+3 armed: two publish writes fail, one directory sync
  // fails after its rename, shard floods. ---------------------------------
  fault::arm(fault::Plan{}
                 .fail_nth("serve.snapshot.write", 0, 2)
                 .fail_nth("serve.snapshot.dirsync", 0, 1));

  // Recovery: load_latest must roll back to gen 2 (version 102).
  auto loaded = store.load_latest();
  ASSERT_NE(loaded.snapshot, nullptr) << loaded.error;
  EXPECT_EQ(loaded.generation, 2u);
  EXPECT_EQ(loaded.snapshot->version, 102u);
  ASSERT_EQ(loaded.rejected.size(), 1u);

  ModelServerConfig cfg;
  cfg.shards = 1;  // everything lands on one shard — the flood target
  cfg.max_clients_per_shard = 8;
  cfg.idle_eviction_factor = 1.0;  // lets the flood drain afterwards
  cfg.metrics = &registry;
  ModelServer server(cfg);
  server.publish(loaded.snapshot);
  EXPECT_FALSE(server.degraded());
  EXPECT_EQ(server.version(), 102u);

  // Publish storm: the first store.publish eats both injected write
  // failures (attempts 1 and 2) plus the post-rename dirsync failure
  // (attempt 3 — the file is in place but its directory entry is not yet
  // durable, so the attempt is retried) and lands on attempt 4; the second
  // is clean. The serving layer never sees a torn file either way.
  const auto storm1 = store.publish(*trained_snapshot(104));
  ASSERT_TRUE(storm1.ok) << storm1.error;
  EXPECT_EQ(storm1.attempts, 4u);
  const auto storm2 = store.publish(*trained_snapshot(105));
  ASSERT_TRUE(storm2.ok) << storm2.error;
  EXPECT_EQ(storm2.attempts, 1u);

  // Client flood from many threads: 8 admitted contexts, everyone else is
  // shed to the popularity fallback. Must not crash, leak, or wedge.
  {
    std::vector<std::thread> threads;
    threads.reserve(4);
    for (int t = 0; t < 4; ++t) {
      threads.emplace_back([&server, t] {
        std::vector<ppm::Prediction> out;
        for (ClientId c = 0; c < 64; ++c) {
          server.query(click(1000 + static_cast<ClientId>(t) * 64 + c, 1,
                             static_cast<TimeSec>(c)),
                       out);
        }
      });
    }
    for (auto& th : threads) th.join();
  }
  EXPECT_LE(server.client_count(), 8u);
  EXPECT_GT(server.shed_count(), 0u);
  // Shed clients were still answered (degraded service, not an outage).
  EXPECT_EQ(server.degraded_query_count(), server.shed_count());

  // --- Plan complete: disarm and prove full recovery. -------------------
  fault::disarm();
  fault::attach_metrics(nullptr);

  const auto recovered = store.load_latest();
  ASSERT_NE(recovered.snapshot, nullptr) << recovered.error;
  EXPECT_EQ(recovered.snapshot->version, 105u);
  // The newest generation verifies, so the corrupt (older) gen 3 is never
  // even visited.
  EXPECT_TRUE(recovered.rejected.empty());
  server.publish(recovered.snapshot);

  // Drain the flood's contexts so the capped shard can admit the probe
  // clients again — shedding is load protection, not a permanent ban.
  server.evict_idle(1'000'000);
  EXPECT_EQ(server.client_count(), 0u);

  // Byte-identical predictions: a fault-free server built from the same
  // snapshot answers the same script with exactly the same predictions.
  ModelServer pristine;  // default config, no metrics, never saw a fault
  pristine.publish(recovered.snapshot);
  EXPECT_EQ(replay_script(server, 5000, 2'000'000),
            replay_script(pristine, 5000, 2'000'000));

  // Leak check: only the current snapshot generation is alive once the
  // replaced ones drop their references (the test's own handle included).
  loaded.snapshot.reset();
  EXPECT_EQ(server.snapshot_generations_live(), 1u);

  // --- Accounting: every injected fault shows up in the metrics. --------
  EXPECT_EQ(
      registry.counter("webppm_serve_fault_snapshot_write_failures_total")
          .value(),
      3u);
  EXPECT_EQ(
      registry.counter("webppm_serve_fault_publish_retries_total").value(),
      3u);
  EXPECT_EQ(
      registry.counter("webppm_serve_fault_publish_failures_total").value(),
      0u);
  EXPECT_EQ(
      registry.counter("webppm_serve_fault_snapshot_rejected_total").value(),
      1u);
  EXPECT_EQ(registry.counter("webppm_serve_fault_rollback_total").value(),
            1u);
  // The generic fault layer agrees: exactly the three scripted faults (two
  // writes + one dirsync) were injected in total.
  EXPECT_EQ(registry.counter("webppm_fault_injected_total").value(), 3u);
  // Degraded service was counted, and the shed total matches the server.
  EXPECT_EQ(registry.counter("webppm_serve_degraded_shed_total").value(),
            server.shed_count());
  EXPECT_EQ(registry.counter("webppm_serve_degraded_queries_total").value(),
            server.degraded_query_count());

  // CI uploads the post-recovery metrics exposition as an artifact so the
  // fault accounting above can be eyeballed without re-running the gate.
  if (const char* out_path = std::getenv("WEBPPM_CHAOS_METRICS_OUT")) {
    std::ofstream out(out_path, std::ios::trunc);
    out << registry.prometheus_text();
  }

  fs::remove_all(dir);
}

TEST(ServeChaos, TotalStoreLossDegradesInsteadOfFailing) {
  // Every generation is corrupt: the operator rebuilds a degraded
  // (popularity-only) snapshot; the server flips into degraded mode, keeps
  // answering, and recovers cleanly when a full model returns.
  const std::string dir =
      (fs::path(::testing::TempDir()) / "chaos_total_loss").string();
  fs::remove_all(dir);

  obs::MetricsRegistry registry;
  SnapshotStoreConfig store_cfg;
  store_cfg.dir = dir;
  store_cfg.backoff = std::chrono::milliseconds(0);
  SnapshotStore store(store_cfg);
  ASSERT_TRUE(store.publish(*trained_snapshot(1)).ok);
  {
    std::ofstream out(dir + "/gen-1.snap", std::ios::trunc);
    out << "nothing left";
  }
  ASSERT_EQ(store.load_latest().snapshot, nullptr);

  ModelServerConfig cfg;
  cfg.metrics = &registry;
  ModelServer server(cfg);
  server.publish(make_degraded_snapshot(
      popularity::PopularityTable::from_counts({0, 9, 5, 2}), 50));
  EXPECT_TRUE(server.degraded());

  std::vector<ppm::Prediction> out;
  ASSERT_TRUE(server.query(click(1, 1, 0), out));
  ASSERT_FALSE(out.empty());
  EXPECT_EQ(out[0].url, 1u);  // most popular URL leads the push set
  EXPECT_GT(server.degraded_query_count(), 0u);
  EXPECT_EQ(registry.gauge("webppm_serve_degraded_mode").value(), 1);

  // A full model comes back: degraded mode clears.
  server.publish(trained_snapshot(51));
  EXPECT_FALSE(server.degraded());
  EXPECT_EQ(registry.gauge("webppm_serve_degraded_mode").value(), 0);
  EXPECT_GE(
      registry.counter("webppm_serve_degraded_transitions_total").value(),
      2u);

  fs::remove_all(dir);
}

/// How the learn leg of the chaos gate sends its clicks to the trainer.
enum class Tap {
  kObserve,     ///< one ModelServer::observe per click
  kQueryBatch,  ///< one query_batch per burst (the batch tap)
};

/// Sends `clicks` through `tap`. Bursts reach the observer before any
/// prediction runs, so either way the trainer sees the same stream.
void send_clicks(ModelServer& server, const std::vector<trace::Request>& clicks,
                 Tap tap) {
  if (tap == Tap::kObserve) {
    for (const auto& r : clicks) server.observe(r);
    return;
  }
  BatchQueryScratch scratch;
  server.query_batch(clicks, scratch);
}

/// The learn-pipeline leg of the chaos gate: one scripted plan drops
/// observations mid-stream (learn.queue.push), aborts the first republish
/// attempt (learn.publish), and fails the first durable store write
/// (serve.snapshot.write) — and at no point may the serving path diverge
/// from a fault-free twin or lose its model. Trainer crash/republish
/// failure degrades training freshness, never serving.
void run_online_trainer_fault_plan(Tap tap, const std::string& dir_name) {
  const std::string dir = (fs::path(::testing::TempDir()) / dir_name).string();
  fs::remove_all(dir);

  SnapshotStoreConfig store_cfg;
  store_cfg.dir = dir;
  store_cfg.publish_attempts = 1;  // one injected write failure = one loss
  store_cfg.backoff = std::chrono::milliseconds(0);
  SnapshotStore store(store_cfg);

  ModelServer server;
  server.publish(trained_snapshot(101));
  ModelServer twin;  // same model, no trainer, no faults
  twin.publish(trained_snapshot(101));

  learn::OnlineTrainerConfig tc;
  tc.policy.day_boundaries = false;  // manual publishes only
  tc.store = &store;
  learn::OnlineTrainer trainer(server, tc);
  trainer.attach();

  fault::arm(fault::Plan{}
                 .fail_nth("learn.queue.push", 2, 3)
                 .fail_nth("learn.publish", 0, 1)
                 .fail_nth("serve.snapshot.write", 0, 1));

  // Ten observed clicks; three vanish at the queue. Observation loss is
  // training loss only — the serving snapshot is untouched.
  TimeSec t = 1000;
  std::vector<trace::Request> clicks;
  for (const UrlId u : {1u, 2u, 3u, 1u, 2u, 4u, 5u, 6u, 7u, 1u}) {
    clicks.push_back(click(60, u, t++));
  }
  send_clicks(server, clicks, tap);
  trainer.step();
  EXPECT_EQ(trainer.dropped(), 3u);
  EXPECT_EQ(trainer.observations(), 7u);
  EXPECT_EQ(replay_script(server, 900, 2000), replay_script(twin, 900, 2000));

  // First republish attempt aborts at the learn.publish site: the shadow,
  // the retained window, and the serving snapshot all stay as they were.
  trainer.step();
  EXPECT_FALSE(trainer.publish_now());
  EXPECT_EQ(trainer.publish_failures(), 1u);
  EXPECT_EQ(trainer.publishes(), 0u);
  EXPECT_EQ(server.version(), 101u);
  EXPECT_EQ(replay_script(server, 930, 3000), replay_script(twin, 930, 3000));

  // Second attempt goes through in memory; the durable write fails.
  // Freshness beats durability: the server serves the new model, the store
  // failure is accounted, nothing on disk is half-written.
  trainer.step();
  EXPECT_TRUE(trainer.publish_now());
  EXPECT_EQ(trainer.publishes(), 1u);
  EXPECT_EQ(trainer.store_failures(), 1u);
  EXPECT_EQ(server.version(), trainer.last_published_version());
  EXPECT_EQ(store.load_latest().snapshot, nullptr);

  fault::disarm();

  // Chaos over: the next publish persists, and the disk generation carries
  // the exact served version.
  clicks = {click(61, 1, t), click(61, 2, t + 1)};
  send_clicks(server, clicks, tap);
  trainer.step();
  // Exact accounting: the two replays fed ten queries each, and the plan
  // dropped nothing past its three scripted hits.
  EXPECT_EQ(trainer.observations(), 7u + 10u + 10u + 2u);
  EXPECT_EQ(trainer.dropped(), 3u);
  EXPECT_TRUE(trainer.publish_now());
  EXPECT_EQ(trainer.store_failures(), 1u);
  const auto loaded = store.load_latest();
  ASSERT_NE(loaded.snapshot, nullptr);
  EXPECT_EQ(loaded.snapshot->version, trainer.last_published_version());
  EXPECT_EQ(server.version(), trainer.last_published_version());

  trainer.detach();
  fs::remove_all(dir);
}

TEST(ServeChaos, OnlineTrainerFaultPlanNeverCorruptsServing) {
  run_online_trainer_fault_plan(Tap::kObserve, "chaos_learn_store");
}

TEST(ServeChaos, OnlineTrainerFaultPlanOverQueryBatch) {
  run_online_trainer_fault_plan(Tap::kQueryBatch, "chaos_learn_store_batch");
}

}  // namespace
}  // namespace webppm::serve
