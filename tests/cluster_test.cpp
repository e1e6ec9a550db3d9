// Cluster-tier suite (ISSUE 9, "cluster" label): consistent-hash ring
// determinism and balance, seeded backoff bounds, retry-budget semantics,
// and real-socket integration of PredictRouter + ShardSupervisor —
// byte-identity with one big server (v1 and mixed v2 batches), failover
// through the circuit breaker onto a killed-and-restarted shard, scripted
// cluster.* IO faults retried away invisibly, lost probes and failed
// accepts that change no answer, the shared acceptor's connection-cap shed
// and admin deadline, zero-drop rolling restarts under live replay, the
// version-skew gauge across a staged upgrade, and a rolling upgrade of a
// PB-PPM model that matches one big server publishing the new version at
// the same stream boundary.
#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cluster/hash_ring.hpp"
#include "cluster/router.hpp"
#include "cluster/supervisor.hpp"
#include "core/experiment.hpp"
#include "fault/fault.hpp"
#include "net/backoff.hpp"
#include "net/load_client.hpp"
#include "obs/metrics.hpp"
#include "ppm/standard_ppm.hpp"
#include "serve/frozen_snapshot.hpp"
#include "session/online.hpp"
#include "workload/generator.hpp"

namespace webppm::cluster {
namespace {

namespace fs = std::filesystem;
using namespace std::chrono_literals;

bool eventually(const std::function<bool()>& pred,
                std::chrono::milliseconds budget = 5000ms) {
  const auto deadline = std::chrono::steady_clock::now() + budget;
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(2ms);
  }
  return pred();
}

// ---------------------------------------------------------------------------
// HashRing

TEST(ClusterHashRing, DeterministicAcrossInstances) {
  const HashRing a(4, 64);
  const HashRing b(4, 64);
  for (ClientId c = 0; c < 10'000; ++c) {
    ASSERT_EQ(a.shard_of(c), b.shard_of(c)) << "client " << c;
  }
}

TEST(ClusterHashRing, CoversEveryShardRoughlyEvenly) {
  const std::size_t shards = 4;
  const HashRing ring(shards, 64);
  std::vector<std::size_t> owned(shards, 0);
  const std::size_t clients = 40'000;
  for (ClientId c = 0; c < clients; ++c) {
    const std::size_t s = ring.shard_of(c);
    ASSERT_LT(s, shards);
    ++owned[s];
  }
  // 64 virtual points per shard keep the spread well inside 2x of fair.
  for (std::size_t s = 0; s < shards; ++s) {
    EXPECT_GT(owned[s], clients / shards / 2) << "shard " << s;
    EXPECT_LT(owned[s], clients / shards * 2) << "shard " << s;
  }
}

TEST(ClusterHashRing, DegenerateParamsArePinnedUp) {
  const HashRing ring(0, 0);  // 0 shards / 0 replicas pin to 1
  EXPECT_EQ(ring.shards(), 1u);
  for (ClientId c = 0; c < 64; ++c) EXPECT_EQ(ring.shard_of(c), 0u);
}

TEST(ClusterHashRing, GrowingTheRingMovesOnlyAFractionOfClients) {
  // The property that makes consistent hashing worth its salt: adding a
  // shard reassigns roughly 1/N of the keyspace, not all of it.
  const HashRing four(4, 64);
  const HashRing five(5, 64);
  const std::size_t clients = 40'000;
  std::size_t moved = 0;
  for (ClientId c = 0; c < clients; ++c) {
    if (four.shard_of(c) != five.shard_of(c)) ++moved;
  }
  EXPECT_GT(moved, 0u);
  EXPECT_LT(moved, clients / 2) << "adding one shard remapped " << moved
                                << "/" << clients << " clients";
}

// ---------------------------------------------------------------------------
// Backoff

TEST(ClusterBackoff, SameSeedSameSchedule) {
  const net::BackoffPolicy pol{.initial_ms = 2, .max_ms = 64,
                               .multiplier = 2.0, .jitter = 0.5};
  net::Backoff a(pol, 99), b(pol, 99);
  for (int i = 0; i < 20; ++i) ASSERT_EQ(a.next_delay_ms(), b.next_delay_ms());
}

TEST(ClusterBackoff, DelaysGrowJitteredAndCapped) {
  const net::BackoffPolicy pol{.initial_ms = 4, .max_ms = 100,
                               .multiplier = 2.0, .jitter = 0.25};
  net::Backoff bo(pol, 7);
  std::uint64_t base = pol.initial_ms;
  for (int i = 0; i < 12; ++i) {
    const std::uint64_t d = bo.next_delay_ms();
    // Within [base * (1 - jitter), base], never zero, never above max.
    EXPECT_GE(d, 1u);
    EXPECT_LE(d, base);
    EXPECT_GE(d + 1, base - base / 4);  // +1 absorbs the round-up
    base = std::min<std::uint64_t>(base * 2, pol.max_ms);
  }
  bo.reset();
  EXPECT_LE(bo.next_delay_ms(), pol.initial_ms);
}

TEST(ClusterBackoff, ZeroJitterIsExactDoubling) {
  const net::BackoffPolicy pol{.initial_ms = 1, .max_ms = 8,
                               .multiplier = 2.0, .jitter = 0.0};
  net::Backoff bo(pol, 1);
  EXPECT_EQ(bo.next_delay_ms(), 1u);
  EXPECT_EQ(bo.next_delay_ms(), 2u);
  EXPECT_EQ(bo.next_delay_ms(), 4u);
  EXPECT_EQ(bo.next_delay_ms(), 8u);
  EXPECT_EQ(bo.next_delay_ms(), 8u);  // capped
}

// ---------------------------------------------------------------------------
// RetryBudget

TEST(ClusterRetryBudget, BoundsConcurrentHoldersAndCountsWaits) {
  RetryBudget budget(1);
  std::atomic<bool> abort{false};
  bool waited = false;
  ASSERT_TRUE(budget.acquire(abort, &waited));
  EXPECT_FALSE(waited);

  std::atomic<bool> got{false};
  std::thread t([&] {
    bool w = false;
    if (budget.acquire(abort, &w)) {
      EXPECT_TRUE(w);
      got.store(true);
      budget.release();
    }
  });
  std::this_thread::sleep_for(20ms);
  EXPECT_FALSE(got.load()) << "second holder admitted over a full budget";
  budget.release();
  t.join();
  EXPECT_TRUE(got.load());
  EXPECT_EQ(budget.waits(), 1u);
}

TEST(ClusterRetryBudget, AbortUnblocksWaitersWithoutASlot) {
  RetryBudget budget(1);
  std::atomic<bool> abort{false};
  ASSERT_TRUE(budget.acquire(abort));
  std::atomic<bool> denied{false};
  std::thread t([&] {
    if (!budget.acquire(abort)) denied.store(true);
  });
  std::this_thread::sleep_for(10ms);
  abort.store(true);
  t.join();
  EXPECT_TRUE(denied.load());
  budget.release();
}

// ---------------------------------------------------------------------------
// Integration fixtures

trace::Request click(ClientId c, UrlId u, TimeSec t) {
  trace::Request r;
  r.client = c;
  r.url = u;
  r.timestamp = t;
  r.status = 200;
  r.size_bytes = 1000;
  return r;
}

std::shared_ptr<const serve::Snapshot> tiny_snapshot(
    std::uint64_t version = 1) {
  auto m = std::make_unique<ppm::StandardPpm>();
  session::Session s;
  s.urls = {1, 2, 3};
  session::Session s2;
  s2.urls = {1, 2, 4};
  const std::vector<session::Session> train{s, s, s2};
  m->train(train);
  return serve::make_snapshot(std::move(m), popularity::PopularityTable{},
                              version);
}

/// A multi-client stream guaranteed to exercise every shard of `ring`.
std::vector<trace::Request> spread_stream(const HashRing& ring,
                                          std::size_t per_shard = 6) {
  std::vector<std::size_t> seen(ring.shards(), 0);
  std::vector<trace::Request> reqs;
  TimeSec t = 0;
  for (ClientId c = 0; c < 10'000; ++c) {
    auto& n = seen[ring.shard_of(c)];
    if (n >= per_shard) continue;
    ++n;
    reqs.push_back(click(c, 1, t));
    reqs.push_back(click(c, 2, t + 1));
    reqs.push_back(click(c, 3, t + 2));
    t += 10;
    bool done = true;
    for (const std::size_t k : seen) done = done && k >= per_shard;
    if (done) break;
  }
  return reqs;
}

/// A blocking loopback connection to `port` that gives up reading after
/// five seconds (a peer that never answers fails a test, not hangs it).
net::OwnedFd connect_loopback(std::uint16_t port) {
  net::OwnedFd fd(::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0));
  if (!fd.valid()) return fd;
  net::set_socket_timeout(fd.get(), SO_RCVTIMEO, 5000);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd.get(), reinterpret_cast<const sockaddr*>(&addr),
                sizeof addr) != 0) {
    fd.reset();
  }
  return fd;
}

/// Supervisor + router over a fresh per-test store directory.
class ClusterFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (fs::path(::testing::TempDir()) /
            ("cluster_" + std::string(::testing::UnitTest::GetInstance()
                                          ->current_test_info()
                                          ->name())))
               .string();
    fs::remove_all(dir_);
  }
  void TearDown() override {
    fault::disarm();
    if (router_ != nullptr) router_->shutdown();
    if (sup_ != nullptr) sup_->stop();
    fs::remove_all(dir_);
  }

  void bring_up(std::size_t shards,
                const std::function<void(RouterConfig&)>& tweak = {},
                const serve::Snapshot& snap = *tiny_snapshot()) {
    SupervisorConfig scfg;
    scfg.store_dir = dir_;
    scfg.shards = shards;
    sup_ = std::make_unique<ShardSupervisor>(scfg);
    std::string err;
    ASSERT_TRUE(sup_->distribute(snap, &err)) << err;
    ASSERT_TRUE(sup_->start(&err)) << err;

    RouterConfig rcfg;
    rcfg.shards = sup_->endpoints();
    rcfg.probe_interval_ms = 20;
    rcfg.metrics = &registry_;
    if (tweak) tweak(rcfg);
    router_ = std::make_unique<PredictRouter>(rcfg);
    ASSERT_TRUE(router_->start(&err)) << err;
    sup_->attach_router(router_.get());
  }

  /// Replays `reqs` against `port`, recording frames.
  static net::LoadClientResult replay(std::uint16_t port,
                                      std::span<const trace::Request> reqs,
                                      std::size_t connections = 2,
                                      std::size_t batch_size = 0) {
    net::LoadClientConfig cfg;
    cfg.port = port;
    cfg.connections = connections;
    cfg.record_responses = true;
    cfg.batch_size = batch_size;
    return net::LoadClient(cfg).run(reqs);
  }

  std::string dir_;
  obs::MetricsRegistry registry_;
  std::unique_ptr<ShardSupervisor> sup_;
  std::unique_ptr<PredictRouter> router_;
};

/// One big server serving the same snapshot — the identity baseline.
struct BigServer {
  explicit BigServer(std::shared_ptr<const serve::Snapshot> snap =
                         tiny_snapshot()) {
    model.publish(std::move(snap));
    server = std::make_unique<net::PredictServer>(model);
    std::string err;
    if (!server->start(&err)) ADD_FAILURE() << err;
  }
  serve::ModelServer model;
  std::unique_ptr<net::PredictServer> server;
};

void expect_identical_frames(const net::LoadClientResult& got,
                             const net::LoadClientResult& want) {
  ASSERT_TRUE(got.ok) << got.error;
  ASSERT_TRUE(want.ok) << want.error;
  ASSERT_EQ(got.frames.size(), want.frames.size());
  for (std::size_t c = 0; c < got.frames.size(); ++c) {
    ASSERT_EQ(got.frames[c].size(), want.frames[c].size()) << "conn " << c;
    for (std::size_t i = 0; i < got.frames[c].size(); ++i) {
      ASSERT_EQ(got.frames[c][i], want.frames[c][i])
          << "conn " << c << " frame " << i;
    }
  }
}

// ---------------------------------------------------------------------------
// Router integration

TEST_F(ClusterFixture, V1RepliesByteIdenticalToOneBigServer) {
  bring_up(4);
  const auto reqs = spread_stream(router_->ring());
  BigServer big;
  const auto via_cluster = replay(router_->port(), reqs);
  const auto direct = replay(big.server->port(), reqs);
  expect_identical_frames(via_cluster, direct);
  EXPECT_EQ(router_->requests(), reqs.size());
  EXPECT_EQ(router_->responses(), reqs.size());
  EXPECT_EQ(router_->degraded_responses(), 0u);
}

TEST_F(ClusterFixture, V1FrameWithUnknownFlagBitGetsBadRequestThenClose) {
  bring_up(2);
  // The routed twin of the PredictServer test of the same name: a v1 frame
  // with an undefined flag bit, then a valid v1 frame in the same write.
  // The router rejects the whole connection itself — one kBadRequest (its
  // own version 0), then close — and neither frame reaches a shard.
  const net::OwnedFd fd = connect_loopback(router_->port());
  ASSERT_TRUE(fd.valid());
  std::vector<std::uint8_t> frames;
  net::WireRequest bad = net::LoadClient::to_wire(click(1, 1, 0));
  bad.flags = 0x80;
  net::encode_request(bad, frames);
  net::encode_request(net::LoadClient::to_wire(click(1, 2, 1)), frames);
  ASSERT_EQ(::send(fd.get(), frames.data(), frames.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(frames.size()));

  std::vector<std::uint8_t> got;  // everything written before the close
  std::uint8_t buf[256];
  for (ssize_t n; (n = ::read(fd.get(), buf, sizeof buf)) != 0;) {
    if (n < 0 && errno == EINTR) continue;
    ASSERT_GT(n, 0) << "no close within 5 s";
    got.insert(got.end(), buf, buf + n);
  }
  net::WireResponse bad_request;
  bad_request.status = net::Status::kBadRequest;
  std::vector<std::uint8_t> want;
  net::encode_response(bad_request, want);
  EXPECT_EQ(got, want);

  EXPECT_EQ(router_->protocol_errors(), 1u);
  EXPECT_EQ(router_->requests(), 0u);
  EXPECT_EQ(router_->responses(), 0u);
  for (std::size_t s = 0; s < 2; ++s) {
    EXPECT_EQ(sup_->server(s)->requests(), 0u) << "shard " << s;
  }
}

TEST_F(ClusterFixture, MixedBatchesSplitAndReassembleByteIdentically) {
  bring_up(4);
  const auto reqs = spread_stream(router_->ring());
  BigServer big;
  // One connection + batch 5: every frame mixes clients from different
  // shards, forcing the split/reassemble path (and the occasional
  // single-shard batch covers verbatim forwarding).
  const auto via_cluster = replay(router_->port(), reqs, 1, 5);
  const auto direct = replay(big.server->port(), reqs, 1, 5);
  expect_identical_frames(via_cluster, direct);
  EXPECT_GT(router_->batches(), 0u);
}

TEST_F(ClusterFixture, ScriptedIoFaultsAreRetriedAwayInvisibly) {
  bring_up(4, [](RouterConfig& r) {
    r.upstream.backoff = {.initial_ms = 1, .max_ms = 4};
  });
  // Each connect attempt dies with probability 0.34 and each send attempt
  // with 0.25, drawn from the plan's seeded per-rule streams. These sites
  // fire before any request byte reaches a shard, so a retry can never
  // double-feed a session — answers must stay byte-identical.
  fault::arm(fault::Plan{}
                 .fail_with_probability("cluster.upstream.connect", 0.34)
                 .fail_with_probability("cluster.upstream.send", 0.25));
  const auto reqs = spread_stream(router_->ring());
  const auto via_cluster = replay(router_->port(), reqs);
  fault::disarm();
  BigServer big;
  const auto direct = replay(big.server->port(), reqs);
  expect_identical_frames(via_cluster, direct);
  EXPECT_EQ(via_cluster.status_counts[static_cast<std::size_t>(
                net::Status::kRetryLater)],
            0u)
      << "injected faults leaked to a client";
  std::uint64_t retries = 0;
  for (std::size_t s = 0; s < router_->shard_count(); ++s) {
    retries += router_->upstream(s).counters().retries.load();
  }
#ifndef WEBPPM_FAULT_DISABLED
  EXPECT_GT(retries, 0u) << "plan armed but nothing was ever injected";
#endif
  // The registry mirrors the exact counters.
  const std::string text = registry_.prometheus_text();
  EXPECT_NE(text.find("webppm_cluster_retries_total"), std::string::npos);
}

TEST_F(ClusterFixture, DeadShardBreakerOpensAndRestartRecovers) {
  bring_up(2, [](RouterConfig& r) {
    r.upstream.max_attempts = 3;
    r.upstream.admit_wait_ms = 400;
    r.upstream.backoff = {.initial_ms = 1, .max_ms = 4};
    r.upstream.breaker_threshold = 3;
    r.probe_interval_ms = 0;  // exercise breaker half-open, not the prober
  });
  // Find a client living on shard 0 and kill that shard ungracefully.
  ClientId victim = 0;
  while (router_->shard_of(victim) != 0) ++victim;
  sup_->server(0)->shutdown();

  const std::vector<trace::Request> reqs{click(victim, 1, 0)};
  const auto degraded = replay(router_->port(), reqs, 1);
  ASSERT_TRUE(degraded.ok) << degraded.error;
  // The router degrades the answer instead of dropping the connection.
  EXPECT_EQ(degraded.status_counts[static_cast<std::size_t>(
                net::Status::kRetryLater)],
            1u);
  EXPECT_GE(router_->upstream(0).counters().give_ups.load(), 1u);
  EXPECT_GE(router_->upstream(0).counters().connect_failures.load(), 1u);
  EXPECT_TRUE(router_->upstream(0).breaker_open());

  // Supervisor restart: quiesce (no-op IO now), reload, readmit.
  std::string err;
  ASSERT_TRUE(sup_->restart_shard(0, &err)) << err;
  const auto recovered = replay(router_->port(), reqs, 1);
  ASSERT_TRUE(recovered.ok) << recovered.error;
  EXPECT_EQ(recovered.status_counts[static_cast<std::size_t>(
                net::Status::kRetryLater)],
            0u);
  EXPECT_FALSE(router_->upstream(0).breaker_open());
  EXPECT_GE(router_->upstream(0).counters().breaker_closes.load(), 1u);
}

TEST_F(ClusterFixture, RollingRestartUnderLiveReplayDropsNothing) {
  bring_up(4);
  const auto reqs = spread_stream(router_->ring(), /*per_shard=*/40);

  std::atomic<bool> replay_done{false};
  net::LoadClientResult res;
  std::thread replayer([&] {
    res = replay(router_->port(), reqs, 2);
    replay_done.store(true);
  });
  // Roll every shard while the replay is in flight.
  std::string err;
  ASSERT_TRUE(sup_->rolling_restart(&err)) << err;
  replayer.join();

  ASSERT_TRUE(res.ok) << res.error;
  EXPECT_EQ(res.responses, reqs.size());
  EXPECT_EQ(res.status_counts[static_cast<std::size_t>(
                net::Status::kRetryLater)],
            0u)
      << "a prediction was dropped to kRetryLater during the roll";
  EXPECT_EQ(router_->degraded_responses(), 0u);
  EXPECT_EQ(sup_->shard_restarts(), 4u);

  // Same generation on both sides of the restart: the full recorded run
  // must still match one big server (session contexts survived the roll).
  BigServer big;
  const auto direct = replay(big.server->port(), reqs, 2);
  expect_identical_frames(res, direct);
  EXPECT_TRUE(eventually([&] { return router_->version_skew() == 0; }));
}

TEST_F(ClusterFixture, VersionSkewTracksAStagedUpgrade) {
  bring_up(2);
  EXPECT_TRUE(eventually([&] {
    return router_->shard_health(0).reachable &&
           router_->shard_health(1).reachable;
  }));
  EXPECT_EQ(router_->version_skew(), 0u);

  // Ship v2 to every store, then restart only shard 0: the cluster is
  // mid-upgrade and the gauge must say so.
  std::string err;
  ASSERT_TRUE(sup_->distribute(*tiny_snapshot(/*version=*/2), &err)) << err;
  ASSERT_TRUE(sup_->restart_shard(0, &err)) << err;
  EXPECT_EQ(sup_->serving_version(0), 2u);
  EXPECT_EQ(sup_->serving_version(1), 1u);
  EXPECT_TRUE(eventually([&] { return router_->version_skew() == 1; }));

  ASSERT_TRUE(sup_->restart_shard(1, &err)) << err;
  EXPECT_TRUE(eventually([&] { return router_->version_skew() == 0; }));
  const std::string text = registry_.prometheus_text();
  EXPECT_NE(text.find("webppm_cluster_version_skew 0"), std::string::npos)
      << text;
}

TEST_F(ClusterFixture, AdminEndpointsReportClusterState) {
  bring_up(2);
  EXPECT_TRUE(eventually([&] {
    return router_->shard_health(0).reachable &&
           router_->shard_health(1).reachable;
  }));
  std::string err, status;
  const std::string hz = net::fetch_admin("127.0.0.1", router_->admin_port(),
                                          "/healthz", &err, &status);
  ASSERT_TRUE(err.empty()) << err;
  EXPECT_NE(status.find("200"), std::string::npos) << status;
  net::HealthzInfo info;
  ASSERT_TRUE(net::parse_healthz(hz, info)) << hz;
  EXPECT_EQ(info.state, "ok");

  const std::string cl = net::fetch_admin("127.0.0.1", router_->admin_port(),
                                          "/cluster", &err, &status);
  ASSERT_TRUE(err.empty()) << err;
  EXPECT_NE(cl.find("shard 0"), std::string::npos) << cl;
  EXPECT_NE(cl.find("shard 1"), std::string::npos) << cl;
  EXPECT_NE(cl.find("version_skew"), std::string::npos) << cl;

  const std::string mx = net::fetch_admin("127.0.0.1", router_->admin_port(),
                                          "/metrics", &err, &status);
  ASSERT_TRUE(err.empty()) << err;
  EXPECT_NE(mx.find("webppm_cluster_requests_total"), std::string::npos);
  EXPECT_NE(mx.find("webppm_cluster_shards_serving 2"), std::string::npos)
      << mx;
}

TEST_F(ClusterFixture, TricklingAdminClientCannotStallAcceptsOrShutdown) {
  bring_up(2);
  // Admin requests are read on the acceptor thread. This client sends one
  // byte every 200 ms and never finishes a request; each connection gives
  // up after 20 bytes (4 s) and a new one starts, so some trickle is
  // always in progress. The router must drop each after its one-second
  // admin deadline: new data connections are answered, and shutdown()
  // returns, well inside 2.5 s.
  std::atomic<bool> stop{false};
  std::thread trickler([&] {
    while (!stop.load()) {
      const net::OwnedFd fd = connect_loopback(router_->admin_port());
      if (!fd.valid()) {
        std::this_thread::sleep_for(20ms);
        continue;
      }
      const char byte = 'G';
      for (int i = 0; i < 20 && !stop.load() &&
                      ::send(fd.get(), &byte, 1, MSG_NOSIGNAL) == 1;
           ++i) {
        std::this_thread::sleep_for(200ms);
      }
    }
  });
  std::this_thread::sleep_for(300ms);  // the acceptor is inside a trickle

  const auto reqs = spread_stream(router_->ring(), 1);
  const auto t0 = std::chrono::steady_clock::now();
  const auto res = replay(router_->port(),
                          std::span<const trace::Request>(reqs).first(1), 1);
  EXPECT_LT(std::chrono::steady_clock::now() - t0, 2500ms);
  EXPECT_TRUE(res.ok) << res.error;
  EXPECT_EQ(router_->responses(), 1u);

  const auto t1 = std::chrono::steady_clock::now();
  router_->shutdown();
  EXPECT_LT(std::chrono::steady_clock::now() - t1, 2500ms);
  stop.store(true);
  trickler.join();
}

TEST_F(ClusterFixture, SilentAndHalfSentAdminClientsDelayNoOtherConnection) {
  bring_up(2);
  // One admin client sends nothing, another stops mid-request. While both
  // stay open, a fresh data connection and a fresh scrape are each
  // answered well inside the admin deadline.
  const net::OwnedFd silent = connect_loopback(router_->admin_port());
  const net::OwnedFd partial = connect_loopback(router_->admin_port());
  ASSERT_TRUE(silent.valid());
  ASSERT_TRUE(partial.valid());
  const std::string head = "GET /healthz HTTP/1.0\r\n";
  ASSERT_EQ(::send(partial.get(), head.data(), head.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(head.size()));
  std::this_thread::sleep_for(50ms);  // both are accepted by now

  const auto reqs = spread_stream(router_->ring(), 1);
  const auto t0 = std::chrono::steady_clock::now();
  const auto res = replay(router_->port(),
                          std::span<const trace::Request>(reqs).first(1), 1);
  EXPECT_LT(std::chrono::steady_clock::now() - t0, 500ms);
  EXPECT_TRUE(res.ok) << res.error;

  std::string err, status;
  const auto t1 = std::chrono::steady_clock::now();
  net::fetch_admin("127.0.0.1", router_->admin_port(), "/healthz", &err,
                   &status);
  EXPECT_LT(std::chrono::steady_clock::now() - t1, 500ms);
  EXPECT_TRUE(err.empty()) << err;
  EXPECT_EQ(status.rfind("HTTP/1.0 ", 0), 0u) << status;

  // Both stalled clients are closed once their deadline is spent.
  std::uint8_t byte = 0;
  EXPECT_EQ(::read(silent.get(), &byte, 1), 0);
  EXPECT_EQ(::read(partial.get(), &byte, 1), 0);
}

TEST_F(ClusterFixture, ConnectionCapShedsWithRetryLater) {
  bring_up(2, [](RouterConfig& r) { r.max_connections = 1; });
  // The routed twin of the PredictServer test of the same name.
  const net::OwnedFd first = connect_loopback(router_->port());
  ASSERT_TRUE(first.valid());
  std::vector<std::uint8_t> query, frame;
  net::encode_request(net::LoadClient::to_wire(click(1, 1, 0)), query);
  std::string err;
  // Prove the first connection is admitted before the second arrives.
  ASSERT_TRUE(net::send_all(first.get(), query.data(), query.size(), &err))
      << err;
  ASSERT_TRUE(net::read_frame(first.get(), net::kDefaultMaxFrameBytes, frame,
                              &err))
      << err;

  // The second reads one v1 kRetryLater frame, labelled with the router's
  // version 0, and then EOF.
  const net::OwnedFd second = connect_loopback(router_->port());
  ASSERT_TRUE(second.valid());
  std::vector<std::uint8_t> got;
  std::uint8_t buf[256];
  for (ssize_t n; (n = ::read(second.get(), buf, sizeof buf)) != 0;) {
    if (n < 0 && errno == EINTR) continue;
    ASSERT_GT(n, 0) << "no close within 5 s";
    got.insert(got.end(), buf, buf + n);
  }
  net::WireResponse retry_later;
  retry_later.status = net::Status::kRetryLater;
  std::vector<std::uint8_t> want;
  net::encode_response(retry_later, want);
  EXPECT_EQ(got, want);
  EXPECT_TRUE(eventually([&] { return router_->shed() >= 1; }));
  EXPECT_EQ(router_->shed(), 1u);

  // The admitted connection keeps answering.
  ASSERT_TRUE(net::send_all(first.get(), query.data(), query.size(), &err))
      << err;
  ASSERT_TRUE(net::read_frame(first.get(), net::kDefaultMaxFrameBytes, frame,
                              &err))
      << err;
  EXPECT_EQ(router_->responses(), 2u);
}

TEST_F(ClusterFixture, ZeroConnectionCapIsUnbounded) {
  // As on PredictServer, max_connections = 0 sheds nothing.
  bring_up(2, [](RouterConfig& r) { r.max_connections = 0; });
  const auto reqs = spread_stream(router_->ring());
  const auto res = replay(router_->port(), reqs);
  ASSERT_TRUE(res.ok) << res.error;
  EXPECT_EQ(res.status_counts[static_cast<std::size_t>(
                net::Status::kRetryLater)],
            0u);
  EXPECT_EQ(router_->shed(), 0u);
  EXPECT_EQ(router_->accepted(), 2u);
}

TEST_F(ClusterFixture, AcceptFaultDropsOneRoutedConnectionAndTheNextIsServed) {
#ifdef WEBPPM_FAULT_DISABLED
  GTEST_SKIP() << "fault layer compiled out";
#endif
  // No prober: the router's accept below is the first accept anywhere in
  // the process once the plan is armed (shards accept through the same
  // site).
  bring_up(2, [](RouterConfig& r) { r.probe_interval_ms = 0; });
  BigServer big;
  fault::arm(fault::Plan{}.fail_nth("net.accept", 0));
  const net::OwnedFd dropped = connect_loopback(router_->port());
  ASSERT_TRUE(dropped.valid());
  std::uint8_t byte = 0;
  EXPECT_EQ(::read(dropped.get(), &byte, 1), 0) << "dropped fd not closed";
  EXPECT_TRUE(eventually([&] { return router_->accept_failures() == 1; }));

  const auto reqs = spread_stream(router_->ring());
  const auto via_cluster = replay(router_->port(), reqs, 1);
  fault::disarm();
  expect_identical_frames(via_cluster, replay(big.server->port(), reqs, 1));
  EXPECT_EQ(router_->accept_failures(), 1u);
  EXPECT_EQ(router_->accepted(), 1u);
}

TEST_F(ClusterFixture, ProbeFaultsLeaveBreakersAndRoutingAlone) {
#ifdef WEBPPM_FAULT_DISABLED
  GTEST_SKIP() << "fault layer compiled out";
#endif
  bring_up(2);
  // Every probe is lost: the shards read as unreachable, but a lost probe
  // never opens a breaker, so routing carries on untouched.
  fault::arm(fault::Plan{}.fail("cluster.probe"));
  EXPECT_TRUE(eventually([&] { return router_->probe_failures() >= 4; }));
  EXPECT_TRUE(eventually([&] {
    return !router_->shard_health(0).reachable &&
           !router_->shard_health(1).reachable;
  }));
  const auto reqs = spread_stream(router_->ring());
  const auto via_cluster = replay(router_->port(), reqs);
  fault::disarm();
  BigServer big;
  expect_identical_frames(via_cluster, replay(big.server->port(), reqs));
  EXPECT_EQ(router_->degraded_responses(), 0u);
  for (std::size_t s = 0; s < router_->shard_count(); ++s) {
    EXPECT_FALSE(router_->upstream(s).breaker_open()) << "shard " << s;
    EXPECT_EQ(router_->upstream(s).counters().breaker_opens.load(), 0u)
        << "shard " << s;
  }
}

TEST_F(ClusterFixture, DistributeVerifiesEveryShardStore) {
  SupervisorConfig scfg;
  scfg.store_dir = dir_;
  scfg.shards = 3;
  sup_ = std::make_unique<ShardSupervisor>(scfg);
  std::string err;
  ASSERT_TRUE(sup_->distribute(*tiny_snapshot(), &err)) << err;
  for (std::size_t s = 0; s < 3; ++s) {
    EXPECT_TRUE(fs::exists(fs::path(dir_) / ("shard-" + std::to_string(s))));
  }
  // A store whose writes all fail must fail distribute() with the shard
  // named — never report a version as shipped that no shard can load.
#ifndef WEBPPM_FAULT_DISABLED
  fault::arm(fault::Plan{}.fail("serve.snapshot.write"));
  EXPECT_FALSE(sup_->distribute(*tiny_snapshot(2), &err));
  EXPECT_NE(err.find("shard 0"), std::string::npos) << err;
  fault::disarm();
#endif
}

TEST_F(ClusterFixture, PerShardTrainersLearnFromOwnClientsAndPublish) {
  bring_up(2);
  learn::OnlineTrainerConfig tcfg;
  tcfg.policy.day_boundaries = false;  // publish only on demand below
  ASSERT_TRUE(sup_->start_trainers(tcfg));
  EXPECT_FALSE(sup_->start_trainers(tcfg)) << "second start must refuse";
  ASSERT_NE(sup_->trainer(0), nullptr);
  ASSERT_NE(sup_->trainer(1), nullptr);
  EXPECT_EQ(sup_->trainer(2), nullptr) << "out-of-range shard";

  const auto reqs = spread_stream(router_->ring());
  std::vector<std::uint64_t> expect(2, 0);
  for (const auto& r : reqs) ++expect[router_->ring().shard_of(r.client)];
  ASSERT_GT(expect[0], 0u);
  ASSERT_GT(expect[1], 0u);
  const auto res = replay(router_->port(), reqs);
  ASSERT_TRUE(res.ok) << res.error;

  // Each shard's tap sees exactly the clients the ring routes there; the
  // trainer threads drain asynchronously.
  EXPECT_TRUE(eventually([&] {
    return sup_->trainer(0)->observations() == expect[0] &&
           sup_->trainer(1)->observations() == expect[1];
  }))
      << sup_->trainer(0)->observations() << "+"
      << sup_->trainer(1)->observations() << " observed, want " << expect[0]
      << "+" << expect[1];
  EXPECT_EQ(sup_->trainer(0)->dropped(), 0u);
  EXPECT_EQ(sup_->trainer(1)->dropped(), 0u);

  // On-demand publish bumps each shard past the distributed version 1,
  // through the shard's own store (supervisor overrides cfg.store).
  for (std::size_t s = 0; s < 2; ++s) {
    auto* tr = sup_->trainer(s);
    ASSERT_TRUE(tr->publish_now()) << "shard " << s;
    EXPECT_GT(tr->last_published_version(), 1u) << "shard " << s;
    EXPECT_EQ(sup_->serving_version(s), tr->last_published_version());
  }

  // A restart reloads the shard store's newest generation — which is now
  // the trainer's publish, not the original distribute() — and the
  // trainer survives it (the ModelServer it feeds is the kept piece).
  std::string err;
  const std::uint64_t v0 = sup_->trainer(0)->last_published_version();
  ASSERT_TRUE(sup_->restart_shard(0, &err)) << err;
  EXPECT_EQ(sup_->serving_version(0), v0);
  ASSERT_NE(sup_->trainer(0), nullptr);

  sup_->stop_trainers();
  EXPECT_EQ(sup_->trainer(0), nullptr);
  sup_->stop_trainers();  // idempotent
}

TEST_F(ClusterFixture, RollingUpgradeMatchesOneBigServerPublishingAtOnce) {
  // PB-PPM trained on days 1-2 of a nasa-like trace, serving day 3.
  const auto trace =
      workload::generate_page_trace(workload::nasa_like(3, 0.5));
  auto tm = core::train_model(core::ModelSpec::pb_model(), trace, 0, 1);
  const auto v1 = serve::make_snapshot(std::move(tm.predictor),
                                       std::move(tm.popularity), 1);
  const auto day = trace.day_slice(2);
  ASSERT_GE(day.size(), 4000u);
  bring_up(4, {}, *v1);
  BigServer big(v1);
  expect_identical_frames(replay(router_->port(), day.first(2000)),
                          replay(big.server->port(), day.first(2000)));

  // Version 2 is the same model re-wrapped (what a retrain that converged
  // to the same tree would publish): only the version stamp moves.
  const auto payload = std::make_shared<const std::string>(
      serve::serialize_snapshot_frozen(*v1));
  const auto v2 = serve::open_frozen_snapshot(payload, *payload, 2).snapshot;
  ASSERT_NE(v2, nullptr);
  std::string err;
  ASSERT_TRUE(sup_->distribute(*v2, &err)) << err;
  ASSERT_TRUE(sup_->rolling_restart(&err)) << err;
  big.model.publish(v2);  // at the same stream boundary

  // Session contexts survived every restart: the next slice still matches.
  const auto via_cluster = replay(router_->port(), day.subspan(2000, 2000));
  expect_identical_frames(via_cluster,
                          replay(big.server->port(), day.subspan(2000, 2000)));
  EXPECT_EQ(via_cluster.status_counts[static_cast<std::size_t>(
                net::Status::kRetryLater)],
            0u);
  EXPECT_TRUE(eventually([&] { return router_->version_skew() == 0; }));
}

}  // namespace
}  // namespace webppm::cluster
