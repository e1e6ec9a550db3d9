// Loopback integration suite for net::PredictServer (ISSUE 5): real
// sockets on 127.0.0.1 — connect/predict/drain/shutdown, slow-client shed,
// idle timeout, connection-cap shed with a retryable status, protocol
// errors answered then closed, admin /metrics + /healthz, and the golden
// exposition-identity test (MetricsReporter sink vs GET /metrics body).
// Labelled "net" so the asan/tsan net presets target exactly this binary.
#include "net/server.hpp"

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <functional>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "fault/fault.hpp"
#include "learn/trainer.hpp"
#include "net/load_client.hpp"
#include "obs/metrics.hpp"
#include "ppm/standard_ppm.hpp"
#include "serve/metrics_reporter.hpp"
#include "session/online.hpp"

namespace webppm::net {
namespace {

using namespace std::chrono_literals;

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

std::shared_ptr<const serve::Snapshot> tiny_snapshot(
    std::uint64_t version = 1) {
  auto m = std::make_unique<ppm::StandardPpm>();
  const std::vector<session::Session> train{
      make_session({1, 2, 3}), make_session({1, 2, 3}),
      make_session({1, 2, 4})};
  m->train(train);
  return serve::make_snapshot(std::move(m), popularity::PopularityTable{},
                              version);
}

/// A short two-client request stream hitting the trained pattern.
std::vector<trace::Request> small_stream() {
  std::vector<trace::Request> reqs;
  for (ClientId c = 0; c < 4; ++c) {
    const TimeSec base = static_cast<TimeSec>(c) * 100;
    reqs.push_back(click(c, 1, base));
    reqs.push_back(click(c, 2, base + 1));
    reqs.push_back(click(c, 3, base + 2));
  }
  return reqs;
}

/// Raw blocking test socket (the LoadClient is itself under test elsewhere;
/// shed/timeout/garbage cases need lower-level control than it exposes).
struct RawConn {
  int fd = -1;
  ~RawConn() {
    if (fd >= 0) ::close(fd);
  }
  bool connect_to(std::uint16_t port, int rcvbuf = 0) {
    fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) return false;
    if (rcvbuf > 0) {
      ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof rcvbuf);
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    return ::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                     sizeof addr) == 0;
  }
  bool send_all(const std::vector<std::uint8_t>& bytes) {
    std::size_t done = 0;
    while (done < bytes.size()) {
      // MSG_NOSIGNAL: the shed/timeout tests write into sockets the server
      // closes on purpose; that must be an error return, not SIGPIPE.
      const ssize_t n = ::send(fd, bytes.data() + done, bytes.size() - done,
                               MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) continue;
        return false;
      }
      done += static_cast<std::size_t>(n);
    }
    return true;
  }
  /// Reads one framed response; false on EOF/error.
  bool read_response(WireResponse& out) {
    std::uint8_t header[kFrameHeaderBytes];
    if (!read_exact(header, sizeof header)) return false;
    const std::uint32_t len =
        static_cast<std::uint32_t>(header[0]) |
        (static_cast<std::uint32_t>(header[1]) << 8) |
        (static_cast<std::uint32_t>(header[2]) << 16) |
        (static_cast<std::uint32_t>(header[3]) << 24);
    if (len == 0 || len > kDefaultMaxFrameBytes) return false;
    std::vector<std::uint8_t> body(len);
    if (!read_exact(body.data(), body.size())) return false;
    return decode_response(body, out).ok();
  }
  /// Reads one framed v2 batch response; false on EOF/error/decode failure.
  bool read_batch_response(std::vector<WireResponse>& out) {
    std::uint8_t header[kFrameHeaderBytes];
    if (!read_exact(header, sizeof header)) return false;
    const std::uint32_t len =
        static_cast<std::uint32_t>(header[0]) |
        (static_cast<std::uint32_t>(header[1]) << 8) |
        (static_cast<std::uint32_t>(header[2]) << 16) |
        (static_cast<std::uint32_t>(header[3]) << 24);
    if (len == 0 || len > kDefaultMaxBatchFrameBytes) return false;
    std::vector<std::uint8_t> body(len);
    if (!read_exact(body.data(), body.size())) return false;
    return decode_batch_response(body, out).ok();
  }
  /// True when the peer has closed (clean EOF).
  bool read_eof() {
    std::uint8_t b;
    while (true) {
      const ssize_t n = ::read(fd, &b, 1);
      if (n == 0) return true;
      if (n < 0 && errno == EINTR) continue;
      if (n < 0) return false;
      // Unexpected extra bytes still count as "not EOF yet"; keep reading
      // until the server's close lands.
    }
  }

 private:
  bool read_exact(std::uint8_t* data, std::size_t len) {
    std::size_t done = 0;
    while (done < len) {
      const ssize_t n = ::read(fd, data + done, len - done);
      if (n == 0) return false;
      if (n < 0) {
        if (errno == EINTR) continue;
        return false;
      }
      done += static_cast<std::size_t>(n);
    }
    return true;
  }
};

/// Polls `cond` until true or the deadline passes (single-core friendly).
bool eventually(const std::function<bool()>& cond,
                std::chrono::milliseconds deadline = 5s) {
  const auto until = std::chrono::steady_clock::now() + deadline;
  while (std::chrono::steady_clock::now() < until) {
    if (cond()) return true;
    std::this_thread::sleep_for(2ms);
  }
  return cond();
}

TEST(NetLoopback, ConnectPredictDrainShutdown) {
  serve::ModelServer model;
  model.publish(tiny_snapshot(3));

  NetServerConfig cfg;
  cfg.workers = 2;
  PredictServer server(model, cfg);
  std::string err;
  ASSERT_TRUE(server.start(&err)) << err;
  ASSERT_NE(server.port(), 0);

  const auto reqs = small_stream();
  LoadClientConfig lc;
  lc.port = server.port();
  lc.connections = 2;
  const auto res = LoadClient(lc).run(reqs);
  ASSERT_TRUE(res.ok) << res.error;
  EXPECT_EQ(res.requests, reqs.size());
  EXPECT_EQ(res.responses, reqs.size());
  EXPECT_EQ(res.status_counts[static_cast<std::size_t>(Status::kOk)],
            reqs.size());

  EXPECT_TRUE(eventually([&] { return server.responses() == reqs.size(); }));
  EXPECT_EQ(server.requests(), reqs.size());
  EXPECT_EQ(server.protocol_errors(), 0u);

  server.shutdown();
  EXPECT_FALSE(server.running());
  EXPECT_EQ(server.active_connections(), 0u);
  EXPECT_EQ(server.accepted(), server.closed());
}

TEST(NetLoopback, AnswersMatchInProcessModelServerByteForByte) {
  serve::ModelServer model;
  model.publish(tiny_snapshot(7));
  NetServerConfig cfg;
  PredictServer server(model, cfg);
  ASSERT_TRUE(server.start());

  const auto reqs = small_stream();
  const auto shards = LoadClient::shard(reqs, 2);

  LoadClientConfig lc;
  lc.port = server.port();
  lc.connections = 2;
  lc.record_responses = true;
  const auto res = LoadClient(lc).run_sharded(shards);
  ASSERT_TRUE(res.ok) << res.error;

  // Replay the same shards against a fresh in-process ModelServer with the
  // same snapshot, through the same response builder + encoder the server
  // uses: every frame must be byte-identical.
  serve::ModelServer local;
  local.publish(tiny_snapshot(7));
  ASSERT_EQ(res.frames.size(), shards.size());
  for (std::size_t s = 0; s < shards.size(); ++s) {
    ASSERT_EQ(res.frames[s].size(), shards[s].size());
    for (std::size_t i = 0; i < shards[s].size(); ++i) {
      std::vector<ppm::Prediction> preds;
      const auto qr = local.query_ex(to_trace_request(shards[s][i]), preds);
      std::vector<std::uint8_t> expected;
      encode_response(make_wire_response(qr, shards[s][i], local.version(),
                                         std::move(preds)),
                      expected);
      EXPECT_EQ(res.frames[s][i], expected)
          << "shard " << s << " response " << i;
    }
  }
}

/// The newest version a publisher has finished publishing.
class Landed {
 public:
  void set(std::uint64_t version) {
    {
      std::lock_guard lock(mu_);
      version_ = version;
    }
    cv_.notify_all();
  }
  /// Blocks until a version newer than `version` has been published (5 s
  /// at most, rather than hang a test).
  void await_newer_than(std::uint64_t version) {
    std::unique_lock lock(mu_);
    cv_.wait_for(lock, 5s, [&] { return version_ > version; });
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::uint64_t version_ = 0;
};

/// A model whose one prediction names its snapshot: url == the version it
/// was published as. predict() returns only once a newer version has been
/// published, so every query has a publish land while it is in flight.
class VersionEchoModel final : public ppm::Predictor {
 public:
  VersionEchoModel(UrlId version, Landed& landed)
      : version_(version), landed_(landed) {}
  void predict(std::span<const UrlId>, std::vector<ppm::Prediction>& out,
               ppm::UsageScratch*) const override {
    landed_.await_newer_than(version_);
    out.assign(1, ppm::Prediction{version_, 1.0f});
  }
  std::size_t node_count() const override { return 1; }
  std::size_t storage_bytes() const override { return sizeof(*this); }
  ppm::PredictionTree::PathUsage path_usage(
      const ppm::UsageScratch&) const override {
    return {};
  }
  void apply_usage(const ppm::UsageScratch&) override {}
  ppm::PredictionTree::PathUsage path_usage() const override { return {}; }
  void clear_usage() override {}
  std::string_view name() const override { return "version-echo"; }

 private:
  UrlId version_;
  Landed& landed_;
};

std::shared_ptr<const serve::Snapshot> echo_snapshot(std::uint64_t version,
                                                     Landed& landed) {
  return serve::make_snapshot(
      std::make_unique<VersionEchoModel>(static_cast<UrlId>(version), landed),
      popularity::PopularityTable{}, version);
}

TEST(NetLoopback, V1AnswerIsLabelledWithTheSnapshotThatAnswered) {
  // Snapshots with different answers are published in a tight loop while
  // v1 queries run, and every query has a publish land mid-flight: each
  // response's predictions must come from the version it is labelled
  // with, never from the one before that publish.
  Landed landed;
  serve::ModelServer model;
  model.publish(echo_snapshot(1, landed));
  PredictServer server(model, {});
  ASSERT_TRUE(server.start());

  std::atomic<bool> stop{false};
  std::thread publisher([&] {
    for (std::uint64_t v = 2; !stop.load(); ++v) {
      model.publish(echo_snapshot(v, landed));
      landed.set(v);
      std::this_thread::yield();
    }
  });

  RawConn conn;
  ASSERT_TRUE(conn.connect_to(server.port()));
  constexpr int kQueries = 300;
  int mislabelled = 0;
  std::uint64_t last_version = 0;
  for (int i = 0; i < kQueries; ++i) {
    std::vector<std::uint8_t> frame;
    encode_request(
        LoadClient::to_wire(click(1, 1, static_cast<TimeSec>(i))), frame);
    ASSERT_TRUE(conn.send_all(frame));
    WireResponse resp;
    ASSERT_TRUE(conn.read_response(resp));
    ASSERT_EQ(resp.status, Status::kOk);
    ASSERT_EQ(resp.predictions.size(), 1u);
    if (resp.predictions[0].url != resp.snapshot_version) ++mislabelled;
    EXPECT_GE(resp.snapshot_version, last_version);
    last_version = resp.snapshot_version;
  }
  stop.store(true);
  publisher.join();
  EXPECT_EQ(mislabelled, 0) << "of " << kQueries << " answers";
}

TEST(NetLoopback, RunningTrainerSurvivesUrlIdsPastItsBound) {
  // The serve tap hands the trainer whatever URL id a client sent; ids the
  // trainer cannot count are dropped there, and serving never notices.
  serve::ModelServer model;
  model.publish(tiny_snapshot(1));
  learn::OnlineTrainerConfig tc;
  tc.policy.day_boundaries = false;
  tc.poll_interval_ms = 1;
  learn::OnlineTrainer trainer(model, tc);
  trainer.attach();
  ASSERT_TRUE(trainer.start());
  PredictServer server(model, {});
  ASSERT_TRUE(server.start());

  RawConn conn;
  ASSERT_TRUE(conn.connect_to(server.port()));
  const auto ask = [&conn](UrlId url, TimeSec t) {
    std::vector<std::uint8_t> frame;
    encode_request(LoadClient::to_wire(click(1, url, t)), frame);
    WireResponse resp;
    return conn.send_all(frame) && conn.read_response(resp) &&
           resp.status == Status::kOk;
  };
  EXPECT_TRUE(ask(0xFFFFFFFFu, 10));
  EXPECT_TRUE(eventually([&] { return trainer.rejected() == 1u; }));
  EXPECT_TRUE(ask(1, 11));
  EXPECT_TRUE(ask(2, 12));
  EXPECT_TRUE(eventually([&] { return trainer.observations() == 2u; }));
  EXPECT_TRUE(trainer.publish_now());
  EXPECT_TRUE(ask(3, 13));
  EXPECT_EQ(trainer.rejected(), 1u);
}

TEST(NetLoopback, NoModelAnswersNoModelStatus) {
  serve::ModelServer model;  // nothing published
  PredictServer server(model, {});
  ASSERT_TRUE(server.start());

  RawConn conn;
  ASSERT_TRUE(conn.connect_to(server.port()));
  std::vector<std::uint8_t> frame;
  encode_request(LoadClient::to_wire(click(1, 1, 0)), frame);
  ASSERT_TRUE(conn.send_all(frame));
  WireResponse resp;
  ASSERT_TRUE(conn.read_response(resp));
  EXPECT_EQ(resp.status, Status::kNoModel);
  EXPECT_EQ(resp.snapshot_version, 0u);
  EXPECT_TRUE(resp.predictions.empty());
}

TEST(NetLoopback, GarbageFrameGetsBadRequestThenClose) {
  serve::ModelServer model;
  model.publish(tiny_snapshot());
  PredictServer server(model, {});
  ASSERT_TRUE(server.start());

  RawConn conn;
  ASSERT_TRUE(conn.connect_to(server.port()));
  // A zero-length frame header — invalid from the header alone.
  ASSERT_TRUE(conn.send_all({0, 0, 0, 0}));
  WireResponse resp;
  ASSERT_TRUE(conn.read_response(resp));
  EXPECT_EQ(resp.status, Status::kBadRequest);
  EXPECT_TRUE(conn.read_eof());
  EXPECT_TRUE(eventually([&] { return server.protocol_errors() >= 1; }));
  EXPECT_TRUE(eventually(
      [&] { return server.closed() == server.accepted(); }));
}

TEST(NetLoopback, V1FrameWithUnknownFlagBitGetsBadRequestThenClose) {
  serve::ModelServer model;
  model.publish(tiny_snapshot(5));
  PredictServer server(model, {});
  ASSERT_TRUE(server.start());

  RawConn conn;
  ASSERT_TRUE(conn.connect_to(server.port()));
  const timeval five_s{5, 0};  // a server that never closes fails, not hangs
  ::setsockopt(conn.fd, SOL_SOCKET, SO_RCVTIMEO, &five_s, sizeof five_s);
  // A v1 frame with an undefined flag bit, then a valid v1 frame in the
  // same write. Unlike a v2 batch entry (BadSubEntryDegradesItsSlotOnly),
  // the bad v1 frame rejects the whole connection: one kBadRequest, then
  // close — the valid frame behind it is never answered.
  std::vector<std::uint8_t> frames;
  WireRequest bad = LoadClient::to_wire(click(1, 1, 0));
  bad.flags = 0x80;
  encode_request(bad, frames);
  encode_request(LoadClient::to_wire(click(1, 2, 1)), frames);
  ASSERT_TRUE(conn.send_all(frames));

  std::vector<std::uint8_t> got;  // everything written before the close
  std::uint8_t buf[256];
  for (ssize_t n; (n = ::read(conn.fd, buf, sizeof buf)) != 0;) {
    if (n < 0 && errno == EINTR) continue;
    ASSERT_GT(n, 0) << "no close within 5 s";
    got.insert(got.end(), buf, buf + n);
  }
  WireResponse bad_request;
  bad_request.status = Status::kBadRequest;
  bad_request.snapshot_version = 5;
  std::vector<std::uint8_t> want;
  encode_response(bad_request, want);
  EXPECT_EQ(got, want);

  EXPECT_TRUE(eventually([&] { return server.protocol_errors() == 1; }));
  EXPECT_TRUE(eventually(
      [&] { return server.closed() == server.accepted(); }));
  EXPECT_EQ(server.requests(), 0u);
  EXPECT_EQ(server.responses(), 0u);
  EXPECT_EQ(server.batch_entry_errors(), 0u);
  EXPECT_EQ(model.query_count(), 0u);
}

TEST(NetLoopback, OversizedClaimIsRejectedWithoutReadingABody) {
  serve::ModelServer model;
  model.publish(tiny_snapshot());
  PredictServer server(model, {});
  ASSERT_TRUE(server.start());

  RawConn conn;
  ASSERT_TRUE(conn.connect_to(server.port()));
  // Header claims ~4 GiB; no body follows. The server must answer
  // kBadRequest from the header alone instead of waiting for (or
  // allocating) the claimed body.
  ASSERT_TRUE(conn.send_all({0xff, 0xff, 0xff, 0xff}));
  WireResponse resp;
  ASSERT_TRUE(conn.read_response(resp));
  EXPECT_EQ(resp.status, Status::kBadRequest);
  EXPECT_TRUE(conn.read_eof());
}

TEST(NetLoopback, ConnectionCapShedsWithRetryLater) {
  serve::ModelServer model;
  model.publish(tiny_snapshot());
  NetServerConfig cfg;
  cfg.max_connections = 1;
  PredictServer server(model, cfg);
  ASSERT_TRUE(server.start());

  RawConn first;
  ASSERT_TRUE(first.connect_to(server.port()));
  // Prove the first connection is registered before the second arrives.
  std::vector<std::uint8_t> frame;
  encode_request(LoadClient::to_wire(click(1, 1, 0)), frame);
  ASSERT_TRUE(first.send_all(frame));
  WireResponse resp;
  ASSERT_TRUE(first.read_response(resp));

  RawConn second;
  ASSERT_TRUE(second.connect_to(server.port()));
  WireResponse shed_resp;
  ASSERT_TRUE(second.read_response(shed_resp));
  EXPECT_EQ(shed_resp.status, Status::kRetryLater);
  EXPECT_TRUE(second.read_eof());
  EXPECT_TRUE(eventually([&] { return server.shed() >= 1; }));

  // The admitted connection keeps working after the shed.
  ASSERT_TRUE(first.send_all(frame));
  ASSERT_TRUE(first.read_response(resp));
}

TEST(NetLoopback, SlowClientIsDisconnected) {
  serve::ModelServer model;
  model.publish(tiny_snapshot());
  NetServerConfig cfg;
  cfg.max_write_queue_bytes = 2 * 1024;
  cfg.sndbuf_bytes = 4 * 1024;
  PredictServer server(model, cfg);
  ASSERT_TRUE(server.start());

  RawConn conn;
  // Tiny buffers both sides: the server hits EAGAIN quickly, responses
  // pile up in its per-connection queue past the cap, and the slow client
  // is shed.
  ASSERT_TRUE(conn.connect_to(server.port(), /*rcvbuf=*/2048));
  std::vector<std::uint8_t> burst;
  for (int i = 0; i < 4000; ++i) {
    encode_request(LoadClient::to_wire(click(1, 1, static_cast<TimeSec>(i))),
                   burst);
  }
  // The client pipelines thousands of requests and never reads a byte.
  // send_all may itself fail once the server disconnects us mid-burst —
  // both outcomes are fine, the assertion is the server-side counter.
  (void)conn.send_all(burst);
  EXPECT_TRUE(eventually(
      [&] { return server.slow_client_disconnects() >= 1; }, 10s));
  EXPECT_TRUE(eventually(
      [&] { return server.closed() == server.accepted(); }, 10s));
}

TEST(NetLoopback, IdleConnectionTimesOut) {
  serve::ModelServer model;
  model.publish(tiny_snapshot());
  NetServerConfig cfg;
  cfg.idle_timeout_ms = 60;
  PredictServer server(model, cfg);
  ASSERT_TRUE(server.start());

  RawConn conn;
  ASSERT_TRUE(conn.connect_to(server.port()));
  EXPECT_TRUE(eventually([&] { return server.idle_timeouts() >= 1; }, 10s));
  EXPECT_TRUE(conn.read_eof());
  EXPECT_TRUE(eventually(
      [&] { return server.closed() == server.accepted(); }));
}

TEST(NetLoopback, ShortReadWriteFaultsPreserveAnswers) {
#ifdef WEBPPM_FAULT_DISABLED
  GTEST_SKIP() << "fault layer compiled out";
#endif
  serve::ModelServer model;
  model.publish(tiny_snapshot(5));
  NetServerConfig cfg;
  PredictServer server(model, cfg);
  ASSERT_TRUE(server.start());

  // Every read and write on the data path is shortened to one byte: the
  // framing must reassemble requests and deliver responses regardless.
  fault::arm(fault::Plan{}
                 .fail("net.conn.read")
                 .fail("net.conn.write"));
  const auto reqs = small_stream();
  LoadClientConfig lc;
  lc.port = server.port();
  const auto res = LoadClient(lc).run(reqs);
  fault::disarm();

  ASSERT_TRUE(res.ok) << res.error;
  EXPECT_EQ(res.responses, reqs.size());
  EXPECT_EQ(res.status_counts[static_cast<std::size_t>(Status::kOk)],
            reqs.size());
  EXPECT_GE(server.short_reads(), 1u);
  EXPECT_GE(server.short_writes(), 1u);
}

TEST(NetLoopback, AdminHealthzTracksModelState) {
  serve::ModelServer model;
  PredictServer server(model, {});
  ASSERT_TRUE(server.start());
  ASSERT_NE(server.admin_port(), 0);

  std::string err, status_line;
  std::string body = fetch_admin("127.0.0.1", server.admin_port(), "/healthz",
                                 &err, &status_line);
  ASSERT_TRUE(err.empty()) << err;
  EXPECT_NE(status_line.find("503"), std::string::npos) << status_line;
  HealthzInfo hz;
  ASSERT_TRUE(parse_healthz(body, hz)) << body;
  EXPECT_EQ(hz.state, "no-model");
  EXPECT_EQ(hz.version, 0u);
  EXPECT_FALSE(hz.serving());

  model.publish(tiny_snapshot());
  body = fetch_admin("127.0.0.1", server.admin_port(), "/healthz", &err,
                     &status_line);
  ASSERT_TRUE(err.empty()) << err;
  EXPECT_NE(status_line.find("200"), std::string::npos) << status_line;
  ASSERT_TRUE(parse_healthz(body, hz)) << body;
  EXPECT_EQ(hz.state, "ok");
  EXPECT_EQ(hz.version, 1u);
  EXPECT_FALSE(hz.degraded);
  EXPECT_TRUE(hz.serving());

  // Degraded (fallback-only) snapshot: still 200 — serving, not healthy-
  // model, mirroring the serve layer's degradation contract.
  model.publish(serve::make_degraded_snapshot(popularity::PopularityTable{},
                                              /*version=*/2));
  body = fetch_admin("127.0.0.1", server.admin_port(), "/healthz", &err,
                     &status_line);
  ASSERT_TRUE(err.empty()) << err;
  EXPECT_NE(status_line.find("200"), std::string::npos) << status_line;
  ASSERT_TRUE(parse_healthz(body, hz)) << body;
  EXPECT_EQ(hz.state, "degraded");
  EXPECT_EQ(hz.version, 2u);
  EXPECT_TRUE(hz.degraded);
  EXPECT_TRUE(hz.serving());

  body = fetch_admin("127.0.0.1", server.admin_port(), "/nope", &err,
                     &status_line);
  ASSERT_TRUE(err.empty()) << err;
  EXPECT_NE(status_line.find("404"), std::string::npos) << status_line;
  EXPECT_TRUE(eventually([&] { return server.admin_requests() == 4; }));
}

TEST(NetLoopback, MetricsEndpointMatchesReporterByteForByte) {
  obs::MetricsRegistry registry;
  serve::ModelServerConfig mcfg;
  mcfg.metrics = &registry;
  serve::ModelServer model(mcfg);
  model.publish(tiny_snapshot(9));

  NetServerConfig cfg;
  cfg.metrics = &registry;
  PredictServer server(model, cfg);
  ASSERT_TRUE(server.start());

  // The reporter is constructed before the scrape: its constructor
  // registers webppm_serve_report_failures_total, which must be present in
  // both renders for the byte-identity below to be meaningful.
  std::string reported;
  serve::MetricsReporter::Options opts;
  opts.interval = std::chrono::milliseconds(3'600'000);
  opts.sink = [&reported](const std::string& text) { reported = text; };
  serve::MetricsReporter reporter(model, registry, opts);

  const auto reqs = small_stream();
  LoadClientConfig lc;
  lc.port = server.port();
  ASSERT_TRUE(LoadClient(lc).run(reqs).ok);
  // Let the connection teardown counters settle so nothing moves between
  // the scrape and the local render.
  ASSERT_TRUE(eventually(
      [&] { return server.closed() == server.accepted(); }));

  std::string err;
  const std::string scraped = fetch_admin("127.0.0.1", server.admin_port(),
                                          "/metrics", &err);
  ASSERT_TRUE(err.empty()) << err;
  ASSERT_FALSE(scraped.empty());
  EXPECT_NE(scraped.find("webppm_net_requests_total"), std::string::npos);
  EXPECT_NE(scraped.find("webppm_net_request_latency_ns"), std::string::npos);

  // Golden identity: the reporter's sink text is the same render — one
  // shared code path (serve::render_metrics_exposition), byte for byte.
  reporter.tick_now();
  EXPECT_EQ(scraped, reported);
}

TEST(NetLoopbackBatch, BatchAnswersMatchV1SingleFrameReplayByteForByte) {
  serve::ModelServer model;
  model.publish(tiny_snapshot(7));
  PredictServer server(model, {});
  ASSERT_TRUE(server.start());

  const auto reqs = small_stream();
  const auto shards = LoadClient::shard(reqs, 2);

  LoadClientConfig lc;
  lc.port = server.port();
  lc.connections = 2;
  lc.record_responses = true;
  lc.batch_size = 5;  // deliberately not a divisor: a short final batch
  const auto res = LoadClient(lc).run_sharded(shards);
  ASSERT_TRUE(res.ok) << res.error;
  EXPECT_EQ(res.responses, reqs.size());
  EXPECT_TRUE(eventually([&] { return server.batches() >= 2; }));

  // The contract batch clients rely on: exploding each batch frame into
  // per-sub v1 frames reproduces byte-for-byte what a v1 single-frame
  // replay of the same shard yields.
  serve::ModelServer local;
  local.publish(tiny_snapshot(7));
  ASSERT_EQ(res.frames.size(), shards.size());
  for (std::size_t s = 0; s < shards.size(); ++s) {
    std::vector<std::vector<std::uint8_t>> exploded;
    for (const auto& frame : res.frames[s]) {
      std::vector<WireResponse> subs;
      ASSERT_TRUE(decode_batch_response(
                      std::span<const std::uint8_t>(frame).subspan(
                          kFrameHeaderBytes),
                      subs)
                      .ok());
      for (const auto& sub : subs) {
        std::vector<std::uint8_t> v1;
        encode_response(sub, v1);
        exploded.push_back(std::move(v1));
      }
    }
    ASSERT_EQ(exploded.size(), shards[s].size());
    for (std::size_t i = 0; i < shards[s].size(); ++i) {
      std::vector<ppm::Prediction> preds;
      const auto qr = local.query_ex(to_trace_request(shards[s][i]), preds);
      std::vector<std::uint8_t> expected;
      encode_response(make_wire_response(qr, shards[s][i], local.version(),
                                         std::move(preds)),
                      expected);
      EXPECT_EQ(exploded[i], expected) << "shard " << s << " response " << i;
    }
  }
}

TEST(NetLoopbackBatch, MixedV1AndV2ClientsShareOneServer) {
  serve::ModelServer model;
  model.publish(tiny_snapshot(4));
  NetServerConfig cfg;
  cfg.workers = 2;
  PredictServer server(model, cfg);
  ASSERT_TRUE(server.start());

  // Disjoint client-id ranges so the two replays never interleave inside
  // one session context; concurrent threads so v1 and v2 frames really do
  // share the server at the same time.
  std::vector<trace::Request> v1_reqs, v2_reqs;
  for (ClientId c = 0; c < 4; ++c) {
    const TimeSec base = static_cast<TimeSec>(c) * 100;
    v1_reqs.push_back(click(c, 1, base));
    v1_reqs.push_back(click(c, 2, base + 1));
    v2_reqs.push_back(click(c + 100, 1, base));
    v2_reqs.push_back(click(c + 100, 2, base + 1));
  }

  LoadClientConfig single;
  single.port = server.port();
  single.connections = 2;
  LoadClientConfig batched = single;
  batched.batch_size = 3;

  LoadClientResult r1, r2;
  std::thread t1([&] { r1 = LoadClient(single).run(v1_reqs); });
  std::thread t2([&] { r2 = LoadClient(batched).run(v2_reqs); });
  t1.join();
  t2.join();

  ASSERT_TRUE(r1.ok) << r1.error;
  ASSERT_TRUE(r2.ok) << r2.error;
  EXPECT_EQ(r1.status_counts[static_cast<std::size_t>(Status::kOk)],
            v1_reqs.size());
  EXPECT_EQ(r2.status_counts[static_cast<std::size_t>(Status::kOk)],
            v2_reqs.size());
  EXPECT_TRUE(eventually([&] {
    return server.requests() == v1_reqs.size() + v2_reqs.size();
  }));
  EXPECT_EQ(server.protocol_errors(), 0u);
  EXPECT_GE(server.batches(), 1u);
}

TEST(NetLoopbackBatch, OneConnectionMayInterleaveV1AndV2Frames) {
  serve::ModelServer model;
  model.publish(tiny_snapshot(2));
  PredictServer server(model, {});
  ASSERT_TRUE(server.start());

  RawConn conn;
  ASSERT_TRUE(conn.connect_to(server.port()));

  // v1 single, then a v2 batch, then v1 again — the version byte is per
  // frame, so one connection mixes them freely.
  std::vector<std::uint8_t> frame;
  encode_request(LoadClient::to_wire(click(1, 1, 0)), frame);
  ASSERT_TRUE(conn.send_all(frame));
  WireResponse single;
  ASSERT_TRUE(conn.read_response(single));
  EXPECT_EQ(single.status, Status::kOk);

  const std::vector<WireRequest> batch = {
      LoadClient::to_wire(click(1, 2, 1)),
      LoadClient::to_wire(click(1, 3, 2))};
  frame.clear();
  encode_batch_request(batch, frame);
  ASSERT_TRUE(conn.send_all(frame));
  std::vector<WireResponse> subs;
  ASSERT_TRUE(conn.read_batch_response(subs));
  ASSERT_EQ(subs.size(), 2u);
  EXPECT_EQ(subs[0].status, Status::kOk);
  EXPECT_EQ(subs[1].status, Status::kOk);

  frame.clear();
  encode_request(LoadClient::to_wire(click(1, 1, 3)), frame);
  ASSERT_TRUE(conn.send_all(frame));
  ASSERT_TRUE(conn.read_response(single));
  EXPECT_EQ(single.status, Status::kOk);
  EXPECT_EQ(server.protocol_errors(), 0u);
}

TEST(NetLoopbackBatch, BadSubEntryDegradesItsSlotOnly) {
  serve::ModelServer model;
  model.publish(tiny_snapshot(3));
  PredictServer server(model, {});
  ASSERT_TRUE(server.start());

  RawConn conn;
  ASSERT_TRUE(conn.connect_to(server.port()));

  std::vector<WireRequest> batch = {LoadClient::to_wire(click(1, 1, 0)),
                                    LoadClient::to_wire(click(1, 2, 1)),
                                    LoadClient::to_wire(click(1, 3, 2))};
  batch[1].flags = 0x80;  // undefined flag bit
  std::vector<std::uint8_t> frame;
  encode_batch_request(batch, frame);
  ASSERT_TRUE(conn.send_all(frame));

  std::vector<WireResponse> subs;
  ASSERT_TRUE(conn.read_batch_response(subs));
  ASSERT_EQ(subs.size(), 3u);
  EXPECT_EQ(subs[0].status, Status::kOk);
  EXPECT_EQ(subs[1].status, Status::kBadRequest);
  EXPECT_EQ(subs[2].status, Status::kOk);
  EXPECT_TRUE(eventually([&] { return server.batch_entry_errors() == 1; }));
  EXPECT_EQ(server.protocol_errors(), 0u);

  // The connection survives: one bad entry never kills the batch or the
  // stream (a v1 frame with the same bytes would have closed it).
  frame.clear();
  encode_request(LoadClient::to_wire(click(1, 4, 3)), frame);
  ASSERT_TRUE(conn.send_all(frame));
  WireResponse resp;
  ASSERT_TRUE(conn.read_response(resp));
  EXPECT_EQ(resp.status, Status::kOk);
}

TEST(NetLoopbackBatch, MalformedBatchFrameGetsBadRequestThenClose) {
  serve::ModelServer model;
  model.publish(tiny_snapshot(3));
  PredictServer server(model, {});
  ASSERT_TRUE(server.start());

  RawConn conn;
  ASSERT_TRUE(conn.connect_to(server.port()));

  // A batch frame whose count contradicts its body length: unparseable, so
  // the v1 error contract applies — one kBadRequest, then close.
  const std::vector<WireRequest> batch = {LoadClient::to_wire(click(1, 1, 0)),
                                          LoadClient::to_wire(click(1, 2, 1))};
  std::vector<std::uint8_t> frame;
  encode_batch_request(batch, frame);
  frame[kFrameHeaderBytes + 2] = 3;  // claim 3 entries, carry 2
  ASSERT_TRUE(conn.send_all(frame));

  WireResponse resp;
  ASSERT_TRUE(conn.read_response(resp));
  EXPECT_EQ(resp.status, Status::kBadRequest);
  EXPECT_TRUE(conn.read_eof());
  EXPECT_TRUE(eventually([&] { return server.protocol_errors() >= 1; }));
}

TEST(NetLoopback, ShutdownDrainsPendingResponses) {
  serve::ModelServer model;
  model.publish(tiny_snapshot());
  NetServerConfig cfg;
  cfg.drain_timeout_ms = 2000;
  PredictServer server(model, cfg);
  ASSERT_TRUE(server.start());

  RawConn conn;
  ASSERT_TRUE(conn.connect_to(server.port()));
  std::vector<std::uint8_t> frame;
  encode_request(LoadClient::to_wire(click(1, 1, 0)), frame);
  ASSERT_TRUE(conn.send_all(frame));
  WireResponse resp;
  ASSERT_TRUE(conn.read_response(resp));

  std::thread closer([&server] { server.shutdown(); });
  // During/after the drain the connection is closed cleanly; any response
  // already queued would have been flushed first.
  EXPECT_TRUE(conn.read_eof());
  closer.join();
  EXPECT_EQ(server.active_connections(), 0u);
  EXPECT_EQ(server.accepted(), server.closed());
}

TEST(NetLoopback, AdminHealthzReportsDrift) {
  // Aggressive DriftWatch so a short hit-then-miss replay trips the alert:
  // tiny sample floor, fast short EWMA, near-frozen long EWMA.
  serve::ModelServerConfig mcfg;
  mcfg.scoreboard.enabled = true;
  mcfg.scoreboard.window_sec = 10;
  mcfg.scoreboard.drift_short_alpha = 0.5;
  mcfg.scoreboard.drift_long_alpha = 0.001;
  mcfg.scoreboard.drift_threshold = 0.3;
  mcfg.scoreboard.drift_min_samples = 4;
  serve::ModelServer model(mcfg);
  model.publish(tiny_snapshot());
  PredictServer server(model, {});
  ASSERT_TRUE(server.start());

  // Healthy phase: the trained 1 -> 2 -> 3 pattern, every prediction
  // consumed within the window. Precision EWMAs seed and settle at 1.
  std::vector<ppm::Prediction> out;
  TimeSec t = 0;
  for (ClientId c = 0; c < 8; ++c) {
    model.query(click(c, 1, t), out);
    model.query(click(c, 2, t + 1), out);
    model.query(click(c, 3, t + 2), out);
    t += 20;
  }
  std::string err, status_line;
  std::string body = fetch_admin("127.0.0.1", server.admin_port(), "/healthz",
                                 &err, &status_line);
  ASSERT_TRUE(err.empty()) << err;
  HealthzInfo hz;
  ASSERT_TRUE(parse_healthz(body, hz)) << body;
  EXPECT_EQ(hz.state, "ok");
  EXPECT_FALSE(hz.drift);

  // Drift phase: the same clients keep clicking but always past the
  // validity window, so every outstanding prediction expires — the short
  // precision EWMA collapses while the long one barely moves.
  for (int round = 0; round < 16; ++round) {
    for (ClientId c = 0; c < 8; ++c) {
      model.query(click(c, 1, t), out);
      model.query(click(c, 2, t + 11), out);  // 11 s later: {3,4} expired
    }
    t += 100;
  }
  ASSERT_TRUE(model.drift_alert());

  body = fetch_admin("127.0.0.1", server.admin_port(), "/healthz", &err,
                     &status_line);
  ASSERT_TRUE(err.empty()) << err;
  // Drift is a quality page, not an availability one: still 200.
  EXPECT_NE(status_line.find("200"), std::string::npos) << status_line;
  ASSERT_TRUE(parse_healthz(body, hz)) << body;
  EXPECT_EQ(hz.state, "drift");
  EXPECT_TRUE(hz.drift);
  EXPECT_TRUE(hz.serving());
}

TEST(NetLoopback, AdminScoreboardEndpoint) {
  serve::ModelServerConfig mcfg;
  mcfg.scoreboard.enabled = true;
  serve::ModelServer model(mcfg);
  model.publish(tiny_snapshot());
  PredictServer server(model, {});
  ASSERT_TRUE(server.start());

  std::vector<ppm::Prediction> out;
  model.query(click(0, 1, 0), out);
  model.query(click(0, 2, 1), out);  // consumes the {2} prediction: a hit

  std::string err, status_line;
  const std::string body = fetch_admin(
      "127.0.0.1", server.admin_port(), "/scoreboard", &err, &status_line);
  ASSERT_TRUE(err.empty()) << err;
  EXPECT_NE(status_line.find("200"), std::string::npos) << status_line;
  EXPECT_NE(body.find("\"requests\": 2"), std::string::npos) << body;
  EXPECT_NE(body.find("\"hits\": 1"), std::string::npos) << body;
  EXPECT_NE(body.find("\"drift\""), std::string::npos) << body;
}

TEST(NetLoopback, AdminScoreboardWithoutArmingIs503) {
  serve::ModelServer model;  // scoreboard not armed
  model.publish(tiny_snapshot());
  PredictServer server(model, {});
  ASSERT_TRUE(server.start());

  std::string err, status_line;
  const std::string body = fetch_admin(
      "127.0.0.1", server.admin_port(), "/scoreboard", &err, &status_line);
  ASSERT_TRUE(err.empty()) << err;
  EXPECT_NE(status_line.find("503"), std::string::npos) << status_line;
  EXPECT_EQ(body, "no scoreboard\n");
}

TEST(NetLoopback, StageHistogramsAttributeHotPathLatency) {
  obs::MetricsRegistry registry;
  serve::ModelServer model;
  model.publish(tiny_snapshot());
  NetServerConfig cfg;
  cfg.metrics = &registry;
  PredictServer server(model, cfg);
  ASSERT_TRUE(server.start());

  // The first frame of a connection is always stage-sampled, and the v2
  // batch path shares the same histograms — drive both frame shapes.
  LoadClientConfig lc;
  lc.port = server.port();
  ASSERT_TRUE(LoadClient(lc).run(small_stream()).ok);
  LoadClientConfig batched = lc;
  batched.batch_size = 4;
  ASSERT_TRUE(LoadClient(batched).run(small_stream()).ok);
  ASSERT_TRUE(
      eventually([&] { return server.closed() == server.accepted(); }));

  for (const char* name :
       {"webppm_net_stage_queue_ns", "webppm_net_stage_decode_ns",
        "webppm_net_stage_predict_ns", "webppm_net_stage_serialize_ns",
        "webppm_net_stage_flush_ns"}) {
    const auto* h = registry.find_histogram(name);
    ASSERT_NE(h, nullptr) << name;
    EXPECT_GE(h->snapshot().count, 1u) << name;
  }
  // Stage samples are a strict subset of requests: one per sampled frame,
  // never one per request.
  const auto* total = registry.find_histogram("webppm_net_stage_predict_ns");
  EXPECT_LE(total->snapshot().count, server.requests());
}

}  // namespace
}  // namespace webppm::net
