// Observe-frame suite ("net" label): the v3 one-way wire path that feeds
// session state and the online-training pipeline without predictions
// coming back (DESIGN.md §15).
//   * codec — encode/decode round trip, version dispatch, hostile frames;
//   * server — observe frames advance session contexts and the observer
//     tap, answer nothing, count bad entries per slot, and reject
//     malformed frames with the standard kBadRequest-then-close;
//   * LoadClient --observe — one-way replay with the half-close barrier:
//     when run() returns, every observation has been absorbed.
#include "net/wire.hpp"

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <string>
#include <vector>

#include "learn/observation.hpp"
#include "net/load_client.hpp"
#include "net/server.hpp"
#include "ppm/standard_ppm.hpp"
#include "serve/model_server.hpp"

namespace webppm::net {
namespace {

WireRequest wreq(ClientId c, UrlId u, TimeSec t, std::uint8_t flags = 0) {
  WireRequest r;
  r.client = c;
  r.url = u;
  r.timestamp = t;
  r.flags = flags;
  return r;
}

trace::Request click(ClientId c, UrlId u, TimeSec t) {
  trace::Request r;
  r.client = c;
  r.url = u;
  r.timestamp = t;
  return r;
}

session::Session make_session(std::vector<UrlId> urls) {
  session::Session s;
  s.urls = std::move(urls);
  return s;
}

std::shared_ptr<const serve::Snapshot> tiny_snapshot() {
  auto m = std::make_unique<ppm::StandardPpm>();
  const std::vector<session::Session> train{
      make_session({1, 2, 3}), make_session({1, 2, 3}),
      make_session({1, 2, 4})};
  m->train(train);
  return serve::make_snapshot(std::move(m), popularity::PopularityTable{}, 1);
}

/// Minimal blocking socket for frames the LoadClient cannot craft
/// (corrupted flag bits, truncated bodies).
struct RawConn {
  int fd = -1;
  ~RawConn() {
    if (fd >= 0) ::close(fd);
  }
  bool connect_to(std::uint16_t port) {
    fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) return false;
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
  bool read_eof() {
    std::uint8_t b;
    while (true) {
      const ssize_t n = ::read(fd, &b, 1);
      if (n == 0) return true;
      if (n < 0 && errno == EINTR) continue;
      if (n < 0) return false;
    }
  }

 private:
  bool read_exact(std::uint8_t* data, std::size_t len) {
    std::size_t done = 0;
    while (done < len) {
      const ssize_t n = ::read(fd, data + done, len - done);
      if (n <= 0) {
        if (n < 0 && errno == EINTR) continue;
        return false;
      }
      done += static_cast<std::size_t>(n);
    }
    return true;
  }
};

TEST(ObserveWire, CodecRoundTrip) {
  std::vector<WireRequest> in{wreq(1, 2, 3), wreq(4, 5, 6, kFlagErrorStatus),
                              wreq(7, 8, 9)};
  std::vector<std::uint8_t> framed;
  EXPECT_EQ(encode_observe_frame(in, framed), 0u);
  ASSERT_GT(framed.size(), kFrameHeaderBytes);
  const std::span<const std::uint8_t> body(framed.data() + kFrameHeaderBytes,
                                           framed.size() - kFrameHeaderBytes);
  EXPECT_EQ(frame_version(body), kWireVersionObserve);

  std::vector<WireRequest> out;
  const auto err = decode_observe_frame(body, out);
  ASSERT_TRUE(err.ok()) << err.reason;
  EXPECT_EQ(out, in);
}

TEST(ObserveWire, CodecRejectsVersionMismatchAndEmpty) {
  // A v2 batch body must not decode as an observe frame (and vice versa):
  // the version byte is the dispatch, not a suggestion.
  std::vector<WireRequest> in{wreq(1, 2, 3)};
  std::vector<std::uint8_t> framed;
  encode_batch_request(in, framed);
  std::vector<WireRequest> out;
  EXPECT_FALSE(decode_observe_frame(
                   std::span<const std::uint8_t>(
                       framed.data() + kFrameHeaderBytes,
                       framed.size() - kFrameHeaderBytes),
                   out)
                   .ok());

  // Zero-entry observe frames are rejected like zero-entry batches.
  std::vector<std::uint8_t> empty{kWireVersionObserve, 0, 0, 0};
  EXPECT_FALSE(decode_observe_frame(empty, out).ok());

  // A count the body cannot hold is rejected before any allocation.
  std::vector<std::uint8_t> hostile{kWireVersionObserve, 0, 0xff, 0xff};
  EXPECT_FALSE(decode_observe_frame(hostile, out).ok());
}

TEST(ObserveWire, ServerAbsorbsAndAnswersNothing) {
  serve::ModelServer model;
  model.publish(tiny_snapshot());
  PredictServer server(model, NetServerConfig{});
  std::string err;
  ASSERT_TRUE(server.start(&err)) << err;

  RawConn conn;
  ASSERT_TRUE(conn.connect_to(server.port()));

  // Observe two clicks of client 9's session, then *query* the third on
  // the same connection: the query's context must already contain the
  // observed clicks (frames are processed in order), so the trained
  // pattern 1,2 -> 3 fires.
  std::vector<std::uint8_t> bytes;
  encode_observe_frame(
      std::vector<WireRequest>{wreq(9, 1, 100), wreq(9, 2, 101)}, bytes);
  encode_request(wreq(9, 3, 102), bytes);
  ASSERT_TRUE(conn.send_all(bytes));

  WireResponse resp;
  ASSERT_TRUE(conn.read_response(resp));  // the query's answer, nothing else
  EXPECT_EQ(resp.status, Status::kOk);

  EXPECT_EQ(server.observe_frames(), 1u);
  EXPECT_EQ(server.observes(), 2u);
  EXPECT_EQ(server.observe_entry_errors(), 0u);
  EXPECT_EQ(model.observe_count(), 2u);
  // Observes never count as queries; the single v1 frame does.
  EXPECT_EQ(server.requests(), 1u);

  ::shutdown(conn.fd, SHUT_WR);
  EXPECT_TRUE(conn.read_eof());
  server.shutdown();
}

TEST(ObserveWire, BadFlagBitsDegradeTheEntryNotTheFrame) {
  serve::ModelServer model;
  model.publish(tiny_snapshot());
  PredictServer server(model, NetServerConfig{});
  std::string err;
  ASSERT_TRUE(server.start(&err)) << err;

  std::vector<std::uint8_t> bytes;
  encode_observe_frame(
      std::vector<WireRequest>{wreq(1, 1, 10), wreq(1, 2, 11)}, bytes);
  // Corrupt the first entry's flag byte (offset: header + version +
  // reserved + u16 count) with a reserved bit.
  bytes[kFrameHeaderBytes + kBatchPrefixBytes] = 0x80;

  RawConn conn;
  ASSERT_TRUE(conn.connect_to(server.port()));
  ASSERT_TRUE(conn.send_all(bytes));
  ::shutdown(conn.fd, SHUT_WR);
  EXPECT_TRUE(conn.read_eof());  // FIN barrier: the frame was processed

  EXPECT_EQ(server.observe_frames(), 1u);
  EXPECT_EQ(server.observes(), 1u);  // the intact entry
  EXPECT_EQ(server.observe_entry_errors(), 1u);
  EXPECT_EQ(model.observe_count(), 1u);
  server.shutdown();
}

TEST(ObserveWire, MalformedObserveFrameRejectsAndCloses) {
  serve::ModelServer model;
  model.publish(tiny_snapshot());
  PredictServer server(model, NetServerConfig{});
  std::string err;
  ASSERT_TRUE(server.start(&err)) << err;

  RawConn conn;
  ASSERT_TRUE(conn.connect_to(server.port()));
  // An observe body whose count field claims entries the body lacks.
  std::vector<std::uint8_t> body{kWireVersionObserve, 0, 4, 0};
  std::vector<std::uint8_t> framed;
  const std::uint32_t len = static_cast<std::uint32_t>(body.size());
  framed.push_back(static_cast<std::uint8_t>(len & 0xff));
  framed.push_back(static_cast<std::uint8_t>((len >> 8) & 0xff));
  framed.push_back(static_cast<std::uint8_t>((len >> 16) & 0xff));
  framed.push_back(static_cast<std::uint8_t>((len >> 24) & 0xff));
  framed.insert(framed.end(), body.begin(), body.end());
  ASSERT_TRUE(conn.send_all(framed));

  WireResponse resp;
  ASSERT_TRUE(conn.read_response(resp));
  EXPECT_EQ(resp.status, Status::kBadRequest);
  EXPECT_TRUE(conn.read_eof());  // no resync point after a framing error
  EXPECT_EQ(server.observes(), 0u);
  EXPECT_EQ(model.observe_count(), 0u);
  server.shutdown();
}

TEST(ObserveWire, LoadClientObserveModeBarrier) {
  serve::ModelServer model;
  model.publish(tiny_snapshot());
  learn::ObservationQueue tap(1 << 12);
  model.attach_observer(&tap);

  NetServerConfig cfg;
  cfg.workers = 2;
  PredictServer server(model, cfg);
  std::string err;
  ASSERT_TRUE(server.start(&err)) << err;

  std::vector<trace::Request> reqs;
  for (ClientId c = 0; c < 8; ++c) {
    for (UrlId u = 1; u <= 64; ++u) {
      reqs.push_back(click(c, u, static_cast<TimeSec>(c) * 1000 + u));
    }
  }

  LoadClientConfig lc;
  lc.port = server.port();
  lc.connections = 2;
  lc.batch_size = 37;  // odd size: the last frame is a partial batch
  lc.observe = true;
  const auto res = LoadClient(lc).run(reqs);
  ASSERT_TRUE(res.ok) << res.error;
  EXPECT_EQ(res.requests, reqs.size());
  EXPECT_EQ(res.responses, 0u);  // one-way: the server answered nothing

  // The half-close barrier: by the time run() returned, every observation
  // was absorbed — no eventually() needed.
  model.attach_observer(nullptr);
  EXPECT_EQ(server.observes(), reqs.size());
  EXPECT_EQ(model.observe_count(), reqs.size());
  EXPECT_EQ(tap.pushed() + tap.dropped(), reqs.size());
  EXPECT_EQ(server.responses(), 0u);
  server.shutdown();
}

}  // namespace
}  // namespace webppm::net
