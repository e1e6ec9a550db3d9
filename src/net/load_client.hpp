// net::LoadClient — a multi-connection closed-loop replay client for the
// prediction service (DESIGN.md §10).
//
// The client shards a request stream (typically a workload::TraceGenerator
// day) over N connections by client id — every client's clicks stay in
// order on one connection, the invariant that makes over-the-wire replies
// comparable request-for-request with an in-process ModelServer replay —
// and drives each connection closed-loop: the next query is written the
// moment the previous response is read. Blocking sockets, one thread per
// connection; the *server* is the event-driven side under test.
//
// With `record_responses` on, every raw response frame is retained per
// connection, which is what
// NetLoopback.AnswersMatchInProcessModelServerByteForByte byte-compares
// against locally encoded in-process answers.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "net/event_loop.hpp"
#include "net/wire.hpp"
#include "trace/record.hpp"

namespace webppm::net {

struct LoadClientConfig {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  std::size_t connections = 1;
  /// Keep every raw response frame (header + body) per connection for
  /// byte-identity checks. Off for pure throughput runs.
  bool record_responses = false;
  /// Reject response frames claiming more than this many body bytes. In
  /// batch mode the effective response cap is
  /// max(max_frame_bytes, kDefaultMaxBatchFrameBytes) — a batch response
  /// aggregates many prediction lists in one frame.
  std::uint32_t max_frame_bytes = kDefaultMaxFrameBytes;
  /// 0 = v1 single-query frames (one request per frame, closed loop).
  /// N >= 1 = batch mode: each connection packs up to N queries per v2
  /// batch frame and ping-pongs whole frames. Sub-request order inside a
  /// connection is unchanged, so replies stay comparable
  /// request-for-request with an in-process replay.
  std::size_t batch_size = 0;
  /// Observe mode: send the stream as one-way v3 observe frames (feeding
  /// the server's training tap) instead of queries — nothing is read back
  /// per frame. batch_size sets observations per frame (0 = 256). Each
  /// connection ends with a half-close and waits for the server's FIN;
  /// the server consumes a connection's bytes in order, so the FIN proves
  /// every observation was absorbed before run() returns. responses /
  /// latencies stay zero; `requests` counts observations sent.
  bool observe = false;
};

struct LoadClientResult {
  bool ok = false;
  std::string error;  ///< first failure across connections
  std::uint64_t requests = 0;
  std::uint64_t responses = 0;
  /// Responses by wire status, indexed by Status. A kRetryLater answer
  /// (a shed connection, a router's give-up) is counted here like any
  /// other: the client never retries.
  std::array<std::uint64_t, 6> status_counts{};
  double seconds = 0.0;
  double qps = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  /// Raw response frames, [connection][frame index], in send order.
  /// Populated only with record_responses. In batch mode each entry is one
  /// v2 batch frame (carrying up to batch_size sub-responses).
  std::vector<std::vector<std::vector<std::uint8_t>>> frames;
};

class LoadClient {
 public:
  explicit LoadClient(LoadClientConfig config) : config_(std::move(config)) {}

  /// Shards `requests` by client id over `connections` lists, preserving
  /// each client's order. The same sharding a caller uses to reproduce
  /// answers in-process.
  static std::vector<std::vector<WireRequest>> shard(
      std::span<const trace::Request> requests, std::size_t connections);

  /// trace::Request → its wire form (error statuses fold into the flag).
  static WireRequest to_wire(const trace::Request& r);

  /// Replays the stream once, closed-loop per connection. Blocks until
  /// every connection finishes (or fails — a dropped connection fails that
  /// shard, recorded in `error`, the rest continue).
  LoadClientResult run(std::span<const trace::Request> requests) const;

  /// Same, over pre-sharded wire requests (shard i → connection i).
  LoadClientResult run_sharded(
      const std::vector<std::vector<WireRequest>>& shards) const;

  const LoadClientConfig& config() const { return config_; }

 private:
  LoadClientConfig config_;
};

/// Blocking TCP connect to host:port with TCP_NODELAY (closed-loop
/// ping-pong). A nonzero `io_timeout_ms` first sets SO_SNDTIMEO (which
/// also bounds connect() on Linux) and SO_RCVTIMEO. Invalid fd and
/// `*error` on failure.
OwnedFd connect_to(const std::string& host, std::uint16_t port,
                   std::uint64_t io_timeout_ms, std::string* error);

/// Reads one whole frame (header + body) into `frame`, validating the
/// header-claimed length against (0, max_frame_bytes] before reading (or
/// sizing for) the body — the server's discipline on the client side.
bool read_frame(int fd, std::uint32_t max_frame_bytes,
                std::vector<std::uint8_t>& frame, std::string* error);

/// One blocking admin-endpoint fetch ("/metrics", "/healthz"): returns the
/// response body, or empty with `*error` set. Shared by the bench's scrape
/// artifact and the loopback tests.
std::string fetch_admin(const std::string& host, std::uint16_t port,
                        const std::string& path, std::string* error,
                        std::string* status_line = nullptr);

/// Parsed GET /healthz body — the canonical reader of the format
/// PredictServer's admin listener emits (state word, then `version N`,
/// `degraded 0|1`, `drift 0|1`, `draining 0|1` lines). The cluster
/// prober and ShardSupervisor use it to check version skew without a
/// second /snapshot round-trip.
struct HealthzInfo {
  std::string state;  ///< "ok", "degraded", "drift", "no-model", "draining"
  std::uint64_t version = 0;  ///< serving snapshot version (0 = none)
  bool degraded = false;
  bool drift = false;
  bool draining = false;
  /// The shard is answering queries (possibly degraded) rather than
  /// refusing them.
  bool serving() const {
    return state == "ok" || state == "degraded" || state == "drift";
  }
};

/// Parses a /healthz body into `out`. Returns false (leaving `out`
/// default) when the body does not start with a known state word —
/// e.g. an error page from something that is not a PredictServer.
/// Missing field lines parse as their defaults so a newer reader still
/// understands an older server.
bool parse_healthz(const std::string& body, HealthzInfo& out);

}  // namespace webppm::net
