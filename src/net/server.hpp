// webppm::net::PredictServer — the epoll TCP front-end of serve::ModelServer
// (DESIGN.md §10).
//
// Thread model: the shared net::Acceptor thread owns the listen socket and
// the text admin listener in its own epoll set; `workers` loop threads
// each own an epoll set of connection fds. The acceptor hands accepted fds
// round-robin to the workers through a per-worker inbox + eventfd wake;
// after that a connection lives and dies entirely on its worker thread —
// no fd is ever shared between threads. Prediction itself delegates to the
// caller's serve::ModelServer, whose query path is already thread-safe.
//
// Backpressure and protection are first-class:
//   * bounded per-connection write queue — a client that stops reading
//     while responses accumulate past `max_write_queue_bytes` is
//     disconnected (slow-client shed), never buffered without bound;
//   * idle-connection timeout via a lazy timing wheel per worker;
//   * `max_connections` cap (the acceptor's) — an accept over the cap is
//     answered with one Status::kRetryLater frame labelled with the model's
//     version and closed, mirroring the serve layer's shed-with-fallback
//     degradation contract (retryable, not an error);
//   * hardened framing — an invalid frame gets a Status::kBadRequest
//     response and a drain-then-close, and a header-claimed length is
//     capped before any body byte is read (see wire.hpp);
//   * graceful drain-then-stop shutdown — stop accepting, stop reading,
//     flush queued responses for up to `drain_timeout_ms`, then close.
//
// The admin listener speaks just enough HTTP/1.0 for a scraper (the
// acceptor reads each request without blocking and closes it by its
// deadline; admin_response answers it):
// GET /metrics returns the shared Prometheus exposition
// (serve::render_metrics_exposition — the same code path
// serve::MetricsReporter writes, so the two can never drift),
// GET /healthz reports ok / drift / degraded / no-model / draining,
// GET /snapshot reports what the box is serving (version, model name,
// node count, storage bytes, degraded flag) one field per line, and
// GET /scoreboard returns the prediction-quality scoreboard JSON
// (serve::ModelServer::scoreboard_json; 503 when not armed).
//
// Stage attribution (attached registry only; a detached server reads no
// clock): 1 in kStageSampleEvery frames per connection times
// each hot-path stage — queue (read() return → frame pickup), decode,
// predict (the model_ call; its shard-lock wait is already broken out as
// webppm_serve_shard_lock_wait_ns), serialize, and the following flush —
// into webppm_net_stage_*_ns log2 histograms. Unsampled frames pay two
// clock reads at most (the existing request-latency pair).
//
// Fault sites (chaos suite): net.accept (accepted fd dropped, in the
// acceptor), net.conn.read / net.conn.write (short read/write: 1 byte this
// round), net.conn.stall (skip or delay one readiness event).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "net/acceptor.hpp"
#include "net/event_loop.hpp"
#include "net/wire.hpp"
#include "obs/metrics.hpp"
#include "serve/model_server.hpp"

namespace webppm::net {

struct NetServerConfig {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;        ///< 0 = ephemeral; read back via port()
  bool admin = true;  ///< serve /metrics, /healthz and /snapshot
  std::uint16_t admin_port = 0;  ///< 0 = ephemeral; read via admin_port()
  std::size_t workers = 2;       ///< loop-worker threads (>= 1)
  /// Connection cap across all workers; an accept over it is shed with one
  /// Status::kRetryLater frame (0 = unbounded).
  std::size_t max_connections = 1024;
  /// Per-connection pending-write cap; exceeding it disconnects the slow
  /// client (0 = unbounded — never use in production).
  std::size_t max_write_queue_bytes = 256 * 1024;
  /// Idle-connection timeout (0 disables the wheel).
  std::uint64_t idle_timeout_ms = 30'000;
  /// Reject frames whose header claims more than this many body bytes.
  std::uint32_t max_frame_bytes = kDefaultMaxFrameBytes;
  /// Per-connection kernel send-buffer size (SO_SNDBUF; 0 keeps the OS
  /// default). Small values make max_write_queue_bytes bite early — with
  /// the default auto-tuned sndbuf the kernel happily buffers megabytes
  /// before the user-space queue ever grows.
  int sndbuf_bytes = 0;
  /// Flush budget of the drain-then-stop shutdown.
  std::uint64_t drain_timeout_ms = 1'000;
  /// The registry the webppm_net_* counters live in (null: a private one,
  /// so the accessors below count either way). Attached, it also gets the
  /// request-latency and stage histograms and serves GET /metrics.
  obs::MetricsRegistry* metrics = nullptr;
};

/// Wire status for one query outcome — what the server writes for every
/// query, in a v1 frame or a v2 sub-response alike, and what
/// make_wire_response uses, so the two can never disagree:
/// predicted → kOk (kDegraded when the fallback answered); otherwise
/// kNoModel before the first publish, kOk-with-empty-list for a skipped
/// error request, kError for a refusal (e.g. an injected serve.query
/// fault).
Status wire_status(const serve::QueryResult& qr, std::uint8_t flags,
                   std::uint64_t snapshot_version);

/// The request→response mapping for anything reproducing server answers
/// in-process (NetLoopback.AnswersMatchInProcessModelServerByteForByte):
/// given what ModelServer said about a query, build the wire response —
/// wire_status, plus the predictions when a pass ran. Encoded as a v1
/// frame, it is the bytes the server writes for the same query. Pass
/// qr.snapshot_version as the version to label the answer with the
/// snapshot that produced it.
WireResponse make_wire_response(const serve::QueryResult& qr,
                                const WireRequest& req,
                                std::uint64_t snapshot_version,
                                std::vector<ppm::Prediction> predictions);

/// The request a WireRequest stands for, as ModelServer consumes it.
trace::Request to_trace_request(const WireRequest& w);

class PredictServer {
 public:
  /// `model` must outlive the server. Nothing starts until start().
  PredictServer(serve::ModelServer& model, NetServerConfig config = {});
  ~PredictServer();

  PredictServer(const PredictServer&) = delete;
  PredictServer& operator=(const PredictServer&) = delete;

  /// Binds, listens and starts the acceptor + worker threads. False on
  /// failure with `*error` set. Call at most once.
  bool start(std::string* error = nullptr);

  /// Drain-then-stop: stop accepting, stop reading, flush pending writes
  /// up to drain_timeout_ms, close everything, join threads. Idempotent;
  /// the destructor calls it.
  void shutdown();

  bool running() const { return running_.load(std::memory_order_acquire); }

  /// Bound ports (valid after a successful start()).
  std::uint16_t port() const { return acceptor_.port(); }
  std::uint16_t admin_port() const { return acceptor_.admin_port(); }

  const NetServerConfig& config() const { return config_; }

  // Exact counts, each read back from its one webppm_net_* counter.
  /// Connections admitted (a shed connection counts only in shed()).
  std::uint64_t accepted() const { return acceptor_.accepted(); }
  std::uint64_t closed() const { return c_.closed.value(); }
  std::size_t active_connections() const {
    return static_cast<std::size_t>(c_.active.value());
  }
  std::uint64_t requests() const { return c_.requests.value(); }
  std::uint64_t responses() const { return c_.responses.value(); }
  std::uint64_t protocol_errors() const { return c_.protocol_errors.value(); }
  std::uint64_t shed() const { return acceptor_.shed(); }
  std::uint64_t slow_client_disconnects() const { return c_.slow_disconnects.value(); }
  std::uint64_t idle_timeouts() const { return c_.idle_timeouts.value(); }
  std::uint64_t accept_failures() const { return acceptor_.accept_failures(); }
  std::uint64_t short_reads() const { return c_.short_reads.value(); }
  std::uint64_t short_writes() const { return c_.short_writes.value(); }
  std::uint64_t stalls() const { return c_.stalls.value(); }
  std::uint64_t admin_requests() const { return acceptor_.admin_requests(); }
  /// v2 batch frames served (each counts its sub-requests in requests()).
  std::uint64_t batches() const { return c_.batches.value(); }
  /// Batch sub-entries answered kBadRequest in their slot (unknown flag
  /// bits) — the batch and connection survive.
  std::uint64_t batch_entry_errors() const { return c_.batch_entry_errors.value(); }
  /// Predictions dropped by the u16 per-response count clamp.
  std::uint64_t responses_truncated() const { return c_.responses_truncated.value(); }
  /// v3 observe frames served (no response is written for them).
  std::uint64_t observe_frames() const { return c_.observe_frames.value(); }
  /// Observe-frame entries fed into ModelServer::observe.
  std::uint64_t observes() const { return c_.observes.value(); }
  /// Observe-frame entries skipped for unknown flag bits (the frame and
  /// connection survive, like a bad batch slot — but with no response to
  /// degrade, the entry is counted and dropped).
  std::uint64_t observe_entry_errors() const { return c_.observe_entry_errors.value(); }

 private:
  struct Worker;
  struct Connection;

  void worker_main(Worker& w);
  /// The acceptor's admit hook: the next worker's inbox, round-robin.
  void dispatch(int fd);

  // Worker-side connection machinery (all run on the owning worker).
  void conn_readable(Worker& w, Connection& c);
  void conn_writable(Worker& w, Connection& c);
  bool conn_flush(Connection& c);  ///< false = fatal write error
  bool conn_flush_impl(Connection& c);  ///< conn_flush sans stage timing
  void conn_process_frames(Connection& c);
  /// Serves one query frame — a v2 batch, or a v1 frame as a batch of
  /// one: decode, one query_batch call, serialize straight into the
  /// connection's write ring in the frame's own version. Returns a reject
  /// reason when the frame itself is malformed (empty string = served).
  std::string conn_handle_query(Connection& c,
                                std::span<const std::uint8_t> body);
  /// Serves one v3 observe frame: decode and feed every entry into
  /// ModelServer::observe. One-way — nothing is written back. Returns a
  /// reject reason when the frame is malformed (empty string = served).
  std::string conn_handle_observe(Connection& c,
                                  std::span<const std::uint8_t> body);
  void conn_update_interest(Worker& w, Connection& c);
  void close_conn(Worker& w, int fd);
  void arm_idle(Worker& w, const Connection& c);

  /// The acceptor's admin hook: the reply to a GET of `path`.
  AdminReply admin_response(const std::string& path);

  /// The webppm_net_* counters and the live-connection gauge.
  /// (The acceptor keeps the accepted, shed, accept-failure and admin
  /// counts.)
  struct Counters {
    obs::Counter &closed, &requests, &responses, &protocol_errors,
        &slow_disconnects, &idle_timeouts, &short_reads, &short_writes,
        &stalls, &batches, &batch_entry_errors, &responses_truncated,
        &observe_frames, &observes, &observe_entry_errors, &bytes_read,
        &bytes_written;
    obs::Gauge& active;
  };
  static Counters register_counters(obs::MetricsRegistry& reg);
  /// Latency histograms; present only with an attached registry.
  struct Timing;

  serve::ModelServer& model_;
  NetServerConfig config_;
  std::unique_ptr<obs::MetricsRegistry> own_metrics_;
  Counters c_;
  std::unique_ptr<Timing> timing_;

  std::vector<std::unique_ptr<Worker>> workers_;
  std::size_t next_worker_ = 0;  ///< touched by the acceptor thread only
  std::vector<std::thread> worker_threads_;

  std::atomic<bool> started_{false};
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};

  /// Last: its thread runs the hooks, which use the members above.
  Acceptor acceptor_;
};

}  // namespace webppm::net
