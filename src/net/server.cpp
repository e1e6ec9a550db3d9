#include "net/server.hpp"

#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <mutex>
#include <unordered_map>

#include "fault/fault.hpp"
#include "obs/trace_event.hpp"
#include "serve/metrics_reporter.hpp"

namespace webppm::net {
namespace {

/// Per-connection stage-attribution cadence: 1 in this many frames times
/// every pipeline stage. The first frame of a connection is always sampled
/// so short-lived test connections land in the histograms.
constexpr std::uint32_t kStageSampleEvery = 64;

}  // namespace

/// A worker's epoll data for a connection fd is its Connection.
struct PredictServer::Connection {
  int fd = -1;
  std::vector<std::uint8_t> in;    ///< unparsed request bytes
  WriteRing out;                   ///< unflushed response bytes
  bool close_after_flush = false;  ///< protocol error or drain: no reads
  bool want_read = true;
  std::uint32_t interest = 0;      ///< epoll events currently registered
  std::uint64_t last_activity_ms = 0;
  std::uint32_t stage_tick = 0;        ///< stage-sampling cadence counter
  bool stage_flush_sample = false;     ///< sampled frame: time the next flush
  std::uint64_t read_done_ns = 0;      ///< when the delivering read() returned

  std::size_t pending_out() const { return out.pending(); }
};

struct PredictServer::Worker {
  std::size_t index = 0;
  EventLoop loop;
  std::unordered_map<int, std::unique_ptr<Connection>> conns;
  TimeoutWheel wheel;
  std::mutex inbox_mu;
  std::vector<int> inbox;  ///< fds the acceptor admitted

  Worker(std::size_t idx, std::uint64_t idle_timeout_ms)
      : index(idx),
        wheel(idle_timeout_ms == 0
                  ? 1000
                  : std::max<std::uint64_t>(10, idle_timeout_ms / 8),
              64, now_ms()) {}
};

struct PredictServer::Timing {
  obs::LogHistogram& request_latency;
  // Sampled per-stage latency attribution (see kStageSampleEvery).
  obs::LogHistogram &stage_queue, &stage_decode, &stage_predict,
      &stage_serialize, &stage_flush;
};

Status wire_status(const serve::QueryResult& qr, std::uint8_t flags,
                   std::uint64_t snapshot_version) {
  if (qr.predicted) {
    return qr.served == serve::ServedBy::kFallback ? Status::kDegraded
                                                   : Status::kOk;
  }
  if (snapshot_version == 0) return Status::kNoModel;
  if ((flags & kFlagErrorStatus) != 0) {
    // The server skips error requests by design (the simulator's piggyback
    // path does the same); an empty OK list is the expected answer.
    return Status::kOk;
  }
  return Status::kError;  // refused (e.g. injected serve.query)
}

WireResponse make_wire_response(const serve::QueryResult& qr,
                                const WireRequest& req,
                                std::uint64_t snapshot_version,
                                std::vector<ppm::Prediction> predictions) {
  WireResponse resp;
  resp.snapshot_version = snapshot_version;
  resp.status = wire_status(qr, req.flags, snapshot_version);
  if (qr.predicted) resp.predictions = std::move(predictions);
  return resp;
}

trace::Request to_trace_request(const WireRequest& w) {
  trace::Request r;
  r.timestamp = w.timestamp;
  r.client = w.client;
  r.url = w.url;
  r.status = (w.flags & kFlagErrorStatus) != 0 ? 404 : 200;
  return r;
}

PredictServer::Counters PredictServer::register_counters(
    obs::MetricsRegistry& reg) {
  return Counters{
      reg.counter("webppm_net_connections_closed_total"),
      reg.counter("webppm_net_requests_total"),
      reg.counter("webppm_net_responses_total"),
      reg.counter("webppm_net_protocol_errors_total"),
      reg.counter("webppm_net_slow_client_disconnects_total"),
      reg.counter("webppm_net_idle_timeouts_total"),
      reg.counter("webppm_net_short_reads_total"),
      reg.counter("webppm_net_short_writes_total"),
      reg.counter("webppm_net_stalls_total"),
      reg.counter("webppm_net_batches_total"),
      reg.counter("webppm_net_batch_entry_errors_total"),
      reg.counter("webppm_net_response_truncated_total"),
      reg.counter("webppm_net_observe_frames_total"),
      reg.counter("webppm_net_observes_total"),
      reg.counter("webppm_net_observe_entry_errors_total"),
      reg.counter("webppm_net_bytes_read_total"),
      reg.counter("webppm_net_bytes_written_total"),
      reg.gauge("webppm_net_connections_active"),
  };
}

PredictServer::PredictServer(serve::ModelServer& model, NetServerConfig config)
    : model_(model),
      config_(std::move(config)),
      c_(register_counters(
          obs::attached_or_owned(config_.metrics, own_metrics_))),
      acceptor_(
          AcceptorConfig{
              .host = config_.host,
              .port = config_.port,
              .admin = config_.admin,
              .admin_port = config_.admin_port,
              .max_connections = config_.max_connections,
              .admit = std::bind_front(&PredictServer::dispatch, this),
              .live = [this] { return active_connections(); },
              .shed_version = [this] { return model_.version(); },
              .admin_response =
                  std::bind_front(&PredictServer::admin_response, this),
          },
          obs::attached_or_owned(config_.metrics, own_metrics_),
          "webppm_net") {
  if (config_.workers == 0) config_.workers = 1;
  if (config_.max_frame_bytes == 0) config_.max_frame_bytes = kDefaultMaxFrameBytes;
  if (config_.metrics != nullptr) {
    auto& reg = *config_.metrics;
    timing_ = std::make_unique<Timing>(Timing{
        reg.histogram("webppm_net_request_latency_ns"),
        reg.histogram("webppm_net_stage_queue_ns"),
        reg.histogram("webppm_net_stage_decode_ns"),
        reg.histogram("webppm_net_stage_predict_ns"),
        reg.histogram("webppm_net_stage_serialize_ns"),
        reg.histogram("webppm_net_stage_flush_ns"),
    });
  }
}

PredictServer::~PredictServer() { shutdown(); }

bool PredictServer::start(std::string* error) {
  if (started_.exchange(true)) {
    if (error != nullptr) *error = "already started";
    return false;
  }
  std::string err;
  for (std::size_t i = 0; err.empty() && i < config_.workers; ++i) {
    workers_.push_back(std::make_unique<Worker>(i, config_.idle_timeout_ms));
    if (!workers_.back()->loop.ok()) err = workers_.back()->loop.error();
  }
  // The workers' inboxes take fds from here on; their threads adopt them
  // once started below.
  if (err.empty()) err = acceptor_.start();
  if (!err.empty()) {
    if (error != nullptr) *error = err;
    obs::log_event(obs::Severity::kError, "net.start_failed", err);
    return false;
  }

  running_.store(true, std::memory_order_release);
  for (auto& w : workers_) {
    worker_threads_.emplace_back([this, &w] { worker_main(*w); });
  }
  return true;
}

void PredictServer::shutdown() {
  if (!started_.load(std::memory_order_acquire)) return;
  // Stop accepting first, so no fd reaches a worker after its drain began.
  // A second caller (e.g. the destructor after an explicit shutdown) just
  // makes sure the threads are gone.
  const bool first = !stopping_.exchange(true);
  acceptor_.stop();
  if (first) {
    for (auto& w : workers_) w->loop.wake();
  }
  for (auto& t : worker_threads_) {
    if (t.joinable()) t.join();
  }
  // An fd admitted after its worker stopped was never adopted.
  for (auto& w : workers_) {
    for (const int fd : w->inbox) {
      ::close(fd);
      c_.closed.add();
      c_.active.sub(1);
    }
    w->inbox.clear();
  }
  running_.store(false, std::memory_order_release);
}

void PredictServer::dispatch(int fd) {
  if (config_.sndbuf_bytes > 0) {
    ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &config_.sndbuf_bytes,
                 sizeof config_.sndbuf_bytes);
  }
  c_.active.add(1);
  Worker& w = *workers_[next_worker_];
  next_worker_ = (next_worker_ + 1) % workers_.size();
  {
    std::lock_guard lock(w.inbox_mu);
    w.inbox.push_back(fd);
  }
  w.loop.wake();
}

// ---------------------------------------------------------------------------
// Worker threads.

void PredictServer::worker_main(Worker& w) {
  std::vector<epoll_event> events;
  std::uint64_t drain_deadline = 0;

  while (true) {
    const bool stopping = stopping_.load(std::memory_order_acquire);
    if (stopping) {
      if (drain_deadline == 0) {
        // Drain phase entered: no more reads, flush what is queued.
        drain_deadline = now_ms() + config_.drain_timeout_ms;
        std::vector<int> done;
        for (auto& [fd, c] : w.conns) {
          c->want_read = false;
          c->close_after_flush = true;
          if (c->pending_out() == 0) done.push_back(fd);
        }
        for (const int fd : done) close_conn(w, fd);
        for (auto& [fd, c] : w.conns) conn_update_interest(w, *c);
      }
      if (w.conns.empty() || now_ms() >= drain_deadline) break;
    }

    int timeout = kLoopTickMs;
    if (config_.idle_timeout_ms != 0) {
      const int wheel_ms = w.wheel.next_timeout_ms(now_ms());
      if (wheel_ms >= 0 && wheel_ms < timeout) timeout = wheel_ms;
    }
    const int n = w.loop.wait(timeout, events);

    for (int i = 0; i < n; ++i) {
      void* data = events[static_cast<std::size_t>(i)].data.ptr;
      if (data == w.loop.wake_tag()) {
        w.loop.drain_wake();
        continue;
      }
      auto* c = static_cast<Connection*>(data);
      const int cfd = c->fd;  // c may be freed by conn_readable below
      const auto ev = events[static_cast<std::size_t>(i)].events;
      if ((ev & (EPOLLHUP | EPOLLERR)) != 0) {
        close_conn(w, cfd);
        continue;
      }
      if ((ev & EPOLLIN) != 0) conn_readable(w, *c);
      // conn_readable may close; look the fd up again before writing.
      if ((ev & EPOLLOUT) != 0) {
        const auto it = w.conns.find(cfd);
        if (it != w.conns.end()) conn_writable(w, *it->second);
      }
    }

    // Adopt connections the acceptor admitted to us.
    std::vector<int> adopted;
    {
      std::lock_guard lock(w.inbox_mu);
      adopted.swap(w.inbox);
    }
    for (const int fd : adopted) {
      if (stopping_.load(std::memory_order_acquire)) {
        ::close(fd);
        c_.closed.add();
        c_.active.sub(1);
        continue;
      }
      auto c = std::make_unique<Connection>();
      c->fd = fd;
      c->last_activity_ms = now_ms();
      c->interest = EPOLLIN;
      w.loop.add(fd, c->interest, c.get());
      if (config_.idle_timeout_ms != 0) arm_idle(w, *c);
      w.conns.emplace(fd, std::move(c));
    }

    // Idle sweep: wheel entries are hints — re-check the authoritative
    // deadline, close the truly idle, re-arm the rest.
    if (config_.idle_timeout_ms != 0) {
      const std::uint64_t now = now_ms();
      w.wheel.advance(now, [&](std::uint64_t key) {
        const auto it = w.conns.find(static_cast<int>(key));
        if (it == w.conns.end()) return;  // closed since scheduling
        Connection& c = *it->second;
        if (now >= c.last_activity_ms + config_.idle_timeout_ms) {
          c_.idle_timeouts.add();
          obs::log_event(obs::Severity::kInfo, "net.idle_timeout",
                         "connection idle past " +
                             std::to_string(config_.idle_timeout_ms) +
                             " ms");
          close_conn(w, c.fd);
        } else {
          arm_idle(w, c);
        }
      });
    }
  }

  // Stop (drained or out of budget): close whatever remains.
  std::vector<int> rest;
  rest.reserve(w.conns.size());
  for (const auto& [fd, c] : w.conns) rest.push_back(fd);
  for (const int fd : rest) close_conn(w, fd);
}

void PredictServer::arm_idle(Worker& w, const Connection& c) {
  w.wheel.schedule(static_cast<std::uint64_t>(c.fd),
                   c.last_activity_ms + config_.idle_timeout_ms);
}

void PredictServer::close_conn(Worker& w, int fd) {
  const auto it = w.conns.find(fd);
  if (it == w.conns.end()) return;
  w.loop.del(fd);
  ::close(fd);
  w.conns.erase(it);
  c_.closed.add();
  c_.active.sub(1);
}

void PredictServer::conn_update_interest(Worker& w, Connection& c) {
  std::uint32_t want = 0;
  if (c.want_read && !c.close_after_flush) want |= EPOLLIN;
  if (c.pending_out() > 0) want |= EPOLLOUT;
  if (want != c.interest) {
    c.interest = want;
    w.loop.mod(c.fd, want, &c);
  }
}

void PredictServer::conn_readable(Worker& w, Connection& c) {
  if (WEBPPM_FAULT_INJECT("net.conn.stall")) {
    // Injected stall: skip this readiness event (a delay-mode rule already
    // slept inside the site). Level-triggered epoll re-delivers it.
    c_.stalls.add();
    return;
  }
  std::size_t chunk = kReadChunkBytes;
  if (WEBPPM_FAULT_INJECT("net.conn.read")) {
    // Short read: the kernel "returns" a single byte. Data is never lost —
    // the remainder stays queued in the socket — so chaos runs stay
    // byte-identical while every partial-frame path gets exercised.
    chunk = 1;
    c_.short_reads.add();
  }
  const std::size_t old = c.in.size();
  c.in.resize(old + chunk);
  const ssize_t n = ::read(c.fd, c.in.data() + old, chunk);
  if (n <= 0) {
    c.in.resize(old);
    if (n == 0) {
      close_conn(w, c.fd);  // peer closed
    } else if (errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) {
      close_conn(w, c.fd);
    }
    return;
  }
  c.in.resize(old + static_cast<std::size_t>(n));
  c.last_activity_ms = now_ms();
  if (config_.idle_timeout_ms != 0) arm_idle(w, c);
  c_.bytes_read.add(static_cast<std::uint64_t>(n));
  // Queue-stage anchor: frames parsed below queued from this instant
  // (later frames in the same buffer queue behind the earlier ones).
  if (timing_ != nullptr) c.read_done_ns = obs::now_ns();

  conn_process_frames(c);

  if (!conn_flush(c)) {
    close_conn(w, c.fd);
    return;
  }
  if (c.pending_out() > config_.max_write_queue_bytes &&
      config_.max_write_queue_bytes != 0) {
    // Slow client: it keeps sending queries but is not draining responses.
    // Unbounded buffering is how servers fall over; disconnect instead.
    c_.slow_disconnects.add();
    obs::log_event(obs::Severity::kWarn, "net.slow_client_disconnect",
                   std::to_string(c.pending_out()) +
                       " bytes queued exceeds cap " +
                       std::to_string(config_.max_write_queue_bytes));
    close_conn(w, c.fd);
    return;
  }
  if (c.close_after_flush && c.pending_out() == 0) {
    close_conn(w, c.fd);
    return;
  }
  conn_update_interest(w, c);
}

void PredictServer::conn_process_frames(Connection& c) {
  FrameParser parser(config_.max_frame_bytes);
  std::size_t pos = 0;
  while (!c.close_after_flush) {
    const auto frame = parser.next(
        std::span<const std::uint8_t>(c.in).subspan(pos));
    if (frame.result == FrameParser::Result::kNeedMore) break;

    std::string reject;
    if (frame.result == FrameParser::Result::kBad) {
      reject = frame.reason;
    } else {
      // The version byte is per frame, so one connection may interleave v1
      // singles, v2 batches and v3 observes freely (a proxy that predicts
      // for some clients and only reports the rest).
      pos += frame.consumed;
      reject = frame_version(frame.body) == kWireVersionObserve
                   ? conn_handle_observe(c, frame.body)
                   : conn_handle_query(c, frame.body);
    }
    if (!reject.empty()) {
      // Malformed input never crashes and never passes silently: one
      // structured kBadRequest answer, then drain-and-close (after a
      // framing error the byte stream has no trustworthy resync point).
      c_.protocol_errors.add();
      obs::log_event(obs::Severity::kWarn, "net.protocol_error", reject);
      encode_response(Status::kBadRequest, model_.version(), {}, c.out);
      c.close_after_flush = true;
      c.want_read = false;
      break;
    }
  }
  if (pos > 0) c.in.erase(c.in.begin(), c.in.begin() + static_cast<std::ptrdiff_t>(pos));
}

std::string PredictServer::conn_handle_query(
    Connection& c, std::span<const std::uint8_t> body) {
  thread_local std::vector<WireRequest> batch;
  thread_local std::vector<trace::Request> treqs;
  thread_local std::vector<std::uint32_t> slot;
  thread_local serve::BatchQueryScratch scratch;

  // Stage attribution: a sampled frame times queue → decode → predict →
  // serialize here and marks the connection so the flush that pushes its
  // response is timed too. Its predict stage covers entry validation plus
  // the whole query_batch call. Unsampled frames pay two clock reads.
  const bool stage =
      timing_ != nullptr && (c.stage_tick++ % kStageSampleEvery) == 0;
  const std::uint64_t s0 = stage ? obs::now_ns() : 0;
  // A v1 frame is a batch of one. Its decoder checks the flag bits, so an
  // unknown bit rejects the whole frame (and closes the connection) — the
  // v1 contract — before the per-entry check below could degrade a slot.
  const bool v1 = frame_version(body) != kWireVersionBatch;
  if (v1) batch.resize(1);
  const auto err = v1 ? decode_request(body, batch[0])
                      : decode_batch_request(body, batch);
  if (!err.ok()) return err.reason;

  const std::uint64_t q0 = timing_ != nullptr ? obs::now_ns() : 0;
  if (stage) {
    if (c.read_done_ns != 0) timing_->stage_queue.record(s0 - c.read_done_ns);
    timing_->stage_decode.record(q0 - s0);
  }

  // Per-entry validation the batch decoder deliberately leaves to us: an
  // entry with unknown flag bits degrades its own slot to kBadRequest — one
  // bad entry never kills the batch or the connection (batch clients asked
  // for independent sub-request status, so they get it).
  constexpr std::uint32_t kBadSlot = 0xffffffffu;
  slot.assign(batch.size(), kBadSlot);
  treqs.clear();
  std::uint64_t bad_entries = 0;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    if ((batch[i].flags & ~kFlagErrorStatus) != 0) {
      ++bad_entries;
      continue;
    }
    slot[i] = static_cast<std::uint32_t>(treqs.size());
    treqs.push_back(to_trace_request(batch[i]));
  }

  // One shard lock per touched shard, one snapshot load, one flat
  // prediction pool — see ModelServer::query_batch. The snapshot it loaded
  // labels every answer; version() read now could name a later publish.
  model_.query_batch(treqs, scratch);
  const std::uint64_t s2 = stage ? obs::now_ns() : 0;
  if (stage) timing_->stage_predict.record(s2 - q0);

  // Serialize exactly once, straight into the connection's write ring: no
  // WireResponse, no staging buffer, flushes coalesced by the ring's
  // scatter/gather sendmsg. Both framings carry the same sub-responses.
  const auto status_of = [&](std::size_t i) {
    return slot[i] == kBadSlot
               ? Status::kBadRequest
               : wire_status(scratch.items[slot[i]].result, batch[i].flags,
                             scratch.snapshot_version);
  };
  const auto preds_of = [&](std::size_t i) {
    return slot[i] == kBadSlot ? std::span<const ppm::Prediction>{}
                               : scratch.predictions_of(slot[i]);
  };
  std::size_t dropped = 0;
  if (v1) {
    dropped = encode_response(status_of(0), scratch.snapshot_version,
                              preds_of(0), c.out);
  } else {
    BatchResponseWriter writer(c.out);
    writer.begin();
    for (std::size_t i = 0; i < batch.size(); ++i) {
      writer.add(status_of(i), scratch.snapshot_version, preds_of(i));
    }
    dropped = writer.finish();
  }

  const auto nsub = static_cast<std::uint64_t>(batch.size());
  c_.requests.add(nsub);
  c_.responses.add(nsub);
  if (!v1) c_.batches.add();
  if (bad_entries != 0) c_.batch_entry_errors.add(bad_entries);
  if (dropped != 0) c_.responses_truncated.add(dropped);
  if (timing_ != nullptr) {
    const std::uint64_t s3 = obs::now_ns();
    // Mean per-sub-request latency, so batched and single frames land in
    // one comparable histogram.
    timing_->request_latency.record((s3 - q0) / nsub);
    if (stage) {
      timing_->stage_serialize.record(s3 - s2);
      c.stage_flush_sample = true;
    }
  }
  return {};
}

std::string PredictServer::conn_handle_observe(
    Connection& c, std::span<const std::uint8_t> body) {
  (void)c;
  thread_local std::vector<WireRequest> obs_batch;
  const auto err = decode_observe_frame(body, obs_batch);
  if (!err.ok()) return err.reason;

  // Same per-entry flag discipline as a batch, minus the response: an entry
  // with unknown flag bits is dropped and counted, the rest of the frame is
  // still absorbed. Malformed frames (caught above) take the usual
  // kBadRequest + drain-and-close path in conn_process_frames.
  std::uint64_t bad_entries = 0;
  for (const auto& entry : obs_batch) {
    if ((entry.flags & ~kFlagErrorStatus) != 0) {
      ++bad_entries;
      continue;
    }
    model_.observe(to_trace_request(entry));
  }
  c_.observe_frames.add();
  const auto fed = static_cast<std::uint64_t>(obs_batch.size()) - bad_entries;
  if (fed != 0) c_.observes.add(fed);
  if (bad_entries != 0) c_.observe_entry_errors.add(bad_entries);
  return {};
}

bool PredictServer::conn_flush(Connection& c) {
  // Flush-stage attribution rides the sampled frame: the frame that timed
  // decode/predict/serialize marked the connection, and the flush pushing
  // its response out is timed here.
  if (!c.stage_flush_sample) return conn_flush_impl(c);
  c.stage_flush_sample = false;
  const std::uint64_t f0 = obs::now_ns();
  const bool ok = conn_flush_impl(c);
  timing_->stage_flush.record(obs::now_ns() - f0);
  return ok;
}

bool PredictServer::conn_flush_impl(Connection& c) {
  while (c.pending_out() > 0) {
    std::size_t limit = 0;  // 0 = everything pending, wrap included
    bool injected_short = false;
    if (WEBPPM_FAULT_INJECT("net.conn.write")) {
      // Short write: one byte goes out, the rest stays queued — the
      // partial-write path runs for real, the byte stream stays intact.
      limit = 1;
      injected_short = true;
      c_.short_writes.add();
    }
    // The ring hands the kernel both physical segments of the pending range
    // in one sendmsg (writev-style), so responses accumulated across many
    // frames coalesce into one syscall.
    const ssize_t n = c.out.flush(c.fd, limit);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) {
        return true;  // kernel buffer full; EPOLLOUT will resume
      }
      return false;  // broken pipe etc.
    }
    c_.bytes_written.add(static_cast<std::uint64_t>(n));
    if (injected_short) break;  // leave the remainder for EPOLLOUT
  }
  return true;
}

void PredictServer::conn_writable(Worker& w, Connection& c) {
  if (!conn_flush(c)) {
    close_conn(w, c.fd);
    return;
  }
  if (c.close_after_flush && c.pending_out() == 0) {
    close_conn(w, c.fd);
    return;
  }
  c.last_activity_ms = now_ms();
  conn_update_interest(w, c);
}

// ---------------------------------------------------------------------------
// Admin replies (text): GET /metrics, /healthz, /scoreboard, /snapshot.

AdminReply PredictServer::admin_response(const std::string& path) {
  std::string body;
  std::string status = "200 OK";
  if (path == "/metrics") {
    if (config_.metrics == nullptr) {
      status = "503 Service Unavailable";
      body = "no metrics registry attached\n";
    } else {
      // The exact same render the file reporter uses — shared code path,
      // asserted byte-identical by the exposition golden test.
      body = serve::render_metrics_exposition(model_, *config_.metrics);
    }
  } else if (path == "/healthz") {
    // First line: the overall state word (what a human or a `grep -q ok`
    // liveness check reads). The lines after it are the machine-parseable
    // fields the cluster prober and ShardSupervisor need — serving snapshot
    // version and the degraded/drift flags — so checking version skew does
    // not cost a second /snapshot round-trip. net::parse_healthz is the
    // canonical reader.
    const bool draining = stopping_.load(std::memory_order_acquire);
    const auto snap = model_.snapshot();
    std::string state;
    if (draining) {
      status = "503 Service Unavailable";
      state = "draining";
    } else if (snap == nullptr) {
      status = "503 Service Unavailable";
      state = "no-model";
    } else if (model_.degraded()) {
      state = "degraded";  // still serving (popularity fallback): 200
    } else if (model_.drift_alert()) {
      // Serving fine but the scoreboard's DriftWatch says prediction
      // quality diverged from its long-run baseline — worth a page that is
      // softer than degraded, so still 200.
      state = "drift";
    } else {
      state = "ok";
    }
    body.append(state);
    body.append("\nversion ")
        .append(std::to_string(snap != nullptr ? snap->version : 0));
    body.append("\ndegraded ").append(model_.degraded() ? "1" : "0");
    body.append("\ndrift ").append(model_.drift_alert() ? "1" : "0");
    body.append("\ndraining ").append(draining ? "1" : "0");
    body.append("\n");
  } else if (path == "/scoreboard") {
    if (model_.scoreboard() == nullptr) {
      status = "503 Service Unavailable";
      body = "no scoreboard\n";
    } else {
      body = model_.scoreboard_json();
    }
  } else if (path == "/snapshot") {
    // What is this box serving, and how big is it? One line per field so
    // `curl :port/snapshot | grep bytes` works without a JSON parser.
    const auto snap = model_.snapshot();
    if (snap == nullptr) {
      status = "503 Service Unavailable";
      body = "no-model\n";
    } else {
      body.append("version ").append(std::to_string(snap->version));
      body.append("\nmodel ")
          .append(snap->model != nullptr ? snap->model->name() : "none");
      body.append("\nnodes ")
          .append(std::to_string(
              snap->model != nullptr ? snap->model->node_count() : 0));
      body.append("\nbytes ")
          .append(std::to_string(snap->storage_bytes()));
      body.append("\ndegraded ").append(snap->degraded() ? "1" : "0");
      body.append("\n");
    }
  } else {
    status = "404 Not Found";
    body = "unknown path\n";
  }
  return {status, body};
}

}  // namespace webppm::net
