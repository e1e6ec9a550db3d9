#include "cluster/router.hpp"

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <thread>

#include "fault/fault.hpp"

namespace webppm::cluster {
namespace {

using net::now_ms;
using net::send_all;

/// The router's own degraded answer for one query: kRetryLater with
/// snapshot version 0 (the router serves no snapshot — version 0 marks
/// the answer as router-degraded, distinguishable from any shard's).
net::WireResponse retry_later_response() {
  net::WireResponse resp;
  resp.status = net::Status::kRetryLater;
  resp.snapshot_version = 0;
  return resp;
}

}  // namespace

PredictRouter::PredictRouter(RouterConfig config)
    : config_(std::move(config)),
      ring_(config_.shards.empty() ? 1 : config_.shards.size(),
            config_.ring_replicas),
      metrics_(obs::attached_or_owned(config_.metrics, own_metrics_)),
      ins_{
          .requests = &metrics_.counter("webppm_cluster_requests_total"),
          .responses = &metrics_.counter("webppm_cluster_responses_total"),
          .batches = &metrics_.counter("webppm_cluster_batches_total"),
          .degraded = &metrics_.counter("webppm_cluster_degraded_total"),
          .retries = &metrics_.counter("webppm_cluster_retries_total"),
          .connect_failures =
              &metrics_.counter("webppm_cluster_connect_failures_total"),
          .send_failures =
              &metrics_.counter("webppm_cluster_send_failures_total"),
          .read_failures =
              &metrics_.counter("webppm_cluster_read_failures_total"),
          .retry_later = &metrics_.counter("webppm_cluster_retry_later_total"),
          .breaker_opens =
              &metrics_.counter("webppm_cluster_breaker_opens_total"),
          .breaker_closes =
              &metrics_.counter("webppm_cluster_breaker_closes_total"),
          .give_ups = &metrics_.counter("webppm_cluster_give_ups_total"),
          .quiesces = &metrics_.counter("webppm_cluster_quiesces_total"),
          .readmits = &metrics_.counter("webppm_cluster_readmits_total"),
          .probes = &metrics_.counter("webppm_cluster_probes_total"),
          .probe_failures =
              &metrics_.counter("webppm_cluster_probe_failures_total"),
          .protocol_errors =
              &metrics_.counter("webppm_cluster_protocol_errors_total"),
          .version_skew = &metrics_.gauge("webppm_cluster_version_skew"),
          .shards_serving = &metrics_.gauge("webppm_cluster_shards_serving"),
          .breakers_open = &metrics_.gauge("webppm_cluster_breakers_open"),
      },
      budget_(config_.retry_budget, &metrics_),
      acceptor_(
          net::AcceptorConfig{
              .host = config_.host,
              .port = config_.port,
              .admin = config_.admin,
              .admin_port = config_.admin_port,
              .max_connections = config_.max_connections,
              // Each connection is read on its own blocking thread.
              .nonblocking = false,
              .admit = std::bind_front(&PredictRouter::admit, this),
              .live =
                  [this] { return active_.load(std::memory_order_relaxed); },
              .shed_version = [] { return std::uint64_t{0}; },
              .admin_response =
                  std::bind_front(&PredictRouter::admin_response, this),
          },
          metrics_, "webppm_cluster") {
  if (config_.max_frame_bytes == 0) {
    config_.max_frame_bytes = net::kDefaultMaxFrameBytes;
  }
  upstreams_.reserve(config_.shards.size());
  for (std::size_t i = 0; i < config_.shards.size(); ++i) {
    UpstreamConfig ucfg = config_.upstream;
    ucfg.endpoint = config_.shards[i];
    ucfg.seed = config_.upstream.seed + i;
    upstreams_.push_back(std::make_unique<Upstream>(
        std::move(ucfg), &budget_, &stopping_, &ins_));
  }
  health_.resize(config_.shards.size());
}

PredictRouter::~PredictRouter() { shutdown(); }

bool PredictRouter::start(std::string* error) {
  if (started_) {
    if (error != nullptr) *error = "already started";
    return false;
  }
  if (upstreams_.empty()) {
    if (error != nullptr) *error = "no shards configured";
    return false;
  }
  stopping_.store(false, std::memory_order_release);
  const std::string err = acceptor_.start();
  if (!err.empty()) {
    if (error != nullptr) *error = err;
    return false;
  }
  started_ = true;
  if (config_.probe_interval_ms != 0) {
    prober_ = std::thread([this] { prober_main(); });
  }
  if (error != nullptr) error->clear();
  return true;
}

void PredictRouter::shutdown() {
  if (!started_) return;
  stopping_.store(true, std::memory_order_release);
  acceptor_.stop();
  if (prober_.joinable()) prober_.join();
  reap_finished(/*all=*/true);
  started_ = false;
}

// ---------------------------------------------------------------------------
// Admission: one forwarding thread per admitted connection.

void PredictRouter::admit(int fd) {
  // Threads of connections that closed are joined at the next admission
  // (and at shutdown), so finished threads never outnumber the peak of
  // live connections.
  reap_finished(/*all=*/false);
  net::set_socket_timeout(fd, SO_RCVTIMEO, net::kLoopTickMs);
  auto conn = std::make_unique<DownConn>();
  conn->fd = fd;
  DownConn* raw = conn.get();
  active_.fetch_add(1, std::memory_order_relaxed);
  {
    std::lock_guard lk(conns_mu_);
    conns_.push_back(std::move(conn));
  }
  raw->thread = std::thread([this, raw] { conn_main(raw); });
}

void PredictRouter::reap_finished(bool all) {
  std::vector<std::unique_ptr<DownConn>> reap;
  {
    std::lock_guard lk(conns_mu_);
    for (auto it = conns_.begin(); it != conns_.end();) {
      if (all || (*it)->done.load(std::memory_order_acquire)) {
        reap.push_back(std::move(*it));
        it = conns_.erase(it);
      } else {
        ++it;
      }
    }
  }
  for (auto& c : reap) {
    if (c->thread.joinable()) c->thread.join();
  }
}

// ---------------------------------------------------------------------------
// Downstream connection: blocking read loop, one thread per connection.

void PredictRouter::conn_main(DownConn* c) {
  std::vector<std::uint8_t> in;
  std::vector<std::uint8_t> out;
  std::size_t parsed = 0;  // bytes of `in` already consumed by frames
  net::FrameParser parser(config_.max_frame_bytes);
  std::uint8_t chunk[net::kReadChunkBytes];
  bool close_conn = false;

  while (!close_conn && !stopping_.load(std::memory_order_acquire)) {
    const ssize_t n = ::read(c->fd, chunk, sizeof chunk);
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) {
        continue;  // SO_RCVTIMEO tick: re-check the stop flag
      }
      break;
    }
    if (n == 0) break;  // client closed
    in.insert(in.end(), chunk, chunk + n);

    for (;;) {
      const auto frame = parser.next(
          std::span<const std::uint8_t>(in).subspan(parsed));
      if (frame.result == net::FrameParser::Result::kNeedMore) break;
      if (frame.result == net::FrameParser::Result::kBad) {
        // Mirror the server: answer kBadRequest, then close after flush.
        ins_.protocol_errors->add();
        net::WireResponse bad;
        bad.status = net::Status::kBadRequest;
        out.clear();
        net::encode_response(bad, out);
        send_all(c->fd, out.data(), out.size());
        close_conn = true;
        break;
      }
      const auto whole = std::span<const std::uint8_t>(in).subspan(
          parsed, frame.consumed);
      out.clear();
      const bool keep = handle_frame(whole, frame.body, out);
      if (!out.empty() && !send_all(c->fd, out.data(), out.size())) {
        close_conn = true;
        break;
      }
      if (!keep) {
        close_conn = true;
        break;
      }
      parsed += frame.consumed;
    }
    if (parsed > 0) {
      // Compact the consumed prefix so a pipelining client cannot grow
      // the buffer without bound.
      in.erase(in.begin(),
               in.begin() + static_cast<std::ptrdiff_t>(parsed));
      parsed = 0;
    }
  }
  ::close(c->fd);
  active_.fetch_sub(1, std::memory_order_relaxed);
  c->done.store(true, std::memory_order_release);
}

bool PredictRouter::handle_frame(std::span<const std::uint8_t> frame,
                                 std::span<const std::uint8_t> body,
                                 std::vector<std::uint8_t>& out) {
  // Either query frame decodes into entries; a v1 frame is the one-entry
  // case (its decoder rejects unknown flag bits and any version byte other
  // than 1, as the server's does). A frame that does not decode gets the
  // server's answer: kBadRequest, close after flush.
  const bool v1 = net::frame_version(body) != net::kWireVersionBatch;
  std::vector<net::WireRequest> entries(v1 ? 1 : 0);
  const auto derr = v1 ? net::decode_request(body, entries[0])
                       : net::decode_batch_request(body, entries);
  if (!derr.ok()) {
    ins_.protocol_errors->add();
    net::WireResponse bad;
    bad.status = net::Status::kBadRequest;
    net::encode_response(bad, out);
    return false;
  }
  if (!v1) ins_.batches->add();
  ins_.requests->add(entries.size());
  forward(frame, entries, v1, out);
  ins_.responses->add(entries.size());
  return true;
}

void PredictRouter::forward(std::span<const std::uint8_t> frame,
                            const std::vector<net::WireRequest>& entries,
                            bool v1, std::vector<std::uint8_t>& out) {
  // Only two things depend on the frame's version: the response cap (a
  // batch response aggregates many prediction lists) and how a give-up
  // answer is framed.
  const std::uint32_t resp_cap =
      v1 ? config_.max_frame_bytes
         : std::max(config_.max_frame_bytes, net::kDefaultMaxBatchFrameBytes);

  // Map entries to shards; detect the single-shard fast path.
  std::vector<std::uint32_t> entry_shard(entries.size());
  bool single = true;
  for (std::size_t i = 0; i < entries.size(); ++i) {
    entry_shard[i] = static_cast<std::uint32_t>(ring_.shard_of(entries[i].client));
    if (entry_shard[i] != entry_shard[0]) single = false;
  }

  if (single) {
    // Every entry belongs to one shard (always for v1, the common case for
    // a batch under client-disjoint load): forward the frame verbatim and
    // relay the shard's response byte-for-byte.
    std::vector<std::uint8_t> resp;
    std::string err;
    if (upstreams_[entry_shard[0]]->round_trip(frame, resp_cap, resp, &err)) {
      out.insert(out.end(), resp.begin(), resp.end());
      return;
    }
    // Budget spent: degrade these answers; the connection lives on.
    ins_.degraded->add(entries.size());
    if (v1) {
      net::encode_response(retry_later_response(), out);
    } else {
      std::vector<net::WireResponse> slots(entries.size(),
                                           retry_later_response());
      net::encode_batch_response(slots, out);
    }
    return;
  }

  // Mixed batch: split into per-shard sub-batches (entry order within a
  // shard preserved), round-trip each sequentially, reassemble by the
  // original slot. Re-encoding a decoded sub-response is bit-exact, so
  // the reassembled frame matches what one big server would emit.
  std::vector<net::WireResponse> slots(entries.size());
  std::vector<std::uint32_t> shards_in_order;
  for (std::size_t i = 0; i < entries.size(); ++i) {
    if (std::find(shards_in_order.begin(), shards_in_order.end(),
                  entry_shard[i]) == shards_in_order.end()) {
      shards_in_order.push_back(entry_shard[i]);
    }
  }
  std::vector<net::WireRequest> sub;
  std::vector<std::size_t> sub_slots;
  std::vector<std::uint8_t> sub_frame, resp;
  std::vector<net::WireResponse> sub_resps;
  for (const std::uint32_t s : shards_in_order) {
    sub.clear();
    sub_slots.clear();
    for (std::size_t i = 0; i < entries.size(); ++i) {
      if (entry_shard[i] == s) {
        sub.push_back(entries[i]);
        sub_slots.push_back(i);
      }
    }
    sub_frame.clear();
    net::encode_batch_request(sub, sub_frame);
    std::string err;
    bool ok =
        upstreams_[s]->round_trip(sub_frame, resp_cap, resp, &err);
    if (ok) {
      const auto rbody = std::span<const std::uint8_t>(resp).subspan(
          net::kFrameHeaderBytes);
      ok = net::decode_batch_response(rbody, sub_resps).ok() &&
           sub_resps.size() == sub_slots.size();
    }
    if (ok) {
      for (std::size_t j = 0; j < sub_slots.size(); ++j) {
        slots[sub_slots[j]] = std::move(sub_resps[j]);
      }
    } else {
      // This shard's slice degrades per-slot; the other shards' answers
      // in the same batch are untouched.
      ins_.degraded->add(sub_slots.size());
      for (const std::size_t slot : sub_slots) {
        slots[slot] = retry_later_response();
      }
    }
  }
  net::encode_batch_response(slots, out);
}

// ---------------------------------------------------------------------------
// Health prober: per-shard GET /healthz on a cadence.

void PredictRouter::prober_main() {
  while (!stopping_.load(std::memory_order_acquire)) {
    for (std::size_t i = 0; i < upstreams_.size(); ++i) {
      if (stopping_.load(std::memory_order_acquire)) break;
      const auto& ep = upstreams_[i]->endpoint();
      if (ep.admin_port == 0) continue;
      ins_.probes->add();
      ShardHealth h;
      std::string err;
      std::string body;
      if (WEBPPM_FAULT_INJECT("cluster.probe")) {
        // Injected probe failure: the shard is fine but this round's
        // probe is lost — the prober must degrade gracefully (keep the
        // breaker state, mark unreachable) without flapping the cluster.
        err = "injected probe failure";
      } else {
        body = net::fetch_admin(ep.host, ep.admin_port, "/healthz", &err);
      }
      if (err.empty() && net::parse_healthz(body, h.info)) {
        h.reachable = true;
        upstreams_[i]->note_probe(h.info.serving());
      } else {
        ins_.probe_failures->add();
      }
      {
        std::lock_guard lk(health_mu_);
        health_[i] = h;
      }
    }
    refresh_gauges();
    const std::uint64_t deadline = now_ms() + config_.probe_interval_ms;
    while (!stopping_.load(std::memory_order_acquire) &&
           now_ms() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(
          std::min<std::uint64_t>(20, config_.probe_interval_ms)));
    }
  }
}

PredictRouter::ShardHealth PredictRouter::shard_health(
    std::size_t shard) const {
  std::lock_guard lk(health_mu_);
  return health_[shard];
}

std::uint64_t PredictRouter::version_skew() const {
  std::uint64_t lo = ~0ull, hi = 0;
  std::size_t seen = 0;
  std::lock_guard lk(health_mu_);
  for (const auto& h : health_) {
    if (!h.reachable || !h.info.serving()) continue;
    lo = std::min(lo, h.info.version);
    hi = std::max(hi, h.info.version);
    ++seen;
  }
  return seen >= 2 ? hi - lo : 0;
}

void PredictRouter::refresh_gauges() {
  std::int64_t serving = 0;
  {
    std::lock_guard lk(health_mu_);
    for (const auto& h : health_) {
      if (h.reachable && h.info.serving()) ++serving;
    }
  }
  std::int64_t open = 0;
  for (const auto& u : upstreams_) {
    if (u->breaker_open()) ++open;
  }
  ins_.version_skew->set(static_cast<std::int64_t>(version_skew()));
  ins_.shards_serving->set(serving);
  ins_.breakers_open->set(open);
}

// ---------------------------------------------------------------------------
// Admin replies (text): GET /metrics, /healthz, /cluster.

net::AdminReply PredictRouter::admin_response(const std::string& path) {
  std::string body;
  std::string status = "200 OK";
  if (path == "/metrics") {
    if (config_.metrics == nullptr) {
      status = "503 Service Unavailable";
      body = "no metrics registry attached\n";
    } else {
      refresh_gauges();
      body = config_.metrics->prometheus_text();
    }
  } else if (path == "/healthz") {
    // The router serves no snapshot itself; its health is "can it route".
    std::size_t reachable = 0;
    {
      std::lock_guard lk(health_mu_);
      for (const auto& h : health_) {
        if (h.reachable && h.info.serving()) ++reachable;
      }
    }
    if (stopping_.load(std::memory_order_acquire)) {
      status = "503 Service Unavailable";
      body = "draining\n";
    } else if (config_.probe_interval_ms != 0 && reachable == 0) {
      status = "503 Service Unavailable";
      body = "no-shards\n";
    } else if (config_.probe_interval_ms != 0 &&
               reachable < upstreams_.size()) {
      body = "degraded\n";  // routing, but some shards are out: 200
    } else {
      body = "ok\n";
    }
    body.append("shards ").append(std::to_string(upstreams_.size()));
    body.append("\nserving ").append(std::to_string(reachable));
    body.append("\nversion_skew ").append(std::to_string(version_skew()));
    body.append("\n");
  } else if (path == "/cluster") {
    // One line per shard: state the supervisor and a human both read.
    // Skew first — version_skew() takes health_mu_ itself.
    const std::uint64_t skew = version_skew();
    std::lock_guard lk(health_mu_);
    for (std::size_t i = 0; i < upstreams_.size(); ++i) {
      const auto& u = *upstreams_[i];
      const auto& h = health_[i];
      body.append("shard ").append(std::to_string(i));
      body.append(" endpoint ")
          .append(u.endpoint().host)
          .append(":")
          .append(std::to_string(u.endpoint().port));
      body.append(" state ").append(
          !h.reachable ? "unreachable"
                       : (h.info.state.empty() ? "unknown" : h.info.state));
      body.append(" version ").append(std::to_string(h.info.version));
      body.append(" breaker ").append(u.breaker_open() ? "open" : "closed");
      body.append(" admitting ").append(u.admitting() ? "1" : "0");
      body.append(" retries ")
          .append(std::to_string(
              u.counters().retries.load(std::memory_order_relaxed)));
      body.append(" give_ups ")
          .append(std::to_string(
              u.counters().give_ups.load(std::memory_order_relaxed)));
      body.append("\n");
    }
    body.append("version_skew ").append(std::to_string(skew));
    body.append("\n");
  } else {
    status = "404 Not Found";
    body = "unknown path " + path + "\n";
  }
  return {status, body};
}

}  // namespace webppm::cluster
