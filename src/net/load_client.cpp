#include "net/load_client.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <mutex>
#include <thread>

#include "net/event_loop.hpp"

namespace webppm::net {
namespace {

using Clock = std::chrono::steady_clock;

bool read_exact(int fd, std::uint8_t* data, std::size_t len,
                std::string* error) {
  std::size_t done = 0;
  while (done < len) {
    const ssize_t n = ::read(fd, data + done, len - done);
    if (n == 0) {
      *error = "connection closed by peer";
      return false;
    }
    if (n < 0) {
      if (errno == EINTR) continue;
      *error = "read: " + errno_string();
      return false;
    }
    done += static_cast<std::size_t>(n);
  }
  return true;
}

struct ConnOutcome {
  std::uint64_t requests = 0;
  std::uint64_t responses = 0;
  std::array<std::uint64_t, 6> status_counts{};
  std::vector<double> latencies_us;
  std::vector<std::vector<std::uint8_t>> frames;
  std::string error;
};

/// Closed-loop v1 replay of one connection's shard: one frame per query.
void run_conn_single(int fd, const LoadClientConfig& config,
                     std::span<const WireRequest> reqs, ConnOutcome& oc) {
  std::vector<std::uint8_t> req_buf, resp_frame;
  for (const auto& req : reqs) {
    req_buf.clear();
    encode_request(req, req_buf);
    const auto q0 = Clock::now();
    if (!send_all(fd, req_buf.data(), req_buf.size(), &oc.error)) return;
    ++oc.requests;
    if (!read_frame(fd, config.max_frame_bytes, resp_frame, &oc.error)) {
      return;
    }
    WireResponse resp;
    const auto derr = decode_response(
        std::span<const std::uint8_t>(resp_frame).subspan(kFrameHeaderBytes),
        resp);
    if (!derr.ok()) {
      oc.error = "response decode: " + derr.reason;
      return;
    }
    oc.latencies_us.push_back(
        std::chrono::duration<double, std::micro>(Clock::now() - q0).count());
    ++oc.responses;
    ++oc.status_counts[static_cast<std::size_t>(resp.status)];
    if (config.record_responses) oc.frames.push_back(resp_frame);
  }
}

/// Closed-loop v2 replay: up to batch_size queries per frame. The batch
/// frame's round-trip is recorded once per sub-request — every query in it
/// left and returned on the same wire exchange, so that *is* each one's
/// latency; percentiles stay per-request and comparable with v1 runs.
void run_conn_batched(int fd, const LoadClientConfig& config,
                      std::span<const WireRequest> reqs, ConnOutcome& oc) {
  const std::uint32_t resp_cap =
      std::max(config.max_frame_bytes, kDefaultMaxBatchFrameBytes);
  std::vector<std::uint8_t> req_buf, resp_frame;
  std::vector<WireResponse> subs;
  for (std::size_t off = 0; off < reqs.size(); off += config.batch_size) {
    const std::size_t n = std::min(config.batch_size, reqs.size() - off);
    req_buf.clear();
    encode_batch_request(reqs.subspan(off, n), req_buf);
    const auto q0 = Clock::now();
    if (!send_all(fd, req_buf.data(), req_buf.size(), &oc.error)) return;
    oc.requests += n;
    if (!read_frame(fd, resp_cap, resp_frame, &oc.error)) return;
    const auto derr = decode_batch_response(
        std::span<const std::uint8_t>(resp_frame).subspan(kFrameHeaderBytes),
        subs);
    if (!derr.ok()) {
      oc.error = "batch response decode: " + derr.reason;
      return;
    }
    if (subs.size() != n) {
      oc.error = "batch response carries " + std::to_string(subs.size()) +
                 " sub-responses, sent " + std::to_string(n);
      return;
    }
    const double rtt_us =
        std::chrono::duration<double, std::micro>(Clock::now() - q0).count();
    for (const auto& sub : subs) {
      ++oc.status_counts[static_cast<std::size_t>(sub.status)];
      oc.latencies_us.push_back(rtt_us);
    }
    oc.responses += n;
    if (config.record_responses) oc.frames.push_back(resp_frame);
  }
}

/// One-way v3 replay: observations-per-frame observe frames, no responses.
/// After the stream the connection half-closes and waits for the server's
/// FIN — the server consumes a connection's bytes in order, so the FIN
/// proves every frame was decoded and fed to the observer tap before the
/// client returns (the sync barrier the online-training convergence gate
/// leans on).
void run_conn_observe(int fd, const LoadClientConfig& config,
                      std::span<const WireRequest> reqs, ConnOutcome& oc) {
  constexpr std::size_t kDefaultPerFrame = 256;
  const std::size_t per_frame =
      config.batch_size == 0 ? kDefaultPerFrame : config.batch_size;
  std::vector<std::uint8_t> req_buf;
  for (std::size_t off = 0; off < reqs.size(); off += per_frame) {
    const std::size_t n = std::min(per_frame, reqs.size() - off);
    req_buf.clear();
    encode_observe_frame(reqs.subspan(off, n), req_buf);
    if (!send_all(fd, req_buf.data(), req_buf.size(), &oc.error)) return;
    oc.requests += n;
  }
  ::shutdown(fd, SHUT_WR);
  std::uint8_t byte = 0;
  for (;;) {
    const ssize_t n = ::read(fd, &byte, 1);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;  // FIN (or error): the server is done with our bytes
  }
}

}  // namespace

WireRequest LoadClient::to_wire(const trace::Request& r) {
  WireRequest w;
  w.client = r.client;
  w.url = r.url;
  w.timestamp = r.timestamp;
  w.flags = r.status >= 400 ? kFlagErrorStatus : std::uint8_t{0};
  return w;
}

std::vector<std::vector<WireRequest>> LoadClient::shard(
    std::span<const trace::Request> requests, std::size_t connections) {
  std::vector<std::vector<WireRequest>> shards(
      connections == 0 ? 1 : connections);
  for (const auto& r : requests) {
    shards[r.client % shards.size()].push_back(to_wire(r));
  }
  return shards;
}

LoadClientResult LoadClient::run(
    std::span<const trace::Request> requests) const {
  return run_sharded(shard(requests, config_.connections));
}

LoadClientResult LoadClient::run_sharded(
    const std::vector<std::vector<WireRequest>>& shards) const {
  std::vector<ConnOutcome> outcomes(shards.size());

  const auto t0 = Clock::now();
  std::vector<std::thread> threads;
  threads.reserve(shards.size());
  for (std::size_t i = 0; i < shards.size(); ++i) {
    threads.emplace_back([this, &shards, &outcomes, i] {
      ConnOutcome& oc = outcomes[i];
      const OwnedFd fd = connect_to(config_.host, config_.port, 0, &oc.error);
      if (!fd.valid()) return;
      if (config_.record_responses) oc.frames.reserve(shards[i].size());
      oc.latencies_us.reserve(shards[i].size());
      if (config_.observe) {
        run_conn_observe(fd.get(), config_, shards[i], oc);
      } else if (config_.batch_size == 0) {
        run_conn_single(fd.get(), config_, shards[i], oc);
      } else {
        run_conn_batched(fd.get(), config_, shards[i], oc);
      }
    });
  }
  for (auto& t : threads) t.join();
  const double seconds =
      std::chrono::duration<double>(Clock::now() - t0).count();

  LoadClientResult res;
  res.ok = true;
  res.seconds = seconds;
  std::vector<double> all;
  for (auto& oc : outcomes) {
    res.requests += oc.requests;
    res.responses += oc.responses;
    for (std::size_t s = 0; s < oc.status_counts.size(); ++s) {
      res.status_counts[s] += oc.status_counts[s];
    }
    all.insert(all.end(), oc.latencies_us.begin(), oc.latencies_us.end());
    if (!oc.error.empty() && res.error.empty()) {
      res.ok = false;
      res.error = "connection " + std::to_string(&oc - outcomes.data()) +
                  ": " + oc.error;
    }
    if (config_.record_responses) res.frames.push_back(std::move(oc.frames));
  }
  std::sort(all.begin(), all.end());
  if (!all.empty()) {
    res.p50_us = all[all.size() / 2];
    res.p99_us = all[std::min(all.size() - 1, all.size() * 99 / 100)];
  }
  res.qps = seconds > 0 ? static_cast<double>(res.responses) / seconds : 0.0;
  return res;
}

OwnedFd connect_to(const std::string& host, std::uint16_t port,
                   std::uint64_t io_timeout_ms, std::string* error) {
  OwnedFd fd(::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0));
  if (!fd.valid()) {
    *error = "socket: " + errno_string();
    return {};
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    *error = "inet_pton " + host + ": invalid address";
    return {};
  }
  if (io_timeout_ms != 0) {
    set_socket_timeout(fd.get(), SO_SNDTIMEO, io_timeout_ms);
    set_socket_timeout(fd.get(), SO_RCVTIMEO, io_timeout_ms);
  }
  if (::connect(fd.get(), reinterpret_cast<const sockaddr*>(&addr),
                sizeof addr) != 0) {
    *error = "connect " + host + ":" + std::to_string(port) + ": " +
             errno_string();
    return {};
  }
  const int one = 1;
  ::setsockopt(fd.get(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return fd;
}

bool read_frame(int fd, std::uint32_t max_frame_bytes,
                std::vector<std::uint8_t>& frame, std::string* error) {
  frame.resize(kFrameHeaderBytes);
  if (!read_exact(fd, frame.data(), kFrameHeaderBytes, error)) return false;
  const std::uint32_t len =
      static_cast<std::uint32_t>(frame[0]) |
      (static_cast<std::uint32_t>(frame[1]) << 8) |
      (static_cast<std::uint32_t>(frame[2]) << 16) |
      (static_cast<std::uint32_t>(frame[3]) << 24);
  if (len == 0 || len > max_frame_bytes) {
    *error = "response frame length " + std::to_string(len) +
             " outside (0, " + std::to_string(max_frame_bytes) + "]";
    return false;
  }
  frame.resize(kFrameHeaderBytes + len);
  return read_exact(fd, frame.data() + kFrameHeaderBytes, len, error);
}

std::string fetch_admin(const std::string& host, std::uint16_t port,
                        const std::string& path, std::string* error,
                        std::string* status_line) {
  std::string err;
  OwnedFd fd = connect_to(host, port, 0, &err);
  if (!fd.valid()) {
    if (error != nullptr) *error = err;
    return {};
  }
  const std::string req = "GET " + path + " HTTP/1.0\r\n\r\n";
  if (!send_all(fd.get(), req.data(), req.size(), &err)) {
    if (error != nullptr) *error = err;
    return {};
  }
  std::string raw;
  char buf[4096];
  while (true) {
    const ssize_t n = ::read(fd.get(), buf, sizeof buf);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;  // server closes after one exchange
    raw.append(buf, static_cast<std::size_t>(n));
  }
  const auto sep = raw.find("\r\n\r\n");
  if (sep == std::string::npos) {
    if (error != nullptr) *error = "malformed admin response";
    return {};
  }
  if (status_line != nullptr) {
    *status_line = raw.substr(0, raw.find("\r\n"));
  }
  if (error != nullptr) error->clear();
  return raw.substr(sep + 4);
}

bool parse_healthz(const std::string& body, HealthzInfo& out) {
  out = HealthzInfo{};
  std::size_t pos = 0;
  std::size_t line_no = 0;
  while (pos < body.size()) {
    std::size_t eol = body.find('\n', pos);
    if (eol == std::string::npos) eol = body.size();
    const std::string line = body.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.empty()) continue;
    if (line_no++ == 0) {
      if (line != "ok" && line != "degraded" && line != "drift" &&
          line != "no-model" && line != "draining") {
        out = HealthzInfo{};
        return false;
      }
      out.state = line;
      continue;
    }
    const auto sp = line.find(' ');
    if (sp == std::string::npos) continue;  // unknown line shape: skip
    const std::string key = line.substr(0, sp);
    const std::string val = line.substr(sp + 1);
    if (key == "version") {
      out.version = std::strtoull(val.c_str(), nullptr, 10);
    } else if (key == "degraded") {
      out.degraded = (val == "1");
    } else if (key == "drift") {
      out.drift = (val == "1");
    } else if (key == "draining") {
      out.draining = (val == "1");
    }
    // Unknown keys are skipped: an older reader still understands a newer
    // server.
  }
  return line_no > 0;
}

}  // namespace webppm::net
