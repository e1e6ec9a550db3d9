// cluster::PredictRouter — the front door of a sharded prediction cluster
// (DESIGN.md §14).
//
// Clients speak the ordinary v1/v2 wire protocol to the router as if it
// were one big PredictServer; the router consistent-hashes each query's
// ClientId onto its shard (HashRing) and forwards the frame over that
// shard's Upstream pool, relaying the answer byte-for-byte. A v2 batch
// whose entries all hash to one shard is forwarded verbatim (the common
// case under client-disjoint load); a mixed batch is split into per-shard
// sub-batches and the sub-answers reassembled in the original entry order
// — re-encoding a decoded sub-response is bit-exact, so either path yields
// the same bytes one big server would have sent.
//
// Failure contract: a round trip that exhausts its retry/deadline budget
// degrades to a kRetryLater answer for that one query (batch entries from
// a failed shard degrade per-slot); the connection stays up, nothing is
// silently dropped, and every retry, breaker transition, and give-up is
// accounted in webppm_cluster_* metrics. Shard death is survived by the
// Upstream breaker + the health prober (GET /healthz per shard, parsed by
// net::parse_healthz) — never by remapping clients: a shard's ModelServer
// holds its clients' session contexts, so remapping would change answers.
// The prober also feeds the webppm_cluster_version_skew gauge (max-min
// serving snapshot version across reachable shards), the signal the
// ShardSupervisor drives rolling restarts by.
//
// Threading: the front door is PredictServer's own net::Acceptor — one
// thread with the data and admin listeners (GET /metrics, /healthz,
// /cluster), the connection-cap shed (one kRetryLater frame labelled
// version 0, then close; max_connections = 0 is unbounded) and the
// non-blocking admin exchange. Each admitted connection gets one blocking
// forwarding thread (the router is IO-bound on upstream round trips, and
// closed-loop clients hold exactly one frame in flight); the prober is one
// more thread. Shutdown is drain-then-stop: in-flight round trips complete
// and their answers flush before the sockets close.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "cluster/hash_ring.hpp"
#include "cluster/upstream.hpp"
#include "net/acceptor.hpp"
#include "net/load_client.hpp"
#include "net/wire.hpp"
#include "obs/metrics.hpp"

namespace webppm::cluster {

struct RouterConfig {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;  ///< 0 = ephemeral (read back via port())
  bool admin = true;
  std::uint16_t admin_port = 0;  ///< 0 = ephemeral (admin_port())
  /// The shards, in ring order. Fixed for the router's lifetime.
  std::vector<ShardEndpoint> shards;
  std::size_t ring_replicas = 64;
  /// Downstream connection cap; excess connections get one kRetryLater
  /// frame and a close, as PredictServer's do (0 = unbounded).
  std::size_t max_connections = 1024;
  /// Cap on client-claimed request frames (and v1 response frames).
  std::uint32_t max_frame_bytes = net::kDefaultMaxFrameBytes;
  /// Per-shard upstream template; `endpoint` and `seed` are overwritten
  /// per shard (seed + shard index keeps jitter streams distinct).
  UpstreamConfig upstream;
  /// Concurrent round trips allowed in their retry phase, router-wide.
  std::size_t retry_budget = 8;
  /// /healthz probe cadence; 0 disables the prober (breakers then rely on
  /// half-open trials alone, and version_skew() reads as unknown).
  std::uint64_t probe_interval_ms = 100;
  /// The registry the webppm_cluster_* counters live in (null: a private
  /// one, so the accessors count either way); attached, it also serves
  /// GET /metrics.
  obs::MetricsRegistry* metrics = nullptr;
};

class PredictRouter {
 public:
  explicit PredictRouter(RouterConfig config);
  ~PredictRouter();

  PredictRouter(const PredictRouter&) = delete;
  PredictRouter& operator=(const PredictRouter&) = delete;

  /// Binds, starts the acceptor + prober. False with *error on bind
  /// failure.
  bool start(std::string* error);
  /// Drain-then-stop: stop accepting/reading, let in-flight round trips
  /// finish and flush, join every thread. Idempotent.
  void shutdown();

  std::uint16_t port() const { return acceptor_.port(); }
  std::uint16_t admin_port() const { return acceptor_.admin_port(); }

  const HashRing& ring() const { return ring_; }
  std::size_t shard_of(ClientId client) const { return ring_.shard_of(client); }
  std::size_t shard_count() const { return upstreams_.size(); }
  Upstream& upstream(std::size_t shard) { return *upstreams_[shard]; }

  /// Supervisor hooks for a rolling restart: quiesce parks the shard's
  /// new round trips at the admission gate and waits out in-flight IO;
  /// readmit reopens after the restarted shard probes healthy.
  void quiesce_shard(std::size_t shard) { upstreams_[shard]->quiesce(); }
  void readmit_shard(std::size_t shard) { upstreams_[shard]->readmit(); }

  /// Last probe result for one shard (all-defaults before the first
  /// probe round or with the prober disabled).
  struct ShardHealth {
    bool reachable = false;
    net::HealthzInfo info;
  };
  ShardHealth shard_health(std::size_t shard) const;
  /// max - min serving snapshot version across reachable serving shards
  /// (0 when fewer than two are reachable — skew needs a pair to exist).
  std::uint64_t version_skew() const;

  // Exact counts, each read back from its one webppm_cluster_* counter (in
  // the attached registry, or the router's own). The per-shard breakdown
  // is on upstream(i).counters().
  std::uint64_t requests() const { return ins_.requests->value(); }
  std::uint64_t responses() const { return ins_.responses->value(); }
  std::uint64_t batches() const { return ins_.batches->value(); }
  std::uint64_t degraded_responses() const { return ins_.degraded->value(); }
  std::uint64_t protocol_errors() const { return ins_.protocol_errors->value(); }
  std::uint64_t shed() const { return acceptor_.shed(); }
  /// Connections admitted (a shed connection counts only in shed()).
  std::uint64_t accepted() const { return acceptor_.accepted(); }
  std::uint64_t accept_failures() const { return acceptor_.accept_failures(); }
  std::uint64_t probes() const { return ins_.probes->value(); }
  std::uint64_t probe_failures() const { return ins_.probe_failures->value(); }
  std::uint64_t retry_budget_waits() const { return budget_.waits(); }

  const RouterConfig& config() const { return config_; }

 private:
  struct DownConn {
    int fd = -1;
    std::thread thread;
    std::atomic<bool> done{false};
  };

  /// The acceptor's admit hook: a forwarding thread for `fd`.
  void admit(int fd);
  void prober_main();
  void conn_main(DownConn* c);
  /// Handles one parsed frame (full bytes incl. header); appends the
  /// response frame(s) to `out`. Returns false when the connection must
  /// close after flushing (protocol error).
  bool handle_frame(std::span<const std::uint8_t> frame,
                    std::span<const std::uint8_t> body,
                    std::vector<std::uint8_t>& out);
  /// Routes one decoded query frame's entries (a v1 frame is one entry)
  /// and appends the response frame — relayed, reassembled, or the
  /// frame-version's kRetryLater give-up — to `out`.
  void forward(std::span<const std::uint8_t> frame,
               const std::vector<net::WireRequest>& entries, bool v1,
               std::vector<std::uint8_t>& out);
  /// The acceptor's admin hook: the reply to a GET of `path`.
  net::AdminReply admin_response(const std::string& path);
  void reap_finished(bool all);
  void refresh_gauges();

  RouterConfig config_;
  HashRing ring_;
  std::unique_ptr<obs::MetricsRegistry> own_metrics_;
  obs::MetricsRegistry& metrics_;  ///< attached, else own_metrics_
  ClusterInstruments ins_;
  RetryBudget budget_;
  std::atomic<bool> stopping_{false};
  bool started_ = false;
  std::vector<std::unique_ptr<Upstream>> upstreams_;

  std::thread prober_;

  std::mutex conns_mu_;
  std::vector<std::unique_ptr<DownConn>> conns_;
  std::atomic<std::size_t> active_{0};

  mutable std::mutex health_mu_;
  std::vector<ShardHealth> health_;

  /// Last: its thread runs the hooks, which use the members above.
  net::Acceptor acceptor_;
};

}  // namespace webppm::cluster
