// cluster::ShardSupervisor — owns a cluster's in-process shards and drives
// snapshot distribution and zero-drop rolling restarts (DESIGN.md §14).
//
// A *shard* is three pieces with deliberately different lifetimes:
//
//   * a long-lived serve::ModelServer — it holds the per-client session
//     contexts the HashRing assigned to this shard. It survives every
//     restart; losing it would reset sessions and change predictions,
//     breaking the cluster's byte-identity contract with one big server.
//   * a recyclable net::PredictServer — the epoll front end. A "restart"
//     tears it down (drain-then-stop, PR 5) and stands a new one up on the
//     same pinned port.
//   * a per-shard serve::SnapshotStore directory (store_dir/shard-<i>) —
//     the distribution transport. distribute() publishes one snapshot
//     into every shard's store and verifies each written generation by
//     reloading it; a restart re-loads the newest intact generation, so
//     restarting onto a new model version is just distribute() followed
//     by rolling_restart().
//
// restart_shard(i) runs the drain-then-handoff sequence the router's
// admission gate makes lossless:
//
//   1. router->quiesce_shard(i)   — new round trips park at the gate;
//                                   in-flight IO is waited out
//   2. PredictServer::shutdown()  — drains owed responses, closes
//   3. store.load_latest()        — newest intact generation
//   4. model.publish(loaded)      — same ModelServer, contexts intact
//   5. new PredictServer on the   — bind retried briefly (TIME_WAIT)
//      same port, start()
//   6. wait for /healthz to answer "serving" at the loaded version
//   7. router->readmit_shard(i)   — parked round trips proceed
//
// Requests addressed to the shard during 2-6 wait inside the router
// (bounded by the upstream's admit_wait_ms), then complete against the
// restarted shard: zero dropped, zero duplicated — the gate admits a
// frame's IO exactly once. rolling_restart() applies this shard-by-shard;
// the webppm_cluster_version_skew gauge is nonzero only inside the window
// where some shards serve the old version and others the new.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cluster/router.hpp"
#include "cluster/upstream.hpp"
#include "learn/trainer.hpp"
#include "net/server.hpp"
#include "serve/model_server.hpp"
#include "serve/snapshot_store.hpp"

namespace webppm::cluster {

struct SupervisorConfig {
  /// Base directory; shard i publishes/loads under store_dir + "/shard-<i>".
  std::string store_dir;
  std::size_t shards = 4;
  /// Per-shard ModelServer template. `metrics` should stay null here —
  /// N shards registering the same webppm_serve_* names into one registry
  /// would alias; attach a registry to the router instead.
  serve::ModelServerConfig model;
  /// Per-shard PredictServer template; host/port/admin_port are
  /// overridden (ephemeral on first start, pinned across restarts) and
  /// `metrics` is dropped, as for the model.
  net::NetServerConfig net;
  /// Per-shard SnapshotStore template; `dir` is overridden.
  serve::SnapshotStoreConfig store;
  /// How long restart_shard waits for the restarted shard's /healthz to
  /// answer "serving" at the expected version before reporting failure.
  std::uint64_t probe_timeout_ms = 5000;
  /// How long to keep retrying the pinned-port bind on restart (the old
  /// socket can linger briefly).
  std::uint64_t bind_retry_ms = 2000;
};

class ShardSupervisor {
 public:
  explicit ShardSupervisor(SupervisorConfig config);
  ~ShardSupervisor();

  ShardSupervisor(const ShardSupervisor&) = delete;
  ShardSupervisor& operator=(const ShardSupervisor&) = delete;

  /// Publishes `snap` into every shard's store and *verifies* each written
  /// generation by reloading it (checksum + structure + version match).
  /// Call before start() for the initial version and again for each
  /// upgrade. False with *error naming the first failing shard.
  bool distribute(const serve::Snapshot& snap, std::string* error);

  /// Loads every shard's newest intact generation, publishes it into the
  /// shard's ModelServer, and starts the PredictServers (ephemeral ports,
  /// pinned thereafter). Requires a prior distribute() (or pre-populated
  /// stores).
  bool start(std::string* error);
  void stop();

  /// Wire the router in after start() (the router needs the shards'
  /// bound ports). Restarts quiesce/readmit through it when attached.
  void attach_router(PredictRouter* router) { router_ = router; }

  /// Endpoints of the running shards (valid after start()).
  std::vector<ShardEndpoint> endpoints() const;

  /// Drain-then-handoff restart of one shard onto its store's newest
  /// generation (sequence in the header comment). Zero-drop requires an
  /// attached router; without one, in-flight client frames race the drain
  /// exactly as they would against a lone PredictServer.
  bool restart_shard(std::size_t shard, std::string* error);

  /// restart_shard over every shard in turn. After distribute()-ing a new
  /// version this upgrades the whole cluster with version skew returning
  /// to 0 (the router's gauge tracks the window).
  bool rolling_restart(std::string* error);

  /// Online training (DESIGN.md §15): stands one learn::OnlineTrainer per
  /// shard, attached to the shard's long-lived ModelServer, each training a
  /// private shadow from exactly the clients the HashRing routes to that
  /// shard and publishing into that shard's store + ModelServer. `cfg` is
  /// a template: session rules are overridden to mirror the shard model's
  /// (they must match) and `store`/`metrics` are overridden per shard (the
  /// shard's own store; metrics stay detached — N trainers registering the
  /// same webppm_learn_* names into one registry would alias). Trainer
  /// threads start immediately. False if trainers are already running.
  /// Trainers survive restart_shard(): the ModelServer they feed is the
  /// piece restarts deliberately keep.
  bool start_trainers(const learn::OnlineTrainerConfig& cfg);
  /// Detaches every trainer from its shard's serve path, drains and joins
  /// the trainer threads. Idempotent; stop() calls it.
  void stop_trainers();
  /// The running trainer of `shard` (nullptr when trainers are stopped).
  learn::OnlineTrainer* trainer(std::size_t shard);

  std::size_t shard_count() const { return shards_.size(); }
  serve::ModelServer& model(std::size_t shard);
  net::PredictServer* server(std::size_t shard);
  /// Snapshot version shard is serving (0 = none).
  std::uint64_t serving_version(std::size_t shard) const;
  std::uint64_t rolling_restarts() const { return rolling_restarts_; }
  std::uint64_t shard_restarts() const { return shard_restarts_; }

 private:
  struct Shard {
    std::unique_ptr<serve::SnapshotStore> store;
    std::unique_ptr<serve::ModelServer> model;
    std::unique_ptr<net::PredictServer> server;
    std::unique_ptr<learn::OnlineTrainer> trainer;  ///< null until started
    std::uint16_t port = 0;        ///< pinned after first start
    std::uint16_t admin_port = 0;  ///< pinned after first start
  };

  std::string shard_dir(std::size_t shard) const;
  bool start_server(std::size_t shard, bool pinned, std::string* error);
  /// Polls the shard's /healthz until it answers serving at `version`.
  bool await_healthy(std::size_t shard, std::uint64_t version,
                     std::string* error);

  SupervisorConfig config_;
  std::vector<Shard> shards_;
  PredictRouter* router_ = nullptr;
  bool started_ = false;
  std::uint64_t rolling_restarts_ = 0;
  std::uint64_t shard_restarts_ = 0;
};

}  // namespace webppm::cluster
