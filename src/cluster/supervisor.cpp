#include "cluster/supervisor.hpp"

#include <chrono>
#include <filesystem>
#include <system_error>
#include <thread>
#include <utility>

#include "net/load_client.hpp"

namespace webppm::cluster {

namespace fs = std::filesystem;

namespace {

std::uint64_t now_ms() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

ShardSupervisor::ShardSupervisor(SupervisorConfig config)
    : config_(std::move(config)) {
  if (config_.shards == 0) config_.shards = 1;
  shards_.resize(config_.shards);
  std::error_code ec;
  fs::create_directories(config_.store_dir, ec);  // stores create one level
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    serve::SnapshotStoreConfig sc = config_.store;
    sc.dir = shard_dir(i);
    // One registry cannot hold N stores' identically-named metrics.
    sc.metrics = nullptr;
    shards_[i].store = std::make_unique<serve::SnapshotStore>(std::move(sc));
    serve::ModelServerConfig mc = config_.model;
    mc.metrics = nullptr;  // same aliasing hazard (header comment)
    shards_[i].model = std::make_unique<serve::ModelServer>(mc);
  }
}

ShardSupervisor::~ShardSupervisor() { stop(); }

std::string ShardSupervisor::shard_dir(std::size_t shard) const {
  return config_.store_dir + "/shard-" + std::to_string(shard);
}

bool ShardSupervisor::distribute(const serve::Snapshot& snap,
                                 std::string* error) {
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    auto pub = shards_[i].store->publish(snap);
    if (!pub.ok) {
      if (error != nullptr) {
        *error = "shard " + std::to_string(i) + ": publish: " + pub.error;
      }
      return false;
    }
    // Verify by reloading: the generation just written must be the newest
    // intact one and carry the distributed version, else the shard would
    // restart onto something other than what we think we shipped.
    auto loaded = shards_[i].store->load_latest();
    if (loaded.snapshot == nullptr) {
      if (error != nullptr) {
        *error = "shard " + std::to_string(i) + ": verify: " + loaded.error;
      }
      return false;
    }
    if (loaded.generation != pub.generation ||
        loaded.snapshot->version != snap.version) {
      if (error != nullptr) {
        *error = "shard " + std::to_string(i) + ": verify: loaded gen " +
                 std::to_string(loaded.generation) + " v" +
                 std::to_string(loaded.snapshot->version) +
                 ", published gen " + std::to_string(pub.generation) + " v" +
                 std::to_string(snap.version);
      }
      return false;
    }
  }
  return true;
}

bool ShardSupervisor::start_server(std::size_t shard, bool pinned,
                                   std::string* error) {
  Shard& s = shards_[shard];
  net::NetServerConfig nc = config_.net;
  nc.admin = true;  // the router's prober and await_healthy need /healthz
  nc.metrics = nullptr;  // N shards' webppm_net_* counters would alias
  nc.port = pinned ? s.port : std::uint16_t{0};
  nc.admin_port = pinned ? s.admin_port : std::uint16_t{0};
  const std::uint64_t deadline = now_ms() + config_.bind_retry_ms;
  std::string err;
  for (;;) {
    auto server = std::make_unique<net::PredictServer>(*s.model, nc);
    if (server->start(&err)) {
      s.server = std::move(server);
      s.port = s.server->port();
      s.admin_port = s.server->admin_port();
      return true;
    }
    // A pinned port can linger in the kernel briefly after the previous
    // server's close; retry until bind_retry_ms is spent.
    if (!pinned || now_ms() >= deadline) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  if (error != nullptr) {
    *error = "shard " + std::to_string(shard) + ": start: " + err;
  }
  return false;
}

bool ShardSupervisor::start(std::string* error) {
  if (started_) return true;
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    auto loaded = shards_[i].store->load_latest();
    if (loaded.snapshot == nullptr) {
      if (error != nullptr) {
        *error = "shard " + std::to_string(i) + ": load: " + loaded.error;
      }
      stop();
      return false;
    }
    shards_[i].model->publish(loaded.snapshot);
    if (!start_server(i, /*pinned=*/false, error)) {
      stop();
      return false;
    }
  }
  started_ = true;
  return true;
}

void ShardSupervisor::stop() {
  stop_trainers();
  for (Shard& s : shards_) {
    if (s.server != nullptr) {
      s.server->shutdown();
      s.server.reset();
    }
  }
  started_ = false;
}

bool ShardSupervisor::start_trainers(const learn::OnlineTrainerConfig& cfg) {
  for (const Shard& s : shards_) {
    if (s.trainer != nullptr) return false;  // already running
  }
  for (Shard& s : shards_) {
    learn::OnlineTrainerConfig shard_cfg = cfg;
    // Session rules must mirror the shard model's, or shadow sessions
    // diverge from the contexts the shard predicts from.
    shard_cfg.session = config_.model.session;
    shard_cfg.store = s.store.get();
    shard_cfg.metrics = nullptr;  // N same-named registrations would alias
    s.trainer = std::make_unique<learn::OnlineTrainer>(*s.model, shard_cfg);
    s.trainer->attach();
    s.trainer->start();
  }
  return true;
}

void ShardSupervisor::stop_trainers() {
  for (Shard& s : shards_) {
    if (s.trainer != nullptr) {
      s.trainer->detach();
      s.trainer->stop();
      s.trainer.reset();
    }
  }
}

learn::OnlineTrainer* ShardSupervisor::trainer(std::size_t shard) {
  if (shard >= shards_.size()) return nullptr;
  return shards_[shard].trainer.get();
}

std::vector<ShardEndpoint> ShardSupervisor::endpoints() const {
  std::vector<ShardEndpoint> eps;
  eps.reserve(shards_.size());
  for (const Shard& s : shards_) {
    eps.push_back(ShardEndpoint{"127.0.0.1", s.port, s.admin_port});
  }
  return eps;
}

bool ShardSupervisor::await_healthy(std::size_t shard, std::uint64_t version,
                                    std::string* error) {
  const Shard& s = shards_[shard];
  const std::uint64_t deadline = now_ms() + config_.probe_timeout_ms;
  std::string last;
  for (;;) {
    std::string err;
    const std::string body =
        net::fetch_admin("127.0.0.1", s.admin_port, "/healthz", &err);
    net::HealthzInfo info;
    if (err.empty() && net::parse_healthz(body, info) && info.serving() &&
        info.version == version) {
      return true;
    }
    last = err.empty() ? ("healthz: " + body) : err;
    if (now_ms() >= deadline) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  if (error != nullptr) {
    *error = "shard " + std::to_string(shard) +
             ": not serving v" + std::to_string(version) + " within " +
             std::to_string(config_.probe_timeout_ms) + "ms (" + last + ")";
  }
  return false;
}

bool ShardSupervisor::restart_shard(std::size_t shard, std::string* error) {
  if (shard >= shards_.size() || !started_) {
    if (error != nullptr) *error = "no such running shard";
    return false;
  }
  Shard& s = shards_[shard];
  if (router_ != nullptr) router_->quiesce_shard(shard);

  // From here on the shard must come back before readmission, so failures
  // leave the gate closed — parked round trips then degrade at their
  // deadline rather than hitting a half-restarted shard.
  s.server->shutdown();
  s.server.reset();

  auto loaded = s.store->load_latest();
  if (loaded.snapshot == nullptr) {
    if (error != nullptr) {
      *error = "shard " + std::to_string(shard) + ": load: " + loaded.error;
    }
    return false;
  }
  // Same ModelServer: session contexts survive, only the model swaps.
  s.model->publish(loaded.snapshot);

  if (!start_server(shard, /*pinned=*/true, error)) return false;
  if (!await_healthy(shard, loaded.snapshot->version, error)) return false;

  if (router_ != nullptr) router_->readmit_shard(shard);
  ++shard_restarts_;
  return true;
}

bool ShardSupervisor::rolling_restart(std::string* error) {
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    if (!restart_shard(i, error)) return false;
  }
  ++rolling_restarts_;
  return true;
}

serve::ModelServer& ShardSupervisor::model(std::size_t shard) {
  return *shards_[shard].model;
}

net::PredictServer* ShardSupervisor::server(std::size_t shard) {
  return shards_[shard].server.get();
}

std::uint64_t ShardSupervisor::serving_version(std::size_t shard) const {
  return shards_[shard].model->version();
}

}  // namespace webppm::cluster
