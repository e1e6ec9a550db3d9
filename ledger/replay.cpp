// Workloads, serving deployments, the closed-loop load generator and the
// in-process reference answers.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <functional>
#include <mutex>
#include <set>
#include <thread>
#include <unordered_map>

#include "cluster/router.hpp"
#include "cluster/supervisor.hpp"
#include "learn/trainer.hpp"
#include "ledger.hpp"
#include "net/load_client.hpp"
#include "net/server.hpp"
#include "serve/frozen_snapshot.hpp"
#include "serve/snapshot_store.hpp"
#include "workload/generator.hpp"

namespace ledger {
namespace {

constexpr std::size_t kTopK = 4;          // next-click hit@4
constexpr TimeSec kScoreWindowSec = 300;  // same-client transitions scored
constexpr std::size_t kShards = 2;        // click_routed cluster size
constexpr std::size_t kLoopWorkers = 2;   // as examples/net_server deploys
constexpr std::uint64_t kRepublishes = 5; // publish_ms samples per click pass

std::vector<WorkloadSpec> make_workloads() {
  WorkloadSpec direct;
  direct.name = "click_direct";
  direct.spec = core::ModelSpec::pb_model();

  WorkloadSpec routed = direct;
  routed.name = "click_routed";
  routed.routed = true;

  WorkloadSpec online;
  online.name = "batch_online";
  online.online = true;
  online.ucb = true;
  online.connections = 1;
  online.batch = 64;
  online.spec = core::ModelSpec::pb_model_aggressive();
  online.replay_days = 3;
  return {direct, routed, online};
}

const std::vector<WorkloadSpec>& workloads() {
  static const std::vector<WorkloadSpec> all = make_workloads();
  return all;
}

std::uint64_t fnv1a(std::span<const std::uint8_t> bytes,
                    std::uint64_t h = 0xcbf29ce484222325ull) {
  for (std::uint8_t b : bytes) {
    h ^= b;
    h *= 0x100000001b3ull;
  }
  return h;
}

std::uint32_t read_le32(const std::uint8_t* p) {
  return std::uint32_t(p[0]) | std::uint32_t(p[1]) << 8 |
         std::uint32_t(p[2]) << 16 | std::uint32_t(p[3]) << 24;
}

/// Decodes every answer frame of every connection, digests the bytes and
/// scores next-click hit@4: each consecutive same-client transition within
/// kScoreWindowSec of trace time counts; an empty or non-kOk answer is a
/// miss (online_training's PrecisionProbe rule).
AnswerSummary summarize(const WorkloadSpec& w, const Stream& s,
                        const std::vector<std::vector<std::uint8_t>>& resp) {
  struct Last {
    TimeSec t = 0;
    std::array<UrlId, kTopK> urls{};
    std::size_t n = 0;
  };
  AnswerSummary a;
  std::unordered_map<ClientId, Last> last;
  std::vector<net::WireResponse> subs;
  net::WireResponse one;
  for (std::size_t c = 0; c < s.conns.size(); ++c) {
    const ConnPlan& plan = s.conns[c];
    const auto& bytes = resp[c];
    a.digests.push_back(fnv1a(bytes));
    std::size_t pos = 0;
    std::size_t r = 0;
    while (pos + net::kFrameHeaderBytes <= bytes.size()) {
      const std::uint32_t len = read_le32(bytes.data() + pos);
      if (pos + net::kFrameHeaderBytes + len > bytes.size()) break;
      const std::span<const std::uint8_t> body(
          bytes.data() + pos + net::kFrameHeaderBytes, len);
      pos += net::kFrameHeaderBytes + len;
      if (w.batch == 0) {
        if (!net::decode_response(body, one).ok()) break;
        subs.assign(1, one);
      } else if (!net::decode_batch_response(body, subs).ok()) {
        break;
      }
      for (const auto& sub : subs) {
        if (r >= plan.reqs.size()) {
          a.decoded = false;
          return a;
        }
        const net::WireRequest& q = plan.reqs[r++];
        const TimeSec t = q.timestamp;
        ++a.answers;
        const bool ok = sub.status == net::Status::kOk;
        if (ok) ++a.ok;
        auto it = last.find(q.client);
        if (it != last.end() && t - it->second.t <= kScoreWindowSec) {
          ++a.scored;
          const Last& l = it->second;
          if (std::find(l.urls.begin(), l.urls.begin() + long(l.n), q.url) !=
              l.urls.begin() + long(l.n)) {
            ++a.hits;
          }
        }
        Last& l = last[q.client];
        l.t = t;
        l.n = 0;
        if (ok) {
          for (const auto& p : sub.predictions) {
            if (l.n == kTopK) break;
            l.urls[l.n++] = p.url;
          }
        }
      }
    }
    if (pos != bytes.size() || r != plan.reqs.size()) a.decoded = false;
  }
  return a;
}

serve::ModelServerConfig model_config(const WorkloadSpec& w,
                                      obs::MetricsRegistry* registry) {
  serve::ModelServerConfig cfg;
  cfg.metrics = registry;
  cfg.scoreboard.enabled = w.online;
  return cfg;
}

learn::OnlineTrainerConfig trainer_config(const WorkloadSpec& w,
                                          const Stream& s) {
  learn::OnlineTrainerConfig tc;
  tc.spec = w.spec;
  tc.policy.day_boundaries = false;  // the benchmark publishes at boundaries
  tc.queue_capacity = s.trace.requests.size() + 1;
  tc.url_count_hint = s.trace.urls.size();
  tc.freeze_published = true;
  return tc;
}

/// Feeds the training window into a fresh trainer (chunks below the queue
/// capacity, so nothing drops) without publishing.
void catch_up(learn::OnlineTrainer& t, const WorkloadSpec& w,
              const Stream& s) {
  const auto train = s.trace.day_range(0, w.train_days - 1);
  const std::size_t chunk = t.queue().capacity() / 2;
  for (std::size_t i = 0; i < train.size(); i += chunk) {
    const std::size_t end = std::min(train.size(), i + chunk);
    for (std::size_t k = i; k < end; ++k) {
      t.queue().push(learn::Observation::from(train[k]));
    }
    t.step();
  }
}

/// The offline half of every setup: train on the first days, freeze (v2
/// frozen layout), version 1.
std::shared_ptr<const serve::Snapshot> train_and_freeze(
    const WorkloadSpec& w, const Stream& s) {
  auto tm = core::train_model(w.spec, s.trace, 0, w.train_days - 1);
  return serve::freeze_snapshot(*serve::make_snapshot(
      std::move(tm.predictor), std::move(tm.popularity), 1));
}

/// The same frozen payload under a new version: what a republish of the
/// serving model ships.
std::shared_ptr<const serve::Snapshot> reversion(const serve::Snapshot& snap,
                                                 std::uint64_t version) {
  auto payload =
      std::make_shared<const std::string>(serve::serialize_snapshot_frozen(snap));
  auto opened = serve::open_frozen_snapshot(payload, *payload, version);
  return opened.snapshot;
}

net::OwnedFd connect_loopback(std::uint16_t port) {
  net::OwnedFd fd(::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0));
  if (fd.get() < 0) return fd;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd.get(), reinterpret_cast<const sockaddr*>(&addr),
                sizeof addr) != 0) {
    return net::OwnedFd{};
  }
  const int one = 1;
  ::setsockopt(fd.get(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return fd;
}

bool write_all(int fd, const std::uint8_t* p, std::size_t n) {
  while (n > 0) {
    const ssize_t k = ::send(fd, p, n, MSG_NOSIGNAL);
    if (k <= 0) {
      if (k < 0 && errno == EINTR) continue;
      return false;
    }
    p += k;
    n -= static_cast<std::size_t>(k);
  }
  return true;
}

/// Reads exactly one frame into `buf` (closed loop: nothing else is in
/// flight). Returns its total length, 0 on failure.
std::size_t read_frame(int fd, std::vector<std::uint8_t>& buf) {
  std::size_t have = 0;
  std::size_t need = net::kFrameHeaderBytes;
  for (;;) {
    if (have >= net::kFrameHeaderBytes) {
      need = net::kFrameHeaderBytes + read_le32(buf.data());
      if (have >= need) return have == need ? need : 0;
      if (buf.size() < need) buf.resize(need);
    }
    const ssize_t k = ::recv(fd, buf.data() + have, buf.size() - have, 0);
    if (k <= 0) {
      if (k < 0 && errno == EINTR) continue;
      return 0;
    }
    have += static_cast<std::size_t>(k);
  }
}

/// One closed-loop connection's record of a replay.
struct ConnRun {
  std::vector<std::uint8_t> resp;
  std::vector<std::uint64_t> t_start, t_sent, t_recv;
  std::uint64_t cpu_ns = 0;       ///< thread CPU outside the hook
  std::uint64_t hook_cpu_ns = 0;  ///< thread CPU inside the hook
  std::uint64_t hook_proc_cpu_ns = 0;  ///< process CPU inside the hook
  std::uint64_t hook_wall_ns = 0;
  std::string error;
  /// Left open after the replay, so the far side's per-connection threads
  /// (the router's) are still alive when their CPU is read.
  net::OwnedFd fd;
};

/// Drives one connection closed-loop through its plan. `after_frame` runs
/// on this thread after each answer (the publish step of batch_online);
/// returning false stops the replay with an error.
void run_conn(std::uint16_t port, const ConnPlan& plan, bool traced,
              const std::function<bool(std::size_t)>& after_frame,
              ConnRun& out) {
  const std::uint64_t cpu0 = thread_cpu_ns();
  const std::size_t frames = plan.frames();
  out.t_start.assign(frames, 0);
  out.t_recv.assign(frames, 0);
  if (traced) out.t_sent.assign(frames, 0);
  out.resp.reserve(plan.bytes.size() * 2);  // answers: about 1-2x requests
  std::vector<std::uint8_t> buf(256 * 1024);
  out.fd = connect_loopback(port);
  const int fd = out.fd.get();
  if (fd < 0) {
    out.error = "connect failed";
    return;
  }
  for (std::size_t f = 0; f < frames; ++f) {
    const std::uint64_t ts = now_ns();
    if (!write_all(fd, plan.bytes.data() + plan.frame_off[f],
                   plan.frame_off[f + 1] - plan.frame_off[f])) {
      out.error = "send failed at frame " + std::to_string(f);
      return;
    }
    if (traced) out.t_sent[f] = now_ns();
    const std::size_t n = read_frame(fd, buf);
    const std::uint64_t tr = now_ns();
    if (n == 0) {
      out.error = "no answer to frame " + std::to_string(f);
      return;
    }
    out.resp.insert(out.resp.end(), buf.begin(), buf.begin() + long(n));
    out.t_start[f] = ts;
    out.t_recv[f] = tr;
    if (after_frame) {
      const std::uint64_t c0 = thread_cpu_ns();
      const std::uint64_t p0 = process_cpu_ns();
      const std::uint64_t w0 = now_ns();
      const bool ok = after_frame(f);
      out.hook_wall_ns += now_ns() - w0;
      out.hook_proc_cpu_ns += process_cpu_ns() - p0;
      out.hook_cpu_ns += thread_cpu_ns() - c0;
      if (!ok) {
        out.error = "publish failed after frame " + std::to_string(f);
        return;
      }
    }
  }
  out.cpu_ns = thread_cpu_ns() - cpu0 - out.hook_cpu_ns;
}

/// One v1 query per shard-probe client on a fresh connection; true when
/// every answer is kOk at `version`.
bool probe_version(std::uint16_t port,
                   const std::vector<net::WireRequest>& probes,
                   std::uint64_t version) {
  net::OwnedFd fd = connect_loopback(port);
  if (fd.get() < 0) return false;
  std::vector<std::uint8_t> buf(64 * 1024);
  for (const auto& q : probes) {
    std::vector<std::uint8_t> frame;
    net::encode_request(q, frame);
    if (!write_all(fd.get(), frame.data(), frame.size())) return false;
    const std::size_t n = read_frame(fd.get(), buf);
    net::WireResponse resp;
    if (n == 0 ||
        !net::decode_response(std::span<const std::uint8_t>(buf).subspan(
                                  net::kFrameHeaderBytes,
                                  n - net::kFrameHeaderBytes),
                              resp)
             .ok() ||
        resp.status != net::Status::kOk || resp.snapshot_version != version) {
      return false;
    }
  }
  return true;
}

/// Stamps the moment each request reaches ModelServer (the traced run's
/// inbound/outbound split), then forwards it — to the trainer's queue on
/// batch_online, so observation order is unchanged.
class EntryStamp final : public serve::RequestObserver {
 public:
  EntryStamp(const Stream& s, serve::RequestObserver* next)
      : s_(s), next_(next), seq_(s.client_first.size(), 0),
        stamp_(s.order.size(), 0) {}

  void on_request(const trace::Request& r) noexcept override {
    const std::uint64_t t = now_ns();
    if (r.client + 1 < s_.client_first.size()) {
      std::lock_guard lock(mu_);
      const std::uint32_t k = s_.client_first[r.client] + seq_[r.client]++;
      if (k < s_.client_first[r.client + 1]) stamp_[s_.order[k]] = t;
    }
    if (next_ != nullptr) next_->on_request(r);
  }

  std::uint64_t stamp(std::uint32_t id) const { return stamp_[id]; }

 private:
  const Stream& s_;
  serve::RequestObserver* next_;
  std::mutex mu_;
  std::vector<std::uint32_t> seq_;
  std::vector<std::uint64_t> stamp_;
};

std::vector<pid_t> new_tasks(const std::vector<pid_t>& before) {
  std::vector<pid_t> now = list_tasks();
  std::vector<pid_t> fresh;
  std::set_difference(now.begin(), now.end(), before.begin(), before.end(),
                      std::back_inserter(fresh));
  return fresh;
}

/// One pass's serving deployment. Members are declared in dependency
/// order, so destruction stops front ends before the models they serve.
struct Deployment {
  obs::MetricsRegistry registry;
  std::unique_ptr<serve::SnapshotStore> store;
  std::unique_ptr<serve::ModelServer> model;
  std::unique_ptr<serve::SnapshotStore> trainer_store;
  std::unique_ptr<learn::OnlineTrainer> trainer;
  std::unique_ptr<EntryStamp> stamp;
  std::unique_ptr<net::PredictServer> server;
  std::unique_ptr<cluster::ShardSupervisor> sup;
  std::unique_ptr<cluster::PredictRouter> router;
  std::uint16_t port = 0;
  std::vector<pid_t> server_tids, router_tids, trainer_tids;

  ~Deployment() { stop(); }
  void stop() {
    if (router != nullptr) router->shutdown();
    if (sup != nullptr) {
      for (std::size_t i = 0; i < sup->shard_count(); ++i) {
        sup->model(i).attach_observer(nullptr);
      }
      sup->stop();
    }
    if (model != nullptr) model->attach_observer(nullptr);
    if (trainer != nullptr) trainer->stop();
    if (server != nullptr) server->shutdown();
  }
};

/// Ships the serving model again as `version`: store write (per shard on
/// a cluster), reload, ModelServer::publish. Empty on success.
std::string republish(Deployment& dep, const std::string& dir,
                      std::uint64_t version) {
  const auto current = dep.sup != nullptr ? dep.sup->model(0).snapshot()
                                          : dep.model->snapshot();
  const auto next = reversion(*current, version);
  if (next == nullptr) return "reversion failed";
  if (dep.sup == nullptr) {
    const auto pub = dep.store->publish(*next);
    auto loaded = dep.store->load_latest();
    if (!pub.ok || loaded.snapshot == nullptr) {
      return "republish: " + pub.error + loaded.error;
    }
    dep.model->publish(loaded.snapshot);
    return {};
  }
  std::string err;
  if (!dep.sup->distribute(*next, &err)) return "distribute: " + err;
  for (std::size_t i = 0; i < dep.sup->shard_count(); ++i) {
    serve::SnapshotStoreConfig sc;
    sc.dir = dir + "/cluster/shard-" + std::to_string(i);
    auto loaded = serve::SnapshotStore(sc).load_latest();
    if (loaded.snapshot == nullptr) return "shard reload: " + loaded.error;
    dep.sup->model(i).publish(loaded.snapshot);
  }
  return {};
}

std::uint64_t counter(const obs::MetricsRegistry& reg, const char* name) {
  const obs::Counter* c = reg.find_counter(name);
  return c == nullptr ? 0 : c->value();
}

}  // namespace

void ConnPlan::frame_requests(std::size_t f,
                              std::vector<trace::Request>& out) const {
  out.clear();
  for (auto k = frame_first[f]; k < frame_first[f + 1]; ++k) {
    out.push_back(net::to_trace_request(reqs[k]));
  }
}

const WorkloadSpec* find_workload(const std::string& name) {
  for (const auto& w : workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

Stream make_stream(const WorkloadSpec& w, std::uint64_t seed) {
  const std::uint32_t days = w.train_days + w.replay_days;
  auto cfg = w.ucb ? workload::ucb_like(days, w.scale)
                   : workload::nasa_like(days, w.scale);
  cfg.population.seed = seed;
  Stream s;
  s.trace = workload::generate_page_trace(cfg);
  const auto replay =
      s.trace.day_range(w.train_days, w.train_days + w.replay_days - 1);
  for (std::uint32_t d = 1; d < w.replay_days; ++d) {
    s.boundaries.push_back(TimeSec(w.train_days + d) * kSecondsPerDay);
  }

  // Client-sharded connections, as the repo's load client shards them;
  // batches never straddle a day boundary.
  const auto shards = net::LoadClient::shard(replay, w.connections);
  std::vector<std::uint32_t> conn_base;  // first request id of each conn
  for (const auto& reqs : shards) {
    ConnPlan plan;
    plan.reqs = reqs;
    plan.frame_off.push_back(0);
    plan.frame_first.push_back(0);
    for (std::size_t i = 0; i < reqs.size();) {
      const std::uint32_t day = trace::Trace::day_of(reqs[i].timestamp);
      std::size_t j = i + 1;
      while (w.batch != 0 && j < reqs.size() && j - i < w.batch &&
             trace::Trace::day_of(reqs[j].timestamp) == day) {
        ++j;
      }
      if (w.batch == 0) {
        net::encode_request(reqs[i], plan.bytes);
      } else {
        net::encode_batch_request(
            std::span<const net::WireRequest>(reqs).subspan(i, j - i),
            plan.bytes);
      }
      plan.frame_off.push_back(std::uint32_t(plan.bytes.size()));
      plan.frame_first.push_back(std::uint32_t(j));
      plan.frame_day.push_back(day - w.train_days);
      i = j;
    }
    conn_base.push_back(std::uint32_t(s.queries));
    s.queries += plan.reqs.size();
    s.conns.push_back(std::move(plan));
  }

  // (client, per-client sequence) -> request id, ids conn-major.
  const std::size_t clients = s.trace.clients.size();
  std::vector<std::uint32_t> per_client(clients + 1, 0);
  for (const auto& plan : s.conns) {
    for (const auto& q : plan.reqs) ++per_client[q.client + 1];
  }
  s.client_first.assign(clients + 1, 0);
  for (std::size_t c = 0; c < clients; ++c) {
    s.client_first[c + 1] = s.client_first[c] + per_client[c + 1];
  }
  s.order.assign(s.queries, 0);
  std::vector<std::uint32_t> fill(s.client_first.begin(),
                                  s.client_first.end() - 1);
  for (std::size_t c = 0; c < s.conns.size(); ++c) {
    const auto& reqs = s.conns[c].reqs;
    for (std::size_t i = 0; i < reqs.size(); ++i) {
      s.order[fill[reqs[i].client]++] = conn_base[c] + std::uint32_t(i);
    }
  }
  return s;
}

AnswerSummary reference_answers(const WorkloadSpec& w, const Stream& s) {
  const auto snap = train_and_freeze(w, s);
  std::vector<std::vector<std::uint8_t>> resp(s.conns.size());
  serve::ModelServer model(model_config(w, nullptr));
  model.publish(snap);
  if (w.batch == 0) {
    std::vector<ppm::Prediction> preds;
    for (std::size_t c = 0; c < s.conns.size(); ++c) {
      for (const auto& q : s.conns[c].reqs) {
        const auto qr = model.query_ex(net::to_trace_request(q), preds);
        net::encode_response(
            net::make_wire_response(qr, q, model.version(), preds), resp[c]);
      }
    }
    return summarize(w, s, resp);
  }

  learn::OnlineTrainer trainer(model, trainer_config(w, s));
  if (w.online) {
    catch_up(trainer, w, s);
    trainer.attach();
  }
  serve::BatchQueryScratch scratch;
  std::vector<trace::Request> treqs;
  std::vector<net::WireResponse> subs;
  for (std::size_t c = 0; c < s.conns.size(); ++c) {
    const ConnPlan& plan = s.conns[c];
    for (std::size_t f = 0; f < plan.frames(); ++f) {
      if (w.online && f > 0 && plan.frame_day[f] != plan.frame_day[f - 1]) {
        trainer.step();
        trainer.publish_at(s.boundaries[plan.frame_day[f - 1]]);
      }
      plan.frame_requests(f, treqs);
      model.query_batch(treqs, scratch);
      subs.assign(treqs.size(), {});
      for (std::size_t i = 0; i < treqs.size(); ++i) {
        const auto preds = scratch.predictions_of(i);
        subs[i].status = net::wire_status(
            scratch.items[i].result, plan.reqs[plan.frame_first[f] + i].flags,
            scratch.snapshot_version);
        subs[i].snapshot_version = scratch.snapshot_version;
        subs[i].predictions.assign(preds.begin(), preds.end());
      }
      net::encode_batch_response(subs, resp[c]);
    }
  }
  return summarize(w, s, resp);
}

PassResult run_pass(const WorkloadSpec& w, const Stream& s,
                    const AnswerSummary& ref, const PassOptions& opt) {
  PassResult res;
  const bool routed = w.routed;
  const bool online = w.online;
  std::filesystem::remove_all(opt.dir);
  std::filesystem::create_directories(opt.dir);
  auto dep = std::make_unique<Deployment>();
  std::string err;

  // ---- Setup: trace in memory -> first answered query.
  const std::uint64_t setup0 = now_ns();
  const auto frozen = train_and_freeze(w, s);
  std::vector<pid_t> tasks = list_tasks();
  if (routed) {
    cluster::SupervisorConfig sc;
    sc.store_dir = opt.dir + "/cluster";
    sc.shards = kShards;
    sc.net.workers = kLoopWorkers;
    dep->sup = std::make_unique<cluster::ShardSupervisor>(sc);
    if (!dep->sup->distribute(*frozen, &err) || !dep->sup->start(&err)) {
      res.error = "cluster setup: " + err;
      return res;
    }
    dep->server_tids = new_tasks(tasks);
    tasks = list_tasks();
    cluster::RouterConfig rc;
    rc.shards = dep->sup->endpoints();
    rc.metrics = &dep->registry;
    dep->router = std::make_unique<cluster::PredictRouter>(rc);
    if (!dep->router->start(&err)) {
      res.error = "router start: " + err;
      return res;
    }
    dep->sup->attach_router(dep->router.get());
    dep->router_tids = new_tasks(tasks);
    dep->port = dep->router->port();
    if (opt.traced) {
      dep->stamp = std::make_unique<EntryStamp>(s, nullptr);
      for (std::size_t i = 0; i < kShards; ++i) {
        dep->sup->model(i).attach_observer(dep->stamp.get());
      }
    }
  } else {
    serve::SnapshotStoreConfig stc;
    stc.dir = opt.dir + "/store";
    dep->store = std::make_unique<serve::SnapshotStore>(stc);
    const auto pub = dep->store->publish(*frozen);
    auto loaded = dep->store->load_latest();
    if (!pub.ok || loaded.snapshot == nullptr) {
      res.error = "store: " + pub.error + loaded.error;
      return res;
    }
    dep->model = std::make_unique<serve::ModelServer>(
        model_config(w, &dep->registry));
    dep->model->publish(loaded.snapshot);
    if (online) {
      serve::SnapshotStoreConfig tsc;
      tsc.dir = opt.dir + "/trainer";
      dep->trainer_store = std::make_unique<serve::SnapshotStore>(tsc);
      auto tc = trainer_config(w, s);
      tc.store = dep->trainer_store.get();
      tc.metrics = &dep->registry;
      dep->trainer = std::make_unique<learn::OnlineTrainer>(*dep->model, tc);
      catch_up(*dep->trainer, w, s);
      tasks = list_tasks();
      dep->trainer->start();
      dep->trainer_tids = new_tasks(tasks);
    }
    if (opt.traced) {
      dep->stamp = std::make_unique<EntryStamp>(
          s, online ? &dep->trainer->queue() : nullptr);
      dep->model->attach_observer(dep->stamp.get());
    } else if (online) {
      dep->trainer->attach();
    }
    tasks = list_tasks();
    net::NetServerConfig nc;
    nc.workers = kLoopWorkers;
    nc.metrics = &dep->registry;
    dep->server = std::make_unique<net::PredictServer>(*dep->model, nc);
    if (!dep->server->start(&err)) {
      res.error = "server start: " + err;
      return res;
    }
    dep->server_tids = new_tasks(tasks);
    dep->port = dep->server->port();
  }

  // ---- Replay: closed loop per connection, publish at day boundaries.
  std::uint64_t expected_obs = 0;
  if (online) {
    expected_obs = s.trace.day_range(0, w.train_days - 1).size();
  }
  std::vector<std::function<bool(std::size_t)>> hooks(s.conns.size());
  if (online) {
    const ConnPlan& plan = s.conns[0];
    hooks[0] = [&](std::size_t f) {
      expected_obs += plan.frame_first[f + 1] - plan.frame_first[f];
      if (f + 1 == plan.frames() || plan.frame_day[f + 1] == plan.frame_day[f]) {
        return true;
      }
      // The day's last answer is in: wait until the trainer absorbed every
      // observation of the day, then publish and time it.
      const std::uint64_t t0 = now_ns();
      while (dep->trainer->observations() < expected_obs) {
        dep->trainer->step();
        if (dep->trainer->observations() < expected_obs) {
          std::this_thread::yield();
        }
      }
      const bool ok = dep->trainer->publish_at(s.boundaries[plan.frame_day[f]]);
      res.publish_ms.push_back(double(now_ns() - t0) / 1e6);
      return ok;
    };
  }
  ContextSwitches cs;
  std::vector<ConnRun> runs(s.conns.size());
  std::map<pid_t, std::uint64_t> cpu_base;
  if (opt.traced) {
    for (pid_t tid : list_tasks()) cpu_base[tid] = task_cpu_ns(tid);
  }
  const CpuTicks ticks0 = opt.traced ? cpu_ticks() : CpuTicks{};
  const std::uint64_t cs0 = cs.read();
  const std::uint64_t cpu0 = process_cpu_ns();
  const std::uint64_t wall0 = now_ns();
  {
    std::vector<std::thread> clients;
    for (std::size_t c = 0; c < s.conns.size(); ++c) {
      clients.emplace_back([&, c] {
        run_conn(dep->port, s.conns[c], opt.traced, hooks[c], runs[c]);
      });
    }
    for (auto& t : clients) t.join();
  }
  const std::uint64_t wall1 = now_ns();
  const std::uint64_t cpu1 = process_cpu_ns();
  const std::uint64_t cs1 = cs.read();
  std::map<pid_t, std::uint64_t> cpu_end;
  if (opt.traced) {
    const CpuTicks ticks1 = cpu_ticks();
    res.cpu = {ticks1.steal_s - ticks0.steal_s, ticks1.idle_s - ticks0.idle_s};
    for (pid_t tid : list_tasks()) cpu_end[tid] = task_cpu_ns(tid);
  }
  for (auto& r : runs) r.fd.reset();
  std::uint64_t first_answer = ~0ull, hook_wall = 0, hook_proc = 0;
  for (const auto& r : runs) {
    if (!r.error.empty()) {
      res.error = r.error;
      return res;
    }
    if (!r.t_recv.empty()) first_answer = std::min(first_answer, r.t_recv[0]);
    hook_wall += r.hook_wall_ns;
    hook_proc += r.hook_proc_cpu_ns;
  }
  res.setup_s = double(first_answer - setup0) / 1e9;
  res.serve_wall_s = double(wall1 - wall0 - hook_wall) / 1e9;
  res.serve_cpu_s = double(cpu1 - cpu0 - hook_proc) / 1e9;
  res.ctx_switches = cs1 - cs0;

  // ---- Click workloads: republish the serving model (versions 2, 3, ...)
  // through the store into every serving ModelServer, each timed from the
  // last answer before it and verified by one answer per shard.
  if (!online) {
    std::uint64_t last_answer = 0;
    for (const auto& r : runs) {
      last_answer = std::max(last_answer, r.t_recv.back());
    }
    std::vector<net::WireRequest> probes;
    std::set<std::size_t> covered;
    const auto& any = s.conns[0].reqs.back();
    for (ClientId c = ClientId(s.trace.clients.size());
         covered.size() < (routed ? kShards : 1); ++c) {
      if (covered.insert(routed ? dep->router->shard_of(c) : 0).second) {
        probes.push_back({0, c, any.url, any.timestamp});
      }
    }
    for (std::uint64_t v = 2; v < 2 + kRepublishes; ++v) {
      res.error = republish(*dep, opt.dir, v);
      if (!res.error.empty()) return res;
      res.publish_ms.push_back(double(now_ns() - last_answer) / 1e6);
      if (!probe_version(dep->port, probes, v)) {
        res.error = "republished version " + std::to_string(v) +
                    " not serving";
        return res;
      }
      last_answer = now_ns();
    }
  }

  // ---- Program state at the end of the run, by /metrics names.
  if (routed) {
    for (std::size_t i = 0; i < kShards; ++i) {
      res.snapshot_bytes += dep->sup->model(i).snapshot()->storage_bytes();
    }
    res.cluster_retries = counter(dep->registry, "webppm_cluster_retries_total");
    res.cluster_give_ups =
        counter(dep->registry, "webppm_cluster_give_ups_total");
  } else {
    res.snapshot_bytes = dep->model->snapshot()->storage_bytes();
  }

  // ---- Traced: spans and CPU by thread role.
  if (opt.traced) {
    double inbound = 0, outbound = 0;
    std::size_t frames = 0;
    std::uint32_t id0 = 0;  // request ids are conn-major
    for (std::size_t c = 0; c < runs.size(); ++c) {
      const ConnPlan& plan = s.conns[c];
      for (std::size_t f = 0; f < plan.frames(); ++f) {
        // A frame reaches ModelServer when its first request does.
        const double entry = double(dep->stamp->stamp(id0 + plan.frame_first[f]));
        inbound += entry - double(runs[c].t_sent[f]);
        outbound += double(runs[c].t_recv[f]) - entry;
        ++frames;
      }
      id0 += std::uint32_t(plan.reqs.size());
      res.client_cpu_s += double(runs[c].cpu_ns) / 1e9;
      res.role_cpu_s["publish"] += double(runs[c].hook_cpu_ns) / 1e9;
    }
    res.inbound_us = inbound / double(frames) / 1e3;
    res.outbound_us = outbound / double(frames) / 1e3;
    auto delta = [&](pid_t tid) {
      const auto b = cpu_base.find(tid);
      const auto e = cpu_end.find(tid);
      if (e == cpu_end.end()) return 0.0;
      return double(e->second - (b == cpu_base.end() ? 0 : b->second)) / 1e9;
    };
    std::set<pid_t> known;
    auto add_role = [&](const char* role, const std::vector<pid_t>& tids) {
      for (pid_t t : tids) {
        res.role_cpu_s[role] += delta(t);
        known.insert(t);
      }
    };
    add_role("server", dep->server_tids);
    add_role("router", dep->router_tids);
    add_role("trainer", dep->trainer_tids);
    for (const auto& [tid, ns] : cpu_end) {
      (void)ns;
      if (known.count(tid) != 0) continue;
      // Threads born during the replay are the router's per-connection
      // threads (client threads have exited by now).
      const bool born = cpu_base.count(tid) == 0;
      res.role_cpu_s[born && routed ? "router" : "other"] += delta(tid);
    }
  }

  // ---- Answers: digest, decode, score.
  std::vector<std::vector<std::uint8_t>> resp(runs.size());
  for (std::size_t c = 0; c < runs.size(); ++c) {
    resp[c] = std::move(runs[c].resp);
    for (std::size_t f = 0; f < s.conns[c].frames(); ++f) {
      res.rtt_us.push_back(double(runs[c].t_recv[f] - runs[c].t_start[f]) / 1e3);
    }
  }
  res.frames = res.rtt_us.size();
  dep->stop();
  // Read after stop(): the trainer's last absorb books any late drops.
  if (online) {
    res.learn_dropped = counter(dep->registry, "webppm_learn_dropped_total");
  }
  dep.reset();
  std::filesystem::remove_all(opt.dir);
  res.answers = summarize(w, s, resp);
  if (res.answers.digests != ref.digests) {
    res.error = "answers differ from the in-process reference";
  }
  return res;
}

}  // namespace ledger
