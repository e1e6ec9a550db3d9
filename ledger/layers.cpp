// The traced run's in-process rows: each layer replayed alone on the
// workload's own stream, timed by the calling thread's CPU clock (the
// process is pinned to one CPU, so nothing else runs inside a timed loop),
// and the publish path split into its public calls on a twin trainer.
#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>

#include "learn/trainer.hpp"
#include "ledger.hpp"
#include "net/server.hpp"
#include "serve/frozen_snapshot.hpp"
#include "serve/snapshot_store.hpp"
#include "session/online.hpp"

namespace ledger {
namespace {

/// Repeats of each timed in-process replay; the median is reported.
constexpr int kRepeats = 5;

template <typename F>
double median_cpu_ns(F&& body) {
  std::vector<double> v;
  for (int i = 0; i < kRepeats; ++i) {
    const std::uint64_t t0 = thread_cpu_ns();
    body();
    v.push_back(double(thread_cpu_ns() - t0));
  }
  return median(std::move(v));
}

std::vector<trace::Request> replay_requests(const Stream& s) {
  std::vector<trace::Request> out;
  for (const auto& plan : s.conns) {
    for (const auto& q : plan.reqs) out.push_back(net::to_trace_request(q));
  }
  return out;
}

/// Every query of the stream against a fresh ModelServer holding `snap`:
/// query_ex per click, or query_batch over the workload's frames.
void serve_replay(const WorkloadSpec& w, const Stream& s,
                  std::shared_ptr<const serve::Snapshot> snap,
                  bool scoreboard) {
  serve::ModelServerConfig cfg;
  cfg.scoreboard.enabled = scoreboard;
  serve::ModelServer model(cfg);
  model.publish(std::move(snap));
  std::vector<ppm::Prediction> preds;
  serve::BatchQueryScratch scratch;
  std::vector<trace::Request> frame;
  for (const auto& plan : s.conns) {
    for (std::size_t f = 0; f < plan.frames(); ++f) {
      if (w.batch == 0) {
        model.query_ex(net::to_trace_request(plan.reqs[plan.frame_first[f]]),
                       preds);
        continue;
      }
      plan.frame_requests(f, frame);
      model.query_batch(frame, scratch);
    }
  }
}

/// Writes `bytes` to `path` the way the store does (temp, write, rename),
/// with or without the fsyncs. Returns wall ms.
double write_generation(const std::string& dir, const std::string& bytes,
                        bool sync) {
  const std::string tmp = dir + "/gen.tmp";
  const std::string fin = dir + "/gen.snap";
  const std::uint64_t t0 = now_ns();
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return 0.0;
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t k = ::write(fd, bytes.data() + off, bytes.size() - off);
    if (k <= 0) break;
    off += static_cast<std::size_t>(k);
  }
  if (sync) ::fsync(fd);
  ::close(fd);
  std::filesystem::rename(tmp, fin);
  if (sync) {
    const int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
    if (dfd >= 0) {
      ::fsync(dfd);
      ::close(dfd);
    }
  }
  return double(now_ns() - t0) / 1e6;
}

}  // namespace

std::map<std::string, double> measure_layers(const WorkloadSpec& w,
                                             const Stream& s,
                                             const std::string& dir) {
  std::map<std::string, double> m;
  const double queries = double(s.queries);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  // core: offline training of the setup's model.
  std::vector<double> train;
  std::shared_ptr<const serve::Snapshot> frozen;
  for (int i = 0; i < 3; ++i) {
    const std::uint64_t t0 = now_ns();
    auto tm = core::train_model(w.spec, s.trace, 0, w.train_days - 1);
    train.push_back(double(now_ns() - t0) / 1e6);
    frozen = serve::freeze_snapshot(*serve::make_snapshot(
        std::move(tm.predictor), std::move(tm.popularity), 1));
  }
  m["core.train_ms"] = median(train);

  // frozen: FrozenModel::predict on the contexts the serve layer would
  // build for this stream (same sessionizer rules and window).
  const auto reqs = replay_requests(s);
  std::vector<UrlId> ctx_flat;
  std::vector<std::uint32_t> ctx_begin{0};
  {
    session::OnlineSessionizer contexts(serve::ModelServerConfig{}.session,
                                        serve::ModelServerConfig{}.context_window);
    for (const auto& r : reqs) {
      const auto view = contexts.observe(r);
      ctx_flat.insert(ctx_flat.end(), view.begin(), view.end());
      ctx_begin.push_back(std::uint32_t(ctx_flat.size()));
    }
  }
  std::vector<ppm::Prediction> preds;
  std::uint64_t candidates = 0;
  const double predict_ns = median_cpu_ns([&] {
    candidates = 0;
    for (std::size_t i = 0; i + 1 < ctx_begin.size(); ++i) {
      const std::span<const UrlId> ctx(ctx_flat.data() + ctx_begin[i],
                                       ctx_begin[i + 1] - ctx_begin[i]);
      if (ctx.empty()) continue;
      preds.clear();
      frozen->model->predict(ctx, preds);
      candidates += preds.size();
    }
  });
  m["frozen.predict_ns"] = predict_ns / queries;
  m["frozen.candidates_per_query"] = double(candidates) / queries;

  // serve: the same stream through ModelServer, stacked on frozen.
  const double armed = median_cpu_ns([&] { serve_replay(w, s, frozen, true); });
  const double off = median_cpu_ns([&] { serve_replay(w, s, frozen, false); });
  const double query = w.online ? armed : off;
  m["serve.query_ns"] = query / queries;
  m["serve.self_ns"] = (query - predict_ns) / queries;
  m["serve.scoreboard_ns"] = (armed - off) / queries;

  // wire: the server's request decode and response encode, per query.
  {
    std::vector<std::vector<net::WireResponse>> responses;
    serve::ModelServer model;
    model.publish(frozen);
    for (const auto& plan : s.conns) {
      for (std::size_t f = 0; f < plan.frames(); ++f) {
        responses.emplace_back();
        for (auto k = plan.frame_first[f]; k < plan.frame_first[f + 1]; ++k) {
          const auto qr =
              model.query_ex(net::to_trace_request(plan.reqs[k]), preds);
          responses.back().push_back(
              net::make_wire_response(qr, plan.reqs[k], 1, preds));
        }
      }
    }
    std::vector<std::uint8_t> out;
    const double encode = median_cpu_ns([&] {
      out.clear();
      for (const auto& frame : responses) {
        if (w.batch == 0) {
          net::encode_response(frame.front(), out);
        } else {
          net::encode_batch_response(frame, out);
        }
      }
    });
    double request_bytes = 0;
    net::WireRequest one;
    std::vector<net::WireRequest> batch;
    const double decode = median_cpu_ns([&] {
      request_bytes = 0;
      for (const auto& plan : s.conns) {
        for (std::size_t f = 0; f < plan.frames(); ++f) {
          const std::span<const std::uint8_t> body(
              plan.bytes.data() + plan.frame_off[f] + net::kFrameHeaderBytes,
              plan.frame_off[f + 1] - plan.frame_off[f] -
                  net::kFrameHeaderBytes);
          request_bytes += double(plan.frame_off[f + 1] - plan.frame_off[f]);
          if (w.batch == 0) {
            (void)net::decode_request(body, one);
          } else {
            (void)net::decode_batch_request(body, batch);
          }
        }
      }
    });
    m["wire.encode_ns_per_query"] = encode / queries;
    m["wire.decode_ns_per_query"] = decode / queries;
    m["wire.bytes_per_query"] = (request_bytes + double(out.size())) / queries;
  }

  // learn + store + serve.swap: the publish path split into public calls
  // on a twin trainer that saw the same history (training window, then
  // the replay days), publishing at the end of each replay day.
  std::vector<double> absorb_ns, train_ms, freeze_ms, write_ms, load_ms,
      swap_us, faults, fsync_ms;
  double obs = 0;
  std::size_t trainer_bytes = 0;
  std::uint64_t dropped = 0;
  {
    serve::ModelServer target;
    target.publish(frozen);
    learn::OnlineTrainerConfig tc;
    tc.spec = w.spec;
    tc.policy.day_boundaries = false;
    tc.queue_capacity = s.trace.requests.size() + 1;
    tc.url_count_hint = s.trace.urls.size();
    learn::OnlineTrainer twin(target, tc);
    serve::SnapshotStoreConfig sc;
    sc.dir = dir + "/store";
    serve::SnapshotStore store(sc);
    const std::string raw_dir = dir + "/raw";
    std::filesystem::create_directories(raw_dir);

    auto absorb = [&](std::span<const trace::Request> rs) {
      for (const auto& r : rs) twin.queue().push(learn::Observation::from(r));
      const std::uint64_t t0 = thread_cpu_ns();
      twin.step();
      absorb_ns.push_back(double(thread_cpu_ns() - t0));
      obs += double(rs.size());
    };
    absorb(s.trace.day_range(0, w.train_days - 1));
    for (std::uint32_t d = 0; d < w.replay_days; ++d) {
      absorb(s.trace.day_slice(w.train_days + d));
      const TimeSec settle = TimeSec(w.train_days + d + 1) * kSecondsPerDay;
      const std::uint64_t f0 = thread_page_faults();
      std::uint64_t t = now_ns();
      twin.publish_at(settle);  // freeze and store off: copy + train_more
      train_ms.push_back(double(now_ns() - t) / 1e6);
      t = now_ns();
      auto snap = serve::freeze_snapshot(*target.snapshot());
      freeze_ms.push_back(double(now_ns() - t) / 1e6);
      t = now_ns();
      const auto pub = store.publish(*snap);
      write_ms.push_back(double(now_ns() - t) / 1e6);
      t = now_ns();
      auto loaded = store.load_latest();
      load_ms.push_back(double(now_ns() - t) / 1e6);
      faults.push_back(double(thread_page_faults() - f0));
      if (pub.ok && loaded.snapshot != nullptr) {
        t = now_ns();
        target.publish(loaded.snapshot);
        swap_us.push_back(double(now_ns() - t) / 1e3);
      }
      // The same generation bytes written with and without the fsyncs:
      // what durability adds to a store write.
      const std::string bytes = serve::serialize_snapshot_frozen(*snap);
      for (int i = 0; i < 3; ++i) {
        const double synced = write_generation(raw_dir, bytes, true);
        const double unsynced = write_generation(raw_dir, bytes, false);
        fsync_ms.push_back(synced - unsynced);
      }
    }
    trainer_bytes = twin.storage_bytes();
    dropped = twin.dropped();
  }
  double absorb_total = 0;
  for (double v : absorb_ns) absorb_total += v;
  m["learn.absorb_ns_per_obs"] = absorb_total / obs;
  m["learn.train_ms"] = median(train_ms);
  m["learn.freeze_ms"] = median(freeze_ms);
  m["learn.page_faults_per_publish"] = median(faults);
  m["learn.trainer_bytes"] = double(trainer_bytes);
  m["learn.dropped"] = double(dropped);
  m["store.write_ms"] = median(write_ms);
  m["store.load_ms"] = median(load_ms);
  m["store.fsync_wait_ms"] = median(fsync_ms);
  m["serve.swap_us"] = median(swap_us);
  std::filesystem::remove_all(dir);
  return m;
}

}  // namespace ledger
