// serve_demo: the deployment loop of the paper's §2 server, end to end —
// offline training, the persisted handoff, and a concurrent-ready
// ModelServer answering per-click queries.
//
//   $ ./serve_demo [--profile nasa|ucb] [--days N] [--train K]
//                  [--model standard|lrs|pb] [--scale X]
//
// Steps:
//   1. train the chosen model on days 1..K of a synthetic trace,
//   2. publish it into a SnapshotStore in a private temp dir and
//      load_latest it back (the handoff a real deployment does between the
//      training job and the serving fleet: one frozen v2 generation file,
//      mmapped on load),
//   3. publish the snapshot into a ModelServer and replay day K+1 as live
//      clicks, measuring how often a clicked URL was among the server's
//      predictions for that client's previous click, and the query cost.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <unordered_map>
#include <unordered_set>

#include "core/webppm.hpp"
#include "serve/model_server.hpp"
#include "serve/snapshot_store.hpp"

namespace {

struct Options {
  std::string profile = "nasa";
  std::uint32_t days = 6;
  std::uint32_t train = 5;
  std::string model = "pb";
  double scale = 0.5;
};

bool parse_args(int argc, char** argv, Options& opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto need = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (a == "--profile" && (v = need())) {
      opt.profile = v;
    } else if (a == "--days" && (v = need())) {
      opt.days = static_cast<std::uint32_t>(std::strtoul(v, nullptr, 10));
    } else if (a == "--train" && (v = need())) {
      opt.train = static_cast<std::uint32_t>(std::strtoul(v, nullptr, 10));
    } else if (a == "--model" && (v = need())) {
      opt.model = v;
    } else if (a == "--scale" && (v = need())) {
      opt.scale = std::strtod(v, nullptr);
    } else {
      std::fprintf(stderr,
                   "usage: %s [--profile nasa|ucb] [--days N] [--train K]\n"
                   "          [--model standard|lrs|pb] [--scale X]\n",
                   argv[0]);
      return false;
    }
  }
  if (opt.train >= opt.days) {
    std::fprintf(stderr, "--train must be < --days (need an eval day)\n");
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace webppm;
  using Clock = std::chrono::steady_clock;
  Options opt;
  if (!parse_args(argc, argv, opt)) return 2;

  const auto gen = opt.profile == "ucb"
                       ? workload::ucb_like(opt.days, opt.scale)
                       : workload::nasa_like(opt.days, opt.scale);
  const auto trace = workload::generate_page_trace(gen);

  core::ModelSpec spec;
  if (opt.model == "standard") {
    spec = core::ModelSpec::standard_fixed(3);
  } else if (opt.model == "lrs") {
    spec = core::ModelSpec::lrs_model();
  } else if (opt.model == "pb") {
    spec = core::ModelSpec::pb_model();
  } else {
    std::fprintf(stderr, "unknown --model %s\n", opt.model.c_str());
    return 2;
  }

  // 1. Offline training on days 1..K.
  std::printf("training %s on days 1..%u of a %s-like trace (%zu requests)\n",
              spec.label.c_str(), opt.train, opt.profile.c_str(),
              trace.requests.size());
  auto trained = core::train_model(spec, trace, 0, opt.train - 1);

  // 2. Publish and load back — the training-job -> serving-fleet handoff.
  namespace fs = std::filesystem;
  std::string dir = (fs::temp_directory_path() / "serve_demo.XXXXXX").string();
  if (::mkdtemp(dir.data()) == nullptr) {
    std::perror("mkdtemp");
    return 1;
  }
  serve::SnapshotStoreConfig store_cfg;
  store_cfg.dir = dir;
  serve::SnapshotStore store(store_cfg);
  const auto pub = store.publish(
      *serve::make_snapshot(std::move(trained.predictor),
                            std::move(trained.popularity), 1));
  const auto loaded = pub.ok ? store.load_latest() : serve::LoadLatestResult{};
  std::error_code ec;
  const auto file_bytes = fs::file_size(
      fs::path(dir) / ("gen-" + std::to_string(pub.generation) + ".snap"),
      ec);
  fs::remove_all(dir, ec);  // the mapping keeps the loaded bytes alive
  const auto& snap = loaded.snapshot;
  if (snap == nullptr || snap->degraded()) {
    std::fprintf(stderr, "snapshot round-trip failed: %s\n",
                 pub.ok ? loaded.error.c_str() : pub.error.c_str());
    return 1;
  }
  std::printf("published: %ju bytes on disk, %zu nodes loaded\n",
              static_cast<std::uintmax_t>(file_bytes),
              snap->model->node_count());

  // 3. Serve day K+1 click by click.
  serve::ModelServer server;
  server.publish(snap);

  // A prediction "hits" when the clicked URL was in the prediction list the
  // server produced for that client's previous click — the serving-side
  // analogue of the simulator's prefetch-hit accounting (no cache model
  // here, so numbers are close to, not identical to, the §4 simulation).
  std::unordered_map<ClientId, std::unordered_set<UrlId>> last_predicted;
  std::uint64_t clicks = 0, predicted_clicks = 0, candidates = 0, hits = 0;
  double query_seconds = 0.0;
  std::vector<ppm::Prediction> out;
  for (const auto& r : trace.day_slice(opt.train)) {
    if (r.status >= 400) continue;
    ++clicks;
    if (const auto it = last_predicted.find(r.client);
        it != last_predicted.end() && it->second.contains(r.url)) {
      ++hits;
    }
    const auto q0 = Clock::now();
    const bool ok = server.query(r, out);
    query_seconds += std::chrono::duration<double>(Clock::now() - q0).count();
    auto& mine = last_predicted[r.client];
    mine.clear();
    if (ok && !out.empty()) {
      ++predicted_clicks;
      candidates += out.size();
      for (const auto& p : out) mine.insert(p.url);
    }
  }

  std::printf("\n=== served day %u ===\n", opt.train + 1);
  std::printf("clicks served          %llu (%zu clients tracked)\n",
              static_cast<unsigned long long>(clicks), server.client_count());
  std::printf("clicks with predictions %.1f%% (avg %.2f candidates)\n",
              clicks > 0 ? 100.0 * static_cast<double>(predicted_clicks) /
                               static_cast<double>(clicks)
                         : 0.0,
              predicted_clicks > 0
                  ? static_cast<double>(candidates) /
                        static_cast<double>(predicted_clicks)
                  : 0.0);
  std::printf("next-click hit rate    %.1f%% of clicks were predicted on "
              "the previous click\n",
              clicks > 0 ? 100.0 * static_cast<double>(hits) /
                               static_cast<double>(clicks)
                         : 0.0);
  std::printf("mean query latency     %.2f us\n",
              clicks > 0 ? 1e6 * query_seconds / static_cast<double>(clicks)
                         : 0.0);
  return 0;
}
