// server_prefetch_sim: the paper's §4 experiment as a configurable CLI.
//
//   $ ./server_prefetch_sim [--profile nasa|ucb] [--days N] [--train K]
//                           [--model standard|3ppm|lrs|pb|pb-aggressive]
//                           [--threshold-kb N] [--scale X] [--seed S]
//                           [--save-model DIR] [--csv FILE]
//
// Trains the chosen model on days 1..K of a synthetic trace and replays
// day K+1 against a simulated server with per-client caches, printing the
// paper's four metrics (§2.3). --save-model publishes the trained model as
// one generation of the snapshot store at DIR.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

#include "core/webppm.hpp"
#include "serve/snapshot_store.hpp"

namespace {

struct Options {
  std::string profile = "nasa";
  std::uint32_t days = 6;
  std::uint32_t train = 5;
  std::string model = "pb";
  std::uint64_t threshold_kb = 0;  // 0 = model default
  double scale = 0.5;
  std::uint64_t seed = 0;
  std::string store_dir;   // snapshot store to publish to (optional)
  std::string csv;         // path to write the result row as CSV (optional)
};

void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--profile nasa|ucb] [--days N] [--train K]\n"
               "          [--model standard|3ppm|lrs|pb|pb-aggressive]\n"
               "          [--threshold-kb N] [--scale X] [--seed S]\n"
               "          [--save-model DIR] [--csv FILE]\n",
               argv0);
}

bool parse_args(int argc, char** argv, Options& opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto need = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", flag);
        return nullptr;
      }
      return argv[++i];
    };
    if (a == "--profile") {
      const char* v = need("--profile");
      if (!v) return false;
      opt.profile = v;
    } else if (a == "--days") {
      const char* v = need("--days");
      if (!v) return false;
      opt.days = static_cast<std::uint32_t>(std::strtoul(v, nullptr, 10));
    } else if (a == "--train") {
      const char* v = need("--train");
      if (!v) return false;
      opt.train = static_cast<std::uint32_t>(std::strtoul(v, nullptr, 10));
    } else if (a == "--model") {
      const char* v = need("--model");
      if (!v) return false;
      opt.model = v;
    } else if (a == "--threshold-kb") {
      const char* v = need("--threshold-kb");
      if (!v) return false;
      opt.threshold_kb = std::strtoull(v, nullptr, 10);
    } else if (a == "--scale") {
      const char* v = need("--scale");
      if (!v) return false;
      opt.scale = std::strtod(v, nullptr);
    } else if (a == "--seed") {
      const char* v = need("--seed");
      if (!v) return false;
      opt.seed = std::strtoull(v, nullptr, 10);
    } else if (a == "--save-model") {
      const char* v = need("--save-model");
      if (!v) return false;
      opt.store_dir = v;
    } else if (a == "--csv") {
      const char* v = need("--csv");
      if (!v) return false;
      opt.csv = v;
    } else {
      usage(argv[0]);
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
  Options opt;
  if (!parse_args(argc, argv, opt)) return 2;

  auto gen = opt.profile == "ucb" ? workload::ucb_like(opt.days, opt.scale)
                                  : workload::nasa_like(opt.days, opt.scale);
  if (opt.seed != 0) {
    gen.population.seed = opt.seed;
    gen.site.seed = opt.seed ^ 0x517eull;
  }
  const auto trace = workload::generate_page_trace(gen);

  core::ModelSpec spec;
  if (opt.model == "standard") {
    spec = core::ModelSpec::standard_unbounded();
  } else if (opt.model == "3ppm") {
    spec = core::ModelSpec::standard_fixed(3);
  } else if (opt.model == "lrs") {
    spec = core::ModelSpec::lrs_model();
  } else if (opt.model == "pb-aggressive") {
    spec = core::ModelSpec::pb_model_aggressive();
  } else if (opt.model == "pb") {
    spec = core::ModelSpec::pb_model();
  } else {
    usage(argv[0]);
    return 2;
  }
  if (opt.threshold_kb > 0) spec.size_threshold_bytes = opt.threshold_kb * 1024;

  std::printf("profile=%s days=%u train=%u model=%s threshold=%llu KB\n",
              opt.profile.c_str(), opt.days, opt.train, spec.label.c_str(),
              static_cast<unsigned long long>(spec.size_threshold_bytes /
                                              1024));
  std::printf("trace: %zu page requests over %u days, %zu URLs\n",
              trace.requests.size(), trace.day_count(), trace.urls.size());

  const auto r = core::run_day_experiment(trace, spec, opt.train);
  const auto& m = r.with_prefetch;
  std::printf("\n=== evaluation of day %u ===\n", opt.train + 1);
  std::printf("requests               %llu\n",
              static_cast<unsigned long long>(m.requests));
  std::printf("hit ratio              %.3f  (caching only: %.3f)\n",
              m.hit_ratio(), r.baseline.hit_ratio());
  std::printf("latency reduction      %.3f\n", r.latency_reduction);
  std::printf("traffic increment      %.3f\n", m.traffic_increment());
  std::printf("model space (nodes)    %zu\n", r.node_count);
  std::printf("path utilisation       %.3f\n", r.path_utilization);
  std::printf("prefetches sent        %llu (accuracy %.3f)\n",
              static_cast<unsigned long long>(m.prefetches_sent),
              m.prefetch_accuracy());
  std::printf("popular share of hits  %.3f\n",
              m.popular_share_of_prefetch_hits());

  if (!opt.store_dir.empty()) {
    // Retrain once more to obtain the concrete model object for saving
    // (run_day_experiment owns its model internally).
    auto trained = core::train_model(spec, trace, 0, opt.train - 1);
    const std::size_t nodes = trained.predictor->node_count();
    serve::SnapshotStoreConfig store_cfg;
    store_cfg.dir = opt.store_dir;
    serve::SnapshotStore store(store_cfg);
    const auto pub = store.publish(
        *serve::make_snapshot(std::move(trained.predictor),
                              std::move(trained.popularity), 1));
    if (!pub.ok) {
      std::fprintf(stderr, "cannot publish to %s: %s\n",
                   opt.store_dir.c_str(), pub.error.c_str());
      return 1;
    }
    std::printf("\nmodel published to %s as generation %llu (%zu nodes)\n",
                opt.store_dir.c_str(),
                static_cast<unsigned long long>(pub.generation), nodes);
  }
  if (!opt.csv.empty()) {
    std::ofstream out(opt.csv);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", opt.csv.c_str());
      return 1;
    }
    out << core::day_results_csv({&r, 1});
    std::printf("result row written to %s\n", opt.csv.c_str());
  }
  return 0;
}
