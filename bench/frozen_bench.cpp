// Space and load-path bench for the frozen snapshot format, on the paper's
// two corpora (Table 1 nasa-like, Table 2 ucb-like).
//
// For each corpus × model (standard 3-PPM, LRS, PB) this harness reports
// the frozen payload's bytes/node, the time to write and to decode it, and
// the store-level load cost of the v2 mmap generation. Standard and LRS
// are trained as arena models and frozen (build_payload), so their rows
// also report the arena's bytes/node. PB-PPM has no arena form: its row
// times ppm::PbBase::emit(), which writes the payload directly.
//
// Gate (failure exits nonzero), on the standard and LRS rows: the frozen
// payload costs >= 2x fewer bytes/node than the arena's heap footprint.
// That frozen predictions equal the arena's is ctest's to check, for every
// model kind on both corpora (tests/frozen_equivalence_test.cpp).
//
// Artifacts: BENCH_frozen.json (rows + gate results).
//
// --quick (or WEBPPM_BENCH_QUICK=1) shrinks the load-repeat count; the
// space numbers are exact either way.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "frozen/frozen.hpp"
#include "serve/frozen_snapshot.hpp"
#include "serve/snapshot_store.hpp"

namespace {

using namespace webppm;
using Clock = std::chrono::steady_clock;

struct Row {
  std::string corpus;
  std::string model;
  std::size_t nodes = 0;
  bool arena = false;         ///< an arena model was frozen (not PB)
  std::size_t arena_bytes = 0;
  std::size_t frozen_bytes = 0;
  double arena_bpn = 0.0;
  double frozen_bpn = 0.0;
  double shrink = 0.0;       ///< arena_bpn / frozen_bpn
  double freeze_ms = 0.0;    ///< build_payload, or PbBase::emit, walltime
  double decode_ms = 0.0;    ///< decode_payload walltime (validating scan)
  double load_v2_ms = 0.0;   ///< SnapshotStore mmap generation load
  bool space_ok = true;      ///< gated on arena rows only
};

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0)
      .count();
}

/// Publishes `snap` into a temporary store and times load_latest(), min
/// over `repeats` loads.
double measure_load_ms(const serve::Snapshot& snap, std::size_t repeats,
                       const std::string& dir) {
  namespace fs = std::filesystem;
  fs::remove_all(dir);
  serve::SnapshotStoreConfig cfg;
  cfg.dir = dir;
  serve::SnapshotStore store(cfg);
  const auto pub = store.publish(snap);
  if (!pub.ok) {
    std::fprintf(stderr, "publish failed: %s\n", pub.error.c_str());
    return -1.0;
  }
  double best = 1e300;
  for (std::size_t i = 0; i < repeats; ++i) {
    const auto t0 = Clock::now();
    const auto loaded = store.load_latest();
    const double ms = ms_since(t0);
    if (loaded.snapshot == nullptr) {
      std::fprintf(stderr, "load failed: %s\n", loaded.error.c_str());
      return -1.0;
    }
    best = std::min(best, ms);
  }
  fs::remove_all(dir);
  return best;
}

Row measure(const std::string& corpus, const trace::Trace& trace,
            std::uint32_t train_days, const std::string& model,
            const core::ModelSpec& spec, std::size_t load_repeats) {
  Row row;
  row.corpus = corpus;
  row.model = model;
  row.arena = spec.kind != core::ModelKind::kPopularity;

  // The snapshot the store publishes, and its payload.
  std::shared_ptr<const serve::Snapshot> snap;
  std::string payload;
  if (row.arena) {
    auto trained = core::train_model(spec, trace, 0, train_days - 1);
    snap = serve::make_snapshot(std::move(trained.predictor),
                                std::move(trained.popularity), 1);
    row.arena_bytes = snap->model->storage_bytes();
    const auto t0 = Clock::now();
    payload = serve::serialize_snapshot_frozen(*snap);
    row.freeze_ms = ms_since(t0);
  } else {
    // core::train_model's PB path, with the emit timed on its own.
    const auto window = trace.day_range(0, train_days - 1);
    auto pop = popularity::PopularityTable::build(window, trace.urls.size());
    ppm::PbBase base(spec.pb, &pop);
    base.insert(session::extract_sessions(window));
    const auto t0 = Clock::now();
    payload = base.emit();
    row.freeze_ms = ms_since(t0);
    snap = serve::make_snapshot(frozen::FrozenModel::open(payload),
                                std::move(pop), 1);
  }
  row.nodes = snap->model->node_count();
  row.frozen_bytes = payload.size();

  auto t0 = Clock::now();
  frozen::FrozenView view;
  std::string error;
  if (!frozen::decode_payload(payload, &view, &error)) {
    std::fprintf(stderr, "decode failed: %s\n", error.c_str());
    std::exit(2);
  }
  row.decode_ms = ms_since(t0);

  row.frozen_bpn = static_cast<double>(row.frozen_bytes) /
                   static_cast<double>(row.nodes);
  if (row.arena) {
    row.arena_bpn = static_cast<double>(row.arena_bytes) /
                    static_cast<double>(row.nodes);
    row.shrink = row.frozen_bpn > 0 ? row.arena_bpn / row.frozen_bpn : 0.0;
    row.space_ok = row.shrink >= 2.0;
  }

  const std::string dir =
      (std::filesystem::temp_directory_path() /
       ("webppm_frozen_bench_" + corpus + "_" + model))
          .string();
  row.load_v2_ms = measure_load_ms(*snap, load_repeats, dir);
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace webppm::bench;
  bool quick = std::getenv("WEBPPM_BENCH_QUICK") != nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
  }
  const std::size_t load_repeats = quick ? 3 : 9;

  std::printf("=== frozen_bench: arena vs frozen snapshot storage ===\n");
  if (quick) std::printf("quick mode: reduced load repeats\n");
  std::printf("(pb has no arena form: its write ms is PbBase::emit)\n");
  std::printf("\n%6s %10s %9s %12s %12s %8s %8s %8s %10s %10s\n",
              "corpus", "model", "nodes", "arena B", "frozen B", "arena",
              "frozen", "shrink", "write ms", "load v2");

  struct Case {
    std::string model;
    webppm::core::ModelSpec spec;
  };
  const std::vector<Case> cases = {
      {"standard", webppm::core::ModelSpec::standard_fixed(3)},
      {"lrs", webppm::core::ModelSpec::lrs_model()},
      {"pb", webppm::core::ModelSpec::pb_model()},
  };

  std::vector<Row> rows;
  for (const auto& [corpus, trace, train_days] :
       std::vector<std::tuple<std::string, const webppm::trace::Trace*,
                              std::uint32_t>>{
           {"nasa", &nasa_trace(), 7}, {"ucb", &ucb_trace(), 5}}) {
    for (const auto& c : cases) {
      rows.push_back(
          measure(corpus, *trace, train_days, c.model, c.spec, load_repeats));
      const auto& r = rows.back();
      if (!r.arena) {
        std::printf("%6s %10s %9zu %12s %12zu %8s %7.1f %8s %10.2f "
                    "%10.2f\n",
                    r.corpus.c_str(), r.model.c_str(), r.nodes, "-",
                    r.frozen_bytes, "-", r.frozen_bpn, "-", r.freeze_ms,
                    r.load_v2_ms);
        continue;
      }
      std::printf("%6s %10s %9zu %12zu %12zu %7.1f %7.1f %7.2fx "
                  "%10.2f %10.2f%s\n",
                  r.corpus.c_str(), r.model.c_str(), r.nodes, r.arena_bytes,
                  r.frozen_bytes, r.arena_bpn, r.frozen_bpn, r.shrink,
                  r.freeze_ms, r.load_v2_ms,
                  r.space_ok ? "" : "  SPACE-FAIL");
    }
  }

  bool all_space = true;
  for (const auto& r : rows) all_space = all_space && r.space_ok;
  std::printf("\nspace gate (>= 2x fewer bytes/node, arena rows): %s\n",
              all_space ? "OK" : "FAIL");

  if (FILE* f = std::fopen("BENCH_frozen.json", "w")) {
    std::fprintf(f,
                 "{\n"
                 "  \"benchmark\": \"frozen snapshot space + load, "
                 "nasa-like (Table 1) and ucb-like (Table 2)\",\n"
                 "  \"quick\": %s,\n"
                 "  \"space_ok\": %s,\n"
                 "  \"rows\": [\n",
                 quick ? "true" : "false", all_space ? "true" : "false");
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const auto& r = rows[i];
      std::fprintf(
          f,
          "    {\"corpus\": \"%s\", \"model\": \"%s\", \"nodes\": %zu, "
          "\"arena\": %s, \"arena_bytes\": %zu, \"frozen_bytes\": %zu, "
          "\"arena_bytes_per_node\": %.2f, \"frozen_bytes_per_node\": "
          "%.2f, \"shrink\": %.3f, \"freeze_ms\": %.3f, \"decode_ms\": "
          "%.3f, \"load_v2_ms\": %.3f, "
          "\"space_ok\": %s}%s\n",
          r.corpus.c_str(), r.model.c_str(), r.nodes,
          r.arena ? "true" : "false", r.arena_bytes,
          r.frozen_bytes, r.arena_bpn, r.frozen_bpn, r.shrink, r.freeze_ms,
          r.decode_ms, r.load_v2_ms,
          r.space_ok ? "true" : "false", i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("wrote BENCH_frozen.json\n");
  }

  return all_space ? 0 : 1;
}
