// Batch gate for net::PredictServer: v2 batch frames must reach >= 3x the
// predictions/s of some v1 row at no more than that row's p99.
//
// Protocol: train PB-PPM on days 1..7 of the nasa-like trace, publish it
// into a ModelServer fronted by the epoll PredictServer on 127.0.0.1, and
// replay day 8 through net::LoadClient closed-loop. The rows are v1 frames
// over 1, 2 and 4 connections plus the batch sweep's own v1 row, and v2
// batches of 8, 32 and 128 on one connection. The work runs on server
// threads, so the thread CPU clock cannot price it: a row is measured in
// walltime predictions/s and round-trip p99. Each round runs every row
// once on a fresh server, v1 and batch rows alternating, so host drift
// lands on both sides; the gate compares each row's medians over the
// rounds. A batch row passes when its median predictions/s is >= 3x some
// v1 row's and its median p99 is <= that row's (batch latency is the whole
// frame's round trip recorded once per sub-request, so the fair tail
// comparison is against any v1 configuration one would run, not only the
// same connection count).
//
// Byte identity of v1 and v2 answers, the chaos storm and recovery run in
// ctest (NetLoopback.*, NetLoopbackBatch.*).
//
// Artifact: BENCH_net.json (per-row medians, every round's readings, and
// the verdict). --quick (or WEBPPM_BENCH_QUICK=1) shortens the stream.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "net/load_client.hpp"
#include "net/server.hpp"
#include "serve/model_server.hpp"
#include "timing.hpp"

namespace {

using namespace webppm;

struct Row {
  const char* label;
  std::size_t connections;
  std::size_t batch_size;  ///< 0 = v1 single-query frames
  std::vector<double> qps;
  std::vector<double> p99_us;
};

/// One replay of `eval` at the row's shape against a fresh server.
bool run_row(std::shared_ptr<const serve::Snapshot> snap,
             std::span<const trace::Request> eval, Row& row) {
  serve::ModelServer model;
  model.publish(std::move(snap));
  net::PredictServer server(model, {});
  std::string err;
  if (!server.start(&err)) {
    std::fprintf(stderr, "server start failed: %s\n", err.c_str());
    return false;
  }
  net::LoadClientConfig lc;
  lc.port = server.port();
  lc.connections = row.connections;
  lc.batch_size = row.batch_size;
  const auto res = net::LoadClient(lc).run(eval);
  server.shutdown();
  if (!res.ok || res.responses != eval.size()) {
    std::fprintf(stderr, "%s replay failed: %s\n", row.label,
                 res.error.c_str());
    return false;
  }
  row.qps.push_back(res.qps);
  row.p99_us.push_back(res.p99_us);
  return true;
}

void write_series(std::FILE* f, const char* key,
                  const std::vector<double>& v) {
  std::fprintf(f, "\"%s\": [", key);
  for (std::size_t i = 0; i < v.size(); ++i) {
    std::fprintf(f, "%s%.2f", i == 0 ? "" : ", ", v[i]);
  }
  std::fprintf(f, "]");
}

}  // namespace

int main(int argc, char** argv) {
  using namespace webppm::bench;
  bool quick = std::getenv("WEBPPM_BENCH_QUICK") != nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
  }

  const auto& trace = nasa_trace();
  print_header("=== net_throughput: v2 batch gate, epoll PredictServer over "
               "loopback (nasa-like day 8) ===",
               trace);

  constexpr std::uint32_t kTrainDays = 7;
  auto trained =
      core::train_model(core::ModelSpec::pb_model(), trace, 0, kTrainDays - 1);
  auto eval = trace.day_slice(kTrainDays);
  if (quick && eval.size() > 4000) eval = eval.first(4000);
  const auto snap = serve::make_snapshot(std::move(trained.predictor),
                                         std::move(trained.popularity), 1);

  constexpr std::size_t kRounds = 9;
  // Run order within a round: v1 and batch rows alternate.
  std::vector<Row> rows{
      {"v1 x1", 1, 0, {}, {}},    {"batch 8", 1, 8, {}, {}},
      {"v1 x2", 2, 0, {}, {}},    {"batch 32", 1, 32, {}, {}},
      {"v1 x4", 4, 0, {}, {}},    {"batch 128", 1, 128, {}, {}},
      {"v1 x1 (sweep)", 1, 0, {}, {}}};
  std::printf("eval stream: %zu requests; %zu rounds of %zu rows\n\n",
              eval.size(), kRounds, rows.size());
  for (std::size_t round = 0; round < kRounds; ++round) {
    for (Row& row : rows) {
      if (!run_row(snap, eval, row)) return 1;
    }
  }

  std::printf("%-14s %12s %14s %16s\n", "row", "connections",
              "predictions/s", "p99 (us)");
  for (const Row& row : rows) {
    std::printf("%-14s %12zu %14.0f %16.2f\n", row.label, row.connections,
                median(row.qps), median(row.p99_us));
  }
  const Row* win_batch = nullptr;
  const Row* win_v1 = nullptr;
  for (const Row& b : rows) {
    if (b.batch_size == 0 || win_batch != nullptr) continue;
    for (const Row& v : rows) {
      if (v.batch_size == 0 && median(b.qps) >= 3.0 * median(v.qps) &&
          median(b.p99_us) <= median(v.p99_us)) {
        win_batch = &b;
        win_v1 = &v;
        break;
      }
    }
  }
  const bool ok = win_batch != nullptr;
  if (ok) {
    std::printf("\nbatch gate: OK — %s dominates %s (medians over %zu "
                "rounds)\n",
                win_batch->label, win_v1->label, kRounds);
  } else {
    std::printf("\nbatch gate: FAIL — no batch row reaches >= 3x a v1 row's "
                "predictions/s at <= its p99 (medians over %zu rounds)\n",
                kRounds);
  }

  if (std::FILE* f = std::fopen("BENCH_net.json", "w")) {
    std::fprintf(f,
                 "{\n  \"benchmark\": \"PredictServer loopback replay, "
                 "nasa-like day 8, pb-ppm\",\n  \"quick\": %s,\n"
                 "  \"rounds\": %zu,\n  \"batch_ok\": %s,\n  \"rows\": [\n",
                 quick ? "true" : "false", kRounds, ok ? "true" : "false");
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const Row& r = rows[i];
      std::fprintf(f,
                   "    {\"row\": \"%s\", \"connections\": %zu, "
                   "\"batch_size\": %zu, \"median_predictions_per_sec\": "
                   "%.0f, \"median_p99_us\": %.2f, ",
                   r.label, r.connections, r.batch_size, median(r.qps),
                   median(r.p99_us));
      write_series(f, "predictions_per_sec", r.qps);
      std::fprintf(f, ", ");
      write_series(f, "p99_us", r.p99_us);
      std::fprintf(f, "}%s\n", i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("wrote BENCH_net.json\n");
  }
  return ok ? 0 : 1;
}
