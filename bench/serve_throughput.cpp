// Cost gates for serve::ModelServer's query path.
//
// Protocol: train PB-PPM on days 1..7 of the nasa-like trace, publish it
// (frozen: PB-PPM's only form, the one every workload serves), then replay
// day 8 through fresh single-thread servers, comparing each variant with
// its control by the method in timing.hpp (interleaved rounds on the
// thread CPU clock, median over the rounds whose controls agree).
//
// Gates (any failure, UNRESOLVED included, exits nonzero):
//   2. instrumentation — metrics attached at the default latency sampling
//      cost < 3% over a plain server;
//   3. fault layer armed-idle — a fault plan that names no serving site
//      costs < 3% over the disarmed fast path (WEBPPM_FAULT_DISABLED
//      removes the sites entirely);
//   4. frozen snapshot — on an LRS model trained on the same 7 days (LRS
//      still has an arena form, and its frozen/arena ratio is the closest
//      to PB's) the frozen compilation serves >= 1.1x the arena's
//      predictions per CPU second;
//   6. scoreboard armed-idle — scoring toggled off (one relaxed load per
//      query) costs < 3% over a scoreboard-free server.
// The numbering follows DESIGN.md §7. The answers each variant gives are
// held to the simulator's piggyback path by tests/serve_piggyback_test.cpp,
// and query_batch to a sequential replay by ModelServerBatch.* in ctest.
//
// Artifacts: BENCH_serve.json (each gate's reading, rounds and set-aside
// share) and BENCH_serve_metrics.prom (the registry after the
// instrumented runs). It takes no options (CI's --quick is ignored): the
// gates are sized for CI.
#include <cstdio>
#include <fstream>

#include "bench_common.hpp"
#include "fault/fault.hpp"
#include "serve/frozen_snapshot.hpp"
#include "serve/model_server.hpp"
#include "timing.hpp"

namespace {

using namespace webppm;

/// One run: a fresh server built from `cfg` and holding `snap` replays
/// `eval` `passes` times; only the query loop is timed. Later passes shift
/// timestamps by a day so the idle-timeout logic sees a continuous stream.
double replay_cpu_seconds(std::shared_ptr<const serve::Snapshot> snap,
                          const serve::ModelServerConfig& cfg,
                          std::span<const trace::Request> eval,
                          std::size_t passes) {
  serve::ModelServer server(cfg);
  server.publish(std::move(snap));
  std::vector<ppm::Prediction> out;
  return bench::cpu_seconds_of([&] {
    for (std::size_t pass = 0; pass < passes; ++pass) {
      const TimeSec shift = pass * kSecondsPerDay;
      for (auto r : eval) {
        r.timestamp += shift;
        server.query(r, out);
      }
    }
  });
}

}  // namespace

int main() {
  using namespace webppm::bench;
  const auto& trace = nasa_trace();
  print_header("=== serve_throughput: ModelServer query-path cost gates "
               "(nasa-like day 8) ===",
               trace);

  constexpr std::uint32_t kTrainDays = 7;
  auto trained =
      core::train_model(core::ModelSpec::pb_model(), trace, 0, kTrainDays - 1);
  const auto eval = trace.day_slice(kTrainDays);
  const auto snap = serve::make_snapshot(std::move(trained.predictor),
                                         std::move(trained.popularity), 1);
  // A run replays at least 50k queries (~20 ms), so the clock's
  // granularity and a fresh server's first touches stay far below 3%.
  const std::size_t passes = 50'000 / eval.size() + 1;
  std::printf("model: %s, %zu nodes; a run replays %zu requests %zu times\n\n",
              snap->model->name().data(), snap->model->node_count(),
              eval.size(), passes);

  auto run = [&](std::shared_ptr<const serve::Snapshot> s,
                 const serve::ModelServerConfig& cfg) {
    return [&, s, cfg] { return replay_cpu_seconds(s, cfg, eval, passes); };
  };
  const serve::ModelServerConfig plain;

  obs::MetricsRegistry& reg = obs::registry();
  serve::ModelServerConfig instrumented;
  instrumented.metrics = &reg;  // default latency_sample_every (64)
  const TimingGate g2{.name = "2 instrumentation overhead"};
  const auto r2 = run_timing_gate(g2, run(snap, plain),
                                  run(snap, instrumented));
  print_timing(g2, r2);

  // The armed plan has rules, none naming a serving site, so every
  // WEBPPM_FAULT_INJECT on the query path takes the armed-idle branch.
  const TimingGate g3{.name = "3 fault layer armed-idle overhead"};
  const auto disarmed = run(snap, plain);
  const auto r3 = run_timing_gate(
      g3,
      [&] {
        fault::disarm();
        return disarmed();
      },
      [&] {
        fault::arm(fault::Plan{}.fail("bench.no_such_site"));
        return disarmed();
      });
  fault::disarm();
  print_timing(g3, r3);

  auto lrs = core::train_model(core::ModelSpec::lrs_model(), trace, 0,
                               kTrainDays - 1);
  const auto arena = serve::make_snapshot(std::move(lrs.predictor),
                                          std::move(lrs.popularity), 1);
  const auto frozen = serve::freeze_snapshot(*arena);
  if (frozen == nullptr) {
    std::fprintf(stderr, "freeze_snapshot failed\n");
    return 1;
  }
  std::printf("lrs snapshot: frozen %zu bytes, arena %zu bytes\n",
              frozen->storage_bytes(), arena->storage_bytes());
  const TimingGate g4{.name = "4 lrs frozen speedup over arena",
                      .budget = 0.10,
                      .speedup = true};
  const auto r4 = run_timing_gate(g4, run(arena, plain), run(frozen, plain));
  print_timing(g4, r4);

  serve::ModelServerConfig sb_idle;
  sb_idle.scoreboard.enabled = true;
  sb_idle.scoreboard.scoring = false;
  const TimingGate g6{.name = "6 scoreboard armed-idle overhead"};
  const auto r6 = run_timing_gate(g6, run(snap, plain), run(snap, sb_idle));
  print_timing(g6, r6);

  {
    std::ofstream out("BENCH_serve_metrics.prom", std::ios::trunc);
    reg.write_prometheus(out);
  }
  if (std::FILE* f = std::fopen("BENCH_serve.json", "w")) {
    std::fprintf(f,
                 "{\n  \"benchmark\": \"ModelServer query-path cost gates, "
                 "nasa-like day 8, pb-ppm\",\n");
    write_timing_json(f, "instrumentation_overhead", g2, r2);
    std::fprintf(f, ",\n");
    write_timing_json(f, "fault_idle_overhead", g3, r3);
    std::fprintf(f, ",\n");
    write_timing_json(f, "lrs_frozen_speedup", g4, r4);
    std::fprintf(f, ",\n");
    write_timing_json(f, "scoreboard_idle_overhead", g6, r6);
    std::fprintf(f, "\n}\n");
    std::fclose(f);
    std::printf("\nwrote BENCH_serve.json, BENCH_serve_metrics.prom\n");
  }

  const bool ok = r2.pass && r3.pass && r4.pass && r6.pass;
  std::printf("%s\n", ok ? "ALL GATES PASSED" : "GATE FAILURE");
  return ok ? 0 : 1;
}
