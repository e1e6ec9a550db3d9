// Cost gate for learn::OnlineTrainer on the serve path (DESIGN.md §15).
//
// Gate 4, detached overhead: a server whose trainer was attached and then
// detached must cost < 3% over a server that never had an observer — the
// steady-state cost of having the pipeline built but turned off. Both
// sides replay the last day of a nasa-like trace through a fresh
// single-thread server holding the same PB-PPM snapshot, compared by the
// method in timing.hpp. Any failure, UNRESOLVED included, exits nonzero.
//
// The trainer's identity contracts run in ctest: OnlineTrainer.
// ConvergesToOracle* (in process and over observe frames), drift recovery
// and the attached-trainer answer identity (tests/learn_test.cpp).
//
// Artifact: BENCH_online.json (the gate's reading, rounds and set-aside
// share). --quick (or WEBPPM_BENCH_QUICK=1) shrinks the trace for CI.
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "core/experiment.hpp"
#include "learn/trainer.hpp"
#include "serve/model_server.hpp"
#include "timing.hpp"
#include "workload/generator.hpp"

int main(int argc, char** argv) {
  using namespace webppm;
  bool quick = std::getenv("WEBPPM_BENCH_QUICK") != nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
  }
  std::printf("online-training cost gate%s\n\n", quick ? " (quick)" : "");

  const auto trace = workload::generate_page_trace(
      workload::nasa_like(quick ? 3 : 5, quick ? 0.2 : 0.5));
  const core::ModelSpec spec = core::ModelSpec::pb_model();
  const std::uint32_t last = trace.day_count() - 1;
  core::TrainedModel tm = core::train_model(spec, trace, 0, last - 1);
  const auto snap = serve::make_snapshot(std::move(tm.predictor),
                                         std::move(tm.popularity), 1);
  const auto eval = trace.day_slice(last);
  // A run replays at least 50k queries (~20 ms), so the clock's
  // granularity and a fresh server's first touches stay far below 3%.
  const std::size_t passes = 50'000 / eval.size() + 1;

  auto run = [&](bool detached) {
    serve::ModelServer server;
    server.publish(snap);
    learn::OnlineTrainerConfig tc;
    tc.spec = spec;
    tc.policy.day_boundaries = false;
    learn::OnlineTrainer trainer(server, tc);
    if (detached) {
      trainer.attach();
      trainer.detach();
    }
    std::vector<ppm::Prediction> preds;
    return bench::cpu_seconds_of([&] {
      for (std::size_t pass = 0; pass < passes; ++pass) {
        const TimeSec shift = pass * kSecondsPerDay;
        for (auto r : eval) {
          r.timestamp += shift;
          server.query(r, preds);
        }
      }
    });
  };
  const bench::TimingGate gate{.name = "4 detached trainer overhead"};
  const auto r = bench::run_timing_gate(gate, [&] { return run(false); },
                                        [&] { return run(true); });
  bench::print_timing(gate, r);

  if (std::FILE* f = std::fopen("BENCH_online.json", "w")) {
    std::fprintf(f, "{\n  \"quick\": %s,\n", quick ? "true" : "false");
    bench::write_timing_json(f, "detached_overhead", gate, r);
    std::fprintf(f, "\n}\n");
    std::fclose(f);
    std::printf("\nwrote BENCH_online.json\n");
  }
  std::printf("%s\n", r.pass ? "ALL GATES PASSED" : "GATE FAILURE");
  return r.pass ? 0 : 1;
}
