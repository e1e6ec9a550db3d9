// Closed-loop throughput/latency bench for serve::ModelServer, plus the
// observability overhead gate.
//
// Protocol: train PB-PPM on days 1..7 of the nasa-like trace, publish it
// (frozen: PB-PPM's only form, the one every workload serves), then replay
// day 8 through the server. The eval stream is sharded by
// client (every client's clicks stay in order on one thread, preserving
// per-client context semantics); each of 1/2/4/8 threads replays its shard
// closed-loop — next query issued the moment the previous returns — in a
// fixed number of passes. Reported: predictions/sec and p50/p99 per-query
// latency, written to BENCH_serve.json.
//
// Gates (any failure exits nonzero):
//   * piggyback equivalence — the single-thread replay's prediction lists
//     match the simulator's piggyback path (sim::PredictionLog) request for
//     request, on a plain server AND on a fully instrumented one (metrics
//     attached, latency sampled every query): instrumentation must never
//     change predictions.
//   * instrumentation overhead — alternating min-of-rounds single-thread
//     replays, plain vs instrumented (default sampling), no per-query
//     timing inside the loop; the instrumented walltime must be < 3% above
//     plain (ISSUE 3 acceptance criterion).
//   * fault layer armed-idle — a fault plan that names no serving site is
//     prediction-identical and < 3% walltime over the disarmed fast path
//     (ISSUE 4 acceptance criterion; WEBPPM_FAULT_DISABLED removes the
//     sites entirely).
//   * frozen snapshot — an LRS snapshot trained on the same 7 days (LRS
//     still has an arena form, and its frozen/arena ratio is the closest
//     to PB's): its frozen (structure-of-arrays) compilation is
//     prediction-identical to the simulator AND >= 1.1x the arena's
//     predictions/s, alternating min-of-rounds single-thread replays.
//   * batch equivalence — query_batch over fixed-size chunks answers
//     exactly as a sequential query_ex replay; the group-by-shard reorder
//     inside a batch must be invisible in the answers (ISSUE 7; the
//     in-process speedup is reported, the socket bench gates it).
//   * scoreboard — scoring fully ON is prediction-identical to the
//     simulator, and armed-but-idle (scoring toggled off, one relaxed load
//     per query) costs < 3% walltime; active-scoring cost is reported
//     (ISSUE 8 acceptance criterion; scoreboard_check gates the counts).
//
// Artifacts: BENCH_serve.json (rows + gate results),
// BENCH_serve_metrics.prom (registry exposition after the instrumented
// runs), BENCH_serve_trace.json (Chrome trace of the instrumented replay).
//
// --quick (or WEBPPM_BENCH_QUICK=1) shrinks passes/rounds/thread counts
// for CI.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "fault/fault.hpp"
#include "obs/trace_event.hpp"
#include "serve/frozen_snapshot.hpp"
#include "serve/model_server.hpp"

namespace {

using namespace webppm;
using Clock = std::chrono::steady_clock;

struct RunResult {
  std::size_t threads = 0;
  double seconds = 0.0;
  std::uint64_t queries = 0;
  double qps = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
};

/// Requests of `eval` routed to `shard_count` client-disjoint shards.
std::vector<std::vector<trace::Request>> shard_requests(
    std::span<const trace::Request> eval, std::size_t shard_count) {
  std::vector<std::vector<trace::Request>> shards(shard_count);
  for (const auto& r : eval) {
    shards[r.client % shard_count].push_back(r);
  }
  return shards;
}

RunResult run_closed_loop(serve::ModelServer& server,
                          std::span<const trace::Request> eval,
                          std::size_t thread_count, std::size_t passes) {
  const auto shards = shard_requests(eval, thread_count);
  std::vector<std::vector<double>> latencies(thread_count);

  const auto t0 = Clock::now();
  std::vector<std::thread> threads;
  threads.reserve(thread_count);
  for (std::size_t w = 0; w < thread_count; ++w) {
    threads.emplace_back([&, w] {
      auto& lat = latencies[w];
      lat.reserve(shards[w].size() * passes);
      std::vector<ppm::Prediction> out;
      for (std::size_t pass = 0; pass < passes; ++pass) {
        // Later passes replay the same day with shifted timestamps so the
        // idle-timeout logic sees a continuous stream, not one giant gap.
        const TimeSec shift = pass * kSecondsPerDay;
        for (auto r : shards[w]) {
          r.timestamp += shift;
          const auto q0 = Clock::now();
          server.query(r, out);
          lat.push_back(
              std::chrono::duration<double, std::micro>(Clock::now() - q0)
                  .count());
        }
      }
    });
  }
  for (auto& th : threads) th.join();

  RunResult res;
  res.threads = thread_count;
  res.seconds = std::chrono::duration<double>(Clock::now() - t0).count();

  std::vector<double> all;
  for (auto& lat : latencies) {
    all.insert(all.end(), lat.begin(), lat.end());
  }
  std::sort(all.begin(), all.end());
  res.queries = all.size();
  res.qps = res.seconds > 0 ? static_cast<double>(res.queries) / res.seconds
                            : 0.0;
  if (!all.empty()) {
    res.p50_us = all[all.size() / 2];
    res.p99_us = all[std::min(all.size() - 1, all.size() * 99 / 100)];
  }
  return res;
}

std::shared_ptr<const serve::Snapshot> borrow(const serve::Snapshot& snap) {
  return {&snap, [](const serve::Snapshot*) {}};  // bench-scoped, never freed
}

/// Replays `eval` through a fresh single-stream server built from `cfg` and
/// checks the prediction list of every non-error request against the
/// simulator's piggyback log. Returns mismatch count.
std::size_t verify_against_simulator(const trace::Trace& trace,
                                     std::span<const trace::Request> eval,
                                     const serve::Snapshot& snap,
                                     const core::ModelSpec& spec,
                                     const serve::ModelServerConfig& scfg) {
  // Simulator side: log every predict() the piggyback path issues.
  sim::PredictionLog log;
  sim::SimHooks hooks;
  hooks.prediction_log = &log;
  sim::SimulationConfig cfg;
  cfg.policy.size_threshold_bytes = spec.size_threshold_bytes;
  (void)sim::simulate_direct(trace, eval, *snap.model, snap.popularity,
                             core::cached_client_classes(trace), cfg, hooks);

  // Serve side: same frozen model, same session rules, trace order.
  serve::ModelServer server(scfg);
  server.publish(borrow(snap));
  std::vector<ppm::Prediction> out;
  std::size_t logged = 0, mismatches = 0;
  for (const auto& r : eval) {
    if (r.status >= 400) continue;  // simulator skips these entirely
    server.query(r, out);
    if (logged >= log.entries.size() ||
        log.entries[logged].client != r.client ||
        log.entries[logged].predictions != out) {
      ++mismatches;
    }
    ++logged;
  }
  if (logged != log.entries.size()) ++mismatches;
  return mismatches;
}

/// One single-thread replay of `passes` passes with NO timing inside the
/// loop — one clock pair around the whole run, so the measurement itself
/// adds nothing to either variant. A fresh server per call keeps variants
/// comparable (contexts start empty both times).
double replay_seconds(const serve::Snapshot& snap,
                      const serve::ModelServerConfig& scfg,
                      std::span<const trace::Request> eval,
                      std::size_t passes) {
  serve::ModelServer server(scfg);
  server.publish(borrow(snap));
  std::vector<ppm::Prediction> out;
  const auto t0 = Clock::now();
  for (std::size_t pass = 0; pass < passes; ++pass) {
    const TimeSec shift = pass * kSecondsPerDay;
    for (auto r : eval) {
      r.timestamp += shift;
      server.query(r, out);
    }
  }
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Instrumented-vs-plain overhead in percent, from `rounds` alternating
/// min-of-rounds measurements (alternation cancels slow drift — thermal,
/// background load — that a measure-all-of-A-then-all-of-B order folds
/// entirely into one variant).
double measure_overhead_pct(const serve::Snapshot& snap,
                            const serve::ModelServerConfig& plain,
                            const serve::ModelServerConfig& instrumented,
                            std::span<const trace::Request> eval,
                            std::size_t passes, std::size_t rounds) {
  // Warm both paths (page in code + data) before any timed round.
  (void)replay_seconds(snap, plain, eval, 1);
  (void)replay_seconds(snap, instrumented, eval, 1);
  double best_plain = 1e300, best_ins = 1e300;
  for (std::size_t i = 0; i < rounds; ++i) {
    best_plain = std::min(best_plain, replay_seconds(snap, plain, eval, passes));
    best_ins =
        std::min(best_ins, replay_seconds(snap, instrumented, eval, passes));
  }
  return best_plain > 0 ? 100.0 * (best_ins - best_plain) / best_plain : 0.0;
}

/// Arena-over-frozen walltime ratio (>1 means frozen is faster), same
/// alternating min-of-rounds protocol as measure_overhead_pct: both
/// variants replay the same stream on the same plain config, only the
/// snapshot's storage layout differs.
double measure_frozen_speedup(const serve::Snapshot& arena,
                              const serve::Snapshot& froz,
                              const serve::ModelServerConfig& cfg,
                              std::span<const trace::Request> eval,
                              std::size_t passes, std::size_t rounds) {
  (void)replay_seconds(arena, cfg, eval, 1);  // warm
  (void)replay_seconds(froz, cfg, eval, 1);
  double best_arena = 1e300, best_frozen = 1e300;
  for (std::size_t i = 0; i < rounds; ++i) {
    best_arena = std::min(best_arena, replay_seconds(arena, cfg, eval, passes));
    best_frozen =
        std::min(best_frozen, replay_seconds(froz, cfg, eval, passes));
  }
  return best_frozen > 0 ? best_arena / best_frozen : 0.0;
}

/// Batch-equivalence gate: the same stream answered via query_batch in
/// fixed-size chunks must produce exactly the prediction lists of a
/// sequential query_ex replay on a twin server (same config, same
/// snapshot). Returns the number of mismatching requests.
std::size_t verify_batch_equivalence(const serve::Snapshot& snap,
                                     const serve::ModelServerConfig& cfg,
                                     std::span<const trace::Request> eval,
                                     std::size_t chunk) {
  serve::ModelServer seq(cfg);
  seq.publish(borrow(snap));
  std::vector<std::vector<ppm::Prediction>> want;
  want.reserve(eval.size());
  std::vector<ppm::Prediction> out;
  for (const auto& r : eval) {
    (void)seq.query_ex(r, out);
    want.push_back(out);
  }

  serve::ModelServer bat(cfg);
  bat.publish(borrow(snap));
  serve::BatchQueryScratch scratch;
  std::size_t mismatches = 0;
  for (std::size_t off = 0; off < eval.size(); off += chunk) {
    const std::size_t n = std::min(chunk, eval.size() - off);
    bat.query_batch(eval.subspan(off, n), scratch);
    for (std::size_t i = 0; i < n; ++i) {
      const auto got = scratch.predictions_of(i);
      if (got.size() != want[off + i].size() ||
          !std::equal(got.begin(), got.end(), want[off + i].begin())) {
        ++mismatches;
      }
    }
  }
  return mismatches;
}

/// Sequential-over-batched walltime ratio (>1 means batching is faster),
/// same alternating min-of-rounds protocol as measure_overhead_pct. A
/// speed *report*, not a gate: in process the win is one shard lock per
/// chunk instead of one per query — real but much smaller than the
/// syscall amortization the socket bench gates on.
double measure_batch_speedup(const serve::Snapshot& snap,
                             const serve::ModelServerConfig& cfg,
                             std::span<const trace::Request> eval,
                             std::size_t chunk, std::size_t passes,
                             std::size_t rounds) {
  const auto batched_seconds = [&] {
    serve::ModelServer server(cfg);
    server.publish(borrow(snap));
    serve::BatchQueryScratch scratch;
    std::vector<trace::Request> shifted(eval.begin(), eval.end());
    const auto t0 = Clock::now();
    for (std::size_t pass = 0; pass < passes; ++pass) {
      if (pass != 0) {
        for (auto& r : shifted) r.timestamp += kSecondsPerDay;
      }
      for (std::size_t off = 0; off < shifted.size(); off += chunk) {
        server.query_batch(
            std::span<const trace::Request>(shifted).subspan(
                off, std::min(chunk, shifted.size() - off)),
            scratch);
      }
    }
    return std::chrono::duration<double>(Clock::now() - t0).count();
  };
  (void)replay_seconds(snap, cfg, eval, 1);  // warm
  (void)batched_seconds();
  double best_seq = 1e300, best_batch = 1e300;
  for (std::size_t i = 0; i < rounds; ++i) {
    best_seq = std::min(best_seq, replay_seconds(snap, cfg, eval, passes));
    best_batch = std::min(best_batch, batched_seconds());
  }
  return best_batch > 0 ? best_seq / best_batch : 0.0;
}

/// An armed-but-idle fault plan: rules exist, none name a serving site, so
/// every WEBPPM_FAULT_INJECT on the query path takes the armed-idle branch
/// (epoch check + null rules pointer) without ever firing.
fault::Plan inert_fault_plan() {
  return fault::Plan{}.fail("bench.no_such_site");
}

/// Disarmed-vs-armed-idle fault-layer overhead, same alternating
/// min-of-rounds protocol as measure_overhead_pct. Both variants use the
/// plain (uninstrumented) config so only the fault layer differs.
double measure_fault_idle_overhead_pct(const serve::Snapshot& snap,
                                       const serve::ModelServerConfig& cfg,
                                       std::span<const trace::Request> eval,
                                       std::size_t passes,
                                       std::size_t rounds) {
  fault::disarm();
  (void)replay_seconds(snap, cfg, eval, 1);  // warm
  double best_disarmed = 1e300, best_armed = 1e300;
  for (std::size_t i = 0; i < rounds; ++i) {
    fault::disarm();
    best_disarmed =
        std::min(best_disarmed, replay_seconds(snap, cfg, eval, passes));
    fault::arm(inert_fault_plan());
    best_armed =
        std::min(best_armed, replay_seconds(snap, cfg, eval, passes));
  }
  fault::disarm();
  return best_disarmed > 0
             ? 100.0 * (best_armed - best_disarmed) / best_disarmed
             : 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace webppm::bench;
  bool quick = std::getenv("WEBPPM_BENCH_QUICK") != nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
  }

  const auto& trace = nasa_trace();
  print_header("=== serve_throughput: snapshot-swap ModelServer, closed "
               "loop (nasa-like day 8) ===",
               trace);
  if (quick) std::printf("quick mode: reduced passes/rounds/threads\n\n");

  constexpr std::uint32_t kTrainDays = 7;
  const auto spec = core::ModelSpec::pb_model();
  auto trained = core::train_model(spec, trace, 0, kTrainDays - 1);
  const auto eval = trace.day_slice(kTrainDays);

  auto snap = serve::make_snapshot(std::move(trained.predictor),
                                   std::move(trained.popularity), 1);
  std::printf("model: %s, %zu nodes; eval stream: %zu requests\n",
              snap->model->name().data(), snap->model->node_count(),
              eval.size());

  obs::MetricsRegistry& reg = obs::registry();
  serve::ModelServerConfig plain_cfg;
  serve::ModelServerConfig ins_cfg;
  ins_cfg.metrics = &reg;  // default latency_sample_every (64)

  // Gate 1a: plain server is prediction-identical to the simulator.
  const std::size_t mismatches =
      verify_against_simulator(trace, eval, *snap, spec, plain_cfg);
  std::printf("piggyback equivalence (plain):        %s "
              "(%zu mismatching requests)\n",
              mismatches == 0 ? "IDENTICAL to simulator" : "MISMATCH",
              mismatches);

  // Gate 1b: so is a fully instrumented one — metrics attached, every
  // query latency-sampled, trace spans live. Instrumentation observes; it
  // must never steer.
  obs::set_tracing_enabled(true);
  serve::ModelServerConfig full_cfg = ins_cfg;
  full_cfg.latency_sample_every = 1;
  const std::size_t ins_mismatches =
      verify_against_simulator(trace, eval, *snap, spec, full_cfg);
  obs::set_tracing_enabled(false);
  std::printf("piggyback equivalence (instrumented): %s "
              "(%zu mismatching requests)\n\n",
              ins_mismatches == 0 ? "IDENTICAL to simulator" : "MISMATCH",
              ins_mismatches);

  // Gate 2: metrics-attached query path costs < 3% walltime. Rounds are
  // short (~ms), so even quick mode can afford enough passes to pull
  // min-of-rounds out of the timer-noise floor.
  const std::size_t oh_passes = quick ? 12 : 16;
  const std::size_t oh_rounds = 7;
  const double overhead_pct = measure_overhead_pct(
      *snap, plain_cfg, ins_cfg, eval, oh_passes, oh_rounds);
  const bool overhead_ok = overhead_pct < 3.0;
  std::printf("instrumentation overhead: %+.2f%% walltime "
              "(min of %zu alternating rounds, %zu passes) -> %s\n\n",
              overhead_pct, oh_rounds, oh_passes,
              overhead_ok ? "OK (< 3%)" : "FAIL (>= 3%)");

  // Gate 3: the fault-injection layer, armed with a plan that matches no
  // serving site, is prediction-identical and costs < 3% walltime over the
  // disarmed fast path. (A WEBPPM_FAULT_DISABLED build compiles the sites
  // out entirely — this gate bounds the cost of leaving them in.)
  fault::arm(inert_fault_plan());
  const std::size_t fault_mismatches =
      verify_against_simulator(trace, eval, *snap, spec, plain_cfg);
  fault::disarm();
  const bool fault_identical = fault_mismatches == 0;
  std::printf("fault layer armed-idle equivalence:   %s "
              "(%zu mismatching requests)\n",
              fault_identical ? "IDENTICAL to simulator" : "MISMATCH",
              fault_mismatches);
  const double fault_overhead_pct = measure_fault_idle_overhead_pct(
      *snap, plain_cfg, eval, oh_passes, oh_rounds);
  const bool fault_overhead_ok = fault_overhead_pct < 3.0;
  std::printf("fault layer armed-idle overhead: %+.2f%% walltime "
              "(min of %zu alternating rounds, %zu passes) -> %s\n\n",
              fault_overhead_pct, oh_rounds, oh_passes,
              fault_overhead_ok ? "OK (< 3%)" : "FAIL (>= 3%)");

  // Gate 4: frozen against arena serving. PB has no arena form, so the
  // gate runs on LRS trained on the same days: its frozen compilation
  // predicts identically (checked against the simulator, same as the
  // gates above) and serves >= 1.1x the arena's predictions/s.
  const auto lrs_spec = core::ModelSpec::lrs_model();
  auto lrs_trained = core::train_model(lrs_spec, trace, 0, kTrainDays - 1);
  const auto lrs_snap =
      serve::make_snapshot(std::move(lrs_trained.predictor),
                           std::move(lrs_trained.popularity), 1);
  auto frozen_snap = serve::freeze_snapshot(*lrs_snap);
  if (frozen_snap == nullptr) {
    std::fprintf(stderr, "freeze_snapshot failed\n");
    return 1;
  }
  std::printf("lrs frozen snapshot: %zu bytes (arena %zu bytes, %.1fx "
              "smaller)\n",
              frozen_snap->storage_bytes(), lrs_snap->storage_bytes(),
              frozen_snap->storage_bytes() > 0
                  ? static_cast<double>(lrs_snap->storage_bytes()) /
                        static_cast<double>(frozen_snap->storage_bytes())
                  : 0.0);
  const std::size_t frozen_mismatches = verify_against_simulator(
      trace, eval, *frozen_snap, lrs_spec, plain_cfg);
  const bool frozen_identical = frozen_mismatches == 0;
  std::printf("frozen equivalence:                   %s "
              "(%zu mismatching requests)\n",
              frozen_identical ? "IDENTICAL to simulator" : "MISMATCH",
              frozen_mismatches);
  const double frozen_speedup = measure_frozen_speedup(
      *lrs_snap, *frozen_snap, plain_cfg, eval, oh_passes, oh_rounds);
  const bool frozen_fast_ok = frozen_speedup >= 1.1;
  std::printf("lrs frozen speedup: %.2fx predictions/s over arena "
              "(min of %zu alternating rounds, %zu passes) -> %s\n\n",
              frozen_speedup, oh_rounds, oh_passes,
              frozen_fast_ok ? "OK (>= 1.1x)" : "FAIL (< 1.1x)");

  // Gate 5: query_batch answers exactly as a sequential query_ex replay —
  // the group-by-shard reorder inside a batch must be invisible in the
  // answers. Speedup is reported but not gated (the in-process win is lock
  // amortization only; the socket bench gates the end-to-end win).
  const std::size_t batch_chunk = 64;
  const std::size_t batch_mismatches =
      verify_batch_equivalence(*snap, plain_cfg, eval, batch_chunk);
  const bool batch_identical = batch_mismatches == 0;
  std::printf("query_batch equivalence (chunk %zu):   %s "
              "(%zu mismatching requests)\n",
              batch_chunk,
              batch_identical ? "IDENTICAL to sequential" : "MISMATCH",
              batch_mismatches);
  const double batch_speedup = measure_batch_speedup(
      *snap, plain_cfg, eval, batch_chunk, oh_passes, oh_rounds);
  std::printf("query_batch speedup: %.2fx walltime over sequential "
              "(min of %zu alternating rounds, %zu passes; report only)\n\n",
              batch_speedup, oh_rounds, oh_passes);

  // Gate 6: the prediction-outcome scoreboard. (a) With scoring fully ON
  // the replay stays prediction-identical to the simulator — the
  // scoreboard observes outcomes after the answer is built, it never
  // steers. (b) Armed-but-idle (enabled, scoring toggled off — one relaxed
  // load per query) costs < 3% walltime over a scoreboard-free server; the
  // cost of active scoring (an extra shard-lock pass per query) is
  // reported, not gated.
  serve::ModelServerConfig sb_on_cfg = plain_cfg;
  sb_on_cfg.scoreboard.enabled = true;
  const std::size_t sb_mismatches =
      verify_against_simulator(trace, eval, *snap, spec, sb_on_cfg);
  const bool sb_identical = sb_mismatches == 0;
  std::printf("scoreboard scoring equivalence:       %s "
              "(%zu mismatching requests)\n",
              sb_identical ? "IDENTICAL to simulator" : "MISMATCH",
              sb_mismatches);
  serve::ModelServerConfig sb_idle_cfg = sb_on_cfg;
  sb_idle_cfg.scoreboard.scoring = false;
  const double sb_idle_overhead_pct = measure_overhead_pct(
      *snap, plain_cfg, sb_idle_cfg, eval, oh_passes, oh_rounds);
  const bool sb_idle_ok = sb_idle_overhead_pct < 3.0;
  std::printf("scoreboard armed-idle overhead: %+.2f%% walltime "
              "(min of %zu alternating rounds, %zu passes) -> %s\n",
              sb_idle_overhead_pct, oh_rounds, oh_passes,
              sb_idle_ok ? "OK (< 3%)" : "FAIL (>= 3%)");
  const double sb_active_overhead_pct = measure_overhead_pct(
      *snap, plain_cfg, sb_on_cfg, eval, oh_passes, oh_rounds);
  std::printf("scoreboard active-scoring overhead: %+.2f%% walltime "
              "(report only)\n\n",
              sb_active_overhead_pct);

  const std::size_t hw = std::thread::hardware_concurrency();
  const std::size_t passes = quick ? 2 : 4;
  const std::vector<std::size_t> thread_counts =
      quick ? std::vector<std::size_t>{1, 2}
            : std::vector<std::size_t>{1, 2, 4, 8};
  std::vector<RunResult> rows;
  std::printf("%8s %12s %14s %10s %10s\n", "threads", "queries",
              "predictions/s", "p50 (us)", "p99 (us)");
  for (const std::size_t n : thread_counts) {
    // Fresh server per run: contexts start empty, runs are independent.
    serve::ModelServer server;
    server.publish(snap);
    const auto r = run_closed_loop(server, eval, n, passes);
    rows.push_back(r);
    std::printf("%8zu %12llu %14.0f %10.2f %10.2f\n", r.threads,
                static_cast<unsigned long long>(r.queries), r.qps, r.p50_us,
                r.p99_us);
  }

  const bool have_4t = rows.size() >= 3;
  const double scaling_4t =
      have_4t && rows[0].qps > 0 ? rows[2].qps / rows[0].qps : 0.0;
  if (have_4t) {
    std::printf("\n4-thread scaling: %.2fx over single-thread "
                "(%zu hardware threads available)\n",
                scaling_4t, hw);
  }

  // Observability artifacts: the instrumented runs above populated the
  // registry and the trace rings.
  {
    std::ofstream out("BENCH_serve_metrics.prom", std::ios::trunc);
    reg.write_prometheus(out);
  }
  {
    std::ofstream out("BENCH_serve_trace.json", std::ios::trunc);
    obs::write_chrome_trace(out);
  }

  if (FILE* f = std::fopen("BENCH_serve.json", "w")) {
    std::fprintf(f,
                 "{\n"
                 "  \"benchmark\": \"ModelServer closed-loop replay, "
                 "nasa-like day 8, pb-ppm\",\n"
                 "  \"quick\": %s,\n"
                 "  \"hardware_threads\": %zu,\n"
                 "  \"piggyback_identical\": %s,\n"
                 "  \"instrumented_identical\": %s,\n"
                 "  \"instrumentation_overhead_pct\": %.3f,\n"
                 "  \"overhead_ok\": %s,\n"
                 "  \"fault_idle_identical\": %s,\n"
                 "  \"fault_idle_overhead_pct\": %.3f,\n"
                 "  \"fault_idle_overhead_ok\": %s,\n"
                 "  \"lrs_frozen_identical\": %s,\n"
                 "  \"lrs_frozen_speedup\": %.3f,\n"
                 "  \"lrs_frozen_speedup_ok\": %s,\n"
                 "  \"lrs_frozen_bytes\": %zu,\n"
                 "  \"lrs_arena_bytes\": %zu,\n"
                 "  \"batch_identical\": %s,\n"
                 "  \"batch_speedup\": %.3f,\n"
                 "  \"scoreboard_identical\": %s,\n"
                 "  \"scoreboard_idle_overhead_pct\": %.3f,\n"
                 "  \"scoreboard_idle_overhead_ok\": %s,\n"
                 "  \"scoreboard_active_overhead_pct\": %.3f,\n"
                 "  \"scaling_4t_over_1t\": %.3f,\n"
                 "  \"runs\": [\n",
                 quick ? "true" : "false", hw,
                 mismatches == 0 ? "true" : "false",
                 ins_mismatches == 0 ? "true" : "false", overhead_pct,
                 overhead_ok ? "true" : "false",
                 fault_identical ? "true" : "false", fault_overhead_pct,
                 fault_overhead_ok ? "true" : "false",
                 frozen_identical ? "true" : "false", frozen_speedup,
                 frozen_fast_ok ? "true" : "false",
                 frozen_snap->storage_bytes(), lrs_snap->storage_bytes(),
                 batch_identical ? "true" : "false", batch_speedup,
                 sb_identical ? "true" : "false", sb_idle_overhead_pct,
                 sb_idle_ok ? "true" : "false", sb_active_overhead_pct,
                 scaling_4t);
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const auto& r = rows[i];
      std::fprintf(f,
                   "    {\"threads\": %zu, \"queries\": %llu, "
                   "\"predictions_per_sec\": %.0f, \"p50_us\": %.2f, "
                   "\"p99_us\": %.2f}%s\n",
                   r.threads, static_cast<unsigned long long>(r.queries),
                   r.qps, r.p50_us, r.p99_us,
                   i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("wrote BENCH_serve.json, BENCH_serve_metrics.prom, "
                "BENCH_serve_trace.json\n");
  }

  const bool ok = mismatches == 0 && ins_mismatches == 0 && overhead_ok &&
                  fault_identical && fault_overhead_ok && frozen_identical &&
                  frozen_fast_ok && batch_identical && sb_identical &&
                  sb_idle_ok;
  return ok ? 0 : 1;
}
