// Online-training acceptance bench (DESIGN.md §15): the learn::OnlineTrainer
// consuming the serve-side request stream must (a) converge byte-for-byte
// onto the offline oracle, (b) recover a drifting workload that a frozen
// offline snapshot cannot, and (c) cost nothing measurable on the serve
// path while detached.
//
// Gates (any failure exits nonzero):
//   * convergence — a trainer fed the exact request stream the offline
//     SweepEngine trained on (errors included, timestamp order, publishing
//     at day boundaries only) must publish models whose *served bytes* —
//     every eval-day query encoded as the v1 wire response a client would
//     receive — equal the oracle's train(spec, k) at every boundary k.
//     Run on both paper-like corpora (nasa-like PB-PPM, ucb-like
//     aggressive PB-PPM) plus standard 3-PPM on nasa.
//   * wire convergence — the same contract with the stream arriving as v3
//     observe frames through a real PredictServer socket (LoadClient
//     --observe, one connection so order is preserved): the final
//     boundary's published model byte-matches the oracle.
//   * drift recovery — on the nasa_drift workload (Zipf head rotates
//     mid-day) both a frozen offline snapshot and an online-trained server
//     start from the identical day-boundary model; after the rotation the
//     frozen server's next-click precision collapses while the trainer —
//     republishing on the DriftWatch alert edge and on an observed-time
//     interval — recovers it. Gated: frozen degrades post-rotation, at
//     least one drift-triggered republish fires, and the online server's
//     late-tail precision beats frozen by >= 1.5x.
//   * detached overhead — with the trainer detached the serve path must
//     cost < 3% over a server that never had an observer, and an attached,
//     draining trainer must never change a single predicted byte
//     (identity gate; its overhead is reported, not gated). A round runs
//     a plain, a detached and a second plain server back to back, timing
//     each query loop on the calling thread's CPU clock (the loop runs on
//     that thread). A round whose two plain runs differ by half the budget
//     or more cannot resolve it and is set aside; the others also time an
//     attached server. Rounds run until 7 resolve the budget, and the
//     overhead is their median of detached over plain. A gate still
//     unresolved at the round cap fails.
//
// Artifacts: BENCH_online.json (gate results + drift precisions + overhead
// rows). --quick (or WEBPPM_BENCH_QUICK=1) shrinks corpora for CI.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/sweep.hpp"
#include "learn/trainer.hpp"
#include "net/load_client.hpp"
#include "net/server.hpp"
#include "net/wire.hpp"
#include "serve/model_server.hpp"
#include "workload/generator.hpp"

namespace {

using namespace webppm;

/// Replays `eval` on a fresh server holding `snap` and returns the exact
/// bytes a v1 wire client would receive for every query, concatenated.
/// Snapshot versions are pinned so only predictions distinguish streams.
std::vector<std::uint8_t> served_bytes(
    std::shared_ptr<const serve::Snapshot> snap,
    std::span<const trace::Request> eval) {
  serve::ModelServer server;
  server.publish(std::move(snap));
  std::vector<ppm::Prediction> out;
  std::vector<std::uint8_t> bytes;
  for (const auto& r : eval) {
    const auto qr = server.query_ex(r, out);
    net::WireResponse resp;
    resp.status = !qr.predicted ? net::Status::kNoModel
                  : qr.served == serve::ServedBy::kFallback
                      ? net::Status::kDegraded
                      : net::Status::kOk;
    resp.snapshot_version = 1;
    if (qr.predicted) resp.predictions = out;
    net::encode_response(resp, bytes);
  }
  return bytes;
}

// ---------------------------------------------------------------------------
// Gate 1: in-process convergence, every day boundary.

struct ConvergenceResult {
  std::size_t boundaries = 0;
  std::size_t mismatches = 0;
  std::uint64_t observations = 0;
};

ConvergenceResult run_convergence(const trace::Trace& trace,
                                  const core::ModelSpec& spec,
                                  const char* label) {
  core::SweepEngine engine(trace);
  serve::ModelServer target;
  learn::OnlineTrainerConfig tc;
  tc.spec = spec;
  tc.url_count_hint = trace.urls.size();
  tc.queue_capacity = trace.requests.size() + 1;
  learn::OnlineTrainer trainer(target, tc);
  trainer.attach();

  ConvergenceResult res;
  const std::uint32_t days = trace.day_count();
  for (std::uint32_t d = 0; d < days; ++d) {
    for (const auto& r : trace.day_slice(d)) target.observe(r);
    trainer.step();
    if (d == 0) continue;
    ++res.boundaries;
    auto online = target.snapshot();
    core::TrainedModel oracle = engine.train(spec, d);
    auto oracle_snap =
        serve::make_snapshot(std::move(oracle.predictor),
                             std::move(oracle.popularity), 1);
    const auto eval = trace.day_slice(d);
    if (online == nullptr || trainer.publishes() != d ||
        served_bytes(oracle_snap, eval) !=
            served_bytes(std::move(online), eval)) {
      ++res.mismatches;
    }
  }
  res.observations = trainer.observations();
  std::printf("convergence %-14s boundaries=%zu mismatches=%zu "
              "(%llu observations)\n",
              label, res.boundaries, res.mismatches,
              static_cast<unsigned long long>(res.observations));
  return res;
}

// ---------------------------------------------------------------------------
// Gate 2: convergence with the stream arriving as v3 observe frames.

bool run_wire_convergence(const trace::Trace& trace,
                          const core::ModelSpec& spec) {
  core::SweepEngine engine(trace);
  serve::ModelServer target;
  learn::OnlineTrainerConfig tc;
  tc.spec = spec;
  tc.url_count_hint = trace.urls.size();
  tc.queue_capacity = trace.requests.size() + 1;
  learn::OnlineTrainer trainer(target, tc);
  trainer.attach();

  net::PredictServer server(target, net::NetServerConfig{});
  std::string err;
  if (!server.start(&err)) {
    std::printf("wire convergence: server start failed: %s\n", err.c_str());
    return false;
  }
  net::LoadClientConfig lc;
  lc.port = server.port();
  lc.connections = 1;  // one connection preserves stream order end to end
  lc.batch_size = 512;
  lc.observe = true;
  const auto res = net::LoadClient(lc).run(trace.requests);
  server.shutdown();
  if (!res.ok) {
    std::printf("wire convergence: client failed: %s\n", res.error.c_str());
    return false;
  }
  trainer.step();  // absorbs the whole stream; publishes at every boundary

  const std::uint32_t last = trace.day_count() - 1;
  core::TrainedModel oracle = engine.train(spec, last);
  auto oracle_snap = serve::make_snapshot(std::move(oracle.predictor),
                                          std::move(oracle.popularity), 1);
  const auto eval = trace.day_slice(last);
  const bool ok = trainer.publishes() == last && trainer.dropped() == 0 &&
                  target.snapshot() != nullptr &&
                  served_bytes(oracle_snap, eval) ==
                      served_bytes(target.snapshot(), eval);
  std::printf("wire convergence: %s (%llu observations over the socket, "
              "%llu publishes)\n",
              ok ? "byte-identical" : "MISMATCH",
              static_cast<unsigned long long>(res.requests),
              static_cast<unsigned long long>(trainer.publishes()));
  return ok;
}

// ---------------------------------------------------------------------------
// Gate 3: drift recovery on the rotating-head workload.

/// Next-click hit-rate probe: a query's top-k prediction list scores a hit
/// when the same client's next page request is in it — the prefetch-cache
/// view of accuracy, computed identically for both servers. EVERY
/// consecutive same-client transition is scored; a query that produced no
/// predictions scores its successor as a miss (nothing was prefetched).
/// Skipping those would let a model that rarely predicts look better than
/// one that predicts and is sometimes wrong.
struct PrecisionProbe {
  std::size_t top_k = 4;
  std::unordered_map<ClientId, std::vector<UrlId>> last;
  std::uint64_t hits = 0;
  std::uint64_t scored = 0;

  void feed(const trace::Request& r, bool predicted,
            const std::vector<ppm::Prediction>& preds) {
    auto it = last.find(r.client);
    if (it != last.end()) {
      ++scored;
      for (UrlId u : it->second) {
        if (u == r.url) {
          ++hits;
          break;
        }
      }
    }
    auto& v = last[r.client];
    v.clear();
    if (predicted) {
      for (std::size_t i = 0; i < preds.size() && i < top_k; ++i) {
        v.push_back(preds[i].url);
      }
    }
  }
  double precision() const {
    return scored == 0 ? 0.0
                       : static_cast<double>(hits) /
                             static_cast<double>(scored);
  }
};

struct DriftSegment {
  PrecisionProbe pre;    ///< replay start .. rotation
  PrecisionProbe early;  ///< rotation .. rotation + settle
  PrecisionProbe late;   ///< rotation + settle .. end
};

struct DriftOutcome {
  DriftSegment frozen;
  DriftSegment online;
  std::uint64_t drift_republishes = 0;
  std::uint64_t publishes = 0;
  bool ok = false;
};

DriftOutcome run_drift() {
  // Head rotates mid-day 2; days 0-1 are history, days 2-3 are live. The
  // traffic density is pinned (not scaled by --quick): the scenario needs
  // the rotated-in mid-table subtrees to be genuinely cold when the flash
  // crowd lands on them, and denser pre-rotation traffic would pre-cover
  // them. The trace is seeded, so this gate is deterministic either way.
  const double rotate_days = 2.5;
  const std::uint32_t days = 4;
  const auto trace = workload::generate_page_trace(
      workload::nasa_drift(days, rotate_days, 0.3));
  const TimeSec rotate_at =
      static_cast<TimeSec>(rotate_days * kSecondsPerDay);
  // Give the online side half a day of post-rotation traffic to settle
  // before the "late" comparison window opens.
  const TimeSec settle_until = rotate_at + kSecondsPerDay / 2;
  core::SweepEngine engine(trace);
  // Standard 3-PPM, deliberately: PB-PPM's popularity-blended prediction is
  // inherently drift-robust (the grade machinery backs off to shorter,
  // still-valid contexts), which is a fine property but a poor demonstration.
  // The fixed-order model leans fully on exact learned contexts, so the
  // rotation collapses the frozen baseline and the recovery is unambiguous.
  const core::ModelSpec spec = core::ModelSpec::standard_fixed(3);

  // Both sides start from the identical day-boundary model (trained on
  // days 0-1) — the convergence gate proves the trainer would have
  // published these exact bytes.
  auto offline = [&] {
    core::TrainedModel tm = engine.train(spec, 2);
    return serve::make_snapshot(std::move(tm.predictor),
                                std::move(tm.popularity), 1);
  };

  const auto live = trace.day_range(2, days - 1);
  DriftOutcome out;

  auto segment_feed = [&](DriftSegment& seg, const trace::Request& r,
                          bool predicted,
                          const std::vector<ppm::Prediction>& preds) {
    if (r.timestamp < rotate_at) {
      seg.pre.feed(r, predicted, preds);
    } else if (r.timestamp < settle_until) {
      seg.early.feed(r, predicted, preds);
    } else {
      seg.late.feed(r, predicted, preds);
    }
  };

  {  // Frozen offline baseline: the paper's deployment, never retrained.
    serve::ModelServer server;
    server.publish(offline());
    std::vector<ppm::Prediction> preds;
    for (const auto& r : live) {
      const auto qr = server.query_ex(r, preds);
      segment_feed(out.frozen, r, qr.predicted, preds);
    }
  }

  {  // Online: same starting model, trainer attached, scoreboard armed.
    serve::ModelServerConfig mc;
    mc.scoreboard.enabled = true;
    serve::ModelServer server(mc);

    learn::OnlineTrainerConfig tc;
    tc.spec = spec;
    tc.url_count_hint = trace.urls.size();
    tc.queue_capacity = trace.requests.size() + 1;
    tc.policy.day_boundaries = true;
    tc.policy.interval_sec = 6 * 3600;  // observed-time refresh cadence
    tc.policy.on_drift_alert = true;
    learn::OnlineTrainer trainer(server, tc);
    trainer.attach();

    // Warm the trainer with the same history the offline model saw — the
    // deployment story is a trainer that was running all along — then pin
    // the replay's starting snapshot to the exact frozen model (the warm
    // absorb only publishes through the day-0 boundary; day 1 is still
    // buffered until day-2 traffic crosses the boundary).
    for (const auto& r : trace.day_range(0, 1)) server.observe(r);
    trainer.step();
    server.publish(offline());

    std::vector<ppm::Prediction> preds;
    std::size_t since_step = 0;
    for (const auto& r : live) {
      const auto qr = server.query_ex(r, preds);
      segment_feed(out.online, r, qr.predicted, preds);
      if (++since_step == 256) {  // the trainer thread's poll cadence
        since_step = 0;
        trainer.step();
      }
    }
    trainer.step();
    out.drift_republishes = trainer.drift_republishes();
    out.publishes = trainer.publishes();
    trainer.detach();
  }

  const double f_pre = out.frozen.pre.precision();
  const double f_late = out.frozen.late.precision();
  const double o_late = out.online.late.precision();
  out.ok = f_late < 0.75 * f_pre &&      // the frozen snapshot degrades
           out.drift_republishes >= 1 &&  // the alert edge fired a publish
           o_late >= 1.5 * f_late;        // and the online side recovered
  std::printf(
      "drift: frozen pre=%.3f early=%.3f late=%.3f | online pre=%.3f "
      "early=%.3f late=%.3f | drift republishes=%llu publishes=%llu %s\n",
      f_pre, out.frozen.early.precision(), f_late,
      out.online.pre.precision(), out.online.early.precision(), o_late,
      static_cast<unsigned long long>(out.drift_republishes),
      static_cast<unsigned long long>(out.publishes),
      out.ok ? "" : "FAILED");
  return out;
}

// ---------------------------------------------------------------------------
// Gate 4: detached overhead + attached identity.

constexpr double kOverheadBudgetPct = 3.0;

/// CPU time of the calling thread: time it spends preempted, and other
/// threads' work, do not show in it.
double thread_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

struct OverheadOutcome {
  double detached_pct = 0.0;
  double attached_pct = 0.0;
  std::size_t rounds = 0;
  std::size_t resolving = 0;  ///< rounds whose plain runs agreed
  bool identical = false;
  bool ok = false;
};

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 != 0 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

OverheadOutcome run_overhead(const trace::Trace& trace, bool quick) {
  core::SweepEngine engine(trace);
  const core::ModelSpec spec = core::ModelSpec::pb_model();
  const std::uint32_t last = trace.day_count() - 1;
  core::TrainedModel tm = engine.train(spec, last);
  auto snap = serve::make_snapshot(std::move(tm.predictor),
                                   std::move(tm.popularity), 1);
  const auto eval = trace.day_slice(last);
  // A run replays the eval day at least this often, and long enough
  // (>= 50k queries, ~20 ms) that the clock's granularity and a fresh
  // server's first touches stay far below the budget.
  const std::size_t passes =
      std::max<std::size_t>(quick ? 2 : 6, 50'000 / eval.size() + 1);
  constexpr std::size_t kResolving = 7;
  constexpr std::size_t kRoundCap = 100;

  // Identity: an attached, actively draining trainer never changes bytes.
  OverheadOutcome out;
  {
    auto plain = served_bytes(snap, eval);
    serve::ModelServer server;
    server.publish(snap);
    learn::OnlineTrainerConfig tc;
    tc.spec = spec;
    tc.policy.day_boundaries = false;  // absorb only, never republish
    learn::OnlineTrainer trainer(server, tc);
    trainer.attach();
    trainer.start();
    std::vector<ppm::Prediction> preds;
    std::vector<std::uint8_t> bytes;
    for (const auto& r : eval) {
      const auto qr = server.query_ex(r, preds);
      net::WireResponse resp;
      resp.status = !qr.predicted ? net::Status::kNoModel
                    : qr.served == serve::ServedBy::kFallback
                        ? net::Status::kDegraded
                        : net::Status::kOk;
      resp.snapshot_version = 1;
      if (qr.predicted) resp.predictions = preds;
      net::encode_response(resp, bytes);
    }
    trainer.detach();
    trainer.stop();
    out.identical = bytes == plain;
  }

  // One run: a fresh server in one of the states, the query loop timed on
  // this thread's CPU clock, nothing timed inside the loop. Detached is
  // the observer hook exercised then removed — the steady-state cost of
  // having the pipeline built but turned off.
  enum Mode { kPlain, kDetached, kAttached };
  auto timed = [&](Mode mode) {
    serve::ModelServer server;
    server.publish(snap);
    learn::OnlineTrainerConfig tc;
    tc.spec = spec;
    tc.policy.day_boundaries = false;
    learn::OnlineTrainer trainer(server, tc);
    if (mode != kPlain) trainer.attach();
    if (mode == kDetached) trainer.detach();
    if (mode == kAttached) trainer.start();
    std::vector<ppm::Prediction> preds;
    const double t0 = thread_cpu_seconds();
    for (std::size_t pass = 0; pass < passes; ++pass) {
      const TimeSec shift = pass * kSecondsPerDay;
      for (auto r : eval) {
        r.timestamp += shift;
        server.query(r, preds);
      }
    }
    const double s = thread_cpu_seconds() - t0;
    if (mode == kAttached) {
      trainer.detach();
      trainer.stop();
    }
    return s;
  };
  // The detached run sits between the two plain runs, so host drift that
  // is steady over a round cancels in detached / mean(plain).
  std::vector<double> detached, attached;
  for (const Mode m : {kPlain, kDetached, kAttached}) (void)timed(m);  // warm
  while (out.resolving < kResolving && out.rounds < kRoundCap) {
    ++out.rounds;
    const double p1 = timed(kPlain);
    const double d = timed(kDetached);
    const double p2 = timed(kPlain);
    const double plain = (p1 + p2) / 2;
    if (100.0 * std::abs(p2 - p1) / plain >= kOverheadBudgetPct / 2) {
      continue;  // the host moved under this round
    }
    ++out.resolving;
    detached.push_back(d / plain);
    attached.push_back(timed(kAttached) / plain);
  }
  const bool resolved = out.resolving == kResolving;
  out.detached_pct = detached.empty() ? 0.0 : 100.0 * (median(detached) - 1.0);
  out.attached_pct = attached.empty() ? 0.0 : 100.0 * (median(attached) - 1.0);
  out.ok = out.identical && resolved && out.detached_pct < kOverheadBudgetPct;
  std::printf("overhead: detached %+.2f%% (gate < %.0f%%; median of %zu "
              "rounds whose plain runs agreed within %.1f%%, of %zu run%s), "
              "attached+draining %+.2f%% (reported), identity %s\n",
              out.detached_pct, kOverheadBudgetPct, out.resolving,
              kOverheadBudgetPct / 2, out.rounds,
              resolved ? "" : ": UNRESOLVED", out.attached_pct,
              out.identical ? "byte-identical" : "MISMATCH");
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = std::getenv("WEBPPM_BENCH_QUICK") != nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
  }

  std::printf("online-training acceptance bench%s\n\n",
              quick ? " (quick)" : "");

  const auto nasa = workload::generate_page_trace(
      workload::nasa_like(quick ? 3 : 5, quick ? 0.2 : 0.5));
  const auto ucb = workload::generate_page_trace(
      workload::ucb_like(quick ? 3 : 4, quick ? 0.2 : 0.5));

  const auto conv_nasa_pb =
      run_convergence(nasa, core::ModelSpec::pb_model(), "nasa/pb");
  const auto conv_nasa_std =
      run_convergence(nasa, core::ModelSpec::standard_fixed(3), "nasa/3ppm");
  const auto conv_ucb_pb = run_convergence(
      ucb, core::ModelSpec::pb_model_aggressive(), "ucb/pb-aggr");
  const bool conv_ok = conv_nasa_pb.mismatches == 0 &&
                       conv_nasa_std.mismatches == 0 &&
                       conv_ucb_pb.mismatches == 0;

  const bool wire_ok =
      run_wire_convergence(nasa, core::ModelSpec::pb_model());
  const auto drift = run_drift();
  const auto overhead = run_overhead(nasa, quick);

  if (FILE* f = std::fopen("BENCH_online.json", "w")) {
    std::fprintf(
        f,
        "{\n"
        "  \"quick\": %s,\n"
        "  \"convergence_boundaries\": %zu,\n"
        "  \"convergence_identical\": %s,\n"
        "  \"wire_convergence_identical\": %s,\n"
        "  \"drift_frozen_pre\": %.4f,\n"
        "  \"drift_frozen_late\": %.4f,\n"
        "  \"drift_online_late\": %.4f,\n"
        "  \"drift_republishes\": %llu,\n"
        "  \"drift_recovered\": %s,\n"
        "  \"overhead_detached_pct\": %.2f,\n"
        "  \"overhead_attached_pct\": %.2f,\n"
        "  \"overhead_rounds\": %zu,\n"
        "  \"overhead_resolving_rounds\": %zu,\n"
        "  \"attached_identical\": %s\n"
        "}\n",
        quick ? "true" : "false",
        conv_nasa_pb.boundaries + conv_nasa_std.boundaries +
            conv_ucb_pb.boundaries,
        conv_ok ? "true" : "false", wire_ok ? "true" : "false",
        drift.frozen.pre.precision(), drift.frozen.late.precision(),
        drift.online.late.precision(),
        static_cast<unsigned long long>(drift.drift_republishes),
        drift.ok ? "true" : "false", overhead.detached_pct,
        overhead.attached_pct, overhead.rounds, overhead.resolving,
        overhead.identical ? "true" : "false");
    std::fclose(f);
    std::printf("\nwrote BENCH_online.json\n");
  }

  const bool ok = conv_ok && wire_ok && drift.ok && overhead.ok;
  std::printf("%s\n", ok ? "ALL GATES PASSED" : "GATE FAILURE");
  return ok ? 0 : 1;
}
