// ledger_bench — one-core, seeded, closed-loop replays of the serving stack
// with an in-process reference check of every answer (README.md).
//
//   ledger_bench --workload click_direct --seed 1 --seconds 30 --trace 0 \
//       --dir .bench_build/run
//
// The last stdout line is one JSON object: {"correct", "attempted",
// "failed", "metrics"}; --trace 0 reports the end-to-end metrics, --trace 1
// the per-layer ledger. Exit status is nonzero on any failed check.
#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <numeric>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "ledger.hpp"

namespace {

using namespace ledger;

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string dir;
};

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v, nullptr, 10);
    } else if (k == "--seconds") {
      a.seconds = std::atof(v);
    } else if (k == "--trace") {
      a.trace = std::atoi(v) != 0;
    } else if (k == "--dir") {
      a.dir = v;
    } else {
      return false;
    }
  }
  return find_workload(a.workload) != nullptr && a.seconds > 0 &&
         !a.dir.empty();
}

/// Totals over the passes of one stack.
struct Pooled {
  /// Per-pass RTT percentiles: pooling every frame would grow memory (and
  /// so peak_rss_mb) with the number of passes a host manages.
  std::vector<double> p50_us, p90_us, p99_us, setup_s, publish_ms;
  double rtt_sum_us = 0;
  double wall_s = 0, cpu_s = 0, client_cpu_s = 0;
  double inbound_us = 0, outbound_us = 0;
  std::map<std::string, double> role_cpu_s;
  double steal_s = 0, idle_s = 0;
  std::uint64_t queries = 0, ok = 0, frames = 0, ctx = 0, passes = 0;
  std::uint64_t retries = 0, give_ups = 0, dropped = 0;
  AnswerSummary answers;
  std::uint64_t snapshot_bytes = 0;
  bool steady = true;  ///< every pass gave identical counts

  void add(const PassResult& r) {
    if (passes > 0 &&
        (r.answers.ok != answers.ok || r.answers.hits != answers.hits ||
         r.answers.scored != answers.scored ||
         r.snapshot_bytes != snapshot_bytes)) {
      steady = false;
    }
    ++passes;
    answers = r.answers;
    snapshot_bytes = r.snapshot_bytes;
    p50_us.push_back(percentile(r.rtt_us, 0.50));
    p90_us.push_back(percentile(r.rtt_us, 0.90));
    p99_us.push_back(percentile(r.rtt_us, 0.99));
    rtt_sum_us += std::accumulate(r.rtt_us.begin(), r.rtt_us.end(), 0.0);
    setup_s.push_back(r.setup_s);
    publish_ms.insert(publish_ms.end(), r.publish_ms.begin(),
                      r.publish_ms.end());
    wall_s += r.serve_wall_s;
    cpu_s += r.serve_cpu_s;
    client_cpu_s += r.client_cpu_s;
    inbound_us += r.inbound_us * double(r.frames);
    outbound_us += r.outbound_us * double(r.frames);
    for (const auto& [k, v] : r.role_cpu_s) role_cpu_s[k] += v;
    steal_s += r.cpu.steal_s;
    idle_s += r.cpu.idle_s;
    queries += r.answers.answers;
    ok += r.answers.ok;
    frames += r.frames;
    ctx += r.ctx_switches;
    retries += r.cluster_retries;
    give_ups += r.cluster_give_ups;
    dropped += r.learn_dropped;
  }
  double per_query_us(double s) const { return s * 1e6 / double(queries); }
};

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

std::uint64_t fold(const std::vector<std::uint64_t>& digests) {
  std::uint64_t h = 0;
  for (std::uint64_t d : digests) h = h * 0x100000001b3ull ^ d;
  return h;
}

/// Runs passes of `w` until `deadline` (at least `min_passes`); false with
/// the reason on the first failed pass.
bool run_passes(const WorkloadSpec& w, const Stream& s,
                const AnswerSummary& ref, const std::string& dir, bool traced,
                std::uint64_t deadline, int min_passes, Pooled& into,
                std::string& error) {
  for (int i = 0; i < min_passes || now_ns() < deadline; ++i) {
    const PassResult r = run_pass(w, s, ref, {traced, dir});
    if (!r.error.empty()) {
      error = w.name + ": " + r.error;
      return false;
    }
    into.add(r);
    if (!into.steady) {
      error = w.name + ": counts changed between passes of one seed";
      return false;
    }
    if (i + 1 >= min_passes && now_ns() >= deadline) break;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: ledger_bench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> --dir <scratch dir>\n");
    return 2;
  }
  const WorkloadSpec& w = *find_workload(args.workload);

  // Host facts; pin before any thread exists so every thread inherits it.
  const double parallelism = probe_parallelism();
  const int cpu = pin_to_one_cpu();
  if (cpu < 0) {
    std::fprintf(stderr, "ledger: could not pin to one CPU\n");
    return 3;
  }
  // One CPU, one malloc arena. glibc sizes its arena pool by the CPUs
  // online, not the affinity mask, and which of the many arenas a thread
  // lands on is timing: peak RSS of one seed then flipped between ~200 and
  // ~240 MB on batch_online (~110 MB with one arena).
  ::mallopt(M_ARENA_MAX, 1);
  const double calib_start = calib_ms();

  const Stream s = make_stream(w, args.seed);
  const AnswerSummary ref = reference_answers(w, s);
  if (!ref.decoded || ref.answers != s.queries) {
    std::fprintf(stderr, "ledger: reference replay is incomplete\n");
    return 4;
  }
  std::printf("ledger: %s seed %llu: %llu queries in %zu frames/conn x %zu "
              "conns, reference hit@4 %.5f\n",
              w.name.c_str(), static_cast<unsigned long long>(args.seed),
              static_cast<unsigned long long>(s.queries), s.conns[0].frames(),
              s.conns.size(), ref.hit_ratio());

  const std::uint64_t deadline =
      now_ns() + static_cast<std::uint64_t>(args.seconds * 1e9);
  std::vector<Metric> metrics;
  std::string error;
  bool ok = true;
  Pooled primary;

  if (!args.trace) {
    ok = run_passes(w, s, ref, args.dir, false, deadline, 3, primary, error);
    if (ok) {
      const double q = double(primary.queries);
      metrics = {
          {"latency_p50_us", median(primary.p50_us), "us"},
          {"latency_p90_us", median(primary.p90_us), "us"},
          {"throughput_qps", q / primary.wall_s, "1/s"},
          {"cpu_us_per_query", primary.per_query_us(primary.cpu_s), "us"},
          {"answered_ratio", double(primary.ok) / q, "ratio"},
          {"hit_ratio", primary.answers.hit_ratio(), "ratio"},
          {"snapshot_bytes", double(primary.snapshot_bytes), "bytes"},
          {"peak_rss_mb", peak_rss_mb(), "MB"},
          {"setup_s", median(primary.setup_s), "s"},
          {"publish_ms", median(primary.publish_ms), "ms"},
      };
    }
  } else {
    // In-process layers first, then socket passes cycling over the
    // workload's own stack (untraced and traced) and the direct/routed
    // frozen pair the cluster rows compare.
    const auto layers = measure_layers(w, s, args.dir + "/layers");
    WorkloadSpec direct = w, routed = w;
    direct.routed = false;
    direct.online = false;
    routed.routed = true;
    routed.online = false;
    const AnswerSummary frozen_ref =
        w.online ? reference_answers(direct, s) : ref;
    Pooled untraced, pd, pr;
    while (ok) {
      ok = run_passes(w, s, ref, args.dir, false, 0, 1, untraced, error) &&
           run_passes(w, s, ref, args.dir, true, 0, 1, primary, error) &&
           run_passes(direct, s, frozen_ref, args.dir, false, 0, 1, pd,
                      error) &&
           run_passes(routed, s, frozen_ref, args.dir, false, 0, 1, pr,
                      error);
      if (now_ns() >= deadline) break;
    }
    if (ok) {
      const double q = double(primary.queries);
      const double per_frame = q / double(primary.frames);
      auto L = [&](const char* k) { return layers.at(k); };
      // CPU ledger, us per query: each row from its own source.
      const double client = primary.per_query_us(primary.client_cpu_s);
      const double frozen = L("frozen.predict_ns") / 1e3;
      const double serve_self = L("serve.self_ns") / 1e3;
      const double wire =
          (L("wire.encode_ns_per_query") + L("wire.decode_ns_per_query")) /
          1e3;
      const double server = primary.per_query_us(primary.role_cpu_s["server"]);
      const double net_self = server - frozen - serve_self - wire;
      const double router = primary.per_query_us(primary.role_cpu_s["router"]);
      const double learn = primary.per_query_us(primary.role_cpu_s["trainer"]);
      const double other = primary.per_query_us(primary.role_cpu_s["other"]);
      const double publish =
          primary.per_query_us(primary.role_cpu_s["publish"]);
      const double whole = primary.per_query_us(primary.cpu_s);
      // The publish hook runs outside the serve phase and so outside
      // `whole`; the trainer thread's absorb inside those windows cannot be
      // split off by thread and stays in its row (a few ns per query).
      const double sum = client + frozen + serve_self + wire + net_self +
                         router + learn + other;
      const double rtt = primary.rtt_sum_us / double(primary.frames);
      // On one CPU a closed loop of N connections waits for N requests'
      // worth of that CPU's time: the rows, plus what the hypervisor stole.
      const double steal = primary.per_query_us(primary.steal_s);
      const double rtt_model =
          double(s.conns.size()) * (sum + steal) * per_frame;
      std::printf("ledger (us per query, traced %s):\n", w.name.c_str());
      const std::pair<const char*, double> rows[] = {
          {"client (load generator threads)", client},
          {"frozen (FrozenModel::predict alone)", frozen},
          {"serve.self (ModelServer minus predict)", serve_self},
          {"wire (decode + encode alone)", wire},
          {"net.self (server threads minus the above)", net_self},
          {"router threads", router},
          {"trainer thread", learn},
          {"other threads", other},
      };
      for (const auto& [name, v] : rows) std::printf("  %-44s %9.3f\n", name, v);
      std::printf("  %-44s %9.3f\n  %-44s %9.3f\n", "sum of rows", sum,
                  "process CPU (whole)", whole);
      std::printf("  %-44s %9.3f\n", "publish hook (outside serve phase)",
                  publish);
      std::printf("  %-44s %9.3f\n  %-44s %9.3f\n",
                  "steal (hypervisor, pinned CPU)", steal,
                  "idle (pinned CPU)", primary.per_query_us(primary.idle_s));
      std::printf("  RTT: connections x (rows + steal) x queries/frame = "
                  "%.3f us, measured mean %.3f us\n",
                  rtt_model, rtt);
      const bool cpu_gate = std::fabs(sum - whole) <= 0.10 * whole;
      const bool rtt_gate = std::fabs(rtt_model - rtt) <= 0.10 * rtt;
      if (!cpu_gate || !rtt_gate) {
        ok = false;
        error = std::string("ledger does not add up within 10%: ") +
                (cpu_gate ? "" : "cpu ") + (rtt_gate ? "" : "rtt");
      }
      const double pd_q = double(pd.queries), pr_q = double(pr.queries);
      metrics = {
          {"frozen.predict_ns", L("frozen.predict_ns"), "ns"},
          {"frozen.candidates_per_query", L("frozen.candidates_per_query"),
           "count"},
          {"serve.query_ns", L("serve.query_ns"), "ns"},
          {"serve.self_ns", L("serve.self_ns"), "ns"},
          {"serve.scoreboard_ns", L("serve.scoreboard_ns"), "ns"},
          {"serve.swap_us", L("serve.swap_us"), "us"},
          {"wire.encode_ns_per_query", L("wire.encode_ns_per_query"), "ns"},
          {"wire.decode_ns_per_query", L("wire.decode_ns_per_query"), "ns"},
          {"wire.bytes_per_query", L("wire.bytes_per_query"), "bytes"},
          {"net.self_us", net_self, "us"},
          {"net.ctx_switches_per_query", double(primary.ctx) / q, "count"},
          {"net.inbound_us", primary.inbound_us / double(primary.frames),
           "us"},
          {"net.outbound_us", primary.outbound_us / double(primary.frames),
           "us"},
          {"cluster.hop_us", median(pr.p50_us) - median(pd.p50_us), "us"},
          {"cluster.cpu_us_per_query",
           pr.per_query_us(pr.cpu_s) - pd.per_query_us(pd.cpu_s), "us"},
          {"cluster.ctx_switches_per_query",
           double(pr.ctx) / pr_q - double(pd.ctx) / pd_q, "count"},
          {"cluster.retries", double(pr.retries), "count"},
          {"cluster.give_ups", double(pr.give_ups), "count"},
          {"learn.absorb_ns_per_obs", L("learn.absorb_ns_per_obs"), "ns"},
          {"learn.cpu_us_per_query", learn, "us"},
          {"learn.train_ms", L("learn.train_ms"), "ms"},
          {"learn.freeze_ms", L("learn.freeze_ms"), "ms"},
          {"learn.page_faults_per_publish",
           L("learn.page_faults_per_publish"), "count"},
          {"learn.dropped",
           w.online ? double(primary.dropped + untraced.dropped)
                    : L("learn.dropped"),
           "count"},
          {"learn.trainer_bytes", L("learn.trainer_bytes"), "bytes"},
          {"store.write_ms", L("store.write_ms"), "ms"},
          {"store.fsync_wait_ms", L("store.fsync_wait_ms"), "ms"},
          {"store.load_ms", L("store.load_ms"), "ms"},
          {"core.train_ms", L("core.train_ms"), "ms"},
          {"client.cpu_us_per_query", client, "us"},
          {"ledger.cpu_us_per_query", whole, "us"},
          {"ledger.sum_us_per_query", sum, "us"},
          {"ledger.rtt_us", rtt, "us"},
          {"ledger.rtt_model_us", rtt_model, "us"},
          {"trace.overhead_us_per_query",
           whole - untraced.per_query_us(untraced.cpu_s), "us"},
          {"latency_p99_us", median(untraced.p99_us), "us"},
      };
      primary.queries += untraced.queries + pd.queries + pr.queries;
      primary.ok += untraced.ok + pd.ok + pr.ok;
      primary.dropped += untraced.dropped;
    }
  }

  const double calib_end = calib_ms();
  if (args.trace && ok) {
    metrics.push_back({"host.calib_ms", 0.5 * (calib_start + calib_end), "ms"});
    metrics.push_back({"host.parallelism", parallelism, "x"});
  }
  if (ok && primary.dropped != 0) {
    ok = false;
    error = "the trainer dropped observations";
  }
  if (ok && primary.ok != primary.queries) {
    ok = false;
    error = "queries without a kOk answer";
  }
  if (!primary.setup_s.empty()) {
    std::printf("passes: %llu, setup_s min %.4f median %.4f max %.4f, "
                "p50_us min %.2f median %.2f max %.2f\n",
                static_cast<unsigned long long>(primary.passes),
                percentile(primary.setup_s, 0.0), median(primary.setup_s),
                percentile(primary.setup_s, 1.0), percentile(primary.p50_us, 0.0),
                median(primary.p50_us), percentile(primary.p50_us, 1.0));
  }
  std::printf("host: {\"nproc\": %u, \"pinned_cpu\": %d, \"parallelism\": "
              "%.3f, \"compiler\": \"%s\", \"build_type\": \"%s\", "
              "\"calib_ms_start\": %.3f, \"calib_ms_end\": %.3f, "
              "\"ctx_switch_source\": \"%s\"}\n",
              std::thread::hardware_concurrency(), cpu, parallelism,
              LEDGER_COMPILER, LEDGER_BUILD_TYPE, calib_start, calib_end,
              ContextSwitches().source());
  // Everything here is a function of the seed; run.py compares it with
  // earlier runs of the same binary, workload, seed and mode.
  std::string layer_counts;
  for (const auto& m : metrics) {
    if (m.name == "frozen.candidates_per_query" ||
        m.name == "wire.bytes_per_query" || m.name == "learn.trainer_bytes") {
      char buf[96];
      std::snprintf(buf, sizeof buf, ", \"%s\": %.17g", m.name.c_str(),
                    m.value);
      layer_counts += buf;
    }
  }
  std::printf("fingerprint: {\"workload\": \"%s\", \"seed\": %llu, "
              "\"trace\": %d, "
              "\"answered\": %llu, \"queries\": %llu, \"hits\": %llu, "
              "\"scored\": %llu, \"snapshot_bytes\": %llu, \"digest\": "
              "\"%016llx\"%s}\n",
              w.name.c_str(), static_cast<unsigned long long>(args.seed),
              args.trace ? 1 : 0,
              static_cast<unsigned long long>(ref.ok),
              static_cast<unsigned long long>(ref.answers),
              static_cast<unsigned long long>(ref.hits),
              static_cast<unsigned long long>(ref.scored),
              static_cast<unsigned long long>(primary.snapshot_bytes),
              static_cast<unsigned long long>(fold(ref.digests)),
              layer_counts.c_str());
  if (!ok) std::fprintf(stderr, "ledger: FAILED: %s\n", error.c_str());
  for (const auto& m : metrics) {
    std::printf("  %-34s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  const std::uint64_t attempted = std::max<std::uint64_t>(1, primary.queries);
  print_result(ok, attempted, ok ? primary.queries - primary.ok : attempted,
               metrics);
  return ok ? 0 : 1;
}
