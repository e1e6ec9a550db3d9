// The one timing method every bench gate uses to compare a variant of the
// serve path against its control on the same host.
//
// A round runs control, variant, control, each timed by the run itself on
// the calling thread's CPU clock (time the thread spends preempted, and
// other threads' work, do not show in it). The variant sits between the
// two control runs, so host drift that is steady over a round cancels in
// variant / mean(control). A round whose two control runs differ by half
// the gate's budget or more cannot resolve that budget and is set aside.
// Rounds run until kResolvingRounds of them resolve; the reading is the
// median of variant / mean(control) over those rounds. A gate still short
// of them at kRoundCap rounds fails as UNRESOLVED: it never passes by
// default.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdio>
#include <ctime>
#include <vector>

namespace webppm::bench {

/// CPU seconds of the calling thread so far.
inline double thread_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// Runs `body` and returns the CPU seconds the calling thread spent in it.
template <class Body>
double cpu_seconds_of(Body&& body) {
  const double t0 = thread_cpu_seconds();
  body();
  return thread_cpu_seconds() - t0;
}

inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 != 0 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// Chosen from the A/A spread: plain-vs-plain runs of the serve gate read
/// -1.07% to +0.76% at 7 resolving rounds and -0.15% to +0.34% at 21. Up
/// to 90% of rounds are set aside on a noisy 4-vCPU VM; the cap leaves
/// room for that share.
constexpr std::size_t kResolvingRounds = 21;
constexpr std::size_t kRoundCap = 300;

struct TimingGate {
  const char* name = "";
  /// The budget, as a fraction of the control's cost. An overhead gate
  /// passes when the variant costs less than (1 + budget)x the control; a
  /// speedup gate when the control costs at least (1 + budget)x the
  /// variant.
  double budget = 0.03;
  bool speedup = false;
};

struct TimingReading {
  double ratio = 0.0;  ///< median of variant / mean(control)
  std::size_t resolving = 0;
  std::size_t rounds = 0;
  bool resolved = false;
  bool pass = false;

  double set_aside_share() const {
    return rounds == 0 ? 0.0
                       : static_cast<double>(rounds - resolving) /
                             static_cast<double>(rounds);
  }
  /// What the gate compares with its bar: the overhead in percent, or the
  /// speedup as a multiple.
  double value(const TimingGate& gate) const {
    if (gate.speedup) return ratio > 0 ? 1.0 / ratio : 0.0;
    return 100.0 * (ratio - 1.0);
  }
};

/// Times `control` against `variant` (each returns the seconds one run
/// took, normally via cpu_seconds_of) by the method above, after one
/// warm-up run of each.
template <class Control, class Variant>
TimingReading run_timing_gate(const TimingGate& gate, Control&& control,
                              Variant&& variant) {
  (void)control();
  (void)variant();
  TimingReading out;
  std::vector<double> ratios;
  while (out.resolving < kResolvingRounds && out.rounds < kRoundCap) {
    ++out.rounds;
    const double c1 = control();
    const double v = variant();
    const double c2 = control();
    const double mean = (c1 + c2) / 2;
    if (!(mean > 0) || std::abs(c2 - c1) / mean >= gate.budget / 2) {
      continue;  // the host moved under this round
    }
    ++out.resolving;
    ratios.push_back(v / mean);
  }
  out.resolved = out.resolving >= kResolvingRounds;
  out.ratio = median(ratios);
  out.pass = out.resolved && (gate.speedup
                                  ? out.ratio * (1.0 + gate.budget) <= 1.0
                                  : out.ratio < 1.0 + gate.budget);
  return out;
}

/// One line per gate: the reading, its rounds and its verdict.
inline void print_timing(const TimingGate& gate, const TimingReading& r) {
  const char* verdict = !r.resolved ? "FAIL (UNRESOLVED)"
                        : r.pass    ? "OK"
                                    : "FAIL";
  if (gate.speedup) {
    std::printf("%s: %.3fx (gate >= %.2fx", gate.name, r.value(gate),
                1.0 + gate.budget);
  } else {
    std::printf("%s: %+.2f%% (gate < %.0f%%", gate.name, r.value(gate),
                100.0 * gate.budget);
  }
  std::printf("; %zu of %zu rounds resolved, %.0f%% set aside) -> %s\n",
              r.resolving, r.rounds, 100.0 * r.set_aside_share(), verdict);
}

/// The gate's fields for a BENCH_*.json object: `"key": {...}`.
inline void write_timing_json(std::FILE* f, const char* key,
                              const TimingGate& gate,
                              const TimingReading& r) {
  std::fprintf(f,
               "  \"%s\": {\"value\": %.4f, \"unit\": \"%s\", "
               "\"resolving_rounds\": %zu, \"rounds\": %zu, "
               "\"set_aside_share\": %.3f, \"resolved\": %s, \"ok\": %s}",
               key, r.value(gate), gate.speedup ? "x" : "pct", r.resolving,
               r.rounds, r.set_aside_share(), r.resolved ? "true" : "false",
               r.pass ? "true" : "false");
}

}  // namespace webppm::bench
