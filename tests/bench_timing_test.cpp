// The verdict rules of the bench timing harness (bench/timing.hpp), driven
// by scripted measures so no real time passes: a median under budget
// passes, one at or over it fails, a round whose two controls disagree by
// half the budget or more is set aside, and a gate that reaches its round
// cap without enough resolving rounds fails as unresolved.
#include "timing.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <functional>

namespace webppm::bench {
namespace {

/// A control whose run `i` (the warm-up is run 0) takes `seconds(round,
/// second_of_round)`; the variant always takes `variant` seconds.
TimingReading scripted(const TimingGate& gate,
                       const std::function<double(std::size_t, bool)>& seconds,
                       double variant) {
  std::size_t runs = 0;
  return run_timing_gate(
      gate,
      [&] {
        const std::size_t i = runs++;
        return i == 0 ? 1.0 : seconds((i - 1) / 2, (i - 1) % 2 != 0);
      },
      [&] { return variant; });
}

double steady(std::size_t, bool) { return 1.0; }

TEST(BenchTiming, MedianUnderBudgetPasses) {
  const TimingGate gate{.name = "t", .budget = 0.25};
  const auto r = scripted(gate, steady, 1.125);
  EXPECT_TRUE(r.resolved);
  EXPECT_TRUE(r.pass);
  EXPECT_EQ(r.resolving, kResolvingRounds);
  EXPECT_EQ(r.rounds, kResolvingRounds);
  EXPECT_DOUBLE_EQ(r.value(gate), 12.5);
}

TEST(BenchTiming, MedianAtOrOverBudgetFails) {
  const TimingGate gate{.name = "t", .budget = 0.25};
  for (const double variant : {1.25, 1.5}) {
    const auto r = scripted(gate, steady, variant);
    EXPECT_TRUE(r.resolved);
    EXPECT_FALSE(r.pass) << variant;
  }
}

TEST(BenchTiming, SpeedupGateComparesTheInverse) {
  const TimingGate gate{.name = "t", .budget = 0.25, .speedup = true};
  EXPECT_TRUE(scripted(gate, steady, 0.75).pass);    // 1.33x
  EXPECT_FALSE(scripted(gate, steady, 0.875).pass);  // 1.14x
}

TEST(BenchTiming, RoundsWhoseControlsDisagreeAreSetAside) {
  // Two rounds in three have controls 20% apart, beyond half of a 25%
  // budget, and a variant at 2x: counted, they would carry the median.
  const TimingGate gate{.name = "t", .budget = 0.25};
  std::size_t runs = 0;
  std::size_t variant_runs = 0;
  const auto r = run_timing_gate(
      gate,
      [&] {
        const std::size_t i = runs++;
        const bool second = i != 0 && (i - 1) % 2 != 0;
        return second && ((i - 1) / 2) % 3 != 0 ? 1.2 : 1.0;
      },
      [&] {
        const std::size_t i = variant_runs++;
        return i != 0 && (i - 1) % 3 != 0 ? 2.0 : 1.0;
      });
  EXPECT_TRUE(r.pass);
  EXPECT_DOUBLE_EQ(r.ratio, 1.0);
  EXPECT_EQ(r.resolving, kResolvingRounds);
  EXPECT_EQ(r.rounds, 3 * kResolvingRounds - 2);
  EXPECT_DOUBLE_EQ(r.set_aside_share(), 40.0 / 61.0);
}

TEST(BenchTiming, NoResolvingRoundBeforeTheCapFailsUnresolved) {
  const TimingGate gate{.name = "t", .budget = 0.25};
  const auto r = scripted(
      gate, [](std::size_t, bool second) { return second ? 1.5 : 1.0; },
      1.0);
  EXPECT_FALSE(r.resolved);
  EXPECT_FALSE(r.pass);
  EXPECT_EQ(r.resolving, 0u);
  EXPECT_EQ(r.rounds, kRoundCap);
  EXPECT_DOUBLE_EQ(r.set_aside_share(), 1.0);
}

TEST(BenchTiming, TooFewResolvingRoundsFailUnresolved) {
  // One round in 15 resolves: 20 of them by the cap, one short.
  const TimingGate gate{.name = "t", .budget = 0.25};
  const auto r = scripted(
      gate,
      [](std::size_t round, bool second) {
        return round % 15 != 0 && second ? 1.5 : 1.0;
      },
      1.0);
  EXPECT_EQ(r.resolving, kRoundCap / 15);
  EXPECT_LT(r.resolving, kResolvingRounds);
  EXPECT_FALSE(r.resolved);
  EXPECT_FALSE(r.pass);
}

}  // namespace
}  // namespace webppm::bench
