// Capped exponential backoff with seeded, deterministic jitter.
//
// Used by the cluster router's upstream retry loop (cluster::Upstream). The
// jitter source is a private xorshift64 stream seeded by the caller, so a
// replay with the same seed produces the same delay sequence — the same
// property the fault framework relies on for reproducible chaos runs. The
// helper only computes delays; sleeping is the caller's job (a caller may
// wait on a condition variable instead so a shutdown can interrupt the
// backoff).
#pragma once

#include <algorithm>
#include <cstdint>

namespace webppm::net {

struct BackoffPolicy {
  /// Delay before the first retry. 0 is pinned to 1 ms — a zero base would
  /// make every subsequent delay zero too and turn retries into a busy spin.
  std::uint64_t initial_ms = 1;
  /// Ceiling the exponential growth saturates at.
  std::uint64_t max_ms = 200;
  /// Growth factor between consecutive retries.
  double multiplier = 2.0;
  /// Fraction of each delay that is randomized: the returned delay is
  /// uniform in [delay * (1 - jitter), delay]. 0 disables jitter entirely;
  /// values are clamped to [0, 1].
  double jitter = 0.5;
};

class Backoff {
 public:
  explicit Backoff(BackoffPolicy policy, std::uint64_t seed = 1)
      : policy_(policy), state_(seed ? seed : 0x9e3779b97f4a7c15ull) {
    policy_.initial_ms = std::max<std::uint64_t>(policy_.initial_ms, 1);
    policy_.max_ms = std::max(policy_.max_ms, policy_.initial_ms);
    policy_.multiplier = std::max(policy_.multiplier, 1.0);
    policy_.jitter = std::clamp(policy_.jitter, 0.0, 1.0);
    reset();
  }

  /// Delay to wait before the next retry, advancing the schedule.
  std::uint64_t next_delay_ms() {
    const double base = cur_;
    cur_ = std::min(cur_ * policy_.multiplier,
                    static_cast<double>(policy_.max_ms));
    if (policy_.jitter == 0.0) return static_cast<std::uint64_t>(base);
    // Map a 53-bit draw to [0, 1): enough entropy for a delay spread and
    // exactly representable in a double.
    const double u =
        static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
    const double lo = base * (1.0 - policy_.jitter);
    const double d = lo + (base - lo) * u;
    // Round up so jitter never turns a 1 ms floor into a busy spin.
    return static_cast<std::uint64_t>(d) + ((d > 0.0) ? 1 : 0);
  }

  /// Restart the schedule from the initial delay (after a success).
  void reset() { cur_ = static_cast<double>(policy_.initial_ms); }

  const BackoffPolicy& policy() const { return policy_; }

 private:
  std::uint64_t next_u64() {
    std::uint64_t x = state_;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    state_ = x;
    return x * 0x2545f4914f6cdd1dull;
  }

  BackoffPolicy policy_;
  double cur_ = 1.0;
  std::uint64_t state_;
};

}  // namespace webppm::net
