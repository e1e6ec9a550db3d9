// webppm::obs — low-overhead metrics primitives shared by the serving,
// sweep and simulation layers.
//
// Design constraints (DESIGN.md §8):
//   * Counters are per-thread-sharded: each shard is one cache-line-padded
//     relaxed atomic and a thread always hits the same shard, so
//     instrumenting a concurrent hot path (ModelServer::query) adds one
//     uncontended fetch_add — no shared cache line, no fence.
//   * Histograms are fixed log2 buckets over uint64 values (nanoseconds for
//     latencies): record() is a few relaxed RMWs; quantiles (p50/p90/p99)
//     are computed at exposition time from a snapshot.
//   * The registry hands out stable references; name lookup takes a mutex
//     and is meant for setup time — hot paths cache the returned reference.
//   * Exposition is pull-based: write_prometheus / write_json serialize a
//     relaxed per-cell snapshot (monitoring-grade consistency, no locks on
//     the recording side).
//
// One source per count: an object whose accessors report counts keeps
// each count once, as a Counter in a registry — the attached one, or a
// private one it owns when none is attached (attached_or_owned below) —
// and its accessors read that counter back. Only sampled timing
// (histograms, stage clocks, lock-contention probes) needs an attached
// registry, so a detached object reads no clock. The WEBPPM_TRACE span
// macro (trace_event.hpp) compiles to nothing under -DWEBPPM_OBS_DISABLED.
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <iosfwd>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>

namespace webppm::obs {

inline constexpr std::size_t kCacheLineBytes = 64;
inline constexpr std::size_t kCounterShards = 16;

/// Monotonic nanoseconds since the first call in this process. One vDSO
/// clock read; safe from any thread.
std::uint64_t now_ns() noexcept;

namespace detail {
/// Stable per-thread shard index, assigned round-robin on first use so
/// concurrent recorders spread over the shard array.
std::size_t this_thread_slot() noexcept;
}  // namespace detail

/// Monotonic counter, sharded across cache-line-padded relaxed atomics.
/// add() never contends with another thread's add(); value() sums shards.
class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept {
    slots_[detail::this_thread_slot()].v.fetch_add(n,
                                                   std::memory_order_relaxed);
  }

  std::uint64_t value() const noexcept {
    std::uint64_t total = 0;
    for (const auto& s : slots_) total += s.v.load(std::memory_order_relaxed);
    return total;
  }

 private:
  struct alignas(kCacheLineBytes) Slot {
    std::atomic<std::uint64_t> v{0};
  };
  std::array<Slot, kCounterShards> slots_{};
};

/// Last-writer-wins instantaneous value (signed: depths, deltas, versions).
class Gauge {
 public:
  void set(std::int64_t v) noexcept { v_.store(v, std::memory_order_relaxed); }
  void add(std::int64_t n) noexcept {
    v_.fetch_add(n, std::memory_order_relaxed);
  }
  void sub(std::int64_t n) noexcept {
    v_.fetch_sub(n, std::memory_order_relaxed);
  }
  std::int64_t value() const noexcept {
    return v_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::int64_t> v_{0};
};

/// Bucket count of LogHistogram: bucket i holds values with bit_width == i,
/// i.e. bucket 0 = {0} and bucket i = [2^(i-1), 2^i) for i >= 1, up to
/// bit_width 64.
inline constexpr std::size_t kHistogramBuckets = 65;

/// Immutable point-in-time copy of a LogHistogram; quantile math lives here
/// so tests can check it against a scalar oracle without atomics involved.
struct HistogramSnapshot {
  std::array<std::uint64_t, kHistogramBuckets> buckets{};
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t max = 0;

  /// Bucket-resolution quantile: rank r = max(1, ceil(q * count)); the
  /// bucket where the cumulative count reaches r is linearly interpolated
  /// between its bounds. Returns 0 for an empty histogram.
  double quantile(double q) const;

  double mean() const {
    return count == 0 ? 0.0
                      : static_cast<double>(sum) / static_cast<double>(count);
  }
};

/// Fixed log2-bucket histogram of uint64 samples (typically nanoseconds).
/// record() is wait-free (relaxed fetch_adds plus a CAS loop for max);
/// readers take relaxed snapshots.
class LogHistogram {
 public:
  static std::size_t bucket_index(std::uint64_t v) noexcept {
    return static_cast<std::size_t>(std::bit_width(v));
  }
  static std::uint64_t bucket_lower(std::size_t i) noexcept {
    return i == 0 ? 0 : std::uint64_t{1} << (i - 1);
  }
  /// Exclusive upper bound (saturated for the top bucket).
  static std::uint64_t bucket_upper(std::size_t i) noexcept {
    if (i == 0) return 1;
    if (i >= kHistogramBuckets - 1)
      return std::numeric_limits<std::uint64_t>::max();
    return std::uint64_t{1} << i;
  }

  void record(std::uint64_t v) noexcept {
    buckets_[bucket_index(v)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
    std::uint64_t cur = max_.load(std::memory_order_relaxed);
    while (v > cur &&
           !max_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }

  HistogramSnapshot snapshot() const noexcept {
    HistogramSnapshot s;
    for (std::size_t i = 0; i < kHistogramBuckets; ++i) {
      s.buckets[i] = buckets_[i].load(std::memory_order_relaxed);
    }
    s.count = count_.load(std::memory_order_relaxed);
    s.sum = sum_.load(std::memory_order_relaxed);
    s.max = max_.load(std::memory_order_relaxed);
    return s;
  }

  std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }

 private:
  std::array<std::atomic<std::uint64_t>, kHistogramBuckets> buckets_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
  std::atomic<std::uint64_t> max_{0};
};

/// Named metric directory. Registration is idempotent (same name returns
/// the same object) and the returned references are stable for the
/// registry's lifetime. A name must keep one kind — registering
/// "x" as both a counter and a gauge is a programming error (asserted).
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  LogHistogram& histogram(std::string_view name);

  /// Lookup without registering; nullptr when absent or of another kind.
  const Counter* find_counter(std::string_view name) const;
  const Gauge* find_gauge(std::string_view name) const;
  const LogHistogram* find_histogram(std::string_view name) const;

  /// Prometheus text exposition format. Histograms use integer-nanosecond
  /// `le` bounds (name the metric *_ns) with cumulative bucket counts.
  void write_prometheus(std::ostream& os) const;
  std::string prometheus_text() const;

  /// JSON dump: {"counters": {...}, "gauges": {...}, "histograms": {...}}
  /// with per-histogram count/sum/max/p50/p90/p99 and non-empty buckets.
  void write_json(std::ostream& os) const;
  std::string json_text() const;

 private:
  enum class Kind { kCounter, kGauge, kHistogram };
  struct Entry {
    Kind kind;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<LogHistogram> histogram;
  };

  Entry& entry(std::string_view name, Kind kind);
  const Entry* find(std::string_view name, Kind kind) const;

  mutable std::mutex mu_;
  // std::map: exposition iterates in name order, making output
  // deterministic for golden tests; Entry holds the metric behind a
  // unique_ptr so references never move.
  std::map<std::string, Entry, std::less<>> metrics_;
};

/// The registry an object with count accessors counts into: `attached`
/// when non-null, else the private registry in `owned` (created on the
/// first call).
MetricsRegistry& attached_or_owned(MetricsRegistry* attached,
                                   std::unique_ptr<MetricsRegistry>& owned);

/// Process-wide default registry (created on first use). Modules accept an
/// explicit registry pointer; this is the conventional one for tools that
/// want everything in one place.
MetricsRegistry& registry();

}  // namespace webppm::obs
