#include "obs/metrics.hpp"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <ostream>
#include <sstream>

namespace webppm::obs {

std::uint64_t now_ns() noexcept {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point t0 = Clock::now();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0)
          .count());
}

namespace detail {

std::size_t this_thread_slot() noexcept {
  static std::atomic<std::size_t> next{0};
  static thread_local const std::size_t slot =
      next.fetch_add(1, std::memory_order_relaxed) % kCounterShards;
  return slot;
}

}  // namespace detail

double HistogramSnapshot::quantile(double q) const {
  if (count == 0) return 0.0;
  const double clamped = q < 0.0 ? 0.0 : (q > 1.0 ? 1.0 : q);
  auto rank = static_cast<std::uint64_t>(
      std::ceil(clamped * static_cast<double>(count)));
  if (rank == 0) rank = 1;
  std::uint64_t cum = 0;
  for (std::size_t i = 0; i < kHistogramBuckets; ++i) {
    cum += buckets[i];
    if (cum >= rank) {
      const auto lo = static_cast<double>(LogHistogram::bucket_lower(i));
      // Cap at the observed max: the max lives in the highest non-empty
      // bucket, so this only tightens the bound there (and keeps the top
      // bucket's 2^64 edge from stretching the interpolation).
      const double hi = std::min(static_cast<double>(LogHistogram::bucket_upper(i)),
                                 static_cast<double>(max));
      const auto within = static_cast<double>(rank - (cum - buckets[i]));
      return lo + (hi - lo) * within / static_cast<double>(buckets[i]);
    }
  }
  return static_cast<double>(max);  // unreachable: cum == count >= rank
}

MetricsRegistry::Entry& MetricsRegistry::entry(std::string_view name,
                                               Kind kind) {
  std::lock_guard lock(mu_);
  auto it = metrics_.find(name);
  if (it == metrics_.end()) {
    Entry e;
    e.kind = kind;
    switch (kind) {
      case Kind::kCounter: e.counter = std::make_unique<Counter>(); break;
      case Kind::kGauge: e.gauge = std::make_unique<Gauge>(); break;
      case Kind::kHistogram:
        e.histogram = std::make_unique<LogHistogram>();
        break;
    }
    it = metrics_.emplace(std::string(name), std::move(e)).first;
  }
  assert(it->second.kind == kind && "metric re-registered as another kind");
  return it->second;
}

Counter& MetricsRegistry::counter(std::string_view name) {
  return *entry(name, Kind::kCounter).counter;
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  return *entry(name, Kind::kGauge).gauge;
}

LogHistogram& MetricsRegistry::histogram(std::string_view name) {
  return *entry(name, Kind::kHistogram).histogram;
}

const MetricsRegistry::Entry* MetricsRegistry::find(std::string_view name,
                                                    Kind kind) const {
  std::lock_guard lock(mu_);
  const auto it = metrics_.find(name);
  if (it == metrics_.end() || it->second.kind != kind) return nullptr;
  return &it->second;
}

const Counter* MetricsRegistry::find_counter(std::string_view name) const {
  const auto* e = find(name, Kind::kCounter);
  return e ? e->counter.get() : nullptr;
}

const Gauge* MetricsRegistry::find_gauge(std::string_view name) const {
  const auto* e = find(name, Kind::kGauge);
  return e ? e->gauge.get() : nullptr;
}

const LogHistogram* MetricsRegistry::find_histogram(
    std::string_view name) const {
  const auto* e = find(name, Kind::kHistogram);
  return e ? e->histogram.get() : nullptr;
}

namespace {

/// Shortest round-trippable representation for quantile doubles in JSON.
std::string format_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

}  // namespace

void MetricsRegistry::write_prometheus(std::ostream& os) const {
  std::lock_guard lock(mu_);
  for (const auto& [name, e] : metrics_) {
    switch (e.kind) {
      case Kind::kCounter:
        os << "# TYPE " << name << " counter\n"
           << name << ' ' << e.counter->value() << '\n';
        break;
      case Kind::kGauge:
        os << "# TYPE " << name << " gauge\n"
           << name << ' ' << e.gauge->value() << '\n';
        break;
      case Kind::kHistogram: {
        const auto s = e.histogram->snapshot();
        os << "# TYPE " << name << " histogram\n";
        std::size_t top = 0;  // highest non-empty bucket
        for (std::size_t i = 0; i < kHistogramBuckets; ++i) {
          if (s.buckets[i] != 0) top = i;
        }
        std::uint64_t cum = 0;
        for (std::size_t i = 0; s.count != 0 && i <= top; ++i) {
          cum += s.buckets[i];
          os << name << "_bucket{le=\"" << LogHistogram::bucket_upper(i)
             << "\"} " << cum << '\n';
        }
        os << name << "_bucket{le=\"+Inf\"} " << s.count << '\n'
           << name << "_sum " << s.sum << '\n'
           << name << "_count " << s.count << '\n';
        break;
      }
    }
  }
}

void MetricsRegistry::write_json(std::ostream& os) const {
  std::lock_guard lock(mu_);
  os << "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, e] : metrics_) {
    if (e.kind != Kind::kCounter) continue;
    os << (first ? "" : ",") << "\n    \"" << name
       << "\": " << e.counter->value();
    first = false;
  }
  os << (first ? "" : "\n  ") << "},\n  \"gauges\": {";
  first = true;
  for (const auto& [name, e] : metrics_) {
    if (e.kind != Kind::kGauge) continue;
    os << (first ? "" : ",") << "\n    \"" << name
       << "\": " << e.gauge->value();
    first = false;
  }
  os << (first ? "" : "\n  ") << "},\n  \"histograms\": {";
  first = true;
  for (const auto& [name, e] : metrics_) {
    if (e.kind != Kind::kHistogram) continue;
    const auto s = e.histogram->snapshot();
    os << (first ? "" : ",") << "\n    \"" << name << "\": {\"count\": "
       << s.count << ", \"sum\": " << s.sum << ", \"max\": " << s.max
       << ", \"p50\": " << format_double(s.quantile(0.50))
       << ", \"p90\": " << format_double(s.quantile(0.90))
       << ", \"p99\": " << format_double(s.quantile(0.99)) << ", \"buckets\": [";
    bool bfirst = true;
    for (std::size_t i = 0; i < kHistogramBuckets; ++i) {
      if (s.buckets[i] == 0) continue;
      os << (bfirst ? "" : ", ") << '[' << LogHistogram::bucket_upper(i)
         << ", " << s.buckets[i] << ']';
      bfirst = false;
    }
    os << "]}";
    first = false;
  }
  os << (first ? "" : "\n  ") << "}\n}\n";
}

std::string MetricsRegistry::prometheus_text() const {
  std::ostringstream ss;
  write_prometheus(ss);
  return ss.str();
}

std::string MetricsRegistry::json_text() const {
  std::ostringstream ss;
  write_json(ss);
  return ss.str();
}

MetricsRegistry& attached_or_owned(MetricsRegistry* attached,
                                   std::unique_ptr<MetricsRegistry>& owned) {
  if (attached != nullptr) return *attached;
  if (owned == nullptr) owned = std::make_unique<MetricsRegistry>();
  return *owned;
}

MetricsRegistry& registry() {
  static MetricsRegistry reg;
  return reg;
}

}  // namespace webppm::obs
