// webppm::obs unit suite: histogram bucket/quantile math against a scalar
// oracle, sharded-counter exactness under concurrent hammering, trace-ring
// wraparound, the bounded event log, registry reference stability, golden
// Prometheus/JSON expositions, and the ThreadPool failure-accounting
// integration.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <future>
#include <string>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace_event.hpp"
#include "util/thread_pool.hpp"

namespace webppm::obs {
namespace {

TEST(LogHistogram, BucketBoundaries) {
  // Bucket 0 = {0}; bucket i = [2^(i-1), 2^i).
  EXPECT_EQ(LogHistogram::bucket_index(0), 0u);
  EXPECT_EQ(LogHistogram::bucket_index(1), 1u);
  EXPECT_EQ(LogHistogram::bucket_index(2), 2u);
  EXPECT_EQ(LogHistogram::bucket_index(3), 2u);
  EXPECT_EQ(LogHistogram::bucket_index(4), 3u);
  EXPECT_EQ(LogHistogram::bucket_index(1023), 10u);
  EXPECT_EQ(LogHistogram::bucket_index(1024), 11u);
  EXPECT_EQ(LogHistogram::bucket_index(~std::uint64_t{0}),
            kHistogramBuckets - 1);

  EXPECT_EQ(LogHistogram::bucket_lower(0), 0u);
  EXPECT_EQ(LogHistogram::bucket_upper(0), 1u);
  EXPECT_EQ(LogHistogram::bucket_lower(1), 1u);
  EXPECT_EQ(LogHistogram::bucket_upper(1), 2u);
  EXPECT_EQ(LogHistogram::bucket_upper(kHistogramBuckets - 1),
            ~std::uint64_t{0});

  // Every value lands in a bucket whose [lower, upper) range contains it.
  for (const std::uint64_t v :
       {0ull, 1ull, 2ull, 7ull, 63ull, 64ull, 12345ull, 1ull << 40}) {
    const auto i = LogHistogram::bucket_index(v);
    EXPECT_GE(v, LogHistogram::bucket_lower(i)) << v;
    EXPECT_LT(v, LogHistogram::bucket_upper(i)) << v;
  }
}

TEST(LogHistogram, CountSumMaxExact) {
  LogHistogram h;
  std::uint64_t sum = 0;
  for (std::uint64_t v = 0; v < 1000; v += 7) {
    h.record(v);
    sum += v;
  }
  const auto s = h.snapshot();
  EXPECT_EQ(s.count, 143u);
  EXPECT_EQ(s.sum, sum);
  EXPECT_EQ(s.max, 994u);
  EXPECT_EQ(h.count(), 143u);
}

TEST(LogHistogram, QuantileMatchesScalarOracle) {
  // Deterministic pseudo-random samples spanning several decades.
  LogHistogram h;
  std::vector<std::uint64_t> values;
  std::uint64_t x = 0x2545F4914F6CDD1Dull;
  for (int i = 0; i < 5000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    const std::uint64_t v = x % 1'000'000;
    values.push_back(v);
    h.record(v);
  }
  std::sort(values.begin(), values.end());

  const auto s = h.snapshot();
  for (const double q : {0.0, 0.5, 0.9, 0.99, 1.0}) {
    // Oracle: the rank-r order statistic. The histogram answers at bucket
    // resolution, so the quantile must land inside the oracle's bucket.
    std::size_t rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(values.size())));
    if (rank == 0) rank = 1;
    const std::uint64_t oracle = values[rank - 1];
    const auto bucket = LogHistogram::bucket_index(oracle);
    const double got = s.quantile(q);
    EXPECT_GE(got, static_cast<double>(LogHistogram::bucket_lower(bucket)))
        << "q=" << q;
    EXPECT_LE(got, static_cast<double>(LogHistogram::bucket_upper(bucket)))
        << "q=" << q;
  }
  // The interpolated p100 cap: never above the observed max.
  EXPECT_LE(s.quantile(1.0), static_cast<double>(s.max));
}

TEST(LogHistogram, EmptyQuantileIsZero) {
  LogHistogram h;
  EXPECT_EQ(h.snapshot().quantile(0.5), 0.0);
  EXPECT_EQ(h.snapshot().mean(), 0.0);
}

TEST(Counter, ShardedSumExactUnderHammering) {
  Counter c;
  constexpr std::size_t kThreads = 8;
  constexpr std::uint64_t kAddsPerThread = 200'000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (std::uint64_t i = 0; i < kAddsPerThread; ++i) c.add();
    });
  }
  // Concurrent reads must be safe (values are monotone, possibly stale).
  std::uint64_t last = 0;
  for (int i = 0; i < 100; ++i) {
    const auto v = c.value();
    EXPECT_GE(v, last);
    last = v;
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(c.value(), kThreads * kAddsPerThread);
}

TEST(Gauge, SetAddSub) {
  Gauge g;
  EXPECT_EQ(g.value(), 0);
  g.set(5);
  g.add(3);
  g.sub(10);
  EXPECT_EQ(g.value(), -2);
}

TEST(TraceRing, WrapsOverwritingOldest) {
  TraceRing ring(4);
  for (std::uint64_t i = 0; i < 10; ++i) {
    ring.push({"e", i, 1});
  }
  EXPECT_EQ(ring.pushed(), 10u);
  EXPECT_EQ(ring.capacity(), 4u);
  const auto events = ring.snapshot();
  ASSERT_EQ(events.size(), 4u);
  // Oldest-first: pushes 6, 7, 8, 9 survive.
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(events[i].start_ns, 6 + i);
  }
  ring.clear();
  EXPECT_EQ(ring.pushed(), 0u);
  EXPECT_TRUE(ring.snapshot().empty());
}

TEST(TraceRing, PartialFillKeepsOrder) {
  TraceRing ring(8);
  ring.push({"a", 1, 1});
  ring.push({"b", 2, 1});
  const auto events = ring.snapshot();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].start_ns, 1u);
  EXPECT_EQ(events[1].start_ns, 2u);
}

TEST(TraceSpan, RecordsOnlyWhenEnabled) {
  clear_trace();
  set_tracing_enabled(false);
  { WEBPPM_TRACE("obs_test.disabled_span"); }
  set_tracing_enabled(true);
  { WEBPPM_TRACE("obs_test.enabled_span"); }
  set_tracing_enabled(false);

  std::ostringstream ss;
  write_chrome_trace(ss);
  const std::string doc = ss.str();
  EXPECT_NE(doc.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(doc.find("obs_test.enabled_span"), std::string::npos);
  EXPECT_EQ(doc.find("obs_test.disabled_span"), std::string::npos);
  clear_trace();
}

TEST(EventLog, BoundedAndOrdered) {
  clear_events();
  for (std::size_t i = 0; i < kMaxLoggedEvents + 50; ++i) {
    log_event(Severity::kInfo, "obs_test.flood", std::to_string(i));
  }
  const auto events = recent_events();
  ASSERT_EQ(events.size(), kMaxLoggedEvents);
  EXPECT_EQ(events.front().message, "50");  // oldest 50 dropped
  EXPECT_EQ(events.back().message,
            std::to_string(kMaxLoggedEvents + 49));

  clear_events();
  log_event(Severity::kWarn, "obs_test.one", "details \"quoted\"");
  std::ostringstream ss;
  write_events_json(ss);
  const std::string doc = ss.str();
  EXPECT_NE(doc.find("\"severity\": \"warn\""), std::string::npos);
  EXPECT_NE(doc.find("obs_test.one"), std::string::npos);
  EXPECT_NE(doc.find("details \\\"quoted\\\""), std::string::npos);
  clear_events();
}

TEST(MetricsRegistry, ReferencesAreStableAndIdempotent) {
  MetricsRegistry reg;
  Counter& a = reg.counter("x_total");
  a.add(2);
  Counter& b = reg.counter("x_total");
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(b.value(), 2u);

  // Registering many other metrics must not move the first.
  for (int i = 0; i < 100; ++i) {
    const std::string n = std::to_string(i);
    reg.counter("c" + n);
    reg.gauge("g" + n);
    reg.histogram("h" + n);
  }
  EXPECT_EQ(&reg.counter("x_total"), &a);

  EXPECT_EQ(reg.find_counter("x_total"), &a);
  EXPECT_EQ(reg.find_counter("absent"), nullptr);
  EXPECT_EQ(reg.find_gauge("x_total"), nullptr);  // kind mismatch
  EXPECT_EQ(reg.find_histogram("g0"), nullptr);
  EXPECT_NE(reg.find_gauge("g0"), nullptr);
}

TEST(MetricsRegistry, PrometheusGolden) {
  MetricsRegistry reg;
  reg.counter("a_total").add(3);
  reg.gauge("g").set(-2);
  auto& h = reg.histogram("h_ns");
  h.record(0);
  h.record(1);
  h.record(5);
  reg.histogram("empty_ns");

  EXPECT_EQ(reg.prometheus_text(),
            "# TYPE a_total counter\n"
            "a_total 3\n"
            "# TYPE empty_ns histogram\n"
            "empty_ns_bucket{le=\"+Inf\"} 0\n"
            "empty_ns_sum 0\n"
            "empty_ns_count 0\n"
            "# TYPE g gauge\n"
            "g -2\n"
            "# TYPE h_ns histogram\n"
            "h_ns_bucket{le=\"1\"} 1\n"
            "h_ns_bucket{le=\"2\"} 2\n"
            "h_ns_bucket{le=\"4\"} 2\n"
            "h_ns_bucket{le=\"8\"} 3\n"
            "h_ns_bucket{le=\"+Inf\"} 3\n"
            "h_ns_sum 6\n"
            "h_ns_count 3\n");
}

TEST(MetricsRegistry, JsonGolden) {
  MetricsRegistry reg;
  reg.counter("a_total").add(3);
  reg.gauge("g").set(-2);
  auto& h = reg.histogram("h_ns");
  h.record(0);
  h.record(1);
  h.record(5);

  // p50: rank 2 falls in bucket [1,2) fully consumed -> 2; p90/p99: rank 3
  // lands in bucket [4,8), whose bound is capped at the observed max -> 5.
  EXPECT_EQ(reg.json_text(),
            "{\n"
            "  \"counters\": {\n"
            "    \"a_total\": 3\n"
            "  },\n"
            "  \"gauges\": {\n"
            "    \"g\": -2\n"
            "  },\n"
            "  \"histograms\": {\n"
            "    \"h_ns\": {\"count\": 3, \"sum\": 6, \"max\": 5, "
            "\"p50\": 2, \"p90\": 5, \"p99\": 5, "
            "\"buckets\": [[1, 1], [2, 1], [8, 1]]}\n"
            "  }\n"
            "}\n");
}

TEST(MetricsRegistry, EmptyExpositionsAreWellFormed) {
  MetricsRegistry reg;
  EXPECT_EQ(reg.prometheus_text(), "");
  EXPECT_EQ(reg.json_text(),
            "{\n  \"counters\": {},\n  \"gauges\": {},\n"
            "  \"histograms\": {}\n}\n");
}

// Scoreboard/reporter wiring scrapes the registry while serving threads
// both bump existing metrics and register *new* names (e.g. the first
// publish of a webppm_serve_scoreboard_* gauge) — so renders must be safe
// against concurrent registration, not just concurrent writes. Hammer
// exactly that interleaving; run under the tsan preset.
TEST(MetricsRegistry, RenderSafeUnderConcurrentRegistration) {
  MetricsRegistry reg;
  constexpr int kWriters = 4;
  constexpr int kPerWriter = 64;
  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> renders{0};

  std::vector<std::thread> scrapers;
  for (int s = 0; s < 2; ++s) {
    scrapers.emplace_back([&] {
      while (!done.load(std::memory_order_acquire)) {
        const std::string prom = reg.prometheus_text();
        const std::string json = reg.json_text();
        // Renders observe a prefix of the registrations: whatever they
        // saw must already be well-formed.
        EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
                  std::count(json.begin(), json.end(), '}'));
        if (!prom.empty()) {
          EXPECT_EQ(prom.back(), '\n');
        }
        renders.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (int i = 0; i < kPerWriter; ++i) {
        const std::string tag =
            std::to_string(w) + "_" + std::to_string(i);
        reg.counter("hammer_c" + tag + "_total")
            .add(static_cast<std::uint64_t>(i) + 1);
        reg.gauge("hammer_g" + tag).set(-(i + 1));
        reg.histogram("hammer_h" + tag + "_ns").record(
            static_cast<std::uint64_t>(i));
      }
    });
  }
  for (auto& t : writers) t.join();
  done.store(true, std::memory_order_release);
  for (auto& t : scrapers) t.join();
  EXPECT_GT(renders.load(), 0u);

  // Quiesced, every registration must be visible and intact.
  const std::string prom = reg.prometheus_text();
  for (int w = 0; w < kWriters; ++w) {
    for (int i = 0; i < kPerWriter; ++i) {
      const std::string tag =
          std::to_string(w) + "_" + std::to_string(i);
      EXPECT_NE(prom.find("hammer_c" + tag + "_total " +
                          std::to_string(i + 1)),
                std::string::npos);
      EXPECT_NE(prom.find("hammer_g" + tag + " -" + std::to_string(i + 1)),
                std::string::npos);
      ASSERT_NE(reg.find_histogram("hammer_h" + tag + "_ns"), nullptr);
      EXPECT_EQ(
          reg.find_histogram("hammer_h" + tag + "_ns")->snapshot().count,
          1u);
    }
  }
}

TEST(NowNs, Monotone) {
  const auto a = now_ns();
  const auto b = now_ns();
  EXPECT_LE(a, b);
}

// --- ThreadPool failure accounting (satellite b) ------------------------

TEST(ThreadPoolObs, CountsExecutedAndFailedTasks) {
  util::ThreadPool pool(2);
  MetricsRegistry reg;
  pool.attach_metrics(reg, "test_pool");

  pool.submit([] {}).get();
  auto failing = pool.submit([] { throw std::runtime_error("task boom"); });
  EXPECT_THROW(failing.get(), std::runtime_error);  // still propagates
  pool.submit([] {}).get();

  const auto stats = pool.stats();
  EXPECT_EQ(stats.tasks_submitted, 3u);
  EXPECT_EQ(stats.tasks_executed, 2u);
  EXPECT_EQ(stats.tasks_failed, 1u);
  EXPECT_EQ(reg.counter("test_pool_tasks_executed_total").value(), 2u);
  EXPECT_EQ(reg.counter("test_pool_tasks_failed_total").value(), 1u);
  EXPECT_EQ(reg.gauge("test_pool_queue_depth").value(), 0);
}

TEST(ThreadPoolObs, LateAttachCarriesTheCountsSoFar) {
  util::ThreadPool pool(2);
  pool.submit([] {}).get();
  auto failing = pool.submit([] { throw std::runtime_error("early boom"); });
  EXPECT_THROW(failing.get(), std::runtime_error);

  MetricsRegistry reg;
  pool.attach_metrics(reg, "late_pool");
  pool.submit([] {}).get();

  const auto stats = pool.stats();
  EXPECT_EQ(stats.tasks_submitted, 3u);
  EXPECT_EQ(stats.tasks_executed, 2u);
  EXPECT_EQ(stats.tasks_failed, 1u);
  EXPECT_EQ(reg.counter("late_pool_tasks_submitted_total").value(),
            stats.tasks_submitted);
  EXPECT_EQ(reg.counter("late_pool_tasks_executed_total").value(),
            stats.tasks_executed);
  EXPECT_EQ(reg.counter("late_pool_tasks_failed_total").value(),
            stats.tasks_failed);
}

TEST(ThreadPoolObs, FailureEmitsStructuredEvent) {
  clear_events();
  util::ThreadPool pool(1);
  auto fut = pool.submit([] { throw std::logic_error("observable boom"); });
  EXPECT_THROW(fut.get(), std::logic_error);

  bool found = false;
  for (const auto& e : recent_events()) {
    if (e.name == "thread_pool.task_failed" &&
        e.message.find("observable boom") != std::string::npos &&
        e.severity == Severity::kError) {
      found = true;
    }
  }
  EXPECT_TRUE(found);
  clear_events();
}

TEST(ThreadPoolObs, QueueHighWaterTracksBacklog) {
  util::ThreadPool pool(1);
  // A blocker task holds the single worker while more tasks queue up.
  std::promise<void> release;
  auto gate = release.get_future().share();
  auto blocker = pool.submit([gate] { gate.wait(); });
  std::vector<std::future<void>> rest;
  for (int i = 0; i < 5; ++i) rest.push_back(pool.submit([] {}));
  EXPECT_GE(pool.stats().queue_high_water, 5u);
  release.set_value();
  blocker.get();
  for (auto& f : rest) f.get();
  EXPECT_EQ(pool.stats().queue_depth, 0u);
}

}  // namespace
}  // namespace webppm::obs
