// Periodic /metrics-style exposition for a ModelServer: a background
// thread that, every interval, refreshes the server's summary gauges and
// emits the registry's Prometheus text — to a file (atomically rewritten,
// the scrape-target shape), to a callback sink, or both.
//
// This is deliberately not an HTTP server: the repo has no network
// dependency, and a file target behind any static file server (or pushed
// by a sidecar) gives the same scrape semantics. The reporter thread is
// the only writer of the target file.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <thread>

#include "obs/metrics.hpp"
#include "serve/model_server.hpp"

namespace webppm::serve {

/// The one Prometheus render: refreshes the server's summary gauges, then
/// returns the registry's text exposition. MetricsReporter::report() and
/// the net admin listener's GET /metrics both call exactly this, so the
/// file a scraper reads and the body an HTTP scrape returns can never
/// drift (a golden test asserts they are byte-identical for the same
/// registry).
std::string render_metrics_exposition(ModelServer& server,
                                      obs::MetricsRegistry& registry);

class MetricsReporter {
 public:
  struct Options {
    std::chrono::milliseconds interval{1000};
    /// When non-empty, each tick rewrites this file (write temp + rename)
    /// with the Prometheus text exposition.
    std::string path;
    /// Optional per-tick callback receiving the same text.
    std::function<void(const std::string&)> sink;
  };

  /// Starts the reporter thread. `server` and `registry` must outlive it.
  MetricsReporter(ModelServer& server, obs::MetricsRegistry& registry,
                  Options options);
  ~MetricsReporter();

  MetricsReporter(const MetricsReporter&) = delete;
  MetricsReporter& operator=(const MetricsReporter&) = delete;

  /// Stops and joins the reporter thread (idempotent). The destructor
  /// calls this; a final report is emitted on the way out so short-lived
  /// runs never finish with a stale file.
  void stop();

  /// Runs one report synchronously on the caller's thread.
  void tick_now();

  /// Reports emitted (webppm_serve_report_ticks_total; a report shows the
  /// count before its own tick).
  std::uint64_t ticks() const { return ticks_.value(); }

  /// Report ticks that failed to rewrite the target file (write error or
  /// rename failure; webppm_serve_report_failures_total). The last
  /// successfully written exposition stays in place — a scraper keeps
  /// seeing the last-good text, never a torn file.
  std::uint64_t report_failures() const { return failures_.value(); }

 private:
  void run();
  void report();

  ModelServer& server_;
  obs::MetricsRegistry& registry_;
  Options options_;

  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  obs::Counter& ticks_;
  obs::Counter& failures_;
  std::thread thread_;
};

}  // namespace webppm::serve
