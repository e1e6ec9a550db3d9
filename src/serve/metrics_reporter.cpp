#include "serve/metrics_reporter.hpp"

#include <cstdio>
#include <fstream>

#include "fault/fault.hpp"
#include "obs/trace_event.hpp"

namespace webppm::serve {

std::string render_metrics_exposition(ModelServer& server,
                                      obs::MetricsRegistry& registry) {
  server.refresh_gauges();
  return registry.prometheus_text();
}

MetricsReporter::MetricsReporter(ModelServer& server,
                                 obs::MetricsRegistry& registry,
                                 Options options)
    : server_(server),
      registry_(registry),
      options_(std::move(options)),
      ticks_(registry_.counter("webppm_serve_report_ticks_total")),
      failures_(registry_.counter("webppm_serve_report_failures_total")) {
  if (options_.interval.count() < 1) {
    options_.interval = std::chrono::milliseconds(1);
  }
  thread_ = std::thread([this] { run(); });
}

MetricsReporter::~MetricsReporter() { stop(); }

void MetricsReporter::stop() {
  {
    std::lock_guard lock(mu_);
    if (stop_) return;
    stop_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
  report();  // final flush so the file reflects end-of-run state
}

void MetricsReporter::tick_now() { report(); }

void MetricsReporter::run() {
  std::unique_lock lock(mu_);
  while (!stop_) {
    if (cv_.wait_for(lock, options_.interval, [this] { return stop_; })) {
      return;
    }
    lock.unlock();
    report();
    lock.lock();
  }
}

void MetricsReporter::report() {
  WEBPPM_TRACE("serve.metrics_report");
  const std::string text = render_metrics_exposition(server_, registry_);
  if (!options_.path.empty()) {
    const std::string tmp = options_.path + ".tmp";
    bool ok = !WEBPPM_FAULT_INJECT("serve.report.write");
    if (ok) {
      std::ofstream out(tmp, std::ios::trunc);
      out << text;
      out.flush();
      ok = static_cast<bool>(out);  // caught: open failure, disk full, ...
    }
    if (ok && (WEBPPM_FAULT_INJECT("serve.report.rename") ||
               std::rename(tmp.c_str(), options_.path.c_str()) != 0)) {
      ok = false;
    }
    // On any failure: keep the last successfully renamed exposition (a
    // scraper reads last-good, never a torn file) and remove the stale
    // .tmp so a recovering disk isn't left with half-written litter.
    if (!ok) {
      std::remove(tmp.c_str());
      if (failures_.value() == 0) {
        obs::log_event(obs::Severity::kWarn, "serve.report_write_failed",
                       "cannot rewrite " + options_.path +
                           "; keeping last-good exposition");
      }
      failures_.add();
    }
  }
  if (options_.sink) options_.sink(text);
  ticks_.add();
}

}  // namespace webppm::serve
