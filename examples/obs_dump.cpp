// obs_dump: exercise every instrumented layer end to end and dump the
// observability surfaces the repo exposes:
//
//   obs_metrics.prom  — Prometheus text exposition (written live by a
//                       MetricsReporter while the server runs, then final)
//   obs_metrics.json  — registry JSON dump (counters / gauges / histograms
//                       with p50/p90/p99)
//   obs_trace.json    — Chrome trace_event document of the WEBPPM_TRACE
//                       spans; open in chrome://tracing or Perfetto
//   obs_events.json   — the bounded structured event log
//   obs_scoreboard.json — the prediction-quality scoreboard (the same
//                       document GET /scoreboard serves), settled at the
//                       end of the replay
//
// and prints the Prometheus text to stdout — or, with --scoreboard, the
// scoreboard JSON instead.
//
//   $ ./obs_dump [--days N] [--train K] [--scale X] [--threads T]
//               [--scoreboard]
//
// Flow: a synthetic NASA-like trace feeds (1) an instrumented SweepEngine
// day sweep of PB-PPM on a ThreadPool with attached pool metrics, (2) an
// instrumented simulate_direct run of the evaluation day, and (3) an
// instrumented ModelServer replaying that day as live clicks while a
// MetricsReporter rewrites obs_metrics.prom in the background.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

#include "core/webppm.hpp"
#include "obs/metrics.hpp"
#include "obs/trace_event.hpp"
#include "serve/metrics_reporter.hpp"
#include "serve/model_server.hpp"
#include "util/thread_pool.hpp"

namespace {

struct Options {
  std::uint32_t days = 4;
  std::uint32_t train = 3;
  double scale = 0.25;
  std::size_t threads = 2;
  bool scoreboard_dump = false;  ///< print scoreboard JSON, not Prometheus
};

bool parse_args(int argc, char** argv, Options& opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto need = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (a == "--days" && (v = need())) {
      opt.days = static_cast<std::uint32_t>(std::strtoul(v, nullptr, 10));
    } else if (a == "--train" && (v = need())) {
      opt.train = static_cast<std::uint32_t>(std::strtoul(v, nullptr, 10));
    } else if (a == "--scale" && (v = need())) {
      opt.scale = std::strtod(v, nullptr);
    } else if (a == "--threads" && (v = need())) {
      opt.threads = std::strtoul(v, nullptr, 10);
    } else if (a == "--scoreboard") {
      opt.scoreboard_dump = true;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--days N] [--train K] [--scale X] "
                   "[--threads T] [--scoreboard]\n",
                   argv[0]);
      return false;
    }
  }
  if (opt.train >= opt.days) {
    std::fprintf(stderr, "--train must be < --days (need an eval day)\n");
    return false;
  }
  return true;
}

void write_file(const char* path, const std::string& text) {
  std::ofstream out(path, std::ios::trunc);
  out << text;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace webppm;
  Options opt;
  if (!parse_args(argc, argv, opt)) return 2;

  obs::MetricsRegistry& reg = obs::registry();
  obs::set_tracing_enabled(true);

  const auto gen = workload::nasa_like(opt.days, opt.scale);
  const auto trace = workload::generate_page_trace(gen);
  std::printf("trace: %zu requests over %u days\n", trace.requests.size(),
              opt.days);

  // 1. Instrumented day sweep (webppm_sweep_* + webppm_pool_*).
  util::ThreadPool pool(opt.threads);
  pool.attach_metrics(reg, "webppm_pool");
  core::SweepEngine engine(trace, {}, opt.threads > 1 ? &pool : nullptr,
                           &reg);
  const auto spec = core::ModelSpec::pb_model();
  const auto sweep = engine.sweep(spec, opt.train);
  std::printf("sweep:  %zu points, final hit ratio %.3f\n", sweep.size(),
              sweep.back().with_prefetch.hit_ratio());

  // 2. Instrumented evaluation-day simulation (webppm_sim_*).
  auto trained = core::train_model(spec, trace, 0, opt.train - 1);
  sim::SimHooks hooks;
  sim::PredictionLog plog;
  hooks.prediction_log = &plog;
  hooks.metrics = &reg;
  const auto sim_metrics = sim::simulate_direct(
      trace, trace.day_slice(opt.train), *trained.predictor,
      trained.popularity, engine.classes(),
      core::apply_prefetch_policy(engine.sim_config(), spec, true), hooks);
  std::printf("sim:    %llu requests, %llu prefetch hits, %zu passes\n",
              static_cast<unsigned long long>(sim_metrics.requests),
              static_cast<unsigned long long>(sim_metrics.prefetch_hits),
              plog.entries.size());

  // 3. Instrumented model server + background reporter (webppm_serve_*).
  serve::ModelServerConfig scfg;
  scfg.metrics = &reg;
  scfg.latency_sample_every = 4;
  scfg.scoreboard.enabled = true;  // score the replay's predictions live
  serve::ModelServer server(scfg);
  server.publish(serve::make_snapshot(std::move(trained.predictor),
                                      std::move(trained.popularity), 1));
  {
    serve::MetricsReporter::Options ropt;
    ropt.interval = std::chrono::milliseconds(50);
    ropt.path = "obs_metrics.prom";
    serve::MetricsReporter reporter(server, reg, ropt);
    std::vector<ppm::Prediction> out;
    TimeSec last_ts = 0;
    for (const auto& r : trace.day_slice(opt.train)) {
      server.query(r, out);
      last_ts = std::max(last_ts, r.timestamp);
    }
    server.scoreboard_settle(last_ts);  // finalize outstanding predictions
    reporter.stop();  // final tick leaves obs_metrics.prom current
    std::printf("serve:  %llu queries, %zu clients, %llu reporter ticks\n",
                static_cast<unsigned long long>(server.query_count()),
                server.client_count(),
                static_cast<unsigned long long>(reporter.ticks()));
  }

  // Dump the remaining formats.
  write_file("obs_scoreboard.json", server.scoreboard_json());
  write_file("obs_metrics.json", reg.json_text());
  {
    std::ofstream out("obs_trace.json", std::ios::trunc);
    obs::write_chrome_trace(out);
  }
  {
    std::ofstream out("obs_events.json", std::ios::trunc);
    obs::write_events_json(out);
  }
  std::printf(
      "wrote obs_metrics.prom, obs_metrics.json, obs_trace.json, "
      "obs_events.json, obs_scoreboard.json\n\n");

  std::printf("%s", opt.scoreboard_dump ? server.scoreboard_json().c_str()
                                        : reg.prometheus_text().c_str());
  return 0;
}
