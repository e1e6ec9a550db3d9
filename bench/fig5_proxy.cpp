// Reproduces paper Figure 5: prefetching between the server and a shared
// proxy, sweeping the number of browser clients behind the proxy (1..32).
//   left  — total hit ratio (browser + proxy cached + proxy prefetched):
//           LRS lowest (42->71%), PB-PPM-100KB highest (61->78%),
//           PB-PPM-40KB and standard in between, converging at >= 24
//           clients.
//   right — traffic increment, decreasing with client count; standard
//           highest (~20% @ 32), PB-PPM-40KB lowest (~10% @ 32).
#include "bench_common.hpp"

namespace {

using namespace webppm;

/// §5 needs clients with substantial daily activity (the paper's trace
/// clients are whole departments' worth of requests) and a document-size
/// distribution with mass between the 40 KB and 100 KB thresholds, so the
/// proxy experiment runs on a dedicated variant of the nasa-like profile.
const trace::Trace& proxy_trace() {
  static const trace::Trace t = [] {
    auto cfg = workload::nasa_like(/*days=*/5);
    cfg.population.browsers = 400;
    cfg.population.browser_sessions_per_day = 8.0;
    cfg.population.proxies = 4;
    cfg.site.image_count_mean = 3.0;
    cfg.site.image_size_alpha = 1.15;  // heavier image tail -> 40-100 KB mass
    cfg.site.image_size_cap = 128 * 1024;
    return workload::generate_page_trace(cfg);
  }();
  return t;
}

/// Busiest browsers on the eval day (deterministic): mirrors the paper's
/// selection of trace clients that actually exercise the proxy.
std::vector<ClientId> busiest_browsers(const trace::Trace& trace,
                                       std::uint32_t day, std::size_t count) {
  const auto& classes = core::cached_client_classes(trace);
  std::vector<std::uint64_t> reqs(trace.clients.size(), 0);
  for (const auto& r : trace.day_slice(day)) ++reqs[r.client];
  std::vector<ClientId> clients;
  for (ClientId c = 0; c < trace.clients.size(); ++c) {
    if (reqs[c] > 0 && !classes.is_proxy[c]) clients.push_back(c);
  }
  std::sort(clients.begin(), clients.end(), [&](ClientId a, ClientId b) {
    return reqs[a] != reqs[b] ? reqs[a] > reqs[b] : a < b;
  });
  if (clients.size() > count) clients.resize(count);
  return clients;
}

}  // namespace

int main() {
  using namespace webppm;
  using namespace webppm::bench;
  const auto& trace = proxy_trace();
  constexpr std::uint32_t kTrainDays = 4;
  print_header("=== Figure 5: server-proxy prefetching, nasa-like ===",
               trace);

  auto pb40 = core::ModelSpec::pb_model();
  pb40.size_threshold_bytes = 40 * 1024;
  pb40.label = "pb-ppm-40KB";
  auto pb100 = core::ModelSpec::pb_model();
  pb100.size_threshold_bytes = 100 * 1024;
  pb100.label = "pb-ppm-100KB";
  const core::ModelSpec specs[] = {core::ModelSpec::standard_unbounded(),
                                   core::ModelSpec::lrs_model(), pb40,
                                   pb100};

  const std::size_t client_counts[] = {1, 2, 4, 8, 16, 24, 32};

  // Train each model once; reuse across group sizes.
  std::vector<core::TrainedModel> trained;
  for (const auto& spec : specs) {
    trained.push_back(core::train_model(spec, trace, 0, kTrainDays - 1));
  }

  std::printf("-- Fig 5 (left): total proxy hit ratio --\n");
  std::printf("%-14s", "clients");
  for (const auto c : client_counts) std::printf("%8zu", c);
  std::printf("\n");
  std::vector<std::vector<sim::Metrics>> all(std::size(specs));
  for (std::size_t m = 0; m < std::size(specs); ++m) {
    std::printf("%-14s", specs[m].label.c_str());
    for (const auto c : client_counts) {
      const auto clients = busiest_browsers(trace, kTrainDays, c);
      const auto r = core::evaluate_proxy_group(trace, specs[m], trained[m],
                                                kTrainDays, clients);
      all[m].push_back(r.metrics);
      std::printf("%8.3f", r.metrics.hit_ratio());
    }
    std::printf("\n");
  }

  std::printf("\n-- Fig 5 (right): traffic increment --\n");
  std::printf("%-14s", "clients");
  for (const auto c : client_counts) std::printf("%8zu", c);
  std::printf("\n");
  for (std::size_t m = 0; m < std::size(specs); ++m) {
    std::printf("%-14s", specs[m].label.c_str());
    for (const auto& metrics : all[m]) {
      std::printf("%7.1f%%", 100.0 * metrics.traffic_increment());
    }
    std::printf("\n");
  }

  std::printf("\npaper shape: hit ratios rise with client count "
              "(sharing); pb-ppm-100KB gives the top hit-ratio curve and "
              "lrs the lowest; traffic increments fall with client count\n");
  return 0;
}
