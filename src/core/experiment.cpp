#include "core/experiment.hpp"

#include <algorithm>
#include <cassert>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "frozen/frozen.hpp"
#include "util/rng.hpp"

namespace webppm::core {

ModelSpec ModelSpec::standard_unbounded() {
  ModelSpec s;
  s.kind = ModelKind::kStandard;
  s.standard.max_height = 0;
  s.size_threshold_bytes = 100 * 1024;
  s.label = "standard-ppm";
  return s;
}

ModelSpec ModelSpec::standard_fixed(std::uint32_t height) {
  ModelSpec s = standard_unbounded();
  s.standard.max_height = height;
  s.label = std::to_string(height) + "-ppm";
  return s;
}

ModelSpec ModelSpec::lrs_model() {
  ModelSpec s;
  s.kind = ModelKind::kLrs;
  s.size_threshold_bytes = 100 * 1024;
  s.label = "lrs-ppm";
  return s;
}

ModelSpec ModelSpec::pb_model() {
  ModelSpec s;
  s.kind = ModelKind::kPopularity;
  s.size_threshold_bytes = 30 * 1024;
  s.label = "pb-ppm";
  return s;
}

ModelSpec ModelSpec::pb_model_aggressive() {
  ModelSpec s = pb_model();
  s.pb.min_absolute_count = 1;  // also drop count<=1 nodes (paper: UCB-CS)
  s.label = "pb-ppm";
  return s;
}

ModelSpec ModelSpec::top_n_model(std::size_t n) {
  ModelSpec s;
  s.kind = ModelKind::kTopN;
  s.top_n.n = n;
  s.size_threshold_bytes = 100 * 1024;
  s.label = "top-" + std::to_string(n);
  return s;
}

TrainedModel train_model(const ModelSpec& spec, const trace::Trace& trace,
                         std::uint32_t first_day, std::uint32_t last_day,
                         const session::SessionizerOptions& session_opt) {
  const auto window = trace.day_range(first_day, last_day);
  const auto sessions = session::extract_sessions(window, session_opt);

  TrainedModel out;
  out.popularity = popularity::PopularityTable::build(window,
                                                      trace.urls.size());
  out.training_sessions = sessions.size();
  out.training_requests = window.size();

  switch (spec.kind) {
    case ModelKind::kStandard: {
      auto m = std::make_unique<ppm::StandardPpm>(spec.standard);
      m->train(sessions);
      out.predictor = std::move(m);
      break;
    }
    case ModelKind::kLrs: {
      auto m = std::make_unique<ppm::LrsPpm>(spec.lrs);
      m->train(sessions);
      out.predictor = std::move(m);
      break;
    }
    case ModelKind::kPopularity: {
      ppm::PbBase base(spec.pb, &out.popularity);
      base.insert(sessions);
      out.predictor = frozen::FrozenModel::open(base.emit());
      break;
    }
    case ModelKind::kTopN: {
      auto m = std::make_unique<ppm::TopNPredictor>(spec.top_n);
      m->train(sessions);
      out.predictor = std::move(m);
      break;
    }
  }
  return out;
}

sim::SimulationConfig apply_prefetch_policy(const sim::SimulationConfig& base,
                                            const ModelSpec& spec,
                                            bool enabled) {
  sim::SimulationConfig cfg = base;
  cfg.policy.enabled = enabled;
  cfg.policy.size_threshold_bytes = spec.size_threshold_bytes;
  return cfg;
}

const session::ClientClassification& cached_client_classes(
    const trace::Trace& trace) {
  struct Entry {
    // Cheap fingerprint so a rebuilt trace reusing the same address does
    // not serve a stale classification.
    std::size_t requests = 0;
    std::size_t clients = 0;
    std::size_t urls = 0;
    TimeSec first_ts = 0;
    TimeSec last_ts = 0;
    std::unique_ptr<session::ClientClassification> classes;
  };
  static std::mutex mu;
  static std::unordered_map<const trace::Trace*, Entry> cache;

  const TimeSec first_ts =
      trace.requests.empty() ? 0 : trace.requests.front().timestamp;
  const TimeSec last_ts =
      trace.requests.empty() ? 0 : trace.requests.back().timestamp;

  std::lock_guard lock(mu);
  auto& e = cache[&trace];
  if (!e.classes || e.requests != trace.requests.size() ||
      e.clients != trace.clients.size() || e.urls != trace.urls.size() ||
      e.first_ts != first_ts || e.last_ts != last_ts) {
    e.requests = trace.requests.size();
    e.clients = trace.clients.size();
    e.urls = trace.urls.size();
    e.first_ts = first_ts;
    e.last_ts = last_ts;
    e.classes = std::make_unique<session::ClientClassification>(
        session::classify_clients(trace));
  }
  return *e.classes;
}

DayEvalResult run_day_experiment(const trace::Trace& trace,
                                 const ModelSpec& spec,
                                 std::uint32_t train_days,
                                 const sim::SimulationConfig& sim_config) {
  assert(train_days >= 1);
  assert(train_days < trace.day_count());

  TrainedModel trained = train_model(spec, trace, 0, train_days - 1);
  const auto eval = trace.day_slice(train_days);
  const auto& classes = cached_client_classes(trace);

  DayEvalResult res;
  res.model = spec.label.empty() ? std::string(trained.predictor->name())
                                 : spec.label;
  res.train_days = train_days;
  res.node_count = trained.predictor->node_count();

  ppm::UsageScratch usage;
  sim::SimHooks hooks;
  hooks.usage = &usage;
  res.with_prefetch = sim::simulate_direct(
      trace, eval, *trained.predictor, trained.popularity, classes,
      apply_prefetch_policy(sim_config, spec, /*enabled=*/true), hooks);
  res.path_utilization = trained.predictor->path_usage(usage).rate();

  res.baseline = sim::simulate_direct(
      trace, eval, *trained.predictor, trained.popularity, classes,
      apply_prefetch_policy(sim_config, spec, /*enabled=*/false));
  res.latency_reduction = sim::latency_reduction(res.with_prefetch,
                                                 res.baseline);
  return res;
}

std::vector<DayEvalResult> parallel_day_sweep(
    const trace::Trace& trace, const ModelSpec& spec,
    std::uint32_t max_train_days, util::ThreadPool& pool,
    const sim::SimulationConfig& sim_config) {
  assert(max_train_days >= 1 && max_train_days < trace.day_count());
  std::vector<DayEvalResult> results(max_train_days);
  util::parallel_for(pool, max_train_days, [&](std::size_t i) {
    results[i] = run_day_experiment(
        trace, spec, static_cast<std::uint32_t>(i + 1), sim_config);
  });
  return results;
}

std::vector<ClientId> sample_active_browsers(const trace::Trace& trace,
                                             std::uint32_t day,
                                             std::size_t count,
                                             std::uint64_t seed) {
  const auto eval = trace.day_slice(day);
  const auto& classes = cached_client_classes(trace);
  // Browsers active on the eval day, in first-appearance order.
  std::vector<ClientId> active;
  std::vector<bool> seen(trace.clients.size(), false);
  for (const auto& r : eval) {
    if (!seen[r.client] && r.client < classes.is_proxy.size() &&
        !classes.is_proxy[r.client]) {
      seen[r.client] = true;
      active.push_back(r.client);
    }
  }
  // Deterministic Fisher-Yates, then take the first `count`.
  util::Rng rng(seed);
  for (std::size_t i = active.size(); i > 1; --i) {
    std::swap(active[i - 1], active[rng.below(i)]);
  }
  if (active.size() > count) active.resize(count);
  return active;
}

ProxyEvalResult evaluate_proxy_group(const trace::Trace& trace,
                                     const ModelSpec& spec,
                                     TrainedModel& trained,
                                     std::uint32_t eval_day,
                                     std::span<const ClientId> clients,
                                     const sim::SimulationConfig& sim_config) {
  ProxyEvalResult res;
  res.model = spec.label.empty() ? std::string(trained.predictor->name())
                                 : spec.label;
  res.client_count = clients.size();
  res.metrics = sim::simulate_proxy_group(
      trace, trace.day_slice(eval_day), *trained.predictor,
      trained.popularity, clients,
      apply_prefetch_policy(sim_config, spec, /*enabled=*/true));
  return res;
}

ProxyEvalResult run_proxy_experiment(const trace::Trace& trace,
                                     const ModelSpec& spec,
                                     std::uint32_t train_days,
                                     std::size_t client_count,
                                     std::uint64_t seed,
                                     const sim::SimulationConfig& sim_config) {
  assert(train_days >= 1 && train_days < trace.day_count());
  TrainedModel trained = train_model(spec, trace, 0, train_days - 1);
  const auto active =
      sample_active_browsers(trace, train_days, client_count, seed);
  return evaluate_proxy_group(trace, spec, trained, train_days, active,
                              sim_config);
}

}  // namespace webppm::core
