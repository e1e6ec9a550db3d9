#include "core/sweep.hpp"

#include <cassert>
#include <chrono>
#include <string>
#include <utility>

#include "core/incremental_model.hpp"
#include "obs/trace_event.hpp"

namespace webppm::core {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

void record_seconds(obs::LogHistogram* h, double seconds) {
  if (h != nullptr && seconds >= 0.0) {
    h->record(static_cast<std::uint64_t>(seconds * 1e9));
  }
}

/// Grows `model` from window `from` to window `to`: moves it to window
/// `to`'s table over the window it holds, then absorbs the sessions that
/// closed in between. Returns the sessions a PB regrade re-walked.
std::size_t advance(const SweepEngine& eng, IncrementalModel& model,
                    std::uint32_t from, std::uint32_t to) {
  const std::size_t regraded =
      model.regrade(eng.window_popularity(to), eng.closed_through(from));
  model.absorb(eng.closed_delta(from, to), {});
  return regraded;
}

}  // namespace

// ---------------------------------------------------------------------------
// Engine.

SweepEngine::SweepEngine(const trace::Trace& trace,
                         const sim::SimulationConfig& sim_config,
                         util::ThreadPool* pool,
                         obs::MetricsRegistry* metrics)
    : trace_(trace), sim_config_(sim_config), pool_(pool) {
  if (metrics != nullptr) {
    ins_ = std::make_unique<Instruments>(Instruments{
        &metrics->counter("webppm_sweep_cells_total"),
        &metrics->counter("webppm_sweep_baseline_runs_total"),
        &metrics->counter("webppm_sweep_baseline_memo_hits_total"),
        &metrics->counter("webppm_sweep_pb_regraded_sessions_total"),
        &metrics->gauge("webppm_sweep_pool_queue_depth"),
        &metrics->histogram("webppm_sweep_train_cell_ns"),
        &metrics->histogram("webppm_sweep_eval_cell_ns"),
    });
  }
  WEBPPM_TRACE("sweep.prepare");
  const auto t0 = Clock::now();
  const std::uint32_t day_count = trace_.day_count();
  days_.resize(day_count);
  std::vector<std::uint32_t> counts(trace_.urls.size(), 0);
  for (std::uint32_t d = 0; d < day_count; ++d) {
    const auto slice = trace_.day_slice(d);
    sessionizer_.feed(slice);
    // Sessions idle since before (day end - timeout) are final — settle
    // them into closed() so the per-window tails hold only the few
    // sessions that could still span the boundary.
    sessionizer_.settle_before(static_cast<TimeSec>(d + 1) * kSecondsPerDay);
    days_[d].closed_end = sessionizer_.closed().size();
    days_[d].tails = sessionizer_.open_snapshot();
    // PopularityTable::build counts every request of the window (errors
    // included), so the cumulative per-day counts reproduce it exactly.
    for (const auto& r : slice) ++counts[r.url];
    days_[d].popularity = popularity::PopularityTable::from_counts(counts);
  }
  (void)cached_client_classes(trace_);  // charge the one-time cost here
  timings_.prepare_seconds += seconds_since(t0);
}

const session::ClientClassification& SweepEngine::classes() const {
  return cached_client_classes(trace_);
}

const popularity::PopularityTable& SweepEngine::window_popularity(
    std::uint32_t train_days) const {
  assert(train_days >= 1 && train_days <= days_.size());
  return days_[train_days - 1].popularity;
}

std::span<const session::Session> SweepEngine::closed_through(
    std::uint32_t train_days) const {
  return closed_delta(0, train_days);
}

std::span<const session::Session> SweepEngine::closed_delta(
    std::uint32_t from_days, std::uint32_t to_days) const {
  assert(from_days <= to_days && to_days <= days_.size());
  const std::size_t b = from_days == 0 ? 0 : days_[from_days - 1].closed_end;
  const std::size_t e = to_days == 0 ? 0 : days_[to_days - 1].closed_end;
  return std::span(sessionizer_.closed()).subspan(b, e - b);
}

std::span<const session::Session> SweepEngine::open_tails(
    std::uint32_t train_days) const {
  assert(train_days >= 1 && train_days <= days_.size());
  return days_[train_days - 1].tails;
}

const sim::Metrics& SweepEngine::baseline(std::uint32_t eval_day) {
  {
    std::lock_guard lock(mu_);
    if (const auto it = baselines_.find(eval_day); it != baselines_.end()) {
      ++timings_.baseline_memo_hits;
      if (ins_) ins_->baseline_memo_hits->add();
      return it->second;
    }
  }
  WEBPPM_TRACE("sweep.baseline");
  const auto t0 = Clock::now();
  sim::SimulationConfig cfg = sim_config_;
  cfg.policy.enabled = false;
  const auto metrics =
      sim::simulate_direct(trace_, trace_.day_slice(eval_day), baseline_dummy_,
                           empty_popularity_, classes(), cfg);
  const double dt = seconds_since(t0);

  std::lock_guard lock(mu_);
  timings_.simulate_seconds += dt;
  const auto [it, inserted] = baselines_.emplace(eval_day, metrics);
  if (inserted) {
    ++timings_.baseline_runs;
    if (ins_) ins_->baseline_runs->add();
  } else {
    ++timings_.baseline_memo_hits;  // raced with another thread; same result
    if (ins_) ins_->baseline_memo_hits->add();
  }
  return it->second;
}

DayEvalResult SweepEngine::evaluate_cell(const ModelSpec& spec,
                                         const ppm::Predictor& model,
                                         std::uint32_t train_days) {
  DayEvalResult res;
  res.model =
      spec.label.empty() ? std::string(model.name()) : spec.label;
  res.train_days = train_days;
  res.node_count = model.node_count();

  WEBPPM_TRACE("sweep.eval_cell");
  const auto t0 = Clock::now();
  ppm::UsageScratch usage;
  sim::SimHooks hooks;
  hooks.usage = &usage;
  res.with_prefetch = sim::simulate_direct(
      trace_, trace_.day_slice(train_days), model,
      window_popularity(train_days), classes(),
      apply_prefetch_policy(sim_config_, spec, /*enabled=*/true), hooks);
  res.path_utilization = model.path_usage(usage).rate();
  const double dt = seconds_since(t0);
  if (ins_) {
    ins_->cells->add();
    record_seconds(ins_->eval_cell, dt);
    if (pool_ != nullptr) {
      ins_->pool_queue_depth->set(
          static_cast<std::int64_t>(pool_->stats().queue_depth));
    }
  }
  {
    std::lock_guard lock(mu_);
    timings_.simulate_seconds += dt;
    ++timings_.cells;
  }

  res.baseline = baseline(train_days);
  res.latency_reduction =
      sim::latency_reduction(res.with_prefetch, res.baseline);
  return res;
}

std::vector<DayEvalResult> SweepEngine::sweep(const ModelSpec& spec,
                                              std::uint32_t max_train_days) {
  auto rows = sweep_models(std::span(&spec, 1), max_train_days);
  return std::move(rows.front());
}

std::vector<std::vector<DayEvalResult>> SweepEngine::sweep_models(
    std::span<const ModelSpec> specs, std::uint32_t max_train_days) {
  assert(max_train_days >= 1 && max_train_days < trace_.day_count());
  std::vector<std::vector<DayEvalResult>> results(specs.size());
  for (auto& rows : results) rows.resize(max_train_days);

  std::vector<std::unique_ptr<IncrementalModel>> models;
  models.reserve(specs.size());
  for (const auto& spec : specs) models.push_back(IncrementalModel::make(spec));
  std::vector<std::size_t> regraded(specs.size(), 0);

  if (pool_ == nullptr || pool_->thread_count() <= 1) {
    // Serial mode: interleave training and evaluation in place, each cell
    // borrowing its model — no copy unless a window has open tails (or the
    // model is PB, which emits).
    for (std::uint32_t k = 1; k <= max_train_days; ++k) {
      for (std::size_t s = 0; s < specs.size(); ++s) {
        WEBPPM_TRACE("sweep.train_cell");
        const auto t0 = Clock::now();
        regraded[s] += advance(*this, *models[s], k - 1, k);
        auto& model = models[s]->view(open_tails(k));
        const double dt = seconds_since(t0);
        if (ins_) record_seconds(ins_->train_cell, dt);
        {
          std::lock_guard lock(mu_);
          timings_.train_seconds += dt;
        }
        results[s][k - 1] = evaluate_cell(specs[s], model, k);
      }
    }
  } else {
    // Parallel mode: each model's incremental pass is sequential in k, but
    // models are independent of each other, as are the per-cell
    // simulations and the per-day baselines. Every model reads the
    // engine's one window and writes none of it. A cell simulates on an
    // owned model, except in the last window: the model is not advanced
    // again, so its cells borrow it (an append base with no tails is the
    // window model itself, so the biggest tree of the sweep is not
    // copied).
    const auto t0 = Clock::now();
    std::vector<std::vector<std::shared_ptr<const ppm::Predictor>>> snaps(
        specs.size());
    util::parallel_for(*pool_, specs.size(), [&](std::size_t s) {
      snaps[s].resize(max_train_days);
      for (std::uint32_t k = 1; k <= max_train_days; ++k) {
        WEBPPM_TRACE("sweep.train_cell");
        const auto tc = Clock::now();
        regraded[s] += advance(*this, *models[s], k - 1, k);
        const auto tails = open_tails(k);
        if (k < max_train_days) {
          snaps[s][k - 1] = models[s]->model(tails);
        } else {  // a non-owning alias of the borrowed model
          snaps[s][k - 1] = {std::shared_ptr<const ppm::Predictor>(),
                             &models[s]->view(tails)};
        }
        if (ins_) record_seconds(ins_->train_cell, seconds_since(tc));
      }
    });
    {
      std::lock_guard lock(mu_);
      timings_.train_seconds += seconds_since(t0);
    }
    util::parallel_for(*pool_, max_train_days, [&](std::size_t i) {
      (void)baseline(static_cast<std::uint32_t>(i) + 1);
    });
    util::parallel_for(
        *pool_, specs.size() * max_train_days, [&](std::size_t idx) {
          const std::size_t s = idx / max_train_days;
          const auto k = static_cast<std::uint32_t>(idx % max_train_days) + 1;
          // Take the cell's reference so an owned model's memory is
          // released as soon as its last cell finishes, not at end of sweep.
          const auto model = std::move(snaps[s][k - 1]);
          results[s][k - 1] = evaluate_cell(specs[s], *model, k);
        });
  }

  std::size_t total = 0;
  for (const std::size_t r : regraded) total += r;
  if (ins_ && total != 0) ins_->pb_regraded->add(total);
  std::lock_guard lock(mu_);
  timings_.pb_regraded_sessions += total;
  return results;
}

DayEvalResult SweepEngine::evaluate(const ModelSpec& spec,
                                    std::uint32_t train_days) {
  assert(train_days >= 1 && train_days < trace_.day_count());
  auto incremental = IncrementalModel::make(spec);
  const auto t0 = Clock::now();
  (void)advance(*this, *incremental, 0, train_days);
  auto& model = incremental->view(open_tails(train_days));
  const double dt = seconds_since(t0);
  if (ins_) record_seconds(ins_->train_cell, dt);
  {
    std::lock_guard lock(mu_);
    timings_.train_seconds += dt;
  }
  return evaluate_cell(spec, model, train_days);
}

std::vector<std::size_t> SweepEngine::node_count_sweep(
    const ModelSpec& spec, std::uint32_t max_train_days) {
  std::vector<std::size_t> out;
  visit_models(spec, max_train_days,
               [&out](std::uint32_t, const ppm::Predictor& model) {
                 out.push_back(model.node_count());
               });
  return out;
}

void SweepEngine::visit_models(
    const ModelSpec& spec, std::uint32_t max_train_days,
    const std::function<void(std::uint32_t, const ppm::Predictor&)>& visit) {
  assert(max_train_days >= 1 && max_train_days <= days_.size());
  auto model = IncrementalModel::make(spec);
  std::size_t regraded = 0;
  const auto t0 = Clock::now();
  for (std::uint32_t k = 1; k <= max_train_days; ++k) {
    regraded += advance(*this, *model, k - 1, k);
    visit(k, model->view(open_tails(k)));
  }
  const double dt = seconds_since(t0);
  std::lock_guard lock(mu_);
  timings_.train_seconds += dt;
  timings_.pb_regraded_sessions += regraded;
}

}  // namespace webppm::core
