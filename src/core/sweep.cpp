#include "core/sweep.hpp"

#include <cassert>
#include <chrono>
#include <cmath>
#include <optional>
#include <string>
#include <utility>

#include "frozen/frozen.hpp"
#include "obs/trace_event.hpp"
#include "ppm/pb_base.hpp"

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

// ---------------------------------------------------------------------------
// Per-model incremental trainers.
//
// A trainer owns one growing base model trained on the *closed* sessions of
// the current window (sessions still open at the window edge would be
// re-fed in extended form by the next day, so they never enter the base).
// advance(k) appends the closed sessions of the newly covered days;
// eval_predictor/snapshot produce the exact window-k model by applying the
// open tails — on the base itself when there are none (the common case:
// the synthetic workloads never span midnight), on a copy otherwise (PB
// inserts them into its base for the emit and retracts them after).

class ModelTrainer {
 public:
  ModelTrainer(const SweepEngine& eng, const ModelSpec& spec)
      : eng_(eng), spec_(spec) {}
  virtual ~ModelTrainer() = default;

  ModelTrainer(const ModelTrainer&) = delete;
  ModelTrainer& operator=(const ModelTrainer&) = delete;

  /// Grows the base to cover window k (train_days = k). Calls must use
  /// non-decreasing k.
  virtual void advance(std::uint32_t k) = 0;

  /// Borrowed read-only predictor evaluating window k; valid until the next
  /// advance/eval_predictor call on this trainer.
  virtual const ppm::Predictor& eval_predictor(std::uint32_t k) = 0;

  /// Self-contained window-k model for parallel simulation. Shared and
  /// const: the query path never mutates, so simulation cells reference the
  /// snapshot instead of each holding a private copy. With `last` set the
  /// trainer will not be advanced again, so a trainer whose base already
  /// *is* the window-k model may return a non-owning alias of it — the one
  /// copy that used to hurt (the largest window) is skipped entirely.
  virtual std::shared_ptr<const ppm::Predictor> snapshot(std::uint32_t k,
                                                         bool last) = 0;

  /// PB sessions that held a URL whose grade moved, summed over regrades
  /// (0 for other models).
  std::size_t pb_regraded() const { return pb_regraded_; }

 protected:
  const SweepEngine& eng_;
  ModelSpec spec_;
  std::uint32_t trained_ = 0;  ///< window the base currently covers
  std::size_t pb_regraded_ = 0;
};

/// Standard PPM, LRS PPM and Top-N all expose an exact train_more() append
/// path, so one trainer template covers them.
template <typename Model>
class AppendTrainer final : public ModelTrainer {
 public:
  AppendTrainer(const SweepEngine& eng, const ModelSpec& spec, Model base)
      : ModelTrainer(eng, spec), base_(std::move(base)) {}

  void advance(std::uint32_t k) override {
    assert(k >= trained_);
    base_.train_more(eng_.closed_delta(trained_, k));
    trained_ = k;
  }

  const ppm::Predictor& eval_predictor(std::uint32_t k) override {
    assert(k == trained_);
    const auto tails = eng_.open_tails(k);
    if (tails.empty()) {
      holder_.reset();
      return base_;
    }
    holder_ = std::make_unique<Model>(base_);
    holder_->train_more(tails);
    return *holder_;
  }

  std::shared_ptr<const ppm::Predictor> snapshot(std::uint32_t k,
                                                 bool last) override {
    assert(k == trained_);
    const auto tails = eng_.open_tails(k);
    if (last && tails.empty()) {
      // The base is exactly the window-k model and will never be advanced
      // again: alias it instead of copying the biggest tree of the sweep.
      return {std::shared_ptr<const ppm::Predictor>(), &base_};
    }
    auto copy = std::make_shared<Model>(base_);
    copy->train_more(tails);
    return copy;
  }

 private:
  Model base_;
  std::unique_ptr<Model> holder_;
};

/// PB-PPM: one PbBase over the window's closed sessions, reading the
/// current window's popularity table. Advancing a day regrades the base to
/// the new table (only branches next to a URL whose grade moved are
/// re-walked) and inserts the day's closed sessions. Each sweep point
/// emits the pruned model, frozen, with the open tails inserted for the
/// emit and retracted after it.
class PbTrainer final : public ModelTrainer {
 public:
  PbTrainer(const SweepEngine& eng, const ModelSpec& spec)
      : ModelTrainer(eng, spec) {}

  void advance(std::uint32_t k) override {
    assert(k >= trained_);
    const auto& pop = eng_.window_popularity(k);
    if (!base_) {
      base_.emplace(spec_.pb, &pop);
      base_->insert(eng_.closed_through(k));
    } else {
      pb_regraded_ += base_->regrade(&pop, eng_.closed_through(trained_));
      base_->insert(eng_.closed_delta(trained_, k));
    }
    trained_ = k;
  }

  const ppm::Predictor& eval_predictor(std::uint32_t k) override {
    holder_ = emit(k);
    return *holder_;
  }

  std::shared_ptr<const ppm::Predictor> snapshot(std::uint32_t k,
                                                 bool /*last*/) override {
    return emit(k);
  }

 private:
  std::shared_ptr<const ppm::Predictor> emit(std::uint32_t k) {
    assert(k == trained_);
    const auto tails = eng_.open_tails(k);
    base_->insert(tails);
    std::shared_ptr<const ppm::Predictor> model =
        frozen::FrozenModel::open(base_->emit());
    base_->retract(tails);
    return model;
  }

  std::optional<ppm::PbBase> base_;
  std::shared_ptr<const ppm::Predictor> holder_;
};

std::unique_ptr<ModelTrainer> make_trainer(const SweepEngine& eng,
                                           const ModelSpec& spec) {
  switch (spec.kind) {
    case ModelKind::kStandard:
      return std::make_unique<AppendTrainer<ppm::StandardPpm>>(
          eng, spec, ppm::StandardPpm(spec.standard));
    case ModelKind::kLrs:
      return std::make_unique<AppendTrainer<ppm::LrsPpm>>(
          eng, spec, ppm::LrsPpm(spec.lrs));
    case ModelKind::kTopN:
      return std::make_unique<AppendTrainer<ppm::TopNPredictor>>(
          eng, spec, ppm::TopNPredictor(spec.top_n));
    case ModelKind::kPopularity:
      return std::make_unique<PbTrainer>(eng, spec);
  }
  return nullptr;  // unreachable
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

  std::vector<std::unique_ptr<ModelTrainer>> trainers;
  trainers.reserve(specs.size());
  for (const auto& spec : specs) trainers.push_back(make_trainer(*this, spec));

  if (pool_ == nullptr || pool_->thread_count() <= 1) {
    // Serial mode: interleave training and evaluation in place — no model
    // snapshots unless a window has open tails (or the model is PB, whose
    // pruning must not touch the base).
    for (std::uint32_t k = 1; k <= max_train_days; ++k) {
      for (std::size_t s = 0; s < specs.size(); ++s) {
        WEBPPM_TRACE("sweep.train_cell");
        const auto t0 = Clock::now();
        trainers[s]->advance(k);
        auto& model = trainers[s]->eval_predictor(k);
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
    // simulations (each runs on an owned snapshot) and the per-day
    // baselines.
    const auto t0 = Clock::now();
    std::vector<std::vector<std::shared_ptr<const ppm::Predictor>>> snaps(
        specs.size());
    util::parallel_for(*pool_, specs.size(), [&](std::size_t s) {
      snaps[s].resize(max_train_days);
      for (std::uint32_t k = 1; k <= max_train_days; ++k) {
        WEBPPM_TRACE("sweep.train_cell");
        const auto tc = Clock::now();
        trainers[s]->advance(k);
        snaps[s][k - 1] = trainers[s]->snapshot(k, k == max_train_days);
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
          // Take the cell's reference so the snapshot's memory is released
          // as soon as its last cell finishes, not at end of sweep.
          const auto model = std::move(snaps[s][k - 1]);
          results[s][k - 1] = evaluate_cell(specs[s], *model, k);
        });
  }

  std::size_t regraded = 0;
  for (const auto& t : trainers) regraded += t->pb_regraded();
  if (ins_ && regraded != 0) ins_->pb_regraded->add(regraded);
  std::lock_guard lock(mu_);
  timings_.pb_regraded_sessions += regraded;
  return results;
}

DayEvalResult SweepEngine::evaluate(const ModelSpec& spec,
                                    std::uint32_t train_days) {
  assert(train_days >= 1 && train_days < trace_.day_count());
  auto trainer = make_trainer(*this, spec);
  const auto t0 = Clock::now();
  trainer->advance(train_days);
  auto& model = trainer->eval_predictor(train_days);
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
  auto trainer = make_trainer(*this, spec);
  const auto t0 = Clock::now();
  for (std::uint32_t k = 1; k <= max_train_days; ++k) {
    trainer->advance(k);
    visit(k, trainer->eval_predictor(k));
  }
  const double dt = seconds_since(t0);
  std::lock_guard lock(mu_);
  timings_.train_seconds += dt;
  timings_.pb_regraded_sessions += trainer->pb_regraded();
}

TrainedModel SweepEngine::train(const ModelSpec& spec,
                                std::uint32_t train_days) {
  assert(train_days >= 1 && train_days <= days_.size());
  const auto t0 = Clock::now();
  const auto closed = closed_through(train_days);
  const auto tails = open_tails(train_days);

  TrainedModel out;
  out.popularity = window_popularity(train_days);
  out.training_sessions = closed.size() + tails.size();
  out.training_requests = trace_.day_range(0, train_days - 1).size();

  switch (spec.kind) {
    case ModelKind::kStandard: {
      auto m = std::make_unique<ppm::StandardPpm>(spec.standard);
      m->train(closed);
      m->train_more(tails);
      out.predictor = std::move(m);
      break;
    }
    case ModelKind::kLrs: {
      auto m = std::make_unique<ppm::LrsPpm>(spec.lrs);
      m->train(closed);
      m->train_more(tails);
      out.predictor = std::move(m);
      break;
    }
    case ModelKind::kPopularity: {
      ppm::PbBase base(spec.pb, &out.popularity);
      base.insert(closed);
      base.insert(tails);
      out.predictor = frozen::FrozenModel::open(base.emit());
      break;
    }
    case ModelKind::kTopN: {
      auto m = std::make_unique<ppm::TopNPredictor>(spec.top_n);
      m->train(closed);
      m->train_more(tails);
      out.predictor = std::move(m);
      break;
    }
  }

  const double dt = seconds_since(t0);
  std::lock_guard lock(mu_);
  timings_.train_seconds += dt;
  return out;
}

}  // namespace webppm::core
