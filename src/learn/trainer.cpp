#include "learn/trainer.hpp"

#include <algorithm>
#include <cassert>
#include <iterator>
#include <optional>
#include <utility>

#include "fault/fault.hpp"
#include "frozen/frozen.hpp"
#include "obs/trace_event.hpp"
#include "ppm/lrs_ppm.hpp"
#include "ppm/pb_base.hpp"
#include "ppm/standard_ppm.hpp"
#include "ppm/top_n.hpp"
#include "serve/frozen_snapshot.hpp"

namespace webppm::learn {
namespace {

std::size_t session_bytes(const session::Session& s) {
  return sizeof(session::Session) + s.urls.capacity() * sizeof(UrlId);
}

}  // namespace

// ---------------------------------------------------------------------------
// Shadow models: the trainer-private growing base, mirroring the sweep
// engine's incremental trainers (core/sweep.cpp) over the trainer's
// retained-session window instead of the engine's per-day caches. Both
// build every model the same way, which is what makes the convergence
// gate's byte-identity hold.

class ShadowModel {
 public:
  virtual ~ShadowModel() = default;

  /// `fresh`, sessions the sessionizer just closed, join the end of the
  /// window and are trained in (PB: under the grades its base holds).
  /// `counts` are the cumulative popularity counts: the first PB absorb
  /// creates the base under a table built from them.
  virtual void absorb(std::span<const session::Session> fresh,
                      const std::vector<std::uint32_t>& counts) = 0;

  /// Moves the model to `pop`, the table a publish carries. `window` is
  /// the retained window, which absorb() and evict() kept in step with
  /// the model; PB borrows the sessions it re-walks and puts them back.
  /// Returns how many sessions a PB regrade re-derived.
  virtual std::size_t regrade(const popularity::PopularityTable& pop,
                              std::span<session::Session> window) = 0;

  /// `evicted`, the oldest sessions of the window, leave it. PB retracts
  /// them, so its base holds exactly the window; the append-only shadows
  /// keep them until a rebuild.
  virtual void evict(std::span<const session::Session> evicted) = 0;

  /// Rebuilds the base from `window` alone — the decay path: history
  /// evicted from the retained window is forgotten. A model that already
  /// holds exactly its window (PB) has nothing to forget: it returns false.
  virtual bool rebuild(std::span<const session::Session> /*window*/) {
    return false;
  }

  /// Self-contained window model for publishing: the base with the open
  /// `tails` applied (and, for PB, the lossy pruning pass the base must
  /// never receive, in the frozen form PB serves in). The base itself ends
  /// as it began.
  virtual std::unique_ptr<ppm::Predictor> published_model(
      std::span<const session::Session> tails) = 0;

  virtual std::size_t storage_bytes() const = 0;
};

namespace {

/// Standard PPM, LRS PPM and Top-N: train_more() is an exact append, so
/// absorbing closed sessions incrementally equals batch training.
template <typename Model>
class AppendShadow final : public ShadowModel {
 public:
  explicit AppendShadow(Model base) : base_(std::move(base)), empty_(base_) {}

  void absorb(std::span<const session::Session> fresh,
              const std::vector<std::uint32_t>& /*counts*/) override {
    base_.train_more(fresh);
  }

  std::size_t regrade(const popularity::PopularityTable& /*pop*/,
                      std::span<session::Session> /*window*/) override {
    return 0;
  }

  void evict(std::span<const session::Session> /*evicted*/) override {}

  bool rebuild(std::span<const session::Session> window) override {
    base_ = empty_;
    base_.train_more(window);
    return true;
  }

  std::unique_ptr<ppm::Predictor> published_model(
      std::span<const session::Session> tails) override {
    auto copy = std::make_unique<Model>(base_);
    copy->train_more(tails);
    return copy;
  }

  std::size_t storage_bytes() const override { return base_.storage_bytes(); }

 private:
  Model base_;
  const Model empty_;  ///< untrained copy holding the config, for rebuilds
};

/// PB-PPM: a ppm::PbBase over exactly the retained window, reading grades
/// from a trainer-owned copy of the popularity table — the same recipe as
/// the sweep engine's PB trainer (core/sweep.cpp). Absorbed sessions are
/// inserted under the grades the base holds; a publish regrades the base
/// in place, and evicted sessions are retracted under the grades every
/// retained session is under.
///
/// The regrade re-walks only the sessions that hold a URL whose grade
/// moved. It finds them through an index from each URL to the retained
/// sessions that hold it: session k of the trainer's life (absorb order,
/// modulo 2^32) is posted once under each URL it holds, so each list is
/// in window order and eviction drops a prefix of it.
class PbShadow final : public ShadowModel {
 public:
  explicit PbShadow(const ppm::PopularityPpmConfig& config)
      : config_(config) {}

  void absorb(std::span<const session::Session> fresh,
              const std::vector<std::uint32_t>& counts) override {
    if (!base_) start(popularity::PopularityTable::from_counts(counts));
    base_->insert(fresh);
    for (const auto& s : fresh) {
      for (const UrlId u : s.urls) {
        if (u >= list_of_.size()) {
          list_of_.resize(std::size_t{u} + 1, kNoList);
        }
        if (list_of_[u] == kNoList) {
          list_of_[u] = static_cast<std::uint32_t>(lists_.size());
          lists_.emplace_back();
        }
        auto& list = lists_[list_of_[u]];
        if (list.empty() || list.back() != next_id_) list.push_back(next_id_);
      }
      ++next_id_;
    }
  }

  std::size_t regrade(const popularity::PopularityTable& pop,
                      std::span<session::Session> window) override {
    if (!base_) {  // nothing absorbed yet: the base starts at this table
      start(pop);
      return 0;
    }
    assert(window.size() == next_id_ - first_id_);
    // The sessions that hold a URL whose grade moved, in window order.
    // URLs without a list are in no session.
    std::vector<std::uint32_t> held;
    for (UrlId u = 0; u < list_of_.size(); ++u) {
      if (list_of_[u] == kNoList || pop_->grade(u) == pop.grade(u)) continue;
      for (const std::uint32_t id : lists_[list_of_[u]]) {
        held.push_back(id - first_id_);
      }
    }
    std::sort(held.begin(), held.end());
    held.erase(std::unique(held.begin(), held.end()), held.end());
    // PbBase::regrade reads a contiguous run of sessions: these move out
    // of the window and back, so no URL is copied.
    std::vector<session::Session> touched;
    touched.reserve(held.size());
    for (const std::uint32_t i : held) touched.push_back(std::move(window[i]));

    // The new table moves to owned storage first; the old one stays alive
    // until the regrade, which reads both, is done.
    auto next = std::make_unique<popularity::PopularityTable>(pop);
    const std::size_t regraded = base_->regrade(next.get(), touched);
    pop_ = std::move(next);
    for (std::size_t k = 0; k < held.size(); ++k) {
      window[held[k]] = std::move(touched[k]);
    }
    return regraded;
  }

  void evict(std::span<const session::Session> evicted) override {
    base_->retract(evicted);
    first_id_ += static_cast<std::uint32_t>(evicted.size());
    const std::uint32_t live = next_id_ - first_id_;
    for (const auto& s : evicted) {
      for (const UrlId u : s.urls) {
        auto& list = lists_[list_of_[u]];
        const auto kept =
            std::find_if(list.begin(), list.end(), [&](std::uint32_t id) {
              return id - first_id_ < live;
            });
        list.erase(list.begin(), kept);
      }
    }
  }

  std::unique_ptr<ppm::Predictor> published_model(
      std::span<const session::Session> tails) override {
    assert(base_ && "regrade() runs before every publish");
    base_->insert(tails);
    auto model = frozen::FrozenModel::open(base_->emit());
    base_->retract(tails);
    return model;
  }

  std::size_t storage_bytes() const override {
    std::size_t bytes = (base_ ? base_->memory_bytes() : 0) +
                        (pop_ ? pop_->memory_bytes() : 0) +
                        list_of_.capacity() * sizeof(std::uint32_t) +
                        lists_.capacity() * sizeof(lists_[0]);
    for (const auto& list : lists_) {
      bytes += list.capacity() * sizeof(std::uint32_t);
    }
    return bytes;
  }

 private:
  void start(popularity::PopularityTable pop) {
    pop_ = std::make_unique<popularity::PopularityTable>(std::move(pop));
    base_.emplace(config_, pop_.get());
  }

  ppm::PopularityPpmConfig config_;
  /// Heap-held so its address survives the swap a regrade makes.
  std::unique_ptr<popularity::PopularityTable> pop_;
  std::optional<ppm::PbBase> base_;  ///< unpruned; reads *pop_
  static constexpr std::uint32_t kNoList = ~std::uint32_t{0};
  /// URL id -> its entry in lists_, or kNoList: 4 B per URL id, as the
  /// base's root table and the trainer's counts pay.
  std::vector<std::uint32_t> list_of_;
  /// Ids of the retained sessions that hold a URL, in window order; one
  /// list per URL any absorbed session held.
  std::vector<std::vector<std::uint32_t>> lists_;
  std::uint32_t first_id_ = 0;  ///< id of the window's oldest session
  std::uint32_t next_id_ = 0;   ///< id the next absorbed session gets
};

std::unique_ptr<ShadowModel> make_shadow(
    const core::ModelSpec& spec) {
  switch (spec.kind) {
    case core::ModelKind::kStandard:
      return std::make_unique<AppendShadow<ppm::StandardPpm>>(
          ppm::StandardPpm(spec.standard));
    case core::ModelKind::kLrs:
      return std::make_unique<AppendShadow<ppm::LrsPpm>>(
          ppm::LrsPpm(spec.lrs));
    case core::ModelKind::kTopN:
      return std::make_unique<AppendShadow<ppm::TopNPredictor>>(
          ppm::TopNPredictor(spec.top_n));
    case core::ModelKind::kPopularity:
      return std::make_unique<PbShadow>(spec.pb);
  }
  return nullptr;  // unreachable
}

}  // namespace

// ---------------------------------------------------------------------------
// Trainer.

struct OnlineTrainer::Timing {
  obs::LogHistogram &publish_model, &publish_freeze, &publish_store,
      &publish_swap;
};

OnlineTrainer::Counters OnlineTrainer::register_counters(
    obs::MetricsRegistry& reg) {
  return Counters{
      reg.counter("webppm_learn_observations_total"),
      reg.counter("webppm_learn_publishes_total"),
      reg.counter("webppm_learn_publish_failures_total"),
      reg.counter("webppm_learn_store_failures_total"),
      reg.counter("webppm_learn_rebuilds_total"),
      reg.counter("webppm_learn_regraded_sessions_total"),
      reg.counter("webppm_learn_rejected_total"),
      reg.counter("webppm_learn_drift_republishes_total"),
      reg.gauge("webppm_learn_retained_sessions"),
      reg.gauge("webppm_learn_storage_bytes"),
      reg.gauge("webppm_learn_published_version"),
  };
}

OnlineTrainer::OnlineTrainer(serve::ModelServer& target,
                             OnlineTrainerConfig config)
    : target_(target),
      config_(std::move(config)),
      c_(register_counters(
          obs::attached_or_owned(config_.metrics, own_metrics_))),
      queue_(config_.queue_capacity,
             &obs::attached_or_owned(config_.metrics, own_metrics_)),
      sessionizer_(config_.session),
      shadow_(make_shadow(config_.spec)) {
  counts_.resize(config_.url_count_hint, 0);
  version_counter_ = target_.version();
  drift_epoch_handled_ = target_.drift_alert_epoch();
  if (config_.metrics != nullptr) {
    auto& reg = *config_.metrics;
    timing_ = std::make_unique<Timing>(Timing{
        reg.histogram("webppm_learn_publish_model_ns"),
        reg.histogram("webppm_learn_publish_freeze_ns"),
        reg.histogram("webppm_learn_publish_store_ns"),
        reg.histogram("webppm_learn_publish_swap_ns"),
    });
  }
}

OnlineTrainer::~OnlineTrainer() {
  detach();
  stop();
}

void OnlineTrainer::detach() {
  if (target_.observer() == &queue_) target_.attach_observer(nullptr);
}

std::size_t OnlineTrainer::step() {
  std::vector<Observation> batch;
  queue_.drain(batch);
  std::lock_guard lock(mu_);
  absorb_locked(batch);
  policy_after_batch_locked();
  return batch.size();
}

bool OnlineTrainer::publish_at(TimeSec settle_ts) {
  std::lock_guard lock(mu_);
  return publish_locked(settle_ts, PublishTrigger::kManual);
}

bool OnlineTrainer::publish_now() {
  std::lock_guard lock(mu_);
  return publish_locked(max_seen_ts_, PublishTrigger::kManual);
}

bool OnlineTrainer::start() {
  if (running_.exchange(true, std::memory_order_acq_rel)) return false;
  stopping_.store(false, std::memory_order_release);
  thread_ = std::thread([this] { trainer_main(); });
  return true;
}

void OnlineTrainer::stop() {
  if (!running_.load(std::memory_order_acquire)) return;
  stopping_.store(true, std::memory_order_release);
  queue_.close();  // wakes the thread; buffered observations stay drainable
  if (thread_.joinable()) thread_.join();
  running_.store(false, std::memory_order_release);
}

void OnlineTrainer::trainer_main() {
  std::vector<Observation> batch;
  const auto poll = std::chrono::milliseconds(
      std::max<std::uint64_t>(1, config_.poll_interval_ms));
  for (;;) {
    batch.clear();
    queue_.drain_wait(batch, poll);
    {
      std::lock_guard lock(mu_);
      absorb_locked(batch);
      policy_after_batch_locked();
    }
    // Exit only once the closed queue has been drained *dry*: stop()
    // closes the queue (guaranteeing no further pushes), but the close can
    // land while this thread is mid-absorb with another full batch already
    // buffered behind it — a stopping-flag check here would strand that
    // batch. An empty drain from a closed, empty queue cannot race a push.
    if (batch.empty() && queue_.closed() && queue_.size() == 0) break;
  }
}

void OnlineTrainer::absorb_locked(std::vector<Observation>& batch) {
  // A URL id indexes the popularity counts, so an unbounded id would let
  // any client size that table (and 2^32 - 1 wraps the size to zero): drop
  // such observations before they touch the counts, the clock or the
  // sessionizer.
  const std::size_t rejected = std::erase_if(
      batch, [](const Observation& o) { return o.url > kMaxTrainedUrl; });
  if (rejected != 0) c_.rejected.add(rejected);
  if (batch.empty()) return;

  // Concurrent query threads interleave their pushes, so a drained batch
  // can regress in time even though each thread pushed in order. The
  // stable sort restores a global timestamp order without reordering
  // equal-timestamp arrivals; anything still below the high-water mark
  // (straddling two drains) is clamped to it — per-client click order is
  // preserved either way, which is all sessionization needs.
  if (!std::is_sorted(batch.begin(), batch.end(),
                      [](const Observation& a, const Observation& b) {
                        return a.timestamp < b.timestamp;
                      })) {
    std::stable_sort(batch.begin(), batch.end(),
                     [](const Observation& a, const Observation& b) {
                       return a.timestamp < b.timestamp;
                     });
  }
  for (auto& o : batch) {
    if (o.timestamp < max_seen_ts_) o.timestamp = max_seen_ts_;
    max_seen_ts_ = o.timestamp;
  }

  if (!seen_any_) {
    seen_any_ = true;
    next_day_boundary_ =
        (batch.front().timestamp / kSecondsPerDay + 1) * kSecondsPerDay;
    last_publish_ts_ = batch.front().timestamp;
  }

  // Split the batch at publish boundaries *before* feeding: the offline
  // engine settles each day before seeing the next day's requests, and
  // feeding a post-boundary click first could close a session out of
  // order. The split keeps the sessionizer's operation history — and so
  // its closed-session order — identical to the oracle's.
  std::span<const Observation> rest(batch);
  while (config_.policy.day_boundaries && !rest.empty() &&
         rest.back().timestamp >= next_day_boundary_) {
    const auto split = std::lower_bound(
        rest.begin(), rest.end(), next_day_boundary_,
        [](const Observation& o, TimeSec b) { return o.timestamp < b; });
    const auto head_len = static_cast<std::size_t>(split - rest.begin());
    feed_locked(rest.subspan(0, head_len));
    publish_locked(next_day_boundary_, PublishTrigger::kDayBoundary);
    next_day_boundary_ += kSecondsPerDay;
    rest = rest.subspan(head_len);
  }
  feed_locked(rest);
}

void OnlineTrainer::feed_locked(std::span<const Observation> batch) {
  if (batch.empty()) return;
  for (const auto& o : batch) {
    // Popularity counts every request, errors included — the offline
    // table does (PopularityTable::build has no status filter), and the
    // paper's grades are access counts, not success counts.
    if (o.url >= counts_.size()) counts_.resize(o.url + 1, 0);
    ++counts_[o.url];
    sessionizer_.feed_one(o.timestamp, o.client, o.url, o.status);
  }
  since_publish_ += batch.size();
  c_.observations.add(batch.size());
  if (sessionizer_.closed().size() >= kAbsorbBatch) absorb_closed_locked();
}

void OnlineTrainer::absorb_closed_locked() {
  auto fresh = sessionizer_.take_closed();
  if (fresh.empty()) return;
  shadow_->absorb(fresh, counts_);
  for (const auto& s : fresh) retained_bytes_ += session_bytes(s);
  if (retained_.empty()) {
    // The first absorb of a catch-up can be tens of thousands of sessions:
    // taking the vector whole keeps a second copy off the peak.
    retained_ = std::move(fresh);
  } else {
    retained_.insert(retained_.end(), std::make_move_iterator(fresh.begin()),
                     std::make_move_iterator(fresh.end()));
  }
  // The oldest sessions past the cap leave the window, and a PB base
  // retracts them, here where they are absorbed.
  if (config_.max_retained_sessions != 0 &&
      retained_.size() > config_.max_retained_sessions) {
    const std::size_t excess =
        retained_.size() - config_.max_retained_sessions;
    shadow_->evict(std::span(retained_).first(excess));
    for (std::size_t i = 0; i < excess; ++i) {
      retained_bytes_ -= session_bytes(retained_[i]);
    }
    retained_.erase(retained_.begin(),
                    retained_.begin() + static_cast<std::ptrdiff_t>(excess));
  }
  c_.retained.set(static_cast<std::int64_t>(retained_.size()));
}

void OnlineTrainer::policy_after_batch_locked() {
  if (!seen_any_) return;
  const auto& p = config_.policy;
  if (p.interval_sec != 0 && since_publish_ != 0 &&
      max_seen_ts_ >= last_publish_ts_ + p.interval_sec) {
    publish_locked(max_seen_ts_, PublishTrigger::kInterval);
  }
  if (p.observation_threshold != 0 &&
      since_publish_ >= p.observation_threshold) {
    publish_locked(max_seen_ts_, PublishTrigger::kThreshold);
  }
  if (p.on_drift_alert) {
    const std::uint64_t epoch = target_.drift_alert_epoch();
    if (epoch > drift_epoch_handled_) {
      drift_epoch_handled_ = epoch;
      if (publish_locked(max_seen_ts_, PublishTrigger::kDriftAlert)) {
        c_.drift_republishes.add();
      }
    }
  }
}

bool OnlineTrainer::publish_locked(TimeSec settle_ts, PublishTrigger why) {
  // The fault fires before the publish settles anything: the sessionizer,
  // the retained window, the shadow base (with what earlier steps absorbed
  // into it) and the serving snapshot are exactly as they were, so the
  // next publish (covering a superset of this window) heals the gap — a
  // failed publish can never corrupt serving.
  if (WEBPPM_FAULT_INJECT("learn.publish")) {
    c_.publish_failures.add();
    obs::log_event(obs::Severity::kWarn, "learn.publish_failed",
                   "injected fault aborted publish at ts " +
                       std::to_string(settle_ts));
    return false;
  }

  // Stage timing for the publish histograms, with metrics attached only.
  const bool timed = timing_ != nullptr;
  std::uint64_t lap = timed ? obs::now_ns() : 0;
  const auto record_lap = [&lap](obs::LogHistogram& stage) {
    const std::uint64_t now = obs::now_ns();
    stage.record(now - lap);
    lap = now;
  };

  // The steps since the last publish absorbed what their feeds closed, in
  // batches; the settle closes what idled out before the boundary. The
  // base moves to the new grades before the sessions still waiting and
  // the settled ones join it under them.
  sessionizer_.settle_before(settle_ts);
  auto pop = popularity::PopularityTable::from_counts(counts_);
  const std::size_t regraded = shadow_->regrade(pop, retained_);
  if (regraded != 0) c_.regraded_sessions.add(regraded);
  absorb_closed_locked();

  if (config_.policy.rebuild_every_publishes != 0 &&
      ++publishes_since_rebuild_ >= config_.policy.rebuild_every_publishes) {
    publishes_since_rebuild_ = 0;
    if (shadow_->rebuild(retained_)) c_.rebuilds.add();
  }

  const auto tails = sessionizer_.open_snapshot();
  auto model = shadow_->published_model(tails);

  version_counter_ = std::max(version_counter_, target_.version()) + 1;
  auto snap = serve::make_snapshot(std::move(model), std::move(pop),
                                   version_counter_, config_.fallback_top_n);
  if (timed) record_lap(timing_->publish_model);
  // Top-N's only frozen form is popularity-only (it would degrade
  // serving), and a PB model is emitted frozen: its freeze passes it on.
  if (config_.freeze_published &&
      config_.spec.kind != core::ModelKind::kTopN) {
    if (config_.spec.kind != core::ModelKind::kPopularity) {
      snap = serve::freeze_snapshot(*snap, config_.fallback_top_n);
    }
    if (timed) record_lap(timing_->publish_freeze);
  }

  if (config_.store != nullptr) {
    const auto pr = config_.store->publish(*snap);
    if (!pr.ok) {
      // Durability lost, freshness kept: the in-memory publish proceeds
      // and the next successful store publish persists a newer window.
      c_.store_failures.add();
      obs::log_event(obs::Severity::kWarn, "learn.store_failed", pr.error);
    }
    if (timed) record_lap(timing_->publish_store);
  }
  target_.publish(snap);
  if (timed) record_lap(timing_->publish_swap);

  c_.version.set(static_cast<std::int64_t>(version_counter_));
  if (config_.metrics != nullptr) {
    // A scrape-only summary (the accessor computes its own): the byte
    // count walks the whole shadow base.
    c_.storage_bytes.set(static_cast<std::int64_t>(storage_bytes_locked()));
  }
  last_trigger_.store(why, std::memory_order_relaxed);
  c_.publishes.add();
  last_publish_ts_ = settle_ts;
  since_publish_ = 0;
  return true;
}

std::size_t OnlineTrainer::retained_sessions() const {
  std::lock_guard lock(mu_);
  return retained_.size();
}

std::size_t OnlineTrainer::open_sessions() const {
  std::lock_guard lock(mu_);
  return sessionizer_.open_count();
}

std::size_t OnlineTrainer::storage_bytes() const {
  std::lock_guard lock(mu_);
  return storage_bytes_locked();
}

std::size_t OnlineTrainer::storage_bytes_locked() const {
  return shadow_->storage_bytes() + retained_bytes_ +
         counts_.capacity() * sizeof(std::uint32_t) + queue_.memory_bytes();
}

}  // namespace webppm::learn
