#include "learn/trainer.hpp"

#include <algorithm>
#include <iterator>
#include <utility>

#include "fault/fault.hpp"
#include "obs/trace_event.hpp"
#include "serve/frozen_snapshot.hpp"

namespace webppm::learn {
namespace {

std::size_t session_bytes(const session::Session& s) {
  return sizeof(session::Session) + s.urls.capacity() * sizeof(UrlId);
}

}  // namespace

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
      shadow_(core::IncrementalModel::make(config_.spec)) {
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
  auto model = shadow_->model(tails);

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
