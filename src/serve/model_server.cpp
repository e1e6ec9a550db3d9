#include "serve/model_server.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

#include "fault/fault.hpp"
#include "obs/trace_event.hpp"
#include "ppm/top_n.hpp"

namespace webppm::serve {
namespace {

/// Derives the snapshot's popularity-only fallback; null when the table is
/// empty (nothing to push).
std::unique_ptr<const ppm::Predictor> make_fallback(
    const popularity::PopularityTable& popularity, std::size_t top_n) {
  if (popularity.url_count() == 0 || popularity.max_accesses() == 0 ||
      top_n == 0) {
    return nullptr;
  }
  ppm::TopNConfig cfg;
  cfg.n = top_n;
  return std::make_unique<ppm::TopNPredictor>(
      ppm::TopNPredictor::from_popularity(popularity, cfg));
}

}  // namespace

std::shared_ptr<const Snapshot> make_snapshot(
    std::unique_ptr<ppm::Predictor> model,
    popularity::PopularityTable popularity, std::uint64_t version,
    std::size_t fallback_top_n) {
  assert(model != nullptr);
  auto snap = std::make_shared<Snapshot>();
  snap->popularity = std::move(popularity);
  snap->version = version;
  snap->model = std::move(model);
  snap->fallback = make_fallback(snap->popularity, fallback_top_n);
  return snap;
}

std::shared_ptr<const Snapshot> make_degraded_snapshot(
    popularity::PopularityTable popularity, std::uint64_t version,
    std::size_t fallback_top_n) {
  auto snap = std::make_shared<Snapshot>();
  snap->popularity = std::move(popularity);
  snap->version = version;
  snap->fallback = make_fallback(snap->popularity, fallback_top_n);
  return snap;
}

ModelServer::Counters ModelServer::register_counters(
    obs::MetricsRegistry& reg) {
  return Counters{
      reg.counter("webppm_serve_queries_total"),
      reg.counter("webppm_serve_publish_total"),
      reg.counter("webppm_serve_sessionizer_evictions_total"),
      reg.counter("webppm_serve_degraded_queries_total"),
      reg.counter("webppm_serve_degraded_shed_total"),
      reg.counter("webppm_serve_fault_query_rejected_total"),
      reg.counter("webppm_serve_degraded_transitions_total"),
      reg.counter("webppm_serve_observes_total"),
      reg.gauge("webppm_serve_snapshot_version"),
      reg.gauge("webppm_serve_snapshot_generations_live"),
      reg.gauge("webppm_serve_retired_snapshot_refs"),
      reg.gauge("webppm_serve_clients"),
      reg.gauge("webppm_serve_degraded_mode"),
      reg.gauge("webppm_serve_snapshot_bytes"),
  };
}

ModelServer::ModelServer(const ModelServerConfig& config)
    : config_(config),
      metrics_(obs::attached_or_owned(config_.metrics, own_metrics_)),
      c_(register_counters(metrics_)) {
  if (config_.shards == 0) config_.shards = 1;
  if (config_.latency_sample_every == 0) config_.latency_sample_every = 1;
  shards_.reserve(config_.shards);
  for (std::size_t i = 0; i < config_.shards; ++i) {
    shards_.push_back(std::make_unique<Shard>(config_));
  }
  if (config_.scoreboard.enabled) {
    sb_ = std::make_unique<Scoreboard>(config_.scoreboard, &metrics_);
    // Rings idle past the sessionizer's eviction horizon go with it; the
    // sweep itself clamps to >= the validity window, so sweep timing never
    // changes outcome counts (see Scoreboard::sweep).
    sb_sweep_horizon_ = config_.idle_eviction_factor > 0.0
                            ? static_cast<TimeSec>(
                                  static_cast<double>(
                                      config_.session.idle_timeout) *
                                  config_.idle_eviction_factor)
                            : sb_->options().window_sec;
  }
  if (config_.metrics != nullptr) {
    auto& reg = *config_.metrics;
    timing_ = std::make_unique<Timing>(Timing{
        reg.counter("webppm_serve_shard_lock_contended_total"),
        reg.histogram("webppm_serve_query_latency_ns"),
        reg.histogram("webppm_serve_shard_lock_wait_ns"),
    });
  }
}

void ModelServer::publish(std::shared_ptr<const Snapshot> snap) {
  WEBPPM_TRACE("serve.publish");
  const std::uint64_t version = snap ? snap->version : 0;
  const bool degraded_now = snap != nullptr && snap->degraded();
  const Snapshot* incoming = snap.get();
  auto old = snap_.exchange(std::move(snap));
  bool transitioned = false;
  {
    std::lock_guard lock(gen_mu_);
    // Republishing the current snapshot must not count it as retired.
    if (old != nullptr && old.get() != incoming) {
      retired_.push_back(old);
    }
    std::erase_if(retired_,
                  [](const auto& w) { return w.expired(); });
    if (degraded_now != degraded_mode_) {
      degraded_mode_ = degraded_now;
      transitioned = true;
    }
  }
  if (transitioned) {
    obs::log_event(degraded_now ? obs::Severity::kWarn : obs::Severity::kInfo,
                   "serve.degraded_mode",
                   degraded_now
                       ? "entered degraded mode: serving popularity "
                         "fallback (published snapshot has no full model)"
                       : "exited degraded mode: full model restored");
  }
  c_.publishes.add();
  c_.snapshot_version.set(static_cast<std::int64_t>(version));
  c_.degraded_mode.set(degraded_now ? 1 : 0);
  if (transitioned) c_.degraded_transitions.add();
  update_generation_metrics();
  // `old` destroyed here — a whole model, intentionally outside every lock.
}

void ModelServer::update_generation_metrics() {
  const std::size_t live = snapshot_generations_live();
  c_.generations_live.set(static_cast<std::int64_t>(live));
  c_.retired_refs.set(static_cast<std::int64_t>(retired_snapshot_refs()));
  if (live > 2) {
    obs::log_event(obs::Severity::kWarn, "serve.snapshot_generations_live",
                   std::to_string(live) +
                       " snapshot generations alive; in-flight queries or "
                       "leaked handles are pinning superseded models");
  }
}

std::size_t ModelServer::snapshot_generations_live() const {
  const bool has_current = snapshot() != nullptr;
  std::lock_guard lock(gen_mu_);
  std::size_t live = has_current ? 1 : 0;
  for (const auto& w : retired_) {
    if (!w.expired()) ++live;
  }
  return live;
}

std::size_t ModelServer::retired_snapshot_refs() const {
  std::lock_guard lock(gen_mu_);
  std::size_t refs = 0;
  for (const auto& w : retired_) {
    refs += static_cast<std::size_t>(w.use_count());
  }
  return refs;
}

std::shared_ptr<const Snapshot> ModelServer::snapshot() const {
  return snap_.load();
}

std::uint64_t ModelServer::version() const {
  const auto snap = snapshot();
  return snap ? snap->version : 0;
}

bool ModelServer::degraded() const {
  const auto snap = snapshot();
  return snap != nullptr && snap->degraded();
}

QueryResult ModelServer::query_ex(const trace::Request& r,
                                  std::vector<ppm::Prediction>& out) {
  thread_local BatchQueryScratch scratch;
  query_batch(std::span(&r, 1), scratch);
  // A batch of one: the pool holds exactly this request's predictions, so
  // a buffer swap hands them over without a copy.
  out.swap(scratch.predictions);
  return scratch.items[0].result;
}

void ModelServer::query_batch(std::span<const trace::Request> reqs,
                              BatchQueryScratch& scratch) {
  constexpr std::uint32_t kSkip = 0xffffffffu;
  const std::size_t n = reqs.size();

  // The training tap sees the raw stream first, the whole batch in one
  // call and in request order, before any admission filtering (see
  // RequestObserver — error and fault-refused requests are part of the log
  // the offline oracle trains on).
  if (RequestObserver* obs = observer(); obs != nullptr && n != 0) {
    obs->on_requests(reqs);
  }

  // One snapshot load per batch: it answers every request and labels every
  // result, refused or not, so no label can name a later publish.
  const auto snap = snapshot();
  scratch.snapshot_version = snap ? snap->version : 0;
  scratch.items.assign(
      n, BatchQueryItem{QueryResult{.snapshot_version =
                                        scratch.snapshot_version}});
  scratch.predictions.clear();

  // Pre-pass in request order: the skip-errors rule (the prefetching
  // server does not predict on failed requests) and the serve.query chaos
  // hook fire in exactly the sequence a per-request replay would (fault
  // plans like fail_nth count site evaluations, so evaluation order is the
  // determinism contract); everything admitted is assigned its context
  // shard. [lo, hi) is the range of shards the batch touches — every
  // per-shard loop below walks only that range, so a batch of one pays for
  // one shard, not all of them.
  auto& shard_index = scratch.shard_index;
  auto& shard_count = scratch.shard_count;
  shard_index.resize(n);
  shard_count.assign(shards_.size(), 0);
  auto lo = static_cast<std::uint32_t>(shards_.size());
  std::uint32_t hi = 0;
  std::uint64_t fault_rejected = 0;
  for (std::size_t i = 0; i < n; ++i) {
    shard_index[i] = kSkip;
    if (config_.session.skip_errors && reqs[i].status >= 400) continue;
    // Chaos hook: a scripted plan can refuse queries outright (overload
    // shedding at the front door) or inject latency. Disarmed this is one
    // relaxed load; WEBPPM_FAULT_DISABLED compiles it out entirely.
    if (WEBPPM_FAULT_INJECT("serve.query")) {
      ++fault_rejected;
      continue;
    }
    const auto s =
        static_cast<std::uint32_t>(shard_index_of(reqs[i].client));
    shard_index[i] = s;
    ++shard_count[s];
    lo = std::min(lo, s);
    hi = std::max(hi, s + 1);
  }
  if (fault_rejected != 0) c_.fault_rejected.add(fault_rejected);

  // Stable counting sort by shard: `order` lists the admitted request
  // indices grouped by shard with request order preserved inside each
  // group. A client's clicks all hash to one shard, so its sessionizer
  // observes them in exactly the sequence a sequential replay would.
  auto& order = scratch.order;
  auto& starts = scratch.shard_start;
  starts.resize(shards_.size() + 1);
  std::uint32_t total = 0;
  for (std::uint32_t s = lo; s < hi; ++s) {
    starts[s] = total;
    total += shard_count[s];
    shard_count[s] = starts[s];  // from here on: the shard's write cursor
  }
  starts[hi] = total;
  order.resize(total);
  for (std::size_t i = 0; i < n; ++i) {
    if (shard_index[i] != kSkip) {
      order[shard_count[shard_index[i]]++] = static_cast<std::uint32_t>(i);
    }
  }

  // One lock per touched shard per batch: observe every click bound for
  // the shard and copy the (<= window-length) contexts into the flat
  // scratch under the lock, then predict lock-free.
  auto& ctx_flat = scratch.ctx_flat;
  auto& ctx_begin = scratch.ctx_begin;
  auto& ctx_len = scratch.ctx_len;
  ctx_flat.clear();
  ctx_begin.resize(n);
  ctx_len.resize(n);
  std::uint64_t shed_total = 0;
  for (std::uint32_t s = lo; s < hi; ++s) {
    if (starts[s] == starts[s + 1]) continue;
    Shard& sh = *shards_[s];
    lock_shard(sh);
    std::lock_guard lock(sh.mu, std::adopt_lock);
    for (std::uint32_t k = starts[s]; k < starts[s + 1]; ++k) {
      const std::uint32_t i = order[k];
      bool shed = false;
      const auto view = sh.contexts.observe(reqs[i], &shed);
      ctx_begin[i] = static_cast<std::uint32_t>(ctx_flat.size());
      ctx_len[i] = static_cast<std::uint32_t>(view.size());
      ctx_flat.insert(ctx_flat.end(), view.begin(), view.end());
      if (shed) {
        scratch.items[i].result.shed = true;
        ++shed_total;
      }
    }
  }
  if (shed_total != 0) c_.shed.add(shed_total);

  // Full service needs both the model and an admitted context; a shed
  // client or a degraded (fallback-only) snapshot falls back to the
  // popularity push set — prefetching degrades, it does not stop.
  std::uint64_t predicted = 0;
  std::uint64_t degraded = 0;
  auto& preds_tmp = scratch.preds_tmp;
  for (std::size_t i = 0; i < n; ++i) {
    if (shard_index[i] == kSkip) continue;
    // Latency is sampled (default 1-in-64, attached registry only) so the
    // common path pays no clock reads; the counters stay exact. The cadence
    // advances once per admitted entry, however the requests are batched,
    // so every batching samples the same queries.
    const bool sample = timing_ != nullptr && sample_latency_now();
    if (snap == nullptr) continue;
    auto& item = scratch.items[i];
    const ppm::Predictor* predictor =
        (!item.result.shed && snap->model != nullptr) ? snap->model.get()
                                                      : snap->fallback.get();
    if (predictor == nullptr) continue;
    const std::span<const UrlId> ctx(ctx_flat.data() + ctx_begin[i],
                                     ctx_len[i]);
    // True per-entry predict time, clocked only when the sample fires (a
    // per-batch mean would flatten the tail out of the histogram).
    const std::uint64_t p0 = sample ? obs::now_ns() : 0;
    // Predictors clear their output vector: while the flat pool is empty
    // the answer lands in it directly (a batch of one copies nothing);
    // after that, predict into the tmp and append.
    auto& pool = scratch.predictions;
    item.first = static_cast<std::uint32_t>(pool.size());
    if (pool.empty()) {
      predictor->predict(ctx, pool);
    } else {
      predictor->predict(ctx, preds_tmp);
      pool.insert(pool.end(), preds_tmp.begin(), preds_tmp.end());
    }
    if (sample) timing_->query_latency.record(obs::now_ns() - p0);
    item.count = static_cast<std::uint32_t>(pool.size()) - item.first;
    item.result.predicted = true;
    item.result.served = predictor == snap->model.get() ? ServedBy::kModel
                                                        : ServedBy::kFallback;
    if (item.result.served == ServedBy::kFallback) ++degraded;
    ++predicted;
  }
  c_.queries.add(predicted);
  if (degraded != 0) c_.degraded_queries.add(degraded);

  // Scoreboard pass, re-taking each touched shard's lock after the
  // lock-free predict: score each request against its client's
  // outstanding ring, then record the predictions just issued. Ordering
  // matters — a prediction can never hit on the request that issued it.
  // Requests are walked in request order inside each group and clients
  // never span shards, so every client sees the sequence a per-request
  // replay would.
  if (sb_ != nullptr && sb_->scoring()) {
    const popularity::PopularityTable* pop =
        snap != nullptr ? &snap->popularity : nullptr;
    for (std::uint32_t s = lo; s < hi; ++s) {
      if (starts[s] == starts[s + 1]) continue;
      Shard& sh = *shards_[s];
      lock_shard(sh);
      std::lock_guard lock(sh.mu, std::adopt_lock);
      for (std::uint32_t k = starts[s]; k < starts[s + 1]; ++k) {
        const std::uint32_t i = order[k];
        const auto& item = scratch.items[i];
        sb_->observe(sh.sb, reqs[i].client, reqs[i].url, reqs[i].timestamp,
                     pop);
        if (item.result.predicted) {
          sb_->record(sh.sb, reqs[i].client, scratch.predictions_of(i),
                      reqs[i].timestamp, snap->version,
                      item.result.served == ServedBy::kFallback,
                      snap->popularity);
        }
      }
    }
  }
}

std::size_t ModelServer::client_count() const {
  std::size_t total = 0;
  for (const auto& sh : shards_) {
    std::lock_guard lock(sh->mu);
    total += sh->contexts.client_count();
  }
  return total;
}

std::size_t ModelServer::evict_idle(TimeSec now) {
  WEBPPM_TRACE("serve.evict_idle");
  std::size_t evicted = 0;
  for (const auto& sh : shards_) {
    std::lock_guard lock(sh->mu);
    evicted += sh->contexts.evict_idle(now);
    // Scoreboard rings ride the same sweep so an evicted client's
    // outstanding predictions score as expired instead of leaking. The
    // horizon is clamped >= the validity window inside sweep(), so sweep
    // timing never changes outcome counts.
    if (sb_ != nullptr) sb_->sweep(sh->sb, now, sb_sweep_horizon_);
  }
  return evicted;
}

std::size_t ModelServer::scoreboard_ring_count() const {
  if (sb_ == nullptr) return 0;
  std::size_t total = 0;
  for (const auto& sh : shards_) {
    std::lock_guard lock(sh->mu);
    total += sh->sb.ring_count();
  }
  return total;
}

void ModelServer::scoreboard_settle(TimeSec now) {
  if (sb_ == nullptr) return;
  for (const auto& sh : shards_) {
    std::lock_guard lock(sh->mu);
    sb_->settle_shard(sh->sb, now);
  }
}

std::string ModelServer::scoreboard_json() const {
  if (sb_ == nullptr) return "{}\n";
  return sb_->json_text(scoreboard_ring_count());
}

bool ModelServer::drift_alert() const {
  return sb_ != nullptr && sb_->drift().alert;
}

std::uint64_t ModelServer::drift_alert_epoch() const {
  return sb_ != nullptr ? sb_->drift_alert_epoch() : 0;
}

void ModelServer::observe(const trace::Request& r) {
  if (RequestObserver* obs = observer(); obs != nullptr) obs->on_request(r);
  c_.observes.add();
  // Error requests reach the observer (the log includes them) but never
  // touch session state — the same admission rule query_batch applies.
  if (config_.session.skip_errors && r.status >= 400) return;

  const auto snap = sb_ != nullptr ? snapshot() : nullptr;
  bool shed = false;
  {
    Shard& sh = *shards_[shard_index_of(r.client)];
    lock_shard(sh);
    std::lock_guard lock(sh.mu, std::adopt_lock);
    sh.contexts.observe(r, &shed);
    // An observed click is a real arrival: it can consume (hit) an
    // outstanding prediction issued by an earlier query. Nothing is
    // recorded — observe issues no predictions.
    if (sb_ != nullptr && sb_->scoring()) {
      sb_->observe(sh.sb, r.client, r.url, r.timestamp,
                   snap != nullptr ? &snap->popularity : nullptr);
    }
  }
  if (shed) c_.shed.add();
}

void ModelServer::refresh_gauges() {
  std::size_t clients = 0;
  std::uint64_t evicted = 0;
  std::size_t rings = 0;
  for (const auto& sh : shards_) {
    std::lock_guard lock(sh->mu);
    clients += sh->contexts.client_count();
    evicted += sh->contexts.evicted_total();
    rings += sh->sb.ring_count();
  }
  c_.clients.set(static_cast<std::int64_t>(clients));
  if (sb_ != nullptr) sb_->publish_metrics(rings);

  std::uint64_t evict_delta = 0;
  {
    std::lock_guard lock(gen_mu_);
    evict_delta = evicted - evictions_reported_;
    evictions_reported_ = evicted;
  }
  if (evict_delta != 0) c_.evictions.add(evict_delta);
  {
    const auto snap = snap_.load();
    c_.snapshot_version.set(
        snap == nullptr ? 0 : static_cast<std::int64_t>(snap->version));
    c_.degraded_mode.set(snap != nullptr && snap->degraded() ? 1 : 0);
    c_.snapshot_bytes.set(
        snap == nullptr ? 0
                        : static_cast<std::int64_t>(snap->storage_bytes()));
  }
  update_generation_metrics();
}

}  // namespace webppm::serve
