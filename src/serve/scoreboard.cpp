#include "serve/scoreboard.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace webppm::serve {
namespace {

std::string format_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

std::int64_t to_ppm(double fraction) {
  return static_cast<std::int64_t>(fraction * 1e6);
}

}  // namespace

// ---------------------------------------------------------------------------
// DriftWatch

void DriftWatch::record_outcome(bool hit) {
  const double v = hit ? 1.0 : 0.0;
  std::lock_guard lock(mu_);
  if (outcomes_ == 0) {
    p_short_ = p_long_ = v;
  } else {
    p_short_ += cfg_.short_alpha * (v - p_short_);
    p_long_ += cfg_.long_alpha * (v - p_long_);
  }
  ++outcomes_;
  update_alert_locked();
}

void DriftWatch::record_request(bool popular) {
  const double v = popular ? 1.0 : 0.0;
  std::lock_guard lock(mu_);
  if (requests_ == 0) {
    m_short_ = m_long_ = v;
  } else {
    m_short_ += cfg_.short_alpha * (v - m_short_);
    m_long_ += cfg_.long_alpha * (v - m_long_);
  }
  ++requests_;
  update_alert_locked();
}

void DriftWatch::update_alert_locked() {
  const double p_gap =
      outcomes_ >= cfg_.min_samples ? std::abs(p_short_ - p_long_) : 0.0;
  const double m_gap =
      requests_ >= cfg_.min_samples ? std::abs(m_short_ - m_long_) : 0.0;
  const bool alert = std::max(p_gap, m_gap) > cfg_.threshold;
  if (alert && !alert_) ++alert_epoch_;
  alert_ = alert;
}

std::uint64_t DriftWatch::alert_epoch() const {
  std::lock_guard lock(mu_);
  return alert_epoch_;
}

DriftWatch::State DriftWatch::state() const {
  State s;
  std::lock_guard lock(mu_);
  s.precision_short = p_short_;
  s.precision_long = p_long_;
  s.mass_short = m_short_;
  s.mass_long = m_long_;
  s.outcomes = outcomes_;
  s.requests = requests_;
  const double p_gap =
      outcomes_ >= cfg_.min_samples ? std::abs(p_short_ - p_long_) : 0.0;
  const double m_gap =
      requests_ >= cfg_.min_samples ? std::abs(m_short_ - m_long_) : 0.0;
  s.score = std::max(p_gap, m_gap);
  s.alert = s.score > cfg_.threshold;
  return s;
}

// ---------------------------------------------------------------------------
// Scoreboard

Scoreboard::Scoreboard(const ScoreboardOptions& opt,
                       obs::MetricsRegistry* metrics)
    : opt_(opt),
      scoring_(opt.scoring),
      drift_(DriftWatch::Config{opt.drift_short_alpha, opt.drift_long_alpha,
                                opt.drift_threshold,
                                opt.drift_min_samples}) {
  if (opt_.ring_capacity == 0) opt_.ring_capacity = 1;
  if (opt_.track_top_k == 0) opt_.track_top_k = 1;
  if (opt_.window_sec == 0) opt_.window_sec = 1;
  auto& reg = obs::attached_or_owned(metrics, own_metrics_);
  requests_ = &reg.counter("webppm_serve_scoreboard_requests_total");
  untracked_ = &reg.counter("webppm_serve_scoreboard_untracked_total");
  model_ = ClassCounters{
      &reg.counter("webppm_serve_scoreboard_issued_total"),
      &reg.counter("webppm_serve_scoreboard_hits_total"),
      &reg.counter("webppm_serve_scoreboard_expired_total"),
      &reg.counter("webppm_serve_scoreboard_evicted_total"),
      &reg.counter("webppm_serve_scoreboard_superseded_total"),
      &reg.counter("webppm_serve_scoreboard_unresolved_total"),
  };
  fallback_ = ClassCounters{
      &reg.counter("webppm_serve_scoreboard_fallback_issued_total"),
      &reg.counter("webppm_serve_scoreboard_fallback_hits_total"),
      &reg.counter("webppm_serve_scoreboard_fallback_expired_total"),
      &reg.counter("webppm_serve_scoreboard_fallback_evicted_total"),
      &reg.counter("webppm_serve_scoreboard_fallback_superseded_total"),
      &reg.counter("webppm_serve_scoreboard_fallback_unresolved_total"),
  };
  for (int g = 0; g < popularity::kGradeCount; ++g) {
    const std::string base =
        "webppm_serve_scoreboard_grade" + std::to_string(g);
    grade_issued_[static_cast<std::size_t>(g)] =
        &reg.counter(base + "_issued_total");
    grade_hits_[static_cast<std::size_t>(g)] =
        &reg.counter(base + "_hits_total");
  }
  hit_lag_ = &reg.histogram("webppm_serve_scoreboard_hit_lag_seconds");
  precision_gauge_ = &reg.gauge("webppm_serve_scoreboard_precision_ppm");
  usefulness_gauge_ = &reg.gauge("webppm_serve_scoreboard_usefulness_ppm");
  rings_gauge_ = &reg.gauge("webppm_serve_scoreboard_rings");
  drift_score_gauge_ = &reg.gauge("webppm_serve_drift_score_ppm");
  drift_alert_gauge_ = &reg.gauge("webppm_serve_drift_alert");
}

Scoreboard::VersionSlot& Scoreboard::slot_for(std::uint64_t version) {
  if (version == 0) return overflow_;
  for (auto& slot : version_slots_) {
    std::uint64_t cur = slot.version.load(std::memory_order_relaxed);
    if (cur == version) return slot;
    if (cur == 0) {
      if (slot.version.compare_exchange_strong(cur, version,
                                               std::memory_order_relaxed)) {
        return slot;
      }
      if (cur == version) return slot;  // lost the race to the same version
    }
  }
  return overflow_;
}

void Scoreboard::score_hit(const Entry& e, TimeSec now) {
  const auto& cls = e.fallback ? fallback_ : model_;
  cls.hits->add();
  if (!e.fallback) {
    grade_hits_[e.grade]->add();
    auto& slot = slot_for(e.version);
    slot.hits.fetch_add(1, std::memory_order_relaxed);
    hit_lag_->record(now - e.issued);
    drift_.record_outcome(true);
  }
}

void Scoreboard::score_miss(const Entry& e, bool expired) {
  const auto& cls = e.fallback ? fallback_ : model_;
  (expired ? cls.expired : cls.evicted)->add();
  if (!e.fallback) {
    slot_for(e.version).misses.fetch_add(1, std::memory_order_relaxed);
    drift_.record_outcome(false);
  }
}

void Scoreboard::score_superseded(const Entry& e) {
  const auto& cls = e.fallback ? fallback_ : model_;
  cls.superseded->add();
  if (!e.fallback) {
    slot_for(e.version).superseded.fetch_add(1, std::memory_order_relaxed);
  }
}

void Scoreboard::score_unresolved(const Entry& e) {
  (e.fallback ? fallback_ : model_).unresolved->add();
}

void Scoreboard::observe(ShardState& ss, ClientId client, UrlId url,
                         TimeSec now,
                         const popularity::PopularityTable* pop) {
  requests_->add();
  if (pop != nullptr) drift_.record_request(pop->is_popular(url));
  const auto it = ss.rings_.find(client);
  if (it == ss.rings_.end()) return;
  auto& ring = it->second;
  ring.last_seen = now;
  auto& entries = ring.entries;
  for (std::size_t i = 0; i < entries.size();) {
    if (entry_expired(entries[i], now)) {
      // Expiry wins over a late URL match: the prefetched copy would have
      // been dropped by the time the request arrived.
      score_miss(entries[i], /*expired=*/true);
      entries.erase(entries.begin() + static_cast<std::ptrdiff_t>(i));
    } else if (entries[i].url == url) {
      score_hit(entries[i], now);
      entries.erase(entries.begin() + static_cast<std::ptrdiff_t>(i));
    } else {
      ++i;
    }
  }
}

void Scoreboard::record(ShardState& ss, ClientId client,
                        std::span<const ppm::Prediction> preds, TimeSec now,
                        std::uint64_t version, bool fallback,
                        const popularity::PopularityTable& pop) {
  if (preds.empty()) return;
  const std::size_t k = std::min(preds.size(), opt_.track_top_k);
  auto it = ss.rings_.find(client);
  if (it == ss.rings_.end()) {
    if (opt_.max_rings_per_shard != 0 &&
        ss.rings_.size() >= opt_.max_rings_per_shard) {
      untracked_->add(k);
      return;
    }
    it = ss.rings_.emplace(client, ShardState::Ring{}).first;
    it->second.entries.reserve(opt_.ring_capacity);
  }
  auto& ring = it->second;
  ring.last_seen = now;
  for (std::size_t p = 0; p < k; ++p) {
    Entry entry;
    entry.url = preds[p].url;
    entry.issued = now;
    entry.version = version;
    entry.grade = static_cast<std::uint8_t>(pop.grade(preds[p].url));
    entry.fallback = fallback;

    const auto& cls = fallback ? fallback_ : model_;
    cls.issued->add();
    if (!fallback) {
      grade_issued_[entry.grade]->add();
      slot_for(version).issued.fetch_add(1, std::memory_order_relaxed);
    }

    // URL dedup: re-predicting an outstanding URL refreshes the entry
    // (the old one is neither right nor wrong — superseded).
    bool replaced = false;
    for (auto& e : ring.entries) {
      if (e.url == entry.url) {
        score_superseded(e);
        e = entry;
        replaced = true;
        break;
      }
    }
    if (replaced) continue;
    if (ring.entries.size() >= opt_.ring_capacity) {
      const Entry& oldest = ring.entries.front();
      score_miss(oldest, /*expired=*/entry_expired(oldest, now));
      ring.entries.erase(ring.entries.begin());
    }
    ring.entries.push_back(entry);
  }
}

std::size_t Scoreboard::sweep(ShardState& ss, TimeSec now, TimeSec horizon) {
  // Clamp: a ring idle past the horizon must hold only past-window entries
  // (issued <= last_seen), so sweep cadence never changes outcome counts.
  horizon = std::max(horizon, opt_.window_sec);
  std::size_t swept = 0;
  for (auto it = ss.rings_.begin(); it != ss.rings_.end();) {
    if (now > it->second.last_seen + horizon) {
      for (const auto& e : it->second.entries) {
        score_miss(e, /*expired=*/true);
      }
      it = ss.rings_.erase(it);
      ++swept;
    } else {
      ++it;
    }
  }
  return swept;
}

void Scoreboard::settle_shard(ShardState& ss, TimeSec now) {
  for (auto& [client, ring] : ss.rings_) {
    for (const auto& e : ring.entries) {
      if (entry_expired(e, now)) {
        score_miss(e, /*expired=*/true);
      } else {
        score_unresolved(e);
      }
    }
  }
  ss.rings_.clear();
}

ScoreboardTotals Scoreboard::totals() const {
  ScoreboardTotals t;
  t.requests = requests_->value();
  t.untracked = untracked_->value();
  const auto fill = [](const ClassCounters& c, ScoreboardCounts& out) {
    out.issued = c.issued->value();
    out.hits = c.hits->value();
    out.expired = c.expired->value();
    out.evicted = c.evicted->value();
    out.superseded = c.superseded->value();
    out.unresolved = c.unresolved->value();
  };
  fill(model_, t.model);
  fill(fallback_, t.fallback);
  for (std::size_t g = 0; g < popularity::kGradeCount; ++g) {
    t.grade_issued[g] = grade_issued_[g]->value();
    t.grade_hits[g] = grade_hits_[g]->value();
  }
  const auto add_slot = [&t](const VersionSlot& s, std::uint64_t version) {
    ScoreboardVersionRow row;
    row.version = version;
    row.issued = s.issued.load(std::memory_order_relaxed);
    row.hits = s.hits.load(std::memory_order_relaxed);
    row.misses = s.misses.load(std::memory_order_relaxed);
    row.superseded = s.superseded.load(std::memory_order_relaxed);
    if (row.issued != 0 || row.hits != 0 || row.misses != 0 ||
        row.superseded != 0) {
      t.versions.push_back(row);
    }
  };
  for (const auto& s : version_slots_) {
    const std::uint64_t v = s.version.load(std::memory_order_relaxed);
    if (v != 0) add_slot(s, v);
  }
  add_slot(overflow_, 0);
  std::sort(t.versions.begin(), t.versions.end(),
            [](const auto& a, const auto& b) { return a.version < b.version; });
  return t;
}

std::string Scoreboard::json_text(std::size_t rings) const {
  const auto t = totals();
  const auto d = drift_.state();
  const auto lag = hit_lag_->snapshot();

  std::string out;
  out.reserve(1024);
  const auto counts = [](const ScoreboardCounts& c) {
    std::string s = "{\"issued\": " + std::to_string(c.issued);
    s += ", \"hits\": " + std::to_string(c.hits);
    s += ", \"expired\": " + std::to_string(c.expired);
    s += ", \"evicted\": " + std::to_string(c.evicted);
    s += ", \"superseded\": " + std::to_string(c.superseded);
    s += ", \"unresolved\": " + std::to_string(c.unresolved);
    s += ", \"precision\": " + format_double(c.precision()) + "}";
    return s;
  };
  out += "{\n  \"requests\": " + std::to_string(t.requests);
  out += ",\n  \"rings\": " + std::to_string(rings);
  out += ",\n  \"scoring\": ";
  out += scoring() ? "true" : "false";
  out += ",\n  \"model\": " + counts(t.model);
  out += ",\n  \"fallback\": " + counts(t.fallback);
  out += ",\n  \"usefulness\": " + format_double(t.usefulness());
  out += ",\n  \"untracked\": " + std::to_string(t.untracked);
  out += ",\n  \"grades\": [";
  for (std::size_t g = 0; g < popularity::kGradeCount; ++g) {
    if (g != 0) out += ", ";
    out += "{\"grade\": " + std::to_string(g);
    out += ", \"issued\": " + std::to_string(t.grade_issued[g]);
    out += ", \"hits\": " + std::to_string(t.grade_hits[g]) + "}";
  }
  out += "]";
  out += ",\n  \"versions\": [";
  for (std::size_t i = 0; i < t.versions.size(); ++i) {
    const auto& row = t.versions[i];
    if (i != 0) out += ", ";
    out += "{\"version\": " + std::to_string(row.version);
    out += ", \"issued\": " + std::to_string(row.issued);
    out += ", \"hits\": " + std::to_string(row.hits);
    out += ", \"misses\": " + std::to_string(row.misses);
    out += ", \"superseded\": " + std::to_string(row.superseded) + "}";
  }
  out += "]";
  out += ",\n  \"hit_lag_seconds\": {\"count\": " + std::to_string(lag.count);
  out += ", \"mean\": " + format_double(lag.mean());
  out += ", \"p50\": " + format_double(lag.quantile(0.50));
  out += ", \"p90\": " + format_double(lag.quantile(0.90));
  out += ", \"p99\": " + format_double(lag.quantile(0.99));
  out += ", \"max\": " + std::to_string(lag.max) + "}";
  out += ",\n  \"drift\": {\"score\": " + format_double(d.score);
  out += ", \"alert\": ";
  out += d.alert ? "true" : "false";
  out += ", \"precision_short\": " + format_double(d.precision_short);
  out += ", \"precision_long\": " + format_double(d.precision_long);
  out += ", \"head_mass_short\": " + format_double(d.mass_short);
  out += ", \"head_mass_long\": " + format_double(d.mass_long);
  out += ", \"outcomes\": " + std::to_string(d.outcomes);
  out += ", \"requests\": " + std::to_string(d.requests) + "}";
  out += "\n}\n";
  return out;
}

void Scoreboard::publish_metrics(std::size_t rings) {
  const auto t = totals();
  const auto d = drift_.state();
  precision_gauge_->set(to_ppm(t.model.precision()));
  usefulness_gauge_->set(to_ppm(t.usefulness()));
  rings_gauge_->set(static_cast<std::int64_t>(rings));
  drift_score_gauge_->set(to_ppm(d.score));
  drift_alert_gauge_->set(d.alert ? 1 : 0);
}

}  // namespace webppm::serve
