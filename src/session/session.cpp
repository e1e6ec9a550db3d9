#include "session/session.hpp"

#include <algorithm>
#include <cassert>
#include <unordered_map>

namespace webppm::session {

std::vector<Session> extract_sessions(std::span<const trace::Request> requests,
                                      const SessionizerOptions& opt) {
  // Open session per client; closed sessions accumulate in order of close.
  std::unordered_map<ClientId, Session> open;
  std::vector<Session> done;

  auto close = [&](Session& s) {
    if (!s.urls.empty()) done.push_back(std::move(s));
    s = Session{};
  };

  [[maybe_unused]] TimeSec prev_ts = 0;
  for (const auto& r : requests) {
    assert(r.timestamp >= prev_ts && "requests must be time-ordered");
    prev_ts = r.timestamp;
    if (opt.skip_errors && r.status >= 400) continue;

    auto& s = open[r.client];
    if (!s.urls.empty() && r.timestamp > s.end &&
        r.timestamp - s.end > opt.idle_timeout) {
      close(s);
    }
    if (s.urls.empty()) {
      s.client = r.client;
      s.start = r.timestamp;
    } else if (opt.dedup_consecutive && s.urls.back() == r.url) {
      s.end = r.timestamp;
      continue;
    }
    s.urls.push_back(r.url);
    s.end = r.timestamp;
  }
  for (auto& [client, s] : open) close(s);

  // Deterministic order: by (client, start).
  std::sort(done.begin(), done.end(), [](const Session& a, const Session& b) {
    return a.client != b.client ? a.client < b.client : a.start < b.start;
  });
  return done;
}

void IncrementalSessionizer::feed(std::span<const trace::Request> requests) {
  // Mirrors extract_sessions exactly, but `open_` and `prev_ts_` persist
  // across calls so the stream can arrive in chunks.
  for (const auto& r : requests) {
    assert(r.timestamp >= prev_ts_ && "requests must be time-ordered");
    prev_ts_ = r.timestamp;
    if (opt_.skip_errors && r.status >= 400) continue;

    auto& s = open_[r.client];
    if (!s.urls.empty() && r.timestamp > s.end &&
        r.timestamp - s.end > opt_.idle_timeout) {
      closed_.push_back(std::move(s));
      s = Session{};
    }
    if (s.urls.empty()) {
      s.client = r.client;
      s.start = r.timestamp;
    } else if (opt_.dedup_consecutive && s.urls.back() == r.url) {
      s.end = r.timestamp;
      continue;
    }
    s.urls.push_back(r.url);
    s.end = r.timestamp;
  }
}

void IncrementalSessionizer::settle_before(TimeSec next_ts) {
  // A session continues only while r.timestamp - end <= idle_timeout; with
  // every future timestamp >= next_ts, a session with
  // end + idle_timeout < next_ts is final.
  for (auto it = open_.begin(); it != open_.end();) {
    auto& s = it->second;
    if (!s.urls.empty() && s.end + opt_.idle_timeout < next_ts) {
      closed_.push_back(std::move(s));
      it = open_.erase(it);
    } else {
      ++it;
    }
  }
}

std::vector<Session> IncrementalSessionizer::open_snapshot() const {
  std::vector<Session> out;
  for (const auto& [client, s] : open_) {
    if (!s.urls.empty()) out.push_back(s);
  }
  return out;
}

ClientClassification classify_clients(const trace::Trace& trace,
                                      double requests_per_day_threshold) {
  ClientClassification out;
  out.is_proxy.assign(trace.clients.size(), false);
  std::vector<std::uint64_t> counts(trace.clients.size(), 0);
  for (const auto& r : trace.requests) ++counts[r.client];
  const double days = std::max<double>(1.0, trace.day_count());
  for (std::size_t c = 0; c < counts.size(); ++c) {
    const bool proxy =
        static_cast<double>(counts[c]) / days > requests_per_day_threshold;
    out.is_proxy[c] = proxy;
    if (counts[c] > 0) {
      if (proxy) {
        ++out.proxy_count;
      } else {
        ++out.browser_count;
      }
    }
  }
  return out;
}

SessionStats compute_session_stats(std::span<const Session> sessions) {
  SessionStats st;
  st.session_count = sessions.size();
  if (sessions.empty()) return st;
  std::vector<double> lengths;
  lengths.reserve(sessions.size());
  std::uint64_t short_count = 0;
  for (const auto& s : sessions) {
    st.click_count += s.length();
    lengths.push_back(static_cast<double>(s.length()));
    if (s.length() <= 9) ++short_count;
  }
  st.mean_length = static_cast<double>(st.click_count) /
                   static_cast<double>(st.session_count);
  std::sort(lengths.begin(), lengths.end());
  const auto idx = static_cast<std::size_t>(
      0.95 * static_cast<double>(lengths.size() - 1));
  st.p95_length = lengths[idx];
  st.frac_at_most_9 = static_cast<double>(short_count) /
                      static_cast<double>(st.session_count);
  return st;
}

}  // namespace webppm::session
