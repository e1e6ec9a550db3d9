// Access-session extraction (paper §1/§3.1): the requests of one client,
// split whenever the client is idle for more than 30 minutes. Sessions are
// the training unit for every prediction model.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "trace/record.hpp"
#include "util/types.hpp"

namespace webppm::session {

struct Session {
  ClientId client = 0;
  TimeSec start = 0;
  TimeSec end = 0;
  std::vector<UrlId> urls;  ///< page clicks, in order

  std::size_t length() const { return urls.size(); }
};

struct SessionizerOptions {
  /// Idle gap that starts a new session (paper: 30 minutes).
  TimeSec idle_timeout = 30 * 60;
  /// Collapse immediately repeated URLs (reload clicks) into one step.
  bool dedup_consecutive = true;
  /// Drop requests with HTTP status >= 400 (they were never delivered).
  bool skip_errors = true;
};

/// Extracts sessions from a page-level request stream. Requests must be in
/// non-decreasing timestamp order (Trace::finalize guarantees this).
/// Sessions are returned grouped by client, ordered by start time within a
/// client.
std::vector<Session> extract_sessions(std::span<const trace::Request> requests,
                                      const SessionizerOptions& opt = {});

/// Streaming counterpart of extract_sessions for growing prefix windows
/// (the day-sweep engine's "train on days 1..k" protocol): feed the trace
/// in time-ordered chunks (e.g. one day at a time). After any sequence of
/// feed() calls, closed() plus open_snapshot() is exactly the multiset
/// extract_sessions would return over everything fed so far — closed
/// sessions never change once emitted, so only the (few) sessions still
/// open at a window edge need per-window handling.
class IncrementalSessionizer {
 public:
  explicit IncrementalSessionizer(const SessionizerOptions& opt = {})
      : opt_(opt) {}

  /// Feeds the next chunk. Chunks must continue the non-decreasing
  /// timestamp order of everything fed before.
  void feed(std::span<const trace::Request> requests);

  /// Sessions closed so far, in order of close. Append-only: indices into
  /// this vector remain valid across feed() calls.
  const std::vector<Session>& closed() const { return closed_; }

  /// Moves the closed sessions out (in order of close) and resets the
  /// closed list, leaving open sessions untouched. The streaming consumer's
  /// counterpart to closed(): an online trainer absorbs each settled batch
  /// into its model and keeps (a bounded window of) the sessions itself,
  /// so the sessionizer never accumulates a whole day's history. Do not mix
  /// with closed()-index bookkeeping — indices restart at 0 after a take.
  std::vector<Session> take_closed() {
    std::vector<Session> out = std::move(closed_);
    closed_.clear();
    return out;
  }

  /// Sessions currently open (including empty placeholder slots created by
  /// skipped error requests). Cheap; open_snapshot() copies, this counts.
  std::size_t open_count() const { return open_.size(); }

  /// Copies of the currently open (non-empty) sessions — the sessions that
  /// would be force-closed if the stream ended here. Unordered.
  std::vector<Session> open_snapshot() const;

  /// Closes every open session that can no longer be extended, given that
  /// all future requests have timestamp >= next_ts: a session whose idle
  /// gap to next_ts already exceeds the timeout would be split by any
  /// future click anyway. Calling this at a day boundary (next_ts = start
  /// of the next day) keeps open_snapshot() down to the handful of
  /// sessions genuinely at risk of spanning the boundary, without changing
  /// the closed()+open_snapshot() multiset invariant.
  void settle_before(TimeSec next_ts);

 private:
  SessionizerOptions opt_;
  std::unordered_map<ClientId, Session> open_;
  std::vector<Session> closed_;
  TimeSec prev_ts_ = 0;
};

/// Browser/proxy classification (paper §2.2): a client issuing more than
/// `threshold` requests per day on average is considered a proxy.
struct ClientClassification {
  std::vector<bool> is_proxy;        ///< indexed by ClientId
  std::uint32_t proxy_count = 0;
  std::uint32_t browser_count = 0;
};

ClientClassification classify_clients(const trace::Trace& trace,
                                      double requests_per_day_threshold = 100.0);

/// Aggregate statistics over a set of sessions (used by the trace analyser
/// example and by the workload statistical tests).
struct SessionStats {
  std::uint64_t session_count = 0;
  std::uint64_t click_count = 0;
  double mean_length = 0.0;
  double p95_length = 0.0;
  /// Fraction of sessions with <= 9 clicks (paper: > 95%).
  double frac_at_most_9 = 0.0;
};

SessionStats compute_session_stats(std::span<const Session> sessions);

}  // namespace webppm::session
