#include "session/session.hpp"

#include <gtest/gtest.h>

namespace webppm::session {
namespace {

using trace::Method;
using trace::Request;
using trace::Trace;

struct Req {
  TimeSec t;
  const char* client;
  const char* url;
  std::uint16_t status = 200;
};

Trace make_trace(std::initializer_list<Req> reqs) {
  Trace t;
  for (const auto& q : reqs) {
    Request r;
    r.timestamp = q.t;
    r.client = t.clients.intern(q.client);
    r.url = t.urls.intern(q.url);
    r.size_bytes = 100;
    r.status = q.status;
    t.requests.push_back(r);
  }
  t.finalize();
  return t;
}

TEST(Sessionizer, SingleSession) {
  const Trace t = make_trace({{0, "c", "/a"}, {60, "c", "/b"}, {120, "c", "/c"}});
  const auto sessions = extract_sessions(t.requests);
  ASSERT_EQ(sessions.size(), 1u);
  EXPECT_EQ(sessions[0].length(), 3u);
  EXPECT_EQ(sessions[0].start, 0u);
  EXPECT_EQ(sessions[0].end, 120u);
}

TEST(Sessionizer, IdleTimeoutSplits) {
  const Trace t = make_trace({{0, "c", "/a"}, {1801, "c", "/b"}});
  const auto sessions = extract_sessions(t.requests);
  ASSERT_EQ(sessions.size(), 2u);
  EXPECT_EQ(sessions[0].urls.size(), 1u);
  EXPECT_EQ(sessions[1].urls.size(), 1u);
}

TEST(Sessionizer, ExactTimeoutDoesNotSplit) {
  // The paper says "idle for MORE than 30 minutes".
  const Trace t = make_trace({{0, "c", "/a"}, {1800, "c", "/b"}});
  const auto sessions = extract_sessions(t.requests);
  ASSERT_EQ(sessions.size(), 1u);
  EXPECT_EQ(sessions[0].length(), 2u);
}

TEST(Sessionizer, PerClientSeparation) {
  const Trace t = make_trace(
      {{0, "a", "/x"}, {1, "b", "/y"}, {2, "a", "/z"}, {3, "b", "/w"}});
  const auto sessions = extract_sessions(t.requests);
  ASSERT_EQ(sessions.size(), 2u);
  EXPECT_EQ(sessions[0].length(), 2u);
  EXPECT_EQ(sessions[1].length(), 2u);
  EXPECT_NE(sessions[0].client, sessions[1].client);
}

TEST(Sessionizer, DedupConsecutiveReloads) {
  const Trace t = make_trace(
      {{0, "c", "/a"}, {5, "c", "/a"}, {10, "c", "/b"}, {15, "c", "/a"}});
  const auto sessions = extract_sessions(t.requests);
  ASSERT_EQ(sessions.size(), 1u);
  ASSERT_EQ(sessions[0].length(), 3u);  // a, b, a — only the reload deduped
}

TEST(Sessionizer, DedupDisabled) {
  const Trace t = make_trace({{0, "c", "/a"}, {5, "c", "/a"}});
  SessionizerOptions opt;
  opt.dedup_consecutive = false;
  const auto sessions = extract_sessions(t.requests, opt);
  ASSERT_EQ(sessions.size(), 1u);
  EXPECT_EQ(sessions[0].length(), 2u);
}

TEST(Sessionizer, ErrorsSkipped) {
  const Trace t = make_trace(
      {{0, "c", "/a"}, {1, "c", "/missing", 404}, {2, "c", "/b"}});
  const auto sessions = extract_sessions(t.requests);
  ASSERT_EQ(sessions.size(), 1u);
  EXPECT_EQ(sessions[0].length(), 2u);
}

TEST(Sessionizer, ErrorsKeptWhenDisabled) {
  const Trace t = make_trace({{0, "c", "/a"}, {1, "c", "/missing", 404}});
  SessionizerOptions opt;
  opt.skip_errors = false;
  const auto sessions = extract_sessions(t.requests, opt);
  ASSERT_EQ(sessions.size(), 1u);
  EXPECT_EQ(sessions[0].length(), 2u);
}

TEST(Sessionizer, EmptyInput) {
  EXPECT_TRUE(extract_sessions({}).empty());
}

TEST(Sessionizer, DedupAcrossTimeoutBoundaryStillSplits) {
  // Same URL repeated after the timeout starts a fresh session rather than
  // being treated as a reload.
  const Trace t = make_trace({{0, "c", "/a"}, {5000, "c", "/a"}});
  const auto sessions = extract_sessions(t.requests);
  ASSERT_EQ(sessions.size(), 2u);
}

TEST(ClassifyClients, ThresholdSeparatesProxies) {
  Trace t;
  const auto browser = t.clients.intern("browser");
  const auto proxy = t.clients.intern("proxy");
  const auto url = t.urls.intern("/x");
  for (int i = 0; i < 5; ++i) {
    t.requests.push_back({static_cast<TimeSec>(i * 60), browser, url, 10, 200,
                          Method::kGet});
  }
  for (int i = 0; i < 300; ++i) {
    t.requests.push_back({static_cast<TimeSec>(i * 10), proxy, url, 10, 200,
                          Method::kGet});
  }
  t.finalize();
  const auto classes = classify_clients(t, 100.0);
  EXPECT_FALSE(classes.is_proxy[browser]);
  EXPECT_TRUE(classes.is_proxy[proxy]);
  EXPECT_EQ(classes.browser_count, 1u);
  EXPECT_EQ(classes.proxy_count, 1u);
}

TEST(ClassifyClients, AveragesOverDays) {
  Trace t;
  const auto c = t.clients.intern("c");
  const auto url = t.urls.intern("/x");
  // 150 requests spread over 2 days = 75/day < 100 threshold.
  for (int i = 0; i < 150; ++i) {
    t.requests.push_back({static_cast<TimeSec>(i * 1000), c, url, 10, 200,
                          Method::kGet});
  }
  t.finalize();
  ASSERT_EQ(t.day_count(), 2u);
  const auto classes = classify_clients(t, 100.0);
  EXPECT_FALSE(classes.is_proxy[c]);
}

TEST(SessionStats, BasicAggregates) {
  std::vector<Session> sessions(3);
  sessions[0].urls = {1, 2, 3};
  sessions[1].urls = {1};
  sessions[2].urls = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12};
  const auto st = compute_session_stats(sessions);
  EXPECT_EQ(st.session_count, 3u);
  EXPECT_EQ(st.click_count, 16u);
  EXPECT_NEAR(st.mean_length, 16.0 / 3.0, 1e-12);
  EXPECT_NEAR(st.frac_at_most_9, 2.0 / 3.0, 1e-12);
}

TEST(SessionStats, EmptyInput) {
  const auto st = compute_session_stats({});
  EXPECT_EQ(st.session_count, 0u);
  EXPECT_EQ(st.click_count, 0u);
}

}  // namespace
}  // namespace webppm::session
