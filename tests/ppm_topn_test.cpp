#include "ppm/top_n.hpp"

#include <gtest/gtest.h>

namespace webppm::ppm {
namespace {

session::Session make_session(std::vector<UrlId> urls) {
  session::Session s;
  s.urls = std::move(urls);
  return s;
}

std::vector<session::Session> train_data() {
  // url 1: 4 accesses, url 2: 3, url 3: 2, url 4: 1.
  return {make_session({1, 2, 3}), make_session({1, 2, 3}),
          make_session({1, 2}), make_session({1, 4})};
}

TEST(TopNPredictor, PushSetOrderedByFrequency) {
  TopNConfig cfg;
  cfg.n = 3;
  TopNPredictor m(cfg);
  m.train(train_data());
  ASSERT_EQ(m.push_set().size(), 3u);
  EXPECT_EQ(m.push_set()[0].url, 1u);
  EXPECT_EQ(m.push_set()[1].url, 2u);
  EXPECT_EQ(m.push_set()[2].url, 3u);
}

TEST(TopNPredictor, ProbabilitiesAreAccessShares) {
  TopNConfig cfg;
  cfg.n = 2;
  TopNPredictor m(cfg);
  m.train(train_data());  // 10 total clicks
  EXPECT_NEAR(m.push_set()[0].probability, 0.4, 1e-6);
  EXPECT_NEAR(m.push_set()[1].probability, 0.3, 1e-6);
}

TEST(TopNPredictor, PredictIgnoresContext) {
  TopNPredictor m({2});
  m.train(train_data());
  std::vector<Prediction> a, b;
  const UrlId ctx1[] = {1};
  const UrlId ctx2[] = {99, 98, 97};
  m.predict(ctx1, a);
  m.predict(ctx2, b);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.size(), 2u);
}

TEST(TopNPredictor, FewerUrlsThanN) {
  TopNPredictor m({10});
  m.train(train_data());
  EXPECT_EQ(m.push_set().size(), 4u);
  EXPECT_EQ(m.node_count(), 4u);
}

TEST(TopNPredictor, EmptyTraining) {
  TopNPredictor m;
  m.train({});
  std::vector<Prediction> out;
  const UrlId ctx[] = {1};
  m.predict(ctx, out);
  EXPECT_TRUE(out.empty());
}

TEST(TopNPredictor, TiesBreakByUrlId) {
  TopNPredictor m({2});
  const std::vector<session::Session> tied{make_session({5, 3})};
  m.train(tied);
  ASSERT_EQ(m.push_set().size(), 2u);
  EXPECT_EQ(m.push_set()[0].url, 3u);
  EXPECT_EQ(m.push_set()[1].url, 5u);
}

TEST(TopNPredictor, UsageSemantics) {
  TopNPredictor m({2});
  m.train(train_data());
  EXPECT_EQ(m.path_usage().used, 0u);
  EXPECT_EQ(m.path_usage().total, 2u);
  std::vector<Prediction> out;
  const UrlId ctx[] = {1};
  UsageScratch usage;
  m.predict(ctx, out, &usage);
  EXPECT_TRUE(usage.touched);
  EXPECT_EQ(m.path_usage(usage).used, 2u);
  EXPECT_EQ(m.path_usage().used, 0u);  // not yet folded in
  m.apply_usage(usage);
  EXPECT_EQ(m.path_usage().used, 2u);
  m.clear_usage();
  EXPECT_EQ(m.path_usage().used, 0u);
}

TEST(TopNPredictor, Retraining) {
  TopNPredictor m({1});
  m.train(train_data());
  EXPECT_EQ(m.push_set()[0].url, 1u);
  // Consecutive dedup happens upstream; TopN counts raw session clicks.
  const std::vector<session::Session> retrain{make_session({7, 7, 7})};
  m.train(retrain);
  EXPECT_EQ(m.push_set()[0].url, 7u);
}

TEST(TopNPredictor, FromPopularityKeepsOnlyThePushSet) {
  // Tied and zero counts over `urls` URLs; the fallback built from the
  // table must push exactly what a TopNPredictor trained on the same
  // counts pushes, and store the same bytes whatever the URL count.
  const auto build = [](std::size_t urls) {
    std::vector<std::uint32_t> counts(urls);
    std::vector<session::Session> sessions;
    for (UrlId u = 0; u < urls; ++u) {
      counts[u] = u % 5 == 0 ? 0 : 1 + (u * 37) % 11;
      sessions.push_back(make_session(std::vector<UrlId>(counts[u], u)));
    }
    TopNPredictor trained;
    trained.train(sessions);
    auto fallback = TopNPredictor::from_popularity(
        popularity::PopularityTable::from_counts(std::move(counts)));
    EXPECT_EQ(fallback.push_set(), trained.push_set());
    return fallback.storage_bytes();
  };
  EXPECT_EQ(build(100), build(10'000));
}

}  // namespace
}  // namespace webppm::ppm
