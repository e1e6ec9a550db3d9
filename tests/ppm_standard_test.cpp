#include "ppm/standard_ppm.hpp"

#include <gtest/gtest.h>

namespace webppm::ppm {
namespace {

session::Session make_session(std::vector<UrlId> urls) {
  session::Session s;
  s.urls = std::move(urls);
  return s;
}

std::vector<session::Session> sessions(
    std::initializer_list<std::vector<UrlId>> seqs) {
  std::vector<session::Session> out;
  for (auto& s : seqs) out.push_back(make_session(s));
  return out;
}

TEST(StandardPpm, Figure1LeftNodeCount) {
  // Paper Fig. 1 (left): sequence A B C with height 3 yields branches
  // A->B->C, B->C, C  => 6 nodes.
  StandardPpmConfig cfg;
  cfg.max_height = 3;
  StandardPpm m(cfg);
  m.train(sessions({{1, 2, 3}}));
  EXPECT_EQ(m.node_count(), 6u);
  EXPECT_EQ(m.tree().root_count(), 3u);
}

TEST(StandardPpm, HeightCapLimitsBranchLength) {
  StandardPpmConfig cfg;
  cfg.max_height = 2;
  StandardPpm m(cfg);
  m.train(sessions({{1, 2, 3, 4}}));
  // Branches: 1->2, 2->3, 3->4, 4  => 7 nodes.
  EXPECT_EQ(m.node_count(), 7u);
  const UrlId deep[] = {1, 2, 3};
  EXPECT_EQ(m.tree().find_path(deep), kNoNode);
}

TEST(StandardPpm, UnboundedInsertsAllSuffixWindows) {
  StandardPpm m;  // unbounded
  m.train(sessions({{1, 2, 3}}));
  // 1->2->3 (3 nodes), 2->3 (2), 3 (1) = 6 nodes.
  EXPECT_EQ(m.node_count(), 6u);
  const UrlId full[] = {1, 2, 3};
  EXPECT_NE(m.tree().find_path(full), kNoNode);
}

TEST(StandardPpm, RepeatedSequenceIncrementsCounts) {
  StandardPpm m;
  m.train(sessions({{1, 2}, {1, 2}, {1, 3}}));
  const auto root = m.tree().find_root(1);
  ASSERT_NE(root, kNoNode);
  EXPECT_EQ(m.tree().node(root).count, 3u);
  const auto b = m.tree().find_child(root, 2);
  ASSERT_NE(b, kNoNode);
  EXPECT_EQ(m.tree().node(b).count, 2u);
}

TEST(StandardPpm, PredictsMostLikelyNext) {
  StandardPpm m;
  m.train(sessions({{1, 2}, {1, 2}, {1, 2}, {1, 3}}));
  std::vector<Prediction> out;
  const UrlId ctx[] = {1};
  m.predict(ctx, out);
  ASSERT_EQ(out.size(), 2u);  // 2 at 0.75, 3 at 0.25 (>= threshold)
  EXPECT_EQ(out[0].url, 2u);
  EXPECT_NEAR(out[0].probability, 0.75, 1e-6);
  EXPECT_EQ(out[1].url, 3u);
}

TEST(StandardPpm, ThresholdFiltersRareContinuations) {
  StandardPpm m;
  std::vector<session::Session> train;
  for (int i = 0; i < 9; ++i) train.push_back(make_session({1, 2}));
  train.push_back(make_session({1, 3}));  // p = 0.1 < 0.25
  m.train(train);
  std::vector<Prediction> out;
  const UrlId ctx[] = {1};
  m.predict(ctx, out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].url, 2u);
}

TEST(StandardPpm, LongestMatchPrefersDeepContext) {
  StandardPpm m;
  // After (1,2) the next is always 3; after (2) alone it is usually 4.
  m.train(sessions({{1, 2, 3}, {5, 2, 4}, {5, 2, 4}, {5, 2, 4}}));
  std::vector<Prediction> out;
  const UrlId ctx[] = {1, 2};
  m.predict(ctx, out);
  ASSERT_FALSE(out.empty());
  EXPECT_EQ(out[0].url, 3u);  // from context (1,2), not bare (2)
}

TEST(StandardPpm, FixedHeightUsesOrderHMinusOneContext) {
  // A height-H tree is an order-(H-1) Markov model: with H=2 only the last
  // URL of the context is consulted, so leaf matches at depth 2 are never
  // attempted and prediction still works.
  StandardPpmConfig cfg;
  cfg.max_height = 2;
  StandardPpm m(cfg);
  m.train(sessions({{1, 2, 3}, {2, 4}}));
  std::vector<Prediction> out;
  const UrlId ctx[] = {1, 2};
  m.predict(ctx, out);
  // Context (2): children {3: 1/2, 4: 1/2}.
  ASSERT_EQ(out.size(), 2u);
}

TEST(StandardPpm, StrictMatchingYieldsNothingAtRecordedSessionEnd) {
  // Unbounded model, paper §4.1 longest-match: the deepest match for
  // context (1,2,3) is the leaf recording the end of the only training
  // session — it cannot predict, and no shorter context is retried.
  StandardPpm m;
  m.train(sessions({{1, 2, 3}, {3, 9}}));
  std::vector<Prediction> out;
  const UrlId ctx[] = {1, 2, 3};
  m.predict(ctx, out);
  EXPECT_TRUE(out.empty());
  // Whereas the bare context (3) would have predicted 9.
  const UrlId short_ctx[] = {3};
  m.predict(short_ctx, out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].url, 9u);
}

TEST(StandardPpm, UnseenLongContextFallsBackToSeenSuffix) {
  // Suffixes whose path does not exist at all are skipped (this is not the
  // childless-leaf case): context (7,1) has no (7,1) path, so (1) matches.
  StandardPpm m;
  m.train(sessions({{1, 2}, {1, 2}}));
  std::vector<Prediction> out;
  const UrlId ctx[] = {7, 1};
  m.predict(ctx, out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].url, 2u);
}

TEST(StandardPpm, NoMatchNoPredictions) {
  StandardPpm m;
  m.train(sessions({{1, 2}}));
  std::vector<Prediction> out;
  const UrlId ctx[] = {99};
  m.predict(ctx, out);
  EXPECT_TRUE(out.empty());
}

TEST(StandardPpm, EmptyContextNoPredictions) {
  StandardPpm m;
  m.train(sessions({{1, 2}}));
  std::vector<Prediction> out{{7, 0.5f}};
  m.predict({}, out);
  EXPECT_TRUE(out.empty());  // predict clears stale output
}

TEST(StandardPpm, PredictionsSortedByProbability) {
  StandardPpm m;
  m.train(sessions({{1, 2}, {1, 2}, {1, 3}, {1, 4}}));
  std::vector<Prediction> out;
  const UrlId ctx[] = {1};
  m.predict(ctx, out);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].url, 2u);
  EXPECT_GE(out[0].probability, out[1].probability);
  EXPECT_GE(out[1].probability, out[2].probability);
  // Equal-probability ties break by URL id for determinism.
  EXPECT_LT(out[1].url, out[2].url);
}

TEST(StandardPpm, UsageRecordedThroughScratch) {
  StandardPpm m;
  m.train(sessions({{1, 2}, {1, 2}}));
  EXPECT_EQ(m.path_usage().used, 0u);
  std::vector<Prediction> out;
  const UrlId ctx[] = {1};
  UsageScratch usage;
  m.predict(ctx, out, &usage);
  EXPECT_TRUE(usage.touched);
  // Reading the batch directly and folding it into the model agree.
  EXPECT_GT(m.path_usage(usage).used, 0u);
  EXPECT_EQ(m.path_usage().used, 0u);  // predict() itself marked nothing
  m.apply_usage(usage);
  EXPECT_EQ(m.path_usage().used, m.path_usage(usage).used);
  m.clear_usage();
  EXPECT_EQ(m.path_usage().used, 0u);
  // Without a scratch, predict() is pure observation.
  m.predict(ctx, out);
  EXPECT_EQ(m.path_usage().used, 0u);
}

TEST(StandardPpm, NameReflectsHeight) {
  EXPECT_EQ(StandardPpm().name(), "standard-ppm");
  StandardPpmConfig cfg;
  cfg.max_height = 3;
  EXPECT_EQ(StandardPpm(cfg).name(), "3-ppm");
}

TEST(StandardPpm, NodeCountGrowsWithHeight) {
  const auto train = sessions({{1, 2, 3, 4, 5, 6}, {2, 3, 1, 4, 6, 5}});
  std::size_t prev = 0;
  for (const std::uint32_t h : {2u, 3u, 4u, 5u}) {
    StandardPpmConfig cfg;
    cfg.max_height = h;
    StandardPpm m(cfg);
    m.train(train);
    EXPECT_GT(m.node_count(), prev);
    prev = m.node_count();
  }
}

}  // namespace
}  // namespace webppm::ppm
