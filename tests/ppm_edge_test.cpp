// Edge-case coverage across the model family: degenerate inputs, boundary
// configurations, and adversarial shapes the main suites don't hit.
#include <gtest/gtest.h>

#include "ppm/lrs_ppm.hpp"
#include "ppm/popularity_ppm.hpp"
#include "ppm/standard_ppm.hpp"

namespace webppm::ppm {
namespace {

session::Session make_session(std::vector<UrlId> urls) {
  session::Session s;
  s.urls = std::move(urls);
  return s;
}

TEST(ModelEdge, EmptyTrainingLeavesModelsPredictingNothing) {
  StandardPpm std_m;
  LrsPpm lrs_m;
  const auto pop = popularity::PopularityTable::from_counts({});
  PopularityPpm pb_m(PopularityPpmConfig{}, &pop);
  std_m.train({});
  lrs_m.train({});
  pb_m.train({});
  EXPECT_EQ(std_m.node_count(), 0u);
  EXPECT_EQ(lrs_m.node_count(), 0u);
  EXPECT_EQ(pb_m.node_count(), 0u);
  std::vector<Prediction> out;
  const UrlId ctx[] = {1, 2};
  std_m.predict(ctx, out);
  EXPECT_TRUE(out.empty());
  lrs_m.predict(ctx, out);
  EXPECT_TRUE(out.empty());
  pb_m.predict(ctx, out);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(std_m.path_usage().total, 0u);
  EXPECT_DOUBLE_EQ(std_m.path_usage().rate(), 0.0);
}

TEST(ModelEdge, SingleClickSessions) {
  const std::vector<session::Session> train{make_session({1}),
                                            make_session({1}),
                                            make_session({2})};
  StandardPpm std_m;
  std_m.train(train);
  // Roots only; no transitions to predict.
  EXPECT_EQ(std_m.node_count(), 2u);
  std::vector<Prediction> out;
  const UrlId ctx[] = {1};
  std_m.predict(ctx, out);
  EXPECT_TRUE(out.empty());

  LrsPpm lrs_m;
  lrs_m.train(train);
  EXPECT_EQ(lrs_m.node_count(), 0u);  // length-1 patterns are skipped
}

TEST(ModelEdge, HeightOneStandardIsRootsOnly) {
  StandardPpmConfig cfg;
  cfg.max_height = 1;
  StandardPpm m(cfg);
  const std::vector<session::Session> train{make_session({1, 2, 3})};
  m.train(train);
  EXPECT_EQ(m.node_count(), 3u);
  std::vector<Prediction> out;
  const UrlId ctx[] = {1};
  m.predict(ctx, out);
  EXPECT_TRUE(out.empty());
}

TEST(ModelEdge, VeryLongSessionRespectsHeightCaps) {
  // 100-click session, far beyond any branch cap.
  std::vector<UrlId> urls;
  for (UrlId u = 0; u < 100; ++u) urls.push_back(u % 50);
  // Remove accidental consecutive repeats (50 % pattern avoids them).
  const std::vector<session::Session> train{make_session(urls)};

  StandardPpmConfig cfg;
  cfg.max_height = 4;
  StandardPpm m(cfg);
  m.train(train);
  for (NodeId id = 0; id < m.tree().node_count(); ++id) {
    EXPECT_LE(m.tree().node(id).depth, 4u);
  }
}

TEST(ModelEdge, PbAllUrlsSameGradeOnlySessionHeadsAreRoots) {
  const auto pop = popularity::PopularityTable::from_counts(
      std::vector<std::uint32_t>(10, 100));  // everyone grade 3
  PopularityPpmConfig cfg;
  cfg.min_relative_probability = 0.0;
  PopularityPpm m(cfg, &pop);
  const std::vector<session::Session> train{make_session({1, 2, 3}),
                                            make_session({4, 5})};
  m.train(train);
  EXPECT_EQ(m.tree().root_count(), 2u);  // 1 and 4 only (no grade increases)
  EXPECT_NE(m.tree().find_root(1), kNoNode);
  EXPECT_NE(m.tree().find_root(4), kNoNode);
}

TEST(ModelEdge, PbLinkTopKZeroMeansUnlimited) {
  std::vector<std::uint32_t> counts(20, 0);
  counts[0] = 1000;                       // head, grade 3
  for (UrlId u = 1; u < 10; ++u) counts[u] = 1000;  // popular deep docs
  const auto pop = popularity::PopularityTable::from_counts(counts);

  PopularityPpmConfig cfg;
  cfg.min_relative_probability = 0.0;
  cfg.link_prob_threshold = 0.0;
  cfg.link_top_k = 0;  // unlimited
  PopularityPpm m(cfg, &pop);
  // One branch passing through many grade-3 documents.
  const std::vector<session::Session> train{
      make_session({0, 11, 1, 2, 3, 4, 5})};
  m.train(train);
  std::vector<Prediction> out;
  const UrlId ctx[] = {0};
  m.predict(ctx, out);
  // The branch holds 0 -> 11 -> 1 -> 2 -> 3 -> 4 -> 5 (depth cap 7); the
  // grade-3 documents at depths 3..7 (urls 1..5) are all linked.
  std::size_t link_candidates = 0;
  for (const auto& p : out) {
    if (p.url >= 1 && p.url <= 5) ++link_candidates;
  }
  EXPECT_EQ(link_candidates, 5u);
}

TEST(ModelEdge, PbContextLongerThanAnyBranchStillMatches) {
  std::vector<std::uint32_t> counts(10, 0);
  counts[1] = 100;
  const auto pop = popularity::PopularityTable::from_counts(counts);
  PopularityPpmConfig cfg;
  cfg.min_relative_probability = 0.0;
  PopularityPpm m(cfg, &pop);
  const std::vector<session::Session> train{make_session({1, 2, 3}),
                                            make_session({1, 2, 4})};
  m.train(train);
  // 12-long context whose tail replays the trained branch start.
  std::vector<UrlId> ctx{9, 8, 7, 6, 5, 9, 8, 7, 6, 5, 1, 2};
  std::vector<Prediction> out;
  m.predict(ctx, out);
  ASSERT_EQ(out.size(), 2u);  // 3 and 4, each at p=0.5
  EXPECT_NEAR(out[0].probability, 0.5, 1e-6);
}

TEST(ModelEdge, LrsHandlesPatternEqualToWholeSession) {
  LrsPpm m;
  const std::vector<session::Session> train{make_session({1, 2, 3, 4}),
                                            make_session({1, 2, 3, 4})};
  m.train(train);
  ASSERT_EQ(m.patterns().size(), 1u + 2u);  // (1,2,3,4), (2,3,4), (3,4)
}

TEST(ModelEdge, DuplicateUrlNonConsecutiveWithinSession) {
  // Sessions may legitimately revisit a URL later (home -> deep -> home).
  StandardPpm m;
  const std::vector<session::Session> train{make_session({1, 2, 1, 3})};
  m.train(train);
  const UrlId path[] = {1, 2, 1, 3};
  EXPECT_NE(m.tree().find_path(path), kNoNode);
  const auto root1 = m.tree().find_root(1);
  EXPECT_EQ(m.tree().node(root1).count, 2u);  // two windows start at 1
}

}  // namespace
}  // namespace webppm::ppm
