#include "ppm/lrs_ppm.hpp"

#include <gtest/gtest.h>

#include <algorithm>

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

bool has_pattern(const LrsPpm& m, const std::vector<UrlId>& p) {
  return std::find(m.patterns().begin(), m.patterns().end(), p) !=
         m.patterns().end();
}

TEST(LrsPpm, SingleOccurrenceSequencesDropped) {
  LrsPpm m;
  m.train(sessions({{1, 2, 3}}));
  EXPECT_EQ(m.node_count(), 0u);
  EXPECT_TRUE(m.patterns().empty());
}

TEST(LrsPpm, RepeatedSequenceKept) {
  LrsPpm m;
  m.train(sessions({{1, 2, 3}, {1, 2, 3}}));
  EXPECT_TRUE(has_pattern(m, {1, 2, 3}));
  const UrlId full[] = {1, 2, 3};
  EXPECT_NE(m.tree().find_path(full), kNoNode);
}

TEST(LrsPpm, SuffixesInsertedAsBranches) {
  LrsPpm m;
  m.train(sessions({{1, 2, 3}, {1, 2, 3}}));
  // The LRS (1,2,3) is inserted with suffixes (2,3) and (3) — matching can
  // start mid-pattern. (3) alone is a single URL and not inserted.
  const UrlId suffix[] = {2, 3};
  EXPECT_NE(m.tree().find_path(suffix), kNoNode);
  // Node count: 1->2->3 plus 2->3 = 5 nodes.
  EXPECT_EQ(m.node_count(), 5u);
}

TEST(LrsPpm, MaximalityOnlyLongestKept) {
  LrsPpm m;
  // (1,2) repeats 3 times; (1,2,3) repeats twice. LRS = (1,2,3): the
  // shorter repeating (1,2) is subsumed; its extension is still repeating.
  m.train(sessions({{1, 2, 3}, {1, 2, 3}, {1, 2}}));
  EXPECT_TRUE(has_pattern(m, {1, 2, 3}));
  EXPECT_FALSE(has_pattern(m, {1, 2}));
}

TEST(LrsPpm, BranchingSupportedSubtreesYieldMultiplePatterns) {
  LrsPpm m;
  m.train(sessions({{1, 2}, {1, 2}, {1, 3}, {1, 3}}));
  EXPECT_TRUE(has_pattern(m, {1, 2}));
  EXPECT_TRUE(has_pattern(m, {1, 3}));
}

TEST(LrsPpm, CountsCopiedFromSupportTree) {
  LrsPpm m;
  m.train(sessions({{1, 2}, {1, 2}, {1, 2}}));
  const auto root = m.tree().find_root(1);
  ASSERT_NE(root, kNoNode);
  EXPECT_EQ(m.tree().node(root).count, 3u);
  const auto child = m.tree().find_child(root, 2);
  ASSERT_NE(child, kNoNode);
  EXPECT_EQ(m.tree().node(child).count, 3u);
}

TEST(LrsPpm, PredictsFromKeptPattern) {
  LrsPpm m;
  m.train(sessions({{1, 2, 3}, {1, 2, 3}, {4, 5}}));
  std::vector<Prediction> out;
  const UrlId ctx[] = {1, 2};
  m.predict(ctx, out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].url, 3u);
  EXPECT_NEAR(out[0].probability, 1.0, 1e-6);
}

TEST(LrsPpm, NoPredictionForInfrequentPath) {
  LrsPpm m;
  m.train(sessions({{1, 2, 3}, {1, 2, 3}, {4, 5}}));
  std::vector<Prediction> out;
  const UrlId ctx[] = {4};
  m.predict(ctx, out);
  EXPECT_TRUE(out.empty());  // (4,5) occurred once — not an LRS
}

TEST(LrsPpm, MidPatternContextMatches) {
  LrsPpm m;
  m.train(sessions({{1, 2, 3}, {1, 2, 3}}));
  std::vector<Prediction> out;
  const UrlId ctx[] = {2};  // session joined mid-pattern
  m.predict(ctx, out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].url, 3u);
}

TEST(LrsPpm, MinSupportConfigurable) {
  LrsPpmConfig cfg;
  cfg.min_support = 3;
  LrsPpm m(cfg);
  m.train(sessions({{1, 2}, {1, 2}}));  // only 2 occurrences
  EXPECT_EQ(m.node_count(), 0u);
}

TEST(LrsPpm, SpaceSmallerThanStandardOnDiverseTraffic) {
  // Many one-off sessions plus one hot path: LRS keeps only the hot path.
  std::vector<session::Session> train;
  for (UrlId i = 0; i < 50; ++i) {
    train.push_back(make_session({100 + i * 3, 101 + i * 3, 102 + i * 3}));
  }
  for (int i = 0; i < 5; ++i) train.push_back(make_session({1, 2, 3}));
  LrsPpm m;
  m.train(train);
  EXPECT_TRUE(has_pattern(m, {1, 2, 3}));
  EXPECT_LE(m.node_count(), 10u);
}

TEST(LrsPpm, SubsequenceWithinSessionsCounts) {
  // The repeat happens inside a single session: windows still repeat.
  LrsPpm m;
  m.train(sessions({{1, 2, 9, 1, 2}}));
  EXPECT_TRUE(has_pattern(m, {1, 2}));
}

}  // namespace
}  // namespace webppm::ppm
