#include "ppm/popularity_ppm.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "ppm/pb_base.hpp"

namespace webppm::ppm {
namespace {

session::Session make_session(std::vector<UrlId> urls) {
  session::Session s;
  s.urls = std::move(urls);
  s.times.assign(s.urls.size(), 0);
  return s;
}

std::vector<session::Session> sessions(
    std::initializer_list<std::vector<UrlId>> seqs) {
  std::vector<session::Session> out;
  for (auto& s : seqs) out.push_back(make_session(s));
  return out;
}

// Grade fixture: url -> grade via access counts (max = 1000).
//   grade 3: count >= 100; grade 2: >= 10; grade 1: >= 1 ... scaled so that
//   1000 -> g3, 50 -> g2, 5 -> g1, 0 -> g0 (plus the 1000 anchor at url 99).
popularity::PopularityTable grades_for(
    std::initializer_list<std::pair<UrlId, int>> url_grades) {
  std::vector<std::uint32_t> counts(100, 0);
  counts[99] = 1000;  // anchor defining max
  for (const auto& [url, g] : url_grades) {
    counts[url] = g == 3 ? 1000 : g == 2 ? 50 : g == 1 ? 5 : 0;
  }
  return popularity::PopularityTable::from_counts(std::move(counts));
}

PopularityPpmConfig no_opt_config() {
  PopularityPpmConfig cfg;
  cfg.min_relative_probability = 0.0;
  cfg.min_absolute_count = 0;
  return cfg;
}

TEST(PopularityPpm, Figure1RightExample) {
  // Paper Fig. 1 (right): sequence A B C A' B' C' where A/A' are grade 3,
  // B/B' grade 2, C/C' grade 1; uniform max height 4.
  const UrlId A = 0, B = 1, C = 2, A2 = 3, B2 = 4, C2 = 5;
  const auto grades =
      grades_for({{A, 3}, {B, 2}, {C, 1}, {A2, 3}, {B2, 2}, {C2, 1}});
  auto cfg = no_opt_config();
  cfg.height_by_grade = {4, 4, 4, 4};
  PopularityPpm m(cfg, &grades);
  m.train(sessions({{A, B, C, A2, B2, C2}}));

  // Roots: A (session start) and A' (grade rose from C's grade 1 to 3).
  EXPECT_EQ(m.tree().root_count(), 2u);
  // Nodes: A->B->C->A' (4, capped) plus A'->B'->C' (3) = 7.
  EXPECT_EQ(m.node_count(), 7u);
  const UrlId main_branch[] = {A, B, C, A2};
  EXPECT_NE(m.tree().find_path(main_branch), kNoNode);
  const UrlId second_branch[] = {A2, B2, C2};
  EXPECT_NE(m.tree().find_path(second_branch), kNoNode);
  // B did NOT become a root (rule 4).
  EXPECT_EQ(m.tree().find_root(B), kNoNode);
  // Special link: root A -> duplicated A' at depth 4.
  const auto rootA = m.tree().find_root(A);
  ASSERT_TRUE(m.links().contains(rootA));
  ASSERT_EQ(m.links().at(rootA).size(), 1u);
  EXPECT_EQ(m.tree().node(m.links().at(rootA)[0]).url, A2);
}

TEST(PopularityPpm, GradeZeroHeadGetsNoBranch) {
  const auto grades = grades_for({{1, 0}, {2, 0}, {3, 0}});
  PopularityPpm m(no_opt_config(), &grades);
  m.train(sessions({{1, 2, 3}}));
  // Height cap for grade 0 is 1: the root alone, no children; 2 and 3 are
  // not admitted as roots (no grade increase).
  EXPECT_EQ(m.node_count(), 1u);
  EXPECT_NE(m.tree().find_root(1), kNoNode);
  EXPECT_EQ(m.tree().find_root(2), kNoNode);
}

TEST(PopularityPpm, HeightCapPerGrade) {
  // Grade-2 head: branch limited to 5 nodes even for a 9-click session.
  const auto grades = grades_for({{1, 2}});
  PopularityPpm m(no_opt_config(), &grades);
  m.train(sessions({{1, 10, 11, 12, 13, 14, 15, 16}}));
  EXPECT_EQ(m.node_count(), 5u);
  const UrlId at_cap[] = {1, 10, 11, 12, 13};
  EXPECT_NE(m.tree().find_path(at_cap), kNoNode);
  const UrlId beyond[] = {1, 10, 11, 12, 13, 14};
  EXPECT_EQ(m.tree().find_path(beyond), kNoNode);
}

TEST(PopularityPpm, GradeIncreaseAdmitsNewRoot) {
  const auto grades = grades_for({{1, 1}, {2, 3}, {3, 2}});
  PopularityPpm m(no_opt_config(), &grades);
  m.train(sessions({{1, 2, 3}}));
  EXPECT_NE(m.tree().find_root(1), kNoNode);  // session start
  EXPECT_NE(m.tree().find_root(2), kNoNode);  // grade 3 > grade 1
  EXPECT_EQ(m.tree().find_root(3), kNoNode);  // grade 2 < grade 3
}

TEST(PopularityPpm, EqualGradeDoesNotAdmitRoot) {
  const auto grades = grades_for({{1, 2}, {2, 2}});
  PopularityPpm m(no_opt_config(), &grades);
  m.train(sessions({{1, 2}}));
  EXPECT_EQ(m.tree().find_root(2), kNoNode);
}

TEST(PopularityPpm, SpecialLinkRequiresDepthThree) {
  // A grade-3 URL immediately after the head gets no link.
  const auto grades = grades_for({{1, 3}, {2, 3}});
  PopularityPpm m(no_opt_config(), &grades);
  m.train(sessions({{1, 2}}));
  const auto rootA = m.tree().find_root(1);
  EXPECT_FALSE(m.links().contains(rootA));
}

TEST(PopularityPpm, SpecialLinksDisabled) {
  const UrlId A = 0, B = 1, C = 2, A2 = 3;
  const auto grades = grades_for({{A, 3}, {B, 2}, {C, 1}, {A2, 3}});
  auto cfg = no_opt_config();
  cfg.special_links = false;
  PopularityPpm m(cfg, &grades);
  m.train(sessions({{A, B, C, A2}}));
  EXPECT_TRUE(m.links().empty());
}

TEST(PopularityPpm, LinkDeduplicated) {
  const UrlId A = 0, B = 1, C = 2, A2 = 3;
  const auto grades = grades_for({{A, 3}, {B, 2}, {C, 1}, {A2, 3}});
  PopularityPpm m(no_opt_config(), &grades);
  m.train(sessions({{A, B, C, A2}, {A, B, C, A2}}));
  const auto rootA = m.tree().find_root(A);
  ASSERT_TRUE(m.links().contains(rootA));
  EXPECT_EQ(m.links().at(rootA).size(), 1u);
}

TEST(PopularityPpm, PredictionIncludesSpecialLinkTargets) {
  const UrlId A = 0, B = 1, C = 2, A2 = 3;
  const auto grades = grades_for({{A, 3}, {B, 2}, {C, 1}, {A2, 3}});
  PopularityPpm m(no_opt_config(), &grades);
  m.train(sessions({{A, B, C, A2}}));
  std::vector<Prediction> out;
  const UrlId ctx[] = {A};
  m.predict(ctx, out);
  const auto has = [&](UrlId u) {
    return std::any_of(out.begin(), out.end(),
                       [&](const Prediction& p) { return p.url == u; });
  };
  EXPECT_TRUE(has(B));   // normal child prediction
  EXPECT_TRUE(has(A2));  // special-link prediction
}

TEST(PopularityPpm, LinkPredictionOnlyWhenCurrentIsRoot) {
  const UrlId A = 0, B = 1, C = 2, A2 = 3;
  const auto grades = grades_for({{A, 3}, {B, 2}, {C, 1}, {A2, 3}});
  PopularityPpm m(no_opt_config(), &grades);
  m.train(sessions({{A, B, C, A2}}));
  std::vector<Prediction> out;
  const UrlId ctx[] = {A, B};  // current click B is not a root
  m.predict(ctx, out);
  const auto has_a2_at_full_prob = std::any_of(
      out.begin(), out.end(), [&](const Prediction& p) { return p.url == A2; });
  // A2 can only appear via the deep child chain (A,B -> C), not via links.
  EXPECT_FALSE(has_a2_at_full_prob);
}

TEST(PopularityPpm, SpaceOptimizationCutsLowProbabilityBranches) {
  const auto grades = grades_for({{1, 3}, {2, 2}, {3, 2}});
  PopularityPpmConfig cfg;
  cfg.min_relative_probability = 0.10;
  cfg.min_absolute_count = 0;
  PopularityPpm m(cfg, &grades);
  std::vector<session::Session> train;
  for (int i = 0; i < 19; ++i) train.push_back(make_session({1, 2}));
  train.push_back(make_session({1, 3}));  // relative probability 1/20 = 5%
  m.train(train);
  const auto root = m.tree().find_root(1);
  ASSERT_NE(root, kNoNode);
  EXPECT_NE(m.tree().find_child(root, 2), kNoNode);
  EXPECT_EQ(m.tree().find_child(root, 3), kNoNode);  // pruned
  EXPECT_EQ(m.node_count(), 2u);
}

TEST(PopularityPpm, SpaceOptimizationKeepsBoundaryProbability) {
  const auto grades = grades_for({{1, 3}, {2, 2}, {3, 2}});
  PopularityPpmConfig cfg;
  cfg.min_relative_probability = 0.10;
  PopularityPpm m(cfg, &grades);
  std::vector<session::Session> train;
  for (int i = 0; i < 9; ++i) train.push_back(make_session({1, 2}));
  train.push_back(make_session({1, 3}));  // exactly 10% — kept
  m.train(train);
  const auto root = m.tree().find_root(1);
  EXPECT_NE(m.tree().find_child(root, 3), kNoNode);
}

TEST(PopularityPpm, AbsoluteCountOptimizationDropsSingletons) {
  const auto grades = grades_for({{1, 3}, {2, 2}, {3, 2}});
  PopularityPpmConfig cfg;
  cfg.min_relative_probability = 0.0;
  cfg.min_absolute_count = 1;
  PopularityPpm m(cfg, &grades);
  m.train(sessions({{1, 2}, {1, 2}, {1, 3}}));
  const auto root = m.tree().find_root(1);
  EXPECT_NE(m.tree().find_child(root, 2), kNoNode);  // count 2 kept
  EXPECT_EQ(m.tree().find_child(root, 3), kNoNode);  // count 1 dropped
}

TEST(PopularityPpm, OptimizationNeverCutsRoots) {
  const auto grades = grades_for({{1, 1}});
  PopularityPpmConfig cfg;
  cfg.min_relative_probability = 0.5;
  cfg.min_absolute_count = 5;
  PopularityPpm m(cfg, &grades);
  m.train(sessions({{1}}));
  EXPECT_EQ(m.node_count(), 1u);
  EXPECT_NE(m.tree().find_root(1), kNoNode);
}

TEST(PopularityPpm, OptimizationRemapsSpecialLinks) {
  const UrlId A = 0, B = 1, C = 2, A2 = 3;
  const auto grades = grades_for({{A, 3}, {B, 2}, {C, 1}, {A2, 3}});
  PopularityPpmConfig cfg;
  cfg.min_relative_probability = 0.10;
  PopularityPpm m(cfg, &grades);
  std::vector<session::Session> train;
  for (int i = 0; i < 5; ++i) train.push_back(make_session({A, B, C, A2}));
  m.train(train);
  // The linked node survives pruning; the link must still resolve to A2.
  const auto rootA = m.tree().find_root(A);
  ASSERT_TRUE(m.links().contains(rootA));
  for (const auto t : m.links().at(rootA)) {
    EXPECT_EQ(m.tree().node(t).url, A2);
  }
}

TEST(PopularityPpm, OptimizationDropsLinksToPrunedNodes) {
  const UrlId A = 0, B = 1, C = 2, A2 = 3;
  const auto grades = grades_for({{A, 3}, {B, 2}, {C, 1}, {A2, 3}});
  PopularityPpmConfig cfg;
  cfg.min_relative_probability = 0.0;
  cfg.min_absolute_count = 1;  // every count-1 node dies
  PopularityPpm m(cfg, &grades);
  m.train(sessions({{A, B, C, A2}}));
  // Whole chain under A had count 1 and is gone; links must not dangle.
  for (const auto& [root, targets] : m.links()) {
    for (const auto t : targets) {
      EXPECT_FALSE(m.tree().node(t).dead);
      EXPECT_LT(t, m.node_count());
    }
  }
}

TEST(PopularityPpm, TrainWithoutOptimizationKeepsEverything) {
  const auto grades = grades_for({{1, 3}, {2, 2}, {3, 2}});
  PopularityPpmConfig cfg;
  cfg.min_relative_probability = 0.10;
  PopularityPpm a(cfg, &grades);
  PbBase b(cfg, &grades);
  std::vector<session::Session> train;
  for (int i = 0; i < 19; ++i) train.push_back(make_session({1, 2}));
  train.push_back(make_session({1, 3}));
  a.train(train);
  b.insert(train);  // the training base is never optimised
  EXPECT_LT(a.node_count(), b.tree().node_count());
  EXPECT_EQ(a.node_count(), b.emit().node_count());
}

TEST(PopularityPpm, PopularHeadsYieldFewerNodesThanStandardWindows) {
  // Rule 4's root limiting: a 6-click session headed by a popular URL
  // creates far fewer nodes than the standard model's per-position roots.
  const auto grades = grades_for({{1, 3}});
  PopularityPpm m(no_opt_config(), &grades);
  m.train(sessions({{1, 10, 11, 12, 13, 14}}));
  // One branch of height 7 cap -> 6 nodes; standard would create 21.
  EXPECT_EQ(m.node_count(), 6u);
  EXPECT_EQ(m.tree().root_count(), 1u);
}

TEST(SerializeModel, LinksUnderAChainDeeperThanStoredDepthRankSafely) {
  // One chain 1 -> 2 -> 2 -> ... of 65,540 nodes. A node's stored depth is
  // 16 bits wide and wraps, so the target at real depth 65,539 (node
  // 65,538) reads as depth 3: ranking must size its path by walking it.
  constexpr NodeId kChain = 65'540;
  constexpr NodeId kDeep = 65'538;
  constexpr NodeId kShallow = 2;
  PredictionTree tree;
  NodeId tip = tree.root_or_add(1);
  for (NodeId i = 1; i < kChain; ++i) tip = tree.child_or_add(tip, 2);
  ASSERT_EQ(tree.node_count(), kChain);
  ASSERT_EQ(tree.node(kDeep).depth, 3u);

  const auto pop = popularity::PopularityTable::from_counts({0, 100, 80});
  const auto m = PopularityPpm::from_parts(
      PopularityPpmConfig{}, &pop, std::move(tree), {{0, {kDeep, kShallow}}});
  // Equal counts: the shallow target's path is a prefix of the deep one's,
  // so it ranks first.
  EXPECT_EQ(m.links().at(0), (std::vector<NodeId>{kShallow, kDeep}));
}

}  // namespace
}  // namespace webppm::ppm
