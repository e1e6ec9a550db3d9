// PB-PPM's rules (paper §3.4) on hand-built sessions, read back from the
// frozen model PbBase::emit() writes.
#include "ppm/pb_base.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "pb_reference.hpp"

namespace webppm::ppm {
namespace {

using pbtest::contents_of;
using pbtest::train_pb;

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

TEST(PbModel, Figure1RightExample) {
  // Paper Fig. 1 (right): sequence A B C A' B' C' where A/A' are grade 3,
  // B/B' grade 2, C/C' grade 1; uniform max height 4.
  const UrlId A = 0, B = 1, C = 2, A2 = 3, B2 = 4, C2 = 5;
  const auto grades =
      grades_for({{A, 3}, {B, 2}, {C, 1}, {A2, 3}, {B2, 2}, {C2, 1}});
  auto cfg = no_opt_config();
  cfg.height_by_grade = {4, 4, 4, 4};
  const auto m = train_pb(cfg, grades, sessions({{A, B, C, A2, B2, C2}}));
  const auto c = contents_of(*m);

  // Roots: A (session start) and A' (grade rose from C's grade 1 to 3).
  EXPECT_EQ(c.roots(), 2u);
  // Nodes: A->B->C->A' (4, capped) plus A'->B'->C' (3) = 7.
  EXPECT_EQ(m->node_count(), 7u);
  EXPECT_TRUE(c.paths.contains({A, B, C, A2}));
  EXPECT_TRUE(c.paths.contains({A2, B2, C2}));
  // B did NOT become a root (rule 4).
  EXPECT_FALSE(c.paths.contains({B}));
  // Special link: root A -> duplicated A' at depth 4.
  ASSERT_TRUE(c.links.contains(A));
  ASSERT_EQ(c.links.at(A).size(), 1u);
  EXPECT_EQ(c.links.at(A)[0], (pbtest::Path{A, B, C, A2}));
}

TEST(PbModel, GradeZeroHeadGetsNoBranch) {
  const auto grades = grades_for({{1, 0}, {2, 0}, {3, 0}});
  const auto m = train_pb(no_opt_config(), grades, sessions({{1, 2, 3}}));
  const auto c = contents_of(*m);
  // Height cap for grade 0 is 1: the root alone, no children; 2 and 3 are
  // not admitted as roots (no grade increase).
  EXPECT_EQ(m->node_count(), 1u);
  EXPECT_TRUE(c.paths.contains({1}));
  EXPECT_FALSE(c.paths.contains({2}));
}

TEST(PbModel, HeightCapPerGrade) {
  // Grade-2 head: branch limited to 5 nodes even for a 9-click session.
  const auto grades = grades_for({{1, 2}});
  const auto m = train_pb(no_opt_config(), grades,
                          sessions({{1, 10, 11, 12, 13, 14, 15, 16}}));
  const auto c = contents_of(*m);
  EXPECT_EQ(m->node_count(), 5u);
  EXPECT_TRUE(c.paths.contains({1, 10, 11, 12, 13}));
  EXPECT_FALSE(c.paths.contains({1, 10, 11, 12, 13, 14}));
}

TEST(PbModel, GradeIncreaseAdmitsNewRoot) {
  const auto grades = grades_for({{1, 1}, {2, 3}, {3, 2}});
  const auto c =
      contents_of(*train_pb(no_opt_config(), grades, sessions({{1, 2, 3}})));
  EXPECT_TRUE(c.paths.contains({1}));   // session start
  EXPECT_TRUE(c.paths.contains({2}));   // grade 3 > grade 1
  EXPECT_FALSE(c.paths.contains({3}));  // grade 2 < grade 3
}

TEST(PbModel, EqualGradeDoesNotAdmitRoot) {
  const auto grades = grades_for({{1, 2}, {2, 2}});
  const auto c =
      contents_of(*train_pb(no_opt_config(), grades, sessions({{1, 2}})));
  EXPECT_FALSE(c.paths.contains({2}));
}

TEST(PbModel, SpecialLinkRequiresDepthThree) {
  // A grade-3 URL immediately after the head gets no link.
  const auto grades = grades_for({{1, 3}, {2, 3}});
  const auto c =
      contents_of(*train_pb(no_opt_config(), grades, sessions({{1, 2}})));
  EXPECT_FALSE(c.links.contains(1));
}

TEST(PbModel, SpecialLinksDisabled) {
  const UrlId A = 0, B = 1, C = 2, A2 = 3;
  const auto grades = grades_for({{A, 3}, {B, 2}, {C, 1}, {A2, 3}});
  auto cfg = no_opt_config();
  cfg.special_links = false;
  const auto m = train_pb(cfg, grades, sessions({{A, B, C, A2}}));
  EXPECT_TRUE(contents_of(*m).links.empty());
  EXPECT_EQ(m->view().header.special_links, 0u);
}

TEST(PbModel, LinkDeduplicated) {
  const UrlId A = 0, B = 1, C = 2, A2 = 3;
  const auto grades = grades_for({{A, 3}, {B, 2}, {C, 1}, {A2, 3}});
  const auto c = contents_of(*train_pb(
      no_opt_config(), grades, sessions({{A, B, C, A2}, {A, B, C, A2}})));
  ASSERT_TRUE(c.links.contains(A));
  EXPECT_EQ(c.links.at(A).size(), 1u);
}

TEST(PbModel, PredictionIncludesSpecialLinkTargets) {
  const UrlId A = 0, B = 1, C = 2, A2 = 3;
  const auto grades = grades_for({{A, 3}, {B, 2}, {C, 1}, {A2, 3}});
  const auto m =
      train_pb(no_opt_config(), grades, sessions({{A, B, C, A2}}));
  std::vector<Prediction> out;
  const UrlId ctx[] = {A};
  m->predict(ctx, out);
  const auto has = [&](UrlId u) {
    return std::any_of(out.begin(), out.end(),
                       [&](const Prediction& p) { return p.url == u; });
  };
  EXPECT_TRUE(has(B));   // normal child prediction
  EXPECT_TRUE(has(A2));  // special-link prediction
}

TEST(PbModel, LinkPredictionOnlyWhenCurrentIsRoot) {
  const UrlId A = 0, B = 1, C = 2, A2 = 3;
  const auto grades = grades_for({{A, 3}, {B, 2}, {C, 1}, {A2, 3}});
  const auto m =
      train_pb(no_opt_config(), grades, sessions({{A, B, C, A2}}));
  std::vector<Prediction> out;
  const UrlId ctx[] = {A, B};  // current click B is not a root
  m->predict(ctx, out);
  const auto has_a2_at_full_prob = std::any_of(
      out.begin(), out.end(), [&](const Prediction& p) { return p.url == A2; });
  // A2 can only appear via the deep child chain (A,B -> C), not via links.
  EXPECT_FALSE(has_a2_at_full_prob);
}

TEST(PbModel, SpaceOptimizationCutsLowProbabilityBranches) {
  const auto grades = grades_for({{1, 3}, {2, 2}, {3, 2}});
  PopularityPpmConfig cfg;
  cfg.min_relative_probability = 0.10;
  cfg.min_absolute_count = 0;
  std::vector<session::Session> train;
  for (int i = 0; i < 19; ++i) train.push_back(make_session({1, 2}));
  train.push_back(make_session({1, 3}));  // relative probability 1/20 = 5%
  const auto m = train_pb(cfg, grades, train);
  const auto c = contents_of(*m);
  ASSERT_TRUE(c.paths.contains({1}));
  EXPECT_TRUE(c.paths.contains({1, 2}));
  EXPECT_FALSE(c.paths.contains({1, 3}));  // pruned
  EXPECT_EQ(m->node_count(), 2u);
}

TEST(PbModel, SpaceOptimizationKeepsBoundaryProbability) {
  const auto grades = grades_for({{1, 3}, {2, 2}, {3, 2}});
  PopularityPpmConfig cfg;
  cfg.min_relative_probability = 0.10;
  std::vector<session::Session> train;
  for (int i = 0; i < 9; ++i) train.push_back(make_session({1, 2}));
  train.push_back(make_session({1, 3}));  // exactly 10% — kept
  EXPECT_TRUE(contents_of(*train_pb(cfg, grades, train))
                  .paths.contains({1, 3}));
}

TEST(PbModel, AbsoluteCountOptimizationDropsSingletons) {
  const auto grades = grades_for({{1, 3}, {2, 2}, {3, 2}});
  PopularityPpmConfig cfg;
  cfg.min_relative_probability = 0.0;
  cfg.min_absolute_count = 1;
  const auto c =
      contents_of(*train_pb(cfg, grades, sessions({{1, 2}, {1, 2}, {1, 3}})));
  EXPECT_TRUE(c.paths.contains({1, 2}));   // count 2 kept
  EXPECT_FALSE(c.paths.contains({1, 3}));  // count 1 dropped
}

TEST(PbModel, OptimizationNeverCutsRoots) {
  const auto grades = grades_for({{1, 1}});
  PopularityPpmConfig cfg;
  cfg.min_relative_probability = 0.5;
  cfg.min_absolute_count = 5;
  const auto m = train_pb(cfg, grades, sessions({{1}}));
  EXPECT_EQ(m->node_count(), 1u);
  EXPECT_TRUE(contents_of(*m).paths.contains({1}));
}

TEST(PbModel, OptimizationRemapsSpecialLinks) {
  const UrlId A = 0, B = 1, C = 2, A2 = 3;
  const auto grades = grades_for({{A, 3}, {B, 2}, {C, 1}, {A2, 3}});
  PopularityPpmConfig cfg;
  cfg.min_relative_probability = 0.10;
  std::vector<session::Session> train;
  for (int i = 0; i < 5; ++i) train.push_back(make_session({A, B, C, A2}));
  const auto c = contents_of(*train_pb(cfg, grades, train));
  // The linked node survives pruning; the link must still resolve to A2.
  ASSERT_TRUE(c.links.contains(A));
  for (const auto& t : c.links.at(A)) {
    EXPECT_EQ(t.back(), A2);
    EXPECT_TRUE(c.paths.contains(t));
  }
}

TEST(PbModel, OptimizationDropsLinksToPrunedNodes) {
  const UrlId A = 0, B = 1, C = 2, A2 = 3;
  const auto grades = grades_for({{A, 3}, {B, 2}, {C, 1}, {A2, 3}});
  PopularityPpmConfig cfg;
  cfg.min_relative_probability = 0.0;
  cfg.min_absolute_count = 1;  // every count-1 node dies
  const auto c = contents_of(*train_pb(cfg, grades, sessions({{A, B, C, A2}})));
  // Whole chain under A had count 1 and is gone; links must not dangle.
  EXPECT_FALSE(c.paths.contains({A, B}));
  for (const auto& [root, targets] : c.links) {
    for (const auto& t : targets) EXPECT_TRUE(c.paths.contains(t));
  }
}

TEST(PbModel, TrainWithoutOptimizationKeepsEverything) {
  const auto grades = grades_for({{1, 3}, {2, 2}, {3, 2}});
  PopularityPpmConfig cfg;
  cfg.min_relative_probability = 0.10;
  PbBase b(cfg, &grades);
  std::vector<session::Session> train;
  for (int i = 0; i < 19; ++i) train.push_back(make_session({1, 2}));
  train.push_back(make_session({1, 3}));
  b.insert(train);  // the training base is never optimised
  const auto m = pbtest::open_pb(b);
  EXPECT_EQ(m->node_count(), 2u);
  EXPECT_EQ(b.expand().node_count(), 3u);
}

TEST(PbModel, PopularHeadsYieldFewerNodesThanStandardWindows) {
  // Rule 4's root limiting: a 6-click session headed by a popular URL
  // creates far fewer nodes than the standard model's per-position roots.
  const auto grades = grades_for({{1, 3}});
  const auto m =
      train_pb(no_opt_config(), grades, sessions({{1, 10, 11, 12, 13, 14}}));
  // One branch of height 7 cap -> 6 nodes; standard would create 21.
  EXPECT_EQ(m->node_count(), 6u);
  EXPECT_EQ(m->view().header.root_count, 1u);
}

TEST(PbModel, BacksOffPastAChildlessDeepMatch) {
  // Every URL grade 3: each session is one branch from its first click.
  // (1,2,3) is a leaf; PB backs off to (2,3), whose child 5 it predicts,
  // where the strict rule of standard and LRS would predict nothing.
  const auto grades = grades_for({{1, 3}, {2, 3}, {3, 3}, {5, 3}});
  const auto m =
      train_pb(no_opt_config(), grades, sessions({{1, 2, 3}, {2, 3, 5}}));
  std::vector<Prediction> out;
  const UrlId ctx[] = {1, 2, 3};
  m->predict(ctx, out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].url, 5u);
  EXPECT_EQ(out[0].probability, 1.0f);
}

TEST(SerializeModel, LinksUnderAChainDeeperThanStoredDepthRankSafely) {
  // Two branches under root 1 (grade 3), both of count 1 below node (1,2):
  //   1 2 4              — link target 4 at depth 3, path (2,4)
  //   1 2 3 3 ... 3 5    — link target 5 at depth 65,539, path (2,3,...,5)
  // A 16-bit depth wraps 65,539 to 3, so a ranking that sized paths by
  // depth would compare the deep target as (3,5) and put it second. Its
  // real path sorts first: 3 < 4 at the second URL.
  constexpr std::size_t kDeep = 65'539;
  const auto grades = popularity::PopularityTable::from_counts(
      {0, 1000, 50, 50, 1000, 1000});  // 1, 4, 5 grade 3; 2, 3 grade 2
  PopularityPpmConfig cfg;
  cfg.height_by_grade[popularity::kMaxGrade] = kDeep;
  std::vector<UrlId> deep{1, 2};
  deep.resize(kDeep - 1, 3);
  deep.push_back(5);
  PbBase base(cfg, &grades);
  base.insert(sessions({{1, 2, 4}, deep}));

  const auto m = pbtest::open_pb(base);
  const frozen::FrozenView& v = m->view();
  ASSERT_EQ(v.header.link_root_count, 1u);
  ASSERT_EQ(v.urls[v.link_roots[0]], 1u);
  ASSERT_EQ(v.header.link_target_count, 2u);
  const std::uint32_t first = v.link_targets[0];
  const std::uint32_t second = v.link_targets[1];
  EXPECT_EQ(v.urls[first], 5u);
  EXPECT_EQ(v.urls[second], 4u);
  EXPECT_EQ(v.counts[first], v.counts[second]);
  // The deep target is the last node of the listing, below every other.
  EXPECT_EQ(first + 1, v.header.node_count);
}

}  // namespace
}  // namespace webppm::ppm
