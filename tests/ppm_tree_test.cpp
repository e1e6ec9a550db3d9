#include "ppm/tree.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <initializer_list>
#include <utility>
#include <vector>

#include "popularity/popularity.hpp"
#include "ppm/pb_base.hpp"
#include "ppm/popularity_ppm.hpp"
#include "session/session.hpp"

namespace webppm::ppm {
namespace {

TEST(PredictionTree, RootCreationAndCounting) {
  PredictionTree t;
  const auto a = t.root_or_add(1);
  EXPECT_EQ(t.node(a).count, 1u);
  EXPECT_EQ(t.node(a).depth, 1u);
  EXPECT_EQ(t.node(a).parent, kNoNode);
  const auto a2 = t.root_or_add(1);
  EXPECT_EQ(a, a2);
  EXPECT_EQ(t.node(a).count, 2u);
  EXPECT_EQ(t.node_count(), 1u);
  EXPECT_EQ(t.root_count(), 1u);
}

TEST(PredictionTree, FindRootMissing) {
  PredictionTree t;
  EXPECT_EQ(t.find_root(5), kNoNode);
}

TEST(PredictionTree, ChildCreationDepthAndCounts) {
  PredictionTree t;
  const auto a = t.root_or_add(1);
  const auto b = t.child_or_add(a, 2);
  const auto c = t.child_or_add(b, 3);
  EXPECT_EQ(t.node(b).depth, 2u);
  EXPECT_EQ(t.node(c).depth, 3u);
  EXPECT_EQ(t.node(c).parent, b);
  EXPECT_EQ(t.node_count(), 3u);
  t.child_or_add(a, 2);
  EXPECT_EQ(t.node(b).count, 2u);
  EXPECT_EQ(t.node_count(), 3u);
}

TEST(PredictionTree, FindPath) {
  PredictionTree t;
  const auto a = t.root_or_add(1);
  const auto b = t.child_or_add(a, 2);
  const auto c = t.child_or_add(b, 3);
  const UrlId path_abc[] = {1, 2, 3};
  const UrlId path_ab[] = {1, 2};
  const UrlId path_bc[] = {2, 3};
  EXPECT_EQ(t.find_path(path_abc), c);
  EXPECT_EQ(t.find_path(path_ab), b);
  EXPECT_EQ(t.find_path(path_bc), kNoNode);  // 2 is not a root
  EXPECT_EQ(t.find_path({}), kNoNode);
}

TEST(PredictionTree, AddCountParameter) {
  PredictionTree t;
  const auto a = t.root_or_add(1, 5);
  EXPECT_EQ(t.node(a).count, 5u);
  const auto b = t.child_or_add(a, 2, 0);
  EXPECT_EQ(t.node(b).count, 0u);
}

TEST(PredictionTree, UsageMarkingAndPathUsage) {
  PredictionTree t;
  const auto a = t.root_or_add(1);
  const auto b = t.child_or_add(a, 2);
  const auto c = t.child_or_add(a, 3);
  (void)b;
  // Two leaves (b and c); mark only c.
  t.mark_used(c);
  const auto usage = t.path_usage();
  EXPECT_EQ(usage.total, 2u);
  EXPECT_EQ(usage.used, 1u);
  EXPECT_DOUBLE_EQ(usage.rate(), 0.5);
  t.clear_usage();
  EXPECT_EQ(t.path_usage().used, 0u);
}

TEST(PredictionTree, SingleRootIsALeaf) {
  PredictionTree t;
  t.root_or_add(7);
  const auto usage = t.path_usage();
  EXPECT_EQ(usage.total, 1u);
}

TEST(PredictionTree, ReleaseSubtreeRemovesDescendants) {
  PredictionTree t;
  const auto a = t.root_or_add(1);
  const auto b = t.child_or_add(a, 2);
  t.child_or_add(b, 3);
  t.child_or_add(b, 4);
  const auto e = t.child_or_add(a, 5);
  EXPECT_EQ(t.node_count(), 5u);
  t.release(b);
  EXPECT_EQ(t.node_count(), 2u);  // a and e remain
  EXPECT_EQ(t.find_child(a, 2), kNoNode);
  EXPECT_EQ(t.find_child(a, 5), e);
  EXPECT_TRUE(t.node(b).dead);
  EXPECT_EQ(t.path_usage().total, 1u);  // e is the only leaf left
  // Releasing the last child turns its parent back into a leaf.
  t.release(e);
  EXPECT_EQ(t.node_count(), 1u);
  EXPECT_EQ(t.path_usage().total, 1u);  // a
}

TEST(PredictionTree, ReleaseRootRemovesFromRootTable) {
  PredictionTree t;
  const auto a = t.root_or_add(1);
  t.child_or_add(a, 2);
  t.release(a);
  EXPECT_EQ(t.node_count(), 0u);
  EXPECT_EQ(t.find_root(1), kNoNode);
  EXPECT_EQ(t.root_count(), 0u);
  EXPECT_EQ(t.path_usage().total, 0u);
}

TEST(PredictionTree, ReleasedSlotsAreReusedAndLiveIdsStay) {
  PredictionTree t;
  const auto a = t.root_or_add(1);
  const auto b = t.child_or_add(a, 2);
  const auto c = t.child_or_add(b, 3);
  const auto d = t.child_or_add(a, 4);
  t.release(b);
  // No reindexing: survivors keep their ids and structure.
  EXPECT_EQ(t.find_root(1), a);
  EXPECT_EQ(t.find_child(a, 4), d);
  EXPECT_EQ(t.node(d).parent, a);
  const UrlId path[] = {1, 4};
  EXPECT_EQ(t.find_path(path), d);
  // The next two nodes land in the freed slots, as fresh leaves.
  const auto r = t.root_or_add(9, 3);
  const auto x = t.child_or_add(d, 5);
  EXPECT_TRUE((r == b && x == c) || (r == c && x == b));
  EXPECT_FALSE(t.node(r).dead);
  EXPECT_EQ(t.node(r).count, 3u);
  EXPECT_EQ(t.node(r).parent, kNoNode);
  EXPECT_TRUE(t.node(r).children.empty());
  EXPECT_EQ(t.node(x).parent, d);
  EXPECT_EQ(t.node(x).depth, 3u);
  EXPECT_EQ(t.node_count(), 4u);
  EXPECT_EQ(t.path_usage().total, 2u);  // r and x
  const UrlId grown[] = {1, 4, 5};
  EXPECT_EQ(t.find_path(grown), x);
}

// A tree is compacted when it is published: PbBase::emit copies the nodes
// that survive the rule-4 cut into a new, densely indexed arena.

std::vector<session::Session> sessions_of(
    std::initializer_list<std::vector<UrlId>> paths) {
  std::vector<session::Session> out;
  for (const auto& p : paths) {
    session::Session s;
    s.urls = p;
    out.push_back(std::move(s));
  }
  return out;
}

// URL 1 is the only popular URL: it heads every branch below (height 7)
// and no other click starts one.
popularity::PopularityTable one_popular_url() {
  return popularity::PopularityTable::from_counts({0, 10, 0, 0, 0});
}

TEST(PredictionTree, CompactReindexesAndPreservesStructure) {
  const auto grades = one_popular_url();
  PopularityPpmConfig cfg;
  cfg.min_relative_probability = 0.0;
  cfg.min_absolute_count = 1;  // cuts 1 -> 2 (count 1) with its child 3
  PbBase base(cfg, &grades);
  base.insert(sessions_of({{1, 2, 3}, {1, 4}, {1, 4}}));
  const PredictionTree& src = base.expand();
  ASSERT_EQ(src.node_count(), 4u);
  const UrlId path[] = {1, 4};
  const NodeId d = src.find_path(path);
  ASSERT_NE(d, kNoNode);
  ASSERT_GE(d, 2u);  // behind the cut subtree in the base's arena

  const PopularityPpm m = base.emit();
  const PredictionTree& t = m.tree();
  EXPECT_EQ(t.node_count(), 2u);
  const NodeId a_new = t.find_root(1);
  ASSERT_NE(a_new, kNoNode);
  const NodeId d_new = t.find_child(a_new, 4);
  ASSERT_NE(d_new, kNoNode);
  // Survivors are renumbered densely, and keep their structure and counts.
  EXPECT_LT(a_new, 2u);
  EXPECT_LT(d_new, 2u);
  EXPECT_EQ(t.node(d_new).parent, a_new);
  EXPECT_EQ(t.node(d_new).depth, 2u);
  EXPECT_EQ(t.node(a_new).count, 3u);
  EXPECT_EQ(t.node(d_new).count, 2u);
  EXPECT_EQ(t.find_path(path), d_new);
  EXPECT_EQ(t.find_child(a_new, 2), kNoNode);
  EXPECT_EQ(t.path_usage().total, 1u);
  // The base itself is not compacted.
  EXPECT_EQ(src.node_count(), 4u);
  EXPECT_EQ(src.find_path(path), d);
}

TEST(PredictionTree, CompactOnUnprunedTreeIsIdentityStructure) {
  const auto grades = one_popular_url();
  PopularityPpmConfig cfg;
  cfg.min_relative_probability = 0.0;  // no rule-4 cut at all
  cfg.min_absolute_count = 0;
  PbBase base(cfg, &grades);
  base.insert(sessions_of({{1, 2}, {1, 2, 3}, {1, 4}}));
  const PredictionTree& src = base.expand();
  const PopularityPpm m = base.emit();
  const PredictionTree& t = m.tree();
  ASSERT_EQ(t.node_count(), src.node_count());
  EXPECT_EQ(t.root_count(), src.root_count());
  EXPECT_EQ(t.path_usage().total, src.path_usage().total);
  // The base holds no free slots, so its ids are 0 .. n-1; every node's
  // root-to-node path is in the emitted tree with the same count.
  for (NodeId id = 0; id < src.node_count(); ++id) {
    std::vector<UrlId> p;
    for (NodeId n = id; n != kNoNode; n = src.node(n).parent) {
      p.push_back(src.node(n).url);
    }
    std::reverse(p.begin(), p.end());
    const NodeId e = t.find_path(p);
    ASSERT_NE(e, kNoNode);
    EXPECT_EQ(t.node(e).count, src.node(id).count);
    EXPECT_EQ(t.node(e).depth, src.node(id).depth);
  }
}

TEST(PredictionTree, TotalRootCount) {
  PredictionTree t;
  t.root_or_add(1, 3);
  t.root_or_add(2, 4);
  t.root_or_add(1, 2);
  EXPECT_EQ(t.total_root_count(), 9u);
}

TEST(PredictionTree, ChildCountNeverExceedsParentWhenBuiltSequentially) {
  // Build from sequences: child counts are bounded by parent counts.
  PredictionTree t;
  const std::vector<std::vector<UrlId>> seqs = {
      {1, 2, 3}, {1, 2}, {1, 4}, {1, 2, 3}};
  for (const auto& s : seqs) {
    NodeId cur = t.root_or_add(s[0]);
    for (std::size_t i = 1; i < s.size(); ++i) cur = t.child_or_add(cur, s[i]);
  }
  for (NodeId id = 0; id < t.node_count(); ++id) {
    const auto& n = t.node(id);
    if (n.parent != kNoNode) {
      EXPECT_LE(n.count, t.node(n.parent).count);
    }
  }
}

}  // namespace
}  // namespace webppm::ppm
