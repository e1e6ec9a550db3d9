#include "ppm/tree.hpp"

#include <gtest/gtest.h>

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

TEST(PredictionTree, PruneSubtreeRemovesDescendants) {
  PredictionTree t;
  const auto a = t.root_or_add(1);
  const auto b = t.child_or_add(a, 2);
  t.child_or_add(b, 3);
  t.child_or_add(b, 4);
  const auto e = t.child_or_add(a, 5);
  (void)e;
  EXPECT_EQ(t.node_count(), 5u);
  t.prune([&](NodeId id) { return id == b; });
  EXPECT_EQ(t.node_count(), 2u);  // a and e remain
  EXPECT_EQ(t.find_child(a, 2), kNoNode);
  EXPECT_NE(t.find_child(a, 5), kNoNode);
  EXPECT_EQ(t.path_usage().total, 1u);  // e is the only leaf left
}

TEST(PredictionTree, PruneRootRemovesFromRootTable) {
  PredictionTree t;
  const auto a = t.root_or_add(1);
  t.child_or_add(a, 2);
  t.prune([&](NodeId id) { return id == a; });
  EXPECT_EQ(t.node_count(), 0u);
  EXPECT_EQ(t.find_root(1), kNoNode);
  EXPECT_EQ(t.root_count(), 0u);
}

TEST(PredictionTree, CompactReindexesAndPreservesStructure) {
  PredictionTree t;
  const auto a = t.root_or_add(1);
  const auto b = t.child_or_add(a, 2);
  t.child_or_add(b, 3);
  const auto d = t.child_or_add(a, 4);
  t.prune([&](NodeId id) { return id == b; });
  const auto remap = t.compact();
  EXPECT_EQ(t.node_count(), 2u);
  EXPECT_EQ(remap[b], kNoNode);
  const auto a_new = remap[a];
  const auto d_new = remap[d];
  ASSERT_NE(a_new, kNoNode);
  ASSERT_NE(d_new, kNoNode);
  EXPECT_EQ(t.find_root(1), a_new);
  EXPECT_EQ(t.find_child(a_new, 4), d_new);
  EXPECT_EQ(t.node(d_new).parent, a_new);
  const UrlId path[] = {1, 4};
  EXPECT_EQ(t.find_path(path), d_new);
}

TEST(PredictionTree, CompactOnUnprunedTreeIsIdentityStructure) {
  PredictionTree t;
  const auto a = t.root_or_add(1);
  t.child_or_add(a, 2);
  const auto before = t.node_count();
  t.compact();
  EXPECT_EQ(t.node_count(), before);
  const UrlId path[] = {1, 2};
  EXPECT_NE(t.find_path(path), kNoNode);
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
