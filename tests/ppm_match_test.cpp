// Unit tests for the longest-match rule and prediction plumbing
// (ppm/predictor.hpp), independent of any concrete model.
#include "ppm/predictor.hpp"

#include <gtest/gtest.h>

namespace webppm::ppm {
namespace {

// Tree:  1 -> 2 -> 3      (counts 4, 3, 1)
//        1 -> 4           (count 1)
//        2 -> 3 -> 5      (counts 5, 4, 2)
PredictionTree sample_tree() {
  PredictionTree t;
  const auto r1 = t.root_or_add(1, 4);
  const auto n12 = t.child_or_add(r1, 2, 3);
  t.child_or_add(n12, 3, 1);
  t.child_or_add(r1, 4, 1);
  const auto r2 = t.root_or_add(2, 5);
  const auto n23 = t.child_or_add(r2, 3, 4);
  t.child_or_add(n23, 5, 2);
  return t;
}

TEST(LongestMatch, PrefersLongestSuffix) {
  const auto t = sample_tree();
  const UrlId ctx[] = {9, 1, 2};
  const auto m = longest_match(t, ctx, 8);
  ASSERT_NE(m.node, kNoNode);
  EXPECT_EQ(m.context_used, 2u);  // (1,2), not (2)
  EXPECT_EQ(t.node(m.node).url, 2u);
  EXPECT_EQ(t.node(m.node).depth, 2u);
}

TEST(LongestMatch, MaxContextCapsSuffixLength) {
  const auto t = sample_tree();
  const UrlId ctx[] = {1, 2};
  const auto m = longest_match(t, ctx, 1);
  ASSERT_NE(m.node, kNoNode);
  EXPECT_EQ(m.context_used, 1u);  // only (2) considered
  EXPECT_EQ(t.node(m.node).depth, 1u);
}

TEST(LongestMatch, StrictStopsAtChildlessDeepMatch) {
  const auto t = sample_tree();
  // (1,2,3) exists and is a leaf; strict matching gives up, though (2,3)
  // has a child. PB-PPM's back-off past it is checked on the frozen model
  // (PbModel.BacksOffPastAChildlessDeepMatch, and every context of
  // PbReferenceTest.FrozenPredictsAsTheReference).
  const UrlId ctx[] = {1, 2, 3};
  EXPECT_EQ(longest_match(t, ctx, 8).node, kNoNode);
}

TEST(LongestMatch, StrictAcceptsMissingDeepPaths) {
  const auto t = sample_tree();
  // (7,1) does not exist at all — strict matching may shorten.
  const UrlId ctx[] = {7, 1};
  const auto m = longest_match(t, ctx, 8);
  ASSERT_NE(m.node, kNoNode);
  EXPECT_EQ(m.context_used, 1u);
  EXPECT_EQ(t.node(m.node).url, 1u);
}

TEST(LongestMatch, NoMatchAnywhere) {
  const auto t = sample_tree();
  const UrlId ctx[] = {99};
  EXPECT_EQ(longest_match(t, ctx, 8).node, kNoNode);
}

TEST(LongestMatch, EmptyContext) {
  const auto t = sample_tree();
  EXPECT_EQ(longest_match(t, {}, 8).node, kNoNode);
}

TEST(EmitChildren, ProbabilitiesAndThreshold) {
  auto t = sample_tree();
  std::vector<Prediction> out;
  emit_children(t, t.find_root(1), 0.25, out);
  // Children of root 1 (count 4): 2 with 3/4, 4 with 1/4.
  ASSERT_EQ(out.size(), 2u);
  finalize_predictions(out);
  EXPECT_EQ(out[0].url, 2u);
  EXPECT_NEAR(out[0].probability, 0.75, 1e-6);
  EXPECT_NEAR(out[1].probability, 0.25, 1e-6);
}

TEST(EmitChildren, ThresholdExcludes) {
  auto t = sample_tree();
  std::vector<Prediction> out;
  emit_children(t, t.find_root(1), 0.3, out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].url, 2u);
}

TEST(EmitChildren, RecordsEmittedChildrenInScratch) {
  auto t = sample_tree();
  std::vector<Prediction> out;
  UsageScratch usage;
  emit_children(t, t.find_root(1), 0.5, out, &usage);
  const auto child2 = t.find_child(t.find_root(1), 2);
  const auto child4 = t.find_child(t.find_root(1), 4);
  ASSERT_EQ(usage.nodes.size(), 1u);
  EXPECT_EQ(usage.nodes[0], child2);  // child4 below threshold, not emitted
  // The tree itself is untouched until the batch is applied.
  EXPECT_FALSE(t.node(child2).used);
  for (const NodeId id : usage.nodes) t.mark_used(id);
  EXPECT_TRUE(t.node(child2).used);
  EXPECT_FALSE(t.node(child4).used);
  // Without a scratch, emission is pure.
  auto t2 = sample_tree();
  emit_children(t2, t2.find_root(1), 0.5, out);
  EXPECT_FALSE(t2.node(t2.find_child(t2.find_root(1), 2)).used);
}

TEST(FinalizePredictions, DedupKeepsHighestProbability) {
  std::vector<Prediction> out{{5, 0.3f}, {7, 0.6f}, {5, 0.8f}};
  finalize_predictions(out);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].url, 5u);
  EXPECT_NEAR(out[0].probability, 0.8, 1e-6);
  EXPECT_EQ(out[1].url, 7u);
}

TEST(FinalizePredictions, StableDeterministicOrder) {
  std::vector<Prediction> out{{9, 0.5f}, {3, 0.5f}, {6, 0.9f}};
  finalize_predictions(out);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].url, 6u);
  EXPECT_EQ(out[1].url, 3u);  // tie broken by url asc
  EXPECT_EQ(out[2].url, 9u);
}

TEST(FinalizePredictions, EmptyIsFine) {
  std::vector<Prediction> out;
  finalize_predictions(out);
  EXPECT_TRUE(out.empty());
}

}  // namespace
}  // namespace webppm::ppm
