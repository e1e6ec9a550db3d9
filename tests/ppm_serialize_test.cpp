#include "ppm/serialize.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "workload/generator.hpp"

namespace webppm::ppm {
namespace {

session::Session make_session(std::vector<UrlId> urls) {
  session::Session s;
  s.urls = std::move(urls);
  s.times.assign(s.urls.size(), 0);
  return s;
}

std::vector<session::Session> small_training() {
  return {make_session({1, 2, 3}), make_session({1, 2, 3}),
          make_session({1, 2, 4}), make_session({5, 2, 3})};
}

void expect_same_predictions(Predictor& a, Predictor& b,
                             std::span<const UrlId> ctx) {
  std::vector<Prediction> pa, pb;
  a.predict(ctx, pa);
  b.predict(ctx, pb);
  EXPECT_EQ(pa, pb);
}

TEST(SerializeTree, RoundTripSmall) {
  PredictionTree t;
  const auto a = t.root_or_add(10, 3);
  const auto b = t.child_or_add(a, 20, 2);
  t.child_or_add(b, 30, 1);
  t.root_or_add(20, 5);

  std::stringstream ss;
  save_tree(ss, t);
  const auto back = load_tree(ss);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->node_count(), 4u);
  EXPECT_EQ(back->root_count(), 2u);
  const UrlId path[] = {10, 20, 30};
  const auto leaf = back->find_path(path);
  ASSERT_NE(leaf, kNoNode);
  EXPECT_EQ(back->node(leaf).count, 1u);
  EXPECT_EQ(back->node(back->find_root(20)).count, 5u);
}

TEST(SerializeTree, EmptyTree) {
  PredictionTree t;
  std::stringstream ss;
  save_tree(ss, t);
  const auto back = load_tree(ss);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->node_count(), 0u);
}

TEST(SerializeTree, RejectsGarbage) {
  std::stringstream ss("not a tree at all");
  EXPECT_FALSE(load_tree(ss).has_value());
}

TEST(SerializeTree, RejectsTruncated) {
  PredictionTree t;
  t.root_or_add(1);
  t.child_or_add(t.find_root(1), 2);
  std::stringstream ss;
  save_tree(ss, t);
  const auto full = ss.str();
  std::stringstream truncated(full.substr(0, full.size() / 2));
  EXPECT_FALSE(load_tree(truncated).has_value());
}

TEST(SerializeTree, RejectsForwardParentReference) {
  std::stringstream ss("webppm-tree v1 2\n1 1 1\n2 1 -1\n");
  EXPECT_FALSE(load_tree(ss).has_value());
}

TEST(SerializeModel, StandardRoundTrip) {
  StandardPpmConfig cfg;
  cfg.max_height = 3;
  StandardPpm m(cfg);
  m.train(small_training());

  std::stringstream ss;
  save_model(ss, m);
  auto back = load_standard(ss);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->node_count(), m.node_count());
  EXPECT_EQ(back->config().max_height, 3u);
  const UrlId ctx1[] = {1};
  const UrlId ctx2[] = {1, 2};
  expect_same_predictions(m, *back, ctx1);
  expect_same_predictions(m, *back, ctx2);
}

TEST(SerializeModel, LrsRoundTrip) {
  LrsPpm m;
  m.train(small_training());
  std::stringstream ss;
  save_model(ss, m);
  auto back = load_lrs(ss);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->node_count(), m.node_count());
  const UrlId ctx[] = {1, 2};
  expect_same_predictions(m, *back, ctx);
}

TEST(SerializeModel, PopularityRoundTripWithLinks) {
  const auto pop = popularity::PopularityTable::from_counts(
      {0, 1000, 50, 5, 5, 1000});
  PopularityPpmConfig cfg;
  cfg.min_relative_probability = 0.0;
  PopularityPpm m(cfg, &pop);
  const std::vector<session::Session> train{make_session({1, 2, 3, 5}),
                                            make_session({1, 2, 3, 5})};
  m.train(train);
  ASSERT_FALSE(m.links().empty());

  std::stringstream ss;
  save_model(ss, m);
  auto back = load_popularity(ss, &pop);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->node_count(), m.node_count());
  EXPECT_EQ(back->links().size(), m.links().size());
  const UrlId ctx[] = {1};
  expect_same_predictions(m, *back, ctx);  // includes link predictions
}

TEST(SerializeTree, RejectsDuplicateChildUnderOneParent) {
  std::stringstream ss("webppm-tree v1 3\n1 5 -1\n2 3 0\n2 2 0\n");
  EXPECT_FALSE(load_tree(ss).has_value());
}

TEST(SerializeTree, RejectsDuplicateRoot) {
  std::stringstream ss("webppm-tree v1 2\n1 5 -1\n1 3 -1\n");
  EXPECT_FALSE(load_tree(ss).has_value());
}

TEST(SerializeTree, RejectsNonCanonicalRootParent) {
  // Roots are written as parent -1 exactly; other negatives are hostile.
  std::stringstream ss("webppm-tree v1 1\n1 5 -2\n");
  EXPECT_FALSE(load_tree(ss).has_value());
}

// A hand-written PB payload around a 4-node tree whose node 2 is the only
// depth-3 position:  1 -> 2 -> 3  plus a second root 9.
std::string pb_payload(std::string_view links) {
  std::string s = "webppm-pb v1 1 3 5 7 0.1 8 1 0.05 4 0 0\n";
  s += "webppm-tree v1 4\n1 5 -1\n2 3 0\n3 2 1\n9 9 -1\n";
  s += links;
  return s;
}

TEST(SerializeModel, HandWrittenPbPayloadLoads) {
  // Control for the rejection tests below: the well-formed payload loads.
  const auto pop = popularity::PopularityTable::from_counts(
      {0, 100, 80, 60, 0, 0, 0, 0, 0, 10});
  std::stringstream ss(pb_payload("webppm-links v1 1\n0 1 2\n"));
  const auto m = load_popularity(ss, &pop);
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->node_count(), 4u);
  ASSERT_EQ(m->links().size(), 1u);
}

TEST(SerializeModel, RejectsLinkRootThatIsNotATreeRoot) {
  const auto pop = popularity::PopularityTable::from_counts(
      {0, 100, 80, 60, 0, 0, 0, 0, 0, 10});
  // Node 1 is an interior node; links may only hang off roots.
  std::stringstream ss(pb_payload("webppm-links v1 1\n1 1 2\n"));
  EXPECT_FALSE(load_popularity(ss, &pop).has_value());
}

TEST(SerializeModel, RejectsDuplicateLinkRoots) {
  const auto pop = popularity::PopularityTable::from_counts(
      {0, 100, 80, 60, 0, 0, 0, 0, 0, 10});
  std::stringstream ss(
      pb_payload("webppm-links v1 2\n0 1 2\n0 1 2\n"));
  EXPECT_FALSE(load_popularity(ss, &pop).has_value());
}

TEST(SerializeModel, RejectsDuplicateLinkTargets) {
  const auto pop = popularity::PopularityTable::from_counts(
      {0, 100, 80, 60, 0, 0, 0, 0, 0, 10});
  std::stringstream ss(pb_payload("webppm-links v1 1\n0 2 2 2\n"));
  EXPECT_FALSE(load_popularity(ss, &pop).has_value());
}

TEST(SerializeModel, RejectsShallowLinkTarget) {
  const auto pop = popularity::PopularityTable::from_counts(
      {0, 100, 80, 60, 0, 0, 0, 0, 0, 10});
  // Node 1 sits at depth 2; Rule-3 targets start at depth 3.
  std::stringstream ss(pb_payload("webppm-links v1 1\n0 1 1\n"));
  EXPECT_FALSE(load_popularity(ss, &pop).has_value());
}

TEST(SerializeModel, RejectsOutOfRangeLinkTarget) {
  const auto pop = popularity::PopularityTable::from_counts(
      {0, 100, 80, 60, 0, 0, 0, 0, 0, 10});
  std::stringstream ss(pb_payload("webppm-links v1 1\n0 1 99\n"));
  EXPECT_FALSE(load_popularity(ss, &pop).has_value());
}

TEST(SerializeModel, RejectsLinkTargetOutsideItsRootsSubtree) {
  const auto pop = popularity::PopularityTable::from_counts(
      {0, 100, 80, 60, 0, 0, 0, 0, 0, 10});
  // Node 2 lies under root 0, not under root 3.
  std::stringstream ss(pb_payload("webppm-links v1 1\n3 1 2\n"));
  EXPECT_FALSE(load_popularity(ss, &pop).has_value());
}

TEST(SerializeModel, LinksUnderAChainDeeperThanStoredDepthRankSafely) {
  // One chain 1 -> 2 -> 2 -> ... of 65,540 nodes. A node's stored depth is
  // 16 bits wide and wraps, so the target at real depth 65,539 (node
  // 65,538) reads as depth 3: ranking must size its path by walking it.
  constexpr NodeId kChain = 65'540;
  constexpr NodeId kDeep = 65'538;
  constexpr NodeId kShallow = 2;
  std::string s = "webppm-pb v1 1 3 5 7 0.1 8 1 0.05 4 0 0\n";
  s += "webppm-tree v1 " + std::to_string(kChain) + "\n1 1 -1\n";
  for (NodeId i = 1; i < kChain; ++i) {
    s += "2 1 " + std::to_string(i - 1) + "\n";
  }
  s += "webppm-links v1 1\n0 2 " + std::to_string(kDeep) + " " +
       std::to_string(kShallow) + "\n";
  const auto pop = popularity::PopularityTable::from_counts({0, 100, 80});
  std::stringstream ss(s);
  const auto m = load_popularity(ss, &pop);
  ASSERT_TRUE(m.has_value());
  // Equal counts: the shallow target's path is a prefix of the deep one's,
  // so it ranks first.
  EXPECT_EQ(m->links().at(0), (std::vector<NodeId>{kShallow, kDeep}));
}

TEST(SerializeModel, WrongModelKindRejected) {
  StandardPpm m;
  m.train(small_training());
  std::stringstream ss;
  save_model(ss, m);
  EXPECT_FALSE(load_lrs(ss).has_value());
}

TEST(SerializeModel, FullPipelineRoundTrip) {
  // A realistically sized PB model from the generator round-trips and
  // predicts identically on every training context.
  const auto trace =
      workload::generate_page_trace(workload::nasa_like(2, 0.2));
  const auto sessions = session::extract_sessions(trace.day_slice(0));
  const auto pop = popularity::PopularityTable::build(trace.day_slice(0),
                                                      trace.urls.size());
  PopularityPpm m(PopularityPpmConfig{}, &pop);
  m.train(sessions);

  std::stringstream ss;
  save_model(ss, m);
  auto back = load_popularity(ss, &pop);
  ASSERT_TRUE(back.has_value());
  ASSERT_EQ(back->node_count(), m.node_count());

  std::vector<Prediction> pa, pb;
  for (std::size_t i = 0; i < std::min<std::size_t>(200, sessions.size());
       ++i) {
    m.predict(sessions[i].urls, pa);
    back->predict(sessions[i].urls, pb);
    ASSERT_EQ(pa, pb) << "session " << i;
  }
}

}  // namespace
}  // namespace webppm::ppm
