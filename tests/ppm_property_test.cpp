// Property-based suites: structural invariants of all three models under
// randomly generated training sessions, parameterised over RNG seeds.
#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "ppm/lrs_ppm.hpp"
#include "ppm/pb_base.hpp"
#include "ppm/popularity_ppm.hpp"
#include "ppm/standard_ppm.hpp"
#include "util/rng.hpp"

namespace webppm::ppm {
namespace {

constexpr std::size_t kUrlSpace = 60;

std::vector<session::Session> random_sessions(std::uint64_t seed,
                                              std::size_t count) {
  util::Rng rng(seed);
  // Zipf-ish skew: low ids are much more frequent.
  const auto draw = [&rng]() -> UrlId {
    const double u = rng.uniform();
    return static_cast<UrlId>(u * u * kUrlSpace);
  };
  std::vector<session::Session> out;
  for (std::size_t i = 0; i < count; ++i) {
    session::Session s;
    const auto len = 1 + rng.below(12);
    UrlId prev = kInvalidUrl;
    for (std::size_t k = 0; k < len; ++k) {
      UrlId u = draw();
      if (u == prev) continue;  // sessions are reload-deduped upstream
      s.urls.push_back(u);
      prev = u;
    }
    if (s.urls.empty()) s.urls.push_back(draw());
    out.push_back(std::move(s));
  }
  return out;
}

popularity::PopularityTable popularity_of(
    const std::vector<session::Session>& sessions) {
  std::vector<std::uint32_t> counts(kUrlSpace + 1, 0);
  for (const auto& s : sessions) {
    for (const auto u : s.urls) ++counts[u];
  }
  return popularity::PopularityTable::from_counts(std::move(counts));
}

void check_tree_invariants(const PredictionTree& tree) {
  std::size_t live = 0;
  std::size_t leaves = 0;
  std::size_t reachable_children = 0;
  for (NodeId id = 0;
       id < static_cast<NodeId>(tree.node_count()); ++id) {
    const auto& n = tree.node(id);
    ASSERT_FALSE(n.dead) << "compact trees must hold no tombstones";
    ++live;
    if (n.children.empty()) ++leaves;
    if (n.parent != kNoNode) {
      const auto& p = tree.node(n.parent);
      // Child reachable from its parent under its own URL.
      const NodeId* back = p.children.find(n.url);
      ASSERT_NE(back, nullptr);
      EXPECT_EQ(*back, id);
      EXPECT_EQ(n.depth, p.depth + 1);
      EXPECT_LE(n.count, p.count) << "child traversals exceed parent's";
    } else {
      EXPECT_EQ(n.depth, 1u);
      EXPECT_EQ(tree.find_root(n.url), id);
    }
    n.children.for_each([&](UrlId u, NodeId c) {
      EXPECT_EQ(tree.node(c).url, u);
      EXPECT_EQ(tree.node(c).parent, id);
      ++reachable_children;
    });
  }
  EXPECT_EQ(live, tree.node_count());
  EXPECT_EQ(reachable_children + tree.root_count(), tree.node_count());
  // The maintained leaf count (path_usage's and Fig. 2's denominator).
  EXPECT_EQ(tree.path_usage().total, leaves);
}

/// PB special links, checked against an order the test derives itself:
/// each root's targets strictly by (traversal count desc, root-to-node URL
/// path asc), each target once and inside its root's subtree.
void check_links_ranked(const PopularityPpm& m) {
  const PredictionTree& tree = m.tree();
  for (const auto& [root, targets] : m.links()) {
    ASSERT_EQ(tree.node(root).parent, kNoNode) << "link from a non-root";
    std::vector<NodeId> uniq(targets);
    std::sort(uniq.begin(), uniq.end());
    EXPECT_EQ(std::adjacent_find(uniq.begin(), uniq.end()), uniq.end())
        << "target listed twice under root " << root;
    std::vector<std::pair<std::uint32_t, std::vector<UrlId>>> keys;
    for (const NodeId t : targets) {
      std::vector<UrlId> path;
      NodeId top = t;
      for (NodeId a = t; a != kNoNode; a = tree.node(a).parent) {
        path.push_back(tree.node(a).url);
        top = a;
      }
      EXPECT_EQ(top, root) << "target " << t << " outside its root's subtree";
      std::reverse(path.begin(), path.end());
      keys.emplace_back(tree.node(t).count, std::move(path));
    }
    for (std::size_t i = 1; i < keys.size(); ++i) {
      const auto& [ca, pa] = keys[i - 1];
      const auto& [cb, pb] = keys[i];
      EXPECT_TRUE(ca > cb || (ca == cb && pa < pb))
          << "root " << root << ": targets " << i - 1 << " and " << i
          << " out of rank order (counts " << ca << ", " << cb << ")";
    }
  }
}

void check_predictions_sane(Predictor& model,
                            const std::vector<session::Session>& sessions,
                            double threshold) {
  std::vector<Prediction> out;
  for (const auto& s : sessions) {
    for (std::size_t k = 1; k <= s.urls.size(); ++k) {
      const std::span<const UrlId> ctx(s.urls.data(), k);
      model.predict(ctx, out);
      double total = 0.0;
      UrlId prev_url = kInvalidUrl;
      float prev_p = 2.0f;
      for (const auto& p : out) {
        EXPECT_GE(p.probability, threshold);
        EXPECT_LE(p.probability, 1.0f + 1e-6f);
        EXPECT_NE(p.url, prev_url) << "duplicate prediction";
        EXPECT_LE(p.probability, prev_p) << "not sorted";
        prev_url = p.url;
        prev_p = p.probability;
        total += p.probability;
      }
      // Children of one node sum to <= 1; special links can add more but
      // each is itself <= 1 and links are few.
      EXPECT_LE(total, 8.0);
    }
  }
}

class ModelPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ModelPropertyTest, StandardTreeInvariants) {
  const auto train = random_sessions(GetParam(), 80);
  StandardPpm m;
  m.train(train);
  check_tree_invariants(m.tree());
}

TEST_P(ModelPropertyTest, StandardFixedHeightInvariants) {
  const auto train = random_sessions(GetParam() ^ 0xf00d, 80);
  StandardPpmConfig cfg;
  cfg.max_height = 3;
  StandardPpm m(cfg);
  m.train(train);
  check_tree_invariants(m.tree());
  for (NodeId id = 0; id < static_cast<NodeId>(m.tree().node_count()); ++id) {
    EXPECT_LE(m.tree().node(id).depth, 3u);
  }
}

TEST_P(ModelPropertyTest, LrsTreeInvariants) {
  const auto train = random_sessions(GetParam() ^ 0xabcd, 80);
  LrsPpm m;
  m.train(train);
  check_tree_invariants(m.tree());
  // Every kept node has support >= 2 by construction.
  for (NodeId id = 0; id < static_cast<NodeId>(m.tree().node_count()); ++id) {
    EXPECT_GE(m.tree().node(id).count, 2u);
  }
}

TEST_P(ModelPropertyTest, PopularityTreeInvariantsAfterOptimization) {
  const auto train = random_sessions(GetParam() ^ 0x5151, 80);
  const auto pop = popularity_of(train);
  PopularityPpmConfig cfg;
  PopularityPpm m(cfg, &pop);
  m.train(train);
  check_tree_invariants(m.tree());
  // Height caps respected relative to each branch head's grade.
  for (const auto& [url, root] : m.tree().roots()) {
    const auto cap = cfg.height_by_grade[static_cast<std::size_t>(
        pop.grade(url))];
    std::vector<NodeId> stack{root};
    while (!stack.empty()) {
      const auto id = stack.back();
      stack.pop_back();
      EXPECT_LE(m.tree().node(id).depth, cap);
      m.tree().node(id).children.for_each(
          [&](UrlId, NodeId c) { stack.push_back(c); });
    }
  }
}

TEST_P(ModelPropertyTest, OptimizationOnlyShrinks) {
  const auto train = random_sessions(GetParam() ^ 0x9999, 60);
  const auto pop = popularity_of(train);
  PopularityPpmConfig cfg;
  PbBase raw(cfg, &pop);
  raw.insert(train);
  const PopularityPpm pruned = raw.emit();
  EXPECT_LE(pruned.node_count(), raw.expand().node_count());
  check_tree_invariants(pruned.tree());
}

TEST_P(ModelPropertyTest, PbLinksStayRankedThroughAppendsAndPruning) {
  // The trainers' recipe: grow an unpruned base in appends, and at each
  // publish insert the open tails, emit the pruned model and retract the
  // tails. Sessions are redrawn from a small pool, so once the pool's
  // paths exist, appends only raise counts, unevenly, under roots whose
  // lists gain no link — an order kept up only when a list gains a link
  // goes stale here.
  const auto pool = random_sessions(GetParam() ^ 0x1ead, 60);
  const auto pop = popularity_of(pool);
  util::Rng rng(GetParam());
  const auto draw = [&](std::size_t n) {
    std::vector<session::Session> out;
    for (std::size_t i = 0; i < n; ++i) {
      out.push_back(pool[rng.below(pool.size())]);
    }
    return out;
  };
  for (const std::uint32_t min_count : {0u, 1u}) {  // pb_model, aggressive
    PopularityPpmConfig cfg;
    cfg.min_absolute_count = min_count;
    PopularityPpmConfig unpruned = cfg;
    unpruned.min_relative_probability = 0.0;
    unpruned.min_absolute_count = 0;
    PbBase base(cfg, &pop);
    PbBase whole(unpruned, &pop);
    bool linked = false;
    for (int chunk = 0; chunk < 12; ++chunk) {
      const auto grown = draw(1 + rng.below(40));
      base.insert(grown);
      whole.insert(grown);
      check_links_ranked(whole.emit());

      const auto tails = draw(1 + rng.below(8));
      base.insert(tails);
      const PopularityPpm m = base.emit();
      base.retract(tails);
      check_links_ranked(m);
      check_tree_invariants(m.tree());
      linked = linked || !m.links().empty();
      EXPECT_EQ(base.expand().node_count(), whole.expand().node_count());
    }
    EXPECT_TRUE(linked);
  }
}

TEST_P(ModelPropertyTest, PredictionsAreSaneAcrossModels) {
  const auto train = random_sessions(GetParam() ^ 0x7777, 60);
  const auto probe = random_sessions(GetParam() ^ 0x8888, 10);
  const auto pop = popularity_of(train);

  StandardPpm std_m;
  std_m.train(train);
  check_predictions_sane(std_m, probe, 0.25);

  LrsPpm lrs_m;
  lrs_m.train(train);
  check_predictions_sane(lrs_m, probe, 0.25);

  // PB emits special-link candidates down to its link probability floor.
  PopularityPpm pb_m(PopularityPpmConfig{}, &pop);
  pb_m.train(train);
  check_predictions_sane(pb_m, probe, PopularityPpmConfig{}.link_prob_threshold);
}

TEST_P(ModelPropertyTest, PbNeverLargerThanStandard) {
  const auto train = random_sessions(GetParam() ^ 0x2222, 100);
  const auto pop = popularity_of(train);
  StandardPpm std_m;
  std_m.train(train);
  PopularityPpm pb_m(PopularityPpmConfig{}, &pop);
  pb_m.train(train);
  EXPECT_LE(pb_m.node_count(), std_m.node_count());
}

TEST_P(ModelPropertyTest, DeterministicTraining) {
  const auto train = random_sessions(GetParam() ^ 0x3333, 50);
  StandardPpm a, b;
  a.train(train);
  b.train(train);
  EXPECT_EQ(a.node_count(), b.node_count());
  std::vector<Prediction> oa, ob;
  for (const auto& s : random_sessions(GetParam() ^ 0x4444, 5)) {
    a.predict(s.urls, oa);
    b.predict(s.urls, ob);
    EXPECT_EQ(oa, ob);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ModelPropertyTest,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u, 34u,
                                           55u, 89u));

}  // namespace
}  // namespace webppm::ppm
