// PbBase, PB-PPM's training base: retract undoes insert exactly, a regrade
// equals a rebuild of the window under the new grades, and emit() equals
// pruning a copy of the base by rule 4 with rule-3 links ranked.
#include "ppm/pb_base.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "util/rng.hpp"

namespace webppm::ppm {
namespace {

constexpr std::size_t kUrlSpace = 60;

std::vector<session::Session> random_sessions(util::Rng& rng,
                                              std::size_t count) {
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
      const UrlId u = draw();
      if (u == prev) continue;  // sessions are reload-deduped upstream
      s.urls.push_back(u);
      prev = u;
    }
    if (s.urls.empty()) s.urls.push_back(draw());
    s.times.assign(s.urls.size(), 0);
    out.push_back(std::move(s));
  }
  return out;
}

std::vector<std::uint32_t> counts_of(
    const std::vector<session::Session>& sessions) {
  std::vector<std::uint32_t> counts(kUrlSpace, 0);
  for (const auto& s : sessions) {
    for (const auto u : s.urls) ++counts[u];
  }
  return counts;
}

PopularityPpmConfig prune_config(bool aggressive) {
  PopularityPpmConfig cfg;  // pb_model: relative-probability cut
  if (aggressive) cfg.min_absolute_count = 1;  // pb_model_aggressive
  return cfg;
}

using Path = std::vector<UrlId>;

/// Every live node by its root-to-node URL path, with its count.
std::map<Path, std::uint32_t> paths_of(const PredictionTree& tree) {
  std::map<Path, std::uint32_t> out;
  std::vector<std::pair<NodeId, Path>> stack;
  for (const auto& [url, root] : tree.roots()) stack.push_back({root, {url}});
  while (!stack.empty()) {
    auto [id, path] = std::move(stack.back());
    stack.pop_back();
    out.emplace(path, tree.node(id).count);
    tree.node(id).children.for_each([&](UrlId u, NodeId c) {
      Path p = path;
      p.push_back(u);
      stack.push_back({c, std::move(p)});
    });
  }
  return out;
}

/// Structural invariants of a tree that may hold free slots: everything
/// reachable is live, consistently linked, and the maintained live and
/// leaf counts match what is reachable.
void check_reachable_invariants(const PredictionTree& tree) {
  std::size_t live = 0;
  std::size_t leaves = 0;
  std::vector<NodeId> stack;
  for (const auto& [url, root] : tree.roots()) {
    ASSERT_EQ(tree.node(root).url, url);
    ASSERT_EQ(tree.node(root).parent, kNoNode);
    stack.push_back(root);
  }
  while (!stack.empty()) {
    const NodeId id = stack.back();
    stack.pop_back();
    const TreeNode& n = tree.node(id);
    ASSERT_FALSE(n.dead);
    ASSERT_GT(n.count, 0u);
    ++live;
    if (n.children.empty()) ++leaves;
    n.children.for_each([&](UrlId u, NodeId c) {
      EXPECT_EQ(tree.node(c).url, u);
      EXPECT_EQ(tree.node(c).parent, id);
      EXPECT_EQ(tree.node(c).depth, n.depth + 1);
      EXPECT_LE(tree.node(c).count, n.count);
      stack.push_back(c);
    });
  }
  EXPECT_EQ(live, tree.node_count());
  EXPECT_EQ(leaves, tree.path_usage().total);
}

/// A model's special links as (root URL, target paths in rank order).
std::map<UrlId, std::vector<Path>> links_of(const PopularityPpm& m) {
  const PredictionTree& tree = m.tree();
  std::map<UrlId, std::vector<Path>> out;
  for (const auto& [root, targets] : m.links()) {
    auto& row = out[tree.node(root).url];
    for (const NodeId t : targets) {
      Path p;
      for (NodeId a = t; a != kNoNode; a = tree.node(a).parent) {
        p.push_back(tree.node(a).url);
      }
      std::reverse(p.begin(), p.end());
      row.push_back(std::move(p));
    }
  }
  return out;
}

void expect_same_base(const PbBase& a, const PbBase& b) {
  EXPECT_EQ(paths_of(a.tree()), paths_of(b.tree()));
  EXPECT_EQ(a.tree().node_count(), b.tree().node_count());
  EXPECT_EQ(a.tree().root_count(), b.tree().root_count());
  EXPECT_EQ(a.tree().path_usage().total, b.tree().path_usage().total);
  EXPECT_EQ(a.tree().total_root_count(), b.tree().total_root_count());
}

void expect_same_model(const PopularityPpm& a, const PopularityPpm& b) {
  EXPECT_EQ(paths_of(a.tree()), paths_of(b.tree()));
  EXPECT_EQ(a.node_count(), b.node_count());
  EXPECT_EQ(links_of(a), links_of(b));
}

/// The model the trainers published before PbBase existed, rebuilt by
/// hand: copy the unpruned tree, cut it top-down by rule 4 (a cut node
/// takes its subtree along), link every surviving depth>=3 node whose
/// URL's grade is above its root's or is the top grade, and rank each
/// root's list by (count desc, root-to-node URL path asc).
std::pair<std::map<Path, std::uint32_t>, std::map<UrlId, std::vector<Path>>>
copy_prune_reference(const PbBase& base) {
  const PopularityPpmConfig& cfg = base.config();
  const auto& grades = base.grades();
  PredictionTree copy = base.tree();
  std::vector<NodeId> stack;
  for (const auto& [url, root] : copy.roots()) stack.push_back(root);
  while (!stack.empty()) {
    const NodeId id = stack.back();
    stack.pop_back();
    std::vector<NodeId> cut;
    copy.node(id).children.for_each([&](UrlId, NodeId c) {
      const double share = static_cast<double>(copy.node(c).count) /
                           static_cast<double>(copy.node(id).count);
      const bool by_count = cfg.min_absolute_count > 0 &&
                            copy.node(c).count <= cfg.min_absolute_count;
      const bool by_share = cfg.min_relative_probability > 0.0 &&
                            share < cfg.min_relative_probability;
      (by_count || by_share ? cut : stack).push_back(c);
    });
    for (const NodeId c : cut) copy.release(c);
  }
  auto paths = paths_of(copy);

  std::map<UrlId, std::vector<std::pair<std::uint32_t, Path>>> ranked;
  for (const auto& [path, count] : paths) {
    const int g = grades.grade(path.back());
    if (cfg.special_links && path.size() >= 3 &&
        (g > grades.grade(path.front()) || g == popularity::kMaxGrade)) {
      ranked[path.front()].push_back({count, path});
    }
  }
  std::map<UrlId, std::vector<Path>> links;
  for (auto& [root, row] : ranked) {
    std::sort(row.begin(), row.end(), [](const auto& a, const auto& b) {
      return a.first != b.first ? a.first > b.first : a.second < b.second;
    });
    for (auto& entry : row) links[root].push_back(std::move(entry.second));
  }
  return {std::move(paths), std::move(links)};
}

class PbBaseTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PbBaseTest, RegradeEqualsRebuildUnderRandomGradeDrift) {
  for (const bool aggressive : {false, true}) {
    SCOPED_TRACE(aggressive ? "pb_model_aggressive" : "pb_model");
    const PopularityPpmConfig cfg = prune_config(aggressive);
    util::Rng rng(GetParam());
    auto window = random_sessions(rng, 80);
    auto counts = counts_of(window);
    // Tables stay alive for the whole run: a base reads the table it was
    // moved to, and a regrade retracts under the previous one.
    std::vector<std::unique_ptr<popularity::PopularityTable>> tables;
    tables.push_back(std::make_unique<popularity::PopularityTable>(
        popularity::PopularityTable::from_counts(counts)));
    PbBase base(cfg, tables.back().get());
    base.insert(window);

    std::size_t local_rounds = 0;
    for (int round = 0; round < 8; ++round) {
      // Drift: rescale a few URLs' counts, so some grades move and most
      // stay; now and then rescale the top URL, which moves many.
      for (std::size_t u = 0; u < counts.size(); ++u) {
        if (rng.below(6) == 0) {
          counts[u] = static_cast<std::uint32_t>(
              counts[u] * (1 + rng.below(40)) / 8 + rng.below(3));
        }
      }
      tables.push_back(std::make_unique<popularity::PopularityTable>(
          popularity::PopularityTable::from_counts(counts)));
      const auto* next = tables.back().get();
      const bool drifted = base.drifted(*next);
      const std::size_t regraded = base.regrade(next, window);
      EXPECT_EQ(regraded != 0, drifted);
      if (regraded != 0 && regraded < window.size()) ++local_rounds;

      PbBase rebuilt(cfg, next);
      rebuilt.insert(window);
      expect_same_base(base, rebuilt);
      check_reachable_invariants(base.tree());
      expect_same_model(base.emit(), rebuilt.emit());

      // Grow the window under the new grades, as a trainer's next day does.
      const auto day = random_sessions(rng, 10);
      base.insert(day);
      window.insert(window.end(), day.begin(), day.end());
    }
    // The local path ran: some drifts re-walked part of the window only.
    EXPECT_GT(local_rounds, 0u);
  }
}

TEST_P(PbBaseTest, EmitMatchesCopyPruneReference) {
  bool linked = false;
  for (const bool aggressive : {false, true}) {
    SCOPED_TRACE(aggressive ? "pb_model_aggressive" : "pb_model");
    util::Rng rng(GetParam() ^ 0xe317);
    const auto sessions = random_sessions(rng, 400);
    const auto pop = popularity::PopularityTable::from_counts(
        counts_of(sessions));
    PbBase base(prune_config(aggressive), &pop);
    base.insert(sessions);
    // Free slots in the base must not matter: retract and re-add a part.
    const std::span<const session::Session> part(sessions.data(), 100);
    base.retract(part);
    base.insert(part);

    const PopularityPpm m = base.emit();
    const auto [paths, links] = copy_prune_reference(base);
    EXPECT_EQ(paths_of(m.tree()), paths);
    EXPECT_EQ(links_of(m), links);
    EXPECT_LT(m.node_count(), base.tree().node_count());
    linked = linked || !links.empty();
  }
  EXPECT_TRUE(linked);
}

TEST_P(PbBaseTest, InsertThenRetractRestoresBase) {
  util::Rng rng(GetParam() ^ 0x4e7);
  const auto window = random_sessions(rng, 60);
  const auto extra = random_sessions(rng, 40);
  auto all = window;
  all.insert(all.end(), extra.begin(), extra.end());
  const auto pop = popularity::PopularityTable::from_counts(counts_of(all));
  PbBase base(PopularityPpmConfig{}, &pop);
  base.insert(window);
  const auto paths = paths_of(base.tree());
  const auto live = base.tree().node_count();
  const auto leaves = base.tree().path_usage().total;
  const auto roots = base.tree().root_count();
  const auto root_total = base.tree().total_root_count();

  for (int rep = 0; rep < 3; ++rep) {  // freed slots are reused each time
    base.insert(extra);
    base.retract(extra);
    EXPECT_EQ(paths_of(base.tree()), paths);
    EXPECT_EQ(base.tree().node_count(), live);
    EXPECT_EQ(base.tree().path_usage().total, leaves);
    EXPECT_EQ(base.tree().root_count(), roots);
    EXPECT_EQ(base.tree().total_root_count(), root_total);
    check_reachable_invariants(base.tree());
  }

  // Retracting everything empties the base.
  base.retract(window);
  EXPECT_EQ(base.tree().node_count(), 0u);
  EXPECT_EQ(base.tree().root_count(), 0u);
  EXPECT_EQ(base.tree().path_usage().total, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PbBaseTest,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u, 34u,
                                           55u, 89u));

TEST(PbBase, RegradeWithoutDriftRewalksNothing) {
  util::Rng rng(7);
  const auto window = random_sessions(rng, 40);
  const auto a = popularity::PopularityTable::from_counts(counts_of(window));
  auto more = counts_of(window);
  for (auto& c : more) c *= 2;  // every share, so every grade, is unchanged
  const auto b = popularity::PopularityTable::from_counts(more);
  PbBase base(PopularityPpmConfig{}, &a);
  base.insert(window);
  EXPECT_FALSE(base.drifted(b));
  EXPECT_EQ(base.regrade(&b, window), 0u);
  EXPECT_EQ(&base.grades(), &b);
}

}  // namespace
}  // namespace webppm::ppm
