// PbBase, PB-PPM's training base: retract undoes insert exactly, a regrade
// equals a rebuild of the window under the new grades (and a regrade that
// names only the sessions that hold a moved URL equals one that names the
// whole window), and emit() equals pruning a copy of the base by rule 4 with
// rule-3 links ranked. The tail form: under any sequence of edits the base
// expands to the tree a plain node-per-node PredictionTree holds, and
// stores the shape a fresh base holding the same sessions stores.
#include "ppm/pb_base.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <map>
#include <memory>
#include <numeric>
#include <span>
#include <utility>
#include <vector>

#include "pb_reference.hpp"
#include "session/session.hpp"
#include "util/rng.hpp"
#include "workload/generator.hpp"

namespace webppm::ppm {
namespace {

using pbtest::contents_of;
using pbtest::copy_prune_reference;
using pbtest::PbContents;
using pbtest::paths_of;

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

/// Every position of `window`: a regrade that re-walks all of it.
std::vector<std::uint32_t> all_of(std::span<const session::Session> window) {
  std::vector<std::uint32_t> positions(window.size());
  std::iota(positions.begin(), positions.end(), 0u);
  return positions;
}

PopularityPpmConfig prune_config(bool aggressive) {
  PopularityPpmConfig cfg;  // pb_model: relative-probability cut
  if (aggressive) cfg.min_absolute_count = 1;  // pb_model_aggressive
  return cfg;
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

void expect_same_base(const PbBase& a, const PbBase& b) {
  EXPECT_EQ(paths_of(a.expand()), paths_of(b.expand()));
  EXPECT_EQ(a.expand().node_count(), b.expand().node_count());
  EXPECT_EQ(a.expand().root_count(), b.expand().root_count());
  EXPECT_EQ(a.expand().path_usage().total, b.expand().path_usage().total);
  EXPECT_EQ(a.expand().total_root_count(), b.expand().total_root_count());
}

/// True when some URL's grade differs between the two tables.
bool grades_differ(const popularity::PopularityTable& a,
                   const popularity::PopularityTable& b) {
  for (UrlId u = 0; u < std::max(a.url_count(), b.url_count()); ++u) {
    if (a.grade(u) != b.grade(u)) return true;
  }
  return false;
}

/// The emitted model's nodes and links, checked against the hand-pruned
/// copy of the base.
void expect_emit_matches_reference(const PbBase& base) {
  const PbContents want = copy_prune_reference(base);
  const PbContents got = contents_of(*pbtest::open_pb(base));
  EXPECT_EQ(got.paths, want.paths);
  EXPECT_EQ(got.links, want.links);
}

/// {materialised nodes, tails, live pool words}.
std::array<std::size_t, 3> shape_of(const PbBase& base) {
  const PbBase::Shape shape = base.shape();
  return {shape.nodes, shape.tails, shape.pooled};
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
    // A twin regraded through only the sessions that hold a moved URL, as
    // IncrementalModel's URL index names them.
    PbBase indexed(cfg, tables.back().get());
    indexed.insert(window);

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
      const popularity::PopularityTable& prev = base.grades();
      const bool drifted = grades_differ(prev, *next);
      std::vector<std::uint32_t> holding;
      for (std::size_t i = 0; i < window.size(); ++i) {
        const auto& urls = window[i].urls;
        if (std::any_of(urls.begin(), urls.end(), [&](UrlId u) {
              return prev.grade(u) != next->grade(u);
            })) {
          holding.push_back(static_cast<std::uint32_t>(i));
        }
      }
      const std::size_t regraded = base.regrade(next, window, all_of(window));
      EXPECT_EQ(regraded != 0, drifted);
      if (regraded != 0 && regraded < window.size()) ++local_rounds;
      EXPECT_EQ(indexed.regrade(next, window, holding), regraded);
      EXPECT_EQ(shape_of(indexed), shape_of(base));
      EXPECT_EQ(indexed.emit(), base.emit());

      PbBase rebuilt(cfg, next);
      rebuilt.insert(window);
      expect_same_base(base, rebuilt);
      check_reachable_invariants(base.expand());
      EXPECT_EQ(base.emit(), rebuilt.emit());

      // Grow the window under the new grades, as a trainer's next day does.
      const auto day = random_sessions(rng, 10);
      base.insert(day);
      indexed.insert(day);
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

    expect_emit_matches_reference(base);
    EXPECT_LT(pbtest::open_pb(base)->node_count(),
              base.expand().node_count());
    linked = linked || !copy_prune_reference(base).links.empty();
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
  const auto paths = paths_of(base.expand());
  const auto live = base.expand().node_count();
  const auto leaves = base.expand().path_usage().total;
  const auto roots = base.expand().root_count();
  const auto root_total = base.expand().total_root_count();

  for (int rep = 0; rep < 3; ++rep) {  // freed slots are reused each time
    base.insert(extra);
    base.retract(extra);
    EXPECT_EQ(paths_of(base.expand()), paths);
    EXPECT_EQ(base.expand().node_count(), live);
    EXPECT_EQ(base.expand().path_usage().total, leaves);
    EXPECT_EQ(base.expand().root_count(), roots);
    EXPECT_EQ(base.expand().total_root_count(), root_total);
    check_reachable_invariants(base.expand());
  }

  // Retracting everything empties the base.
  base.retract(window);
  EXPECT_EQ(base.expand().node_count(), 0u);
  EXPECT_EQ(base.expand().root_count(), 0u);
  EXPECT_EQ(base.expand().path_usage().total, 0u);
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
  EXPECT_FALSE(grades_differ(a, b));
  EXPECT_EQ(base.regrade(&b, window, all_of(window)), 0u);
  EXPECT_EQ(&base.grades(), &b);
}

// ---------------------------------------------------------------------------
// The tail form.

/// Every node of a tree, canonically: roots and each child list in URL
/// order, depth first, as (url, count, child count) triples. Linear in the
/// tree, so it also compares chains too deep for paths_of().
std::vector<std::uint32_t> canonical(const PredictionTree& tree) {
  const auto sorted_desc = [](std::vector<std::pair<UrlId, NodeId>>& v) {
    std::sort(v.rbegin(), v.rend());  // the smallest URL is popped first
  };
  std::vector<std::pair<UrlId, NodeId>> level(tree.roots().begin(),
                                              tree.roots().end());
  sorted_desc(level);
  std::vector<NodeId> stack;
  for (const auto& [url, id] : level) stack.push_back(id);
  std::vector<std::uint32_t> out;
  while (!stack.empty()) {
    const TreeNode& n = tree.node(stack.back());
    stack.pop_back();
    out.insert(out.end(), {n.url, n.count,
                           static_cast<std::uint32_t>(n.children.size())});
    level.clear();
    n.children.for_each([&](UrlId u, NodeId c) { level.push_back({u, c}); });
    sorted_desc(level);
    for (const auto& [url, id] : level) stack.push_back(id);
  }
  return out;
}

/// The base as it was kept before the tail form: a plain PredictionTree
/// holding every node of every branch, edited node by node, with branches
/// cut by rules 1-2 exactly as PbBase cuts them.
class TreeOracle {
 public:
  explicit TreeOracle(const PopularityPpmConfig& cfg) : cfg_(cfg) {}

  void insert(const popularity::PopularityTable& grades,
              std::span<const session::Session> sessions) {
    walk(grades, sessions, true);
  }
  void retract(const popularity::PopularityTable& grades,
               std::span<const session::Session> sessions) {
    walk(grades, sessions, false);
  }
  const PredictionTree& tree() const { return tree_; }

 private:
  void walk(const popularity::PopularityTable& grades,
            std::span<const session::Session> sessions, bool add) {
    for (const auto& s : sessions) {
      const std::span<const UrlId> urls = s.urls;
      for (std::size_t i = 0; i < urls.size(); ++i) {
        const int g = grades.grade(urls[i]);
        if (i != 0 && g <= grades.grade(urls[i - 1])) continue;
        const auto path = urls.subspan(
            i, std::min<std::size_t>(
                   cfg_.height_by_grade[static_cast<std::size_t>(g)],
                   urls.size() - i));
        if (add) {
          NodeId id = tree_.root_or_add(path[0]);
          for (std::size_t k = 1; k < path.size(); ++k) {
            id = tree_.child_or_add(id, path[k]);
          }
          continue;
        }
        NodeId id = tree_.find_root(path[0]);
        for (std::size_t k = 0; k < path.size(); ++k) {
          if (k != 0) id = tree_.find_child(id, path[k]);
          ASSERT_NE(id, kNoNode);
          if (--tree_.node(id).count == 0) {
            tree_.release(id);
            break;
          }
        }
      }
    }
  }

  PopularityPpmConfig cfg_;
  PredictionTree tree_;
};

/// What every edit leaves: the base expands to the oracle's tree and
/// stores the shape of a fresh base holding `held`.
void expect_matches(const PbBase& base, const TreeOracle& oracle,
                    std::span<const session::Session> held) {
  EXPECT_EQ(canonical(base.expand()), canonical(oracle.tree()));
  EXPECT_EQ(base.node_count(), oracle.tree().node_count());
  PbBase fresh(base.config(), &base.grades());
  fresh.insert(held);
  EXPECT_EQ(shape_of(base), shape_of(fresh));
  EXPECT_EQ(base.shape().nodes + base.shape().pooled, base.node_count());
}

class PbBaseTailForm : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PbBaseTailForm, RandomEditsMatchTheOracle) {
  for (const bool aggressive : {false, true}) {
    SCOPED_TRACE(aggressive ? "pb_model_aggressive" : "pb_model");
    const PopularityPpmConfig cfg = prune_config(aggressive);
    util::Rng rng(GetParam() ^ 0x7a11);
    std::vector<session::Session> held = random_sessions(rng, 30);
    auto counts = counts_of(held);
    std::vector<std::unique_ptr<popularity::PopularityTable>> tables;
    tables.push_back(std::make_unique<popularity::PopularityTable>(
        popularity::PopularityTable::from_counts(counts)));
    PbBase base(cfg, tables.back().get());
    TreeOracle oracle(cfg);
    base.insert(held);
    oracle.insert(*tables.back(), held);

    for (int step = 0; step < 40; ++step) {
      const auto& grades = *tables.back();
      switch (rng.below(4)) {
        case 0: {  // a day's new sessions
          const auto batch = random_sessions(rng, 1 + rng.below(20));
          base.insert(batch);
          oracle.insert(grades, batch);
          held.insert(held.end(), batch.begin(), batch.end());
          break;
        }
        case 1: {  // evict a random part of the window
          std::vector<session::Session> gone;
          for (std::size_t k = rng.below(held.size() / 2 + 1); k > 0; --k) {
            const auto i = static_cast<std::ptrdiff_t>(rng.below(held.size()));
            gone.push_back(std::move(held[static_cast<std::size_t>(i)]));
            held.erase(held.begin() + i);
          }
          base.retract(gone);
          oracle.retract(grades, gone);
          break;
        }
        case 2: {  // grade drift
          for (auto& c : counts) {
            if (rng.below(5) == 0) {
              c = static_cast<std::uint32_t>(c * (1 + rng.below(30)) / 8 +
                                             rng.below(3));
            }
          }
          tables.push_back(std::make_unique<popularity::PopularityTable>(
              popularity::PopularityTable::from_counts(counts)));
          oracle.retract(grades, held);
          oracle.insert(*tables.back(), held);
          base.regrade(tables.back().get(), held, all_of(held));
          break;
        }
        default: {  // a publish: open tails go in around the emit
          const auto tails = random_sessions(rng, 1 + rng.below(6));
          base.insert(tails);
          oracle.insert(grades, tails);
          auto with_tails = held;
          with_tails.insert(with_tails.end(), tails.begin(), tails.end());
          expect_matches(base, oracle, with_tails);
          expect_emit_matches_reference(base);
          base.retract(tails);
          oracle.retract(grades, tails);
          break;
        }
      }
      expect_matches(base, oracle, held);
      if (::testing::Test::HasFailure()) return;
    }

    // Emptied in a random order, nothing is left.
    const auto& grades = *tables.back();
    std::vector<session::Session> all = held;
    while (!held.empty()) {
      std::vector<session::Session> gone;
      for (std::size_t k = 1 + rng.below(8); k > 0 && !held.empty(); --k) {
        const auto i = static_cast<std::ptrdiff_t>(rng.below(held.size()));
        gone.push_back(std::move(held[static_cast<std::size_t>(i)]));
        held.erase(held.begin() + i);
      }
      base.retract(gone);
      oracle.retract(grades, gone);
      expect_matches(base, oracle, held);
    }
    EXPECT_EQ(shape_of(base), (std::array<std::size_t, 3>{0, 0, 0}));
    EXPECT_EQ(base.node_count(), 0u);
    EXPECT_EQ(base.expand().node_count(), 0u);

    // A base refilled with sessions it held before reuses its storage,
    // and so does one that held nothing else: its first fill leaves little
    // slack, so space that is never reclaimed shows within a few refills.
    PbBase fresh(cfg, &grades);
    for (PbBase* b : {&base, &fresh}) {
      b->insert(all);
      const std::size_t filled = b->memory_bytes();
      for (int rep = 0; rep < 8; ++rep) {
        b->retract(all);
        b->insert(all);
        ASSERT_LE(b->memory_bytes(), filled) << "refill " << rep;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PbBaseTailForm,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u, 34u,
                                           55u, 89u));

/// Sessions of the given URL lists.
std::vector<session::Session> sessions_of(
    std::initializer_list<std::vector<UrlId>> lists) {
  std::vector<session::Session> out;
  for (const auto& urls : lists) {
    session::Session s;
    s.urls = urls;
    out.push_back(std::move(s));
  }
  return out;
}

TEST(PbBaseTail, SplitsAtEachPositionOfATail) {
  // URL 1 is the only popular URL: every branch is a whole session.
  const auto grades = popularity::PopularityTable::from_counts({0, 10});
  const PopularityPpmConfig cfg = prune_config(false);
  const auto held = sessions_of({{1, 2, 3, 4, 5}});  // root 1, tail 2 3 4 5
  struct Case {
    const char* what;
    std::vector<UrlId> probe;
    std::array<std::size_t, 3> shape;  // nodes, tails, pooled
  };
  const Case cases[] = {
      {"split at the tail's first URL", {1, 2, 9}, {2, 2, 4}},
      {"split in the tail's middle", {1, 2, 3, 9}, {3, 2, 3}},
      {"split at the tail's last URL", {1, 2, 3, 4, 9}, {4, 2, 2}},
      {"branch runs past the tail", {1, 2, 3, 4, 5, 9}, {5, 1, 1}},
      {"branch ends inside the tail", {1, 2, 3}, {3, 1, 2}},
      {"branch equals the tail's run", {1, 2, 3, 4, 5}, {5, 0, 0}},
      {"branch ends at the root", {1}, {1, 1, 4}},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.what);
    PbBase base(cfg, &grades);
    TreeOracle oracle(cfg);
    base.insert(held);
    oracle.insert(grades, held);
    EXPECT_EQ(shape_of(base), (std::array<std::size_t, 3>{1, 1, 4}));
    const auto probe = sessions_of({c.probe});
    base.insert(probe);
    oracle.insert(grades, probe);
    auto both = held;
    both.insert(both.end(), probe.begin(), probe.end());
    expect_matches(base, oracle, both);
    EXPECT_EQ(shape_of(base), c.shape);
    expect_emit_matches_reference(base);
    // Retracting the probe folds the shared run back into one tail.
    base.retract(probe);
    oracle.retract(grades, probe);
    expect_matches(base, oracle, held);
    EXPECT_EQ(shape_of(base), (std::array<std::size_t, 3>{1, 1, 4}));
    base.retract(held);
    EXPECT_EQ(shape_of(base), (std::array<std::size_t, 3>{0, 0, 0}));
  }
}

TEST(PbBaseTail, RootWithASpilledChildMap) {
  // Root 1 gets 12 children, more than any child map keeps inline; some
  // are single tails, some split, and they come and go in mixed order.
  const auto grades = popularity::PopularityTable::from_counts({0, 10});
  const PopularityPpmConfig cfg = prune_config(false);
  std::vector<session::Session> held;
  for (UrlId k = 2; k < 14; ++k) {
    const auto s = sessions_of({{1, k, k + 20, k + 40},
                                {1, k, k + 20, 99 - k}});
    held.insert(held.end(), s.begin(), s.begin() + (k % 3 == 0 ? 2 : 1));
  }
  PbBase base(cfg, &grades);
  TreeOracle oracle(cfg);
  base.insert(held);
  oracle.insert(grades, held);
  expect_matches(base, oracle, held);
  const PredictionTree expanded = base.expand();
  EXPECT_EQ(expanded.node(expanded.find_root(1)).children.size(), 12u);
  util::Rng rng(11);
  while (!held.empty()) {
    const auto i = static_cast<std::ptrdiff_t>(rng.below(held.size()));
    const std::vector<session::Session> gone{held[static_cast<std::size_t>(i)]};
    held.erase(held.begin() + i);
    base.retract(gone);
    oracle.retract(grades, gone);
    expect_matches(base, oracle, held);
    if (rng.below(3) == 0) {  // and one comes back, splitting again
      base.insert(gone);
      oracle.insert(grades, gone);
      held.push_back(gone[0]);
      expect_matches(base, oracle, held);
    }
  }
  EXPECT_EQ(shape_of(base), (std::array<std::size_t, 3>{0, 0, 0}));
}

TEST(PbBaseTail, TailLongerThanTheSixteenBitDepth) {
  // A height cap above 65,535 lets one branch run 70,000 clicks: a tail
  // that long, then split near its end and folded back.
  constexpr std::size_t kLength = 70'000;
  const auto grades = popularity::PopularityTable::from_counts({0, 10});
  PopularityPpmConfig cfg = prune_config(false);
  cfg.height_by_grade[popularity::kMaxGrade] = kLength;
  session::Session a;
  a.urls.push_back(1);
  for (std::size_t i = 1; i < kLength; ++i) {
    a.urls.push_back(static_cast<UrlId>(2 + i % 50));
  }
  session::Session b = a;
  b.urls.back() = 99;  // diverges at the last click
  const std::vector<session::Session> one{a};
  const std::vector<session::Session> two{a, b};

  PbBase base(cfg, &grades);
  TreeOracle oracle(cfg);
  base.insert(one);
  oracle.insert(grades, one);
  expect_matches(base, oracle, one);
  EXPECT_EQ(shape_of(base),
            (std::array<std::size_t, 3>{1, 1, kLength - 1}));

  const std::vector<session::Session> more{b};
  base.insert(more);
  oracle.insert(grades, more);
  expect_matches(base, oracle, two);
  EXPECT_EQ(shape_of(base),
            (std::array<std::size_t, 3>{kLength - 1, 2, 2}));
  EXPECT_EQ(pbtest::open_pb(base)->node_count(), kLength + 1);

  base.retract(more);
  oracle.retract(grades, more);
  expect_matches(base, oracle, one);
  base.retract(one);
  EXPECT_EQ(shape_of(base), (std::array<std::size_t, 3>{0, 0, 0}));
}

TEST(PbBaseTail, UcbWindowTakesAFifthOfItsExpandedBytes) {
  // A ucb-like trainer window: 8 days of the batch_online benchmark's
  // trace (ucb_like(10, 2.0), seed 1), sessions settled at the day-8
  // boundary, grades counted over the same requests.
  auto wl = workload::ucb_like(10, 2.0);
  wl.population.seed = 1;
  const auto trace = workload::generate_page_trace(wl);
  const auto requests = trace.day_range(0, 7);
  std::vector<std::uint32_t> counts(trace.urls.size(), 0);
  for (const auto& r : requests) ++counts[r.url];
  session::IncrementalSessionizer sessionizer;
  sessionizer.feed(requests);
  sessionizer.settle_before(8 * kSecondsPerDay);
  const auto window = sessionizer.take_closed();
  const auto grades = popularity::PopularityTable::from_counts(counts);

  PbBase base(prune_config(true), &grades);
  base.insert(window);
  const PredictionTree expanded = base.expand();
  EXPECT_EQ(base.node_count(), expanded.node_count());
  EXPECT_GT(expanded.node_count(), 200'000u);
  EXPECT_LE(base.memory_bytes() * 5, expanded.memory_bytes())
      << base.memory_bytes() << " B against " << expanded.memory_bytes();
}

}  // namespace
}  // namespace webppm::ppm
