// Reference-implementation cross-checks: naive, obviously-correct
// transcriptions of the paper's algorithms, compared against the optimised
// library implementations on randomized inputs.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <vector>

#include "ppm/lrs_ppm.hpp"
#include "ppm/popularity_ppm.hpp"
#include "util/rng.hpp"

namespace webppm::ppm {
namespace {

std::vector<session::Session> random_sessions(std::uint64_t seed,
                                              std::size_t count,
                                              std::size_t url_space) {
  util::Rng rng(seed);
  std::vector<session::Session> out;
  for (std::size_t i = 0; i < count; ++i) {
    session::Session s;
    const auto len = 1 + rng.below(7);
    UrlId prev = kInvalidUrl;
    for (std::size_t k = 0; k < len; ++k) {
      const auto u = static_cast<UrlId>(rng.below(url_space));
      if (u == prev) continue;
      s.urls.push_back(u);
      prev = u;
    }
    if (s.urls.empty()) s.urls.push_back(0);
    out.push_back(std::move(s));
  }
  return out;
}

// ---------------------------------------------------------------------------
// Brute-force LRS: enumerate every contiguous subsequence of every session,
// count occurrences (a window tree would do the same), keep sequences with
// count >= 2, then discard any sequence that has a repeating right-extension
// (maximality). This mirrors Pitkow-Pirolli's definition directly.
std::set<std::vector<UrlId>> brute_force_lrs(
    const std::vector<session::Session>& sessions,
    std::uint32_t min_support) {
  std::map<std::vector<UrlId>, std::uint32_t> counts;
  for (const auto& s : sessions) {
    for (std::size_t i = 0; i < s.urls.size(); ++i) {
      std::vector<UrlId> seq;
      for (std::size_t j = i; j < s.urls.size(); ++j) {
        seq.push_back(s.urls[j]);
        ++counts[seq];
      }
    }
  }
  std::set<std::vector<UrlId>> result;
  for (const auto& [seq, count] : counts) {
    if (count < min_support || seq.size() < 2) continue;
    // Maximal if no single-URL right-extension is also repeating.
    bool maximal = true;
    for (const auto& [other, other_count] : counts) {
      if (other_count < min_support) continue;
      if (other.size() == seq.size() + 1 &&
          std::equal(seq.begin(), seq.end(), other.begin())) {
        maximal = false;
        break;
      }
    }
    if (maximal) result.insert(seq);
  }
  return result;
}

class LrsReferenceTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LrsReferenceTest, PatternsMatchBruteForce) {
  const auto sessions = random_sessions(GetParam(), 25, 8);
  LrsPpm m;
  m.train(sessions);
  const auto expected = brute_force_lrs(sessions, 2);
  const std::set<std::vector<UrlId>> actual(m.patterns().begin(),
                                            m.patterns().end());
  EXPECT_EQ(actual, expected);
}

INSTANTIATE_TEST_SUITE_P(Seeds, LrsReferenceTest,
                         ::testing::Values(101u, 202u, 303u, 404u, 505u,
                                           606u, 707u, 808u));

// ---------------------------------------------------------------------------
// Reference PB-PPM builder: a direct, unoptimised transcription of §3.4's
// four rules, producing the set of root-paths plus special links as plain
// URL sequences, compared against the tree the real model builds.
struct ReferencePb {
  std::set<std::vector<UrlId>> paths;  // every root-path prefix in the tree
  // (root url, linked url at depth >= 3) pairs
  std::set<std::pair<UrlId, UrlId>> links;
};

ReferencePb reference_pb(const std::vector<session::Session>& sessions,
                         const popularity::PopularityTable& pop,
                         const std::array<std::uint32_t, 4>& heights) {
  ReferencePb ref;
  for (const auto& s : sessions) {
    // Open branches as explicit URL paths.
    struct Branch {
      std::vector<UrlId> path;
      int head_grade;
    };
    std::vector<Branch> open;
    int prev_grade = 0;
    for (std::size_t i = 0; i < s.urls.size(); ++i) {
      const UrlId u = s.urls[i];
      const int g = pop.grade(u);
      std::vector<Branch> next;
      for (auto& b : open) {
        const auto cap = heights[static_cast<std::size_t>(b.head_grade)];
        if (b.path.size() >= cap) continue;
        Branch nb = b;
        nb.path.push_back(u);
        ref.paths.insert(nb.path);
        if (nb.path.size() >= 3 &&
            (g > b.head_grade || g == popularity::kMaxGrade)) {
          ref.links.insert({nb.path.front(), u});
        }
        next.push_back(std::move(nb));
      }
      if (i == 0 || g > prev_grade) {
        Branch nb{{u}, g};
        ref.paths.insert(nb.path);
        next.push_back(std::move(nb));
      }
      open.swap(next);
      prev_grade = g;
    }
  }
  return ref;
}

void collect_tree_paths(const PredictionTree& tree,
                        std::set<std::vector<UrlId>>& out) {
  struct Frame {
    NodeId node;
    std::size_t len;
  };
  std::vector<UrlId> path;
  for (const auto& [url, root] : tree.roots()) {
    std::vector<Frame> stack{{root, 0}};
    while (!stack.empty()) {
      const auto [node, len] = stack.back();
      stack.pop_back();
      path.resize(len);
      path.push_back(tree.node(node).url);
      out.insert(path);
      tree.node(node).children.for_each([&](UrlId, NodeId c) {
        stack.push_back({c, path.size()});
      });
    }
  }
}

class PbReferenceTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PbReferenceTest, TreePathsMatchRuleTranscription) {
  const auto sessions = random_sessions(GetParam() ^ 0xdead, 30, 12);
  std::vector<std::uint32_t> counts(12, 0);
  for (const auto& s : sessions) {
    for (const auto u : s.urls) ++counts[u];
  }
  const auto pop = popularity::PopularityTable::from_counts(counts);

  PopularityPpmConfig cfg;
  cfg.min_relative_probability = 0.0;  // compare unpruned structure
  cfg.min_absolute_count = 0;
  PopularityPpm m(cfg, &pop);
  m.train(sessions);

  const auto ref = reference_pb(sessions, pop, cfg.height_by_grade);

  std::set<std::vector<UrlId>> tree_paths;
  collect_tree_paths(m.tree(), tree_paths);
  EXPECT_EQ(tree_paths, ref.paths);

  std::set<std::pair<UrlId, UrlId>> tree_links;
  for (const auto& [root, targets] : m.links()) {
    for (const auto t : targets) {
      tree_links.insert({m.tree().node(root).url, m.tree().node(t).url});
    }
  }
  EXPECT_EQ(tree_links, ref.links);
}

TEST_P(PbReferenceTest, NodeCountEqualsDistinctPaths) {
  const auto sessions = random_sessions(GetParam() ^ 0xbead, 30, 12);
  std::vector<std::uint32_t> counts(12, 0);
  for (const auto& s : sessions) {
    for (const auto u : s.urls) ++counts[u];
  }
  const auto pop = popularity::PopularityTable::from_counts(counts);
  PopularityPpmConfig cfg;
  cfg.min_relative_probability = 0.0;
  PopularityPpm m(cfg, &pop);
  m.train(sessions);
  std::set<std::vector<UrlId>> tree_paths;
  collect_tree_paths(m.tree(), tree_paths);
  EXPECT_EQ(m.node_count(), tree_paths.size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, PbReferenceTest,
                         ::testing::Values(11u, 23u, 37u, 53u, 71u, 97u));

}  // namespace
}  // namespace webppm::ppm
