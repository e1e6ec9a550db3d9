#include "ppm/lrs_ppm.hpp"

#include <cassert>

namespace webppm::ppm {

LrsPpm::LrsPpm(const LrsPpmConfig& config) : config_(config) {
  assert(config_.min_support >= 1);
}

void LrsPpm::train(std::span<const session::Session> sessions) {
  support_ = PredictionTree{};
  tree_ = PredictionTree{};
  patterns_.clear();
  train_more(sessions);
}

void LrsPpm::train_more(std::span<const session::Session> sessions) {
  // Nothing new to count: the support tree is unchanged, so the derived
  // pattern set and prediction tree would come out identical.
  if (sessions.empty()) return;

  // Phase 1: grow the retained window tree carrying occurrence counts of
  // every subsequence (bounded by max_height if set). Counting is purely
  // additive, so the support tree after N chunks equals the one a single
  // batch pass would build; phases 2-3 re-derive everything from it.
  PredictionTree& support = support_;
  const std::uint32_t h = config_.max_height;
  for (const auto& s : sessions) {
    const auto& u = s.urls;
    for (std::size_t i = 0; i < u.size(); ++i) {
      NodeId cur = support.root_or_add(u[i]);
      for (std::size_t j = i + 1;
           j < u.size() && (h == 0 || j - i + 1 <= h); ++j) {
        cur = support.child_or_add(cur, u[j]);
      }
    }
  }

  // Phase 2: extract maximal supported paths (the LRS set). A path is
  // supported when every node on it has count >= min_support; it is maximal
  // when no supported extension exists. Single-URL patterns predict nothing
  // and are skipped.
  patterns_.clear();
  std::vector<UrlId> path;
  const std::uint32_t support_min = config_.min_support;

  // Iterative DFS carrying the current path.
  struct Frame {
    NodeId node;
    bool expanded = false;
  };
  for (const auto& [root_url, root_id] : support.roots()) {
    if (support.node(root_id).count < support_min) continue;
    std::vector<Frame> stack{{root_id}};
    path.clear();
    while (!stack.empty()) {
      Frame& f = stack.back();
      if (!f.expanded) {
        f.expanded = true;
        path.push_back(support.node(f.node).url);
        bool has_supported_child = false;
        support.node(f.node).children.for_each([&](UrlId, NodeId c) {
          if (support.node(c).count >= support_min) {
            has_supported_child = true;
            stack.push_back({c});
          }
        });
        if (!has_supported_child && path.size() >= 2) {
          patterns_.push_back(path);
        }
        // Note: children pushed above will be processed before this frame
        // pops; `path` tracks the stack via the pop below.
        if (!has_supported_child) {
          // leaf of the supported subtree: unwind immediately
          path.pop_back();
          stack.pop_back();
        }
      } else {
        // All children of f processed.
        path.pop_back();
        stack.pop_back();
      }
    }
  }

  // Phase 3: rebuild the prediction tree, inserting each LRS and all its
  // suffixes with exact occurrence counts from the support tree (every
  // suffix of a repeating sequence is itself repeating, so the lookups
  // always succeed). Rebuilding from scratch keeps counts exact when a
  // train_more call has raised support counts of already-inserted nodes.
  tree_ = PredictionTree{};
  for (const auto& pattern : patterns_) {
    for (std::size_t off = 0; off + 2 <= pattern.size(); ++off) {
      NodeId support_node = support.find_root(pattern[off]);
      assert(support_node != kNoNode);
      NodeId cur = tree_.find_root(pattern[off]);
      if (cur == kNoNode) {
        cur = tree_.root_or_add(pattern[off], 0);
        tree_.node(cur).count = support.node(support_node).count;
      }
      for (std::size_t j = off + 1; j < pattern.size(); ++j) {
        support_node = support.find_child(support_node, pattern[j]);
        assert(support_node != kNoNode);
        NodeId next = tree_.find_child(cur, pattern[j]);
        if (next == kNoNode) {
          next = tree_.child_or_add(cur, pattern[j], 0);
          tree_.node(next).count = support.node(support_node).count;
        }
        cur = next;
      }
    }
  }
}

void LrsPpm::predict(std::span<const UrlId> context,
                     std::vector<Prediction>& out, UsageScratch* usage) const {
  out.clear();
  const auto m = longest_match(tree_, context, config_.max_context);
  if (m.node == kNoNode) return;
  if (usage != nullptr) {
    usage->nodes.push_back(m.node);
    usage->touched = true;
  }
  emit_children(tree_, m.node, config_.prob_threshold, out, usage);
  finalize_predictions(out);
}

}  // namespace webppm::ppm
