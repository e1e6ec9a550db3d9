#include "ppm/popularity_ppm.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

namespace webppm::ppm {

PopularityPpm::PopularityPpm(const PopularityPpmConfig& config,
                             const popularity::PopularityTable* grades)
    : config_(config), grades_(grades) {
  assert(grades_ != nullptr);
}

PopularityPpm PopularityPpm::from_parts(
    const PopularityPpmConfig& config,
    const popularity::PopularityTable* grades, PredictionTree tree,
    std::unordered_map<NodeId, std::vector<NodeId>> links) {
  PopularityPpm m(config, grades);
  m.tree_ = std::move(tree);
  m.links_ = std::move(links);
  for (const auto& [root, targets] : m.links_) {
    m.tree_.node(root).stale = true;
    m.stale_roots_.push_back(root);
    for (const NodeId t : targets) m.tree_.node(t).linked = true;
  }
  m.rank_links();
  return m;
}

void PopularityPpm::insert_session(const session::Session& s,
                                   std::vector<OpenBranch>& open,
                                   std::vector<OpenBranch>& next_open) {
  open.clear();
  int prev_grade = 0;
  for (std::size_t i = 0; i < s.urls.size(); ++i) {
    const UrlId u = s.urls[i];
    const int g = grades_->grade(u);

    next_open.clear();
    for (const OpenBranch& b : open) {
      const auto cap =
          config_.height_by_grade[static_cast<std::size_t>(b.head_grade)];
      if (tree_.node(b.tip).depth >= cap) continue;  // branch is full
      const NodeId child = tree_.child_or_add(b.tip, u);
      next_open.push_back({child, b.root, b.head_grade});
      if (!config_.special_links) continue;
      // The extension moved counts in b.root's subtree, where all of its
      // link targets live: its ranking may be out of date.
      if (TreeNode& r = tree_.node(b.root); !r.stale) {
        r.stale = true;
        stale_roots_.push_back(b.root);
      }
      // Rule 3: special link for a popular URL deeper in the branch
      // ("not immediately following the heading URL" => depth >= 3). A
      // node is only ever linked from its own branch root, so its linked
      // bit says whether that root's list already holds it.
      TreeNode& c = tree_.node(child);
      if (c.depth >= 3 && !c.linked &&
          (g > b.head_grade || g == popularity::kMaxGrade)) {
        c.linked = true;
        links_[b.root].push_back(child);
      }
    }
    // Rule 2/4: head a new branch at session start or on a grade increase.
    if (i == 0 || g > prev_grade) {
      const NodeId root = tree_.root_or_add(u);
      next_open.push_back({root, root, g});
    }
    open.swap(next_open);
    prev_grade = g;
  }
}

void PopularityPpm::train_without_optimization(
    std::span<const session::Session> sessions) {
  std::vector<OpenBranch> open;
  std::vector<OpenBranch> next_open;
  for (const auto& s : sessions) insert_session(s, open, next_open);
  rank_links();
}

void PopularityPpm::rank_links() {
  // Order link targets by traversal count; count ties break on the
  // target's root-to-node URL path (node ids depend on insertion order,
  // which differs between batch and incremental training; the URL path
  // identifies a tree position canonically, so the order is total).
  // Every target of a list shares its root, so paths are stored from
  // depth 2 on, all of one list's in one flat buffer. The walk up to the
  // root sizes each path; the stored depth does not, since it wraps on
  // chains deeper than 65,535 nodes.
  struct RankedTarget {
    std::uint32_t count;
    std::uint32_t path_begin;
    std::uint32_t path_end;
    NodeId node;
  };
  std::vector<RankedTarget> ranked;
  std::vector<UrlId> paths;
  for (const NodeId root : std::exchange(stale_roots_, {})) {
    tree_.node(root).stale = false;
    const auto it = links_.find(root);
    if (it == links_.end() || it->second.size() < 2) continue;
    auto& targets = it->second;
    ranked.clear();
    paths.clear();
    for (const NodeId id : targets) {
      const auto begin = static_cast<std::uint32_t>(paths.size());
      for (NodeId a = id; a != root; a = tree_.node(a).parent) {
        paths.push_back(tree_.node(a).url);
      }
      std::reverse(paths.begin() + begin, paths.end());
      ranked.push_back({tree_.node(id).count, begin,
                        static_cast<std::uint32_t>(paths.size()), id});
    }
    std::sort(ranked.begin(), ranked.end(),
              [&paths](const RankedTarget& a, const RankedTarget& b) {
                if (a.count != b.count) return a.count > b.count;
                return std::lexicographical_compare(
                    paths.begin() + a.path_begin, paths.begin() + a.path_end,
                    paths.begin() + b.path_begin, paths.begin() + b.path_end);
              });
    for (std::size_t i = 0; i < ranked.size(); ++i) {
      targets[i] = ranked[i].node;
    }
  }
}

void PopularityPpm::train(std::span<const session::Session> sessions) {
  train_without_optimization(sessions);
  optimize_space();
}

void PopularityPpm::optimize_space() {
  if (config_.min_relative_probability <= 0.0 &&
      config_.min_absolute_count == 0) {
    return;
  }
  tree_.prune([&](NodeId id) {
    const TreeNode& n = tree_.node(id);
    if (n.parent == kNoNode) return false;  // roots are never cut
    if (config_.min_absolute_count > 0 &&
        n.count <= config_.min_absolute_count) {
      return true;
    }
    if (config_.min_relative_probability > 0.0) {
      const auto parent_count =
          static_cast<double>(tree_.node(n.parent).count);
      if (parent_count > 0.0 &&
          static_cast<double>(n.count) / parent_count <
              config_.min_relative_probability) {
        return true;
      }
    }
    return false;
  });

  const auto remap = tree_.compact();
  // Remap special links; drop links to pruned nodes and remap roots.
  // Pruning moves no count and keeps the survivors' relative order, so
  // every filtered list is still ranked.
  std::unordered_map<NodeId, std::vector<NodeId>> fresh;
  for (const auto& [root, targets] : links_) {
    if (remap[root] == kNoNode) continue;
    std::vector<NodeId> alive;
    for (const NodeId t : targets) {
      if (remap[t] != kNoNode) alive.push_back(remap[t]);
    }
    if (!alive.empty()) fresh.emplace(remap[root], std::move(alive));
  }
  links_ = std::move(fresh);
}

void PopularityPpm::predict(std::span<const UrlId> context,
                            std::vector<Prediction>& out,
                            UsageScratch* usage) const {
  out.clear();
  if (context.empty()) return;
  // Every mutating entry point re-ranks before handing the model out.
  assert(stale_roots_.empty());

  const auto m = longest_match(tree_, context, config_.max_context);
  if (m.node != kNoNode) {
    if (usage != nullptr) {
      usage->nodes.push_back(m.node);
      usage->touched = true;
    }
    emit_children(tree_, m.node, config_.prob_threshold, out, usage);
  }

  // Rule 3 at prediction time: when the current click is a root, the
  // duplicated popular nodes linked from it become additional predictions.
  if (config_.special_links) {
    const NodeId root = tree_.find_root(context.back());
    if (root != kNoNode) {
      if (const auto it = links_.find(root); it != links_.end()) {
        const auto root_count = static_cast<double>(tree_.node(root).count);
        // Targets are pre-ranked by rank_links(); emit the top k.
        std::span<const NodeId> targets = it->second;
        if (config_.link_top_k > 0 && targets.size() > config_.link_top_k) {
          targets = targets.first(config_.link_top_k);
        }
        for (const NodeId t : targets) {
          const double p = root_count > 0.0
                               ? static_cast<double>(tree_.node(t).count) /
                                     root_count
                               : 0.0;
          if (p >= config_.link_prob_threshold) {
            if (usage != nullptr) {
              usage->nodes.push_back(t);
              usage->touched = true;
            }
            out.push_back({tree_.node(t).url, static_cast<float>(p)});
          }
        }
      }
    }
  }
  finalize_predictions(out);
}

}  // namespace webppm::ppm
