#include "ppm/popularity_ppm.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

#include "ppm/pb_base.hpp"

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
  // Count ties break on the target's root-to-node URL path: node ids
  // depend on how the tree was built, while the URL path identifies a tree
  // position canonically, so the order is total. Every target of a list
  // shares its root, so paths are stored from depth 2 on, all of one
  // list's in one flat buffer. The walk up to the root sizes each path;
  // the stored depth does not, since it wraps on chains deeper than 65,535
  // nodes.
  struct RankedTarget {
    std::uint32_t count;
    std::uint32_t path_begin;
    std::uint32_t path_end;
    NodeId node;
  };
  const PredictionTree& t = m.tree_;
  std::vector<RankedTarget> ranked;
  std::vector<UrlId> paths;
  for (auto& [root, targets] : m.links_) {
    if (targets.size() < 2) continue;
    ranked.clear();
    paths.clear();
    for (const NodeId id : targets) {
      const auto begin = static_cast<std::uint32_t>(paths.size());
      for (NodeId a = id; a != root; a = t.node(a).parent) {
        paths.push_back(t.node(a).url);
      }
      std::reverse(paths.begin() + begin, paths.end());
      ranked.push_back({t.node(id).count, begin,
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
  return m;
}

void PopularityPpm::train(std::span<const session::Session> sessions) {
  PbBase base(config_, grades_);
  base.insert(sessions);
  *this = base.emit();
}

void PopularityPpm::predict(std::span<const UrlId> context,
                            std::vector<Prediction>& out,
                            UsageScratch* usage) const {
  out.clear();
  if (context.empty()) return;

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
        // Targets are pre-ranked by from_parts(); emit the top k.
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
