#include "ppm/predictor.hpp"

#include <algorithm>

namespace webppm::ppm {

MatchResult longest_match(const PredictionTree& tree,
                          std::span<const UrlId> context,
                          std::size_t max_context) {
  const std::size_t longest = std::min(context.size(), max_context);
  for (std::size_t k = longest; k >= 1; --k) {
    const auto suffix = context.subspan(context.size() - k);
    const NodeId n = tree.find_path(suffix);
    if (n == kNoNode) continue;  // longer suffix unseen; try shorter
    if (tree.node(n).children.empty()) return {};  // leaf: cannot predict
    return {n, k};
  }
  return {};
}

void emit_children(const PredictionTree& tree, NodeId node, double threshold,
                   std::vector<Prediction>& out, UsageScratch* usage) {
  const auto parent_count = static_cast<double>(tree.node(node).count);
  if (parent_count <= 0.0) return;
  tree.node(node).children.for_each([&](UrlId url, NodeId child) {
    const double p = static_cast<double>(tree.node(child).count) / parent_count;
    if (p >= threshold) {
      if (usage != nullptr) usage->nodes.push_back(child);
      out.push_back({url, static_cast<float>(p)});
    }
  });
}

void finalize_predictions(std::vector<Prediction>& out) {
  std::sort(out.begin(), out.end(), [](const Prediction& a, const Prediction& b) {
    return a.url != b.url ? a.url < b.url : a.probability > b.probability;
  });
  out.erase(std::unique(out.begin(), out.end(),
                        [](const Prediction& a, const Prediction& b) {
                          return a.url == b.url;
                        }),
            out.end());
  std::sort(out.begin(), out.end(), [](const Prediction& a, const Prediction& b) {
    return a.probability != b.probability ? a.probability > b.probability
                                          : a.url < b.url;
  });
}

}  // namespace webppm::ppm
