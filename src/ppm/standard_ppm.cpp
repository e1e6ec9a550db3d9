#include "ppm/standard_ppm.hpp"

#include <algorithm>

namespace webppm::ppm {

StandardPpm::StandardPpm(const StandardPpmConfig& config) : config_(config) {
  name_ = config_.max_height == 0
              ? "standard-ppm"
              : std::to_string(config_.max_height) + "-ppm";
}

void StandardPpm::train(std::span<const session::Session> sessions) {
  const std::uint32_t h = config_.max_height;
  for (const auto& s : sessions) {
    const auto& u = s.urls;
    for (std::size_t i = 0; i < u.size(); ++i) {
      NodeId cur = tree_.root_or_add(u[i]);
      for (std::size_t j = i + 1;
           j < u.size() && (h == 0 || j - i + 1 <= h); ++j) {
        cur = tree_.child_or_add(cur, u[j]);
      }
    }
  }
}

void StandardPpm::predict(std::span<const UrlId> context,
                          std::vector<Prediction>& out,
                          UsageScratch* usage) const {
  out.clear();
  // A fixed-height tree of H levels is an order-(H-1) Markov model: the
  // deepest useful context has H-1 URLs (level-H nodes are the predictions).
  const std::size_t max_ctx =
      config_.max_height == 0
          ? config_.max_context
          : std::min<std::size_t>(config_.max_context,
                                  config_.max_height - 1);
  const auto m =
      longest_match(tree_, context, std::max<std::size_t>(max_ctx, 1));
  if (m.node == kNoNode) return;
  if (usage != nullptr) {
    usage->nodes.push_back(m.node);
    usage->touched = true;
  }
  emit_children(tree_, m.node, config_.prob_threshold, out, usage);
  finalize_predictions(out);
}

}  // namespace webppm::ppm
