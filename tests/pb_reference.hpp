// Test support for PB-PPM, whose only model form is the frozen payload
// ppm::PbBase::emit() writes:
//   * open_pb() / train_pb() serve what a base emits;
//   * contents_of() reads a frozen PB model back as root-to-node URL paths
//     with their counts, and each root's special links as target paths in
//     rank order;
//   * copy_prune_reference() derives the same contents from a base without
//     the emit walk: copy the unpruned tree, cut it by rule 4, link and
//     rank by rule 3;
//   * PbReference predicts from such contents by the paper's rules. The
//     frozen PB model must answer exactly as it does.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string_view>
#include <utility>
#include <vector>

#include "frozen/frozen.hpp"
#include "ppm/pb_base.hpp"
#include "ppm/predictor.hpp"
#include "session/session.hpp"

namespace webppm::pbtest {

using Path = std::vector<UrlId>;

/// A PB model's nodes and links, by URL path.
struct PbContents {
  std::map<Path, std::uint32_t> paths;       ///< every node -> its count
  std::map<UrlId, std::vector<Path>> links;  ///< root URL -> ranked targets

  std::size_t roots() const {
    return static_cast<std::size_t>(
        std::count_if(paths.begin(), paths.end(),
                      [](const auto& e) { return e.first.size() == 1; }));
  }
};

/// The model `base` emits, opened for serving.
inline std::unique_ptr<frozen::FrozenModel> open_pb(const ppm::PbBase& base) {
  return frozen::FrozenModel::open(base.emit());
}

/// PB over `sessions` alone under `grades`, as core::train_model builds it.
inline std::unique_ptr<frozen::FrozenModel> train_pb(
    const ppm::PopularityPpmConfig& config,
    const popularity::PopularityTable& grades,
    std::span<const session::Session> sessions) {
  ppm::PbBase base(config, &grades);
  base.insert(sessions);
  return open_pb(base);
}

/// Every node and link of a frozen PB model.
inline PbContents contents_of(const frozen::FrozenView& v) {
  std::vector<Path> path(v.header.node_count);
  for (std::uint32_t i = 0; i < v.header.node_count; ++i) {
    if (i < v.header.root_count) path[i] = {v.urls[i]};
    for (std::uint32_t c = v.child_begin[i]; c < v.child_begin[i + 1]; ++c) {
      path[c] = path[i];
      path[c].push_back(v.urls[c]);
    }
  }
  PbContents out;
  for (std::uint32_t i = 0; i < v.header.node_count; ++i) {
    out.paths.emplace(path[i], v.counts[i]);
  }
  for (std::uint32_t r = 0; r < v.header.link_root_count; ++r) {
    auto& row = out.links[v.urls[v.link_roots[r]]];
    for (std::uint32_t t = v.link_begin[r]; t < v.link_begin[r + 1]; ++t) {
      row.push_back(path[v.link_targets[t]]);
    }
  }
  return out;
}

inline PbContents contents_of(const frozen::FrozenModel& m) {
  return contents_of(m.view());
}

/// Every live node of a tree by its root-to-node URL path, with its count.
inline std::map<Path, std::uint32_t> paths_of(const ppm::PredictionTree& tree) {
  std::map<Path, std::uint32_t> out;
  std::vector<std::pair<ppm::NodeId, Path>> stack;
  for (const auto& [url, root] : tree.roots()) stack.push_back({root, {url}});
  while (!stack.empty()) {
    auto [id, path] = std::move(stack.back());
    stack.pop_back();
    out.emplace(path, tree.node(id).count);
    tree.node(id).children.for_each([&](UrlId u, ppm::NodeId c) {
      Path p = path;
      p.push_back(u);
      stack.push_back({c, std::move(p)});
    });
  }
  return out;
}

/// The model `base` publishes, derived by hand: copy the unpruned tree,
/// cut it top-down by rule 4 (a cut node takes its subtree along), link
/// every surviving depth>=3 node whose URL's grade is above its root's or
/// is the top grade, and rank each root's list by (count desc,
/// root-to-node URL path asc).
inline PbContents copy_prune_reference(const ppm::PbBase& base) {
  const ppm::PopularityPpmConfig& cfg = base.config();
  const auto& grades = base.grades();
  ppm::PredictionTree copy = base.expand();
  std::vector<ppm::NodeId> stack;
  for (const auto& [url, root] : copy.roots()) stack.push_back(root);
  while (!stack.empty()) {
    const ppm::NodeId id = stack.back();
    stack.pop_back();
    std::vector<ppm::NodeId> cut;
    copy.node(id).children.for_each([&](UrlId, ppm::NodeId c) {
      const double share = static_cast<double>(copy.node(c).count) /
                           static_cast<double>(copy.node(id).count);
      const bool by_count = cfg.min_absolute_count > 0 &&
                            copy.node(c).count <= cfg.min_absolute_count;
      const bool by_share = cfg.min_relative_probability > 0.0 &&
                            share < cfg.min_relative_probability;
      (by_count || by_share ? cut : stack).push_back(c);
    });
    for (const ppm::NodeId c : cut) copy.release(c);
  }
  PbContents out;
  out.paths = paths_of(copy);

  std::map<UrlId, std::vector<std::pair<std::uint32_t, Path>>> ranked;
  for (const auto& [path, count] : out.paths) {
    const int g = grades.grade(path.back());
    if (cfg.special_links && path.size() >= 3 &&
        (g > grades.grade(path.front()) || g == popularity::kMaxGrade)) {
      ranked[path.front()].push_back({count, path});
    }
  }
  for (auto& [root, row] : ranked) {
    std::sort(row.begin(), row.end(), [](const auto& a, const auto& b) {
      return a.first != b.first ? a.first > b.first : a.second < b.second;
    });
    for (auto& entry : row) out.links[root].push_back(std::move(entry.second));
  }
  return out;
}

/// PB-PPM's predict, written from the paper's rules over a model's
/// contents: the longest context suffix (at most max_context URLs) that is
/// a node with children predicts each child whose count/parent is at least
/// prob_threshold, backing off past a suffix that is a childless node; a
/// click on a root also predicts its first link_top_k ranked link targets
/// (0 = all) whose count/root is at least link_prob_threshold.
class PbReference final : public ppm::Predictor {
 public:
  PbReference(const ppm::PopularityPpmConfig& config, PbContents contents)
      : config_(config), contents_(std::move(contents)) {
    for (const auto& [path, count] : contents_.paths) {
      if (path.size() < 2) continue;
      children_[Path(path.begin(), path.end() - 1)].push_back(
          {path.back(), count});
    }
  }

  void predict(std::span<const UrlId> context,
               std::vector<ppm::Prediction>& out,
               ppm::UsageScratch* /*usage*/ = nullptr) const override {
    out.clear();
    if (context.empty()) return;
    const auto share = [this](const Path& node, std::uint32_t count) {
      return static_cast<double>(count) /
             static_cast<double>(contents_.paths.at(node));
    };
    for (std::size_t k = std::min<std::size_t>(context.size(),
                                               config_.max_context);
         k >= 1; --k) {
      const Path suffix(context.end() - static_cast<std::ptrdiff_t>(k),
                        context.end());
      const auto kids = children_.find(suffix);
      if (kids == children_.end()) continue;  // absent, or childless
      for (const auto& [url, count] : kids->second) {
        const double p = share(suffix, count);
        if (p >= config_.prob_threshold) {
          out.push_back({url, static_cast<float>(p)});
        }
      }
      break;
    }
    if (const auto row = contents_.links.find(context.back());
        row != contents_.links.end()) {
      std::size_t n = row->second.size();
      if (config_.link_top_k > 0) {
        n = std::min<std::size_t>(n, config_.link_top_k);
      }
      for (std::size_t i = 0; i < n; ++i) {
        const Path& target = row->second[i];
        const double p = share({context.back()}, contents_.paths.at(target));
        if (p >= config_.link_prob_threshold) {
          out.push_back({target.back(), static_cast<float>(p)});
        }
      }
    }
    ppm::finalize_predictions(out);
  }

  std::size_t node_count() const override { return contents_.paths.size(); }
  std::size_t storage_bytes() const override { return 0; }
  ppm::PredictionTree::PathUsage path_usage(
      const ppm::UsageScratch& /*usage*/) const override {
    return {};
  }
  void apply_usage(const ppm::UsageScratch& /*usage*/) override {}
  ppm::PredictionTree::PathUsage path_usage() const override { return {}; }
  void clear_usage() override {}
  std::string_view name() const override { return "pb-reference"; }

 private:
  ppm::PopularityPpmConfig config_;
  PbContents contents_;
  std::map<Path, std::vector<std::pair<UrlId, std::uint32_t>>> children_;
};

}  // namespace webppm::pbtest
