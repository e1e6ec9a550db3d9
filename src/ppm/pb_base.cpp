#include "ppm/pb_base.hpp"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

namespace webppm::ppm {

PbBase::PbBase(const PopularityPpmConfig& config,
               const popularity::PopularityTable* grades)
    : config_(config), grades_(grades) {
  assert(grades_ != nullptr);
}

std::size_t PbBase::branch_length(const popularity::PopularityTable& grades,
                                  std::span<const UrlId> urls,
                                  std::size_t i) const {
  // Rule 2/4: a branch starts at session start or on a grade increase.
  const int g = grades.grade(urls[i]);
  if (i != 0 && g <= grades.grade(urls[i - 1])) return 0;
  // Rule 1: its height is capped by its head's grade.
  const std::size_t cap =
      config_.height_by_grade[static_cast<std::size_t>(g)];
  return std::min(cap, urls.size() - i);
}

void PbBase::insert_branch(std::span<const UrlId> path) {
  NodeId id = tree_.root_or_add(path[0]);
  for (std::size_t k = 1; k < path.size(); ++k) {
    id = tree_.child_or_add(id, path[k]);
  }
}

void PbBase::retract_branch(std::span<const UrlId> path) {
  NodeId id = tree_.find_root(path[0]);
  for (std::size_t k = 0; k < path.size(); ++k) {
    if (k != 0) id = tree_.find_child(id, path[k]);
    assert(id != kNoNode && "retracting a branch the base does not hold");
    // A count-1 node's one traversal is this branch, so its subtree is the
    // rest of the branch: it all goes at once.
    if (--tree_.node(id).count == 0) {
      tree_.release(id);
      return;
    }
  }
}

void PbBase::insert(std::span<const session::Session> sessions) {
  for (const auto& s : sessions) {
    const std::span<const UrlId> urls = s.urls;
    for (std::size_t i = 0; i < urls.size(); ++i) {
      if (const auto len = branch_length(*grades_, urls, i)) {
        insert_branch(urls.subspan(i, len));
      }
    }
  }
}

void PbBase::retract(std::span<const session::Session> sessions) {
  for (const auto& s : sessions) {
    const std::span<const UrlId> urls = s.urls;
    for (std::size_t i = 0; i < urls.size(); ++i) {
      if (const auto len = branch_length(*grades_, urls, i)) {
        retract_branch(urls.subspan(i, len));
      }
    }
  }
}

bool PbBase::drifted(const popularity::PopularityTable& grades) const {
  const std::size_t n = std::max(grades_->url_count(), grades.url_count());
  for (UrlId u = 0; u < n; ++u) {
    if (grades_->grade(u) != grades.grade(u)) return true;
  }
  return false;
}

std::size_t PbBase::regrade(const popularity::PopularityTable* grades,
                            std::span<const session::Session> window) {
  assert(grades != nullptr);
  const popularity::PopularityTable& before = *grades_;
  const popularity::PopularityTable& after = *grades;
  // URLs beyond both tables are grade 0 in each, so cannot have moved.
  const std::size_t n = std::max(before.url_count(), after.url_count());
  std::vector<std::uint8_t> moved(n, 0);
  bool any = false;
  for (UrlId u = 0; u < n; ++u) {
    if (before.grade(u) != after.grade(u)) moved[u] = any = true;
  }
  grades_ = grades;
  if (!any) return 0;

  const auto is_moved = [&](UrlId u) { return u < n && moved[u] != 0; };
  std::size_t touched = 0;
  for (const auto& s : window) {
    const std::span<const UrlId> urls = s.urls;
    bool hit = false;
    for (std::size_t i = 0; i < urls.size(); ++i) {
      // The branch at click i reads the grades of clicks i and i-1 only.
      if (!is_moved(urls[i]) && (i == 0 || !is_moved(urls[i - 1]))) continue;
      hit = true;
      const auto old_len = branch_length(before, urls, i);
      const auto new_len = branch_length(after, urls, i);
      if (old_len == new_len) continue;
      if (old_len != 0) retract_branch(urls.subspan(i, old_len));
      if (new_len != 0) insert_branch(urls.subspan(i, new_len));
    }
    touched += hit ? 1 : 0;
  }
  return touched;
}

PopularityPpm PbBase::emit() const {
  // Rule 4: a non-root node is cut, with its subtree, when its count is at
  // most min_absolute_count or its share of its parent's count is below
  // min_relative_probability (0 disables either test).
  const std::uint32_t min_count = config_.min_absolute_count;
  const double min_share = config_.min_relative_probability;
  const auto cut = [&](std::uint32_t count, std::uint32_t parent_count) {
    if (min_count > 0 && count <= min_count) return true;
    if (min_share > 0.0) {
      const auto pc = static_cast<double>(parent_count);
      if (pc > 0.0 && static_cast<double>(count) / pc < min_share) return true;
    }
    return false;
  };

  // Pass 1 lists the survivors breadth-first; the list is its own queue.
  // A survivor's index is its id in the emitted tree, so pass 2 builds
  // that tree in one exactly sized arena: no arena regrowth churns the
  // heap while the much larger base is alive.
  struct Kept {
    NodeId src;
    NodeId parent;  ///< index of the parent in `kept`, kNoNode for a root
    NodeId root;    ///< index of the branch root in `kept`
    std::uint32_t depth;
  };
  std::vector<Kept> kept;
  for (const auto& [url, src_root] : tree_.roots()) {
    const auto i = static_cast<NodeId>(kept.size());
    kept.push_back({src_root, kNoNode, i, 1});
  }
  for (std::size_t i = 0; i < kept.size(); ++i) {
    const Kept k = kept[i];  // push_back below may reallocate
    const std::uint32_t parent_count = tree_.node(k.src).count;
    tree_.node(k.src).children.for_each([&](UrlId, NodeId c) {
      if (cut(tree_.node(c).count, parent_count)) return;
      kept.push_back({c, static_cast<NodeId>(i), k.root, k.depth + 1});
    });
  }

  PredictionTree out;
  out.reserve(kept.size());
  std::unordered_map<NodeId, std::vector<NodeId>> links;
  for (std::size_t i = 0; i < kept.size(); ++i) {
    const Kept& k = kept[i];
    const TreeNode& n = tree_.node(k.src);
    const NodeId id = k.parent == kNoNode
                          ? out.root_or_add(n.url, n.count)
                          : out.child_or_add(k.parent, n.url, n.count);
    assert(id == i);
    // Rule 3: a popular URL "not immediately following the heading URL"
    // gets a special link from its branch root.
    if (config_.special_links && k.depth >= 3) {
      const int g = grades_->grade(n.url);
      if (g > grades_->grade(out.node(k.root).url) ||
          g == popularity::kMaxGrade) {
        links[k.root].push_back(id);
      }
    }
  }
  return PopularityPpm::from_parts(config_, grades_, std::move(out),
                                   std::move(links));
}

}  // namespace webppm::ppm
