#include "ppm/tree.hpp"

#include <algorithm>
#include <cassert>

namespace webppm::ppm {

NodeId PredictionTree::root_or_add(UrlId url, std::uint32_t add_count) {
  if (auto it = roots_.find(url); it != roots_.end()) {
    nodes_[it->second].count += add_count;
    return it->second;
  }
  const auto id = static_cast<NodeId>(nodes_.size());
  TreeNode n;
  n.url = url;
  n.count = add_count;
  n.depth = 1;
  nodes_.push_back(std::move(n));
  roots_.emplace(url, id);
  ++live_count_;
  ++leaf_count_;  // a fresh root has no children
  return id;
}

NodeId PredictionTree::find_root(UrlId url) const {
  const auto it = roots_.find(url);
  return it == roots_.end() ? kNoNode : it->second;
}

NodeId PredictionTree::child_or_add(NodeId parent, UrlId url,
                                    std::uint32_t add_count) {
  assert(parent < nodes_.size() && !nodes_[parent].dead);
  if (const NodeId* c = nodes_[parent].children.find(url)) {
    nodes_[*c].count += add_count;
    return *c;
  }
  const auto id = static_cast<NodeId>(nodes_.size());
  const bool parent_was_leaf = nodes_[parent].children.empty();
  TreeNode n;
  n.url = url;
  n.count = add_count;
  n.parent = parent;
  n.depth = static_cast<std::uint16_t>(nodes_[parent].depth + 1);
  nodes_.push_back(std::move(n));
  nodes_[parent].children[url] = id;
  ++live_count_;
  ++leaf_count_;  // the new node is a leaf ...
  if (parent_was_leaf) --leaf_count_;  // ... and its parent no longer is
  return id;
}

NodeId PredictionTree::find_child(NodeId parent, UrlId url) const {
  assert(parent < nodes_.size());
  const NodeId* c = nodes_[parent].children.find(url);
  return c ? *c : kNoNode;
}

NodeId PredictionTree::find_path(std::span<const UrlId> path) const {
  if (path.empty()) return kNoNode;
  NodeId cur = find_root(path[0]);
  for (std::size_t i = 1; cur != kNoNode && i < path.size(); ++i) {
    cur = find_child(cur, path[i]);
  }
  return cur;
}

void PredictionTree::clear_usage() {
  for (const NodeId id : used_nodes_) nodes_[id].used = false;
  used_nodes_.clear();
}

PredictionTree::PathUsage PredictionTree::path_usage() const {
  // A root-to-leaf path counts as used when the prediction process walked
  // all the way to its leaf — the leaf was the deepest matched context or
  // was emitted as a prefetch candidate (paper Fig. 2: marked paths).
  // Matching always prefers the longest suffix, so shallow duplicate
  // branches (e.g. LRS suffix copies) accumulate as unused paths.
  // Only marked nodes can be used leaves, so scan the side list instead of
  // the arena; the leaf total is maintained incrementally.
  PathUsage usage;
  usage.total = leaf_count_;
  for (const NodeId id : used_nodes_) {
    const TreeNode& n = nodes_[id];
    if (!n.dead && n.used && n.children.empty()) ++usage.used;
  }
  return usage;
}

PredictionTree::PathUsage PredictionTree::path_usage(
    std::span<const NodeId> marked) const {
  PathUsage usage;
  usage.total = leaf_count_;
  // Dedup the batch (readers append without checking), then count live
  // leaves exactly as the marked-bit variant does.
  std::vector<NodeId> uniq(marked.begin(), marked.end());
  std::sort(uniq.begin(), uniq.end());
  uniq.erase(std::unique(uniq.begin(), uniq.end()), uniq.end());
  for (const NodeId id : uniq) {
    const TreeNode& n = nodes_[id];
    if (!n.dead && n.children.empty()) ++usage.used;
  }
  return usage;
}

std::vector<NodeId> PredictionTree::compact() {
  std::vector<NodeId> remap(nodes_.size(), kNoNode);
  std::vector<TreeNode> fresh;
  fresh.reserve(live_count_);
  for (NodeId i = 0; i < nodes_.size(); ++i) {
    if (!nodes_[i].dead) {
      remap[i] = static_cast<NodeId>(fresh.size());
      fresh.push_back(std::move(nodes_[i]));
    }
  }
  for (auto& n : fresh) {
    if (n.parent != kNoNode) {
      n.parent = remap[n.parent];
      assert(n.parent != kNoNode && "live child of dead parent");
    }
    util::SmallChildMap<NodeId> rebuilt;
    n.children.for_each([&](UrlId u, NodeId c) {
      if (remap[c] != kNoNode) rebuilt[u] = remap[c];
    });
    n.children = std::move(rebuilt);
  }
  nodes_ = std::move(fresh);
  for (auto& [url, root] : roots_) {
    root = remap[root];
    assert(root != kNoNode);
  }
  // Reindex the used-node list; dead entries drop out. Leaf count is
  // unaffected (compact removes only tombstoned nodes).
  std::size_t w = 0;
  for (const NodeId id : used_nodes_) {
    if (remap[id] != kNoNode) used_nodes_[w++] = remap[id];
  }
  used_nodes_.resize(w);
  return remap;
}

std::uint64_t PredictionTree::total_root_count() const {
  std::uint64_t total = 0;
  for (const auto& [url, id] : roots_) total += nodes_[id].count;
  return total;
}

std::size_t PredictionTree::memory_bytes() const {
  std::size_t bytes = nodes_.capacity() * sizeof(TreeNode);
  for (const TreeNode& n : nodes_) bytes += n.children.heap_bytes();
  // unordered_map internals are approximated: one bucket pointer per
  // bucket, one heap node (payload + hash + next pointer) per entry.
  bytes += roots_.bucket_count() * sizeof(void*);
  bytes += roots_.size() *
           (sizeof(std::pair<UrlId, NodeId>) + 2 * sizeof(void*));
  bytes += used_nodes_.capacity() * sizeof(NodeId);
  return bytes;
}

}  // namespace webppm::ppm
