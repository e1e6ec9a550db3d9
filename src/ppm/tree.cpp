#include "ppm/tree.hpp"

#include <algorithm>
#include <cassert>

namespace webppm::ppm {

NodeId PredictionTree::new_node(UrlId url, std::uint32_t count, NodeId parent,
                                std::uint16_t depth) {
  TreeNode n;
  n.url = url;
  n.count = count;
  n.parent = parent;
  n.depth = depth;
  NodeId id;
  if (free_.empty()) {
    id = static_cast<NodeId>(nodes_.size());
    nodes_.push_back(std::move(n));
  } else {
    id = free_.back();
    free_.pop_back();
    nodes_[id] = std::move(n);
  }
  ++live_count_;
  ++leaf_count_;  // a fresh node has no children
  return id;
}

NodeId PredictionTree::root_or_add(UrlId url, std::uint32_t add_count) {
  if (auto it = roots_.find(url); it != roots_.end()) {
    nodes_[it->second].count += add_count;
    return it->second;
  }
  const NodeId id = new_node(url, add_count, kNoNode, 1);
  roots_.emplace(url, id);
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
  const bool parent_was_leaf = nodes_[parent].children.empty();
  const auto depth = static_cast<std::uint16_t>(nodes_[parent].depth + 1);
  const NodeId id = new_node(url, add_count, parent, depth);
  nodes_[parent].children[url] = id;
  if (parent_was_leaf) --leaf_count_;  // the parent no longer is a leaf
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

void PredictionTree::release(NodeId id) {
  assert(id < nodes_.size() && !nodes_[id].dead);
  const UrlId url = nodes_[id].url;
  const NodeId parent = nodes_[id].parent;
  std::vector<NodeId> stack{id};
  while (!stack.empty()) {
    const NodeId n = stack.back();
    stack.pop_back();
    TreeNode& node = nodes_[n];
    if (node.children.empty()) --leaf_count_;
    node.children.for_each([&stack](UrlId, NodeId c) { stack.push_back(c); });
    node = TreeNode{};  // drops the child map's spill
    node.dead = true;
    --live_count_;
    free_.push_back(n);
  }
  if (parent == kNoNode) {
    roots_.erase(url);
    return;
  }
  auto& siblings = nodes_[parent].children;
  siblings.erase_if([url](UrlId u, NodeId) { return u == url; });
  if (siblings.empty()) ++leaf_count_;
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
  bytes += (free_.capacity() + used_nodes_.capacity()) * sizeof(NodeId);
  return bytes;
}

}  // namespace webppm::ppm
