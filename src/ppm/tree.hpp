// Markov prediction tree: the shared storage structure under all three PPM
// models (standard, LRS, popularity-based).
//
// The tree is a forest: each distinct URL that heads a branch owns a root
// node; a root-to-descendant path represents an observed URL sequence and
// every node carries the number of times the path to it was traversed
// during training. "Space" in the paper's Tables 1-2 is the node count of
// this structure.
//
// Nodes live in a single arena (std::vector) and refer to each other by
// index; children are kept in a SmallChildMap keyed by URL. release()
// detaches a subtree and recycles its slots, so a tree that only grows
// (every model a trainer hands out) keeps parents before children in the
// arena, while PB-PPM's training base (pb_base.hpp) reuses the slots of
// the branches it retracts.
#pragma once

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "util/small_map.hpp"
#include "util/types.hpp"

namespace webppm::ppm {

using NodeId = std::uint32_t;
inline constexpr NodeId kNoNode = 0xffffffffu;

struct TreeNode {
  UrlId url = kInvalidUrl;
  std::uint32_t count = 0;   ///< traversals of the path ending here
  NodeId parent = kNoNode;   ///< kNoNode for roots
  std::uint16_t depth = 1;   ///< nodes on the path from root (root = 1)
  // One byte of flags: bit-fields keep sizeof(TreeNode) at 80.
  bool used : 1 = false;     ///< touched while predicting (utilisation)
  bool dead : 1 = false;     ///< a free slot, released and not yet reused
  util::SmallChildMap<NodeId> children;  ///< url -> child node
};
static_assert(sizeof(void*) != 8 || sizeof(TreeNode) == 80,
              "TreeNode flags must stay packed beside depth");

class PredictionTree {
 public:
  /// Root for `url`, creating it if needed. `add_count` is added to the
  /// root's traversal count.
  NodeId root_or_add(UrlId url, std::uint32_t add_count = 1);

  /// Existing root for `url`, or kNoNode.
  NodeId find_root(UrlId url) const;

  /// Child of `parent` labelled `url`, creating it if needed; adds
  /// `add_count` traversals.
  NodeId child_or_add(NodeId parent, UrlId url, std::uint32_t add_count = 1);

  /// Existing child or kNoNode.
  NodeId find_child(NodeId parent, UrlId url) const;

  /// Deepest node reached by matching `path` from a root; kNoNode if the
  /// full path does not exist.
  NodeId find_path(std::span<const UrlId> path) const;

  TreeNode& node(NodeId id) { return nodes_[id]; }
  const TreeNode& node(NodeId id) const { return nodes_[id]; }

  /// Live nodes (the paper's space metric).
  std::size_t node_count() const { return live_count_; }

  std::size_t root_count() const { return roots_.size(); }

  const std::unordered_map<UrlId, NodeId>& roots() const { return roots_; }

  /// Marks a node (and nothing else) as used by a prediction walk. Marked
  /// nodes are also remembered in a side list so clear_usage() and
  /// path_usage() cost O(marked), not O(tree) — the evaluation loop calls
  /// both once per simulated day on trees with millions of nodes.
  void mark_used(NodeId id) {
    if (!nodes_[id].used) {
      nodes_[id].used = true;
      used_nodes_.push_back(id);
    }
  }

  void clear_usage();

  /// Leaves = live nodes with no live children. A root-to-leaf path counts
  /// as used when its leaf was marked. Returns {used_leaves, total_leaves}.
  struct PathUsage {
    std::size_t used = 0;
    std::size_t total = 0;
    double rate() const {
      return total == 0 ? 0.0
                        : static_cast<double>(used) / static_cast<double>(total);
    }
  };
  PathUsage path_usage() const;

  /// Path utilisation of an external batch of touched nodes, without
  /// consulting or mutating the used bits. `marked` may contain duplicates.
  /// Equivalent to mark_used() over the batch followed by path_usage() on a
  /// tree with no prior marks.
  PathUsage path_usage(std::span<const NodeId> marked) const;

  /// Removes the live node `id` with its whole subtree: detaches it from
  /// its parent's child map (a root leaves the root table) and frees every
  /// slot for the next root_or_add/child_or_add to reuse. Keeps the live
  /// and leaf counts exact; other nodes keep their ids.
  void release(NodeId id);

  /// Pre-sizes the arena for `nodes` nodes (a builder that knows its final
  /// size leaves no spare capacity behind).
  void reserve(std::size_t nodes) { nodes_.reserve(nodes); }

  /// Total traversal count of all roots (denominator for root-level
  /// probabilities where needed).
  std::uint64_t total_root_count() const;

  /// Resident bytes of the arena: node storage (capacity), per-node child
  /// spill vectors, the root table, the free list and the usage side list.
  /// O(arena) — call at reporting cadence, not on the query path. This is
  /// the number the frozen serving tree is measured against (paper Tables
  /// 1-2 count nodes; deployments pay bytes).
  std::size_t memory_bytes() const;

 private:
  /// A fresh leaf in a free slot (or a new one at the arena's end).
  NodeId new_node(UrlId url, std::uint32_t count, NodeId parent,
                  std::uint16_t depth);

  std::vector<TreeNode> nodes_;
  std::unordered_map<UrlId, NodeId> roots_;
  std::size_t live_count_ = 0;
  /// Live leaves, maintained by insertion and release() so path_usage()
  /// need not walk the arena. Invariant: live nodes only ever hold live
  /// children (release() detaches each subtree from its parent), so
  /// "leaf" is simply an empty child map.
  std::size_t leaf_count_ = 0;
  std::vector<NodeId> free_;        ///< released slots, reused first
  std::vector<NodeId> used_nodes_;  ///< nodes with the used bit set
};

}  // namespace webppm::ppm
