// PB-PPM's training base: the unpruned prediction tree of a session window
// under one popularity table's grades (paper §3.4 rules 1-2), and the one
// place a PopularityPpm is built from (rule 3's links and rule 4's space
// optimisation are applied by emit()).
//
// Every trainer keeps a PbBase: core::train_model and PopularityPpm::train
// (one insert, one emit), the sweep engine (one base grown day by day) and
// the online trainer (one base grown publish by publish). The base is
// training-only state and never serves.
//
// Why a base can be edited in place: rules 1-2 make every branch a run of
// consecutive clicks. A session's branch heads are its first click and
// every click whose grade exceeds its predecessor's, and the branch headed
// at click i is clicks i .. i+h-1, where h is the height cap of click i's
// grade (cut short by the session's end). A node's count is the number of
// branches through it, so the base is the sum of its sessions' branches:
//   * retract() walks the same branches under the same grades and
//     decrements; a node that reaches zero leaves the base;
//   * regrade() moves the base to a new table. The branch at click i can
//     change only when click i's or click i-1's URL changed grade, so for
//     each such click it retracts the branch the old grades made there and
//     inserts the one the new grades make. The result equals a rebuild of
//     the whole window under the new table (tests/ppm_pb_base_test.cpp);
//   * open session tails are inserted before emit() and retracted after
//     it, so publishing copies nothing.
// Rule 3's links are not stored: a node is a link target of its root
// exactly when it sits at depth >= 3 and its URL's grade is above its
// root's or is the top grade, which emit() reads off the current table.
//
// The tail form. A node's children split its count, so a count-1 node has
// at most one child, of count 1: below the last node of count >= 2 a
// branch seen once is a single chain. Almost every node of a real window
// is on such a chain (96% of the batch_online benchmark's first-publish
// window), so the base stores each maximal non-root chain of count-1
// nodes as one *tail*: an entry in its parent's child map, keyed by the
// chain's first URL, that points at the chain's length and remaining URLs
// in a pool the base owns. Only roots and nodes of count >= 2 are
// materialised. Invariant, kept by every edit:
//   * a non-root node is materialised exactly when its count is >= 2;
//   * every other non-root node is in exactly one tail, whose first URL
//     is a child of a materialised node and whose run is maximal.
// So the stored shape (materialised nodes, tails, live pool words)
// depends only on the multiset of branches the base holds, not on the
// order they came and went in. insert() keeps it by materialising, at
// count 2, the run a branch shares with the tail it walks into (the two
// remainders stay tails; the tail's own remainder stays where it is in the
// pool). retract() keeps it by folding a node that falls back to count 1,
// with the chain below it, into one tail. emit() needs no tail's URLs
// unless rule 4 keeps it: every tail node has count 1, so under
// min_absolute_count >= 1 a tail is cut at its first node, and under the
// share cut alone each node after a tail's first has share 1, so a tail
// is kept whole or not at all.
//
// STORAGE BUDGET (x86-64, libstdc++; memory_bytes() counts each item):
//   materialised node   56 B  url 4 + count 4 + child map 48 (2 inline
//                             (url, ref) pairs 16, size 8, spill vector 24)
//   child-map spill      8 B  per entry, once a node has 3+ children
//                             (4,160 of the 8,614 nodes below do)
//   root                24 B  root-table entry, + 8 B per bucket
//   tail node            4 B  one pool word: the first node's word is the
//                             tail's length (its URL is its child-map key,
//                             counted with the parent), each later one is
//                             its URL
//   dead pool word       4 B  left by splits and removals until the dead
//                             words outnumber half the live ones
// A PredictionTree holding the same nodes pays 80 B per node
// (sizeof(TreeNode)) plus its spills and roots. On the batch_online
// first-publish window (ucb_like(10, 2.0), seed 1, days 0-7 settled at the
// day-8 boundary) the 207,608 logical nodes are 8,614 materialised nodes,
// 57,198 tails and 198,994 live pool words: memory_bytes() is 2,793,032 B.
// The same tree as a PredictionTree took 21,635,288 B grown node by node,
// and takes 17,272,408 B exactly sized (expand()).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "popularity/popularity.hpp"
#include "ppm/popularity_ppm.hpp"
#include "ppm/tree.hpp"
#include "session/session.hpp"
#include "util/small_map.hpp"

namespace webppm::ppm {

class PbBase {
 public:
  /// `grades` must outlive the base (and every model it emits, until the
  /// model is rebound).
  PbBase(const PopularityPpmConfig& config,
         const popularity::PopularityTable* grades);

  /// Adds the branches of `sessions` under the current grades.
  void insert(std::span<const session::Session> sessions);

  /// Removes the branches of `sessions`, which must have been inserted
  /// under the current grades. Freed node slots are reused, and the pool
  /// is compacted once its dead words outnumber half the live ones.
  void retract(std::span<const session::Session> sessions);

  /// Moves the base to `grades` (same lifetime contract as the
  /// constructor). `window` must be exactly the sessions the base holds.
  /// Only the branches next to a URL whose grade moved are re-walked.
  /// Returns how many sessions hold such a URL.
  std::size_t regrade(const popularity::PopularityTable* grades,
                      std::span<const session::Session> window);

  /// True when some URL's grade differs between `grades` and the base's.
  bool drifted(const popularity::PopularityTable& grades) const;

  /// The published model: one breadth-first walk lists the nodes that
  /// survive the configured space optimisation (rule 4), and they are
  /// copied into an exactly sized arena. Rule-3 links are derived from the
  /// survivors and ranked. The model reads the base's current grade table.
  /// The base is left unchanged.
  PopularityPpm emit() const;

  /// The whole unpruned tree as a PredictionTree: every logical node with
  /// its count, in the same breadth-first order emit() lists survivors in.
  /// O(base) time and 80 B per node — for tests and diagnostics.
  PredictionTree expand() const;

  /// Logical nodes: materialised nodes plus the nodes inside tails.
  std::size_t node_count() const { return nodes_live_ + pool_live_; }

  /// The stored form. It depends only on the branches the base holds.
  struct Shape {
    std::size_t nodes = 0;   ///< materialised nodes, roots included
    std::size_t tails = 0;
    std::size_t pooled = 0;  ///< live pool words: the nodes inside tails
  };
  Shape shape() const { return {nodes_live_, tails_live_, pool_live_}; }

  /// Resident bytes, free space included: the node arena and its
  /// child-map spills, the pool and the root table (see the storage
  /// budget above). O(materialised nodes).
  std::size_t memory_bytes() const;

  const popularity::PopularityTable& grades() const { return *grades_; }
  const PopularityPpmConfig& config() const { return config_; }

 private:
  /// A child-map value: a node id, or kTailBit | h for the tail whose
  /// length L is pool_[h] and whose URLs after the first (the map key) are
  /// pool_[h + 1, h + L).
  using Ref = std::uint32_t;
  static constexpr Ref kTailBit = 0x80000000u;
  static bool is_tail(Ref r) { return (r & kTailBit) != 0; }
  static std::size_t header_of(Ref tail) { return tail & ~kTailBit; }

  struct Node {
    UrlId url = kInvalidUrl;
    std::uint32_t count = 0;
    util::SmallChildMap<Ref, 2> children;  ///< url -> node or tail
  };
  /// One logical node in a breadth-first listing (emit(), expand()).
  struct Visit {
    UrlId url;
    std::uint32_t count;
    Ref src;             ///< the node, or the tail holding this node
    std::uint32_t pos;   ///< position in the tail; 0 for a node
    NodeId parent;       ///< index of the parent in the listing, or kNoNode
    NodeId root;         ///< index of the branch root in the listing
    std::uint32_t depth; ///< root = 1; not wrapped like TreeNode::depth
  };

  /// Length of the branch that `grades` make at click i of `urls`: 0 when
  /// click i heads no branch.
  std::size_t branch_length(const popularity::PopularityTable& grades,
                            std::span<const UrlId> urls, std::size_t i) const;
  void insert_branch(std::span<const UrlId> path);
  void retract_branch(std::span<const UrlId> path);
  /// `rest` (whose first URL is `tail`'s) walks into `tail` below `parent`.
  void split(NodeId parent, Ref tail, std::span<const UrlId> rest);
  /// `parent`'s child `url` fell back to count 1: it and the chain below
  /// it become one tail.
  void fold(NodeId parent, UrlId url);

  NodeId new_node(UrlId url, std::uint32_t count);
  void free_node(NodeId id);
  /// Makes pool_[header, end) a new tail: its length word, then its URLs
  /// after the first.
  Ref seal_tail(std::size_t header);
  /// A new tail holding a copy of `urls` (which must not be in the pool).
  Ref new_tail(std::span<const UrlId> urls);
  void free_tail(Ref tail);
  void compact_pool_if_sparse();

  /// Every logical node that survives rule 4's cuts at these thresholds
  /// (0 disables either), breadth-first, parents before children.
  std::vector<Visit> survivors(std::uint32_t min_count,
                               double min_share) const;

  PopularityPpmConfig config_;
  const popularity::PopularityTable* grades_;

  std::vector<Node> nodes_;
  NodeId free_head_ = kNoNode;  ///< free slots, linked through their url
  std::unordered_map<UrlId, NodeId> roots_;
  std::vector<std::uint32_t> pool_;  ///< tails, one word per node
  std::size_t nodes_live_ = 0;
  std::size_t tails_live_ = 0;
  std::size_t pool_live_ = 0;  ///< URLs of live tails
  std::size_t pool_dead_ = 0;  ///< words of pool_ no live tail owns
};

}  // namespace webppm::ppm
