// Popularity-based PPM (paper §3.4) — the paper's primary contribution.
//
// The Markov prediction tree grows with a *variable* height per branch:
// a branch headed by a popular URL may grow long (grade 3 -> height 7),
// a branch headed by an unpopular URL stays short (grade 0 -> height 1).
// Build rules:
//   1. Branch height cap is proportional to the head URL's popularity grade.
//   2. A URL occurrence extends all open branches, but heads a *new* branch
//      only at session start or when its grade exceeds its predecessor's
//      (rule 4: "added only once ... unless the URL's popularity grade is
//      higher than the node ahead of it"), which limits root count.
//   3. A popular URL appearing deeper in a branch (not immediately after the
//      head) gets a special link from the branch root to its duplicated
//      node; when a client clicks a root URL these links yield additional
//      predictions for popular documents.
//   4. Post-build space optimisation: (a) cut subtrees whose relative access
//      probability (count / parent count) is below a threshold; (b)
//      optionally drop nodes with absolute count <= 1.
//
// Rules 1-3 build an unpruned tree, and rule 4 is lossy, so training keeps
// the unpruned tree in a ppm::PbBase (pb_base.hpp) and a PopularityPpm is
// what PbBase::emit() hands out: the tree that survives rule 4, with its
// rule-3 links ranked. A PopularityPpm is never trained further.
#pragma once

#include <array>
#include <cassert>
#include <span>
#include <unordered_map>
#include <vector>

#include "popularity/popularity.hpp"
#include "ppm/predictor.hpp"
#include "session/session.hpp"

namespace webppm::ppm {

struct PopularityPpmConfig {
  /// Branch height cap indexed by the head URL's grade (paper §4.1:
  /// grade 0 -> 1, grade 1 -> 3, grade 2 -> 5, grade 3 -> 7).
  std::array<std::uint32_t, popularity::kGradeCount> height_by_grade{1, 3, 5,
                                                                     7};
  double prob_threshold = 0.25;
  std::uint32_t max_context = 16;

  /// Enables rule 3's root -> duplicated-popular-node links.
  bool special_links = true;
  /// Probability floor for link predictions. Links are multi-step-ahead
  /// predictions whose conditional probabilities are naturally far below
  /// next-click probabilities; the paper gives popular URLs "more
  /// considerations for prefetching", so links use their own (low) floor
  /// rather than prob_threshold.
  double link_prob_threshold = 0.05;
  /// At most this many link targets (by descending traversal count) are
  /// emitted per root click; 0 = unlimited. Keeps the "more consideration
  /// for popular URLs" mechanism from flooding the downlink.
  std::uint32_t link_top_k = 3;

  /// Space optimisation pass 1: prune subtrees whose relative access
  /// probability is below this (paper §3.4: "ranging 5% to 1%"). 0 disables.
  double min_relative_probability = 0.05;
  /// Space optimisation pass 2: prune non-root nodes with absolute count
  /// <= this (paper uses 1 for the UCB-CS trace). 0 disables.
  std::uint32_t min_absolute_count = 0;
};

class PopularityPpm final : public Predictor {
 public:
  /// `grades` must outlive the model; it is the popularity ranking computed
  /// over the training window (paper §3.1).
  PopularityPpm(const PopularityPpmConfig& config,
                const popularity::PopularityTable* grades);

  /// Replaces the model with one trained on `sessions` alone: a PbBase
  /// over them, emitted (rules 1-4).
  void train(std::span<const session::Session> sessions);

  void predict(std::span<const UrlId> context, std::vector<Prediction>& out,
               UsageScratch* usage = nullptr) const override;
  std::size_t node_count() const override { return tree_.node_count(); }
  std::size_t storage_bytes() const override {
    std::size_t bytes = tree_.memory_bytes();
    bytes += links_.bucket_count() * sizeof(void*);
    for (const auto& [root, targets] : links_) {
      bytes += sizeof(std::pair<NodeId, std::vector<NodeId>>) +
               2 * sizeof(void*) + targets.capacity() * sizeof(NodeId);
    }
    return bytes;
  }
  PredictionTree::PathUsage path_usage(
      const UsageScratch& usage) const override {
    return tree_.path_usage(usage.nodes);
  }
  void apply_usage(const UsageScratch& usage) override {
    for (const NodeId id : usage.nodes) tree_.mark_used(id);
  }
  PredictionTree::PathUsage path_usage() const override {
    return tree_.path_usage();
  }
  void clear_usage() override { tree_.clear_usage(); }
  std::string_view name() const override { return "pb-ppm"; }

  const PredictionTree& tree() const { return tree_; }
  const PopularityPpmConfig& config() const { return config_; }

  /// Special links per root (for tests/inspection): root node -> targets,
  /// ranked by (traversal count desc, root-to-node URL path asc).
  const std::unordered_map<NodeId, std::vector<NodeId>>& links() const {
    return links_;
  }

  /// Repoints the model at a different popularity table (same lifetime
  /// contract as the constructor). make_snapshot uses this so a published
  /// model reads grades from the snapshot's own table, not from a table
  /// its trainer is about to replace.
  void rebind_grades(const popularity::PopularityTable* grades) {
    assert(grades != nullptr);
    grades_ = grades;
  }

  /// Assembles a model from a tree and its special links, and ranks every
  /// link list by (traversal count desc, root-to-node URL path asc) — the
  /// canonical order predict() and the frozen layout read the top k from.
  /// PbBase::emit() builds models this way.
  static PopularityPpm from_parts(
      const PopularityPpmConfig& config,
      const popularity::PopularityTable* grades, PredictionTree tree,
      std::unordered_map<NodeId, std::vector<NodeId>> links);

 private:
  PopularityPpmConfig config_;
  const popularity::PopularityTable* grades_;
  PredictionTree tree_;
  std::unordered_map<NodeId, std::vector<NodeId>> links_;
};

}  // namespace webppm::ppm
