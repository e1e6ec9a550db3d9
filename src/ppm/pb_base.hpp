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
//     decrements; a node that reaches zero is released;
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
#pragma once

#include <cstddef>
#include <span>

#include "popularity/popularity.hpp"
#include "ppm/popularity_ppm.hpp"
#include "ppm/tree.hpp"
#include "session/session.hpp"

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
  /// under the current grades. Nodes whose count reaches zero leave the
  /// tree and their slots are reused.
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

  const PredictionTree& tree() const { return tree_; }
  const popularity::PopularityTable& grades() const { return *grades_; }
  const PopularityPpmConfig& config() const { return config_; }

 private:
  /// Length of the branch that `grades` make at click i of `urls`: 0 when
  /// click i heads no branch.
  std::size_t branch_length(const popularity::PopularityTable& grades,
                            std::span<const UrlId> urls, std::size_t i) const;
  void insert_branch(std::span<const UrlId> path);
  void retract_branch(std::span<const UrlId> path);

  PopularityPpmConfig config_;
  const popularity::PopularityTable* grades_;
  PredictionTree tree_;
};

}  // namespace webppm::ppm
