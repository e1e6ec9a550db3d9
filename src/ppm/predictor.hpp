// Common interface of the three prefetching prediction models.
#pragma once

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "ppm/tree.hpp"
#include "util/types.hpp"

namespace webppm::ppm {

/// One prefetch candidate: a URL the model believes the client will request
/// next, with its conditional probability estimate.
struct Prediction {
  UrlId url = kInvalidUrl;
  float probability = 0.0f;

  friend bool operator==(const Prediction&, const Prediction&) = default;
};

/// Caller-owned record of the tree nodes a batch of predict() calls walked.
/// predict() is const and touches nothing; when the caller cares about the
/// paper's path-utilisation metric it passes a scratch, accumulates over as
/// many calls as it likes, and either reads the metric directly via
/// Predictor::path_usage(scratch) or folds the batch into the model's own
/// usage marks with apply_usage(). Entries may repeat; consumers dedup.
struct UsageScratch {
  std::vector<NodeId> nodes;  ///< tree nodes touched (models with a tree)
  bool touched = false;       ///< any prediction made (tree-less models)

  void clear() {
    nodes.clear();
    touched = false;
  }
};

class Predictor {
 public:
  virtual ~Predictor() = default;

 protected:
  // Concrete models are value types (the sweep engine snapshots them by
  // copy); keep the base's copy operations available to them but protected
  // so a Predictor& can never be sliced.
  Predictor() = default;
  Predictor(const Predictor&) = default;
  Predictor& operator=(const Predictor&) = default;

 public:

  /// Produces prefetch candidates for a client whose recent click sequence
  /// (oldest first, current click last) is `context`. Candidates are
  /// deduplicated, filtered by the model's probability threshold, and
  /// sorted by descending probability (ties by URL id, so output is
  /// deterministic). Const: safe to call from any number of threads on a
  /// frozen model. When `usage` is non-null the nodes the walk touched are
  /// appended to it for the paper's path-utilisation metric.
  virtual void predict(std::span<const UrlId> context,
                       std::vector<Prediction>& out,
                       UsageScratch* usage = nullptr) const = 0;

  /// Live node count — the paper's "space" metric (Tables 1 and 2).
  virtual std::size_t node_count() const = 0;

  /// Resident bytes of the model's prediction structures — the deployment
  /// cost behind the paper's node counts. Reporting cadence only (may walk
  /// the whole structure); exported as webppm_serve_snapshot_bytes and
  /// compared arena-vs-frozen in bench/frozen_bench.
  virtual std::size_t storage_bytes() const = 0;

  /// Path utilisation of a usage batch against this model, without mutating
  /// anything. Identical to apply_usage(usage) followed by path_usage().
  virtual PredictionTree::PathUsage path_usage(
      const UsageScratch& usage) const = 0;

  /// Folds a caller-accumulated usage batch into the model's own usage
  /// marks (the owner applies batched marks; readers never do).
  virtual void apply_usage(const UsageScratch& usage) = 0;

  /// Fraction of root-to-leaf paths marked used since the last
  /// clear_usage() (marks arrive via apply_usage()).
  virtual PredictionTree::PathUsage path_usage() const = 0;
  virtual void clear_usage() = 0;

  virtual std::string_view name() const = 0;
};

/// How the longest-match rule treats a deepest match that has no recorded
/// continuation (a leaf):
///   kStrict       — the paper's §4.1 behaviour for the standard and LRS
///                   models: "matches as many previous URLs as possible to
///                   make a prediction"; if that match is a leaf, no
///                   prediction is made. This is what makes the standard
///                   model's accumulated one-off deep contexts hurt it.
///   kSkipChildless — back off to the longest shorter suffix that can
///                   predict. The popularity-based model uses this: its
///                   branch heights vary per root, so a fixed context order
///                   cannot be chosen up front.
/// PB-PPM serves only in frozen form, so only frozen::FrozenModel reads
/// the policy; the arena longest_match below is strict.
enum class MatchPolicy : std::uint8_t { kStrict, kSkipChildless };

/// Deepest tree node whose root-path equals a suffix of `context`,
/// considering suffixes up to `max_context` URLs, under kStrict: a longer
/// suffix that is absent is skipped, one that is a leaf ends the search
/// with no match.
struct MatchResult {
  NodeId node = kNoNode;
  std::size_t context_used = 0;
};
MatchResult longest_match(const PredictionTree& tree,
                          std::span<const UrlId> context,
                          std::size_t max_context);

/// Appends `node`'s children with conditional probability >= threshold to
/// `out`, recording each emitted child in `usage` (when given).
/// Probability = child.count / node.count.
void emit_children(const PredictionTree& tree, NodeId node, double threshold,
                   std::vector<Prediction>& out,
                   UsageScratch* usage = nullptr);

/// Deduplicates by URL (keeping the highest probability) and sorts by
/// (probability desc, url asc).
void finalize_predictions(std::vector<Prediction>& out);

}  // namespace webppm::ppm
