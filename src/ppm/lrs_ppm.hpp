// LRS-PPM model (paper §3.2, second approach; Pitkow & Pirolli, USENIX '99):
// keep only the Longest Repeating Subsequences — maximal URL sequences that
// occur at least `min_support` times in the training sessions — and insert
// each LRS together with all of its suffixes, so that the longest-match rule
// can start a match anywhere inside a pattern. The suffix duplication is
// what makes the LRS tree grow quickly with more training days (paper §4.3).
#pragma once

#include <span>
#include <vector>

#include "ppm/predictor.hpp"
#include "session/session.hpp"

namespace webppm::ppm {

struct LrsPpmConfig {
  /// A sequence is "repeating" when seen at least this many times
  /// (paper: "accessed twice or more" = 2).
  std::uint32_t min_support = 2;
  /// Cap on extracted pattern length (0 = unbounded).
  std::uint32_t max_height = 0;
  double prob_threshold = 0.25;
  std::uint32_t max_context = 16;
};

class LrsPpm final : public Predictor {
 public:
  explicit LrsPpm(const LrsPpmConfig& config = {});

  /// Two-phase training: build a full window tree with support counts, then
  /// extract the LRS set and re-insert each pattern plus its suffixes.
  /// train() starts from scratch; train_more() adds the sessions to the
  /// retained support tree and re-derives patterns and the prediction tree,
  /// so feeding a window in chunks matches one batch train() exactly.
  void train(std::span<const session::Session> sessions);
  void train_more(std::span<const session::Session> sessions);

  void predict(std::span<const UrlId> context, std::vector<Prediction>& out,
               UsageScratch* usage = nullptr) const override;
  std::size_t node_count() const override { return tree_.node_count(); }
  /// Serving tree + the retained support tree + extracted patterns; a model
  /// reloaded from a snapshot carries the serving tree only.
  std::size_t storage_bytes() const override {
    std::size_t bytes = tree_.memory_bytes() + support_.memory_bytes();
    bytes += patterns_.capacity() * sizeof(std::vector<UrlId>);
    for (const auto& p : patterns_) bytes += p.capacity() * sizeof(UrlId);
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
  std::string_view name() const override { return "lrs-ppm"; }

  const PredictionTree& tree() const { return tree_; }

  /// The extracted longest repeating subsequences (for tests/inspection).
  const std::vector<std::vector<UrlId>>& patterns() const { return patterns_; }

  const LrsPpmConfig& config() const { return config_; }

 private:
  LrsPpmConfig config_;
  PredictionTree support_;  ///< full window tree; retained for train_more
  PredictionTree tree_;
  std::vector<std::vector<UrlId>> patterns_;
};

}  // namespace webppm::ppm
