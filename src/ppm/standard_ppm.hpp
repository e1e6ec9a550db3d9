// Standard PPM model (paper §3.2, first approach; Palpanas & Mendelzon;
// Fan et al.): a Markov prediction tree that "widely creates branches" —
// every URL occurrence heads a branch, and each branch records the
// subsequent clicks up to a fixed height. Height 0 means unbounded, the
// paper's upper-bound configuration for the standard model's accuracy.
#pragma once

#include <span>
#include <string>

#include "ppm/predictor.hpp"
#include "session/session.hpp"

namespace webppm::ppm {

struct StandardPpmConfig {
  /// Maximum nodes per branch (tree height); 0 = unbounded.
  std::uint32_t max_height = 0;
  /// Minimum conditional probability for a prefetch candidate (paper: 0.25).
  double prob_threshold = 0.25;
  /// Longest context suffix considered when matching.
  std::uint32_t max_context = 16;
};

class StandardPpm final : public Predictor {
 public:
  explicit StandardPpm(const StandardPpmConfig& config = {});

  /// Inserts every height-capped window of every session. Training is
  /// purely additive, so train() on two batches equals train() on their
  /// concatenation; train_more() is the same operation under the name the
  /// incremental sweep engine uses across all models.
  void train(std::span<const session::Session> sessions);
  void train_more(std::span<const session::Session> sessions) {
    train(sessions);
  }

  void predict(std::span<const UrlId> context, std::vector<Prediction>& out,
               UsageScratch* usage = nullptr) const override;
  std::size_t node_count() const override { return tree_.node_count(); }
  std::size_t storage_bytes() const override { return tree_.memory_bytes(); }
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
  std::string_view name() const override { return name_; }

  const PredictionTree& tree() const { return tree_; }
  const StandardPpmConfig& config() const { return config_; }

 private:
  StandardPpmConfig config_;
  PredictionTree tree_;
  std::string name_;
};

}  // namespace webppm::ppm
