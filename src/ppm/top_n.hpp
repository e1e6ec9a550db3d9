// Top-N predictor: the server-initiated "Top-10" prefetching baseline of
// Markatos & Chronaki (paper §6, reference [20]). The server pushes its N
// currently most popular documents regardless of the client's context.
// Included as the zero-structure baseline the Markov models are implicitly
// measured against: it captures pure popularity with no path information.
#pragma once

#include <span>
#include <unordered_map>
#include <vector>

#include "popularity/popularity.hpp"
#include "ppm/predictor.hpp"
#include "session/session.hpp"

namespace webppm::ppm {

struct TopNConfig {
  /// How many documents the server pushes (Markatos & Chronaki use 10).
  std::size_t n = 10;
};

class TopNPredictor final : public Predictor {
 public:
  explicit TopNPredictor(const TopNConfig& config = {});

  /// Builds the push set straight from a popularity table's access counts —
  /// no sessions needed. This is the serve layer's graceful-degradation
  /// fallback: when the full Markov model is unavailable, the server can
  /// still push the N most popular documents of the training window. The
  /// result keeps only the push set and the total, not the table's counts,
  /// so its storage does not grow with the URL count; it is not meant to be
  /// trained further (train() starts over).
  static TopNPredictor from_popularity(
      const popularity::PopularityTable& table, const TopNConfig& config = {});

  /// Counts document accesses and fixes the push set to the N most
  /// frequent (ties broken by URL id for determinism). train() replaces
  /// any previous counts; train_more() accumulates on top of them and
  /// re-ranks, so incremental feeding matches one batch call.
  void train(std::span<const session::Session> sessions);
  void train_more(std::span<const session::Session> sessions);

  /// Context-independent: always returns the push set. Probabilities are
  /// each document's share of total training accesses.
  void predict(std::span<const UrlId> context, std::vector<Prediction>& out,
               UsageScratch* usage = nullptr) const override;

  /// "Space" is the push list itself.
  std::size_t node_count() const override { return push_set_.size(); }

  std::size_t storage_bytes() const override {
    return push_set_.capacity() * sizeof(Prediction) +
           counts_.bucket_count() * sizeof(void*) +
           counts_.size() * (sizeof(std::pair<UrlId, std::uint64_t>) +
                             2 * sizeof(void*));
  }

  /// No tree, hence no paths; reported as fully utilised once predictions
  /// have been requested at least once.
  PredictionTree::PathUsage path_usage(
      const UsageScratch& usage) const override {
    return {usage.touched ? push_set_.size() : 0, push_set_.size()};
  }
  void apply_usage(const UsageScratch& usage) override {
    used_ = used_ || usage.touched;
  }
  PredictionTree::PathUsage path_usage() const override {
    return {used_ ? push_set_.size() : 0, push_set_.size()};
  }
  void clear_usage() override { used_ = false; }
  std::string_view name() const override { return "top-n"; }

  const std::vector<Prediction>& push_set() const { return push_set_; }

 private:
  /// Fixes the push set to the config_.n highest of `counted` (ties
  /// broken by URL id), each with its share of total_.
  void rank(std::vector<std::pair<UrlId, std::uint64_t>> counted);

  TopNConfig config_;
  std::unordered_map<UrlId, std::uint64_t> counts_;
  std::uint64_t total_ = 0;
  std::vector<Prediction> push_set_;
  bool used_ = false;
};

}  // namespace webppm::ppm
