#include "core/incremental_model.hpp"

#include <algorithm>
#include <cassert>
#include <optional>
#include <utility>

#include "frozen/frozen.hpp"
#include "ppm/lrs_ppm.hpp"
#include "ppm/pb_base.hpp"
#include "ppm/standard_ppm.hpp"
#include "ppm/top_n.hpp"

namespace webppm::core {
namespace {

/// Standard PPM, LRS PPM and Top-N: train_more() is an exact append, so
/// absorbing closed sessions incrementally equals batch training.
template <typename Model>
class AppendModel final : public IncrementalModel {
 public:
  explicit AppendModel(Model base) : base_(std::move(base)), empty_(base_) {}

  std::size_t regrade(const popularity::PopularityTable& /*pop*/,
                      std::span<const session::Session> /*window*/) override {
    return 0;
  }

  void absorb(std::span<const session::Session> fresh,
              const std::vector<std::uint32_t>& /*counts*/) override {
    base_.train_more(fresh);
  }

  void evict(std::span<const session::Session> /*evicted*/) override {}

  bool rebuild(std::span<const session::Session> window) override {
    base_ = empty_;
    base_.train_more(window);
    return true;
  }

  std::unique_ptr<ppm::Predictor> model(
      std::span<const session::Session> tails) override {
    auto copy = std::make_unique<Model>(base_);
    copy->train_more(tails);
    return copy;
  }

  const ppm::Predictor& view(
      std::span<const session::Session> tails) override {
    if (tails.empty()) {  // the base already is the window model
      held_.reset();
      return base_;
    }
    held_ = model(tails);
    return *held_;
  }

  std::size_t storage_bytes() const override { return base_.storage_bytes(); }

 private:
  Model base_;
  const Model empty_;  ///< untrained copy holding the config, for rebuilds
  std::unique_ptr<ppm::Predictor> held_;  ///< view() with tails
};

/// PB-PPM: a ppm::PbBase over exactly the window, reading grades from an
/// owned copy of the popularity table. Absorbed sessions are inserted
/// under the grades the base holds; a regrade moves the base in place,
/// and evicted sessions are retracted under the grades every session of
/// the window is under. The tails are inserted for the emit and retracted
/// after it.
///
/// The regrade re-walks only the sessions that hold a URL whose grade
/// moved. It finds them through an index from each URL to the window's
/// sessions that hold it: the k-th session absorbed (modulo 2^32) is
/// posted once under each URL it holds, so each list is in window order
/// and eviction drops a prefix of it.
class PbModel final : public IncrementalModel {
 public:
  explicit PbModel(const ppm::PopularityPpmConfig& config) : config_(config) {}

  std::size_t regrade(const popularity::PopularityTable& pop,
                      std::span<const session::Session> window) override {
    if (!base_) {  // nothing absorbed yet: the base starts at this table
      start(pop);
      return 0;
    }
    assert(window.size() == next_id_ - first_id_);
    // The sessions that hold a URL whose grade moved, as positions in the
    // window, in window order. URLs without a list are in no session.
    std::vector<std::uint32_t> held;
    for (UrlId u = 0; u < list_of_.size(); ++u) {
      if (list_of_[u] == kNoList || pop_->grade(u) == pop.grade(u)) continue;
      for (const std::uint32_t id : lists_[list_of_[u]]) {
        held.push_back(id - first_id_);
      }
    }
    std::sort(held.begin(), held.end());
    held.erase(std::unique(held.begin(), held.end()), held.end());
    // The new table moves to owned storage first; the old one stays alive
    // until the regrade, which reads both, is done.
    auto next = std::make_unique<popularity::PopularityTable>(pop);
    const std::size_t regraded = base_->regrade(next.get(), window, held);
    pop_ = std::move(next);
    return regraded;
  }

  void absorb(std::span<const session::Session> fresh,
              const std::vector<std::uint32_t>& counts) override {
    if (!base_) start(popularity::PopularityTable::from_counts(counts));
    base_->insert(fresh);
    for (const auto& s : fresh) {
      for (const UrlId u : s.urls) {
        if (u >= list_of_.size()) {
          list_of_.resize(std::size_t{u} + 1, kNoList);
        }
        if (list_of_[u] == kNoList) {
          list_of_[u] = static_cast<std::uint32_t>(lists_.size());
          lists_.emplace_back();
        }
        auto& list = lists_[list_of_[u]];
        if (list.empty() || list.back() != next_id_) list.push_back(next_id_);
      }
      ++next_id_;
    }
  }

  void evict(std::span<const session::Session> evicted) override {
    base_->retract(evicted);
    first_id_ += static_cast<std::uint32_t>(evicted.size());
    const std::uint32_t live = next_id_ - first_id_;
    for (const auto& s : evicted) {
      for (const UrlId u : s.urls) {
        auto& list = lists_[list_of_[u]];
        const auto kept =
            std::find_if(list.begin(), list.end(), [&](std::uint32_t id) {
              return id - first_id_ < live;
            });
        list.erase(list.begin(), kept);
      }
    }
  }

  bool rebuild(std::span<const session::Session> /*window*/) override {
    return false;
  }

  std::unique_ptr<ppm::Predictor> model(
      std::span<const session::Session> tails) override {
    assert(base_ && "a regrade or an absorb starts the base");
    base_->insert(tails);
    auto out = frozen::FrozenModel::open(base_->emit());
    base_->retract(tails);
    return out;
  }

  const ppm::Predictor& view(
      std::span<const session::Session> tails) override {
    held_ = model(tails);
    return *held_;
  }

  std::size_t storage_bytes() const override {
    std::size_t bytes = (base_ ? base_->memory_bytes() : 0) +
                        (pop_ ? pop_->memory_bytes() : 0) +
                        list_of_.capacity() * sizeof(std::uint32_t) +
                        lists_.capacity() * sizeof(lists_[0]);
    for (const auto& list : lists_) {
      bytes += list.capacity() * sizeof(std::uint32_t);
    }
    return bytes;
  }

 private:
  void start(popularity::PopularityTable pop) {
    pop_ = std::make_unique<popularity::PopularityTable>(std::move(pop));
    base_.emplace(config_, pop_.get());
  }

  ppm::PopularityPpmConfig config_;
  /// Heap-held so its address survives the swap a regrade makes.
  std::unique_ptr<popularity::PopularityTable> pop_;
  std::optional<ppm::PbBase> base_;  ///< unpruned; reads *pop_
  static constexpr std::uint32_t kNoList = ~std::uint32_t{0};
  /// URL id -> its entry in lists_, or kNoList: 4 B per URL id, as the
  /// base's root table and the trainer's counts pay.
  std::vector<std::uint32_t> list_of_;
  /// Ids of the window's sessions that hold a URL, in window order; one
  /// list per URL any absorbed session held.
  std::vector<std::vector<std::uint32_t>> lists_;
  std::uint32_t first_id_ = 0;  ///< id of the window's oldest session
  std::uint32_t next_id_ = 0;   ///< id the next absorbed session gets
  std::unique_ptr<ppm::Predictor> held_;  ///< the last view()
};

}  // namespace

std::unique_ptr<IncrementalModel> IncrementalModel::make(
    const ModelSpec& spec) {
  switch (spec.kind) {
    case ModelKind::kStandard:
      return std::make_unique<AppendModel<ppm::StandardPpm>>(
          ppm::StandardPpm(spec.standard));
    case ModelKind::kLrs:
      return std::make_unique<AppendModel<ppm::LrsPpm>>(ppm::LrsPpm(spec.lrs));
    case ModelKind::kTopN:
      return std::make_unique<AppendModel<ppm::TopNPredictor>>(
          ppm::TopNPredictor(spec.top_n));
    case ModelKind::kPopularity:
      return std::make_unique<PbModel>(spec.pb);
  }
  return nullptr;  // unreachable
}

}  // namespace webppm::core
