// webppm::frozen — the immutable structure-of-arrays serving tree.
//
// The arena PredictionTree is built for training: pointer-rich nodes
// (~80 bytes plus child-map heap) that grow, prune and compact. Serving
// needs none of that: a published snapshot is immutable, so this library
// compiles the arena into a flat payload (format.hpp) that costs 12 bytes
// per node, loads by mmap with zero deserialization allocations, and
// answers predict() byte-identically to the arena model it froze. PB-PPM
// has no arena form: ppm::PbBase::emit() writes its payload directly.
//
// Three pieces:
//   * build_payload()  — compiles a standard or LRS arena model (tree +
//     config + popularity) into one contiguous payload string.
//   * decode_payload() — validates a payload and yields a FrozenView of
//     spans into it. Validation is a single O(payload) scan with no
//     allocations, so hostile headers can never size a buffer (the fuzz
//     suite holds it to that).
//   * FrozenModel      — a ppm::Predictor serving straight from a decoded
//     view; shares ownership of the backing bytes (heap buffer or mmap).
#pragma once

#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "frozen/format.hpp"
#include "popularity/popularity.hpp"
#include "ppm/lrs_ppm.hpp"
#include "ppm/predictor.hpp"
#include "ppm/standard_ppm.hpp"

namespace webppm::frozen {

/// What to freeze: a standard or LRS arena model, or (kKindDegraded)
/// popularity alone. `popularity` is always required; `tree` is required
/// for the two model kinds. The config matching `kind` is read; the other
/// is ignored.
struct BuildSpec {
  ModelKind kind = kKindDegraded;
  ppm::StandardPpmConfig standard;
  ppm::LrsPpmConfig lrs;
  const ppm::PredictionTree* tree = nullptr;
  const popularity::PopularityTable* popularity = nullptr;
};

/// Compiles `spec` into a frozen payload (BFS level-order node layout,
/// sorted child ranges, packed grades — see format.hpp) through
/// write_payload().
std::string build_payload(const BuildSpec& spec);

/// Zero-copy decoded payload: the header by value, every section as a span
/// into the payload bytes. Valid only while the backing bytes live.
struct FrozenView {
  FrozenHeader header{};
  std::span<const std::uint32_t> urls;
  std::span<const std::uint32_t> counts;
  std::span<const std::uint32_t> child_begin;  ///< node_count + 1 entries
  std::span<const std::uint32_t> link_roots;
  std::span<const std::uint32_t> link_begin;   ///< link_root_count + 1
  std::span<const std::uint32_t> link_targets;
  std::span<const std::uint32_t> pop_counts;
  std::span<const std::uint8_t> pop_grades;    ///< 2 bits per URL
  std::uint32_t depth3_begin = 0;  ///< first node id at depth >= 3
  std::size_t leaf_count = 0;

  /// Unpacked popularity grade for `u` (0 for URLs beyond the table).
  int grade(UrlId u) const {
    if (u >= header.url_count) return 0;
    return (pop_grades[u >> 2] >> ((u & 3u) * 2)) & 3u;
  }
};

/// Validates `payload` and fills `view` with spans into it. Returns false
/// with a structured reason in `error` ("frozen: children not sorted at
/// node 12") on any violation. Never allocates proportionally to claimed
/// sizes: every count is bounded by the single exact-size check before any
/// section is read. `payload.data()` must be 8-byte aligned (heap buffers
/// and page-aligned mappings both are).
bool decode_payload(std::string_view payload, FrozenView* view,
                    std::string* error);

/// A Predictor serving from a frozen payload. For standard and LRS,
/// predict() is byte-identical to the arena model the payload froze: same
/// longest-match walk, same probability arithmetic (exact u32 counts,
/// double division, float narrowing), same finalize pass — only the
/// storage differs. A PB payload is PB-PPM's only form.
class FrozenModel final : public ppm::Predictor {
 public:
  /// Decodes `payload` (which must stay alive through `backing`) into a
  /// servable model. Returns nullptr with a reason on a malformed payload
  /// or a degraded (model-less) one — a degraded payload has no predictor
  /// to offer; the serve layer turns it into a fallback-only snapshot.
  static std::unique_ptr<FrozenModel> open(
      std::shared_ptr<const void> backing, std::string_view payload,
      std::string* error);

  /// Serves a heap payload it takes over (ppm::PbBase::emit()'s, say).
  static std::unique_ptr<FrozenModel> open(std::string payload,
                                           std::string* error = nullptr);

  void predict(std::span<const UrlId> context,
               std::vector<ppm::Prediction>& out,
               ppm::UsageScratch* usage = nullptr) const override;
  std::size_t node_count() const override { return view_.header.node_count; }
  std::size_t storage_bytes() const override {
    return payload_.size() + root_index_.capacity() * sizeof(std::uint32_t) +
           used_.capacity() * sizeof(std::uint8_t) +
           used_list_.capacity() * sizeof(std::uint32_t);
  }
  ppm::PredictionTree::PathUsage path_usage(
      const ppm::UsageScratch& usage) const override;
  void apply_usage(const ppm::UsageScratch& usage) override;
  ppm::PredictionTree::PathUsage path_usage() const override;
  void clear_usage() override;
  std::string_view name() const override { return name_; }

  const FrozenView& view() const { return view_; }
  std::string_view payload() const { return payload_; }

 private:
  FrozenModel() = default;

  struct Match {
    std::uint32_t node = kNoNode;
    std::size_t context_used = 0;
  };
  static constexpr std::uint32_t kNoNode = 0xffffffffu;

  bool is_leaf(std::uint32_t n) const {
    return view_.child_begin[n] == view_.child_begin[n + 1];
  }
  std::uint32_t find_in(std::uint32_t lo, std::uint32_t hi, UrlId url) const;
  /// O(1) root lookup via the url->root table built at open(). The arena
  /// resolves roots through a hash map; a binary search over thousands of
  /// sorted roots per context step was the frozen layout's one lookup that
  /// lost to it, so roots get a direct index (4 bytes per url — small next
  /// to the payload) while interior nodes keep the sorted-range search.
  std::uint32_t find_root(UrlId url) const {
    return url < root_index_.size() ? root_index_[url] : kNoNode;
  }
  std::uint32_t find_path(std::span<const UrlId> path) const;
  Match longest_match(std::span<const UrlId> context, std::size_t max_context,
                      ppm::MatchPolicy policy) const;
  void emit_children(std::uint32_t node, double threshold,
                     std::vector<ppm::Prediction>& out,
                     ppm::UsageScratch* usage) const;
  void predict_links(std::span<const UrlId> context,
                     std::vector<ppm::Prediction>& out,
                     ppm::UsageScratch* usage) const;

  std::shared_ptr<const void> backing_;
  std::string_view payload_;
  FrozenView view_;
  std::string name_;
  /// url -> root node id (kNoNode when the url is not a root). Sized to
  /// the largest root url + 1; built once at open().
  std::vector<std::uint32_t> root_index_;

  // Usage marks (paper path-utilisation metric). The payload itself stays
  // immutable; marks live beside it, lazily sized on first apply_usage().
  std::vector<std::uint8_t> used_;
  std::vector<std::uint32_t> used_list_;
};

}  // namespace webppm::frozen
