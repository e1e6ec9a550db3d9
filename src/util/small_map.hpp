// SmallChildMap: uint32 -> T map optimised for prediction-tree fan-out.
//
// Web prediction trees have extremely skewed fan-out: most nodes have a
// handful of children, a few roots have thousands. A per-node
// std::unordered_map costs ~56 bytes empty plus an allocation per child;
// across millions of nodes (Table 1 of the paper) that dominates memory.
// SmallChildMap stores up to kInlineCapacity entries in an inline array with
// linear search, spilling to a sorted vector with binary search beyond that.
// The spill threshold is an ablation axis in bench/micro_ppm.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <utility>
#include <vector>

namespace webppm::util {

template <typename T, std::size_t kInlineCapacity = 4>
class SmallChildMap {
 public:
  using key_type = std::uint32_t;
  using value_type = std::pair<key_type, T>;

  SmallChildMap() = default;

  /// Returns a pointer to the value for `key`, or nullptr if absent.
  T* find(key_type key) {
    return const_cast<T*>(std::as_const(*this).find(key));
  }

  const T* find(key_type key) const {
    if (!spill_.empty()) {
      const auto it = std::lower_bound(
          spill_.begin(), spill_.end(), key,
          [](const value_type& e, key_type k) { return e.first < k; });
      return (it != spill_.end() && it->first == key) ? &it->second : nullptr;
    }
    for (std::size_t i = 0; i < inline_size_; ++i) {
      if (inline_[i].first == key) return &inline_[i].second;
    }
    return nullptr;
  }

  /// Returns the value for `key`, default-constructing it if absent.
  T& operator[](key_type key) {
    if (T* v = find(key)) return *v;
    return insert_new(key);
  }

  std::size_t size() const {
    return spill_.empty() ? inline_size_ : spill_.size();
  }
  bool empty() const { return size() == 0; }

  /// Heap bytes owned beyond sizeof(*this) — the spill vector's capacity.
  /// Feeds the arena tree's storage accounting (frozen-vs-arena bytes).
  std::size_t heap_bytes() const { return spill_.capacity() * sizeof(value_type); }

  /// Iterates entries in unspecified order; `fn(key, value)`.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    if (!spill_.empty()) {
      for (const auto& [k, v] : spill_) fn(k, v);
    } else {
      for (std::size_t i = 0; i < inline_size_; ++i) {
        fn(inline_[i].first, inline_[i].second);
      }
    }
  }

  template <typename Fn>
  void for_each(Fn&& fn) {
    if (!spill_.empty()) {
      for (auto& [k, v] : spill_) fn(k, v);
    } else {
      for (std::size_t i = 0; i < inline_size_; ++i) {
        fn(inline_[i].first, inline_[i].second);
      }
    }
  }

  /// Removes entries for which `pred(key, value)` is true; returns the
  /// number removed. PredictionTree::release() detaches a subtree with it.
  template <typename Pred>
  std::size_t erase_if(Pred&& pred) {
    if (!spill_.empty()) {
      const auto before = spill_.size();
      std::erase_if(spill_, [&](const value_type& e) {
        return pred(e.first, e.second);
      });
      return before - spill_.size();
    }
    std::size_t removed = 0;
    std::size_t w = 0;
    for (std::size_t i = 0; i < inline_size_; ++i) {
      if (pred(inline_[i].first, inline_[i].second)) {
        ++removed;
      } else {
        if (w != i) inline_[w] = std::move(inline_[i]);
        ++w;
      }
    }
    inline_size_ = w;
    return removed;
  }

 private:
  T& insert_new(key_type key) {
    if (spill_.empty() && inline_size_ < kInlineCapacity) {
      inline_[inline_size_] = {key, T{}};
      return inline_[inline_size_++].second;
    }
    if (spill_.empty()) {
      // Promote: move inline entries into the sorted spill vector.
      spill_.reserve(kInlineCapacity + 1);
      for (std::size_t i = 0; i < inline_size_; ++i) {
        spill_.push_back(std::move(inline_[i]));
      }
      std::sort(spill_.begin(), spill_.end(),
                [](const value_type& a, const value_type& b) {
                  return a.first < b.first;
                });
      inline_size_ = 0;
    }
    const auto it = std::lower_bound(
        spill_.begin(), spill_.end(), key,
        [](const value_type& e, key_type k) { return e.first < k; });
    assert(it == spill_.end() || it->first != key);
    return spill_.insert(it, {key, T{}})->second;
  }

  value_type inline_[kInlineCapacity]{};
  std::size_t inline_size_ = 0;
  std::vector<value_type> spill_;
};

}  // namespace webppm::util
