#include "frozen/frozen.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>

namespace webppm::frozen {
namespace {

bool fail(std::string* error, std::string msg) {
  if (error != nullptr) *error = std::move(msg);
  return false;
}

template <typename T>
std::span<const T> section_span(const char* base, std::uint64_t offset,
                                std::uint64_t entries) {
  return {reinterpret_cast<const T*>(base + offset),
          static_cast<std::size_t>(entries)};
}

}  // namespace

std::string build_payload(const BuildSpec& spec) {
  assert(spec.popularity != nullptr);
  assert(spec.kind == kKindDegraded || spec.tree != nullptr);
  assert(spec.kind != kKindPopularity &&
         "PB payloads are written by ppm::PbBase::emit()");

  FrozenHeader h{};
  h.model_kind = spec.kind;

  // --- Node order: breadth-first level order, roots (then children) sorted
  // by URL. Frozen ids are assigned in visit order, so children of node i
  // are the contiguous, url-sorted range [child_begin[i], child_begin[i+1])
  // and node depth is monotone in node id (depth stays implicit).
  std::vector<std::pair<UrlId, ppm::NodeId>> order;
  std::vector<std::uint32_t> child_begin;
  if (spec.kind != kKindDegraded) {
    const ppm::PredictionTree& tree = *spec.tree;
    const std::size_t n = tree.node_count();
    order.reserve(n);
    child_begin.assign(n + 1, 0);
    for (const auto& [url, id] : tree.roots()) order.emplace_back(url, id);
    std::sort(order.begin(), order.end());
    std::vector<std::pair<UrlId, ppm::NodeId>> kids;
    for (std::size_t head = 0; head < order.size(); ++head) {
      child_begin[head] = static_cast<std::uint32_t>(order.size());
      kids.clear();
      tree.node(order[head].second)
          .children.for_each(
              [&](UrlId url, ppm::NodeId c) { kids.emplace_back(url, c); });
      std::sort(kids.begin(), kids.end());
      order.insert(order.end(), kids.begin(), kids.end());
    }
    assert(order.size() == n && "arena tree has unreachable live nodes");
    child_begin[n] = static_cast<std::uint32_t>(n);
    h.node_count = static_cast<std::uint32_t>(n);
    h.root_count = static_cast<std::uint32_t>(tree.root_count());
  }

  // --- Per-kind configuration.
  if (spec.kind == kKindStandard) {
    h.prob_threshold = spec.standard.prob_threshold;
    h.max_height = spec.standard.max_height;
    h.max_context = spec.standard.max_context;
  } else if (spec.kind == kKindLrs) {
    h.prob_threshold = spec.lrs.prob_threshold;
    h.max_height = spec.lrs.max_height;
    h.min_support = spec.lrs.min_support;
    h.max_context = spec.lrs.max_context;
  }

  return write_payload(h, *spec.popularity,
                       [&](const auto& put, const SectionLayout& lay) {
                         for (std::size_t i = 0; i < order.size(); ++i) {
                           put(lay.urls, i, order[i].first);
                           put(lay.counts, i,
                               spec.tree->node(order[i].second).count);
                         }
                         for (std::size_t i = 0; i < child_begin.size(); ++i) {
                           put(lay.child_begin, i, child_begin[i]);
                         }
                       });
}

bool decode_payload(std::string_view payload, FrozenView* view,
                    std::string* error) {
  if (payload.size() < sizeof(FrozenHeader)) {
    return fail(error, "frozen: payload smaller than header (" +
                           std::to_string(payload.size()) + " bytes)");
  }
  if (reinterpret_cast<std::uintptr_t>(payload.data()) % 8 != 0) {
    return fail(error, "frozen: mapping base not 8-byte aligned");
  }
  FrozenHeader h;
  std::memcpy(&h, payload.data(), sizeof h);
  if (std::memcmp(h.magic, kMagic, sizeof kMagic) != 0) {
    return fail(error, "frozen: bad magic");
  }
  if (h.header_bytes != sizeof(FrozenHeader)) {
    return fail(error, "frozen: header size " +
                           std::to_string(h.header_bytes) + " != " +
                           std::to_string(sizeof(FrozenHeader)));
  }
  if (h.model_kind > kMaxModelKind) {
    return fail(error,
                "frozen: unknown model kind " + std::to_string(h.model_kind));
  }
  if (h.reserved0 != 0 || h.pad[0] != 0 || h.pad[1] != 0 || h.pad[2] != 0 ||
      std::any_of(std::begin(h.reserved1), std::end(h.reserved1),
                  [](std::uint8_t b) { return b != 0; })) {
    return fail(error, "frozen: reserved header bytes not zero");
  }
  if (h.special_links > 1) {
    return fail(error, "frozen: special_links flag not boolean");
  }
  for (const double v : {h.prob_threshold, h.link_prob_threshold,
                         h.min_relative_probability}) {
    if (!std::isfinite(v) || v < 0.0) {
      return fail(error, "frozen: config threshold not finite and >= 0");
    }
  }

  // The single bounds check: recomputed section layout must match the
  // mapping byte-for-byte. After this every section span is in bounds, and
  // no claimed count ever sized an allocation.
  const SectionLayout lay = compute_layout(h);
  if (h.payload_bytes != payload.size()) {
    return fail(error, "frozen: header claims " +
                           std::to_string(h.payload_bytes) +
                           " payload bytes, mapping has " +
                           std::to_string(payload.size()));
  }
  if (lay.total_bytes != payload.size()) {
    return fail(error, "frozen: sections need " +
                           std::to_string(lay.total_bytes) +
                           " bytes, mapping has " +
                           std::to_string(payload.size()));
  }

  FrozenView v;
  v.header = h;
  const char* base = payload.data();
  v.urls = section_span<std::uint32_t>(base, lay.urls, h.node_count);
  v.counts = section_span<std::uint32_t>(base, lay.counts, h.node_count);
  v.child_begin = section_span<std::uint32_t>(base, lay.child_begin,
                                              lay.child_begin_entries);
  v.link_roots =
      section_span<std::uint32_t>(base, lay.link_roots, h.link_root_count);
  v.link_begin = section_span<std::uint32_t>(base, lay.link_begin,
                                             lay.link_begin_entries);
  v.link_targets = section_span<std::uint32_t>(base, lay.link_targets,
                                               h.link_target_count);
  v.pop_counts =
      section_span<std::uint32_t>(base, lay.pop_counts, h.url_count);
  v.pop_grades = section_span<std::uint8_t>(
      base, lay.pop_grades, (static_cast<std::uint64_t>(h.url_count) + 3) / 4);

  const std::uint32_t n = h.node_count;
  const std::uint32_t r = h.root_count;
  if (h.model_kind == kKindDegraded) {
    if (n != 0 || r != 0 || h.link_root_count != 0 ||
        h.link_target_count != 0) {
      return fail(error, "frozen: degraded payload carries tree sections");
    }
  } else {
    if (r > n) return fail(error, "frozen: root count exceeds node count");
    if (n > 0 && r == 0) {
      return fail(error, "frozen: nodes present but no roots");
    }
    for (std::uint32_t i = 1; i < r; ++i) {
      if (v.urls[i - 1] >= v.urls[i]) {
        return fail(error, "frozen: roots not strictly url-sorted at index " +
                               std::to_string(i));
      }
    }
    if (v.child_begin[0] != r) {
      return fail(error, "frozen: child_begin[0] != root count");
    }
    for (std::uint32_t i = 0; i < n; ++i) {
      const std::uint32_t b = v.child_begin[i];
      const std::uint32_t e = v.child_begin[i + 1];
      if (e < b || e > n) {
        return fail(error, "frozen: child range of node " + std::to_string(i) +
                               " malformed");
      }
      if (b == e) {
        ++v.leaf_count;
        continue;
      }
      if (b <= i) {
        return fail(error, "frozen: children of node " + std::to_string(i) +
                               " do not follow it");
      }
      for (std::uint32_t c = b + 1; c < e; ++c) {
        if (v.urls[c - 1] >= v.urls[c]) {
          return fail(error, "frozen: children of node " + std::to_string(i) +
                                 " not strictly url-sorted");
        }
      }
    }
    if (v.child_begin[n] != n) {
      return fail(error, "frozen: child ranges do not cover all nodes");
    }
    // Level order: the first depth-3 node is where the first depth-2
    // node's children start (child ranges tile [r, n) in parent order).
    v.depth3_begin = v.child_begin[r];
  }

  if (h.model_kind != kKindPopularity &&
      (h.link_root_count != 0 || h.link_target_count != 0)) {
    return fail(error, "frozen: special links on a non-PB model");
  }
  if (h.link_root_count > 0) {
    if (h.special_links == 0) {
      return fail(error, "frozen: links present but special_links disabled");
    }
    for (std::uint32_t i = 0; i < h.link_root_count; ++i) {
      if (v.link_roots[i] >= r) {
        return fail(error, "frozen: link root out of root range");
      }
      if (i > 0 && v.link_roots[i - 1] >= v.link_roots[i]) {
        return fail(error, "frozen: link roots not strictly sorted");
      }
    }
    if (v.link_begin[0] != 0 ||
        v.link_begin[h.link_root_count] != h.link_target_count) {
      return fail(error, "frozen: link ranges do not cover all targets");
    }
    for (std::uint32_t i = 0; i < h.link_root_count; ++i) {
      const std::uint32_t b = v.link_begin[i];
      const std::uint32_t e = v.link_begin[i + 1];
      if (e < b || e > h.link_target_count) {
        return fail(error, "frozen: link range of entry " + std::to_string(i) +
                               " malformed");
      }
      if (b == e) {
        return fail(error, "frozen: link root with no targets");
      }
      for (std::uint32_t t = b; t < e; ++t) {
        // Rule 3 targets are duplicated popular nodes "not immediately
        // following the heading URL" — depth >= 3, same rule the text
        // serializer enforces.
        if (v.link_targets[t] >= n || v.link_targets[t] < v.depth3_begin) {
          return fail(error, "frozen: link target " +
                                 std::to_string(v.link_targets[t]) +
                                 " not a depth>=3 node");
        }
      }
    }
  } else if (lay.link_begin_entries != 0) {
    return fail(error, "frozen: dangling link section");
  }

  // Packed grades must agree with the counts they were derived from
  // (grade_of over relative popularity), and padding bits must be zero so
  // every byte of the section is structurally covered.
  std::uint32_t max_count = 0;
  for (const std::uint32_t c : v.pop_counts) max_count = std::max(max_count, c);
  for (UrlId u = 0; u < h.url_count; ++u) {
    const double rel =
        max_count == 0 ? 0.0
                       : static_cast<double>(v.pop_counts[u]) /
                             static_cast<double>(max_count);
    if (v.grade(u) != popularity::grade_of(rel)) {
      return fail(error, "frozen: grade of url " + std::to_string(u) +
                             " disagrees with its count");
    }
  }
  if (h.url_count % 4 != 0 && !v.pop_grades.empty()) {
    const std::uint8_t last = v.pop_grades[v.pop_grades.size() - 1];
    if ((last >> ((h.url_count % 4) * 2)) != 0) {
      return fail(error, "frozen: grade padding bits not zero");
    }
  }

  if (view != nullptr) *view = v;
  return true;
}

std::unique_ptr<FrozenModel> FrozenModel::open(
    std::shared_ptr<const void> backing, std::string_view payload,
    std::string* error) {
  FrozenView view;
  if (!decode_payload(payload, &view, error)) return nullptr;
  if (view.header.model_kind == kKindDegraded) {
    fail(error, "frozen: degraded payload has no model");
    return nullptr;
  }
  auto model = std::unique_ptr<FrozenModel>(new FrozenModel());
  model->backing_ = std::move(backing);
  model->payload_ = payload;
  model->view_ = view;
  switch (view.header.model_kind) {
    case kKindStandard:
      model->name_ = view.header.max_height == 0
                         ? "frozen-standard-ppm"
                         : "frozen-" + std::to_string(view.header.max_height) +
                               "-ppm";
      break;
    case kKindLrs:
      model->name_ = "frozen-lrs-ppm";
      break;
    default:
      model->name_ = "frozen-pb-ppm";
      break;
  }
  // Roots are the hottest lookup (every context step starts there), so
  // they get a direct url->node table; roots are sorted, so the largest
  // root url is the last one.
  if (view.header.root_count > 0) {
    const UrlId max_root_url = view.urls[view.header.root_count - 1];
    model->root_index_.assign(static_cast<std::size_t>(max_root_url) + 1,
                              kNoNode);
    for (std::uint32_t r = 0; r < view.header.root_count; ++r) {
      model->root_index_[view.urls[r]] = r;
    }
  }
  return model;
}

std::unique_ptr<FrozenModel> FrozenModel::open(std::string payload,
                                               std::string* error) {
  auto owned = std::make_shared<const std::string>(std::move(payload));
  const std::string_view bytes = *owned;
  return open(std::move(owned), bytes, error);
}

std::uint32_t FrozenModel::find_in(std::uint32_t lo, std::uint32_t hi,
                                   UrlId url) const {
  // Child ranges are usually a handful of entries, where a forward scan of
  // the contiguous sorted slice beats any search; larger fan-outs fall
  // through to a branchless lower-bound (conditional pointer advance the
  // compiler turns into cmov, no unpredictable branches).
  const std::uint32_t* data = view_.urls.data();
  const std::uint32_t* base = data + lo;
  std::size_t len = hi - lo;
  if (len <= 16) {
    for (std::size_t i = 0; i < len; ++i) {
      if (base[i] >= url) {
        return base[i] == url ? static_cast<std::uint32_t>(lo + i) : kNoNode;
      }
    }
    return kNoNode;
  }
  while (len > 1) {
    const std::size_t half = len / 2;
    base += (base[half - 1] < url) ? half : 0;
    len -= half;
  }
  return (len == 1 && *base == url)
             ? static_cast<std::uint32_t>(base - data)
             : kNoNode;
}

std::uint32_t FrozenModel::find_path(std::span<const UrlId> path) const {
  if (path.empty()) return kNoNode;
  std::uint32_t cur = find_root(path[0]);
  for (std::size_t i = 1; cur != kNoNode && i < path.size(); ++i) {
    cur = find_in(view_.child_begin[cur], view_.child_begin[cur + 1], path[i]);
  }
  return cur;
}

FrozenModel::Match FrozenModel::longest_match(std::span<const UrlId> context,
                                              std::size_t max_context,
                                              ppm::MatchPolicy policy) const {
  const std::size_t longest = std::min(context.size(), max_context);
  for (std::size_t k = longest; k >= 1; --k) {
    const auto suffix = context.subspan(context.size() - k);
    const std::uint32_t n = find_path(suffix);
    if (n == kNoNode) continue;
    if (!is_leaf(n)) return {n, k};
    if (policy == ppm::MatchPolicy::kStrict) return {};
  }
  return {};
}

void FrozenModel::emit_children(std::uint32_t node, double threshold,
                                std::vector<ppm::Prediction>& out,
                                ppm::UsageScratch* usage) const {
  const auto parent_count = static_cast<double>(view_.counts[node]);
  if (parent_count <= 0.0) return;
  const std::uint32_t b = view_.child_begin[node];
  const std::uint32_t e = view_.child_begin[node + 1];
  for (std::uint32_t c = b; c < e; ++c) {
    const double p = static_cast<double>(view_.counts[c]) / parent_count;
    if (p >= threshold) {
      if (usage != nullptr) usage->nodes.push_back(c);
      out.push_back({view_.urls[c], static_cast<float>(p)});
    }
  }
}

void FrozenModel::predict_links(std::span<const UrlId> context,
                                std::vector<ppm::Prediction>& out,
                                ppm::UsageScratch* usage) const {
  const std::uint32_t root = find_root(context.back());
  if (root == kNoNode) return;
  const auto it = std::lower_bound(view_.link_roots.begin(),
                                   view_.link_roots.end(), root);
  if (it == view_.link_roots.end() || *it != root) return;
  const auto li =
      static_cast<std::uint32_t>(it - view_.link_roots.begin());
  const auto root_count = static_cast<double>(view_.counts[root]);
  std::uint32_t b = view_.link_begin[li];
  std::uint32_t e = view_.link_begin[li + 1];
  const std::uint32_t top_k = view_.header.link_top_k;
  if (top_k > 0 && e - b > top_k) e = b + top_k;
  for (std::uint32_t t = b; t < e; ++t) {
    const std::uint32_t target = view_.link_targets[t];
    const double p =
        root_count > 0.0
            ? static_cast<double>(view_.counts[target]) / root_count
            : 0.0;
    if (p >= view_.header.link_prob_threshold) {
      if (usage != nullptr) {
        usage->nodes.push_back(target);
        usage->touched = true;
      }
      out.push_back({view_.urls[target], static_cast<float>(p)});
    }
  }
}

void FrozenModel::predict(std::span<const UrlId> context,
                          std::vector<ppm::Prediction>& out,
                          ppm::UsageScratch* usage) const {
  out.clear();
  const FrozenHeader& h = view_.header;
  switch (h.model_kind) {
    case kKindStandard: {
      // Mirrors StandardPpm::predict: a fixed-height tree of H levels is an
      // order-(H-1) model, and the match policy is strict.
      const std::size_t max_ctx =
          h.max_height == 0
              ? h.max_context
              : std::min<std::size_t>(h.max_context, h.max_height - 1);
      const Match m = longest_match(context, std::max<std::size_t>(max_ctx, 1),
                                    ppm::MatchPolicy::kStrict);
      if (m.node == kNoNode) return;
      if (usage != nullptr) {
        usage->nodes.push_back(m.node);
        usage->touched = true;
      }
      emit_children(m.node, h.prob_threshold, out, usage);
      ppm::finalize_predictions(out);
      return;
    }
    case kKindLrs: {
      const Match m =
          longest_match(context, h.max_context, ppm::MatchPolicy::kStrict);
      if (m.node == kNoNode) return;
      if (usage != nullptr) {
        usage->nodes.push_back(m.node);
        usage->touched = true;
      }
      emit_children(m.node, h.prob_threshold, out, usage);
      ppm::finalize_predictions(out);
      return;
    }
    default: {  // kKindPopularity
      if (context.empty()) return;
      const Match m = longest_match(context, h.max_context,
                                    ppm::MatchPolicy::kSkipChildless);
      if (m.node != kNoNode) {
        if (usage != nullptr) {
          usage->nodes.push_back(m.node);
          usage->touched = true;
        }
        emit_children(m.node, h.prob_threshold, out, usage);
      }
      if (h.special_links != 0 && h.link_root_count > 0) {
        predict_links(context, out, usage);
      }
      ppm::finalize_predictions(out);
      return;
    }
  }
}

ppm::PredictionTree::PathUsage FrozenModel::path_usage(
    const ppm::UsageScratch& usage) const {
  ppm::PredictionTree::PathUsage result;
  result.total = view_.leaf_count;
  std::vector<std::uint32_t> uniq(usage.nodes.begin(), usage.nodes.end());
  std::sort(uniq.begin(), uniq.end());
  uniq.erase(std::unique(uniq.begin(), uniq.end()), uniq.end());
  for (const std::uint32_t id : uniq) {
    if (id < view_.header.node_count && is_leaf(id)) ++result.used;
  }
  return result;
}

void FrozenModel::apply_usage(const ppm::UsageScratch& usage) {
  if (used_.empty()) used_.assign(view_.header.node_count, 0);
  for (const std::uint32_t id : usage.nodes) {
    if (id < used_.size() && !used_[id]) {
      used_[id] = 1;
      used_list_.push_back(id);
    }
  }
}

ppm::PredictionTree::PathUsage FrozenModel::path_usage() const {
  ppm::PredictionTree::PathUsage result;
  result.total = view_.leaf_count;
  for (const std::uint32_t id : used_list_) {
    if (is_leaf(id)) ++result.used;
  }
  return result;
}

void FrozenModel::clear_usage() {
  for (const std::uint32_t id : used_list_) used_[id] = 0;
  used_list_.clear();
}

}  // namespace webppm::frozen
