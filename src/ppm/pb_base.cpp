#include "ppm/pb_base.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

#include "frozen/format.hpp"

namespace webppm::ppm {

PbBase::PbBase(const PopularityPpmConfig& config,
               const popularity::PopularityTable* grades)
    : config_(config), grades_(grades) {
  assert(grades_ != nullptr);
}

std::size_t PbBase::branch_length(const popularity::PopularityTable& grades,
                                  std::span<const UrlId> urls,
                                  std::size_t i) const {
  // Rule 2/4: a branch starts at session start or on a grade increase.
  const int g = grades.grade(urls[i]);
  if (i != 0 && g <= grades.grade(urls[i - 1])) return 0;
  // Rule 1: its height is capped by its head's grade.
  const std::size_t cap =
      config_.height_by_grade[static_cast<std::size_t>(g)];
  return std::min(cap, urls.size() - i);
}

NodeId PbBase::new_node(UrlId url, std::uint32_t count) {
  ++nodes_live_;
  NodeId id = free_head_;
  if (id == kNoNode) {
    id = static_cast<NodeId>(nodes_.size());
    nodes_.emplace_back();
  } else {
    free_head_ = nodes_[id].url;
  }
  nodes_[id].url = url;
  nodes_[id].count = count;
  return id;
}

void PbBase::free_node(NodeId id) {
  nodes_[id] = Node{};  // drops the child map's spill
  nodes_[id].url = free_head_;
  free_head_ = id;
  --nodes_live_;
}

PbBase::Ref PbBase::seal_tail(std::size_t header) {
  assert(header < pool_.size() && pool_.size() <= kTailBit);
  const auto length = static_cast<std::uint32_t>(pool_.size() - header);
  pool_[header] = length;
  pool_live_ += length;
  ++tails_live_;
  return static_cast<Ref>(header) | kTailBit;
}

PbBase::Ref PbBase::new_tail(std::span<const UrlId> urls) {
  const std::size_t header = pool_.size();
  pool_.push_back(0);  // the length word, where urls[0] would go
  pool_.insert(pool_.end(), urls.begin() + 1, urls.end());
  return seal_tail(header);
}

void PbBase::free_tail(Ref tail) {
  const std::uint32_t length = pool_[header_of(tail)];
  pool_live_ -= length;
  pool_dead_ += length;
  --tails_live_;
}

void PbBase::compact_pool_if_sparse() {
  if (2 * pool_dead_ <= pool_live_) return;
  // Live tails are copied in node order into a buffer of the same
  // capacity, so a base whose size holds steady keeps one pool allocation;
  // each parent's entry is repointed. Free node slots have no children.
  std::vector<std::uint32_t> packed;
  packed.reserve(pool_.capacity());
  for (Node& n : nodes_) {
    n.children.for_each([&](UrlId, Ref& c) {
      if (!is_tail(c)) return;
      const auto from =
          pool_.begin() + static_cast<std::ptrdiff_t>(header_of(c));
      c = static_cast<Ref>(packed.size()) | kTailBit;
      packed.insert(packed.end(), from, from + *from);
    });
  }
  pool_ = std::move(packed);
  pool_dead_ = 0;
}

void PbBase::insert_branch(std::span<const UrlId> path) {
  if (path[0] >= roots_.size()) {
    roots_.resize(static_cast<std::size_t>(path[0]) + 1, kNoNode);
  }
  NodeId& root = roots_[path[0]];
  if (root == kNoNode) {
    root = new_node(path[0], 1);
  } else {
    ++nodes_[root].count;
  }
  NodeId id = root;
  for (std::size_t k = 1; k < path.size(); ++k) {
    const Ref* const c = nodes_[id].children.find(path[k]);
    if (c == nullptr) {  // first traversal: the rest of the branch is a tail
      nodes_[id].children[path[k]] = new_tail(path.subspan(k));
      return;
    }
    if (is_tail(*c)) {
      split(id, *c, path.subspan(k));
      return;
    }
    id = *c;
    ++nodes_[id].count;
  }
}

void PbBase::split(NodeId parent, Ref tail, std::span<const UrlId> rest) {
  const std::size_t header = header_of(tail);
  const std::uint32_t length = pool_[header];
  std::size_t shared = 1;  // the first URL is the child-map key
  while (shared < rest.size() && shared < length &&
         pool_[header + shared] == rest[shared]) {
    ++shared;
  }
  // The shared run is traversed twice now: materialise it at count 2, its
  // first node in the tail's child-map entry.
  NodeId last = parent;
  for (std::size_t j = 0; j < shared; ++j) {
    const NodeId n = new_node(rest[j], 2);
    if (j == 0) {
      *nodes_[last].children.find(rest[j]) = n;
    } else {
      nodes_[last].children[rest[j]] = n;
    }
    last = n;
  }
  // The tail's remainder keeps its place in the pool: its first URL moves
  // to its parent's child map and its length word takes that URL's place.
  // The branch's remainder becomes a tail of its own.
  if (shared < length) {
    const std::size_t rem = header + shared;
    const UrlId first = pool_[rem];
    pool_[rem] = length - static_cast<std::uint32_t>(shared);
    pool_live_ -= shared;
    pool_dead_ += shared;
    nodes_[last].children[first] = static_cast<Ref>(rem) | kTailBit;
  } else {
    free_tail(tail);
  }
  if (shared < rest.size()) {
    nodes_[last].children[rest[shared]] = new_tail(rest.subspan(shared));
  }
}

void PbBase::retract_branch(std::span<const UrlId> path) {
  assert(path[0] < roots_.size() && roots_[path[0]] != kNoNode &&
         "retracting a branch the base does not hold");
  NodeId id = roots_[path[0]];
  if (--nodes_[id].count == 0) {
    // This branch was the root's one traversal: below it is at most the
    // branch's own tail.
    nodes_[id].children.for_each([this](UrlId, Ref c) { free_tail(c); });
    roots_[path[0]] = kNoNode;
    free_node(id);
    return;
  }
  // The first non-root node that falls back to count 1 takes everything
  // below it on this branch along, so it is folded once the walk is done.
  NodeId fold_parent = kNoNode;
  UrlId fold_url = kInvalidUrl;
  for (std::size_t k = 1; k < path.size(); ++k) {
    const Ref* const c = nodes_[id].children.find(path[k]);
    assert(c != nullptr && "retracting a branch the base does not hold");
    if (is_tail(*c)) {
      // A tail's one traversal is this branch, which ends where it ends.
      assert(pool_[header_of(*c)] == path.size() - k);
      free_tail(*c);
      nodes_[id].children.erase_if([&](UrlId u, Ref) { return u == path[k]; });
      break;
    }
    if (--nodes_[*c].count == 1 && fold_parent == kNoNode) {
      fold_parent = id;
      fold_url = path[k];
    }
    id = *c;
  }
  if (fold_parent != kNoNode) fold(fold_parent, fold_url);
}

void PbBase::fold(NodeId parent, UrlId url) {
  // Every node from here down has count 1 and at most one child. The
  // chain's URLs follow a length word; the first stays the map key.
  const std::size_t header = pool_.size();
  pool_.push_back(0);
  NodeId n = *nodes_[parent].children.find(url);
  for (;;) {
    assert(nodes_[n].count == 1 && nodes_[n].children.size() <= 1);
    bool more = false;
    UrlId next_url = kInvalidUrl;
    Ref next = 0;
    nodes_[n].children.for_each([&](UrlId u, Ref c) {
      more = true;
      next_url = u;
      next = c;
    });
    free_node(n);
    if (!more) break;
    pool_.push_back(next_url);
    if (is_tail(next)) {
      const std::size_t from = header_of(next);
      for (std::size_t i = 1; i < pool_[from]; ++i) {
        const UrlId u = pool_[from + i];  // push_back may reallocate
        pool_.push_back(u);
      }
      free_tail(next);
      break;
    }
    n = next;
  }
  *nodes_[parent].children.find(url) = seal_tail(header);
}

void PbBase::insert(std::span<const session::Session> sessions) {
  for (const auto& s : sessions) {
    const std::span<const UrlId> urls = s.urls;
    for (std::size_t i = 0; i < urls.size(); ++i) {
      if (const auto len = branch_length(*grades_, urls, i)) {
        insert_branch(urls.subspan(i, len));
      }
    }
  }
  compact_pool_if_sparse();
}

void PbBase::retract(std::span<const session::Session> sessions) {
  for (const auto& s : sessions) {
    const std::span<const UrlId> urls = s.urls;
    for (std::size_t i = 0; i < urls.size(); ++i) {
      if (const auto len = branch_length(*grades_, urls, i)) {
        retract_branch(urls.subspan(i, len));
      }
    }
  }
  compact_pool_if_sparse();
}

std::size_t PbBase::regrade(const popularity::PopularityTable* grades,
                            std::span<const session::Session> window,
                            std::span<const std::uint32_t> held) {
  assert(grades != nullptr);
  const popularity::PopularityTable& before = *grades_;
  const popularity::PopularityTable& after = *grades;
  // URLs beyond both tables are grade 0 in each, so cannot have moved.
  const std::size_t n = std::max(before.url_count(), after.url_count());
  std::vector<std::uint8_t> moved(n, 0);
  bool any = false;
  for (UrlId u = 0; u < n; ++u) {
    if (before.grade(u) != after.grade(u)) moved[u] = any = true;
  }
  grades_ = grades;
  if (!any) return 0;

  const auto is_moved = [&](UrlId u) { return u < n && moved[u] != 0; };
  std::size_t touched = 0;
  for (const std::uint32_t pos : held) {
    const std::span<const UrlId> urls = window[pos].urls;
    bool hit = false;
    for (std::size_t i = 0; i < urls.size(); ++i) {
      // The branch at click i reads the grades of clicks i and i-1 only.
      if (!is_moved(urls[i]) && (i == 0 || !is_moved(urls[i - 1]))) continue;
      hit = true;
      const auto old_len = branch_length(before, urls, i);
      const auto new_len = branch_length(after, urls, i);
      if (old_len == new_len) continue;
      if (old_len != 0) retract_branch(urls.subspan(i, old_len));
      if (new_len != 0) insert_branch(urls.subspan(i, new_len));
    }
    touched += hit ? 1 : 0;
  }
  compact_pool_if_sparse();
  return touched;
}

std::vector<PbBase::Visit> PbBase::survivors(std::uint32_t min_count,
                                             double min_share) const {
  // Rule 4: a non-root node is cut, with its subtree, when its count is at
  // most min_count or its share of its parent's count is below min_share.
  const auto cut = [&](std::uint32_t count, std::uint32_t parent_count) {
    if (min_count > 0 && count <= min_count) return true;
    if (min_share > 0.0) {
      const auto pc = static_cast<double>(parent_count);
      if (pc > 0.0 && static_cast<double>(count) / pc < min_share) return true;
    }
    return false;
  };
  // The listing is its own queue, roots first in URL order. A tail node's
  // one child is the next URL of its run, at count 1.
  std::vector<Visit> kept;
  for (std::size_t url = 0; url < roots_.size(); ++url) {
    const NodeId id = roots_[url];
    if (id == kNoNode) continue;
    const auto i = static_cast<NodeId>(kept.size());
    kept.push_back(
        {static_cast<UrlId>(url), nodes_[id].count, id, 0, kNoNode, i, 1});
  }
  for (std::size_t i = 0; i < kept.size(); ++i) {
    const Visit v = kept[i];  // push_back below may reallocate
    const auto keep = [&](UrlId url, std::uint32_t count, Ref src,
                          std::uint32_t pos) {
      if (cut(count, v.count)) return;
      kept.push_back({url, count, src, pos, static_cast<NodeId>(i), v.root,
                      v.depth + 1});
    };
    if (!is_tail(v.src)) {
      const std::size_t first = kept.size();
      nodes_[v.src].children.for_each([&](UrlId url, Ref c) {
        keep(url, is_tail(c) ? 1 : nodes_[c].count, c, 0);
      });
      // A spilled child map lists its entries in URL order, an inline one
      // (at most two) in insertion order.
      if (kept.size() == first + 2 && kept[first].url > kept[first + 1].url) {
        std::swap(kept[first], kept[first + 1]);
      }
    } else if (v.pos + 1 < pool_[header_of(v.src)]) {
      keep(pool_[header_of(v.src) + v.pos + 1], 1, v.src, v.pos + 1);
    }
  }
  return kept;
}

std::string PbBase::emit() const {
  const std::vector<Visit> kept =
      survivors(config_.min_absolute_count, config_.min_relative_probability);
  const auto n = static_cast<std::uint32_t>(kept.size());
  std::uint32_t roots = 0;
  while (roots < n && kept[roots].parent == kNoNode) ++roots;

  // Rule 3: a popular URL "not immediately following the heading URL" gets
  // a special link from its branch root. Rows are in root order, and a
  // row is ranked by count, ties broken on the target's root-to-node URL
  // path: it identifies a tree position canonically, so the order is
  // total. Every target of a row shares its root, so paths are kept from
  // depth 2 on, all in one flat buffer.
  struct Link {
    std::uint32_t root;
    std::uint32_t count;
    std::uint32_t path_begin;
    std::uint32_t path_end;
    std::uint32_t node;
  };
  std::vector<Link> links;
  std::vector<UrlId> paths;
  for (std::uint32_t i = roots; i < n && config_.special_links; ++i) {
    const Visit& v = kept[i];
    const int g = grades_->grade(v.url);
    if (v.depth < 3 ||
        (g <= grades_->grade(kept[v.root].url) && g != popularity::kMaxGrade)) {
      continue;
    }
    const auto begin = static_cast<std::uint32_t>(paths.size());
    for (NodeId a = i; a != v.root; a = kept[a].parent) {
      paths.push_back(kept[a].url);
    }
    std::reverse(paths.begin() + begin, paths.end());
    links.push_back({v.root, v.count, begin,
                     static_cast<std::uint32_t>(paths.size()), i});
  }
  std::sort(links.begin(), links.end(), [&paths](const Link& x, const Link& y) {
    if (x.root != y.root) return x.root < y.root;
    if (x.count != y.count) return x.count > y.count;
    return std::lexicographical_compare(
        paths.begin() + x.path_begin, paths.begin() + x.path_end,
        paths.begin() + y.path_begin, paths.begin() + y.path_end);
  });
  const auto row_starts = [&links](std::size_t t) {
    return t == 0 || links[t].root != links[t - 1].root;
  };
  std::uint32_t rows = 0;
  for (std::size_t t = 0; t < links.size(); ++t) rows += row_starts(t);

  frozen::FrozenHeader h{};
  h.model_kind = frozen::kKindPopularity;
  h.node_count = n;
  h.root_count = roots;
  h.link_root_count = rows;
  h.link_target_count = static_cast<std::uint32_t>(links.size());
  h.prob_threshold = config_.prob_threshold;
  h.link_prob_threshold = config_.link_prob_threshold;
  h.min_relative_probability = config_.min_relative_probability;
  h.max_context = config_.max_context;
  h.link_top_k = config_.link_top_k;
  h.min_absolute_count = config_.min_absolute_count;
  for (std::size_t g = 0; g < config_.height_by_grade.size(); ++g) {
    h.height_by_grade[g] = config_.height_by_grade[g];
  }
  h.special_links = config_.special_links ? 1 : 0;
  return frozen::write_payload(
      h, *grades_, [&](const auto& put, const frozen::SectionLayout& lay) {
        // Node i's children are the run of survivors whose parent is i:
        // the listing is breadth first, so runs follow in parent order.
        std::uint32_t child = roots;
        for (std::uint32_t i = 0; i < n; ++i) {
          put(lay.urls, i, kept[i].url);
          put(lay.counts, i, kept[i].count);
          while (child < n && kept[child].parent < i) ++child;
          put(lay.child_begin, i, child);
        }
        put(lay.child_begin, n, n);
        std::uint32_t row = 0;
        for (std::size_t t = 0; t < links.size(); ++t) {
          if (row_starts(t)) {
            put(lay.link_roots, row, links[t].root);
            put(lay.link_begin, row++, static_cast<std::uint32_t>(t));
          }
          put(lay.link_targets, t, links[t].node);
        }
        if (row != 0) put(lay.link_begin, row, h.link_target_count);
      });
}

PredictionTree PbBase::expand() const {
  // Entry i of the listing becomes node i: parents come before children.
  const std::vector<Visit> listing = survivors(0, 0.0);
  PredictionTree out;
  out.reserve(listing.size());
  for (const Visit& v : listing) {
    if (v.parent == kNoNode) {
      out.root_or_add(v.url, v.count);
    } else {
      out.child_or_add(v.parent, v.url, v.count);
    }
  }
  return out;
}

std::size_t PbBase::memory_bytes() const {
  std::size_t bytes = nodes_.capacity() * sizeof(Node) +
                      pool_.capacity() * sizeof(std::uint32_t);
  for (const Node& n : nodes_) bytes += n.children.heap_bytes();
  return bytes + roots_.capacity() * sizeof(NodeId);
}

}  // namespace webppm::ppm
