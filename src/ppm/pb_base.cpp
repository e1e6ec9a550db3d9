#include "ppm/pb_base.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

namespace webppm::ppm {
namespace {

/// The tree a breadth-first listing describes: entry i becomes node i.
template <typename Listing>
PredictionTree tree_of(const Listing& listing) {
  PredictionTree out;
  out.reserve(listing.size());
  for (std::size_t i = 0; i < listing.size(); ++i) {
    const auto& v = listing[i];
    const NodeId id = v.parent == kNoNode
                          ? out.root_or_add(v.url, v.count)
                          : out.child_or_add(v.parent, v.url, v.count);
    assert(id == i);
    (void)id;
  }
  return out;
}

}  // namespace

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
  const auto [root, fresh] = roots_.try_emplace(path[0], 0);
  if (fresh) {
    root->second = new_node(path[0], 1);
  } else {
    ++nodes_[root->second].count;
  }
  NodeId id = root->second;
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
  const auto root = roots_.find(path[0]);
  assert(root != roots_.end() && "retracting a branch the base does not hold");
  NodeId id = root->second;
  if (--nodes_[id].count == 0) {
    // This branch was the root's one traversal: below it is at most the
    // branch's own tail.
    nodes_[id].children.for_each([this](UrlId, Ref c) { free_tail(c); });
    roots_.erase(root);
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

bool PbBase::drifted(const popularity::PopularityTable& grades) const {
  const std::size_t n = std::max(grades_->url_count(), grades.url_count());
  for (UrlId u = 0; u < n; ++u) {
    if (grades_->grade(u) != grades.grade(u)) return true;
  }
  return false;
}

std::size_t PbBase::regrade(const popularity::PopularityTable* grades,
                            std::span<const session::Session> window) {
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
  for (const auto& s : window) {
    const std::span<const UrlId> urls = s.urls;
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
  // The listing is its own queue. A tail node's one child is the next URL
  // of its run, at count 1.
  std::vector<Visit> kept;
  for (const auto& [url, id] : roots_) {
    const auto i = static_cast<NodeId>(kept.size());
    kept.push_back({url, nodes_[id].count, id, 0, kNoNode, i, 1});
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
      nodes_[v.src].children.for_each([&](UrlId url, Ref c) {
        keep(url, is_tail(c) ? 1 : nodes_[c].count, c, 0);
      });
    } else if (v.pos + 1 < pool_[header_of(v.src)]) {
      keep(pool_[header_of(v.src) + v.pos + 1], 1, v.src, v.pos + 1);
    }
  }
  return kept;
}

PopularityPpm PbBase::emit() const {
  // The survivors are listed first, so the emitted tree is built in one
  // exactly sized arena: no arena regrowth churns the heap while the base
  // is alive.
  const std::vector<Visit> kept =
      survivors(config_.min_absolute_count, config_.min_relative_probability);
  PredictionTree out = tree_of(kept);
  std::unordered_map<NodeId, std::vector<NodeId>> links;
  if (config_.special_links) {
    for (std::size_t i = 0; i < kept.size(); ++i) {
      // Rule 3: a popular URL "not immediately following the heading URL"
      // gets a special link from its branch root.
      const Visit& v = kept[i];
      if (v.depth < 3) continue;
      const int g = grades_->grade(v.url);
      if (g > grades_->grade(kept[v.root].url) || g == popularity::kMaxGrade) {
        links[v.root].push_back(static_cast<NodeId>(i));
      }
    }
  }
  return PopularityPpm::from_parts(config_, grades_, std::move(out),
                                   std::move(links));
}

PredictionTree PbBase::expand() const { return tree_of(survivors(0, 0.0)); }

std::size_t PbBase::memory_bytes() const {
  std::size_t bytes = nodes_.capacity() * sizeof(Node) +
                      pool_.capacity() * sizeof(std::uint32_t);
  for (const Node& n : nodes_) bytes += n.children.heap_bytes();
  // The root table is approximated as in PredictionTree::memory_bytes: one
  // bucket pointer per bucket, one heap node per entry.
  bytes += roots_.bucket_count() * sizeof(void*);
  bytes += roots_.size() *
           (sizeof(std::pair<UrlId, NodeId>) + 2 * sizeof(void*));
  return bytes;
}

}  // namespace webppm::ppm
