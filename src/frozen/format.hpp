// On-disk/in-memory layout of the frozen serving snapshot (DESIGN.md §12).
//
// The frozen payload is one contiguous byte range: a fixed 128-byte header
// followed by structure-of-arrays sections, each aligned to 64 bytes. The
// section *offsets are not stored* — they are recomputed from the header
// counts by builder and decoder alike, so a decoder accepts a payload only
// if its total computed size matches the mapped size exactly; a header
// field large enough to push any section out of bounds fails that single
// check before any section is touched.
//
// Node layout (the "frozen tree"): nodes are numbered in breadth-first
// level order — roots first (sorted by URL id), then all depth-2 nodes,
// then depth-3, and so on. Children of node i occupy the contiguous id
// range [child_begin[i], child_begin[i+1]) and are sorted by URL id within
// it, so child lookup is a branchless binary search over a cache-dense
// u32 slice and "emit all children" is one contiguous scan. Level order
// also makes depth implicit: the first depth-3 node is child_begin[R]
// (R = root_count), which is all the PB special-link validity rule needs —
// no per-node depth field, no parent field, no used/dead flags (12 bytes
// per node vs the arena's ~80-plus-heap).
//
// Counts stay exact u32: emitted probabilities are child.count/parent.count
// computed in double then narrowed to float, and byte-identity with the
// arena models requires the same operands. Quantization happens where the
// predictor only needs ranks: popularity grades are packed to 2 bits per
// URL, PB link preference is stored as order (pre-ranked target lists)
// rather than as the counts that induced it, and per-node depth/parent/
// usage bookkeeping is dropped entirely.
#pragma once

#include <cstdint>
#include <cstring>
#include <string>

#include "popularity/popularity.hpp"
#include "util/align.hpp"

namespace webppm::frozen {

inline constexpr char kMagic[8] = {'W', 'P', 'P', 'M', 'F', 'R', 'Z', '1'};

/// Which model the payload holds (FrozenHeader::model_kind).
enum ModelKind : std::uint32_t {
  kKindDegraded = 0,  ///< popularity sections only (fallback-only snapshot)
  kKindStandard = 1,
  kKindLrs = 2,
  kKindPopularity = 3,
};
inline constexpr std::uint32_t kMaxModelKind = kKindPopularity;

/// Fixed-size payload header. All fields little-endian host order (the
/// store is a same-host handoff, not a wire format); trivially copyable so
/// the decoder can memcpy it out of an arbitrarily-aligned mapping.
struct FrozenHeader {
  char magic[8];               ///< kMagic
  std::uint32_t header_bytes;  ///< sizeof(FrozenHeader)
  std::uint32_t model_kind;    ///< ModelKind
  std::uint64_t payload_bytes; ///< total payload size, header included

  std::uint32_t node_count;        ///< frozen tree nodes (0 when degraded)
  std::uint32_t root_count;        ///< first root_count nodes are roots
  std::uint32_t url_count;         ///< popularity table width
  std::uint32_t link_root_count;   ///< roots owning PB special links
  std::uint32_t link_target_count; ///< total PB link targets
  std::uint32_t reserved0;

  // Model configuration (fields unused by the kind are zero).
  double prob_threshold;
  double link_prob_threshold;
  double min_relative_probability;
  std::uint32_t max_height;   ///< standard/LRS height cap (0 = unbounded)
  std::uint32_t min_support;  ///< LRS
  std::uint32_t max_context;
  std::uint32_t link_top_k;
  std::uint32_t min_absolute_count;
  std::uint32_t height_by_grade[4];
  std::uint8_t special_links;
  std::uint8_t pad[3];
  std::uint8_t reserved1[16];
};
static_assert(sizeof(FrozenHeader) == 128, "frozen header layout is part of the format");

/// Section alignment inside the payload: cache-line, so every u32 slice is
/// naturally aligned whenever the payload base is (the store page-aligns
/// the payload offset; in-memory payloads are allocator-aligned).
inline constexpr std::uint64_t kSectionAlign = 64;

/// Byte sizes and offsets of every section, derived purely from header
/// counts. Builder and decoder share this so "sizes match the mapping" is
/// the complete bounds check.
struct SectionLayout {
  std::uint64_t urls = 0;          ///< u32[node_count]
  std::uint64_t counts = 0;        ///< u32[node_count]
  std::uint64_t child_begin = 0;   ///< u32[node_count + 1] (absent when degraded)
  std::uint64_t link_roots = 0;    ///< u32[link_root_count], ascending
  std::uint64_t link_begin = 0;    ///< u32[link_root_count + 1]
  std::uint64_t link_targets = 0;  ///< u32[link_target_count], ranked per root
  std::uint64_t pop_counts = 0;    ///< u32[url_count]
  std::uint64_t pop_grades = 0;    ///< u8[ceil(url_count / 4)], 2-bit packed
  std::uint64_t total_bytes = 0;   ///< exact payload size

  std::uint64_t child_begin_entries = 0;
  std::uint64_t link_begin_entries = 0;
};

inline SectionLayout compute_layout(const FrozenHeader& h) {
  SectionLayout out;
  const std::uint64_t n = h.node_count;
  const std::uint64_t lr = h.link_root_count;
  out.child_begin_entries = h.model_kind == kKindDegraded ? 0 : n + 1;
  out.link_begin_entries = lr > 0 ? lr + 1 : 0;
  std::uint64_t at = sizeof(FrozenHeader);
  const auto place = [&at](std::uint64_t entries,
                           std::uint64_t entry_bytes) {
    at = util::align_up(at, kSectionAlign);
    const std::uint64_t offset = at;
    at += entries * entry_bytes;
    return offset;
  };
  out.urls = place(n, 4);
  out.counts = place(n, 4);
  out.child_begin = place(out.child_begin_entries, 4);
  out.link_roots = place(lr, 4);
  out.link_begin = place(out.link_begin_entries, 4);
  out.link_targets = place(h.link_target_count, 4);
  out.pop_counts = place(h.url_count, 4);
  out.pop_grades = place((static_cast<std::uint64_t>(h.url_count) + 3) / 4, 1);
  out.total_bytes = at;
  return out;
}

/// The one payload writer, for every model kind. Completes `h` (magic,
/// sizes and url_count; the caller sets the kind, the tree and link counts
/// and the configuration), writes the header and the popularity sections
/// from `popularity`, and leaves the tree and link sections to
/// `fill(put, layout)`, where put(section, index, value) stores one u32.
/// Every byte nobody writes is zero.
template <typename Fill>
std::string write_payload(FrozenHeader h,
                          const popularity::PopularityTable& popularity,
                          Fill&& fill) {
  std::memcpy(h.magic, kMagic, sizeof h.magic);
  h.header_bytes = sizeof(FrozenHeader);
  h.url_count = static_cast<std::uint32_t>(popularity.url_count());
  const SectionLayout lay = compute_layout(h);
  h.payload_bytes = lay.total_bytes;

  std::string payload(static_cast<std::size_t>(lay.total_bytes), '\0');
  char* const base = payload.data();
  std::memcpy(base, &h, sizeof h);
  const auto put = [base](std::uint64_t section, std::uint64_t index,
                          std::uint32_t v) {
    std::memcpy(base + section + index * 4, &v, 4);
  };
  fill(put, lay);
  auto* const grades = reinterpret_cast<std::uint8_t*>(base + lay.pop_grades);
  for (UrlId u = 0; u < h.url_count; ++u) {
    put(lay.pop_counts, u, popularity.accesses(u));
    grades[u >> 2] |= static_cast<std::uint8_t>((popularity.grade(u) & 3)
                                                << ((u & 3u) * 2));
  }
  return payload;
}

}  // namespace webppm::frozen
