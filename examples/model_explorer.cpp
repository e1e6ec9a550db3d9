// model_explorer: inspect the prediction-tree structure each model builds
// from the same trace — the data behind the paper's Fig. 1 and Tables 1-2.
//
//   $ ./model_explorer [train_days]
//
// Prints per-model node counts, root counts, depth histograms, and the
// hottest branches (root-to-leaf paths by traversal count), plus PB-PPM's
// special links. Every model is read through its frozen view
// (frozen/format.hpp): PB-PPM's only form, and the form the standard and
// LRS arenas compile to for serving.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "core/webppm.hpp"
#include "serve/frozen_snapshot.hpp"

namespace {

using namespace webppm;

constexpr std::uint32_t kNone = 0xffffffffu;

/// Each node's parent in a frozen view (kNone for roots). Nodes are in
/// breadth-first order, so a parent precedes its children.
std::vector<std::uint32_t> parents_of(const frozen::FrozenView& v) {
  std::vector<std::uint32_t> parent(v.header.node_count, kNone);
  for (std::uint32_t i = 0; i < v.header.node_count; ++i) {
    for (std::uint32_t c = v.child_begin[i]; c < v.child_begin[i + 1]; ++c) {
      parent[c] = i;
    }
  }
  return parent;
}

void depth_histogram(const std::vector<std::uint32_t>& parent) {
  std::vector<std::size_t> depth(parent.size(), 1);
  std::vector<std::size_t> by_depth;
  for (std::size_t i = 0; i < parent.size(); ++i) {
    if (parent[i] != kNone) depth[i] = depth[parent[i]] + 1;
    if (depth[i] >= by_depth.size()) by_depth.resize(depth[i] + 1, 0);
    ++by_depth[depth[i]];
  }
  std::printf("  depth histogram:");
  for (std::size_t d = 1; d < by_depth.size(); ++d) {
    std::printf(" %zu:%zu", d, by_depth[d]);
  }
  std::printf("\n");
}

void hottest_branches(const frozen::FrozenView& v,
                      const std::vector<std::uint32_t>& parent,
                      const trace::Trace& trace, std::size_t top_n) {
  std::vector<std::uint32_t> leaves;
  for (std::uint32_t i = 0; i < v.header.node_count; ++i) {
    if (v.child_begin[i] == v.child_begin[i + 1]) leaves.push_back(i);
  }
  const auto shown =
      static_cast<std::ptrdiff_t>(std::min(top_n, leaves.size()));
  std::partial_sort(leaves.begin(), leaves.begin() + shown, leaves.end(),
                    [&v](std::uint32_t a, std::uint32_t b) {
                      return v.counts[a] > v.counts[b];
                    });
  std::vector<UrlId> path;
  for (std::ptrdiff_t i = 0; i < shown; ++i) {
    const std::uint32_t leaf = leaves[static_cast<std::size_t>(i)];
    path.clear();
    for (std::uint32_t n = leaf; n != kNone; n = parent[n]) {
      path.push_back(v.urls[n]);
    }
    std::printf("  [%4u] ", v.counts[leaf]);
    for (std::size_t k = path.size(); k-- > 0;) {
      std::printf("%s%s", k + 1 < path.size() ? " -> " : "",
                  std::string(trace.urls.name(path[k])).c_str());
    }
    std::printf("\n");
  }
}

}  // namespace

int main(int argc, char** argv) {
  const std::uint32_t train =
      argc > 1 ? static_cast<std::uint32_t>(std::strtoul(argv[1], nullptr, 10))
               : 3;
  if (train == 0) {
    std::fprintf(stderr, "usage: %s [train_days >= 1]\n", argv[0]);
    return 1;
  }
  const auto trace =
      workload::generate_page_trace(workload::nasa_like(train + 1, 0.4));
  std::printf("trace: %zu page requests, %zu URLs; training on %u days\n\n",
              trace.requests.size(), trace.urls.size(), train);

  for (const auto& spec :
       {core::ModelSpec::standard_fixed(3), core::ModelSpec::lrs_model(),
        core::ModelSpec::pb_model()}) {
    auto trained = core::train_model(spec, trace, 0, train - 1);
    std::printf("=== %s ===\n", spec.label.c_str());

    const std::string payload = serve::serialize_snapshot_frozen(
        *serve::make_snapshot(std::move(trained.predictor),
                              std::move(trained.popularity), 1));
    frozen::FrozenView view;
    std::string error;
    if (!frozen::decode_payload(payload, &view, &error)) {
      std::fprintf(stderr, "%s\n", error.c_str());
      return 1;
    }
    if (view.header.model_kind == frozen::kKindPopularity) {
      std::printf("  special links: %u roots carry links\n",
                  view.header.link_root_count);
    }
    std::printf("  nodes: %u, roots: %u\n", view.header.node_count,
                view.header.root_count);
    const auto parent = parents_of(view);
    depth_histogram(parent);
    std::printf("  hottest branches:\n");
    hottest_branches(view, parent, trace, 5);
    std::printf("\n");
  }
  return 0;
}
