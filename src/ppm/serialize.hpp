// Model serialisation: save a trained model to a stream and load it back.
//
// A production prefetching server trains overnight and serves from the
// frozen model; this is the handoff format. The format is a line-based
// text protocol (one node per line, parent-before-child order), chosen for
// debuggability over compactness — the trees are small by design.
//
// Format:
//   webppm-tree v1 <node-count>
//   <url> <count> <parent-index|-1>          # one line per node, id order
//   webppm-links <root-count>                # PB-PPM only
//   <root-node> <k> <target-node>*k
#pragma once

#include <iosfwd>
#include <optional>

#include "ppm/lrs_ppm.hpp"
#include "ppm/popularity_ppm.hpp"
#include "ppm/standard_ppm.hpp"
#include "ppm/tree.hpp"

namespace webppm::ppm {

/// Writes a tree (which must be compact: no free slots). Nodes are written
/// in arena order; in a tree that never released a node, a child is always
/// created after its parent, so parents precede children and the loader
/// reconstructs in one pass. Every model a trainer hands out is such a
/// tree (PB models are built top-down by PbBase::emit()).
void save_tree(std::ostream& out, const PredictionTree& tree);

/// Reads a tree written by save_tree. Returns nullopt on malformed input;
/// when `error` is non-null it receives the reason (which header field or
/// node line was rejected and why) so operators can log what a corrupt
/// stream actually violated.
std::optional<PredictionTree> load_tree(std::istream& in,
                                        std::string* error = nullptr);

/// Whole-model round-trips. Configuration is serialised alongside the
/// structure so a loaded model predicts identically.
void save_model(std::ostream& out, const StandardPpm& model);
void save_model(std::ostream& out, const LrsPpm& model);
void save_model(std::ostream& out, const PopularityPpm& model);

/// Loaders mirror save_model. On malformed input they return nullopt and,
/// when `error` is non-null, a one-line reason (the rejected field or
/// structural rule) — the snapshot store logs these when rolling back past
/// a corrupt generation.
std::optional<StandardPpm> load_standard(std::istream& in,
                                         std::string* error = nullptr);
std::optional<LrsPpm> load_lrs(std::istream& in,
                               std::string* error = nullptr);
/// `grades` must outlive the returned model (as with the constructor).
std::optional<PopularityPpm> load_popularity(
    std::istream& in, const popularity::PopularityTable* grades,
    std::string* error = nullptr);

}  // namespace webppm::ppm
