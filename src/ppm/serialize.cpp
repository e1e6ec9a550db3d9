#include "ppm/serialize.hpp"

#include <algorithm>
#include <istream>
#include <ostream>
#include <sstream>
#include <string>

namespace webppm::ppm {
namespace {

constexpr std::string_view kTreeMagic = "webppm-tree";
constexpr std::string_view kLinksMagic = "webppm-links";

/// Records `msg` in `error` (when requested) and yields the nullopt the
/// loaders return, so every reject path reads `return fail(error, "...")`.
std::nullopt_t fail(std::string* error, std::string msg) {
  if (error != nullptr) *error = std::move(msg);
  return std::nullopt;
}

bool read_header(std::istream& in, std::string_view magic, std::size_t& count,
                 std::string* error) {
  std::string word, version;
  if (!(in >> word >> version >> count)) {
    fail(error, std::string(magic) + ": header truncated or non-numeric");
    return false;
  }
  if (word != magic) {
    fail(error, std::string(magic) + ": bad magic '" + word + "'");
    return false;
  }
  if (version != "v1") {
    fail(error, std::string(magic) + ": unsupported version '" + version +
                    "'");
    return false;
  }
  return true;
}

}  // namespace

void save_tree(std::ostream& out, const PredictionTree& tree) {
  out << kTreeMagic << " v1 " << tree.node_count() << '\n';
  for (NodeId id = 0; id < tree.node_count(); ++id) {
    const auto& n = tree.node(id);
    out << n.url << ' ' << n.count << ' '
        << (n.parent == kNoNode ? -1 : static_cast<long long>(n.parent))
        << '\n';
  }
}

std::optional<PredictionTree> load_tree(std::istream& in,
                                        std::string* error) {
  std::size_t count = 0;
  if (!read_header(in, kTreeMagic, count, error)) return std::nullopt;
  PredictionTree tree;
  for (std::size_t i = 0; i < count; ++i) {
    UrlId url;
    std::uint32_t node_count;
    long long parent;
    if (!(in >> url >> node_count >> parent)) {
      return fail(error, "tree: node " + std::to_string(i) +
                             ": line truncated or non-numeric");
    }
    if (parent < -1) {
      return fail(error, "tree: node " + std::to_string(i) +
                             ": parent " + std::to_string(parent) +
                             " (roots are exactly -1)");
    }
    if (parent < 0) {
      if (tree.find_root(url) != kNoNode) {
        return fail(error, "tree: node " + std::to_string(i) +
                               ": duplicate root url " + std::to_string(url));
      }
      const NodeId id = tree.root_or_add(url, node_count);
      if (id != i) {
        return fail(error, "tree: node " + std::to_string(i) +
                               ": arena id mismatch");
      }
    } else {
      if (static_cast<std::size_t>(parent) >= i) {
        return fail(error, "tree: node " + std::to_string(i) + ": parent " +
                               std::to_string(parent) +
                               " does not precede child");
      }
      const auto p = static_cast<NodeId>(parent);
      if (tree.find_child(p, url) != kNoNode) {
        return fail(error, "tree: node " + std::to_string(i) +
                               ": duplicate child url " +
                               std::to_string(url) + " under parent " +
                               std::to_string(parent));
      }
      const NodeId id = tree.child_or_add(p, url, node_count);
      if (id != i) {
        return fail(error, "tree: node " + std::to_string(i) +
                               ": arena id mismatch");
      }
    }
  }
  return tree;
}

void save_model(std::ostream& out, const StandardPpm& model) {
  out << "webppm-standard v1 " << model.config().max_height << ' '
      << model.config().prob_threshold << ' ' << model.config().max_context
      << '\n';
  save_tree(out, model.tree());
}

std::optional<StandardPpm> load_standard(std::istream& in,
                                         std::string* error) {
  std::string word, version;
  StandardPpmConfig cfg;
  if (!(in >> word >> version >> cfg.max_height >> cfg.prob_threshold >>
        cfg.max_context) ||
      word != "webppm-standard" || version != "v1") {
    return fail(error, "standard: malformed model header");
  }
  auto tree = load_tree(in, error);
  if (!tree) return std::nullopt;
  return StandardPpm::from_parts(cfg, std::move(*tree));
}

void save_model(std::ostream& out, const LrsPpm& model) {
  out << "webppm-lrs v1 " << model.config().min_support << ' '
      << model.config().max_height << ' ' << model.config().prob_threshold
      << ' ' << model.config().max_context << '\n';
  save_tree(out, model.tree());
}

std::optional<LrsPpm> load_lrs(std::istream& in, std::string* error) {
  std::string word, version;
  LrsPpmConfig cfg;
  if (!(in >> word >> version >> cfg.min_support >> cfg.max_height >>
        cfg.prob_threshold >> cfg.max_context) ||
      word != "webppm-lrs" || version != "v1") {
    return fail(error, "lrs: malformed model header");
  }
  auto tree = load_tree(in, error);
  if (!tree) return std::nullopt;
  return LrsPpm::from_parts(cfg, std::move(*tree));
}

void save_model(std::ostream& out, const PopularityPpm& model) {
  const auto& cfg = model.config();
  out << "webppm-pb v1";
  for (const auto h : cfg.height_by_grade) out << ' ' << h;
  out << ' ' << cfg.prob_threshold << ' ' << cfg.max_context << ' '
      << (cfg.special_links ? 1 : 0) << ' ' << cfg.link_prob_threshold << ' '
      << cfg.link_top_k << ' ' << cfg.min_relative_probability << ' '
      << cfg.min_absolute_count << '\n';
  save_tree(out, model.tree());
  out << kLinksMagic << " v1 " << model.links().size() << '\n';
  // Sorted by root so the stream is deterministic (the links live in an
  // unordered_map): saving the same model — or a model just loaded from a
  // stream — always produces identical bytes, which the snapshot store's
  // checksums and the round-trip tests rely on.
  std::vector<NodeId> roots;
  roots.reserve(model.links().size());
  for (const auto& [root, targets] : model.links()) roots.push_back(root);
  std::sort(roots.begin(), roots.end());
  for (const auto root : roots) {
    const auto& targets = model.links().at(root);
    out << root << ' ' << targets.size();
    for (const auto t : targets) out << ' ' << t;
    out << '\n';
  }
}

std::optional<PopularityPpm> load_popularity(
    std::istream& in, const popularity::PopularityTable* grades,
    std::string* error) {
  std::string word, version;
  PopularityPpmConfig cfg;
  int links_flag = 0;
  if (!(in >> word >> version) || word != "webppm-pb" || version != "v1") {
    return fail(error, "pb: malformed model header");
  }
  for (auto& h : cfg.height_by_grade) {
    if (!(in >> h)) return fail(error, "pb: truncated height-by-grade");
  }
  if (!(in >> cfg.prob_threshold >> cfg.max_context >> links_flag >>
        cfg.link_prob_threshold >> cfg.link_top_k >>
        cfg.min_relative_probability >> cfg.min_absolute_count)) {
    return fail(error, "pb: truncated or non-numeric config");
  }
  cfg.special_links = links_flag != 0;

  auto tree = load_tree(in, error);
  if (!tree) return std::nullopt;

  std::size_t link_roots = 0;
  if (!read_header(in, kLinksMagic, link_roots, error)) return std::nullopt;
  std::unordered_map<NodeId, std::vector<NodeId>> links;
  for (std::size_t i = 0; i < link_roots; ++i) {
    NodeId root;
    std::size_t k;
    if (!(in >> root >> k)) {
      return fail(error, "pb: link record " + std::to_string(i) +
                             " truncated");
    }
    if (root >= tree->node_count()) {
      return fail(error, "pb: link root " + std::to_string(root) +
                             " out of range");
    }
    // Links hang off tree roots only (paper Rule 3 duplicates popular URLs
    // under the branch head); reject interior nodes posing as link roots.
    if (tree->node(root).parent != kNoNode) {
      return fail(error, "pb: link root " + std::to_string(root) +
                             " is not a tree root");
    }
    // Targets are distinct node ids, so k can never legitimately exceed the
    // node count — reject before allocating what a corrupt length claims.
    if (k > tree->node_count()) {
      return fail(error, "pb: link root " + std::to_string(root) +
                             " claims " + std::to_string(k) + " targets");
    }
    std::vector<NodeId> targets(k);
    for (auto& t : targets) {
      if (!(in >> t) || t >= tree->node_count()) {
        return fail(error, "pb: link target under root " +
                               std::to_string(root) +
                               " truncated or out of range");
      }
      // Rule 3 targets sit "not immediately following the heading URL",
      // i.e. at depth >= 3, and a popular node is linked from the head of
      // its own branch only; anything else is a forged link. The walk
      // counts the depth itself: the stored one wraps on chains deeper
      // than 65,535 nodes.
      std::size_t depth = 1;
      NodeId top = t;
      for (; tree->node(top).parent != kNoNode; ++depth) {
        top = tree->node(top).parent;
      }
      if (depth < 3) {
        return fail(error, "pb: link target " + std::to_string(t) +
                               " at depth < 3");
      }
      if (top != root) {
        return fail(error, "pb: link target " + std::to_string(t) +
                               " outside the subtree of root " +
                               std::to_string(root));
      }
      if (std::count(targets.begin(), targets.end(), t) > 1) {
        return fail(error, "pb: duplicate link target " + std::to_string(t) +
                               " under root " + std::to_string(root));
      }
    }
    if (!links.emplace(root, std::move(targets)).second) {
      return fail(error, "pb: duplicate link root " + std::to_string(root));
    }
  }
  return PopularityPpm::from_parts(cfg, grades, std::move(*tree),
                                   std::move(links));
}

}  // namespace webppm::ppm
