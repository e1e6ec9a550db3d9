#include "serve/frozen_snapshot.hpp"

#include <utility>
#include <vector>

#include "frozen/frozen.hpp"

namespace webppm::serve {

std::string serialize_snapshot_frozen(const Snapshot& snap) {
  if (const auto* fm =
          dynamic_cast<const frozen::FrozenModel*>(snap.model.get())) {
    return std::string(fm->payload());
  }
  frozen::BuildSpec spec;
  spec.popularity = &snap.popularity;
  if (const auto* standard =
          dynamic_cast<const ppm::StandardPpm*>(snap.model.get())) {
    spec.kind = frozen::kKindStandard;
    spec.standard = standard->config();
    spec.tree = &standard->tree();
  } else if (const auto* lrs =
                 dynamic_cast<const ppm::LrsPpm*>(snap.model.get())) {
    spec.kind = frozen::kKindLrs;
    spec.lrs = lrs->config();
    spec.tree = &lrs->tree();
  } else {
    spec.kind = frozen::kKindDegraded;  // degraded or unfreezable predictor
  }
  return frozen::build_payload(spec);
}

SnapshotLoadResult open_frozen_snapshot(std::shared_ptr<const void> backing,
                                        std::string_view payload,
                                        std::uint64_t version,
                                        std::size_t fallback_top_n) {
  SnapshotLoadResult result;
  frozen::FrozenView view;
  if (!frozen::decode_payload(payload, &view, &result.error)) return result;

  // The popularity table is materialized (url_count u32s plus derived
  // grades) because the snapshot owns it by value and the fallback
  // predictor is rebuilt from it; the tree sections — which dominate the
  // payload — are served as spans into the mapping, never copied.
  std::vector<std::uint32_t> counts(view.pop_counts.begin(),
                                    view.pop_counts.end());
  auto popularity = popularity::PopularityTable::from_counts(std::move(counts));

  if (view.header.model_kind == frozen::kKindDegraded) {
    result.snapshot = make_degraded_snapshot(std::move(popularity), version,
                                             fallback_top_n);
    return result;
  }
  auto model =
      frozen::FrozenModel::open(std::move(backing), payload, &result.error);
  if (model == nullptr) return result;
  result.snapshot = make_snapshot(std::move(model), std::move(popularity),
                                  version, fallback_top_n);
  return result;
}

std::shared_ptr<const Snapshot> freeze_snapshot(const Snapshot& snap,
                                                std::size_t fallback_top_n) {
  auto payload =
      std::make_shared<const std::string>(serialize_snapshot_frozen(snap));
  const std::string_view bytes = *payload;
  return open_frozen_snapshot(std::move(payload), bytes, snap.version,
                              fallback_top_n)
      .snapshot;
}

}  // namespace webppm::serve
