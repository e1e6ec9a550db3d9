// Bridges serve::Snapshot and webppm::frozen: serialize a published
// snapshot into a frozen payload, and wrap a decoded payload back into a
// publishable snapshot. The snapshot store uses these for its v2
// generation format; benches and tests use freeze_snapshot() to compare
// arena and frozen serving in-process.
#pragma once

#include <memory>
#include <string>
#include <string_view>

#include "serve/model_server.hpp"

namespace webppm::serve {

/// Compiles `snap` into a frozen payload (frozen/format.hpp). Dispatches on
/// the snapshot's concrete model: standard and LRS arena models are
/// compiled; a snapshot already serving a FrozenModel (every PB model, and
/// any loaded snapshot) passes its payload through byte-for-byte, so
/// re-publishing it is lossless; a degraded snapshot —
/// or one holding a predictor with no frozen form, e.g. a bare Top-N —
/// freezes to a popularity-only payload that reloads as a degraded
/// generation, exactly what such a snapshot serves anyway.
std::string serialize_snapshot_frozen(const Snapshot& snap);

/// Wraps a frozen payload into a snapshot. `backing` keeps the payload
/// bytes alive (an mmapped generation file or a heap buffer) and is shared
/// into the model. A degraded payload yields a fallback-only snapshot. On
/// malformed payloads returns the decoder's structured reason.
SnapshotLoadResult open_frozen_snapshot(std::shared_ptr<const void> backing,
                                        std::string_view payload,
                                        std::uint64_t version,
                                        std::size_t fallback_top_n = 10);

/// In-process freeze: serialize + reopen in one step. The returned snapshot
/// owns its payload on the heap and serves identical predictions to `snap`
/// from the frozen layout.
std::shared_ptr<const Snapshot> freeze_snapshot(const Snapshot& snap,
                                                std::size_t fallback_top_n = 10);

}  // namespace webppm::serve
