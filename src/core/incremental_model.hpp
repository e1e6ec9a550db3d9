// core::IncrementalModel — one growing model of one ModelKind, trained as
// sessions close: the one family behind both incremental trainers, the
// sweep engine's day steps (core/sweep.hpp) and the online trainer's
// shadow model (learn/trainer.hpp). DESIGN.md §6.
//
// The base is trained on the *closed* sessions of a window, in absorb
// order; the window itself lives with the caller (the engine's per-day
// caches, the trainer's retained sessions), which hands it back read-only
// when a regrade needs it. Sessions still open at the window edge (the
// tails) never enter the base, since later clicks may still extend them:
// model() and view() apply them to what they hand out, and the base ends
// as it began.
//
//   * Standard, LRS and Top-N: train_more() is an exact append, so one
//     template absorbs by appending; a regrade has nothing to do, and
//     evicted sessions stay in the base until a rebuild.
//   * PB: a ppm::PbBase over an owned copy of the window's popularity
//     table. Absorbed sessions are inserted under the grades the base
//     holds; a regrade re-walks, in place, only the sessions that hold a
//     URL whose grade moved, which a URL -> session index names; evicted
//     sessions are retracted. The model is emitted frozen.
//
// core::train_model is not built on this family: it trains in one batch
// and is the independent oracle both callers are tested against.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/experiment.hpp"
#include "popularity/popularity.hpp"
#include "ppm/predictor.hpp"
#include "session/session.hpp"

namespace webppm::core {

class IncrementalModel {
 public:
  /// An empty model of `spec`'s kind and parameters.
  static std::unique_ptr<IncrementalModel> make(const ModelSpec& spec);

  IncrementalModel() = default;
  virtual ~IncrementalModel() = default;
  IncrementalModel(const IncrementalModel&) = delete;
  IncrementalModel& operator=(const IncrementalModel&) = delete;

  /// Moves the base to `pop`, the table over the window. `window` is every
  /// session absorbed and not evicted, in absorb order; a regrade reads it
  /// and never writes it. A PB base that nothing started yet starts under
  /// `pop`. Returns the sessions a PB regrade re-walked (0 otherwise).
  virtual std::size_t regrade(const popularity::PopularityTable& pop,
                              std::span<const session::Session> window) = 0;

  /// `fresh`, sessions that just closed, join the end of the window and
  /// are trained in (PB: under the grades its base holds). A PB base that
  /// nothing started yet starts under a table built from `counts`, the
  /// cumulative popularity counts.
  virtual void absorb(std::span<const session::Session> fresh,
                      const std::vector<std::uint32_t>& counts) = 0;

  /// `evicted`, the oldest sessions of the window, leave it. PB retracts
  /// them; the append models keep them until a rebuild.
  virtual void evict(std::span<const session::Session> evicted) = 0;

  /// Rebuilds the base from `window` alone, forgetting evicted history.
  /// False when the base already holds exactly its window (PB).
  virtual bool rebuild(std::span<const session::Session> window) = 0;

  /// The window model with the open `tails` applied, self-contained.
  virtual std::unique_ptr<ppm::Predictor> model(
      std::span<const session::Session> tails) = 0;

  /// The same model, borrowed: valid until the next call on this object.
  /// An append base with no tails lends itself, so nothing is copied.
  virtual const ppm::Predictor& view(
      std::span<const session::Session> tails) = 0;

  /// Resident bytes of the base (for PB also its table and URL index).
  virtual std::size_t storage_bytes() const = 0;
};

}  // namespace webppm::core
