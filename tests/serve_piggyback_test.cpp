// ModelServer against the simulator's piggyback path: replaying an eval
// day through a single-stream server must give, request for request, the
// prediction lists the simulator logged for the same model (errors
// skipped, same session rules, trace order) — on a plain server, and with
// each piece of the serve path that must observe without steering turned
// on: full instrumentation, an armed-but-idle fault plan, and the
// scoreboard scoring. An LRS snapshot's frozen compilation is held to the
// same log. Concurrency-labelled, so the asan and tsan jobs run it.
#include <gtest/gtest.h>

#include "core/webppm.hpp"
#include "fault/fault.hpp"
#include "obs/metrics.hpp"
#include "obs/trace_event.hpp"
#include "serve/frozen_snapshot.hpp"
#include "serve/model_server.hpp"

namespace webppm::serve {
namespace {

/// Days 1-2 of a nasa-like trace train the model; day 3 is replayed.
const trace::Trace& nasa() {
  static const trace::Trace t =
      workload::generate_page_trace(workload::nasa_like(3, 0.5));
  return t;
}

std::shared_ptr<const Snapshot> trained(const core::ModelSpec& spec) {
  auto tm = core::train_model(spec, nasa(), 0, 1);
  return make_snapshot(std::move(tm.predictor), std::move(tm.popularity), 1);
}

/// Replays the eval day through a fresh server built from `cfg` holding
/// `snap` and counts the requests whose prediction list differs from the
/// simulator's log.
std::size_t mismatches(const Snapshot& snap, const core::ModelSpec& spec,
                       const ModelServerConfig& cfg) {
  const auto eval = nasa().day_slice(2);
  sim::PredictionLog log;
  sim::SimHooks hooks;
  hooks.prediction_log = &log;
  sim::SimulationConfig sim_cfg;
  sim_cfg.policy.size_threshold_bytes = spec.size_threshold_bytes;
  (void)sim::simulate_direct(nasa(), eval, *snap.model, snap.popularity,
                             core::cached_client_classes(nasa()), sim_cfg,
                             hooks);

  ModelServer server(cfg);
  server.publish(std::shared_ptr<const Snapshot>(&snap, [](auto*) {}));
  std::vector<ppm::Prediction> out;
  std::size_t logged = 0, bad = 0;
  for (const auto& r : eval) {
    if (r.status >= 400) continue;  // the simulator skips these entirely
    server.query(r, out);
    if (logged >= log.entries.size() ||
        log.entries[logged].client != r.client ||
        log.entries[logged].predictions != out) {
      ++bad;
    }
    ++logged;
  }
  EXPECT_GT(logged, 1000u);
  return bad + (logged != log.entries.size() ? 1 : 0);
}

TEST(ServePiggyback, PlainServerMatchesSimulator) {
  const auto spec = core::ModelSpec::pb_model();
  EXPECT_EQ(mismatches(*trained(spec), spec, {}), 0u);
}

TEST(ServePiggyback, InstrumentedServerMatchesSimulator) {
  // Metrics attached, every query latency-sampled, trace spans live.
  const auto spec = core::ModelSpec::pb_model();
  obs::MetricsRegistry reg;
  ModelServerConfig cfg;
  cfg.metrics = &reg;
  cfg.latency_sample_every = 1;
  obs::set_tracing_enabled(true);
  EXPECT_EQ(mismatches(*trained(spec), spec, cfg), 0u);
  obs::set_tracing_enabled(false);
}

TEST(ServePiggyback, FaultArmedIdleServerMatchesSimulator) {
  // Rules exist, none names a serving site: every query-path site takes
  // the armed-idle branch.
  const auto spec = core::ModelSpec::pb_model();
  fault::arm(fault::Plan{}.fail("test.no_such_site"));
  EXPECT_EQ(mismatches(*trained(spec), spec, {}), 0u);
  fault::disarm();
}

TEST(ServePiggyback, ScoringServerMatchesSimulator) {
  const auto spec = core::ModelSpec::pb_model();
  ModelServerConfig cfg;
  cfg.scoreboard.enabled = true;
  EXPECT_EQ(mismatches(*trained(spec), spec, cfg), 0u);
}

TEST(ServePiggyback, FrozenLrsServerMatchesSimulator) {
  // LRS still has an arena form: its frozen compilation must predict as
  // the simulator does with the arena model.
  const auto spec = core::ModelSpec::lrs_model();
  const auto frozen = freeze_snapshot(*trained(spec));
  ASSERT_NE(frozen, nullptr);
  EXPECT_EQ(mismatches(*frozen, spec, {}), 0u);
}

}  // namespace
}  // namespace webppm::serve
