// Golden payload digests ("learn" label): the frozen bytes of PB-PPM models
// published by offline training, by the online trainer and by the sweep
// engine.
//
// A frozen PB payload stores each root's special links in rank order —
// (traversal count desc, root-to-node URL path asc) — with no ordering key
// beside it, so a ranking shortcut that leaves a list stale after an
// append changes these bytes even where every prediction test still
// passes. The constants are FNV-1a 64 digests of the payload
// ppm::PbBase::emit() writes (which serve::serialize_snapshot_frozen passes
// through); a deliberate model change must update them (and say why), an
// optimisation must leave them alone.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/experiment.hpp"
#include "core/sweep.hpp"
#include "frozen/frozen.hpp"
#include "learn/trainer.hpp"
#include "serve/frozen_snapshot.hpp"
#include "serve/model_server.hpp"
#include "workload/generator.hpp"

namespace webppm::learn {
namespace {

std::uint64_t digest(std::string_view bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

std::uint64_t payload_digest(const serve::Snapshot& snap) {
  return digest(serve::serialize_snapshot_frozen(snap));
}

TEST(PbGolden, TrainModelNasa) {
  const trace::Trace trace =
      workload::generate_page_trace(workload::nasa_like(3, 0.3));
  auto tm = core::train_model(core::ModelSpec::pb_model(), trace, 0, 1);
  const auto snap = serve::make_snapshot(std::move(tm.predictor),
                                         std::move(tm.popularity), 1);
  EXPECT_EQ(payload_digest(*snap), 0xb281f7de3e637c21ull);
}

TEST(PbGolden, OnlineTrainerUcbMidDayAndBoundary) {
  const trace::Trace trace =
      workload::generate_page_trace(workload::ucb_like(3, 1.0));
  serve::ModelServer target;
  OnlineTrainerConfig tc;
  tc.spec = core::ModelSpec::pb_model_aggressive();
  tc.url_count_hint = trace.urls.size();
  tc.queue_capacity = trace.requests.size() + 1;
  OnlineTrainer trainer(target, tc);

  // Each day is fed in quarters. Crossing a day boundary publishes; after
  // each of days 1 and 2's first three quarters a mid-day publish follows,
  // with sessions still open reaching the model as tails.
  std::vector<std::uint64_t> digests;
  for (std::uint32_t d = 0; d < trace.day_count(); ++d) {
    const auto day = trace.day_slice(d);
    for (std::size_t q = 0; q < 4; ++q) {
      for (const auto& r : day.subspan(day.size() * q / 4,
                                       day.size() * (q + 1) / 4 -
                                           day.size() * q / 4)) {
        ASSERT_TRUE(trainer.queue().push(Observation::from(r)));
      }
      const std::uint64_t before = trainer.publishes();
      trainer.step();
      if (trainer.publishes() != before) {
        digests.push_back(payload_digest(*target.snapshot()));
      }
      if (d > 0 && q < 3) {
        ASSERT_GT(trainer.open_sessions(), 0u);
        ASSERT_TRUE(trainer.publish_now());
        digests.push_back(payload_digest(*target.snapshot()));
      }
    }
  }
  // Boundary 1, three mid-day publishes, boundary 2, three mid-day ones.
  const std::vector<std::uint64_t> expected = {
      0xb18f0b84647aa527ull,
      0x7fed3499daab6e47ull,
      0x8dee447a44a7ff2eull,
      0x39a967538ad0b0deull,
      0xd964caad2e07b430ull,
      0x1bfa7803581054daull,
      0x51dcc4b8e4d5adf9ull,
      0x083ba96b57534225ull,
  };
  EXPECT_EQ(digests, expected);
}

TEST(PbGolden, SweepEngineUcbEveryWindow) {
  // The engine grows one PB base across the sweep. On this trace some
  // grade moves at every day boundary, so each window after the first is
  // reached through grade drift.
  const trace::Trace trace =
      workload::generate_page_trace(workload::ucb_like(4, 0.5));
  core::SweepEngine engine(trace);
  const std::uint32_t days = trace.day_count();
  for (std::uint32_t k = 2; k <= days; ++k) {
    const auto& before = engine.window_popularity(k - 1);
    const auto& after = engine.window_popularity(k);
    bool drifted = false;
    for (UrlId u = 0; u < trace.urls.size(); ++u) {
      drifted = drifted || before.grade(u) != after.grade(u);
    }
    EXPECT_TRUE(drifted) << "window " << k;
  }

  std::vector<std::uint64_t> digests;
  for (const auto& spec : {core::ModelSpec::pb_model(),
                           core::ModelSpec::pb_model_aggressive()}) {
    engine.visit_models(
        spec, days, [&](std::uint32_t, const ppm::Predictor& model) {
          digests.push_back(digest(
              dynamic_cast<const frozen::FrozenModel&>(model).payload()));
        });
  }
  // pb_model at windows 1..4, then pb_model_aggressive at windows 1..4.
  const std::vector<std::uint64_t> expected = {
      0x5abe24efcf6256a5ull,
      0x0b9a163326584e0full,
      0x4add5abc9345b033ull,
      0x2134fa02fe37125bull,
      0x37dd7cd81d8a4d0bull,
      0x702ca8e2d5f89f5eull,
      0x8e785b4c3b28bf28ull,
      0xcefe1b80481fe51eull,
  };
  EXPECT_EQ(digests, expected);
}

}  // namespace
}  // namespace webppm::learn
