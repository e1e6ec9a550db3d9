// The umbrella header must compile standalone and expose the whole public
// API (this test is the "does a downstream user's single include work"
// check).
#include "core/webppm.hpp"

#include <gtest/gtest.h>

namespace {

TEST(Umbrella, ExposesEveryPublicComponent) {
  using namespace webppm;
  // One touch per module proves visibility; behaviour is tested elsewhere.
  util::Rng rng(1);
  EXPECT_LT(rng.uniform(), 1.0);

  trace::Trace t;
  t.finalize();
  EXPECT_EQ(t.day_count(), 0u);

  EXPECT_EQ(popularity::grade_of(0.5), 3);

  const auto cache = cache::make_cache(cache::Policy::kGdsf, 1024);
  EXPECT_EQ(cache->capacity_bytes(), 1024u);

  const net::LatencyModel lat(0.1, 0.001);
  EXPECT_GT(lat.latency_seconds(100), 0.1);

  session::OnlineContext ctx;
  ctx.observe(1, 0);
  EXPECT_EQ(ctx.view().size(), 1u);

  ppm::TopNPredictor top_n;
  std::vector<ppm::Prediction> out;
  top_n.predict({}, out);
  EXPECT_TRUE(out.empty());

  const auto spec = core::ModelSpec::pb_model();
  EXPECT_EQ(spec.kind, core::ModelKind::kPopularity);

  const auto cfg = workload::nasa_like(1, 0.01);
  EXPECT_GE(cfg.population.days, 1u);

  sim::Metrics m;
  EXPECT_DOUBLE_EQ(m.hit_ratio(), 0.0);

  EXPECT_FALSE(core::day_results_csv({}).empty());
}

}  // namespace
