// Incremental-training semantics: the paper's models are "dynamically
// maintained and updated based on historical data" (§2.2). These tests pin
// down which of our models support incremental train() calls and what the
// equivalence guarantees are.
#include <gtest/gtest.h>

#include "ppm/lrs_ppm.hpp"
#include "ppm/pb_base.hpp"
#include "ppm/popularity_ppm.hpp"
#include "ppm/standard_ppm.hpp"
#include "util/rng.hpp"

namespace webppm::ppm {
namespace {

std::vector<session::Session> random_sessions(std::uint64_t seed,
                                              std::size_t count) {
  util::Rng rng(seed);
  std::vector<session::Session> out;
  for (std::size_t i = 0; i < count; ++i) {
    session::Session s;
    const auto len = 2 + rng.below(6);
    UrlId prev = kInvalidUrl;
    for (std::size_t k = 0; k < len; ++k) {
      const auto u = static_cast<UrlId>(rng.below(25));
      if (u == prev) continue;
      s.urls.push_back(u);
      prev = u;
    }
    if (s.urls.empty()) s.urls.push_back(0);
    out.push_back(std::move(s));
  }
  return out;
}

TEST(IncrementalTraining, StandardBatchEqualsIncremental) {
  const auto day1 = random_sessions(1, 40);
  const auto day2 = random_sessions(2, 40);
  auto all = day1;
  all.insert(all.end(), day2.begin(), day2.end());

  StandardPpm batch, incremental;
  batch.train(all);
  incremental.train(day1);
  incremental.train(day2);

  EXPECT_EQ(batch.node_count(), incremental.node_count());
  std::vector<Prediction> pa, pb;
  for (const auto& s : random_sessions(3, 10)) {
    batch.predict(s.urls, pa);
    incremental.predict(s.urls, pb);
    EXPECT_EQ(pa, pb);
  }
}

TEST(IncrementalTraining, PopularityBatchEqualsIncrementalWithoutOpt) {
  // The tree-building rules are per-session, so incremental insertion with
  // fixed grades is exactly equivalent — as long as the space optimisation
  // runs only at emit time (it is a destructive batch pass).
  const auto day1 = random_sessions(4, 40);
  const auto day2 = random_sessions(5, 40);
  auto all = day1;
  all.insert(all.end(), day2.begin(), day2.end());

  std::vector<std::uint32_t> counts(30, 0);
  for (const auto& s : all) {
    for (const auto u : s.urls) ++counts[u];
  }
  const auto pop = popularity::PopularityTable::from_counts(counts);

  PopularityPpmConfig cfg;
  cfg.min_relative_probability = 0.0;  // emit everything
  PbBase batch_base(cfg, &pop), inc_base(cfg, &pop);
  batch_base.insert(all);
  inc_base.insert(day1);
  inc_base.insert(day2);
  const PopularityPpm batch = batch_base.emit();
  const PopularityPpm incremental = inc_base.emit();

  EXPECT_EQ(batch.node_count(), incremental.node_count());
  EXPECT_EQ(batch.node_count(), batch_base.expand().node_count());
  EXPECT_EQ(batch.links().size(), incremental.links().size());
  std::vector<Prediction> pa, pb;
  for (const auto& s : random_sessions(6, 10)) {
    batch.predict(s.urls, pa);
    incremental.predict(s.urls, pb);
    EXPECT_EQ(pa, pb);
  }
}

TEST(IncrementalTraining, EmitLeavesBaseUntouched) {
  // emit() is a pure read of the base: emitting twice yields the same
  // model, and the base keeps every node for later appends.
  const auto data = random_sessions(7, 80);
  std::vector<std::uint32_t> counts(30, 0);
  for (const auto& s : data) {
    for (const auto u : s.urls) ++counts[u];
  }
  const auto pop = popularity::PopularityTable::from_counts(counts);
  PopularityPpmConfig cfg;
  cfg.min_absolute_count = 1;  // so the emit cuts something
  PbBase base(cfg, &pop);
  base.insert(data);
  const auto base_nodes = base.expand().node_count();
  const PopularityPpm first = base.emit();
  const PopularityPpm second = base.emit();
  EXPECT_LT(first.node_count(), base_nodes);
  EXPECT_EQ(base.expand().node_count(), base_nodes);
  EXPECT_EQ(first.node_count(), second.node_count());
  EXPECT_EQ(first.links().size(), second.links().size());
  std::vector<Prediction> pa, pb;
  for (const auto& s : random_sessions(15, 10)) {
    first.predict(s.urls, pa);
    second.predict(s.urls, pb);
    EXPECT_EQ(pa, pb);
  }
}

TEST(IncrementalTraining, LrsBatchEqualsTrainMore) {
  // LRS is a two-phase batch algorithm, so train() always rebuilds from
  // scratch; the incremental entry point is train_more(), which grows the
  // retained support tree and re-runs extraction over it. Appending must be
  // exactly equivalent to batch-training on the concatenation.
  const auto day1 = random_sessions(8, 60);
  const auto day2 = random_sessions(9, 60);
  auto all = day1;
  all.insert(all.end(), day2.begin(), day2.end());

  LrsPpm batch, incremental;
  batch.train(all);
  incremental.train(day1);
  incremental.train_more(day2);

  EXPECT_EQ(batch.node_count(), incremental.node_count());
  std::vector<Prediction> pa, pb;
  for (const auto& s : random_sessions(10, 10)) {
    batch.predict(s.urls, pa);
    incremental.predict(s.urls, pb);
    EXPECT_EQ(pa, pb);
  }

  // And train() discards all accumulated state: retraining the incremental
  // model on day1 alone matches a fresh model, not a merge.
  LrsPpm fresh;
  fresh.train(day1);
  incremental.train(day1);
  EXPECT_EQ(incremental.node_count(), fresh.node_count());
  for (const auto& s : random_sessions(11, 10)) {
    fresh.predict(s.urls, pa);
    incremental.predict(s.urls, pb);
    EXPECT_EQ(pa, pb);
  }
}

TEST(IncrementalTraining, PopularityTrainMoreWithoutOptMatchesBatch) {
  // What every PB trainer does: keep an unpruned base, append days, emit
  // the pruned model. Appending to the base must equal batch insertion.
  const auto day1 = random_sessions(12, 40);
  const auto day2 = random_sessions(13, 40);
  auto all = day1;
  all.insert(all.end(), day2.begin(), day2.end());

  std::vector<std::uint32_t> counts(30, 0);
  for (const auto& s : all) {
    for (const auto u : s.urls) ++counts[u];
  }
  const auto pop = popularity::PopularityTable::from_counts(counts);

  PbBase batch(PopularityPpmConfig{}, &pop);
  batch.insert(all);
  PbBase incremental(PopularityPpmConfig{}, &pop);
  incremental.insert(day1);
  incremental.insert(day2);
  EXPECT_EQ(batch.expand().node_count(), incremental.expand().node_count());

  // Emitting leaves the bases untouched and produces equal results.
  const PopularityPpm pruned_batch = batch.emit();
  const PopularityPpm pruned_inc = incremental.emit();
  EXPECT_EQ(pruned_batch.node_count(), pruned_inc.node_count());
  EXPECT_EQ(batch.expand().node_count(), incremental.expand().node_count());
  std::vector<Prediction> pa, pb;
  for (const auto& s : random_sessions(14, 10)) {
    pruned_batch.predict(s.urls, pa);
    pruned_inc.predict(s.urls, pb);
    EXPECT_EQ(pa, pb);
  }
}

}  // namespace
}  // namespace webppm::ppm
