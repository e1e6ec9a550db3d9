// webppm::frozen unit suite: the build→decode round trip, the packed
// format's invariants (section alignment, BFS layout, 2-bit grades), the
// FrozenModel predictor against its arena source on hand-built trees, and
// the serve-layer glue (freeze_snapshot, passthrough re-serialisation,
// store v2 publish/load, and the rejection of retired v1 generations).
#include "frozen/frozen.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "ppm/popularity_ppm.hpp"
#include "ppm/standard_ppm.hpp"
#include "serve/frozen_snapshot.hpp"
#include "serve/snapshot_store.hpp"
#include "util/align.hpp"
#include "util/crc32.hpp"

namespace webppm::frozen {
namespace {

namespace fs = std::filesystem;

session::Session make_session(std::vector<UrlId> urls) {
  session::Session s;
  s.urls = std::move(urls);
  return s;
}

const std::vector<session::Session>& train_sessions() {
  static const std::vector<session::Session> sessions{
      make_session({1, 2, 3}), make_session({1, 2, 3}),
      make_session({1, 2, 4}), make_session({5, 2, 3}),
      make_session({5, 6, 7, 8}), make_session({5, 6, 7})};
  return sessions;
}

popularity::PopularityTable small_pop() {
  return popularity::PopularityTable::from_counts({0, 3, 4, 3, 1, 3, 2, 2, 1});
}

std::string freeze_standard(const ppm::StandardPpm& m,
                            const popularity::PopularityTable& pop) {
  BuildSpec spec;
  spec.kind = kKindStandard;
  spec.standard = m.config();
  spec.tree = &m.tree();
  spec.popularity = &pop;
  return build_payload(spec);
}

std::vector<ppm::Prediction> predict(const ppm::Predictor& m,
                                     std::vector<UrlId> ctx) {
  std::vector<ppm::Prediction> out;
  m.predict(ctx, out);
  return out;
}

void expect_identical(const ppm::Predictor& arena, const ppm::Predictor& froz,
                      std::vector<UrlId> ctx) {
  const auto a = predict(arena, ctx);
  const auto f = predict(froz, std::move(ctx));
  ASSERT_EQ(a.size(), f.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].url, f[i].url) << "prediction " << i;
    // Byte identity, not tolerance: the frozen path must perform the very
    // same double division and float narrowing the arena does.
    EXPECT_EQ(a[i].probability, f[i].probability) << "prediction " << i;
  }
}

TEST(FrozenFormatTest, RoundTripHeaderAndSections) {
  ppm::StandardPpm m;
  m.train(train_sessions());
  const auto pop = small_pop();
  const std::string payload = freeze_standard(m, pop);

  FrozenView view;
  std::string error;
  ASSERT_TRUE(decode_payload(payload, &view, &error)) << error;

  EXPECT_EQ(view.header.model_kind, kKindStandard);
  EXPECT_EQ(view.header.node_count, m.node_count());
  EXPECT_EQ(view.header.url_count, pop.url_count());
  EXPECT_EQ(view.header.payload_bytes, payload.size());
  EXPECT_EQ(view.urls.size(), m.node_count());
  EXPECT_EQ(view.counts.size(), m.node_count());
  EXPECT_EQ(view.child_begin.size(), m.node_count() + 1);

  // Every section sits on the 64-byte grid relative to the payload start.
  const auto* base = payload.data();
  EXPECT_EQ((reinterpret_cast<const char*>(view.urls.data()) - base) %
                kSectionAlign, 0);
  EXPECT_EQ((reinterpret_cast<const char*>(view.counts.data()) - base) %
                kSectionAlign, 0);
  EXPECT_EQ((reinterpret_cast<const char*>(view.pop_grades.data()) - base) %
                kSectionAlign, 0);

  // BFS layout: roots first and strictly sorted, child ranges tile.
  for (std::uint32_t r = 1; r < view.header.root_count; ++r) {
    EXPECT_LT(view.urls[r - 1], view.urls[r]);
  }
  EXPECT_EQ(view.child_begin[0], view.header.root_count);
  EXPECT_EQ(view.child_begin[view.header.node_count],
            view.header.node_count);
}

TEST(FrozenFormatTest, GradesPackToTwoBits) {
  ppm::StandardPpm m;
  m.train(train_sessions());
  const auto pop = small_pop();
  const std::string payload = freeze_standard(m, pop);

  FrozenView view;
  std::string error;
  ASSERT_TRUE(decode_payload(payload, &view, &error)) << error;
  EXPECT_EQ(view.pop_grades.size(), (pop.url_count() + 3) / 4);
  for (UrlId u = 0; u < pop.url_count(); ++u) {
    EXPECT_EQ(view.grade(u), pop.grade(u)) << "url " << u;
    EXPECT_EQ(view.pop_counts[u], pop.accesses(u)) << "url " << u;
  }
}

TEST(FrozenModelTest, PredictsIdenticallyToArenaStandard) {
  ppm::StandardPpm m;
  m.train(train_sessions());
  const auto pop = small_pop();
  auto payload = std::make_shared<const std::string>(freeze_standard(m, pop));

  std::string error;
  auto froz = FrozenModel::open(payload, *payload, &error);
  ASSERT_NE(froz, nullptr) << error;
  EXPECT_EQ(froz->node_count(), m.node_count());
  EXPECT_EQ(froz->name(), "frozen-standard-ppm");

  for (auto ctx : std::vector<std::vector<UrlId>>{
           {1}, {2}, {1, 2}, {5, 6}, {5, 6, 7}, {1, 2, 3}, {9}, {},
           {3, 1, 2}, {7, 8}}) {
    expect_identical(m, *froz, ctx);
  }
}

TEST(FrozenModelTest, PredictsIdenticallyToArenaPopularity) {
  auto pop = small_pop();
  ppm::PopularityPpm m{ppm::PopularityPpmConfig{}, &pop};
  m.train(train_sessions());
  serve::Snapshot snap;
  snap.popularity = pop;
  snap.model = std::make_unique<ppm::PopularityPpm>(m);
  snap.version = 1;

  const std::string payload = serve::serialize_snapshot_frozen(snap);
  auto owned = std::make_shared<const std::string>(payload);
  std::string error;
  auto froz = FrozenModel::open(owned, *owned, &error);
  ASSERT_NE(froz, nullptr) << error;

  for (auto ctx : std::vector<std::vector<UrlId>>{
           {1}, {2}, {1, 2}, {5, 6}, {5, 6, 7}, {1, 2, 3}, {9}, {}}) {
    expect_identical(m, *froz, ctx);
  }
}

TEST(FrozenModelTest, StorageIsMuchSmallerThanArena) {
  ppm::StandardPpm m;
  m.train(train_sessions());
  const auto pop = small_pop();
  const std::string payload = freeze_standard(m, pop);

  // The headline claim, on a small tree: the frozen payload undercuts the
  // arena's heap footprint by well over the 2x the bench gates.
  EXPECT_LT(payload.size() * 2, m.storage_bytes())
      << "frozen " << payload.size() << " vs arena " << m.storage_bytes();
}

TEST(FrozenModelTest, DegradedPayloadHasNoModel) {
  const auto pop = small_pop();
  BuildSpec spec;
  spec.kind = kKindDegraded;
  spec.popularity = &pop;
  const std::string payload = build_payload(spec);

  FrozenView view;
  std::string error;
  ASSERT_TRUE(decode_payload(payload, &view, &error)) << error;
  EXPECT_EQ(view.header.node_count, 0u);

  auto owned = std::make_shared<const std::string>(payload);
  auto froz = FrozenModel::open(owned, *owned, &error);
  EXPECT_EQ(froz, nullptr);
  EXPECT_FALSE(error.empty());
}

TEST(FrozenModelTest, UsageMarksMatchArena) {
  ppm::StandardPpm m;
  m.train(train_sessions());
  const auto pop = small_pop();
  auto payload = std::make_shared<const std::string>(freeze_standard(m, pop));
  std::string error;
  auto froz = FrozenModel::open(payload, *payload, &error);
  ASSERT_NE(froz, nullptr) << error;

  ppm::UsageScratch ua, uf;
  std::vector<ppm::Prediction> out;
  for (auto ctx : std::vector<std::vector<UrlId>>{{1}, {1, 2}, {5, 6}}) {
    out.clear();
    m.predict(ctx, out, &ua);
    out.clear();
    froz->predict(ctx, out, &uf);
  }
  m.apply_usage(ua);
  froz->apply_usage(uf);
  const auto pa = m.path_usage();
  const auto pf = froz->path_usage();
  EXPECT_EQ(pa.used, pf.used);
  EXPECT_EQ(pa.total, pf.total);
}

TEST(FrozenSnapshotTest, FreezeSnapshotServesIdentically) {
  auto m = std::make_unique<ppm::StandardPpm>();
  m->train(train_sessions());
  auto snap = serve::make_snapshot(std::move(m), small_pop(), 7);
  auto frozen_snap = serve::freeze_snapshot(*snap);
  ASSERT_NE(frozen_snap, nullptr);
  EXPECT_EQ(frozen_snap->version, 7u);
  ASSERT_FALSE(frozen_snap->degraded());

  for (auto ctx : std::vector<std::vector<UrlId>>{{1}, {1, 2}, {5, 6, 7}}) {
    expect_identical(*snap->model, *frozen_snap->model, ctx);
  }
  // Fallbacks are rebuilt from the same popularity table: identical too.
  ASSERT_NE(frozen_snap->fallback, nullptr);
  expect_identical(*snap->fallback, *frozen_snap->fallback, {1});
}

TEST(FrozenSnapshotTest, RefreezingAFrozenSnapshotIsBytePerfect) {
  auto m = std::make_unique<ppm::StandardPpm>();
  m->train(train_sessions());
  auto snap = serve::make_snapshot(std::move(m), small_pop(), 1);
  const std::string first = serve::serialize_snapshot_frozen(*snap);

  auto frozen_snap = serve::freeze_snapshot(*snap);
  ASSERT_NE(frozen_snap, nullptr);
  const std::string second = serve::serialize_snapshot_frozen(*frozen_snap);
  EXPECT_EQ(first, second);  // passthrough: no lossy re-compilation
}

class FrozenStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (fs::path(::testing::TempDir()) /
            ("frozenstore_" +
             std::string(::testing::UnitTest::GetInstance()
                             ->current_test_info()
                             ->name())))
               .string();
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  serve::SnapshotStoreConfig cfg() {
    serve::SnapshotStoreConfig c;
    c.dir = dir_;
    c.backoff = std::chrono::milliseconds{0};
    return c;
  }

  std::shared_ptr<const serve::Snapshot> snapshot(std::uint64_t version) {
    auto m = std::make_unique<ppm::StandardPpm>();
    m->train(train_sessions());
    return serve::make_snapshot(std::move(m), small_pop(), version);
  }

  std::string dir_;
};

TEST_F(FrozenStoreTest, PublishWritesV2AndLoadsBack) {
  serve::SnapshotStore store(cfg());
  auto snap = snapshot(42);
  const auto pub = store.publish(*snap);
  ASSERT_TRUE(pub.ok) << pub.error;

  // On disk: a v2 header line and a page-aligned payload offset.
  std::ifstream in((fs::path(dir_) / "gen-1.snap").string(),
                   std::ios::binary);
  std::string magic, ver;
  std::uint64_t gen = 0, version = 0;
  std::size_t bytes = 0, offset = 0;
  ASSERT_TRUE(in >> magic >> ver >> gen >> version >> bytes >> offset);
  EXPECT_EQ(magic, "webppm-snap");
  EXPECT_EQ(ver, "v2");
  EXPECT_EQ(gen, 1u);
  EXPECT_EQ(version, 42u);
  EXPECT_TRUE(util::is_aligned(offset, util::kPageBytes));

  const auto loaded = store.load_latest();
  ASSERT_NE(loaded.snapshot, nullptr) << loaded.error;
  EXPECT_EQ(loaded.snapshot->version, 42u);
  ASSERT_FALSE(loaded.snapshot->degraded());
  EXPECT_EQ(loaded.snapshot->model->name(), "frozen-standard-ppm");
  for (auto ctx : std::vector<std::vector<UrlId>>{{1}, {1, 2}, {5, 6}}) {
    expect_identical(*snap->model, *loaded.snapshot->model, ctx);
  }
}

TEST_F(FrozenStoreTest, V1GenerationIsRejectedAndRolledPast) {
  serve::SnapshotStore store(cfg());
  auto snap = snapshot(1);
  ASSERT_TRUE(store.publish(*snap).ok);  // gen 1, v2

  // A well-formed text v1 generation as older releases wrote it, newer
  // than the v2 one: CRC-32 over "<gen> <version> <bytes>\n" + payload,
  // and a popularity-only payload (which v1 loaded as a degraded snapshot).
  const std::string payload = "webppm-pop v1 3\n0 5 3\n";
  const std::string prefix = "2 2 " + std::to_string(payload.size()) + "\n";
  char crc[16];
  std::snprintf(crc, sizeof crc, "%08x",
                util::crc32(payload, util::crc32(prefix)));
  std::ofstream((fs::path(dir_) / "gen-2.snap").string(), std::ios::binary)
      << "webppm-snap v1 " << prefix.substr(0, prefix.size() - 1) << ' '
      << crc << '\n'
      << payload;

  const auto loaded = store.load_latest();
  ASSERT_NE(loaded.snapshot, nullptr) << loaded.error;
  EXPECT_EQ(loaded.generation, 1u);
  EXPECT_EQ(loaded.snapshot->version, 1u);
  ASSERT_FALSE(loaded.snapshot->degraded());
  ASSERT_EQ(loaded.rejected.size(), 1u);
  EXPECT_NE(loaded.rejected[0].find("gen 2"), std::string::npos)
      << loaded.rejected[0];
  EXPECT_NE(loaded.rejected[0].find("unknown format v1"), std::string::npos)
      << loaded.rejected[0];
}

TEST_F(FrozenStoreTest, DegradedSnapshotRoundTripsAsDegraded) {
  serve::SnapshotStore store(cfg());
  auto degraded = serve::make_degraded_snapshot(small_pop(), 5);
  ASSERT_TRUE(store.publish(*degraded).ok);

  const auto loaded = store.load_latest();
  ASSERT_NE(loaded.snapshot, nullptr) << loaded.error;
  EXPECT_TRUE(loaded.snapshot->degraded());
  EXPECT_EQ(loaded.snapshot->version, 5u);
  ASSERT_NE(loaded.snapshot->fallback, nullptr);
  expect_identical(*degraded->fallback, *loaded.snapshot->fallback, {1});
}

TEST_F(FrozenStoreTest, CorruptV2PayloadIsRejectedWithRollback) {
  serve::SnapshotStore store(cfg());
  auto snap = snapshot(1);
  ASSERT_TRUE(store.publish(*snap).ok);
  auto snap2 = snapshot(2);
  ASSERT_TRUE(store.publish(*snap2).ok);

  // Flip one byte deep in gen 2's payload.
  const std::string path = (fs::path(dir_) / "gen-2.snap").string();
  std::string content;
  {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    content = buf.str();
  }
  content[content.size() - 7] ^= 0x40;
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << content;
  }

  const auto loaded = store.load_latest();
  ASSERT_NE(loaded.snapshot, nullptr) << loaded.error;
  EXPECT_EQ(loaded.generation, 1u);
  ASSERT_EQ(loaded.rejected.size(), 1u);
  EXPECT_TRUE(loaded.rejected[0].rfind("gen 2: ", 0) == 0)
      << loaded.rejected[0];
}

}  // namespace
}  // namespace webppm::frozen
