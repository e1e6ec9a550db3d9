// serve::SnapshotStore — the durability contract: whatever happens to the
// files on disk (bit flips, truncations, half-written temp files, missing
// manifest), load_latest() either returns an intact generation or a reason,
// and publish() retries transient failures without ever exposing a torn
// file.
#include "serve/snapshot_store.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "fault/fault.hpp"
#include "obs/metrics.hpp"
#include "ppm/standard_ppm.hpp"

namespace webppm::serve {
namespace {

namespace fs = std::filesystem;

session::Session make_session(std::vector<UrlId> urls) {
  session::Session s;
  s.urls = std::move(urls);
  return s;
}

/// A snapshot with both a model and a non-empty popularity table, so the
/// round trip covers the fallback too.
std::shared_ptr<const Snapshot> make_test_snapshot(std::uint64_t version) {
  auto m = std::make_unique<ppm::StandardPpm>();
  m->train(std::vector<session::Session>{make_session({1, 2, 3}),
                                         make_session({1, 2, 3}),
                                         make_session({1, 2, 4})});
  auto pop = popularity::PopularityTable::from_counts({0, 3, 3, 2, 1});
  return make_snapshot(std::move(m), std::move(pop), version);
}

std::vector<ppm::Prediction> predict(const Snapshot& snap,
                                     std::vector<UrlId> ctx) {
  std::vector<ppm::Prediction> out;
  (snap.model != nullptr ? *snap.model : *snap.fallback).predict(ctx, out);
  return out;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

void write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << content;
}

class SnapshotStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (fs::path(::testing::TempDir()) /
            ("snapstore_" +
             std::string(
                 ::testing::UnitTest::GetInstance()->current_test_info()->name())))
               .string();
    fs::remove_all(dir_);
  }
  void TearDown() override {
    fault::disarm();
    fs::remove_all(dir_);
  }

  SnapshotStoreConfig cfg() const {
    SnapshotStoreConfig c;
    c.dir = dir_;
    c.backoff = std::chrono::milliseconds(0);
    return c;
  }

  std::string gen_file(std::uint64_t gen) const {
    return (fs::path(dir_) / ("gen-" + std::to_string(gen) + ".snap"))
        .string();
  }

  std::string dir_;
};

TEST_F(SnapshotStoreTest, PublishLoadRoundTripPreservesPredictions) {
  SnapshotStore store(cfg());
  const auto snap = make_test_snapshot(41);
  const auto pub = store.publish(*snap);
  ASSERT_TRUE(pub.ok) << pub.error;
  EXPECT_EQ(pub.generation, 1u);
  EXPECT_EQ(pub.attempts, 1u);

  const auto loaded = store.load_latest();
  ASSERT_NE(loaded.snapshot, nullptr) << loaded.error;
  EXPECT_EQ(loaded.generation, 1u);
  EXPECT_EQ(loaded.snapshot->version, 41u);
  EXPECT_FALSE(loaded.snapshot->degraded());
  EXPECT_TRUE(loaded.rejected.empty());

  // Identical predictions and popularity, fallback included.
  EXPECT_EQ(predict(*loaded.snapshot, {1, 2}), predict(*snap, {1, 2}));
  ASSERT_EQ(loaded.snapshot->popularity.url_count(),
            snap->popularity.url_count());
  for (UrlId u = 0; u < snap->popularity.url_count(); ++u) {
    EXPECT_EQ(loaded.snapshot->popularity.accesses(u),
              snap->popularity.accesses(u));
  }
  ASSERT_NE(loaded.snapshot->fallback, nullptr);
}

TEST_F(SnapshotStoreTest, DegradedSnapshotRoundTrips) {
  SnapshotStore store(cfg());
  const auto snap = make_degraded_snapshot(
      popularity::PopularityTable::from_counts({0, 5, 3, 1}), 9);
  ASSERT_TRUE(store.publish(*snap).ok);

  const auto loaded = store.load_latest();
  ASSERT_NE(loaded.snapshot, nullptr) << loaded.error;
  EXPECT_TRUE(loaded.snapshot->degraded());
  EXPECT_EQ(loaded.snapshot->version, 9u);
  ASSERT_NE(loaded.snapshot->fallback, nullptr);
  EXPECT_EQ(predict(*loaded.snapshot, {}), predict(*snap, {}));
}

TEST_F(SnapshotStoreTest, EverySingleBitFlipIsRejected) {
  SnapshotStore store(cfg());
  ASSERT_TRUE(store.publish(*make_test_snapshot(1)).ok);
  const std::string pristine = read_file(gen_file(1));
  ASSERT_FALSE(pristine.empty());

  for (std::size_t byte = 0; byte < pristine.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string mutated = pristine;
      mutated[byte] = static_cast<char>(mutated[byte] ^ (1 << bit));
      write_file(gen_file(1), mutated);
      const auto loaded = store.load_latest();
      EXPECT_EQ(loaded.snapshot, nullptr)
          << "bit " << bit << " of byte " << byte << " went undetected";
      EXPECT_FALSE(loaded.error.empty());
      ASSERT_EQ(loaded.rejected.size(), 1u);
    }
  }
}

TEST_F(SnapshotStoreTest, EveryTruncationIsRejected) {
  SnapshotStore store(cfg());
  ASSERT_TRUE(store.publish(*make_test_snapshot(1)).ok);
  const std::string pristine = read_file(gen_file(1));

  for (std::size_t keep = 0; keep < pristine.size(); ++keep) {
    write_file(gen_file(1), pristine.substr(0, keep));
    const auto loaded = store.load_latest();
    EXPECT_EQ(loaded.snapshot, nullptr)
        << "truncation to " << keep << " bytes went undetected";
    EXPECT_FALSE(loaded.error.empty());
  }
  // And appended garbage too: the header's byte count pins the size.
  write_file(gen_file(1), pristine + "x");
  EXPECT_EQ(store.load_latest().snapshot, nullptr);
}

TEST_F(SnapshotStoreTest, RollsBackToNewestIntactGeneration) {
  SnapshotStore store(cfg());
  ASSERT_TRUE(store.publish(*make_test_snapshot(10)).ok);  // gen 1
  ASSERT_TRUE(store.publish(*make_test_snapshot(20)).ok);  // gen 2
  ASSERT_TRUE(store.publish(*make_test_snapshot(30)).ok);  // gen 3

  // Corrupt the newest generation.
  std::string bytes = read_file(gen_file(3));
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x40);
  write_file(gen_file(3), bytes);

  const auto loaded = store.load_latest();
  ASSERT_NE(loaded.snapshot, nullptr) << loaded.error;
  EXPECT_EQ(loaded.generation, 2u);
  EXPECT_EQ(loaded.snapshot->version, 20u);
  ASSERT_EQ(loaded.rejected.size(), 1u);
  EXPECT_NE(loaded.rejected[0].find("gen 3"), std::string::npos)
      << loaded.rejected[0];
}

TEST_F(SnapshotStoreTest, AllGenerationsCorruptReportsEveryReason) {
  SnapshotStore store(cfg());
  ASSERT_TRUE(store.publish(*make_test_snapshot(1)).ok);
  ASSERT_TRUE(store.publish(*make_test_snapshot(2)).ok);
  write_file(gen_file(1), "garbage");
  write_file(gen_file(2), "");

  const auto loaded = store.load_latest();
  EXPECT_EQ(loaded.snapshot, nullptr);
  EXPECT_FALSE(loaded.error.empty());
  EXPECT_EQ(loaded.rejected.size(), 2u);
}

TEST_F(SnapshotStoreTest, EmptyDirectoryIsAnError) {
  SnapshotStore store(cfg());
  const auto loaded = store.load_latest();
  EXPECT_EQ(loaded.snapshot, nullptr);
  EXPECT_FALSE(loaded.error.empty());
}

TEST_F(SnapshotStoreTest, RetentionPrunesOldGenerations) {
  auto c = cfg();
  c.retain = 2;
  SnapshotStore store(c);
  for (std::uint64_t v = 1; v <= 5; ++v) {
    ASSERT_TRUE(store.publish(*make_test_snapshot(v)).ok);
  }
  EXPECT_EQ(store.generations(), (std::vector<std::uint64_t>{4, 5}));
  const auto loaded = store.load_latest();
  ASSERT_NE(loaded.snapshot, nullptr);
  EXPECT_EQ(loaded.snapshot->version, 5u);
}

TEST_F(SnapshotStoreTest, MissingManifestStillRecoversByScan) {
  SnapshotStore store(cfg());
  ASSERT_TRUE(store.publish(*make_test_snapshot(6)).ok);
  // Crash window: the generation file was renamed into place, the manifest
  // rewrite never happened (or was lost).
  std::remove((fs::path(dir_) / "MANIFEST").string().c_str());

  const auto loaded = store.load_latest();
  ASSERT_NE(loaded.snapshot, nullptr) << loaded.error;
  EXPECT_EQ(loaded.snapshot->version, 6u);
}

TEST_F(SnapshotStoreTest, StaleManifestEntryIsJustSkipped) {
  SnapshotStore store(cfg());
  ASSERT_TRUE(store.publish(*make_test_snapshot(7)).ok);
  // Manifest claims a generation whose file is gone.
  write_file((fs::path(dir_) / "MANIFEST").string(),
             "webppm-manifest v1\n1\n99\n");
  const auto loaded = store.load_latest();
  ASSERT_NE(loaded.snapshot, nullptr) << loaded.error;
  EXPECT_EQ(loaded.generation, 1u);
  ASSERT_EQ(loaded.rejected.size(), 1u);
  EXPECT_NE(loaded.rejected[0].find("gen 99"), std::string::npos);
}

TEST_F(SnapshotStoreTest, PublishRetriesInjectedWriteFailures) {
  obs::MetricsRegistry registry;
  auto c = cfg();
  c.publish_attempts = 3;
  c.metrics = &registry;
  SnapshotStore store(c);

  fault::arm(fault::Plan{}.fail_nth("serve.snapshot.write", 0, 2));
  const auto pub = store.publish(*make_test_snapshot(3));
  fault::disarm();

  ASSERT_TRUE(pub.ok) << pub.error;
  EXPECT_EQ(pub.attempts, 3u);
  EXPECT_EQ(registry.counter("webppm_serve_fault_snapshot_write_failures_total")
                .value(),
            2u);
  EXPECT_EQ(registry.counter("webppm_serve_fault_publish_retries_total")
                .value(),
            2u);
  EXPECT_EQ(registry.counter("webppm_serve_fault_publish_failures_total")
                .value(),
            0u);
  ASSERT_NE(store.load_latest().snapshot, nullptr);
}

TEST_F(SnapshotStoreTest, PublishGivesUpAfterConfiguredAttempts) {
  obs::MetricsRegistry registry;
  auto c = cfg();
  c.publish_attempts = 2;
  c.metrics = &registry;
  SnapshotStore store(c);
  ASSERT_TRUE(store.publish(*make_test_snapshot(1)).ok);  // gen 1, clean

  fault::arm(fault::Plan{}.fail("serve.snapshot.write"));
  const auto pub = store.publish(*make_test_snapshot(2));
  fault::disarm();

  EXPECT_FALSE(pub.ok);
  EXPECT_EQ(pub.attempts, 2u);
  EXPECT_FALSE(pub.error.empty());
  EXPECT_EQ(registry.counter("webppm_serve_fault_publish_failures_total")
                .value(),
            1u);
  // The store still serves the last good generation.
  const auto loaded = store.load_latest();
  ASSERT_NE(loaded.snapshot, nullptr);
  EXPECT_EQ(loaded.snapshot->version, 1u);
}

TEST_F(SnapshotStoreTest, MidWriteCrashLeavesOnlyAnIgnoredTempFile) {
  auto c = cfg();
  c.publish_attempts = 1;
  SnapshotStore store(c);
  ASSERT_TRUE(store.publish(*make_test_snapshot(1)).ok);

  fault::arm(fault::Plan{}.fail_nth("serve.snapshot.write", 0, 1));
  EXPECT_FALSE(store.publish(*make_test_snapshot(2)).ok);
  fault::disarm();

  // The partial temp file exists (the "crash" happened mid-write) but is
  // never treated as a generation.
  EXPECT_TRUE(fs::exists(gen_file(2) + ".tmp"));
  EXPECT_EQ(store.generations(), (std::vector<std::uint64_t>{1}));
  const auto loaded = store.load_latest();
  ASSERT_NE(loaded.snapshot, nullptr);
  EXPECT_EQ(loaded.snapshot->version, 1u);
}

TEST_F(SnapshotStoreTest, FsyncAndRenameFaultsAreRetriedToo) {
  auto c = cfg();
  c.publish_attempts = 3;
  SnapshotStore store(c);
  fault::arm(fault::Plan{}
                 .fail_nth("serve.snapshot.fsync", 0, 1)
                 .fail_nth("serve.snapshot.rename", 0, 1));
  const auto pub = store.publish(*make_test_snapshot(1));
  fault::disarm();
  ASSERT_TRUE(pub.ok) << pub.error;
  EXPECT_EQ(pub.attempts, 3u);  // fsync fault, then rename fault, then ok
}

TEST_F(SnapshotStoreTest, DirsyncFaultIsRetriedAndRewriteIsIdempotent) {
  auto c = cfg();
  c.publish_attempts = 2;
  SnapshotStore store(c);

  // The dirsync fires *after* the rename: the file is already at its final
  // name when the attempt "fails", so the retry rewrites the same
  // generation and must succeed — and load_latest must see exactly one
  // intact generation, not a duplicate or a torn one.
  fault::arm(fault::Plan{}.fail_nth("serve.snapshot.dirsync", 0, 1));
  const auto pub = store.publish(*make_test_snapshot(9));
  fault::disarm();

  ASSERT_TRUE(pub.ok) << pub.error;
  EXPECT_EQ(pub.attempts, 2u);
  EXPECT_EQ(store.generations(), (std::vector<std::uint64_t>{1}));
  const auto loaded = store.load_latest();
  ASSERT_NE(loaded.snapshot, nullptr) << loaded.error;
  EXPECT_EQ(loaded.snapshot->version, 9u);
}

TEST_F(SnapshotStoreTest, DirsyncFaultOnEveryAttemptFailsPublishCleanly) {
  auto c = cfg();
  c.publish_attempts = 2;
  SnapshotStore store(c);
  ASSERT_TRUE(store.publish(*make_test_snapshot(1)).ok);

  fault::arm(fault::Plan{}.fail("serve.snapshot.dirsync"));
  const auto pub = store.publish(*make_test_snapshot(2));
  fault::disarm();

  EXPECT_FALSE(pub.ok);
  EXPECT_NE(pub.error.find("dirsync"), std::string::npos) << pub.error;
  // Undurable-but-present gen 2 may exist on disk; the store still loads.
  const auto loaded = store.load_latest();
  ASSERT_NE(loaded.snapshot, nullptr) << loaded.error;
}

TEST_F(SnapshotStoreTest, ManifestWriteFailureDoesNotFailPublish) {
  SnapshotStore store(cfg());
  fault::arm(fault::Plan{}.fail("serve.manifest.write"));
  const auto pub = store.publish(*make_test_snapshot(5));
  fault::disarm();
  ASSERT_TRUE(pub.ok) << pub.error;
  // No manifest, but the directory scan finds the generation.
  const auto loaded = store.load_latest();
  ASSERT_NE(loaded.snapshot, nullptr) << loaded.error;
  EXPECT_EQ(loaded.snapshot->version, 5u);
}

TEST_F(SnapshotStoreTest, ReadFaultRollsBackLikeCorruption) {
  obs::MetricsRegistry registry;
  auto c = cfg();
  c.metrics = &registry;
  SnapshotStore store(c);
  ASSERT_TRUE(store.publish(*make_test_snapshot(1)).ok);
  ASSERT_TRUE(store.publish(*make_test_snapshot(2)).ok);

  // First read (newest gen) fails; the second (gen 1) succeeds.
  fault::arm(fault::Plan{}.fail_nth("serve.snapshot.read", 0, 1));
  const auto loaded = store.load_latest();
  fault::disarm();

  ASSERT_NE(loaded.snapshot, nullptr) << loaded.error;
  EXPECT_EQ(loaded.generation, 1u);
  EXPECT_EQ(
      registry.counter("webppm_serve_fault_snapshot_rejected_total").value(),
      1u);
  EXPECT_EQ(registry.counter("webppm_serve_fault_rollback_total").value(),
            1u);
}

TEST_F(SnapshotStoreTest, OverlongGenerationNameIsIgnored) {
  SnapshotStore store(cfg());
  ASSERT_TRUE(store.publish(*make_test_snapshot(1)).ok);
  // A stray file whose id does not fit in a u64 is not a generation.
  write_file((fs::path(dir_) / "gen-99999999999999999999.snap").string(),
             read_file(gen_file(1)));

  EXPECT_EQ(store.generations(), (std::vector<std::uint64_t>{1}));
  const auto pub = store.publish(*make_test_snapshot(2));
  ASSERT_TRUE(pub.ok) << pub.error;
  EXPECT_EQ(pub.generation, 2u);
  const auto loaded = store.load_latest();
  ASSERT_NE(loaded.snapshot, nullptr) << loaded.error;
  EXPECT_EQ(loaded.generation, 2u);
  EXPECT_EQ(loaded.snapshot->version, 2u);
  EXPECT_TRUE(loaded.rejected.empty());
}

TEST_F(SnapshotStoreTest, PublishRefusesToWrapTheGenerationId) {
  obs::MetricsRegistry registry;
  auto c = cfg();
  c.metrics = &registry;
  SnapshotStore store(c);
  ASSERT_TRUE(store.publish(*make_test_snapshot(1)).ok);
  const std::string last =
      (fs::path(dir_) / "gen-18446744073709551615.snap").string();
  write_file(last, "garbage");

  const auto pub = store.publish(*make_test_snapshot(2));
  EXPECT_FALSE(pub.ok);
  EXPECT_NE(pub.error.find("wrap"), std::string::npos) << pub.error;
  EXPECT_EQ(registry.counter("webppm_serve_fault_publish_failures_total")
                .value(),
            1u);
  // Nothing was written: no gen 0, and the stray file is untouched.
  EXPECT_EQ(store.generations(),
            (std::vector<std::uint64_t>{1, 18446744073709551615ull}));
  EXPECT_EQ(read_file(last), "garbage");
  const auto loaded = store.load_latest();
  ASSERT_NE(loaded.snapshot, nullptr) << loaded.error;
  EXPECT_EQ(loaded.generation, 1u);
  EXPECT_EQ(loaded.snapshot->version, 1u);
}

}  // namespace
}  // namespace webppm::serve
