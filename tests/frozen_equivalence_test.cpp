// Golden equivalence: a frozen snapshot must be *byte-identical* to its
// reference — same prediction lists, same float probabilities — across
// every model kind, both workload profiles, the degraded path, a store
// round trip with rollback, and the net tier's framed responses. The
// reference of a standard or LRS snapshot is the arena model it was
// compiled from; PB-PPM has no arena form, so its reference is the
// rule-by-rule predictor of tests/pb_reference.hpp over the same training
// window. Tolerances would hide ranking flips at equal probability, so
// every comparison here is exact equality.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "net/server.hpp"
#include "pb_reference.hpp"
#include "net/wire.hpp"
#include "serve/frozen_snapshot.hpp"
#include "serve/snapshot_store.hpp"
#include "workload/generator.hpp"

namespace webppm::frozen {
namespace {

namespace fs = std::filesystem;

/// Small deterministic traces (3 days, quarter scale) so the full matrix
/// stays test-fast; the bench harnesses cover the paper-sized corpora.
const trace::Trace& profile_trace(const std::string& profile) {
  static const trace::Trace nasa =
      workload::generate_page_trace(workload::nasa_like(3, 0.25));
  static const trace::Trace ucb =
      workload::generate_page_trace(workload::ucb_like(3, 0.25));
  return profile == "nasa" ? nasa : ucb;
}

core::ModelSpec spec_for(const std::string& model) {
  if (model == "standard") return core::ModelSpec::standard_fixed(3);
  if (model == "lrs") return core::ModelSpec::lrs_model();
  return core::ModelSpec::pb_model();
}

std::shared_ptr<const serve::Snapshot> train_snapshot(
    const std::string& model, const std::string& profile) {
  auto trained =
      core::train_model(spec_for(model), profile_trace(profile), 0, 1);
  return serve::make_snapshot(std::move(trained.predictor),
                              std::move(trained.popularity), 1);
}

/// What a trained snapshot must serve like: itself for the arena models;
/// for PB, the reference predictor over core::train_model's window (days
/// 0-1, sessions and popularity as train_model derives them).
std::shared_ptr<const serve::Snapshot> reference_for(
    const std::string& model, const std::string& profile,
    std::shared_ptr<const serve::Snapshot> trained) {
  if (model != "pb") return trained;
  const trace::Trace& trace = profile_trace(profile);
  const auto window = trace.day_range(0, 1);
  auto pop = popularity::PopularityTable::build(window, trace.urls.size());
  const ppm::PopularityPpmConfig cfg = spec_for(model).pb;
  ppm::PbBase base(cfg, &pop);
  base.insert(session::extract_sessions(window));
  auto reference = std::make_unique<pbtest::PbReference>(
      cfg, pbtest::copy_prune_reference(base));
  return serve::make_snapshot(std::move(reference), std::move(pop), 1);
}

/// Replays day 3 through two servers and requires identical answers —
/// predicted flag, served-by, urls, and bit-equal float probabilities.
void expect_equivalent_serving(const trace::Trace& trace,
                               std::shared_ptr<const serve::Snapshot> ref,
                               std::shared_ptr<const serve::Snapshot> froz) {
  serve::ModelServer a, f;
  a.publish(std::move(ref));
  f.publish(std::move(froz));

  const auto eval = trace.day_slice(2);
  ASSERT_FALSE(eval.empty());
  std::vector<ppm::Prediction> pa, pf;
  std::size_t compared = 0;
  for (const auto& r : eval) {
    const auto ra = a.query_ex(r, pa);
    const auto rf = f.query_ex(r, pf);
    ASSERT_EQ(ra.predicted, rf.predicted);
    ASSERT_EQ(ra.served, rf.served);
    ASSERT_EQ(pa.size(), pf.size()) << "request " << compared;
    for (std::size_t i = 0; i < pa.size(); ++i) {
      ASSERT_EQ(pa[i].url, pf[i].url) << "request " << compared;
      ASSERT_EQ(pa[i].probability, pf[i].probability)
          << "request " << compared << " url " << pa[i].url;
    }
    ++compared;
  }
}

class FrozenEquivalence
    : public ::testing::TestWithParam<std::tuple<std::string, std::string>> {
};

TEST_P(FrozenEquivalence, FrozenServesByteIdenticalPredictions) {
  const auto& [model, profile] = GetParam();
  auto trained = train_snapshot(model, profile);
  auto froz = serve::freeze_snapshot(*trained);
  ASSERT_NE(froz, nullptr);
  ASSERT_FALSE(froz->degraded());
  const auto ref = reference_for(model, profile, trained);
  EXPECT_EQ(froz->model->node_count(), ref->model->node_count());
  expect_equivalent_serving(profile_trace(profile), ref, froz);
}

TEST_P(FrozenEquivalence, StoreRoundTripServesByteIdenticalPredictions) {
  const auto& [model, profile] = GetParam();
  const std::string dir =
      (fs::path(::testing::TempDir()) / ("frozeneq_" + model + profile))
          .string();
  fs::remove_all(dir);

  auto trained = train_snapshot(model, profile);
  serve::SnapshotStoreConfig cfg;
  cfg.dir = dir;
  cfg.backoff = std::chrono::milliseconds{0};
  serve::SnapshotStore store(cfg);
  ASSERT_TRUE(store.publish(*trained).ok);

  const auto loaded = store.load_latest();
  ASSERT_NE(loaded.snapshot, nullptr) << loaded.error;
  expect_equivalent_serving(profile_trace(profile),
                            reference_for(model, profile, trained),
                            loaded.snapshot);
  fs::remove_all(dir);
}

INSTANTIATE_TEST_SUITE_P(
    Models, FrozenEquivalence,
    ::testing::Combine(::testing::Values("standard", "lrs", "pb"),
                       ::testing::Values("nasa", "ucb")),
    [](const auto& p) {
      return std::get<0>(p.param) + "_" + std::get<1>(p.param);
    });

TEST(FrozenEquivalenceDegraded, DegradedSnapshotRoundTrips) {
  auto trained = core::train_model(core::ModelSpec::pb_model(),
                                   profile_trace("nasa"), 0, 1);
  auto degraded =
      serve::make_degraded_snapshot(std::move(trained.popularity), 1);
  auto froz = serve::freeze_snapshot(*degraded);
  ASSERT_NE(froz, nullptr);
  ASSERT_TRUE(froz->degraded());
  expect_equivalent_serving(profile_trace("nasa"), degraded, froz);
}

TEST(FrozenEquivalenceRollback, RollbackLandsOnEquivalentOlderGeneration) {
  const std::string dir =
      (fs::path(::testing::TempDir()) / "frozeneq_rollback").string();
  fs::remove_all(dir);

  auto source = train_snapshot("pb", "nasa");
  serve::SnapshotStoreConfig cfg;
  cfg.dir = dir;
  cfg.backoff = std::chrono::milliseconds{0};
  serve::SnapshotStore store(cfg);
  ASSERT_TRUE(store.publish(*source).ok);
  auto newer = train_snapshot("pb", "ucb");
  ASSERT_TRUE(store.publish(*newer).ok);

  // Corrupt the newest generation mid-payload; the store must roll back to
  // gen 1 and gen 1 must still serve identically to its reference.
  const std::string path = (fs::path(dir) / "gen-2.snap").string();
  std::string content;
  {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    content = buf.str();
  }
  content[content.size() / 2] ^= 0x10;
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << content;
  }

  const auto loaded = store.load_latest();
  ASSERT_NE(loaded.snapshot, nullptr) << loaded.error;
  EXPECT_EQ(loaded.generation, 1u);
  ASSERT_EQ(loaded.rejected.size(), 1u);
  expect_equivalent_serving(profile_trace("nasa"),
                            reference_for("pb", "nasa", source),
                            loaded.snapshot);
  fs::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Net tier: the framed bytes on the wire must match, not just the decoded
// predictions — float encoding happens in the frame writer, and a frozen
// model that produced a close-but-different probability would differ here.

struct BlockingConn {
  int fd = -1;
  ~BlockingConn() {
    if (fd >= 0) ::close(fd);
  }
  bool connect_to(std::uint16_t port) {
    fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) return false;
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    return ::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                     sizeof addr) == 0;
  }
  bool send_all(const std::vector<std::uint8_t>& bytes) {
    std::size_t done = 0;
    while (done < bytes.size()) {
      const ssize_t n = ::send(fd, bytes.data() + done, bytes.size() - done,
                               MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) continue;
        return false;
      }
      done += static_cast<std::size_t>(n);
    }
    return true;
  }
  /// Reads one framed response, header and body, as raw bytes.
  bool read_frame(std::vector<std::uint8_t>& out) {
    std::uint8_t header[net::kFrameHeaderBytes];
    if (!read_exact(header, sizeof header)) return false;
    const std::uint32_t len = static_cast<std::uint32_t>(header[0]) |
                              (static_cast<std::uint32_t>(header[1]) << 8) |
                              (static_cast<std::uint32_t>(header[2]) << 16) |
                              (static_cast<std::uint32_t>(header[3]) << 24);
    if (len == 0 || len > net::kDefaultMaxFrameBytes) return false;
    out.assign(header, header + sizeof header);
    out.resize(sizeof header + len);
    return read_exact(out.data() + sizeof header, len);
  }

 private:
  bool read_exact(std::uint8_t* data, std::size_t len) {
    std::size_t done = 0;
    while (done < len) {
      const ssize_t n = ::read(fd, data + done, len - done);
      if (n == 0) return false;
      if (n < 0) {
        if (errno == EINTR) continue;
        return false;
      }
      done += static_cast<std::size_t>(n);
    }
    return true;
  }
};

TEST(FrozenEquivalenceNet, WireResponsesAreByteIdentical) {
  auto froz = train_snapshot("pb", "nasa");
  auto ref = reference_for("pb", "nasa", froz);

  serve::ModelServer ma, mf;
  ma.publish(ref);
  mf.publish(froz);
  net::NetServerConfig cfg;
  cfg.workers = 1;
  cfg.admin = false;
  net::PredictServer sa(ma, cfg), sf(mf, cfg);
  std::string err;
  ASSERT_TRUE(sa.start(&err)) << err;
  ASSERT_TRUE(sf.start(&err)) << err;

  BlockingConn ca, cf;
  ASSERT_TRUE(ca.connect_to(sa.port()));
  ASSERT_TRUE(cf.connect_to(sf.port()));

  const auto eval = profile_trace("nasa").day_slice(2);
  const std::size_t n = std::min<std::size_t>(eval.size(), 400);
  std::vector<std::uint8_t> req, fa, ff;
  for (std::size_t i = 0; i < n; ++i) {
    net::WireRequest w;
    w.client = eval[i].client;
    w.url = eval[i].url;
    w.timestamp = eval[i].timestamp;
    req.clear();
    net::encode_request(w, req);
    ASSERT_TRUE(ca.send_all(req));
    ASSERT_TRUE(cf.send_all(req));
    ASSERT_TRUE(ca.read_frame(fa));
    ASSERT_TRUE(cf.read_frame(ff));
    ASSERT_EQ(fa, ff) << "request " << i;
  }

  sa.shutdown();
  sf.shutdown();
}

}  // namespace
}  // namespace webppm::frozen
