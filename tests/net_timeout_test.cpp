// Edge-case suite for net::TimeoutWheel and the PredictServer drain
// deadline (ISSUE 9 satellite): firing exactly on a granularity boundary,
// re-arming a key from inside its own expiry callback (the lazy-cancel
// idiom every wheel owner relies on), deadlines past the wheel horizon,
// cursor jumps larger than one rotation — and, at the server level, a
// drain-then-stop shutdown whose flush budget expires against a stuck
// client that refuses to read its responses.
#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include "net/event_loop.hpp"
#include "net/load_client.hpp"
#include "net/server.hpp"
#include "ppm/standard_ppm.hpp"
#include "session/online.hpp"

namespace webppm::net {
namespace {

// ---------------------------------------------------------------------------
// TimeoutWheel

/// Collects fired keys for one advance().
std::vector<std::uint64_t> fired(TimeoutWheel& w, std::uint64_t now_ms) {
  std::vector<std::uint64_t> keys;
  w.advance(now_ms, [&](std::uint64_t k) { keys.push_back(k); });
  return keys;
}

TEST(TimeoutWheel, FiresAtGranularityBoundaryNotBefore) {
  // Cursor at 1000, 10ms ticks. A deadline one tick out lives in the slot
  // after the cursor's: advancing *to* the deadline only steps the cursor's
  // own (empty) slot; the entry fires on the step that passes its slot.
  TimeoutWheel w(/*granularity_ms=*/10, /*slots=*/8, /*start_ms=*/1000);
  w.schedule(7, 1010);
  EXPECT_EQ(w.pending(), 1u);

  EXPECT_TRUE(fired(w, 1009).empty());  // sub-tick advance: no step at all
  EXPECT_TRUE(fired(w, 1010).empty());  // boundary: steps the slot before
  const auto keys = fired(w, 1020);
  ASSERT_EQ(keys.size(), 1u);
  EXPECT_EQ(keys[0], 7u);
  EXPECT_EQ(w.pending(), 0u);
  // Idempotent: nothing left to fire however far we advance.
  EXPECT_TRUE(fired(w, 2000).empty());
}

TEST(TimeoutWheel, NextTimeoutTracksBoundaries) {
  TimeoutWheel w(10, 8, 1000);
  EXPECT_EQ(w.next_timeout_ms(1000), -1);  // empty wheel: sleep forever
  w.schedule(1, 1010);
  const int t = w.next_timeout_ms(1000);
  ASSERT_GT(t, 0);
  EXPECT_LE(t, 20);  // granularity-coarse, never beyond one extra tick
  // Once the fire time has passed, the wheel demands an immediate poll.
  EXPECT_EQ(w.next_timeout_ms(1000 + static_cast<std::uint64_t>(t)), 0);
}

TEST(TimeoutWheel, ReArmFromCallbackAfterLazyCancel) {
  // Owners cancel lazily: when a key fires they check the real deadline
  // and re-arm if it moved. A re-arm into a just-swept slot must not
  // re-fire inside the same advance (the bucket is swapped out before the
  // callbacks run); it parks in its slot and fires within one rotation.
  TimeoutWheel w(10, 8, 1000);
  w.schedule(42, 1010);

  int fires = 0;
  w.advance(1020, [&](std::uint64_t k) {
    ASSERT_EQ(k, 42u);
    ++fires;
    w.schedule(42, 1015);  // "real" deadline already behind the cursor
  });
  EXPECT_EQ(fires, 1) << "re-arm into the swapped-out bucket must not "
                         "re-fire within the same advance";
  EXPECT_EQ(w.pending(), 1u);

  // Not due again until the cursor wraps back over the entry's slot —
  // the lazy idiom tolerates up-to-one-rotation lateness, never a loss.
  EXPECT_TRUE(fired(w, 1040).empty());
  const auto again = fired(w, 1020 + 8 * 10);
  ASSERT_EQ(again.size(), 1u);
  EXPECT_EQ(again[0], 42u);
  EXPECT_EQ(w.pending(), 0u);
}

TEST(TimeoutWheel, BeyondHorizonDeadlineFiresEarlyThenReArms) {
  // 8 slots x 10ms: the horizon is cursor + 70. A deadline further out
  // parks one rotation away, fires early, and the owner's re-arm walks it
  // forward until the real deadline is inside the horizon.
  TimeoutWheel w(10, 8, 1000);
  const std::uint64_t real_deadline = 1200;  // 130ms past the horizon
  w.schedule(9, real_deadline);

  std::uint64_t now = 1000;
  int early_fires = 0;
  bool done = false;
  while (!done) {
    now += 10;
    ASSERT_LT(now, 1400u) << "entry lost: never re-fired to the deadline";
    w.advance(now, [&](std::uint64_t k) {
      ASSERT_EQ(k, 9u);
      if (now < real_deadline) {
        ++early_fires;  // owner sees the deadline is still ahead: re-arm
        w.schedule(9, real_deadline);
      } else {
        done = true;
      }
    });
  }
  EXPECT_GE(early_fires, 1);
  EXPECT_EQ(w.pending(), 0u);
}

TEST(TimeoutWheel, CursorJumpPastFullRotationFiresEverythingOnce) {
  // A worker stalled longer than one rotation must fire every slot exactly
  // once — steps clamp to the slot count, entries never fire twice.
  TimeoutWheel w(10, 8, 1000);
  for (std::uint64_t k = 0; k < 16; ++k) {
    w.schedule(k, 1000 + k * 7);  // spread over several slots
  }
  EXPECT_EQ(w.pending(), 16u);
  const auto keys = fired(w, 100'000);
  EXPECT_EQ(keys.size(), 16u);
  EXPECT_EQ(w.pending(), 0u);
  std::vector<bool> seen(16, false);
  for (const std::uint64_t k : keys) {
    ASSERT_LT(k, 16u);
    EXPECT_FALSE(seen[static_cast<std::size_t>(k)]) << "key " << k
                                                    << " fired twice";
    seen[static_cast<std::size_t>(k)] = true;
  }
}

// ---------------------------------------------------------------------------
// PredictServer drain-timeout expiry

trace::Request click(ClientId c, UrlId u, TimeSec t) {
  trace::Request r;
  r.client = c;
  r.url = u;
  r.timestamp = t;
  r.status = 200;
  r.size_bytes = 1000;
  return r;
}

std::shared_ptr<const serve::Snapshot> tiny_snapshot() {
  auto m = std::make_unique<ppm::StandardPpm>();
  session::Session s;
  s.urls = {1, 2, 3};
  const std::vector<session::Session> train{s, s};
  m->train(train);
  return serve::make_snapshot(std::move(m), popularity::PopularityTable{}, 1);
}

/// Connects, pipelines `n` requests, and never reads a byte.
int stuck_client(std::uint16_t port, int n) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  const int rcvbuf = 2048;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof rcvbuf);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
      0) {
    ::close(fd);
    return -1;
  }
  std::vector<std::uint8_t> burst;
  for (int i = 0; i < n; ++i) {
    encode_request(LoadClient::to_wire(click(1, 1, static_cast<TimeSec>(i))),
                   burst);
  }
  std::size_t done = 0;
  while (done < burst.size()) {
    const ssize_t w =
        ::send(fd, burst.data() + done, burst.size() - done, MSG_NOSIGNAL);
    if (w <= 0) break;  // server may give up on us first; that's fine
    done += static_cast<std::size_t>(w);
  }
  return fd;
}

TEST(NetDrainTimeout, StuckClientCannotWedgeShutdown) {
  serve::ModelServer model;
  model.publish(tiny_snapshot());
  NetServerConfig cfg;
  cfg.drain_timeout_ms = 200;
  cfg.sndbuf_bytes = 4 * 1024;
  // Large queue cap: the point is the drain deadline, not slow-client shed.
  cfg.max_write_queue_bytes = 64 * 1024 * 1024;
  PredictServer server(model, cfg);
  ASSERT_TRUE(server.start());

  // Enough pipelined responses to overrun sndbuf + the client's rcvbuf, so
  // writes are still owed when shutdown() starts draining — and the client
  // never reads, so they stay owed until the deadline expires.
  const int fd = stuck_client(server.port(), 3000);
  ASSERT_GE(fd, 0);
  // Wait until responses are actually queueing (requests processed but
  // bytes stuck): the server has answered more than a socket's worth.
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(10);
  while (server.responses() < 500 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_GE(server.responses(), 500u);

  const auto t0 = std::chrono::steady_clock::now();
  server.shutdown();
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                           std::chrono::steady_clock::now() - t0)
                           .count();
  // The drain must wait for the stuck client up to its budget — and then
  // actually give up instead of hanging on the unflushable queue.
  EXPECT_LT(elapsed, 5000) << "drain deadline did not expire";
  EXPECT_EQ(server.active_connections(), 0u);
  EXPECT_EQ(server.closed(), server.accepted());
  ::close(fd);
}

}  // namespace
}  // namespace webppm::net
