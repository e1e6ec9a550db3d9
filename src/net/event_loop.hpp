// webppm::net event-loop primitives (DESIGN.md §10): a thin epoll wrapper
// with an eventfd wake channel, an owned-fd RAII handle, the lazy timing
// wheel the connection idle timeout rides on, and the socket helpers and
// limits the acceptor, server, router, upstream pool and load client
// share.
//
// Ownership model: every fd is owned by exactly one thread's EventLoop —
// the acceptor owns the listen and admin fds, each loop worker owns the
// connection fds admitted to it. Cross-thread communication is
// inbox-plus-wake only (the acceptor pushes accepted fds into a worker's
// inbox and wakes its eventfd); no fd is ever touched by two threads.
#pragma once

#include <sys/epoll.h>

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace webppm::net {

/// Close-on-destruct fd handle (move-only).
class OwnedFd {
 public:
  OwnedFd() = default;
  explicit OwnedFd(int fd) : fd_(fd) {}
  ~OwnedFd() { reset(); }
  OwnedFd(OwnedFd&& o) noexcept : fd_(o.release()) {}
  OwnedFd& operator=(OwnedFd&& o) noexcept {
    if (this != &o) {
      reset();
      fd_ = o.release();
    }
    return *this;
  }
  OwnedFd(const OwnedFd&) = delete;
  OwnedFd& operator=(const OwnedFd&) = delete;

  int get() const { return fd_; }
  bool valid() const { return fd_ >= 0; }
  int release() {
    const int fd = fd_;
    fd_ = -1;
    return fd;
  }
  void reset(int fd = -1);

 private:
  int fd_ = -1;
};

/// Sets O_NONBLOCK; returns false on fcntl failure.
bool set_nonblocking(int fd);

/// strerror(errno), for error messages.
std::string errno_string();

/// Sets a blocking socket's SO_RCVTIMEO or SO_SNDTIMEO (`opt`) to `ms`.
void set_socket_timeout(int fd, int opt, std::uint64_t ms);

/// Binds a nonblocking listen socket on host:port (port 0 = ephemeral)
/// into `out` and reports the bound port. Returns an error message, empty
/// on success. Accepted fds do not inherit O_NONBLOCK.
std::string open_listener(const std::string& host, std::uint16_t port,
                          OwnedFd& out, std::uint16_t* bound_port);

/// Sends all `len` bytes, retrying EINTR. MSG_NOSIGNAL: a peer that
/// closed surfaces as EPIPE, never as a process-killing SIGPIPE. False on
/// error, with `*error` (when given) saying why.
bool send_all(int fd, const void* data, std::size_t len,
              std::string* error = nullptr);

/// Longest a server's or router's loop waits before it checks its stop
/// flag (and, on the acceptor, its admin connections' deadlines).
inline constexpr int kLoopTickMs = 100;
/// What one read() of a prediction connection asks for.
inline constexpr std::size_t kReadChunkBytes = 16 * 1024;
/// The largest admin request read; no legitimate scrape is longer.
inline constexpr std::size_t kAdminRequestCapBytes = 4 * 1024;
/// An admin connection's budget from accept to close, for reading its
/// request and writing the reply: a client that goes silent, or stops
/// mid-request, is closed once it is spent.
inline constexpr std::uint64_t kAdminDeadlineMs = 1000;

/// Monotonic milliseconds (CLOCK_MONOTONIC), the loop's time base.
std::uint64_t now_ms();

/// One epoll set plus an eventfd wake channel. Used from its owning thread
/// only, except wake(), which any thread may call.
class EventLoop {
 public:
  EventLoop();
  ~EventLoop() = default;
  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// False when epoll/eventfd creation failed (error() says why).
  bool ok() const { return epoll_.valid() && wake_.valid(); }
  const std::string& error() const { return error_; }

  bool add(int fd, std::uint32_t events, void* data);
  bool mod(int fd, std::uint32_t events, void* data);
  void del(int fd);

  /// Blocks up to timeout_ms (-1 = forever) and fills `out` with ready
  /// events. Returns the event count; EINTR reads as 0.
  int wait(int timeout_ms, std::vector<epoll_event>& out);

  /// Wakes a wait() in progress (or the next one). Thread-safe.
  void wake();

  /// The wake channel's read end; the wrapper registers it itself with
  /// `data == wake_tag()`. Callers seeing that tag call drain_wake().
  void* wake_tag() const { return const_cast<int*>(&wake_fd_tag_); }
  void drain_wake();

 private:
  OwnedFd epoll_;
  OwnedFd wake_;
  int wake_fd_tag_ = 0;  ///< address used as the wake event's epoll data
  std::string error_;
};

/// Lazy timing wheel for connection idle timeouts: slots of `granularity`
/// milliseconds, entries hashed by deadline. Entries are *hints* —
/// schedule() never removes an earlier entry for the same key, and a
/// deadline past the wheel horizon parks in the furthest slot — so the
/// owner re-checks the key's authoritative deadline when an entry fires
/// and re-schedules if it moved. That makes scheduling O(1) with zero
/// bookkeeping on the hot path (every request would otherwise pay a
/// delete+insert).
class TimeoutWheel {
 public:
  TimeoutWheel(std::uint64_t granularity_ms, std::size_t slots,
               std::uint64_t start_ms);

  void schedule(std::uint64_t key, std::uint64_t deadline_ms);

  /// Advances the wheel cursor to `now_ms`, firing cb(key) for every entry
  /// whose slot has passed.
  void advance(std::uint64_t now_ms,
               const std::function<void(std::uint64_t)>& cb);

  /// Milliseconds until the next non-empty slot fires (granularity-coarse);
  /// -1 when the wheel is empty. Feed to EventLoop::wait().
  int next_timeout_ms(std::uint64_t now_ms) const;

  std::size_t pending() const { return pending_; }
  std::uint64_t granularity_ms() const { return granularity_ms_; }

 private:
  std::size_t slot_of(std::uint64_t ms) const {
    return static_cast<std::size_t>(ms / granularity_ms_) % slots_.size();
  }

  std::uint64_t granularity_ms_;
  std::vector<std::vector<std::uint64_t>> slots_;
  std::uint64_t cursor_ms_;  ///< wheel has fired everything before this
  std::size_t pending_ = 0;
};

}  // namespace webppm::net
