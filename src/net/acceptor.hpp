// webppm::net::Acceptor — the front door net::PredictServer and
// cluster::PredictRouter share (DESIGN.md §10).
//
// One thread owns the data listener, the admin listener and every open
// admin connection in one EventLoop. A data accept is handed to the
// owner's `admit` — unless the owner's `live` count has reached
// `max_connections`: then it is shed with one v1 Status::kRetryLater frame
// labelled `shed_version()` and closed (0 = unbounded). An admin
// connection is served without ever blocking the thread, in just enough
// HTTP/1.0 for a scraper: once its whole header block (at most
// kAdminRequestCapBytes) has arrived, a GET's path goes to the owner's
// `admin_response` (any other method is a 400), the reply is written and
// the connection closes. One still reading or writing kAdminDeadlineMs
// after its accept is closed anyway, so a silent or trickling scraper
// holds nothing but its own fd.
//
// Counts go to `{prefix}_connections_accepted_total` (admitted data
// connections only — shed ones are `{prefix}_shed_total`, never both),
// `{prefix}_accept_failures_total` and `{prefix}_admin_requests_total`.
//
// Fault site (chaos suite): net.accept — an accepted fd, data or admin,
// is closed at once and counted as an accept failure.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>

#include "net/event_loop.hpp"
#include "obs/metrics.hpp"

namespace webppm::net {

/// What an owner answers one admin GET with; the acceptor frames it as a
/// plain-text HTTP/1.0 reply and closes the connection after it.
struct AdminReply {
  std::string status = "200 OK";
  std::string body;
};

struct AcceptorConfig {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;        ///< data listener; 0 = ephemeral
  bool admin = true;             ///< also open the admin listener
  std::uint16_t admin_port = 0;  ///< 0 = ephemeral
  /// Shed a data accept once live() has reached this (0 = unbounded).
  std::size_t max_connections = 0;
  /// Hand data fds over with O_NONBLOCK (an epoll owner) or without (an
  /// owner that reads each connection on a thread of its own).
  bool nonblocking = true;
  /// Takes ownership of one admitted data fd (TCP_NODELAY already set).
  std::function<void(int fd)> admit;
  /// The owner's live data connections, as the cap reads them.
  std::function<std::size_t()> live;
  /// The snapshot version a shed frame is labelled with.
  std::function<std::uint64_t()> shed_version;
  /// The reply to an admin GET of `path` ("/metrics", "/healthz", ...).
  std::function<AdminReply(const std::string& path)> admin_response;
};

class Acceptor {
 public:
  /// Registers the four counters in `metrics`; nothing starts until
  /// start(). Every hook runs on the acceptor thread.
  Acceptor(AcceptorConfig config, obs::MetricsRegistry& metrics,
           std::string_view prefix);
  ~Acceptor() { stop(); }

  Acceptor(const Acceptor&) = delete;
  Acceptor& operator=(const Acceptor&) = delete;

  /// Binds both listeners and starts the thread. Returns an error message,
  /// empty on success.
  std::string start();
  /// Stops accepting, closes the listeners and every admin connection
  /// still open, joins the thread. Idempotent.
  void stop();

  /// Bound ports (valid after a successful start()).
  std::uint16_t port() const { return port_; }
  std::uint16_t admin_port() const { return admin_port_; }

  std::uint64_t accepted() const { return accepted_.value(); }
  std::uint64_t shed() const { return shed_.value(); }
  std::uint64_t accept_failures() const { return accept_failures_.value(); }
  std::uint64_t admin_requests() const { return admin_requests_.value(); }

 private:
  struct AdminConn {
    int fd = -1;
    std::uint64_t deadline_ms = 0;  ///< closed at this time, done or not
    std::string in;
    std::string out;
    std::size_t out_pos = 0;
  };

  void run();
  void accept_from(const OwnedFd& listener);
  void shed_connection(int fd);
  /// Reads the request (first call on), then writes the reply.
  void admin_io(AdminConn& a);
  void close_admin(int fd);

  AcceptorConfig config_;
  obs::Counter &accepted_, &shed_, &accept_failures_, &admin_requests_;
  EventLoop loop_;
  OwnedFd listen_fd_;
  OwnedFd admin_fd_;
  std::uint16_t port_ = 0;
  std::uint16_t admin_port_ = 0;
  std::unordered_map<int, std::unique_ptr<AdminConn>> admin_conns_;
  std::atomic<bool> stopping_{false};
  std::thread thread_;
};

}  // namespace webppm::net
