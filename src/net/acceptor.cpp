#include "net/acceptor.hpp"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <vector>

#include "fault/fault.hpp"
#include "net/wire.hpp"

namespace webppm::net {
namespace {

/// One HTTP/1.0 admin reply: status line, plain-text headers, body.
std::string render(const AdminReply& r) {
  std::string resp;
  resp.reserve(r.body.size() + 128);
  resp.append("HTTP/1.0 ").append(r.status).append("\r\n");
  resp.append("Content-Type: text/plain; charset=utf-8\r\n");
  resp.append("Content-Length: ").append(std::to_string(r.body.size()));
  resp.append("\r\nConnection: close\r\n\r\n");
  resp.append(r.body);
  return resp;
}

}  // namespace

Acceptor::Acceptor(AcceptorConfig config, obs::MetricsRegistry& metrics,
                   std::string_view prefix)
    : config_(std::move(config)),
      accepted_(metrics.counter(std::string(prefix) +
                                "_connections_accepted_total")),
      shed_(metrics.counter(std::string(prefix) + "_shed_total")),
      accept_failures_(
          metrics.counter(std::string(prefix) + "_accept_failures_total")),
      admin_requests_(
          metrics.counter(std::string(prefix) + "_admin_requests_total")) {}

std::string Acceptor::start() {
  if (!loop_.ok()) return loop_.error();
  std::string err =
      open_listener(config_.host, config_.port, listen_fd_, &port_);
  if (err.empty() && config_.admin) {
    err = open_listener(config_.host, config_.admin_port, admin_fd_,
                        &admin_port_);
  }
  if (!err.empty()) return err;
  stopping_.store(false, std::memory_order_release);
  thread_ = std::thread([this] { run(); });
  return {};
}

void Acceptor::stop() {
  stopping_.store(true, std::memory_order_release);
  loop_.wake();
  if (thread_.joinable()) thread_.join();
}

void Acceptor::run() {
  // A listener's epoll data is its OwnedFd, an admin connection's its
  // AdminConn. Closing an fd also takes it out of the epoll set.
  loop_.add(listen_fd_.get(), EPOLLIN, &listen_fd_);
  if (admin_fd_.valid()) loop_.add(admin_fd_.get(), EPOLLIN, &admin_fd_);

  std::vector<epoll_event> events;
  while (!stopping_.load(std::memory_order_acquire)) {
    const int n = loop_.wait(kLoopTickMs, events);
    for (int i = 0; i < n; ++i) {
      const epoll_event& ev = events[static_cast<std::size_t>(i)];
      if (ev.data.ptr == loop_.wake_tag()) {
        loop_.drain_wake();
      } else if (ev.data.ptr == &listen_fd_ || ev.data.ptr == &admin_fd_) {
        accept_from(*static_cast<const OwnedFd*>(ev.data.ptr));
      } else if ((ev.events & (EPOLLHUP | EPOLLERR)) != 0) {
        close_admin(static_cast<AdminConn*>(ev.data.ptr)->fd);
      } else {
        admin_io(*static_cast<AdminConn*>(ev.data.ptr));
      }
    }
    // An admin connection past its deadline (kAdminDeadlineMs from
    // accept) is closed, whether it is still reading or still writing.
    const std::uint64_t now = now_ms();
    std::erase_if(admin_conns_, [&](const auto& entry) {
      if (now < entry.second->deadline_ms) return false;
      ::close(entry.first);
      return true;
    });
  }
  // Stop accepting at once; pending admin conversations just close
  // (scrapers retry; the drain budget belongs to prediction clients).
  for (const auto& [fd, a] : admin_conns_) ::close(fd);
  admin_conns_.clear();
  listen_fd_.reset();
  admin_fd_.reset();
}

void Acceptor::accept_from(const OwnedFd& listener) {
  const bool admin = &listener == &admin_fd_;
  const int flags =
      SOCK_CLOEXEC | (admin || config_.nonblocking ? SOCK_NONBLOCK : 0);
  while (true) {
    const int fd = ::accept4(listener.get(), nullptr, nullptr, flags);
    if (fd < 0) {
      if (errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) {
        accept_failures_.add();
      }
      return;
    }
    if (WEBPPM_FAULT_INJECT("net.accept")) {
      // Scripted accept failure: the kernel handed us a connection and the
      // acceptor "fails" it — counted, closed, and visible to chaos gates.
      accept_failures_.add();
      ::close(fd);
    } else if (admin) {
      auto a = std::make_unique<AdminConn>();
      a->fd = fd;
      a->deadline_ms = now_ms() + kAdminDeadlineMs;
      loop_.add(fd, EPOLLIN, a.get());
      admin_conns_.emplace(fd, std::move(a));
    } else if (config_.max_connections != 0 &&
               config_.live() >= config_.max_connections) {
      shed_connection(fd);
    } else {
      // The protocol is request/response ping-pong; without TCP_NODELAY
      // every closed-loop exchange eats a Nagle/delayed-ACK stall.
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
      accepted_.add();
      config_.admit(fd);
    }
  }
}

void Acceptor::shed_connection(int fd) {
  // Over the cap: answer with one retryable frame, then close. Mirrors the
  // serve layer's shard-cap shed — the client is told to back off, not
  // left to diagnose a silent RST.
  WireResponse resp;
  resp.status = Status::kRetryLater;
  resp.snapshot_version = config_.shed_version();
  std::vector<std::uint8_t> frame;
  encode_response(resp, frame);
  // Best-effort single write that never blocks, whatever the fd's mode:
  // the frame is far below any socket buffer, so a fresh connection
  // either takes it whole or is already broken. MSG_NOSIGNAL: a peer that
  // already closed must surface as EPIPE, never as a process-killing
  // SIGPIPE.
  [[maybe_unused]] const ssize_t n = ::send(fd, frame.data(), frame.size(),
                                            MSG_NOSIGNAL | MSG_DONTWAIT);
  ::close(fd);
  shed_.add();
}

void Acceptor::admin_io(AdminConn& a) {
  char buf[1024];
  while (a.out.empty()) {
    const ssize_t n = ::read(a.fd, buf, sizeof buf);
    if (n > 0) {
      a.in.append(buf, static_cast<std::size_t>(n));
      // No legitimate scrape request is longer than the cap.
      if (a.in.size() <= kAdminRequestCapBytes) continue;
    } else if (n < 0 &&
               (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR)) {
      // Answer only once the full header block has arrived — responding
      // and closing mid-request would race the client's remaining writes
      // into an RST that can eat the response.
      if (a.in.find("\r\n\r\n") == std::string::npos) return;
      admin_requests_.add();
      const std::string line = a.in.substr(0, a.in.find("\r\n"));
      a.out = render(line.starts_with("GET ")
                         ? config_.admin_response(line.substr(
                               4, line.find(' ', 4) - 4))
                         : AdminReply{"400 Bad Request",
                                      "only GET is supported\n"});
      continue;
    }
    close_admin(a.fd);
    return;
  }
  while (a.out_pos < a.out.size()) {
    const ssize_t n = ::send(a.fd, a.out.data() + a.out_pos,
                             a.out.size() - a.out_pos, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) {
        loop_.mod(a.fd, EPOLLOUT, &a);
        return;
      }
      break;
    }
    a.out_pos += static_cast<std::size_t>(n);
  }
  close_admin(a.fd);  // Connection: close — one exchange per connection
}

void Acceptor::close_admin(int fd) {
  ::close(fd);
  admin_conns_.erase(fd);
}

}  // namespace webppm::net
