#include "net/event_loop.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <time.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace webppm::net {

void OwnedFd::reset(int fd) {
  if (fd_ >= 0) ::close(fd_);
  fd_ = fd;
}

bool set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0) return false;
  return ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

std::string errno_string() { return std::strerror(errno); }

void set_socket_timeout(int fd, int opt, std::uint64_t ms) {
  timeval tv{};
  tv.tv_sec = static_cast<time_t>(ms / 1000);
  tv.tv_usec = static_cast<suseconds_t>((ms % 1000) * 1000);
  ::setsockopt(fd, SOL_SOCKET, opt, &tv, sizeof tv);
}

std::string open_listener(const std::string& host, std::uint16_t port,
                          OwnedFd& out, std::uint16_t* bound_port) {
  OwnedFd fd(::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC,
                      0));
  if (!fd.valid()) return "socket: " + errno_string();
  const int one = 1;
  ::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    return "inet_pton " + host + ": invalid address";
  }
  if (::bind(fd.get(), reinterpret_cast<const sockaddr*>(&addr),
             sizeof addr) != 0) {
    return "bind " + host + ":" + std::to_string(port) + ": " +
           errno_string();
  }
  if (::listen(fd.get(), 128) != 0) return "listen: " + errno_string();
  sockaddr_in bound{};
  socklen_t len = sizeof bound;
  if (::getsockname(fd.get(), reinterpret_cast<sockaddr*>(&bound), &len) !=
      0) {
    return "getsockname: " + errno_string();
  }
  *bound_port = ntohs(bound.sin_port);
  out = std::move(fd);
  return {};
}

bool send_all(int fd, const void* data, std::size_t len,
              std::string* error) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  std::size_t done = 0;
  while (done < len) {
    const ssize_t n = ::send(fd, p + done, len - done, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (error != nullptr) *error = "send: " + errno_string();
      return false;
    }
    done += static_cast<std::size_t>(n);
  }
  return true;
}

std::uint64_t now_ms() {
  timespec ts{};
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000 +
         static_cast<std::uint64_t>(ts.tv_nsec) / 1000000;
}

EventLoop::EventLoop() {
  epoll_.reset(::epoll_create1(EPOLL_CLOEXEC));
  if (!epoll_.valid()) {
    error_ = "epoll_create1: " + errno_string();
    return;
  }
  wake_.reset(::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK));
  if (!wake_.valid()) {
    error_ = "eventfd: " + errno_string();
    return;
  }
  add(wake_.get(), EPOLLIN, wake_tag());
}

bool EventLoop::add(int fd, std::uint32_t events, void* data) {
  epoll_event ev{};
  ev.events = events;
  ev.data.ptr = data;
  return ::epoll_ctl(epoll_.get(), EPOLL_CTL_ADD, fd, &ev) == 0;
}

bool EventLoop::mod(int fd, std::uint32_t events, void* data) {
  epoll_event ev{};
  ev.events = events;
  ev.data.ptr = data;
  return ::epoll_ctl(epoll_.get(), EPOLL_CTL_MOD, fd, &ev) == 0;
}

void EventLoop::del(int fd) {
  ::epoll_ctl(epoll_.get(), EPOLL_CTL_DEL, fd, nullptr);
}

int EventLoop::wait(int timeout_ms, std::vector<epoll_event>& out) {
  if (out.size() < 64) out.resize(64);
  const int n = ::epoll_wait(epoll_.get(), out.data(),
                             static_cast<int>(out.size()), timeout_ms);
  return n < 0 ? 0 : n;  // EINTR and transient errors read as a timeout
}

void EventLoop::wake() {
  const std::uint64_t one = 1;
  // A full eventfd counter (impossible here) or EINTR both leave a wake
  // pending or delivered; nothing useful to do with the result.
  [[maybe_unused]] const ssize_t n =
      ::write(wake_.get(), &one, sizeof one);
}

void EventLoop::drain_wake() {
  std::uint64_t buf = 0;
  while (::read(wake_.get(), &buf, sizeof buf) > 0) {
  }
}

TimeoutWheel::TimeoutWheel(std::uint64_t granularity_ms, std::size_t slots,
                           std::uint64_t start_ms)
    : granularity_ms_(granularity_ms == 0 ? 1 : granularity_ms),
      slots_(slots == 0 ? 1 : slots),
      cursor_ms_(start_ms) {}

void TimeoutWheel::schedule(std::uint64_t key, std::uint64_t deadline_ms) {
  // Beyond-horizon deadlines park one full rotation out; the entry fires
  // early, the owner sees the real deadline is still ahead and re-arms.
  const std::uint64_t horizon =
      cursor_ms_ + granularity_ms_ * (slots_.size() - 1);
  const std::uint64_t at = deadline_ms > horizon ? horizon : deadline_ms;
  slots_[slot_of(at)].push_back(key);
  ++pending_;
}

void TimeoutWheel::advance(std::uint64_t now_ms,
                           const std::function<void(std::uint64_t)>& cb) {
  if (now_ms <= cursor_ms_) return;
  std::uint64_t steps = (now_ms - cursor_ms_) / granularity_ms_;
  if (steps == 0) return;
  if (steps > slots_.size()) steps = slots_.size();
  std::size_t slot = slot_of(cursor_ms_);
  for (std::uint64_t i = 0; i < steps; ++i) {
    auto& bucket = slots_[slot];
    // cb may schedule() into any slot, including this one (a re-armed
    // deadline in the past parks at the cursor); swap the bucket out first
    // so the iteration only sees entries due this tick.
    std::vector<std::uint64_t> due;
    due.swap(bucket);
    pending_ -= due.size();
    for (const std::uint64_t key : due) cb(key);
    slot = (slot + 1) % slots_.size();
  }
  cursor_ms_ += steps * granularity_ms_;
}

int TimeoutWheel::next_timeout_ms(std::uint64_t now_ms) const {
  if (pending_ == 0) return -1;
  std::size_t slot = slot_of(cursor_ms_);
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    if (!slots_[(slot + i) % slots_.size()].empty()) {
      const std::uint64_t fire_ms = cursor_ms_ + (i + 1) * granularity_ms_;
      return fire_ms <= now_ms
                 ? 0
                 : static_cast<int>(fire_ms - now_ms);
    }
  }
  return -1;
}

}  // namespace webppm::net
