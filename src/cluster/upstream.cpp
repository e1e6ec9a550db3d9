#include "cluster/upstream.hpp"

#include <chrono>
#include <thread>

#include "fault/fault.hpp"
#include "net/load_client.hpp"
#include "net/wire.hpp"

namespace webppm::cluster {
namespace {

using net::now_ms;
using net::OwnedFd;

/// Is this frame the shard's v1 kRetryLater shed answer? (The shed path
/// refuses a frame *before* processing any query in it, so it is the one
/// response status that is always safe to retry.)
bool is_shed_frame(const std::vector<std::uint8_t>& frame) {
  const auto body =
      std::span<const std::uint8_t>(frame).subspan(net::kFrameHeaderBytes);
  if (net::frame_version(body) != net::kWireVersion) return false;
  net::WireResponse resp;
  return net::decode_response(body, resp).ok() &&
         resp.status == net::Status::kRetryLater;
}

}  // namespace

RetryBudget::RetryBudget(std::size_t slots, obs::MetricsRegistry* metrics)
    : free_(slots == 0 ? 1 : slots),
      waits_(obs::attached_or_owned(metrics, own_metrics_)
                 .counter("webppm_cluster_retry_budget_waits_total")) {}

bool RetryBudget::acquire(const std::atomic<bool>& abort, bool* waited) {
  if (waited != nullptr) *waited = false;
  std::unique_lock lk(mu_);
  bool counted = false;
  while (free_ == 0) {
    if (!counted) {
      counted = true;
      waits_.add();
      if (waited != nullptr) *waited = true;
    }
    if (abort.load(std::memory_order_acquire)) return false;
    cv_.wait_for(lk, std::chrono::milliseconds(20));
  }
  --free_;
  return true;
}

void RetryBudget::release() {
  {
    std::lock_guard lk(mu_);
    ++free_;
  }
  cv_.notify_one();
}

Upstream::Upstream(UpstreamConfig config, RetryBudget* budget,
                   const std::atomic<bool>* abort, ClusterInstruments* ins)
    : config_(std::move(config)), budget_(budget), abort_(abort), ins_(ins) {
  if (config_.max_attempts == 0) config_.max_attempts = 1;
  if (config_.breaker_threshold == 0) config_.breaker_threshold = 1;
  if (config_.breaker_retry_ms == 0) config_.breaker_retry_ms = 1;
}

Upstream::~Upstream() = default;

void Upstream::bump(std::atomic<std::uint64_t>& exact, obs::Counter* mirror,
                    std::uint64_t n) {
  exact.fetch_add(n, std::memory_order_relaxed);
  if (mirror != nullptr) mirror->add(n);
}

bool Upstream::admit(std::uint64_t deadline_ms, std::string* error) {
  std::unique_lock lk(mu_);
  for (;;) {
    if (abort_ != nullptr && abort_->load(std::memory_order_acquire)) {
      *error = "router stopping";
      return false;
    }
    if (now_ms() >= deadline_ms) {
      *error = "shard " + config_.endpoint.host + ":" +
               std::to_string(config_.endpoint.port) +
               " unavailable within deadline";
      return false;
    }
    if (admitting_) {
      if (!breaker_open_) break;
      const std::uint64_t now = now_ms();
      if (now >= next_trial_ms_) {
        // This thread becomes the half-open trial; the next one is
        // admitted a breaker_retry_ms later if we fail.
        next_trial_ms_ = now + config_.breaker_retry_ms;
        break;
      }
    }
    cv_.wait_for(lk, std::chrono::milliseconds(20));
  }
  ++inflight_io_;
  return true;
}

void Upstream::leave_io(AttemptOutcome outcome) {
  std::lock_guard lk(mu_);
  --inflight_io_;
  switch (outcome) {
    case AttemptOutcome::kOk:
      consecutive_failures_ = 0;
      if (breaker_open_) {
        breaker_open_ = false;
        bump(counters_.breaker_closes,
             ins_ != nullptr ? ins_->breaker_closes : nullptr);
      }
      break;
    case AttemptOutcome::kRetryLater:
      // The shard is alive and answering (it chose to shed); not a
      // breaker-relevant failure.
      break;
    default:
      if (++consecutive_failures_ >= config_.breaker_threshold &&
          !breaker_open_) {
        breaker_open_ = true;
        next_trial_ms_ = now_ms() + config_.breaker_retry_ms;
        bump(counters_.breaker_opens,
             ins_ != nullptr ? ins_->breaker_opens : nullptr);
      }
      break;
  }
  cv_.notify_all();
}

Upstream::AttemptOutcome Upstream::attempt(
    std::span<const std::uint8_t> frame, std::uint32_t max_resp_frame_bytes,
    std::vector<std::uint8_t>& resp, std::string* error) {
  OwnedFd fd;
  {
    std::lock_guard lk(mu_);
    if (!idle_.empty()) {
      fd = std::move(idle_.back());
      idle_.pop_back();
    }
  }
  if (!fd.valid()) {
    if (WEBPPM_FAULT_INJECT("cluster.upstream.connect")) {
      *error = "injected connect failure";
      bump(counters_.connect_failures,
           ins_ != nullptr ? ins_->connect_failures : nullptr);
      return AttemptOutcome::kConnectFailed;
    }
    fd = net::connect_to(config_.endpoint.host, config_.endpoint.port,
                         config_.io_timeout_ms, error);
    if (!fd.valid()) {
      bump(counters_.connect_failures,
           ins_ != nullptr ? ins_->connect_failures : nullptr);
      return AttemptOutcome::kConnectFailed;
    }
    bump(counters_.connects, nullptr);
  }
  if (WEBPPM_FAULT_INJECT("cluster.upstream.send")) {
    // Injected send failure *before any byte leaves*: the shard never saw
    // the frame, so the retry cannot double-feed a session — the property
    // the chaos gate's byte-identity check rests on.
    *error = "injected send failure";
    bump(counters_.send_failures,
         ins_ != nullptr ? ins_->send_failures : nullptr);
    return AttemptOutcome::kSendFailed;
  }
  if (!net::send_all(fd.get(), frame.data(), frame.size(), error)) {
    // A pooled socket the shard closed while idle surfaces here (EPIPE);
    // the frame never reached the application, so this too retries clean.
    bump(counters_.send_failures,
         ins_ != nullptr ? ins_->send_failures : nullptr);
    return AttemptOutcome::kSendFailed;
  }
  if (!net::read_frame(fd.get(), max_resp_frame_bytes, resp, error)) {
    bump(counters_.read_failures,
         ins_ != nullptr ? ins_->read_failures : nullptr);
    return AttemptOutcome::kReadFailed;
  }
  if (is_shed_frame(resp)) {
    // The shard sheds by answering kRetryLater and closing; drop the
    // socket and report the retryable outcome.
    *error = "shard shed the frame (retry-later)";
    bump(counters_.retry_later,
         ins_ != nullptr ? ins_->retry_later : nullptr);
    return AttemptOutcome::kRetryLater;
  }
  // Healthy exchange: return the socket to the pool for the next lease.
  {
    std::lock_guard lk(mu_);
    if (admitting_ && idle_.size() < config_.max_idle) {
      idle_.push_back(std::move(fd));
    }
  }
  return AttemptOutcome::kOk;
}

bool Upstream::round_trip(std::span<const std::uint8_t> frame,
                          std::uint32_t max_resp_frame_bytes,
                          std::vector<std::uint8_t>& resp,
                          std::string* error) {
  std::uint64_t seq;
  {
    std::lock_guard lk(mu_);
    seq = seed_sequence_++;
  }
  net::Backoff backoff(config_.backoff, config_.seed ^ (seq * 0x9e3779b9ull));
  const std::uint64_t deadline = now_ms() + config_.admit_wait_ms;
  std::string err;
  static const std::atomic<bool> kNeverAbort{false};
  const std::atomic<bool>& abort =
      abort_ != nullptr ? *abort_ : kNeverAbort;

  for (std::size_t attempt_no = 0;; ++attempt_no) {
    if (!admit(deadline, &err)) break;
    AttemptOutcome out =
        attempt(frame, max_resp_frame_bytes, resp, &err);
    leave_io(out);
    if (out == AttemptOutcome::kOk) {
      bump(counters_.round_trips, nullptr);
      if (error != nullptr) error->clear();
      return true;
    }
    if (attempt_no + 1 >= config_.max_attempts) {
      err += " (after " + std::to_string(attempt_no + 1) + " attempts)";
      break;
    }
    // Retry phase: bounded by the shared budget so a shard outage queues
    // instead of storming, then the backoff sleep.
    if (budget_ != nullptr && !budget_->acquire(abort)) {
      err = "router stopping";
      break;
    }
    std::this_thread::sleep_for(
        std::chrono::milliseconds(backoff.next_delay_ms()));
    if (budget_ != nullptr) budget_->release();
    bump(counters_.retries, ins_ != nullptr ? ins_->retries : nullptr);
  }
  bump(counters_.give_ups, ins_ != nullptr ? ins_->give_ups : nullptr);
  if (error != nullptr) *error = err;
  return false;
}

void Upstream::quiesce() {
  std::unique_lock lk(mu_);
  admitting_ = false;
  // Wait out in-flight IO: once this returns, no frame of ours is
  // mid-socket, so the shard's own drain (PR 5) flushes everything it
  // owes us before the restart.
  cv_.wait(lk, [this] { return inflight_io_ == 0; });
  idle_.clear();  // the restarted server would RST these anyway
  if (ins_ != nullptr && ins_->quiesces != nullptr) ins_->quiesces->add(1);
}

void Upstream::readmit() {
  bool closed = false;
  {
    std::lock_guard lk(mu_);
    admitting_ = true;
    closed = breaker_open_;
    breaker_open_ = false;
    consecutive_failures_ = 0;
  }
  cv_.notify_all();
  if (closed) {
    bump(counters_.breaker_closes,
         ins_ != nullptr ? ins_->breaker_closes : nullptr);
  }
  if (ins_ != nullptr && ins_->readmits != nullptr) ins_->readmits->add(1);
}

bool Upstream::admitting() const {
  std::lock_guard lk(mu_);
  return admitting_;
}

bool Upstream::breaker_open() const {
  std::lock_guard lk(mu_);
  return breaker_open_;
}

void Upstream::note_probe(bool serving) {
  bool closed = false;
  {
    std::lock_guard lk(mu_);
    if (serving && breaker_open_) {
      breaker_open_ = false;
      consecutive_failures_ = 0;
      closed = true;
    }
  }
  if (closed) {
    bump(counters_.breaker_closes,
         ins_ != nullptr ? ins_->breaker_closes : nullptr);
    cv_.notify_all();
  }
}

}  // namespace webppm::cluster
