// Shared declarations of the ledger benchmark (see README.md).
//
// host.cpp    — pinning, host facts, clocks, kernel counters.
// replay.cpp  — workloads, the serving deployments, the closed-loop load
//               generator, in-process reference answers, one replay pass.
// layers.cpp  — the traced run's in-process replays of each layer.
// main.cpp    — command line, run loop, aggregation, checks, JSON output.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "net/wire.hpp"
#include "serve/model_server.hpp"
#include "trace/record.hpp"

namespace ledger {

using namespace webppm;

// ---------------------------------------------------------------------------
// host.cpp

std::uint64_t now_ns();          ///< steady clock
std::uint64_t process_cpu_ns();  ///< user + sys, every thread of the process
std::uint64_t thread_cpu_ns();   ///< calling thread only

/// Effective parallelism of the host: how many times more work 4 busy
/// threads finish than one in the same wall time. Runs in a forked child
/// so the parent is still single-threaded and unpinned.
double probe_parallelism();

/// Pins the whole process (it must not have started threads yet) to one
/// CPU of its allowed set — the highest-numbered one. Returns that CPU,
/// or -1 when pinning failed.
int pin_to_one_cpu();

/// A fixed register-only loop, timed: tracks host speed drift.
double calib_ms();

/// Seconds the CPU this thread runs on spent stolen by the hypervisor
/// and idle, from /proc/stat (USER_HZ resolution).
struct CpuTicks {
  double steal_s = 0;
  double idle_s = 0;
};
CpuTicks cpu_ticks();

double peak_rss_mb();
std::uint64_t thread_page_faults();  ///< minor + major, calling thread

/// Kernel CPU time of one thread of this process, from schedstat.
std::uint64_t task_cpu_ns(pid_t tid);
std::vector<pid_t> list_tasks();

/// A perf software counter (context switches) on this process, counting
/// every thread created after it opened. Falls back to getrusage when
/// perf_event_open is refused; source() says which one counted.
class ContextSwitches {
 public:
  ContextSwitches();
  ~ContextSwitches();
  ContextSwitches(const ContextSwitches&) = delete;
  ContextSwitches& operator=(const ContextSwitches&) = delete;
  std::uint64_t read() const;
  const char* source() const { return fd_ >= 0 ? "perf" : "rusage"; }

 private:
  int fd_ = -1;
};

double median(std::vector<double> v);
/// Nearest-rank percentile (q in [0, 1]) of an unsorted sample.
double percentile(std::vector<double> v, double q);

// ---------------------------------------------------------------------------
// replay.cpp

struct WorkloadSpec {
  std::string name;
  bool routed = false;   ///< PredictRouter over a 2-shard ShardSupervisor
  bool online = false;   ///< scoreboard armed + OnlineTrainer attached
  bool ucb = false;      ///< ucb-like stream (else nasa-like)
  std::size_t connections = 2;
  std::size_t batch = 0;  ///< 0 = v1 one-click frames, else v2 batch size
  core::ModelSpec spec;
  std::uint32_t train_days = 7;
  std::uint32_t replay_days = 1;
  double scale = 2.0;  ///< client population multiplier of the profile
};

/// nullptr for an unknown name.
const WorkloadSpec* find_workload(const std::string& name);

/// One connection's share of the replay, pre-encoded.
struct ConnPlan {
  std::vector<net::WireRequest> reqs;       ///< in send order
  std::vector<std::uint8_t> bytes;          ///< every request frame
  std::vector<std::uint32_t> frame_off;     ///< frames + 1 offsets
  std::vector<std::uint32_t> frame_first;   ///< frames + 1 request offsets
  std::vector<std::uint32_t> frame_day;     ///< replay day of each frame
  std::size_t frames() const { return frame_day.size(); }
  /// The requests of frame `f` as ModelServer consumes them.
  void frame_requests(std::size_t f, std::vector<trace::Request>& out) const;
};

/// The seeded input of one run: trace, training window and replay plan.
struct Stream {
  trace::Trace trace;
  std::vector<ConnPlan> conns;
  std::vector<TimeSec> boundaries;  ///< publish points between replay days
  std::uint64_t queries = 0;
  /// Global request index of each (client, per-client sequence) — lets a
  /// server-side observer tie a request to its client span.
  std::vector<std::uint32_t> client_first;  ///< per client, into `order`
  std::vector<std::uint32_t> order;         ///< request ids, client-grouped
};

Stream make_stream(const WorkloadSpec& w, std::uint64_t seed);

/// What the answers of one replay add up to (a pure function of the
/// answer bytes, so identical across passes and runs of one seed).
struct AnswerSummary {
  std::vector<std::uint64_t> digests;  ///< per connection, FNV-1a of frames
  std::uint64_t ok = 0;                ///< kOk answers
  std::uint64_t answers = 0;
  std::uint64_t hits = 0;
  std::uint64_t scored = 0;
  bool decoded = true;
  double hit_ratio() const {
    return scored == 0 ? 0.0 : double(hits) / double(scored);
  }
};

/// The answers the deployment must give, computed in process: ModelServer
/// + the wire response encoders on the same snapshot (click workloads), or
/// a twin ModelServer + OnlineTrainer published at the same boundaries.
AnswerSummary reference_answers(const WorkloadSpec& w, const Stream& s);

/// Options of one pass.
struct PassOptions {
  bool traced = false;
  std::string dir;             ///< scratch directory for snapshot stores
};

/// Everything one cold setup + replay measured.
struct PassResult {
  std::string error;
  double setup_s = 0;
  double serve_wall_s = 0;
  double serve_cpu_s = 0;
  std::uint64_t ctx_switches = 0;
  std::vector<double> rtt_us;       ///< one per frame
  std::vector<double> publish_ms;   ///< one per publish
  std::uint64_t snapshot_bytes = 0;
  std::uint64_t frames = 0;
  AnswerSummary answers;
  // Program counters, read by their /metrics names.
  std::uint64_t cluster_retries = 0;
  std::uint64_t cluster_give_ups = 0;
  std::uint64_t learn_dropped = 0;
  // Traced only.
  double client_cpu_s = 0;          ///< load-generator threads
  std::map<std::string, double> role_cpu_s;  ///< server/router/trainer/other
  double inbound_us = 0;            ///< mean, client send done -> entry
  double outbound_us = 0;           ///< mean, entry -> answer received
  CpuTicks cpu;                     ///< pinned CPU during the serve phase
};

PassResult run_pass(const WorkloadSpec& w, const Stream& s,
                    const AnswerSummary& ref, const PassOptions& opt);

// ---------------------------------------------------------------------------
// layers.cpp

/// The traced run's in-process rows: each layer replayed alone on the
/// workload's stream, plus the publish path split into public calls on a
/// twin trainer. Values keyed by per-layer metric name.
std::map<std::string, double> measure_layers(const WorkloadSpec& w,
                                             const Stream& s,
                                             const std::string& dir);

}  // namespace ledger
