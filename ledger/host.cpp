#include <dirent.h>
#include <linux/perf_event.h>
#include <sched.h>
#include <sys/resource.h>
#include <sys/syscall.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <fstream>
#include <string>
#include <thread>

#include "ledger.hpp"

namespace ledger {
namespace {

std::uint64_t clock_ns(clockid_t id) {
  timespec ts{};
  ::clock_gettime(id, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

/// A register-only loop the compiler cannot fold: `n` rounds of an LCG.
std::uint64_t spin(std::uint64_t n, std::uint64_t x) {
  for (std::uint64_t i = 0; i < n; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    asm volatile("" : "+r"(x));
  }
  return x;
}

double timed_spin_ms(std::size_t threads, std::uint64_t rounds) {
  const std::uint64_t t0 = now_ns();
  std::vector<std::thread> pool;
  std::atomic<std::uint64_t> sink{0};
  for (std::size_t i = 0; i < threads; ++i) {
    pool.emplace_back([&, i] { sink += spin(rounds, i + 1); });
  }
  for (auto& t : pool) t.join();
  return double(now_ns() - t0) / 1e6;
}

}  // namespace

std::uint64_t now_ns() { return clock_ns(CLOCK_MONOTONIC); }
std::uint64_t process_cpu_ns() { return clock_ns(CLOCK_PROCESS_CPUTIME_ID); }
std::uint64_t thread_cpu_ns() { return clock_ns(CLOCK_THREAD_CPUTIME_ID); }

double probe_parallelism() {
  int fds[2];
  if (::pipe(fds) != 0) return 0.0;
  const pid_t child = ::fork();
  if (child == 0) {
    ::close(fds[0]);
    constexpr std::uint64_t kRounds = 20'000'000;
    const double one = timed_spin_ms(1, kRounds);
    const double four = timed_spin_ms(4, kRounds);
    const double parallelism = four > 0 ? 4.0 * one / four : 0.0;
    const ssize_t n = ::write(fds[1], &parallelism, sizeof parallelism);
    ::_exit(n == sizeof parallelism ? 0 : 1);
  }
  ::close(fds[1]);
  double parallelism = 0.0;
  if (child > 0) {
    if (::read(fds[0], &parallelism, sizeof parallelism) !=
        sizeof parallelism) {
      parallelism = 0.0;
    }
    int status = 0;
    ::waitpid(child, &status, 0);
  }
  ::close(fds[0]);
  return parallelism;
}

int pin_to_one_cpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (::sched_getaffinity(0, sizeof allowed, &allowed) != 0) return -1;
  int cpu = -1;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &allowed)) cpu = c;
  }
  if (cpu < 0) return -1;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  if (::sched_setaffinity(0, sizeof one, &one) != 0) return -1;
  return cpu;
}

double calib_ms() {
  const std::uint64_t t0 = now_ns();
  volatile std::uint64_t sink = spin(50'000'000, 7);
  (void)sink;
  return double(now_ns() - t0) / 1e6;
}

CpuTicks cpu_ticks() {
  const std::string want = "cpu" + std::to_string(::sched_getcpu());
  std::ifstream in("/proc/stat");
  std::string name;
  while (in >> name) {
    if (name == want) {
      // user nice system idle iowait irq softirq steal
      std::uint64_t v[8] = {};
      for (auto& x : v) in >> x;
      const double hz = double(::sysconf(_SC_CLK_TCK));
      return {double(v[7]) / hz, double(v[3] + v[4]) / hz};
    }
    in.ignore(1 << 12, '\n');
  }
  return {};
}

double peak_rss_mb() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return double(ru.ru_maxrss) / 1024.0;
}

std::uint64_t thread_page_faults() {
  rusage ru{};
  ::getrusage(RUSAGE_THREAD, &ru);
  return static_cast<std::uint64_t>(ru.ru_minflt + ru.ru_majflt);
}

std::uint64_t task_cpu_ns(pid_t tid) {
  std::ifstream in("/proc/self/task/" + std::to_string(tid) + "/schedstat");
  std::uint64_t ns = 0;
  in >> ns;
  return ns;
}

std::vector<pid_t> list_tasks() {
  std::vector<pid_t> tids;
  DIR* d = ::opendir("/proc/self/task");
  if (d == nullptr) return tids;
  while (const dirent* e = ::readdir(d)) {
    if (e->d_name[0] >= '0' && e->d_name[0] <= '9') {
      tids.push_back(static_cast<pid_t>(std::atoi(e->d_name)));
    }
  }
  ::closedir(d);
  std::sort(tids.begin(), tids.end());
  return tids;
}

ContextSwitches::ContextSwitches() {
  perf_event_attr a;
  std::memset(&a, 0, sizeof a);
  a.type = PERF_TYPE_SOFTWARE;
  a.size = sizeof a;
  a.config = PERF_COUNT_SW_CONTEXT_SWITCHES;
  a.inherit = 1;
  a.exclude_hv = 1;
  fd_ = static_cast<int>(::syscall(SYS_perf_event_open, &a, 0, -1, -1, 0));
}

ContextSwitches::~ContextSwitches() {
  if (fd_ >= 0) ::close(fd_);
}

std::uint64_t ContextSwitches::read() const {
  if (fd_ >= 0) {
    std::uint64_t v = 0;
    if (::read(fd_, &v, sizeof v) == sizeof v) return v;
  }
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<std::uint64_t>(ru.ru_nvcsw + ru.ru_nivcsw);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  const std::size_t rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  const std::size_t k = std::min(v.size() - 1, rank == 0 ? 0 : rank - 1);
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k),
                   v.end());
  return v[k];
}

}  // namespace ledger
