// Socket-to-socket serving benchmark.
//
//   e2e_bench --workload NAME --seed N --seconds S --trace 0|1
//             [--commit ID] [--corrupt-reference]
//   e2e_bench --workload NAME --setup-only
//
// One process stands up a real serve::Fleet behind a real net::NetServer
// and drives it over loopback OSA1 sockets from a single generator thread
// (4 connections). Every reply is checked against in-process inference on
// the same input; any mismatch makes the run exit 1.
//
// Placement: the server runs on CPUs 1..WorkloadSpec::server_cpus and the
// generator busy-polls on CPU 0. SCHED_IDLE keeper threads keep the server
// CPUs from halting (see CpuKeepers). Their CPU time and the generator's
// are excluded from the serving CPU figure. With more than one server CPU
// the reactor and each worker get a CPU of their own (place_server_threads).
// The server runs with single-threaded kernels (single_threaded_kernels).
//
// --trace 0 measures the end-to-end metrics. After a warm-up the run is
// kRounds rounds of {nominal slice, ladder probe, closed-loop slice}, so
// every figure is sampled across the whole run and pooled over it:
//   setup_s          median over fresh processes (--setup-only), each timed
//                    from spawn until a fresh connection got its first pong:
//                    process start, model build, Fleet, model registration
//                    (prepack, quantization), NetServer start
//   latency_p50_ms   socket-to-socket, from each request's due time, at the
//                    workload's fixed nominal open-loop Poisson rate, over
//                    every nominal request of the run
//   peak_rps         closed-loop correct replies/s, 8 requests outstanding,
//                    over the steady part of every closed-loop slice
//   cpu_ms_per_req   serving-side process CPU per correct reply at the
//                    nominal rate, over every nominal slice
//   ok_frac          1 - failed_frac, failed = error + shed + missing +
//                    mismatch over every phase
//   peak_rss_mb      peak resident memory through set-up and the first
//                    nominal slice
// Printed with them, but left out of the JSON result:
//   latency_tail_ms  the nominal requests' highest percentile with >= 10
//                    samples beyond it over the whole run (percentile and
//                    sample count printed). On a shared virtualized host it
//                    counts how many host stalls a run happened to meet, so
//                    it swings far more from run to run than any bound
//                    that could still catch a regression.
//   slo_rps          offered rate of the highest rung of the workload's
//                    fixed ladder that passes (see Ladder); its pass rule
//                    is a p99 within the latency limit, so it inherits the
//                    tail's swings.
//   failed_frac      0 in a healthy run, so it cannot be judged as a share
//                    of its parent's value; the JSON carries ok_frac.
//   max_logit_err    0 on double lanes; enforced through `correct`.
//
// --trace 1 is a separate run that produces the per-layer metrics: the
// nominal phase alternates untraced and traced chunks (the difference is
// obs.trace_overhead_frac), program counters are read around it, and then
// every layer's public functions are replayed directly on the workload's
// inputs. All spans come from the benchmark's files (spans.hpp).
#include <dirent.h>
#include <fcntl.h>
#include <pthread.h>
#include <sched.h>
#include <signal.h>
#include <spawn.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <iterator>
#include <limits>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "loadgen.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "obs/trace.hpp"
#include "replay.hpp"
#include "serve/fleet.hpp"
#include "spans.hpp"
#include "stats.hpp"
#include "tensor/buffer_pool.hpp"
#include "tensor/kernels/gemm_int16.hpp"
#include "tensor/kernels/thread_pool.hpp"
#include "workloads.hpp"

#ifndef E2E_BUILD_TYPE
#define E2E_BUILD_TYPE "unknown"
#endif

namespace {

using namespace onesa;
using e2e::median;
using e2e::Outcome;
using e2e::PhaseResult;
using e2e::quantile;
using e2e::Record;

constexpr std::size_t kConnections = 4;
constexpr std::size_t kClosedDepth = 2;  // per connection: 8 outstanding
// Shares of --seconds: warm-up, then kRounds x {nominal, rung, closed}. The
// ladder settles in at most 5 decisions x 3 probes, one probe per round, so
// kRounds = 15 always finishes it; once it has, rounds skip the probe.
constexpr std::size_t kRounds = 15;
constexpr double kWarmShare = 0.04;
constexpr double kNominalShare = 0.032;
constexpr double kRungShare = 0.025;
constexpr double kClosedShare = 0.024;
// Share of each closed-loop slice spent filling the pipeline before its
// throughput window opens.
constexpr double kClosedSettle = 0.25;
constexpr double kInf = std::numeric_limits<double>::infinity();

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool corrupt_reference = false;
  bool setup_only = false;
  std::string commit = "unknown";
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "e2e_bench: " << why
            << "\nusage: e2e_bench --workload NAME --seed N --seconds S --trace 0|1"
               " [--commit ID] [--corrupt-reference]\n"
               "       e2e_bench --workload NAME --setup-only\n";
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + k);
      return argv[++i];
    };
    if (k == "--workload") a.workload = value();
    else if (k == "--seed") a.seed = std::stoull(value());
    else if (k == "--seconds") a.seconds = std::stod(value());
    else if (k == "--trace") a.trace = value() != "0";
    else if (k == "--commit") a.commit = value();
    else if (k == "--corrupt-reference") a.corrupt_reference = true;
    else if (k == "--setup-only") a.setup_only = true;
    else usage("unknown argument " + k);
  }
  if (e2e::find_workload(a.workload) == nullptr) usage("unknown workload '" + a.workload + "'");
  if (!(a.seconds > 0.0) || a.seconds > 600.0) usage("--seconds out of range");
  return a;
}

// ----------------------------------------------------------------- statistics

/// Highest percentile with at least 10 samples beyond it.
struct Tail {
  double value = 0.0;
  double percentile = 100.0;
  std::size_t samples = 0;
};

Tail tail_of(std::vector<double> v) {
  Tail t;
  t.samples = v.size();
  if (v.empty()) return t;
  std::sort(v.begin(), v.end());
  const std::size_t idx = v.size() > 10 ? v.size() - 11 : v.size() - 1;
  t.value = v[idx];
  t.percentile = 100.0 * static_cast<double>(idx + 1) / static_cast<double>(v.size());
  return t;
}

/// Latency of every sent request in send order; failed or unanswered
/// requests count as infinitely late (they miss any limit).
std::vector<double> latencies(const PhaseResult& p) {
  std::vector<double> v;
  v.reserve(p.records.size());
  for (const Record& r : p.records) v.push_back(r.outcome == Outcome::kOk ? r.latency_ms() : kInf);
  return v;
}

// ------------------------------------------------------------------ accounting

struct Accounting {
  std::size_t sent = 0, ok = 0, shed = 0, error = 0, mismatch = 0, missing = 0;
  std::uint64_t duplicates = 0, strays = 0;
  std::size_t failed() const { return shed + error + mismatch + missing; }

  void add(const PhaseResult& p) {
    sent += p.records.size();
    duplicates += p.duplicates;
    strays += p.strays;
    for (const Record& r : p.records) {
      switch (r.outcome) {
        case Outcome::kOk: ++ok; break;
        case Outcome::kShed: ++shed; break;
        case Outcome::kError: ++error; break;
        case Outcome::kMismatch: ++mismatch; break;
        case Outcome::kPending: ++missing; break;
      }
    }
  }
};

std::string fmt(double v, int precision = 4) {
  if (std::isinf(v)) return "inf";
  std::ostringstream os;
  os.setf(std::ios::fixed);
  os.precision(precision);
  os << v;
  return os.str();
}

/// One line per phase: the honest accounting plus generator lateness, so a
/// stalled sender cannot flatter the latency figures.
void print_phase(const std::string& name, double offered_rps, const PhaseResult& p,
                 Accounting& total) {
  Accounting a;
  a.add(p);
  total.add(p);
  std::vector<double> lag;
  lag.reserve(p.records.size());
  for (const Record& r : p.records) lag.push_back(r.lag_ms());
  const std::vector<double> lat = latencies(p);
  const Tail t = tail_of(lat);
  std::printf(
      "  %-18s offered %9s rps  sent %7zu ok %7zu shed %zu error %zu mismatch %zu missing %zu "
      "dup %llu stray %llu | lag p50 %s p99 %s max %s ms | p50 %s p%.2f %s ms%s\n",
      name.c_str(), offered_rps > 0 ? fmt(offered_rps, 1).c_str() : "closed", a.sent, a.ok,
      a.shed, a.error, a.mismatch, a.missing, static_cast<unsigned long long>(a.duplicates),
      static_cast<unsigned long long>(a.strays), fmt(quantile(lag, 0.5), 3).c_str(),
      fmt(quantile(lag, 0.99), 3).c_str(),
      fmt(lag.empty() ? 0.0 : *std::max_element(lag.begin(), lag.end()), 3).c_str(),
      fmt(quantile(lat, 0.5), 3).c_str(), t.percentile, fmt(t.value, 3).c_str(),
      p.stopped_early ? " (stopped: backlog)" : "");
}

/// Restrict the calling thread (and threads it creates later) to CPUs
/// [first, last]. The server is set up on CPUs 1.. and the generator then
/// moves to CPU 0, so its busy polling never competes with serving threads.
void pin_to(unsigned first, unsigned last) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (unsigned c = first; c <= last; ++c) CPU_SET(c, &set);
  sched_setaffinity(0, sizeof(set), &set);
}

/// Wall time of a fixed scalar loop that shares no code with the program:
/// printed at the start and end of a run, so a comparison of two runs can
/// tell a host that ran slower from a program that did.
double host_probe_ms() {
  std::vector<double> ms;
  for (int rep = 0; rep < 3; ++rep) {
    const double t0 = e2e::monotonic_ms();
    volatile double x = 1.0;
    for (int i = 0; i < 10'000'000; ++i) x = x * 1.0000001 + 1e-9;
    ms.push_back(e2e::monotonic_ms() - t0);
  }
  return median(ms);
}

/// One SCHED_IDLE busy thread per server CPU. It runs only when no serving
/// thread is runnable there, so it takes no time from the server, but it
/// keeps the virtual CPU from halting: on a virtualized host, waking a
/// halted vCPU goes through the hypervisor and its delay lands in the
/// latency of whichever request caused the wake-up.
class CpuKeepers {
 public:
  CpuKeepers(unsigned first, unsigned last) {
    for (unsigned c = first; c <= last; ++c) {
      threads_.emplace_back([this, c] {
        pin_to(c, c);
        sched_param param{};
        pthread_setschedparam(pthread_self(), SCHED_IDLE, &param);
        while (!stop_.load(std::memory_order_relaxed)) {
        }
      });
      clocks_.emplace_back();
      pthread_getcpuclockid(threads_.back().native_handle(), &clocks_.back());
    }
  }
  ~CpuKeepers() {
    stop_.store(true);
    for (std::thread& t : threads_) t.join();
  }
  CpuKeepers(const CpuKeepers&) = delete;
  CpuKeepers& operator=(const CpuKeepers&) = delete;

  /// CPU time the keepers consumed so far (excluded from serving CPU).
  double cpu_ms() const {
    double total = 0.0;
    for (clockid_t id : clocks_) {
      timespec ts{};
      clock_gettime(id, &ts);
      total += static_cast<double>(ts.tv_sec) * 1e3 + static_cast<double>(ts.tv_nsec) * 1e-6;
    }
    return total;
  }

 private:
  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;
  std::vector<clockid_t> clocks_;
};

// ---------------------------------------------------------------- the server

/// Kernels run single-threaded inside each request: the two workers give
/// the parallelism. A GEMM fanned out over several threads waits for its
/// slowest part, so on a shared virtualized host one descheduled vCPU
/// stalls the whole request; measured here, per-request kernel threads made
/// latency and throughput both worse and noisier. Set before the kernel
/// thread pool first starts; set-up children inherit it.
void single_threaded_kernels() { setenv("ONESA_KERNEL_THREADS", "1", 1); }

serve::FleetConfig fleet_config() {
  serve::FleetConfig cfg;
  cfg.shards = 1;
  cfg.workers_per_shard = 2;
  cfg.accelerator.array.rows = 8;
  cfg.accelerator.array.cols = 8;
  cfg.accelerator.array.macs_per_pe = 4;
  cfg.accelerator.mode = ExecutionMode::kAnalytic;
  return cfg;
}

/// Thread ids of this process, ascending (thread ids grow with creation).
std::vector<pid_t> thread_ids() {
  std::vector<pid_t> ids;
  if (DIR* dir = opendir("/proc/self/task")) {
    while (const dirent* e = readdir(dir))
      if (e->d_name[0] != '.') ids.push_back(static_cast<pid_t>(std::atoi(e->d_name)));
    closedir(dir);
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

/// Threads in `now` that are not in `before` (both ascending).
std::vector<pid_t> started_since(const std::vector<pid_t>& before, const std::vector<pid_t>& now) {
  std::vector<pid_t> out;
  std::set_difference(now.begin(), now.end(), before.begin(), before.end(), std::back_inserter(out));
  return out;
}

void pin_thread(pid_t tid, unsigned cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  sched_setaffinity(tid, sizeof(set), &set);
}

struct Server {
  std::unique_ptr<serve::Fleet> fleet;
  std::unique_ptr<net::NetServer> server;
  std::vector<serve::ModelHandle> handles;
  double register_s = 0.0;
  std::vector<pid_t> fleet_threads;  // started by the Fleet, ascending
  std::vector<pid_t> net_threads;    // started by the NetServer

  ~Server() {
    if (server) server->stop();
    if (fleet) fleet->shutdown();
  }
};

/// Give the NetServer's reactor and each Fleet worker a CPU of its own in
/// [first, last]: the reactor on `first`, the workers (the first threads
/// the Fleet starts) round-robin over the rest. The keepers never let a server CPU go idle, so the kernel's idle
/// balancing never pulls a thread onto one: two workers that once woke on
/// the same CPU stayed stacked there for the whole run, halving closed-loop
/// throughput in some runs and not in others. Other Fleet threads (watchdog,
/// supervisor) keep the whole range. Returns the placement for the report.
std::string place_server_threads(const Server& s, unsigned first, unsigned last,
                                 std::size_t workers) {
  if (last <= first) return "all on cpu " + std::to_string(first);
  std::string out;
  for (pid_t tid : s.net_threads) {
    pin_thread(tid, first);
    out += "reactor->" + std::to_string(first) + " ";
  }
  for (std::size_t i = 0; i < workers && i < s.fleet_threads.size(); ++i) {
    const unsigned cpu = first + 1 + static_cast<unsigned>(i % (last - first));
    pin_thread(s.fleet_threads[i], cpu);
    out += "worker" + std::to_string(i) + "->" + std::to_string(cpu) + " ";
  }
  return out + "(" + std::to_string(s.fleet_threads.size()) + " fleet threads)";
}

/// Build, register, listen, and wait for the first pong on a fresh
/// connection: the set-up a user waits for before the first request.
std::unique_ptr<Server> set_up(const e2e::WorkloadSpec& spec) {
  auto s = std::make_unique<Server>();
  const std::vector<pid_t> before = thread_ids();
  s->fleet = std::make_unique<serve::Fleet>(fleet_config());
  for (const e2e::ServedModel& m : spec.models) {
    auto model = m.build();
    const double r0 = e2e::monotonic_ms();
    s->handles.push_back(s->fleet->register_model(m.name, std::move(model), m.options));
    s->register_s += (e2e::monotonic_ms() - r0) * 1e-3;
  }
  const std::vector<pid_t> with_fleet = thread_ids();
  s->fleet_threads = started_since(before, with_fleet);
  s->server = std::make_unique<net::NetServer>(*s->fleet, net::NetServerConfig{});
  s->server->start();
  s->net_threads = started_since(with_fleet, thread_ids());
  net::BlockingClient client;
  client.connect("127.0.0.1", s->server->port());
  const auto pong = client.ping(1);
  if (!pong || pong->type != net::FrameType::kPong) throw std::runtime_error("no pong from server");
  return s;
}

/// --setup-only: set up, report "ready <register_s>" once the first pong
/// arrived, then tear down. The parent times it from the spawn.
int setup_only(const e2e::WorkloadSpec& spec) {
  // Die with the parent, so a killed run leaves no set-up process behind.
  prctl(PR_SET_PDEATHSIG, SIGKILL);
  const std::unique_ptr<Server> s = set_up(spec);
  std::printf("ready %.9f\n", s->register_s);
  std::fflush(stdout);
  return 0;
}

struct ColdSetup {
  double setup_s = 0.0;
  double register_s = 0.0;
};

/// One cold set-up: spawn this program with --setup-only and time it from
/// the spawn until it reports ready, so process start, static
/// initialisation and first-touch page faults are all inside the figure.
ColdSetup cold_setup(const std::string& workload) {
  int fds[2];
  if (pipe2(fds, O_CLOEXEC) != 0) throw std::runtime_error("pipe2 failed");
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
  std::string a0 = "e2e_bench", a1 = "--workload", a2 = workload, a3 = "--setup-only";
  char* argv[] = {a0.data(), a1.data(), a2.data(), a3.data(), nullptr};
  pid_t pid = 0;
  const double t0 = e2e::monotonic_ms();
  // The spawned child resolves /proc/self/exe to this very program image.
  const int rc = posix_spawn(&pid, "/proc/self/exe", &actions, nullptr, argv, environ);
  posix_spawn_file_actions_destroy(&actions);
  close(fds[1]);
  if (rc != 0) {
    close(fds[0]);
    throw std::runtime_error("posix_spawn failed");
  }
  std::string line;
  char buf[256];
  double t1 = 0.0;
  for (;;) {
    const ssize_t n = read(fds[0], buf, sizeof(buf));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    line.append(buf, static_cast<std::size_t>(n));
    if (t1 == 0.0 && line.find('\n') != std::string::npos) t1 = e2e::monotonic_ms();
  }
  close(fds[0]);
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  if (t1 == 0.0 || line.rfind("ready ", 0) != 0 || !WIFEXITED(status) || WEXITSTATUS(status) != 0)
    throw std::runtime_error("cold set-up failed: " + line);
  return {(t1 - t0) * 1e-3, std::stod(line.substr(6))};
}

// ------------------------------------------------------------------- traffic

std::vector<e2e::Arrival> poisson(Rng& rng, double rate_rps, double duration_ms,
                                  std::size_t pool_size) {
  std::vector<e2e::Arrival> out;
  out.reserve(static_cast<std::size_t>(rate_rps * duration_ms * 1e-3 * 1.1) + 16);
  double t = 0.0;
  for (;;) {
    t += -std::log(1.0 - rng.uniform()) * 1000.0 / rate_rps;
    if (t >= duration_ms) break;
    out.push_back({t, static_cast<std::uint32_t>(rng.integer(0, static_cast<std::int64_t>(pool_size) - 1))});
  }
  return out;
}

/// Checks every reply against the pool's references.
struct Checker {
  const e2e::RequestPool* pool = nullptr;
  double max_logit_err = 0.0;  // vs the double forward
  std::size_t checked = 0;
  std::size_t mismatches = 0;

  bool operator()(std::uint32_t entry, const net::InferReply& reply) {
    ++checked;
    const tensor::Matrix& lane = pool->lane_ref[entry];
    const tensor::Matrix& dbl = pool->double_ref[entry];
    const tensor::Matrix& got = reply.logits;
    if (got.rows() != lane.rows() || got.cols() != lane.cols()) {
      ++mismatches;
      max_logit_err = kInf;
      return false;
    }
    bool exact = true;
    for (std::size_t i = 0; i < got.size(); ++i) {
      // Bit-exact: compare representations, not values (0.0 vs -0.0, NaN).
      exact = exact && std::memcmp(&got.at_flat(i), &lane.at_flat(i), sizeof(double)) == 0;
      max_logit_err = std::max(max_logit_err, std::fabs(got.at_flat(i) - dbl.at_flat(i)));
    }
    if (!exact) ++mismatches;
    return exact;
  }
};

/// Bisection over the workload's fixed ladder, one probe per round. A probe
/// passes when >= 99% of the requests it sent succeed within the latency
/// limit, the requests still in flight when sending stops are no more than
/// twice what the limit allows (no growing backlog), and the generator's p99
/// lateness stays within the limit. A rung is decided by the majority of up
/// to three probes: two agreeing probes settle it either way, so one burst
/// of host noise can neither sink nor lift the answer.
struct Ladder {
  const e2e::WorkloadSpec* spec = nullptr;
  int lo = -1;  // highest rung that passed
  int hi = static_cast<int>(e2e::kLadderRungs);  // lowest rung that failed
  int passes = 0, fails = 0;  // probes of the rung under decision
  std::size_t probes = 0;

  explicit Ladder(const e2e::WorkloadSpec& s) : spec(&s) {}
  bool done() const { return hi - lo <= 1; }
  double slo_rps() const { return spec->ladder_rps(lo); }

  void probe(e2e::LoadGenerator& gen, Rng& rng, double rung_ms, Accounting& acc) {
    const int mid = (lo + hi + 1) / 2;
    const double rate = spec->ladder_rps(mid);
    const double in_flight_cap = rate * spec->limit_ms * 1e-3;
    const PhaseResult p =
        gen.open_loop(poisson(rng, rate, rung_ms, spec->pool_size),
                      std::max(10000.0, 50.0 * spec->limit_ms),
                      // One more than the no-backlog test allows: reaching
                      // it fails the probe, so sending on only adds drain time.
                      static_cast<std::size_t>(2.0 * in_flight_cap + 8.0) + 1);
    ++probes;
    std::size_t within = 0;
    std::size_t in_flight_at_end = 0;
    std::vector<double> lag;
    lag.reserve(p.records.size());
    for (const Record& r : p.records) {
      if (r.outcome == Outcome::kOk && r.latency_ms() <= spec->limit_ms) ++within;
      if (r.outcome == Outcome::kPending || r.done_ms > p.duration_ms) ++in_flight_at_end;
      lag.push_back(r.lag_ms());
    }
    const bool meets = !p.records.empty() &&
                       static_cast<double>(within) >= 0.99 * static_cast<double>(p.records.size());
    const bool no_backlog =
        !p.stopped_early && static_cast<double>(in_flight_at_end) <= 2.0 * in_flight_cap + 8.0;
    const bool on_schedule = quantile(lag, 0.99) <= spec->limit_ms;
    const bool pass = meets && no_backlog && on_schedule;
    print_phase("ladder rung " + std::to_string(mid) + (pass ? " PASS" : " fail"), rate, p, acc);
    ++(pass ? passes : fails);
    if (passes == 2) lo = mid;
    if (fails == 2) hi = mid;
    if (passes == 2 || fails == 2) passes = fails = 0;
  }

  /// How the search ended, for the report.
  std::string verdict() const {
    if (!done()) return "UNFINISHED: slo_rps is only a lower bound";
    if (lo < 0) return "NO RUNG PASSED: slo_rps is the rate below the ladder";
    if (lo + 1 == static_cast<int>(e2e::kLadderRungs)) return "TOP RUNG PASSED: capacity may be higher";
    return "settled";
  }
};

// ---------------------------------------------------------------------- output

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void print_json(bool correct, const Accounting& acc, const std::vector<Metric>& metrics) {
  std::ostringstream os;
  os.precision(10);
  os << "{\"correct\": " << (correct ? "true" : "false") << ", \"attempted\": " << acc.sent
     << ", \"failed\": " << acc.failed() << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 1e12;
    os << (i ? ", " : "") << "\"" << metrics[i].name << "\": {\"value\": " << v
       << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  os << "}}";
  std::cout << os.str() << std::endl;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

/// Which end-to-end metric each per-layer metric should move, and on which
/// workload (mechanism) versus which it bypasses ("no change" predicted).
struct LayerRow {
  const char* prefix;
  const char* moves;
  const char* workloads;
};
constexpr LayerRow kLayerRows[] = {
    {"net.", "latency_p50_ms, cpu_ms_per_req, peak_rps", "front-door, ffn-int16 (bytes) / encoder"},
    {"serve.register_s", "setup_s", "all"},
    {"serve.", "latency_tail_ms, slo_rps; batching -> peak_rps", "front-door, ffn-int16 / encoder (solo)"},
    {"nn.", "latency_p50_ms, peak_rps", "encoder, ffn-int16 / front-door"},
    {"kernels.", "peak_rps, cpu_ms_per_req", "double: encoder; int16: ffn-int16 / front-door"},
    {"cpwl.", "latency_p50_ms", "ffn-int16 / front-door"},
    {"tensor.", "cpu_ms_per_req, latency_tail_ms", "front-door, ffn-int16 / -"},
    {"sim.", "none (MODELLED cycles; a host-only change leaves it unchanged)", "all"},
    {"obs.", "none", "all"},
    {"check.", "none (correctness)", "all"},
};

const LayerRow& layer_row(const std::string& name) {
  for (const LayerRow& row : kLayerRows)
    if (name.rfind(row.prefix, 0) == 0) return row;
  return kLayerRows[std::size(kLayerRows) - 1];
}

// ------------------------------------------------------------------------ main

int run(const Args& args) {
  const e2e::WorkloadSpec& spec = *e2e::find_workload(args.workload);
  const double probe_start_ms = host_probe_ms();
  const double budget_ms = args.seconds * 1e3;

  const unsigned cpus = std::thread::hardware_concurrency();
  const unsigned server_last = std::min<unsigned>(cpus - 1, spec.server_cpus);
  std::printf("host: nproc %u | int16 kernel %s | build %s | tracing compiled %s | workload %s | "
              "seed %llu | commit %s | mode %s | server cpus %s | kernel threads %zu\n",
              cpus, tensor::kernels::int16_kernel_name(), E2E_BUILD_TYPE,
              obs::tracing_compiled() ? "yes" : "no", spec.name.c_str(),
              static_cast<unsigned long long>(args.seed), args.commit.c_str(),
              args.trace ? "traced (per-layer)" : "end-to-end",
              cpus >= 2 ? ("1-" + std::to_string(server_last)).c_str() : "all",
              tensor::kernels::ThreadPool::instance().threads());
  if (cpus >= 2) pin_to(1, server_last);
  std::unique_ptr<CpuKeepers> keepers;
  if (cpus >= 2) keepers = std::make_unique<CpuKeepers>(1, server_last);

  // Cold set-ups in fresh processes, one after another on the server's
  // CPUs; then the set-up of the instance that serves the run.
  std::vector<double> setup_s, register_s;
  for (std::size_t i = 0; i < spec.setups; ++i) {
    const ColdSetup c = cold_setup(spec.name);
    setup_s.push_back(c.setup_s);
    register_s.push_back(c.register_s);
  }
  const std::unique_ptr<Server> server = set_up(spec);
  const std::string placement =
      cpus >= 2 ? place_server_threads(*server, 1, server_last, fleet_config().workers_per_shard)
                : "unpinned";
  std::printf("server threads: %s\n", placement.c_str());

  e2e::RequestPool pool = e2e::make_pool(spec, args.seed, server->handles);
  if (args.corrupt_reference) {
    for (tensor::Matrix& m : pool.lane_ref) m.at_flat(0) += 1e-9;
  }
  if (cpus >= 2) pin_to(0, 0);
  Checker checker;
  checker.pool = &pool;
  e2e::LoadGenerator gen(server->server->port(), kConnections, pool.requests,
                         [&checker](std::uint32_t e, const net::InferReply& r) { return checker(e, r); },
                         [&keepers] { return keepers ? keepers->cpu_ms() : 0.0; });

  Rng rng(args.seed ^ 0xA441'7A1Cu);
  const double grace_ms = std::max(5000.0, 50.0 * spec.limit_ms);
  Accounting acc;
  std::printf("phases (latency from due time; failed requests count as infinitely late):\n");
  const PhaseResult warm =
      gen.open_loop(poisson(rng, spec.nominal_rps, kWarmShare * budget_ms, spec.pool_size), grace_ms, SIZE_MAX);
  print_phase("warm-up", spec.nominal_rps, warm, acc);

  std::vector<Metric> metrics;
  if (!args.trace) {
    Ladder ladder(spec);
    std::uint64_t pick_state = args.seed;
    const auto next_entry = [&] {
      pick_state = pick_state * 6364136223846793005ULL + 1442695040888963407ULL;
      return static_cast<std::uint32_t>((pick_state >> 33) % spec.pool_size);
    };
    std::vector<double> nominal_lat;
    double nominal_cpu_ms = 0.0, closed_ms = 0.0;
    std::uint64_t nominal_ok = 0, closed_ok = 0;
    double rss_mb = 0.0;
    for (std::size_t round = 0; round < kRounds; ++round) {
      const PhaseResult nominal = gen.open_loop(
          poisson(rng, spec.nominal_rps, kNominalShare * budget_ms, spec.pool_size), grace_ms, SIZE_MAX);
      print_phase("nominal " + std::to_string(round), spec.nominal_rps, nominal, acc);
      const std::vector<double> lat = latencies(nominal);
      nominal_lat.insert(nominal_lat.end(), lat.begin(), lat.end());
      nominal_cpu_ms += nominal.end.serving_cpu_ms_since(nominal.start);
      nominal_ok += nominal.end.ok - nominal.start.ok;
      // Later phases push the generator's own bookkeeping (records of
      // overload rungs and closed-loop slices) into the high-water mark, so
      // the memory figure is taken while only set-up and nominal load ran.
      if (round == 0) rss_mb = peak_rss_mb();

      if (!ladder.done()) ladder.probe(gen, rng, kRungShare * budget_ms, acc);

      const PhaseResult closed = gen.closed_loop(kClosedDepth, kClosedShare * budget_ms,
                                                 kClosedSettle * kClosedShare * budget_ms,
                                                 grace_ms, next_entry);
      print_phase("closed-loop " + std::to_string(round), 0.0, closed, acc);
      closed_ok += closed.end.ok - closed.start.ok;
      closed_ms += closed.end.at_ms - closed.start.at_ms;
    }
    const Tail tail = tail_of(nominal_lat);
    const double failed_frac =
        acc.sent == 0 ? 1.0 : static_cast<double>(acc.failed()) / static_cast<double>(acc.sent);

    metrics = {
        {"setup_s", median(setup_s), "s"},
        {"latency_p50_ms", quantile(nominal_lat, 0.5), "ms"},
        {"peak_rps", closed_ms > 0.0 ? static_cast<double>(closed_ok) / (closed_ms * 1e-3) : 0.0, "1/s"},
        {"cpu_ms_per_req", nominal_ok > 0 ? nominal_cpu_ms / static_cast<double>(nominal_ok) : kInf, "ms"},
        {"ok_frac", 1.0 - failed_frac, "frac"},
        {"peak_rss_mb", rss_mb, "MB"},
    };
    const std::vector<Metric> printed_only = {
        {"latency_tail_ms", tail.value, "ms"},
        {"slo_rps", ladder.slo_rps(), "1/s"},
        {"failed_frac", failed_frac, "frac"},
        {"max_logit_err", checker.max_logit_err, "abs"},
    };
    std::printf("end-to-end (%s, nominal %.0f rps, limit %.1f ms):\n", spec.name.c_str(),
                spec.nominal_rps, spec.limit_ms);
    for (const Metric& m : metrics) std::printf("  %-16s %14s %s\n", m.name.c_str(), fmt(m.value, 6).c_str(), m.unit.c_str());
    std::printf(" printed only (not in the JSON result):\n");
    for (const Metric& m : printed_only) std::printf("  %-16s %14s %s\n", m.name.c_str(), fmt(m.value, 6).c_str(), m.unit.c_str());
    std::printf("  max_logit_err: %s lane, bound %s\n",
                server->handles.front()->quantized ? "int16" : "double",
                server->handles.front()->quantized ? "<= 0.1 vs double forward" : "0, bit-exact");
    std::printf("  latency_tail_ms: p%.3f, the highest percentile with >= 10 samples beyond it, "
                "over all %zu nominal requests of %zu rounds (p90 %s p99 %s p99.9 %s ms)\n",
                tail.percentile, tail.samples, kRounds, fmt(quantile(nominal_lat, 0.9), 3).c_str(),
                fmt(quantile(nominal_lat, 0.99), 3).c_str(), fmt(quantile(nominal_lat, 0.999), 3).c_str());
    std::printf("  slo_rps: rung %d of 0..%zu (%.1f rps offered) after %zu probes: %s\n", ladder.lo,
                e2e::kLadderRungs - 1, ladder.slo_rps(), ladder.probes, ladder.verdict().c_str());
    std::printf("  setup_s: median of %zu cold set-ups in fresh processes (min %s max %s s)\n",
                setup_s.size(), fmt(*std::min_element(setup_s.begin(), setup_s.end()), 4).c_str(),
                fmt(*std::max_element(setup_s.begin(), setup_s.end()), 4).c_str());
  } else {
    // Untraced and traced chunks alternate (ABBA) so drift lands on both.
    e2e::SpanRecorder spans;
    const net::NetServerCounters net0 = server->server->counters();
    const serve::ServeStats stats0 = server->fleet->stats();
    const std::uint64_t allocs0 = server->fleet->shard(0).worker_heap_allocations();
    const tensor::pool::PoolStats pool0 = tensor::pool::stats();
    const std::uint64_t cycles0 = server->fleet->fleet_lifetime().cycles.total();
    std::vector<double> untraced_lat, traced_lat, net_overhead, queue, service, batch;
    std::size_t completed = 0;
    const bool traced_chunk[8] = {false, true, true, false, false, true, true, false};
    for (bool traced : traced_chunk) {
      gen.record_spans(traced ? &spans : nullptr);
      const PhaseResult p = gen.open_loop(
          poisson(rng, spec.nominal_rps, 0.05 * budget_ms, spec.pool_size), grace_ms, SIZE_MAX);
      gen.record_spans(nullptr);
      print_phase(traced ? "nominal traced" : "nominal untraced", spec.nominal_rps, p, acc);
      const std::vector<double> lat = latencies(p);
      (traced ? traced_lat : untraced_lat).insert((traced ? traced_lat : untraced_lat).end(),
                                                  lat.begin(), lat.end());
      for (const Record& r : p.records) {
        if (r.outcome != Outcome::kOk) continue;
        ++completed;
        net_overhead.push_back(r.done_ms - r.sent_ms - r.queue_ms - r.service_ms);
        queue.push_back(r.queue_ms);
        service.push_back(r.service_ms);
        batch.push_back(static_cast<double>(r.batch_requests));
      }
    }
    const net::NetServerCounters net1 = server->server->counters();
    const serve::ServeStats stats1 = server->fleet->stats();
    const std::uint64_t allocs1 = server->fleet->shard(0).worker_heap_allocations();
    const tensor::pool::PoolStats pool1 = tensor::pool::stats();
    const std::uint64_t cycles1 = server->fleet->fleet_lifetime().cycles.total();
    const double per_req = completed == 0 ? 0.0 : 1.0 / static_cast<double>(completed);

    // Replay where the server's workers run, not on the generator's CPU.
    if (cpus >= 2) pin_to(1, server_last);
    const e2e::ReplayResult replay =
        e2e::replay_layers(spec, pool, server->handles, 0.35 * budget_ms, spans);

    double batch_sum = 0.0;
    for (double b : batch) batch_sum += b;
    const double service_p50 = quantile(service, 0.5);
    metrics = {
        {"net.overhead_ms_p50", quantile(net_overhead, 0.5), "ms"},
        {"net.codec_us_per_req", replay.metrics.at("net.codec_us_per_req"), "us"},
        {"net.protocol_errors", static_cast<double>(net1.protocol_errors - net0.protocol_errors), "count"},
        {"net.overload_replies", static_cast<double>(net1.overload_replies - net0.overload_replies), "count"},
        {"net.accept_pauses", static_cast<double>(net1.accept_pauses - net0.accept_pauses), "count"},
        {"serve.queue_ms_p50", quantile(queue, 0.5), "ms"},
        {"serve.queue_ms_tail", tail_of(queue).value, "ms"},
        {"serve.service_ms_p50", service_p50, "ms"},
        {"serve.batch_requests_mean", batch.empty() ? 0.0 : batch_sum / static_cast<double>(batch.size()), "count"},
        {"serve.sheds", static_cast<double>(stats1.sheds() - stats0.sheds()), "count"},
        {"serve.deadline_misses", static_cast<double>(stats1.deadline_misses() - stats0.deadline_misses()), "count"},
        {"serve.worker_allocs_per_req", static_cast<double>(allocs1 - allocs0) * per_req, "count"},
        {"serve.register_s", median(register_s), "s"},
        {"nn.infer_ms", replay.metrics.at("nn.infer_ms"), "ms"},
        {"nn.layer_ms.linear", replay.metrics.at("nn.layer_ms.linear"), "ms"},
        {"nn.layer_ms.activation", replay.metrics.at("nn.layer_ms.activation"), "ms"},
        {"nn.layer_ms.attention", replay.metrics.at("nn.layer_ms.attention"), "ms"},
        {"nn.layer_ms.layernorm", replay.metrics.at("nn.layer_ms.layernorm"), "ms"},
        {"nn.layer_ms.other", replay.metrics.at("nn.layer_ms.other"), "ms"},
        {"nn.service_coverage", service_p50 > 0.0 ? replay.metrics.at("nn.infer_ms") / service_p50 : 0.0, "frac"},
        {"kernels.gemm_gflops", replay.metrics.at("kernels.gemm_gflops"), "GFLOP/s"},
        {"kernels.gemm_gflops.largest", replay.metrics.at("kernels.gemm_gflops.largest"), "GFLOP/s"},
        {"kernels.gemm_mflop_per_req", replay.metrics.at("kernels.gemm_mflop_per_req"), "MFLOP"},
        {"kernels.gemm_mbytes_per_req", replay.metrics.at("kernels.gemm_mbytes_per_req"), "MB"},
        {"cpwl.ns_per_elem", replay.metrics.at("cpwl.ns_per_elem"), "ns"},
        {"tensor.pool_misses_per_req", static_cast<double>(pool1.misses - pool0.misses) * per_req, "count"},
        {"tensor.pool_oversize_per_req", static_cast<double>(pool1.oversize - pool0.oversize) * per_req, "count"},
        {"sim.cycles_per_req", static_cast<double>(cycles1 - cycles0) * per_req, "cycles"},
        {"obs.trace_overhead_frac", quantile(traced_lat, 0.5) / quantile(untraced_lat, 0.5) - 1.0, "frac"},
        {"check.max_logit_err", checker.max_logit_err, "abs"},
    };

    std::printf("per-layer (%s; counters are deltas over the 8 nominal chunks, %zu ok requests):\n",
                spec.name.c_str(), completed);
    std::printf("  %-30s %14s %-8s | should move %-50s | mechanism / bypass\n", "metric", "value",
                "unit", "");
    for (const Metric& m : metrics) {
      const LayerRow& row = layer_row(m.name);
      std::printf("  %-30s %14s %-8s | %-62s | %s\n", m.name.c_str(), fmt(m.value, 6).c_str(),
                  m.unit.c_str(), row.moves, row.workloads);
    }
    std::printf("  sim.cycles_per_req is MODELLED (ONE-SA analytic cycle model), not measured.\n");
    std::printf("  GEMM shapes (%s lane; ops and bytes computed from the shapes):\n", replay.gemm_lane);
    const double elem = std::strcmp(replay.gemm_lane, "int16") == 0 ? 2.0 : 8.0;
    for (const e2e::GemmShape& g : replay.gemms) {
      const double bytes = elem * static_cast<double>(g.m * g.k + g.k * g.n + g.m * g.n);
      std::printf("    %4zu x %4zu x %4zu  calls/req %6.3f  %10.4f ms  %8.2f GFLOP/s  %10.0f flop  %10.0f B\n",
                  g.m, g.k, g.n, g.calls_per_request, g.ms_per_call,
                  g.ms_per_call > 0 ? g.flops() / (g.ms_per_call * 1e6) : 0.0, g.flops(), bytes);
    }
    std::printf("  span self time (benchmark-side spans; queue/service from each reply):\n");
    for (const auto& [name, t] : spans.self_times()) {
      std::printf("    %-22s n %8zu  total %12.3f ms  self %12.3f ms  self/n %10.4f ms\n",
                  name.c_str(), t.count, t.total_ms, t.self_ms,
                  t.count ? t.self_ms / static_cast<double>(t.count) : 0.0);
    }
  }

  std::printf("host probe (fixed scalar loop, median of 3): %.3f ms at start, %.3f ms at end\n",
              probe_start_ms, host_probe_ms());
  const bool correct = checker.mismatches == 0 && acc.mismatch == 0 &&
                       (server->handles.front()->quantized ? checker.max_logit_err <= 0.1
                                                           : checker.max_logit_err == 0.0);
  std::printf("check: %zu replies compared with in-process inference, %zu mismatched, "
              "max |served - double forward| = %s -> %s\n",
              checker.checked, checker.mismatches, fmt(checker.max_logit_err, 6).c_str(),
              correct ? "PASS" : "FAIL");
  print_json(correct, acc, metrics);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  single_threaded_kernels();
  try {
    if (args.setup_only) return setup_only(*e2e::find_workload(args.workload));
    return run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2e_bench: %s\n", e.what());
    return 1;
  }
}
