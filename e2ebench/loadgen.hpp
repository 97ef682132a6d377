// Single-threaded socket load generator for the OSA1 front door.
//
// One thread owns every connection (non-blocking sockets under ppoll), so
// its CPU time is one clock read (CLOCK_THREAD_CPUTIME_ID) and the serving
// side's CPU is the process total minus it. While requests are due it polls
// without blocking: on a virtualized host, waking a sleeping thread can take
// longer than the gap between arrivals. Requests are pre-encoded frames
// whose request-id field is patched per send, so the generator spends its
// time on schedule-keeping, not on encoding.
//
// Two traffic shapes:
//  - open loop: a precomputed arrival schedule fired regardless of replies.
//    Latency runs from each request's DUE time, so a stalled sender shows up
//    in the latency of every request it delayed; lateness (send - due) is
//    recorded next to it.
//  - closed loop: a fixed number of requests outstanding per connection; each
//    reply releases the next send.
//
// Every kInferOk reply is decoded and handed to a caller-supplied checker
// together with the pool entry its request came from.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "net/protocol.hpp"
#include "spans.hpp"

namespace e2e {

/// One request the generator can send: a complete OSA1 kInfer frame whose
/// bytes 8..15 (the request id) are overwritten on every send.
using EncodedRequest = std::vector<unsigned char>;

enum class Outcome : std::uint8_t { kPending, kOk, kShed, kError, kMismatch };

/// Per-request record; times are ms since the phase epoch.
struct Record {
  double due_ms = 0.0;
  double sent_ms = 0.0;
  double done_ms = 0.0;
  double queue_ms = 0.0;    // server-reported (kInferOk only)
  double service_ms = 0.0;  // server-reported (kInferOk only)
  std::uint32_t batch_requests = 0;
  std::uint32_t entry = 0;
  std::uint8_t conn = 0;
  Outcome outcome = Outcome::kPending;

  double latency_ms() const { return done_ms - due_ms; }
  double lag_ms() const { return sent_ms - due_ms; }
};

/// CPU clocks and correct replies at one instant of a phase.
struct CpuSample {
  double at_ms = 0.0;
  double process_cpu_ms = 0.0;
  double bench_cpu_ms = 0.0;  // the benchmark's own threads
  std::uint64_t ok = 0;  // kOk replies so far in the phase

  /// Serving-side CPU between two samples: process minus benchmark threads.
  double serving_cpu_ms_since(const CpuSample& start) const {
    return (process_cpu_ms - start.process_cpu_ms) - (bench_cpu_ms - start.bench_cpu_ms);
  }
};

struct PhaseResult {
  std::vector<Record> records;  // index == send order
  CpuSample start;               // phase start (closed loop: after settling)
  /// Open loop: once every request was answered (or the grace expired).
  /// Closed loop: at the end of the sending window, before the tail drains.
  CpuSample end;
  double duration_ms = 0.0;      // sending window (schedule span or closed-loop time)
  std::uint64_t duplicates = 0;  // second reply for an already-answered id
  std::uint64_t strays = 0;      // reply for an id this phase never sent
  bool stopped_early = false;    // open loop aborted on a runaway backlog
};

struct Arrival {
  double at_ms = 0.0;
  std::uint32_t entry = 0;
};

/// Returns true when `reply` is the correct output for pool entry `entry`.
using ReplyChecker = std::function<bool(std::uint32_t entry, const onesa::net::InferReply& reply)>;

double process_cpu_ms();
double thread_cpu_ms();

class LoadGenerator {
 public:
  static constexpr std::size_t kMaxConnections = 8;

  /// Opens `connections` loopback connections to `port`. `other_bench_cpu_ms`
  /// reports the CPU time of the benchmark's other threads, which CpuSample
  /// counts together with the generator's own.
  LoadGenerator(std::uint16_t port, std::size_t connections,
                const std::vector<EncodedRequest>& pool, ReplyChecker checker,
                std::function<double()> other_bench_cpu_ms);
  ~LoadGenerator();

  LoadGenerator(const LoadGenerator&) = delete;
  LoadGenerator& operator=(const LoadGenerator&) = delete;

  /// Fire `schedule` (ascending at_ms) open loop. Waits up to `grace_ms`
  /// after the last due time for replies; unanswered requests stay kPending
  /// (missing). Stops sending early, leaving the rest of the schedule
  /// unsent, once more than `max_outstanding` requests are in flight.
  PhaseResult open_loop(const std::vector<Arrival>& schedule, double grace_ms,
                        std::size_t max_outstanding);

  /// Keep `depth` requests outstanding on every connection for
  /// `duration_ms`, choosing pool entries with `next_entry`, then wait up to
  /// `grace_ms` for the tail. The first `settle_ms` fill the pipeline: the
  /// phase's start sample is taken there, so start..end is steady state.
  PhaseResult closed_loop(std::size_t depth, double duration_ms, double settle_ms,
                          double grace_ms, const std::function<std::uint32_t()>& next_entry);

  /// Record a span tree per answered request into `spans` (nullptr stops):
  /// "request" (due -> reply) with children "generator_lag" (due -> sent),
  /// "queue" and "service" (the reply's server-side times, placed back to
  /// back ending at the reply; only their durations are measured).
  void record_spans(SpanRecorder* spans) { spans_ = spans; }

 private:
  struct Conn;

  double now_ms() const;
  void send(std::size_t conn_index, PhaseResult& phase, std::uint32_t entry, double due_ms);
  /// Wait up to `timeout_ms` for socket readiness, flush pending output and
  /// read every available reply.
  void pump(PhaseResult& phase, double timeout_ms);
  void handle_frame(onesa::net::Frame& frame, PhaseResult& phase, double at_ms);
  CpuSample sample() const;
  void begin_phase(PhaseResult& phase);

  const std::vector<EncodedRequest>& pool_;
  ReplyChecker checker_;
  std::function<double()> other_bench_cpu_ms_;
  std::vector<Conn> conns_;
  std::uint64_t id_base_ = 1;  // ids of the current phase start here
  std::uint64_t next_id_ = 1;
  std::uint64_t ok_ = 0;
  std::uint64_t outstanding_ = 0;
  double epoch_ms_ = 0.0;  // CLOCK_MONOTONIC ms of the phase's time 0
  std::vector<std::uint8_t> released_;  // connections that just got a reply
  std::vector<onesa::net::Frame> frames_;
  SpanRecorder* spans_ = nullptr;
  std::vector<unsigned char> read_buf_;
};

}  // namespace e2e
