#include "loadgen.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <string>

namespace e2e {

using onesa::net::Frame;
using onesa::net::FrameDecoder;
using onesa::net::FrameType;

namespace {

double clock_ms(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 + static_cast<double>(ts.tv_nsec) * 1e-6;
}


}  // namespace

double process_cpu_ms() { return clock_ms(CLOCK_PROCESS_CPUTIME_ID); }
double thread_cpu_ms() { return clock_ms(CLOCK_THREAD_CPUTIME_ID); }

struct LoadGenerator::Conn {
  int fd = -1;
  FrameDecoder decoder{std::size_t{64} << 20};
  std::vector<unsigned char> out;
  std::size_t out_off = 0;

  bool want_write() const { return out_off < out.size(); }

  void flush() {
    while (out_off < out.size()) {
      const ssize_t n = ::send(fd, out.data() + out_off, out.size() - out_off, MSG_NOSIGNAL);
      if (n > 0) {
        out_off += static_cast<std::size_t>(n);
      } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        return;
      } else if (n < 0 && errno == EINTR) {
        continue;
      } else {
        throw std::runtime_error(std::string("send failed: ") + std::strerror(errno));
      }
    }
    out.clear();
    out_off = 0;
  }
};

LoadGenerator::LoadGenerator(std::uint16_t port, std::size_t connections,
                             const std::vector<EncodedRequest>& pool, ReplyChecker checker,
                             std::function<double()> other_bench_cpu_ms)
    : pool_(pool),
      checker_(std::move(checker)),
      other_bench_cpu_ms_(std::move(other_bench_cpu_ms)),
      conns_(connections),
      read_buf_(256 * 1024) {
  // Sub-millisecond arrival gaps need sub-millisecond wakeups: the default
  // 50 us timer slack would make every sleep overshoot.
  prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  if (connections == 0 || connections > kMaxConnections)
    throw std::runtime_error("connection count out of range");
  for (Conn& c : conns_) {
    c.fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
    if (c.fd < 0) throw std::runtime_error("socket() failed");
    const int one = 1;
    setsockopt(c.fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(c.fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0 &&
        errno != EINPROGRESS) {
      throw std::runtime_error(std::string("connect failed: ") + std::strerror(errno));
    }
    pollfd p{c.fd, POLLOUT, 0};
    if (::poll(&p, 1, 5000) != 1 || (p.revents & (POLLERR | POLLHUP)) != 0)
      throw std::runtime_error("connect did not complete");
  }
}

LoadGenerator::~LoadGenerator() {
  for (Conn& c : conns_)
    if (c.fd >= 0) ::close(c.fd);
}

double LoadGenerator::now_ms() const {
  return clock_ms(CLOCK_MONOTONIC) - epoch_ms_;
}

void LoadGenerator::begin_phase(PhaseResult& phase) {
  id_base_ = next_id_;
  ok_ = 0;
  outstanding_ = 0;  // a previous phase's unanswered requests now count as strays
  epoch_ms_ = clock_ms(CLOCK_MONOTONIC) + 2.0;  // first due time 2 ms out
  released_.clear();
  phase.start = sample();
  while (now_ms() < 0.0) {
  }
}

CpuSample LoadGenerator::sample() const {
  return {now_ms(), process_cpu_ms(), thread_cpu_ms() + other_bench_cpu_ms_(), ok_};
}

void LoadGenerator::send(std::size_t conn_index, PhaseResult& phase, std::uint32_t entry,
                         double due_ms) {
  Conn& conn = conns_[conn_index];
  const EncodedRequest& frame = pool_[entry];
  const std::size_t at = conn.out.size();
  conn.out.insert(conn.out.end(), frame.begin(), frame.end());
  const std::uint64_t id = next_id_++;
  for (int b = 0; b < 8; ++b)
    conn.out[at + 8 + static_cast<std::size_t>(b)] = static_cast<unsigned char>(id >> (8 * b));
  Record rec;
  rec.due_ms = due_ms;
  rec.sent_ms = now_ms();
  rec.entry = entry;
  rec.conn = static_cast<std::uint8_t>(conn_index);
  phase.records.push_back(rec);
  ++outstanding_;
  conn.flush();
}

void LoadGenerator::handle_frame(Frame& frame, PhaseResult& phase, double at_ms) {
  if (frame.request_id < id_base_ || frame.request_id - id_base_ >= phase.records.size()) {
    ++phase.strays;
    return;
  }
  Record& rec = phase.records[frame.request_id - id_base_];
  if (rec.outcome != Outcome::kPending) {
    ++phase.duplicates;
    return;
  }
  rec.done_ms = at_ms;
  if (frame.type == FrameType::kInferOk) {
    onesa::net::InferReply reply;
    std::string why;
    if (!onesa::net::decode_infer_reply(frame.payload.data(), frame.payload.size(), reply,
                                        why)) {
      rec.outcome = Outcome::kError;
    } else {
      rec.queue_ms = reply.queue_ms;
      rec.service_ms = reply.service_ms;
      rec.batch_requests = reply.batch_requests;
      rec.outcome = checker_(rec.entry, reply) ? Outcome::kOk : Outcome::kMismatch;
      if (rec.outcome == Outcome::kOk) ++ok_;
      if (spans_ != nullptr) {
        const double base = epoch_ms_;
        const double done = base + rec.done_ms;
        const std::uint64_t root = spans_->add("request", 0, base + rec.due_ms, done);
        spans_->add("generator_lag", root, base + rec.due_ms, base + rec.sent_ms);
        spans_->add("service", root, done - rec.service_ms, done);
        spans_->add("queue", root, done - rec.service_ms - rec.queue_ms, done - rec.service_ms);
      }
    }
  } else if (frame.type == FrameType::kErrOverload) {
    rec.outcome = Outcome::kShed;
  } else {
    rec.outcome = Outcome::kError;
  }
  --outstanding_;
  released_.push_back(rec.conn);
}

void LoadGenerator::pump(PhaseResult& phase, double timeout_ms) {
  pollfd fds[kMaxConnections];
  const std::size_t n = conns_.size();
  for (std::size_t i = 0; i < n; ++i) {
    fds[i].fd = conns_[i].fd;
    fds[i].events = static_cast<short>(POLLIN | (conns_[i].want_write() ? POLLOUT : 0));
    fds[i].revents = 0;
  }
  if (timeout_ms < 0.0) timeout_ms = 0.0;
  timespec ts{};
  ts.tv_sec = static_cast<time_t>(timeout_ms / 1e3);
  ts.tv_nsec = static_cast<long>((timeout_ms - static_cast<double>(ts.tv_sec) * 1e3) * 1e6);
  const int ready = ::ppoll(fds, n, &ts, nullptr);
  if (ready < 0 && errno != EINTR)
    throw std::runtime_error(std::string("ppoll failed: ") + std::strerror(errno));
  for (std::size_t i = 0; ready > 0 && i < n; ++i) {
    Conn& conn = conns_[i];
    if ((fds[i].revents & POLLOUT) != 0) conn.flush();
    if ((fds[i].revents & (POLLIN | POLLERR | POLLHUP)) == 0) continue;
    for (;;) {
      const ssize_t got = ::recv(conn.fd, read_buf_.data(), read_buf_.size(), 0);
      if (got > 0) {
        frames_.clear();
        if (!conn.decoder.feed(read_buf_.data(), static_cast<std::size_t>(got), frames_))
          throw std::runtime_error("server sent a malformed frame: " + conn.decoder.error());
        const double at = now_ms();
        for (Frame& f : frames_) handle_frame(f, phase, at);
        if (static_cast<std::size_t>(got) < read_buf_.size()) break;
      } else if (got < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        break;
      } else if (got < 0 && errno == EINTR) {
        continue;
      } else {
        throw std::runtime_error("server closed a benchmark connection");
      }
    }
  }
}

PhaseResult LoadGenerator::open_loop(const std::vector<Arrival>& schedule, double grace_ms,
                                     std::size_t max_outstanding) {
  PhaseResult phase;
  phase.records.reserve(schedule.size());
  begin_phase(phase);
  const double last_due = schedule.empty() ? 0.0 : schedule.back().at_ms;
  std::size_t next = 0;
  for (;;) {
    const double t = now_ms();
    while (next < schedule.size() && schedule[next].at_ms <= t) {
      if (outstanding_ >= max_outstanding) {
        phase.stopped_early = true;
        next = schedule.size();
        break;
      }
      send(next % conns_.size(), phase, schedule[next].entry, schedule[next].at_ms);
      ++next;
    }
    if (next >= schedule.size() && (outstanding_ == 0 || t > last_due + grace_ms)) break;
    pump(phase, next < schedule.size() ? 0.0 : std::min(1.0, last_due + grace_ms - t));
  }
  phase.end = sample();
  released_.clear();
  phase.duration_ms = last_due;
  return phase;
}

PhaseResult LoadGenerator::closed_loop(std::size_t depth, double duration_ms, double settle_ms,
                                       double grace_ms,
                                       const std::function<std::uint32_t()>& next_entry) {
  PhaseResult phase;
  begin_phase(phase);
  for (std::size_t c = 0; c < conns_.size(); ++c)
    for (std::size_t d = 0; d < depth; ++d) send(c, phase, next_entry(), now_ms());
  bool settled = false;
  while (now_ms() < duration_ms) {
    pump(phase, 0.0);
    if (!settled && now_ms() >= settle_ms) {
      phase.start = sample();
      settled = true;
    }
    const double at = now_ms();
    for (std::uint8_t c : released_)
      if (at < duration_ms) send(c, phase, next_entry(), at);
    released_.clear();
  }
  phase.end = sample();
  while (outstanding_ > 0 && now_ms() < duration_ms + grace_ms) pump(phase, 5.0);
  released_.clear();
  phase.duration_ms = duration_ms;
  return phase;
}

}  // namespace e2e
