#include "spans.hpp"

#include <time.h>


namespace e2e {

double monotonic_ms() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 + static_cast<double>(ts.tv_nsec) * 1e-6;
}

std::uint64_t SpanRecorder::add(std::string name, std::uint64_t parent, double start_ms,
                                double end_ms) {
  const std::uint64_t id = spans_.size() + 1;
  spans_.push_back({std::move(name), id, parent, start_ms, end_ms});
  return id;
}

std::uint64_t SpanRecorder::open(std::string name, std::uint64_t parent) {
  const double now = monotonic_ms();
  return add(std::move(name), parent, now, now);
}

void SpanRecorder::close(std::uint64_t id) { spans_.at(id - 1).end_ms = monotonic_ms(); }

std::map<std::string, SelfTime> SpanRecorder::self_times() const {
  std::vector<double> child_ms(spans_.size(), 0.0);
  for (const Span& s : spans_)
    if (s.parent != 0) child_ms[s.parent - 1] += s.end_ms - s.start_ms;
  std::map<std::string, SelfTime> out;
  for (const Span& s : spans_) {
    SelfTime& t = out[s.name];
    const double dur = s.end_ms - s.start_ms;
    ++t.count;
    t.total_ms += dur;
    t.self_ms += dur - child_ms[s.id - 1];
  }
  return out;
}

}  // namespace e2e
