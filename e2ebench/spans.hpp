// In-memory span recorder for the traced run. Spans are recorded from the
// benchmark's own files around calls into each layer (and, for served
// requests, from the reply's queue/service times); nothing inside the
// program is instrumented. Self time of a span is its duration minus the
// part covered by its children.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace e2e {

/// Milliseconds on CLOCK_MONOTONIC (the time base every span uses).
double monotonic_ms();

struct Span {
  std::string name;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0 = root
  double start_ms = 0.0;
  double end_ms = 0.0;
};

struct SelfTime {
  std::size_t count = 0;
  double total_ms = 0.0;
  double self_ms = 0.0;
};

class SpanRecorder {
 public:
  std::uint64_t add(std::string name, std::uint64_t parent, double start_ms, double end_ms);

  /// Time `fn()` as one span; returns its duration in ms.
  template <typename F>
  double time(const char* name, std::uint64_t parent, F&& fn) {
    const double start = monotonic_ms();
    fn();
    const double end = monotonic_ms();
    add(name, parent, start, end);
    return end - start;
  }

  /// Open a span whose end is filled in by close() (a parent of later spans).
  std::uint64_t open(std::string name, std::uint64_t parent = 0);
  void close(std::uint64_t id);

  /// Per span name: occurrences, summed duration, summed self time.
  std::map<std::string, SelfTime> self_times() const;

 private:
  std::vector<Span> spans_;  // spans_[id - 1]
};

}  // namespace e2e
