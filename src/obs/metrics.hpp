// Low-overhead metrics registry: lock-free counters and gauges plus
// log-linear histograms, all sharded to keep concurrent writers off each
// other's cache lines, with Prometheus-style text exposition and a JSON
// snapshot API.
//
// Design constraints (this layer instruments the serving hot path, so they
// are load-bearing):
//
//  - A metric update is a relaxed atomic RMW on a thread-local shard — no
//    mutex, no CAS retry loop for counters, no false sharing (shards are
//    cache-line aligned). Exact totals are still guaranteed: fetch_add
//    never loses an increment, snapshot readers just sum the shards.
//  - Updates first check one global enabled flag (relaxed load + branch),
//    so `set_metrics_enabled(false)` reduces every instrumented call site
//    to a predictable not-taken branch.
//  - Metric objects are created once (registry mutex, name lookup) and then
//    referenced by stable address forever: hot paths hold `Counter&` /
//    `Histogram&`, never a name. The registry never deletes a metric.
//
// Histograms are log-linear: each power-of-two octave of the value range is
// split into kSubBuckets equal-width linear buckets, giving a bounded
// relative error of 1/kSubBuckets (3.1% for 32 subbuckets) for any
// percentile, independent of the distribution — the standard HDR-histogram
// trick. Negative/zero values land in a dedicated underflow bucket.
//
// Label convention: a metric name may carry Prometheus labels inline, e.g.
//   serve_model_requests_total{model="mlp",version="2"}
// The registry treats the whole string as the identity; the Prometheus
// writer splices `quantile` labels into an existing label set correctly.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace onesa::obs {

/// Global metrics switch. Defaults to enabled; when off, every update is a
/// relaxed load and a not-taken branch ("obs off" in the overhead bench).
bool metrics_enabled();
void set_metrics_enabled(bool on);

namespace detail {

/// Small dense per-thread slot used to pick a shard: threads get
/// round-robin slots on first use, so up to kMaxShards concurrent writers
/// touch distinct cache lines. (A hash of std::thread::id would cluster.)
std::size_t thread_slot();

inline constexpr std::size_t kMaxShards = 16;

struct alignas(64) CounterShard {
  std::atomic<std::uint64_t> value{0};
};

struct alignas(64) GaugeShard {
  std::atomic<std::int64_t> value{0};
};

}  // namespace detail

/// Monotonically increasing counter. add() is wait-free; value() is exact
/// (every fetch_add lands in some shard, the read sums all shards).
class Counter {
 public:
  void add(std::uint64_t n = 1) {
    if (!metrics_enabled()) return;
    shards_[detail::thread_slot() % detail::kMaxShards].value.fetch_add(
        n, std::memory_order_relaxed);
  }

  std::uint64_t value() const {
    std::uint64_t total = 0;
    for (const auto& shard : shards_) total += shard.value.load(std::memory_order_relaxed);
    return total;
  }

  void reset() {
    for (auto& shard : shards_) shard.value.store(0, std::memory_order_relaxed);
  }

 private:
  std::array<detail::CounterShard, detail::kMaxShards> shards_{};
};

/// Up/down gauge with delta semantics: several instances of a subsystem
/// (e.g. every RequestQueue) add/sub into one named gauge and the reading
/// is the correct aggregate. Sharded like Counter — the producer side
/// (queue push) and the consumer side (worker pop) of a gauge run on
/// different threads, and a single shared atomic would ping-pong its cache
/// line between them on every request.
class Gauge {
 public:
  void add(std::int64_t delta) {
    if (!metrics_enabled()) return;
    shards_[detail::thread_slot() % detail::kMaxShards].value.fetch_add(
        delta, std::memory_order_relaxed);
  }
  void sub(std::int64_t delta) { add(-delta); }

  /// Overwrite the aggregate. Not linearizable against concurrent add():
  /// deltas in flight while set() walks the shards may survive it.
  void set(std::int64_t v) {
    for (auto& shard : shards_) shard.value.store(0, std::memory_order_relaxed);
    shards_[0].value.store(v, std::memory_order_relaxed);
  }

  std::int64_t value() const {
    std::int64_t total = 0;
    for (const auto& shard : shards_) total += shard.value.load(std::memory_order_relaxed);
    return total;
  }
  void reset() {
    for (auto& shard : shards_) shard.value.store(0, std::memory_order_relaxed);
  }

 private:
  std::array<detail::GaugeShard, detail::kMaxShards> shards_{};
};

struct HistogramSnapshot;

/// Log-linear histogram of positive doubles (latencies in ms, GFLOP/s,
/// batch fill ratios). record() is lock-free: bucket counts are relaxed
/// fetch_add on a per-thread shard; the running sum is a relaxed CAS loop
/// (the one non-wait-free piece, contended only within a shard).
class Histogram {
 public:
  // 32 linear subbuckets per power-of-two octave over [2^-32, 2^32), plus
  // one underflow and one overflow bucket. 3.1% worst-case relative error.
  static constexpr std::size_t kSubBits = 5;
  static constexpr std::size_t kSubBuckets = std::size_t{1} << kSubBits;
  static constexpr int kMinExp = -31;  // frexp exponent of the smallest octave
  static constexpr int kMaxExp = 33;   // one past the largest octave
  static constexpr std::size_t kRangeBuckets =
      static_cast<std::size_t>(kMaxExp - kMinExp) * kSubBuckets;
  static constexpr std::size_t kBuckets = kRangeBuckets + 2;  // +underflow +overflow

  void record(double value);

  HistogramSnapshot snapshot() const;
  std::uint64_t count() const;
  void reset();

  /// Bucket index for a value (0 = underflow, kBuckets-1 = overflow) and
  /// the [lo, hi) value bounds of an index — exposed for tests.
  static std::size_t bucket_index(double value);
  static double bucket_lo(std::size_t index);
  static double bucket_hi(std::size_t index);

 private:
  static constexpr std::size_t kShards = 8;

  struct alignas(64) Shard {
    std::array<std::atomic<std::uint64_t>, kBuckets> counts{};
    std::atomic<std::uint64_t> count{0};
    std::atomic<double> sum{0.0};
    std::atomic<double> min{0.0};  // valid only when count > 0
    std::atomic<double> max{0.0};
  };

  // Heap-allocated: a Shard is ~16 KiB of buckets and histograms live in a
  // registry map node; keeping the hot arrays out of the node keeps metric
  // creation cheap and addresses stable.
  std::array<std::unique_ptr<Shard>, kShards> shards_ = make_shards();

  static std::array<std::unique_ptr<Shard>, kShards> make_shards();
};

/// Plain (non-atomic) copy of a histogram's state: what snapshot() returns
/// for percentile queries and exposition, and the single-writer form that
/// serve::ServeStats keeps per priority class. Fixed size whatever the
/// sample count, so record() and merge() never allocate.
struct HistogramSnapshot {
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;  // 0 when empty
  double max = 0.0;
  std::array<std::uint64_t, Histogram::kBuckets> buckets{};

  bool empty() const { return count == 0; }
  double mean() const { return count == 0 ? 0.0 : sum / static_cast<double>(count); }

  /// Single-writer add; the caller owns the synchronization.
  void record(double value);
  /// Bucket-wise sum: the merged snapshot is the one both inputs' samples
  /// would have built together.
  void merge(const HistogramSnapshot& o);

  /// Nearest-rank percentile, p in [0, 100] (clamped): the lower bound of
  /// the bucket holding the rank-ceil(p% of count) sample, clamped to
  /// [min, max]. At most 1/kSubBuckets below the exact nearest-rank value,
  /// never above it; p0 is min and p100 is max exactly. Monotone in p;
  /// 0 when empty.
  double percentile(double p) const;
};

/// Name -> metric registry. Creation/lookup takes a mutex; returned
/// references are stable for the life of the process (metrics are never
/// removed), so call sites resolve once and update lock-free after that.
class MetricsRegistry {
 public:
  /// Process-wide registry (heap-allocated, never destructed, so worker
  /// threads may update metrics during static teardown).
  static MetricsRegistry& global();

  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name);

  /// Prometheus text exposition: counters and gauges as single samples,
  /// histograms as summaries (quantile labels + _count/_sum).
  void write_prometheus(std::ostream& os) const;

  /// JSON snapshot: {"counters": {...}, "gauges": {...}, "histograms":
  /// {name: {count, sum, mean, min, max, p50, p90, p99}}}.
  void write_json(std::ostream& os) const;

  /// Zero every registered metric (bench/test isolation between phases).
  /// Racing writers may land increments on either side of the reset; that
  /// is inherent to resetting live metrics and fine for its callers.
  void reset();

 private:
  mutable std::mutex mutex_;
  // std::map: node-stable, so metric references survive any later insert.
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace onesa::obs
