#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <ostream>
#include <sstream>

namespace onesa::obs {

namespace {

std::atomic<bool> g_metrics_enabled{true};

/// `name` with a `quantile="q"` label spliced into its (possibly empty)
/// label set: `lat{class="bulk"}` -> `lat{class="bulk",quantile="0.5"}`.
std::string with_quantile(const std::string& name, const char* q) {
  const auto brace = name.find('{');
  if (brace == std::string::npos) return name + "{quantile=\"" + q + "\"}";
  std::string out = name.substr(0, name.size() - 1);  // drop trailing '}'
  out += ",quantile=\"";
  out += q;
  out += "\"}";
  return out;
}

/// Base metric name without the label set (for # TYPE lines and the
/// _count/_sum suffixes, which go before the labels).
std::string base_name(const std::string& name) {
  const auto brace = name.find('{');
  return brace == std::string::npos ? name : name.substr(0, brace);
}

std::string label_set(const std::string& name) {
  const auto brace = name.find('{');
  return brace == std::string::npos ? std::string() : name.substr(brace);
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) >= 0x20) {
      out += c;
    }
  }
  return out;
}

/// Doubles formatted for exposition: plain, enough digits to round-trip
/// percentile comparisons in tests, no locale surprises.
std::string fmt(double v) {
  std::ostringstream os;
  os.precision(10);
  os << v;
  return os.str();
}

void relaxed_add_double(std::atomic<double>& target, double delta) {
  double cur = target.load(std::memory_order_relaxed);
  while (!target.compare_exchange_weak(cur, cur + delta, std::memory_order_relaxed)) {
  }
}

void relaxed_min_double(std::atomic<double>& target, double v) {
  double cur = target.load(std::memory_order_relaxed);
  while (v < cur && !target.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

void relaxed_max_double(std::atomic<double>& target, double v) {
  double cur = target.load(std::memory_order_relaxed);
  while (v > cur && !target.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

}  // namespace

bool metrics_enabled() { return g_metrics_enabled.load(std::memory_order_relaxed); }
void set_metrics_enabled(bool on) { g_metrics_enabled.store(on, std::memory_order_relaxed); }

namespace detail {

std::size_t thread_slot() {
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t slot = next.fetch_add(1, std::memory_order_relaxed);
  return slot;
}

}  // namespace detail

// ---------------------------------------------------------------------------
// Histogram

std::size_t Histogram::bucket_index(double value) {
  if (!(value > 0.0)) return 0;  // zero, negative, NaN -> underflow
  int exp = 0;
  const double mant = std::frexp(value, &exp);  // value = mant * 2^exp, mant in [0.5, 1)
  if (exp < kMinExp) return 0;
  if (exp >= kMaxExp) return kBuckets - 1;
  // mant - 0.5 in [0, 0.5) sliced into kSubBuckets equal pieces.
  auto sub = static_cast<std::size_t>((mant - 0.5) * 2.0 * static_cast<double>(kSubBuckets));
  sub = std::min(sub, kSubBuckets - 1);
  return 1 + static_cast<std::size_t>(exp - kMinExp) * kSubBuckets + sub;
}

double Histogram::bucket_lo(std::size_t index) {
  if (index == 0) return 0.0;
  if (index >= kBuckets - 1) return std::ldexp(0.5, kMaxExp);
  const std::size_t r = index - 1;
  const int exp = kMinExp + static_cast<int>(r / kSubBuckets);
  const std::size_t sub = r % kSubBuckets;
  return std::ldexp(0.5 + 0.5 * static_cast<double>(sub) / static_cast<double>(kSubBuckets),
                    exp);
}

double Histogram::bucket_hi(std::size_t index) {
  if (index == 0) return std::ldexp(0.5, kMinExp);
  if (index >= kBuckets - 1) return std::numeric_limits<double>::infinity();
  return bucket_lo(index + 1);
}

std::array<std::unique_ptr<Histogram::Shard>, Histogram::kShards> Histogram::make_shards() {
  std::array<std::unique_ptr<Shard>, kShards> shards;
  for (auto& shard : shards) shard = std::make_unique<Shard>();
  return shards;
}

void Histogram::record(double value) {
  if (!metrics_enabled()) return;
  Shard& shard = *shards_[detail::thread_slot() % kShards];
  shard.counts[bucket_index(value)].fetch_add(1, std::memory_order_relaxed);
  const std::uint64_t before = shard.count.fetch_add(1, std::memory_order_relaxed);
  relaxed_add_double(shard.sum, value);
  if (before == 0) {
    // First sample of this shard seeds min/max (0.0 defaults are not valid
    // extrema); racing recorders then CAS them toward the true extremes.
    double expected = 0.0;
    shard.min.compare_exchange_strong(expected, value, std::memory_order_relaxed);
    expected = 0.0;
    shard.max.compare_exchange_strong(expected, value, std::memory_order_relaxed);
  }
  relaxed_min_double(shard.min, value);
  relaxed_max_double(shard.max, value);
}

HistogramSnapshot Histogram::snapshot() const {
  HistogramSnapshot snap;
  bool first = true;
  for (const auto& shard_ptr : shards_) {
    const Shard& shard = *shard_ptr;
    const std::uint64_t n = shard.count.load(std::memory_order_relaxed);
    if (n == 0) continue;
    snap.count += n;
    snap.sum += shard.sum.load(std::memory_order_relaxed);
    const double lo = shard.min.load(std::memory_order_relaxed);
    const double hi = shard.max.load(std::memory_order_relaxed);
    snap.min = first ? lo : std::min(snap.min, lo);
    snap.max = first ? hi : std::max(snap.max, hi);
    first = false;
    for (std::size_t b = 0; b < kBuckets; ++b)
      snap.buckets[b] += shard.counts[b].load(std::memory_order_relaxed);
  }
  return snap;
}

std::uint64_t Histogram::count() const {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) total += shard->count.load(std::memory_order_relaxed);
  return total;
}

void Histogram::reset() {
  for (auto& shard_ptr : shards_) {
    Shard& shard = *shard_ptr;
    for (auto& b : shard.counts) b.store(0, std::memory_order_relaxed);
    shard.count.store(0, std::memory_order_relaxed);
    shard.sum.store(0.0, std::memory_order_relaxed);
    shard.min.store(0.0, std::memory_order_relaxed);
    shard.max.store(0.0, std::memory_order_relaxed);
  }
}

void HistogramSnapshot::record(double value) {
  ++buckets[Histogram::bucket_index(value)];
  min = count == 0 ? value : std::min(min, value);
  max = count == 0 ? value : std::max(max, value);
  ++count;
  sum += value;
}

void HistogramSnapshot::merge(const HistogramSnapshot& o) {
  if (o.count == 0) return;
  min = count == 0 ? o.min : std::min(min, o.min);
  max = count == 0 ? o.max : std::max(max, o.max);
  count += o.count;
  sum += o.sum;
  for (std::size_t b = 0; b < buckets.size(); ++b) buckets[b] += o.buckets[b];
}

double HistogramSnapshot::percentile(double p) const {
  if (count == 0) return 0.0;
  p = std::clamp(p, 0.0, 100.0);
  // Nearest rank: the smallest sample with at least p% of them at or below.
  const auto rank = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(std::ceil(p / 100.0 * static_cast<double>(count))));
  if (rank >= count) return max;
  std::uint64_t cumulative = 0;
  for (std::size_t b = 0; b < buckets.size(); ++b) {
    cumulative += buckets[b];
    if (cumulative >= rank) return std::clamp(Histogram::bucket_lo(b), min, max);
  }
  return max;
}

// ---------------------------------------------------------------------------
// MetricsRegistry

MetricsRegistry& MetricsRegistry::global() {
  static auto* registry = new MetricsRegistry();  // intentionally leaked
  return *registry;
}

Counter& MetricsRegistry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = gauges_[name];
  if (slot == nullptr) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& MetricsRegistry::histogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = histograms_[name];
  if (slot == nullptr) slot = std::make_unique<Histogram>();
  return *slot;
}

void MetricsRegistry::write_prometheus(std::ostream& os) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::string last_type_line;
  auto type_line = [&](const std::string& name, const char* type) {
    const std::string line = "# TYPE " + base_name(name) + " " + type + "\n";
    if (line != last_type_line) {
      os << line;
      last_type_line = line;
    }
  };
  for (const auto& [name, counter] : counters_) {
    type_line(name, "counter");
    os << name << " " << counter->value() << "\n";
  }
  for (const auto& [name, gauge] : gauges_) {
    type_line(name, "gauge");
    os << name << " " << gauge->value() << "\n";
  }
  for (const auto& [name, histogram] : histograms_) {
    const HistogramSnapshot snap = histogram->snapshot();
    type_line(name, "summary");
    for (const auto& [label, p] :
         {std::pair<const char*, double>{"0.5", 50.0}, {"0.9", 90.0}, {"0.99", 99.0}}) {
      os << with_quantile(name, label) << " " << fmt(snap.percentile(p)) << "\n";
    }
    os << base_name(name) << "_count" << label_set(name) << " " << snap.count << "\n";
    os << base_name(name) << "_sum" << label_set(name) << " " << fmt(snap.sum) << "\n";
  }
}

void MetricsRegistry::write_json(std::ostream& os) const {
  std::lock_guard<std::mutex> lock(mutex_);
  os << "{\n  \"counters\": {";
  const char* sep = "";
  for (const auto& [name, counter] : counters_) {
    os << sep << "\n    \"" << json_escape(name) << "\": " << counter->value();
    sep = ",";
  }
  os << "\n  },\n  \"gauges\": {";
  sep = "";
  for (const auto& [name, gauge] : gauges_) {
    os << sep << "\n    \"" << json_escape(name) << "\": " << gauge->value();
    sep = ",";
  }
  os << "\n  },\n  \"histograms\": {";
  sep = "";
  for (const auto& [name, histogram] : histograms_) {
    const HistogramSnapshot snap = histogram->snapshot();
    os << sep << "\n    \"" << json_escape(name) << "\": {\"count\": " << snap.count
       << ", \"sum\": " << fmt(snap.sum) << ", \"mean\": " << fmt(snap.mean())
       << ", \"min\": " << fmt(snap.min) << ", \"max\": " << fmt(snap.max)
       << ", \"p50\": " << fmt(snap.percentile(50.0))
       << ", \"p90\": " << fmt(snap.percentile(90.0))
       << ", \"p99\": " << fmt(snap.percentile(99.0)) << "}";
    sep = ",";
  }
  os << "\n  }\n}\n";
}

void MetricsRegistry::reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [name, counter] : counters_) counter->reset();
  for (auto& [name, gauge] : gauges_) gauge->reset();
  for (auto& [name, histogram] : histograms_) histogram->reset();
}

}  // namespace onesa::obs
