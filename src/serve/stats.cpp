#include "serve/stats.hpp"

#include "common/error.hpp"

namespace onesa::serve {

namespace {

double checked_percentile(const obs::HistogramSnapshot& latencies, double p) {
  ONESA_CHECK(p >= 0.0 && p <= 100.0, "percentile " << p << " out of [0, 100]");
  return latencies.percentile(p);
}

std::size_t class_index(Priority c) { return static_cast<std::size_t>(c); }

}  // namespace

void ServeStats::record_batch(const BatchRecord& record) {
  completed_ += record.requests;
  batches_ += 1;
  rows_ += record.rows;
  padded_rows_ += record.padded_rows;
  deadline_misses_ += record.deadline_misses;
  cycles_ += record.cycles;
  mac_ops_ += record.mac_ops;
  // Per-class attribution: the batcher fills latency_class in lockstep with
  // latency_ms; hand-built records without classes count as kNormal.
  for (std::size_t i = 0; i < record.latency_ms.size(); ++i) {
    const Priority c =
        i < record.latency_class.size() ? record.latency_class[i] : Priority::kNormal;
    class_latency_ms_[class_index(c)].record(record.latency_ms[i]);
  }
}

void ServeStats::merge(const ServeStats& o) {
  completed_ += o.completed_;
  batches_ += o.batches_;
  rows_ += o.rows_;
  padded_rows_ += o.padded_rows_;
  deadline_misses_ += o.deadline_misses_;
  sheds_ += o.sheds_;
  window_expiries_ += o.window_expiries_;
  cycles_ += o.cycles_;
  mac_ops_ += o.mac_ops_;
  for (std::size_t c = 0; c < kPriorityClasses; ++c)
    class_latency_ms_[c].merge(o.class_latency_ms_[c]);
}

obs::HistogramSnapshot ServeStats::latency_ms() const {
  obs::HistogramSnapshot all;
  for (const auto& latencies : class_latency_ms_) all.merge(latencies);
  return all;
}

std::uint64_t ServeStats::class_completed(Priority c) const {
  return class_latency_ms_[class_index(c)].count;
}

double ServeStats::class_percentile_latency_ms(Priority c, double p) const {
  return checked_percentile(class_latency_ms_[class_index(c)], p);
}

double ServeStats::class_mean_latency_ms(Priority c) const {
  return class_latency_ms_[class_index(c)].mean();
}

double ServeStats::batch_fill() const {
  return padded_rows_ == 0
             ? 0.0
             : static_cast<double>(rows_) / static_cast<double>(padded_rows_);
}

double ServeStats::mean_batch_requests() const {
  return batches_ == 0 ? 0.0
                       : static_cast<double>(completed_) / static_cast<double>(batches_);
}

double ServeStats::percentile_latency_ms(double p) const {
  return checked_percentile(latency_ms(), p);
}

double ServeStats::mean_latency_ms() const { return latency_ms().mean(); }

double ServeStats::requests_per_simulated_second(double clock_mhz) const {
  const double secs = cycles_.seconds(clock_mhz);
  return secs == 0.0 ? 0.0 : static_cast<double>(completed_) / secs;
}

}  // namespace onesa::serve
