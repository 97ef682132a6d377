// Per-layer replay for the traced run: direct calls into each layer's public
// functions on the workload's own requests, shapes and weights, each call
// recorded as a span. Produces the net codec, nn, kernels and cpwl metrics.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "serve/registry.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace e2e {

struct GemmShape {
  std::size_t m = 0, k = 0, n = 0;
  double calls_per_request = 0.0;
  double ms_per_call = 0.0;  // measured median

  double flops() const { return 2.0 * static_cast<double>(m * k * n); }
};

struct ReplayResult {
  std::map<std::string, double> metrics;  // per-layer metric name -> value
  std::vector<GemmShape> gemms;           // the workload's GEMM shapes, measured
  const char* gemm_lane = "";             // "double" or "int16"
};

/// Replay every layer for about `budget_ms` in total.
ReplayResult replay_layers(const WorkloadSpec& spec, const RequestPool& pool,
                           const std::vector<onesa::serve::ModelHandle>& handles,
                           double budget_ms, SpanRecorder& spans);

}  // namespace e2e
