// The benchmark's three workloads. Each one stresses a different layer and
// bypasses another, so a change to one layer has a workload that exercises
// it and one on which the prediction is "no change":
//
//  front-door  two tiny batchable MLPs, 1-row requests, 30% interactive.
//              Kernels are a rounding error; net + serve set the numbers.
//  ffn-int16   BERT FFN (768 -> 3072 -> GELU -> 768) on the INT16 lane, GELU
//              through its CPWL table, batchable 16-row requests. INT16 GEMM
//              and the fixed-point table epilogue dominate; ~100 KB frames
//              stress net by bytes instead of by frame count.
//  encoder     one BERT-base-width encoder block (d_model 768, 12 heads, FFN
//              3072) on the double lane, 32 token ids per request, solo
//              batches. Double GEMMs, softmax, LayerNorm and GELU dominate.
//
// Offered rates, the SLO ladder and the latency limit are fixed absolute
// numbers per workload (never derived from a probe), so a parent commit and
// a change always see the same load.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "loadgen.hpp"
#include "nn/sequential.hpp"
#include "serve/registry.hpp"
#include "tensor/matrix.hpp"

namespace e2e {

struct ServedModel {
  std::string name;
  onesa::serve::ModelOptions options;
  /// Deterministic weights: every call returns an identical model.
  std::function<std::unique_ptr<onesa::nn::Sequential>()> build;
  /// One request input drawn from the workload seed's stream.
  std::function<onesa::tensor::Matrix(onesa::Rng&)> make_input;
};

/// 31 rungs: bisection settles in 5 decisions (lo = -1, hi = 31).
inline constexpr std::size_t kLadderRungs = 31;

struct WorkloadSpec {
  std::string name;
  std::vector<ServedModel> models;
  double interactive_share = 0.0;
  /// Open-loop Poisson rate of the nominal phase (latency, CPU per request).
  double nominal_rps = 0.0;
  /// SLO ladder: rung i offers ladder_base_rps * ladder_step^i,
  /// i < kLadderRungs, spanning from below to well above the capacity seen
  /// on a busy and on a quiet 4-CPU virtualized host.
  double ladder_base_rps = 0.0;
  double ladder_step = 1.0;
  /// Latency limit a request must meet to count towards slo_rps.
  double limit_ms = 0.0;
  /// Distinct pre-encoded requests the schedule draws from.
  std::size_t pool_size = 0;
  /// Cold set-ups per run, each in a fresh process (setup_s is their median).
  std::size_t setups = 1;
  /// CPUs the server may use (1..server_cpus); the generator has CPU 0.
  unsigned server_cpus = 3;

  /// Rung -1 (below the ladder) is ladder_base_rps / ladder_step.
  double ladder_rps(int rung) const;
};

/// The requests a run sends, generated from the workload seed, with the
/// outputs every reply is checked against.
struct RequestPool {
  std::vector<EncodedRequest> requests;  // pre-encoded kInfer frames
  std::vector<std::uint32_t> model;      // index into WorkloadSpec::models
  std::vector<onesa::serve::Priority> priority;
  std::vector<onesa::tensor::Matrix> inputs;
  /// In-process inference on the served lane: Sequential::infer (double)
  /// or QuantizedModel::infer (INT16). Replies must match bit for bit.
  std::vector<onesa::tensor::Matrix> lane_ref;
  /// The double forward; equal to lane_ref on double lanes.
  std::vector<onesa::tensor::Matrix> double_ref;
};

/// Build `spec.pool_size` requests from `seed`; references are computed on
/// the registered models behind `handles` (index-aligned with spec.models).
RequestPool make_pool(const WorkloadSpec& spec, std::uint64_t seed,
                      const std::vector<onesa::serve::ModelHandle>& handles);

const std::vector<WorkloadSpec>& workloads();
/// nullptr when `name` is not a workload.
const WorkloadSpec* find_workload(const std::string& name);

}  // namespace e2e
