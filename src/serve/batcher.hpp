// Dynamic request batching.
//
// The systolic array runs full when a pass covers whole tiles; a lone
// 2-row request on an 8-row array wastes 6/8 of the fill/drain work (the
// small-matrix throughput cliff of §V-C). The batcher packs compatible
// requests — same op, same width, same weight — by stacking their rows into
// one tall input, pads the stack with zero rows to a whole number of
// array-height tiles, runs ONE accelerator pass, and slices each request's
// rows back out of the result. Row-independence of every batched op (GEMM
// rows, elementwise evaluation) makes the sliced outputs bit-identical to
// serving each request alone, which tests/test_serve.cpp asserts.
//
// Model requests (real nn::Sequential inference) batch the same way when the
// registry marked the model batchable (rows are independent samples): the
// input rows of every request stack into one matrix, ONE infer() call runs
// through the kernel-layer GEMMs, and each request gets its logit rows back
// — bit-identical to a direct forward because every batchable layer is
// row-independent. Non-batchable models (per-sequence transformers) execute
// one request per pass, like traces.
#pragma once

#include <vector>

#include "onesa/accelerator.hpp"
#include "serve/request.hpp"
#include "serve/stats.hpp"

namespace onesa::serve {

/// A queue's scheduling backlog. Pool-backed like the tensor buffers, so
/// its growth on the worker path is a pool hit, not a heap allocation.
using RequestBacklog = std::vector<ServeRequest, tensor::DefaultInitAllocator<ServeRequest>>;

struct BatcherConfig {
  /// Row budget of one packed tile stack (requests stop being added once
  /// the stack would exceed this).
  std::size_t max_batch_rows = 64;
  /// Cap on requests packed into one batch.
  std::size_t max_batch_requests = 16;
  /// Latency-aware batching window for elementwise/GEMM requests: a
  /// partially filled batch headed by a non-interactive request waits up to
  /// this long (ms, from the head's enqueue) for more compatible riders
  /// before launching anyway. 0 (default) launches immediately — the
  /// pre-window behaviour. Model requests use their registry entry's
  /// per-model batch_window_ms instead; interactive-class heads always
  /// launch immediately. Window expiries are counted in ServeStats.
  double max_batch_wait_ms = 0.0;

  void validate() const;
};

class DynamicBatcher {
 public:
  explicit DynamicBatcher(BatcherConfig config = {});

  const BatcherConfig& config() const { return config_; }

  /// Can `req` ride in the same accelerator pass as `head`? Same-kind,
  /// same-function (elementwise) or same-weight (GEMM) or same-batchable-
  /// model (kModel), same width. Trace requests never batch — each is a
  /// whole model execution.
  static bool compatible(const ServeRequest& head, const ServeRequest& req);

  /// Pop the head request plus every later compatible request (within the
  /// config budgets) from `pending` into `out` (cleared first; both vectors
  /// keep their capacity, so a worker passing the same pair every iteration
  /// stages batches without allocating), preserving arrival order. The
  /// caller holds the queue lock. `out` is empty iff `pending` is empty.
  void take_batch(RequestBacklog& pending, std::vector<ServeRequest>& out) const;

  /// Convenience overload for tests and one-shot callers.
  std::vector<ServeRequest> take_batch(RequestBacklog& pending) const {
    std::vector<ServeRequest> out;
    take_batch(pending, out);
    return out;
  }

  /// Run one batch on `accel`, fulfill every request's promise with its
  /// sliced rows, and return the batch's accounting (cycles charged once).
  /// The stack is padded to a multiple of the accelerator's array height.
  /// `shard` is stamped into every result and the record (fleet visibility;
  /// 0 for a standalone pool). The requests are consumed — on return the
  /// elements of `batch` are moved-from and only the vector's capacity is
  /// worth keeping (the worker loop reuses it for the next pop).
  BatchRecord execute(std::vector<ServeRequest>& batch, OneSaAccelerator& accel,
                      std::size_t worker, std::size_t shard = 0) const;

 private:
  BatcherConfig config_;
};

}  // namespace onesa::serve
