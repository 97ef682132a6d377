// Version-keyed packed-weight cache shared by every layer that multiplies by
// a weight matrix.
//
// A layer that multiplies activations against a weight Param on its
// inference path (Linear, Conv2d's im2col GEMM, the attention projections)
// owns one PackedWeightCache per weight matrix. Products of two activations
// — attention's per-head scores and context — have no weight to cache: they
// run through plain kernels::gemm(), which packs their B on every call at
// blocked-path widths. get() returns the weight in the kernel layer's
// PackedB form, rebuilding it only when the Param's version has moved
// (every optimizer step bumps it), so frozen serving
// models pack each weight exactly once per fleet-shared registry entry and
// training invalidates automatically. The mutex only guards the
// (pointer, version) pair — the PackedB itself is immutable after
// construction, so N serving threads GEMM against one shared copy
// lock-free, and in-flight GEMMs keep their copy alive across a rebuild via
// the shared_ptr.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>

#include "nn/layer.hpp"
#include "tensor/kernels/pack.hpp"

namespace onesa::nn {

class PackedWeightCache {
 public:
  /// The packed form of `weight.value`, rebuilt iff `weight.version` moved
  /// since the last call (or nothing is cached yet).
  std::shared_ptr<const tensor::kernels::PackedB> get(const Param& weight) const {
    std::lock_guard<std::mutex> lock(mutex_);
    if (packed_ == nullptr || version_ != weight.version) {
      packed_ = std::make_shared<tensor::kernels::PackedB>(tensor::kernels::PackedB::pack(
          weight.value.data().data(), weight.value.rows(), weight.value.cols()));
      version_ = weight.version;
    }
    return packed_;
  }

  /// Drop the cache. Only needed after assigning the Param's value directly
  /// (the optimizers bump Param::version instead).
  void invalidate() const {
    std::lock_guard<std::mutex> lock(mutex_);
    packed_ = nullptr;
  }

 private:
  mutable std::mutex mutex_;
  mutable std::shared_ptr<const tensor::kernels::PackedB> packed_;
  mutable std::uint64_t version_ = 0;
};

}  // namespace onesa::nn
