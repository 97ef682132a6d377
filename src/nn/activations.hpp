// Element-wise activation layers. On the accelerator each maps to one
// IPF + MHP pass with the corresponding CPWL table.
#pragma once

#include "cpwl/functions.hpp"
#include "cpwl/segment_table.hpp"
#include "nn/layer.hpp"

namespace onesa::nn {

/// Generic element-wise activation parameterized by the catalog function.
///
/// forward() evaluates the exact reference function by default (GELU through
/// the vectorized cpwl::gelu_exact over the whole matrix). Point the
/// layer at a CPWL table with use_table() and forward() instead runs the
/// table's batched O(1) grid lookup (tensor/kernels-era SoA fast path) —
/// the double-precision functional model of the accelerator's nonlinear
/// pass, useful for approximation studies without the INT16 datapath.
/// backward() always uses the exact derivative; the CPWL mode is an
/// inference-side approximation, not a training nonlinearity.
class Activation : public Layer {
 public:
  explicit Activation(cpwl::FunctionKind kind);

  std::string name() const override { return std::string(cpwl::function_name(kind_)); }

  tensor::Matrix forward(const tensor::Matrix& x) override;
  tensor::Matrix backward(const tensor::Matrix& grad_out) override;
  tensor::Matrix infer(const tensor::Matrix& x) const override;

  tensor::FixMatrix forward_accel(OneSaAccelerator& accel,
                                  const tensor::FixMatrix& x) override;
  void count_ops(OpCensus& census, std::size_t batch) const override;

  cpwl::FunctionKind kind() const { return kind_; }

  /// Feature width must be set (or inferred from the first forward) before
  /// count_ops can attribute element counts.
  void set_features(std::size_t features) { features_ = features; }

  /// Evaluate forward() through `table` (not owned; must outlive the layer
  /// and approximate this layer's function). nullptr restores the exact path.
  void use_table(const cpwl::SegmentTable* table) { table_ = table; }
  const cpwl::SegmentTable* table() const { return table_; }

  /// True when this activation can ride in a preceding Linear's fused GEMM
  /// epilogue with bit-identical results: table mode (any function — the
  /// epilogue evaluates the same table the batched path would) or exact
  /// ReLU (the one catalog function whose reference evaluation the epilogue
  /// reproduces bit for bit). Sequential::infer pairs on this.
  bool epilogue_fusable() const {
    return table_ != nullptr || kind_ == cpwl::FunctionKind::kRelu;
  }

 private:
  double derivative(double x) const;

  cpwl::FunctionKind kind_;
  const cpwl::SegmentTable* table_ = nullptr;
  tensor::Matrix cached_input_;
  std::size_t features_ = 0;
};

/// Convenience factories.
LayerPtr make_relu();
LayerPtr make_gelu();
LayerPtr make_tanh();
LayerPtr make_sigmoid();

}  // namespace onesa::nn
