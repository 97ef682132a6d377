#include "nn/activations.hpp"

#include <cmath>
#include <span>

#include "common/error.hpp"
#include "cpwl/gelu.hpp"

namespace onesa::nn {

Activation::Activation(cpwl::FunctionKind kind) : kind_(kind) {}

tensor::Matrix Activation::forward(const tensor::Matrix& x) {
  cached_input_ = x;
  features_ = x.cols();
  return infer(x);
}

tensor::Matrix Activation::infer(const tensor::Matrix& x) const {
  if (table_ == nullptr && kind_ != cpwl::FunctionKind::kGelu) {
    return x.map([this](double v) { return cpwl::eval_reference(kind_, v); });
  }
  tensor::Matrix y(x.rows(), x.cols(), tensor::kUninitialized);
  const std::span<const double> in(x.data().data(), x.size());
  const std::span<double> out(y.data().data(), y.size());
  if (table_ != nullptr) {
    table_->eval_batch(in, out);  // CPWL functional mode: one batched grid lookup
  } else {
    cpwl::gelu_exact(in, out);  // the vectorized exact GELU, same bits as eval_reference
  }
  return y;
}

double Activation::derivative(double x) const {
  switch (kind_) {
    case cpwl::FunctionKind::kRelu:
      return x > 0.0 ? 1.0 : 0.0;
    case cpwl::FunctionKind::kLeakyRelu:
      return x > 0.0 ? 1.0 : 0.01;
    case cpwl::FunctionKind::kGelu: {
      // d/dx [x Phi(x)] = Phi(x) + x phi(x).
      const double phi = std::exp(-0.5 * x * x) / std::sqrt(2.0 * M_PI);
      const double Phi = 0.5 * (1.0 + std::erf(x / std::sqrt(2.0)));
      return Phi + x * phi;
    }
    case cpwl::FunctionKind::kTanh: {
      const double t = std::tanh(x);
      return 1.0 - t * t;
    }
    case cpwl::FunctionKind::kSigmoid: {
      const double s = 1.0 / (1.0 + std::exp(-x));
      return s * (1.0 - s);
    }
    case cpwl::FunctionKind::kSilu: {
      const double s = 1.0 / (1.0 + std::exp(-x));
      return s * (1.0 + x * (1.0 - s));
    }
    case cpwl::FunctionKind::kSoftplus:
      return 1.0 / (1.0 + std::exp(-x));
    default:
      throw Error("activation '" + std::string(cpwl::function_name(kind_)) +
                  "' has no training derivative implemented");
  }
}

tensor::Matrix Activation::backward(const tensor::Matrix& grad_out) {
  ONESA_CHECK_SHAPE(grad_out.rows() == cached_input_.rows() &&
                        grad_out.cols() == cached_input_.cols(),
                    "activation backward shape");
  tensor::Matrix grad_in(grad_out.rows(), grad_out.cols());
  for (std::size_t i = 0; i < grad_out.size(); ++i) {
    grad_in.at_flat(i) = grad_out.at_flat(i) * derivative(cached_input_.at_flat(i));
  }
  return grad_in;
}

tensor::FixMatrix Activation::forward_accel(OneSaAccelerator& accel,
                                            const tensor::FixMatrix& x) {
  return accel.elementwise(kind_, x).y;
}

void Activation::count_ops(OpCensus& census, std::size_t batch) const {
  const double elems = static_cast<double>(batch) * static_cast<double>(features_);
  // One CPWL evaluation = one multiply + one add per element.
  switch (kind_) {
    case cpwl::FunctionKind::kRelu:
    case cpwl::FunctionKind::kLeakyRelu:
      census.relu += elems;
      break;
    case cpwl::FunctionKind::kGelu:
      census.gelu += 2.0 * elems;
      break;
    default:
      census.multiply += elems;
      census.add += elems;
      break;
  }
}

LayerPtr make_relu() { return std::make_unique<Activation>(cpwl::FunctionKind::kRelu); }
LayerPtr make_gelu() { return std::make_unique<Activation>(cpwl::FunctionKind::kGelu); }
LayerPtr make_tanh() { return std::make_unique<Activation>(cpwl::FunctionKind::kTanh); }
LayerPtr make_sigmoid() {
  return std::make_unique<Activation>(cpwl::FunctionKind::kSigmoid);
}

}  // namespace onesa::nn
