#include "cpwl/functions.hpp"

#include <cmath>

#include "common/error.hpp"
#include "cpwl/gelu.hpp"

namespace onesa::cpwl {

std::vector<FunctionKind> all_functions() {
  return {FunctionKind::kGelu,     FunctionKind::kExp,      FunctionKind::kReciprocal,
          FunctionKind::kRsqrt,    FunctionKind::kSqrt,     FunctionKind::kTanh,
          FunctionKind::kSigmoid,  FunctionKind::kErf,      FunctionKind::kSoftplus,
          FunctionKind::kSilu,     FunctionKind::kRelu,     FunctionKind::kLeakyRelu};
}

std::string_view function_name(FunctionKind kind) {
  switch (kind) {
    case FunctionKind::kGelu: return "gelu";
    case FunctionKind::kExp: return "exp";
    case FunctionKind::kReciprocal: return "reciprocal";
    case FunctionKind::kRsqrt: return "rsqrt";
    case FunctionKind::kSqrt: return "sqrt";
    case FunctionKind::kTanh: return "tanh";
    case FunctionKind::kSigmoid: return "sigmoid";
    case FunctionKind::kErf: return "erf";
    case FunctionKind::kSoftplus: return "softplus";
    case FunctionKind::kSilu: return "silu";
    case FunctionKind::kRelu: return "relu";
    case FunctionKind::kLeakyRelu: return "leaky_relu";
  }
  throw Error("unknown FunctionKind");
}

double eval_reference(FunctionKind kind, double x) {
  switch (kind) {
    case FunctionKind::kGelu:
      return gelu_exact(x);
    case FunctionKind::kExp:
      return std::exp(x);
    case FunctionKind::kReciprocal:
      ONESA_CHECK(x != 0.0, "reciprocal of zero");
      return 1.0 / x;
    case FunctionKind::kRsqrt:
      ONESA_CHECK(x > 0.0, "rsqrt of non-positive " << x);
      return 1.0 / std::sqrt(x);
    case FunctionKind::kSqrt:
      ONESA_CHECK(x >= 0.0, "sqrt of negative " << x);
      return std::sqrt(x);
    case FunctionKind::kTanh:
      return std::tanh(x);
    case FunctionKind::kSigmoid:
      return 1.0 / (1.0 + std::exp(-x));
    case FunctionKind::kErf:
      return std::erf(x);
    case FunctionKind::kSoftplus:
      // Numerically stable ln(1+e^x).
      return x > 0 ? x + std::log1p(std::exp(-x)) : std::log1p(std::exp(x));
    case FunctionKind::kSilu:
      return x / (1.0 + std::exp(-x));
    case FunctionKind::kRelu:
      return x > 0.0 ? x : 0.0;
    case FunctionKind::kLeakyRelu:
      return x > 0.0 ? x : 0.01 * x;
  }
  throw Error("unknown FunctionKind");
}

Domain default_domain(FunctionKind kind) {
  switch (kind) {
    case FunctionKind::kGelu: return {-8.0, 8.0};
    // Softmax subtracts the row max before exponentiation, so exp only ever
    // sees non-positive inputs; e^-16 is already below INT16 resolution.
    case FunctionKind::kExp: return {-16.0, 0.0};
    // The reciprocal feeds on Softmax partition sums, which are >= 1 after
    // the max subtraction (the max element contributes exp(0) = 1). Starting
    // the domain at 0.5 keeps the piecewise-linear slopes representable in
    // Q6.9 — 1/x below 0.5 is too steep for INT16 slopes.
    case FunctionKind::kReciprocal: return {0.5, 32.0};
    case FunctionKind::kRsqrt: return {0.0625, 32.0};
    case FunctionKind::kSqrt: return {0.0, 32.0};
    case FunctionKind::kTanh: return {-4.0, 4.0};
    case FunctionKind::kSigmoid: return {-8.0, 8.0};
    case FunctionKind::kErf: return {-4.0, 4.0};
    case FunctionKind::kSoftplus: return {-8.0, 8.0};
    case FunctionKind::kSilu: return {-8.0, 8.0};
    case FunctionKind::kRelu: return {-8.0, 8.0};
    case FunctionKind::kLeakyRelu: return {-8.0, 8.0};
  }
  throw Error("unknown FunctionKind");
}

bool positive_only(FunctionKind kind) {
  switch (kind) {
    case FunctionKind::kReciprocal:
    case FunctionKind::kRsqrt:
    case FunctionKind::kSqrt:
      return true;
    default:
      return false;
  }
}

std::function<double(double)> as_callable(FunctionKind kind) {
  return [kind](double x) { return eval_reference(kind, x); };
}

}  // namespace onesa::cpwl
