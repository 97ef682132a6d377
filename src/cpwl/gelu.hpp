// The exact GELU, x * Phi(x) = 0.5 x (1 + erf(x / sqrt 2)), over whole
// buffers at vector speed.
//
// One implementation serves every exact-GELU caller: cpwl::eval_reference
// (and so every CPWL table built for kGelu) and nn::Activation's exact
// path. The erf inside is the classic fdlibm rational-approximation erf,
// evaluated with the same expression trees and coefficients the C library
// uses, branch-free per lane (a vector computes the interval formulas its
// lanes need and blends), plus a table-driven vector exp for the tail
// intervals, run for a vector only when one of its lanes needs it. Three
// spellings exist — AVX-512, AVX2 and portable scalar — and they give
// identical bits: the rational parts run plain IEEE multiply/add/divide
// with contraction disabled, and the exp uses fused multiply-add in every
// tier (std::fma in the scalar one).
//
// Accuracy: within 4 * 2^-52 * max(1, |x|) of 0.5*x*(1+std::erf(x/sqrt 2))
// over the whole double range, and bit-identical to it wherever the erf
// stays off the exp-based tail (|x| < 1.77); in the tail the two exps
// differ from the C library's in the last place now and then, which moves
// the GELU bits about once in 10^5 draws (asserted in tests/test_cpwl.cpp).
#pragma once

#include <cstddef>
#include <span>

namespace onesa::cpwl {

/// y[i] = GELU(x[i]). Spans must have equal length; x and y may alias
/// exactly (in-place) but not partially overlap.
void gelu_exact(std::span<const double> x, std::span<double> y);

/// Scalar GELU, bit-identical to the span overload.
double gelu_exact(double x);

namespace detail {

/// The three spellings of gelu_exact. The span overload runs the widest one
/// the CPU supports; tests force each to assert they agree bit for bit.
enum class GeluTier { kAvx512, kAvx2, kPortable };

/// True when this CPU (and build) can run `tier`.
bool gelu_tier_available(GeluTier tier);

/// gelu_exact through one forced tier (must be available).
void gelu_exact_tier(GeluTier tier, std::span<const double> x, std::span<double> y);

}  // namespace detail

}  // namespace onesa::cpwl
