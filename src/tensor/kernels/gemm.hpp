// Cache-blocked, multi-threaded double-precision GEMM over flat row-major
// buffers — the fast path behind tensor::matmul.
//
// Structure (BLIS-style, scaled down to readable C++). One pipeline serves
// every caller: gemm() packs B once per call, gemm_packed() takes B packed
// ahead of time, and both then run the same loop nest on row slices of A
// (one slice per kernel-pool lane, all reading the one packed B):
//
//   pack B into NR-wide slivers per (KC x NC) panel      (once, see pack.hpp)
//   pack the slice's A into MR-tall slivers per (MC x KC) block   (once)
//   for jc over N in NC columns            (B column panel)
//     for kc over K in KC rows             (k-panel)
//       for ic over M in MC rows           (A row block)
//         for each MR x NR micro-tile: k-panel inner loop on register
//           accumulators, then one store (first panel) or accumulate-store
//
// Per output element the k-panel sums are formed in registers and added back
// panel-by-panel in ascending k order. That reassociates the reference
// accumulation (c += a_ik * b_kj for k ascending), so results can differ
// from gemm_reference by rounding only — bounded well under 1e-12 relative
// for the library's workloads and asserted in tests/test_kernels.cpp. When
// bit-exact reproduction of the seed numerics is required, set the
// ONESA_DETERMINISTIC_KERNELS environment variable (or call
// set_deterministic(true)): every matmul then takes the reference-order
// single-thread path.
#pragma once

#include <cstddef>

#include "tensor/kernels/pack.hpp"
#include "tensor/view.hpp"

namespace onesa::tensor::kernels {

/// Reference GEMM: exactly the seed tensor::matmul loop nest (i-k-j, c
/// zero-filled then accumulated in ascending k order). C is fully
/// overwritten; A is m x k, B is k x n, C is m x n, all row-major.
void gemm_reference(const double* a, const double* b, double* c, std::size_t m,
                    std::size_t k, std::size_t n);

/// Production entry point: reference order (deterministic mode or tiny
/// rows), else B packed ONCE into a per-thread scratch and the blocked
/// pipeline of gemm_packed() over row slices spread across the kernel
/// ThreadPool by problem size — each (kc, jc) panel is packed exactly once
/// per call, at any thread count. C is fully overwritten.
void gemm(const double* a, const double* b, double* c, std::size_t m, std::size_t k,
          std::size_t n);

/// GEMM against a pre-packed B (see pack.hpp): the repeated-B hot path. No
/// packing happens here at all — single- and multi-thread paths both consume
/// the one shared packed copy — and the optional epilogue fuses the bias
/// broadcast + activation into the output store, removing the separate
/// add_row_broadcast/activation passes over C.
///
/// Numerics contract (all asserted in tests/test_kernels.cpp):
///  - bit-identical to gemm(a, B, c, ...) on the unpacked B for every shape
///    and thread count (identical dispatch criterion, identical loop
///    orders, identical packed layout);
///  - with an epilogue, bit-identical to the unfused composition
///    matmul + add_row_broadcast + activation (bias and activation are
///    applied once per element, after its complete k-sum, in the same
///    order);
///  - deterministic mode falls back to the seed reference loop order
///    (reading B back out of the packed layout — loss-free), epilogue
///    applied as a separate pass, exactly like the unfused ops would;
///  - row-stable under stacking: same per-row k*n dispatch criterion as
///    gemm(), so batching requests never changes a row's bits.
void gemm_packed(const double* a, const PackedB& b, double* c, std::size_t m,
                 const Epilogue& epi = {});

/// View overload of gemm_packed: the serve tier's arena-staged buffers run
/// straight through the packed kernel without materializing an owning
/// Matrix, and — unlike the raw-pointer form — the shapes are CHECKED
/// against the packed weights (a.cols == B.k, c == a.rows x B.n). Both
/// views must be contiguous (stride == cols): the blocked kernel streams
/// flat row-major panels, so a stride-padded staging view is sub-viewed or
/// copied into contiguous form first (MemoryStack::allocate_matrix with
/// pad_rows=false gives contiguous directly). Numerics are bit-identical
/// to the pointer overload by construction.
void gemm_packed(ConstMatrixView a, const PackedB& b, MatrixView c,
                 const Epilogue& epi = {});

/// Threads the dispatcher would use for an m x k x n problem (1 = serial).
/// Exposed for tests and the perf harness.
std::size_t gemm_threads(std::size_t m, std::size_t k, std::size_t n);

/// Deterministic-kernel switch. Defaults to the ONESA_DETERMINISTIC_KERNELS
/// environment variable (any non-empty value but "0" enables it); the setter
/// overrides the environment for the rest of the process.
bool deterministic();
void set_deterministic(bool on);

}  // namespace onesa::tensor::kernels
