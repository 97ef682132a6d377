#include "tensor/kernels/gemm.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <string>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <immintrin.h>
#define ONESA_GEMM_X86_KERNELS 1
#endif

#include "common/error.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "tensor/arena.hpp"
#include "tensor/kernels/pack.hpp"
#include "tensor/kernels/thread_pool.hpp"

namespace onesa::tensor::kernels {

namespace {

// Blocking parameters shared with the packer live in pack.hpp (kKC / kNC):
// the packer and this loop nest must agree on the panel geometry. The
// micro-tile is mr x nr register accumulators (both per-ISA, below); the
// packed A block (MC x KC) targets L2, the packed B sliver (KC x nr)
// streams from L1 while a whole B panel (KC x NC) sits behind it.
constexpr std::size_t KC = kKC;
constexpr std::size_t NC = kNC;

/// Row-block height of the packed A. B always arrives pre-packed (by the
/// caller, or once per gemm() call), so there is no pack-as-you-go
/// locality to protect: a tall block (A block 128 x KC = 256 KB, still
/// L2-resident) halves how often each packed B panel must be re-streamed
/// from L3 for short serving batches. Pure traversal parameter — bits are
/// unaffected.
constexpr std::size_t MC = 128;

/// Problems whose PER-ROW work (k * n MACs) is below this take the
/// reference-order loop (row-sliced over the pool when m alone makes the
/// problem big): packing overhead dominates before the blocked path can
/// win on such skinny rows. The criterion is deliberately independent of m
/// so that stacking extra rows onto a GEMM never changes which kernel path
/// — and therefore which bit pattern — a given row's result takes. The
/// serving tier's dynamic batcher relies on this: a request served inside a
/// tall batched matmul must be bit-identical to the same request served
/// alone (blocked results are per-row position-independent, see
/// blocked_over_packed; this keeps the reference/blocked dispatch
/// row-stable too). Kept small (8x8) so real workload shapes — e.g. conv
/// im2col GEMMs with k*n in the hundreds — stay on the blocked SIMD path at
/// any m. gemm() and gemm_packed() share the criterion.
constexpr std::size_t kTinyRowMacs = 8 * 8;

/// Minimum MACs per thread before the multi-thread path switches on.
constexpr std::size_t kMacsPerThread = 1u << 20;

/// Largest A-pack scratch a thread keeps alive between calls. Reuse matters
/// on the serving hot path (small per-request A packs, zero allocations),
/// but a one-off huge training GEMM must not pin tens of MB on every pool
/// lane for the rest of its life — anything above this is freed.
constexpr std::size_t kScratchRetainBytes = 4u << 20;

/// Largest packed-B scratch gemm()'s calling thread keeps between calls. A
/// freed scratch costs one page fault per 4 KB when the next call re-packs
/// (4.6k faults took a single-thread 128x3072x768 GEMM from ~21 to ~28 ms),
/// so the cap sits above the BERT-base weights (768x3072 packs to 18.9 MB).
/// Pool lanes only read the caller's scratch; they keep none of their own.
constexpr std::size_t kPackedBRetainBytes = 32u << 20;

std::size_t round_up(std::size_t v, std::size_t to) { return (v + to - 1) / to * to; }

// ---------------------------------------------------------- micro-kernels
//
// A micro-kernel computes acc[mr x nr] = sum_p ap[p][:] (outer) bp[p][:]
// over mr-tall A slivers and nr-wide B slivers, accumulators held in
// registers across the whole k-panel — this is where the speedup over the
// reference loop comes from (the reference re-reads and re-writes the C row
// every k step). Three ISA variants exist (AVX-512 8x16, AVX2 4x8,
// portable 4x8); which one runs is picked once at startup from CPUID, the
// same runtime-dispatch scheme BLAS libraries use, so no special build
// flags are needed and the baseline C++ kernel remains the portable
// fallback.
//
// Numerics: every variant accumulates each output element in the same
// ascending-k order as the reference, so for finite inputs the only
// divergence is rounding — k-panel partial sums are added back
// panel-by-panel (reassociation) and the x86 kernels fuse the multiply+add
// (FMA). Both effects stay inside the documented 1e-12 relative envelope.
// (Non-finite operands are outside the contract: the reference's aik==0
// skip can hide 0*Inf/NaN products the blocked kernels would surface.)
// Deterministic mode bypasses the micro-kernels entirely.

using MicroKernelFn = void (*)(const double*, const double*, std::size_t, double*);

/// Tile height of the AVX2 and portable micro-kernels.
constexpr std::size_t MR = kMR;

/// Full-tile store hook of a micro-kernel (nullptr = scalar store loops).
/// The enumerator values are load-bearing: implementations decode
/// accumulate with `mode & 1` and the epilogue tiers with ordered
/// comparisons, so keep the copy/accum pairs adjacent and in this order.
enum StoreMode : int {
  kStoreCopy = 0,
  kStoreAccum = 1,
  kStoreCopyBias = 2,
  kStoreAccumBias = 3,
  kStoreCopyBiasRelu = 4,
  kStoreAccumBiasRelu = 5,
};
using StoreTileFn = void (*)(double* c, std::size_t ldc, const double* acc, int mode,
                             const double* bias);

/// Portable fallback, 4x8. The accumulator tile is a local array (not the
/// caller's buffer): the compiler then knows it cannot alias the packed
/// inputs and keeps the accumulators in vector registers.
void micro_kernel_generic(const double* __restrict ap, const double* __restrict bp,
                          std::size_t kc, double* __restrict acc_out) {
  constexpr std::size_t nr = 8;
  double acc[MR * nr];
  for (std::size_t i = 0; i < MR * nr; ++i) acc[i] = 0.0;
  for (std::size_t p = 0; p < kc; ++p) {
    const double* __restrict av = ap + p * MR;
    const double* __restrict bv = bp + p * nr;
    for (std::size_t r = 0; r < MR; ++r) {
      const double ar = av[r];
      double* __restrict accr = acc + r * nr;
      for (std::size_t cc = 0; cc < nr; ++cc) accr[cc] += ar * bv[cc];
    }
  }
  for (std::size_t i = 0; i < MR * nr; ++i) acc_out[i] = acc[i];
}

#ifdef ONESA_GEMM_X86_KERNELS
/// Hand-scheduled 4x8 AVX2+FMA tile: 8 ymm accumulators (4 rows x 2
/// 4-double vectors), one broadcast per A element, two B vector loads per k
/// step — 13 live ymm registers, no spills.
__attribute__((target("avx2,fma"))) void micro_kernel_avx2(const double* __restrict ap,
                                                           const double* __restrict bp,
                                                           std::size_t kc,
                                                           double* __restrict acc_out) {
  constexpr std::size_t nr = 8;
  __m256d c00 = _mm256_setzero_pd(), c01 = _mm256_setzero_pd();
  __m256d c10 = _mm256_setzero_pd(), c11 = _mm256_setzero_pd();
  __m256d c20 = _mm256_setzero_pd(), c21 = _mm256_setzero_pd();
  __m256d c30 = _mm256_setzero_pd(), c31 = _mm256_setzero_pd();
  for (std::size_t p = 0; p < kc; ++p) {
    const __m256d b0 = _mm256_loadu_pd(bp + p * nr);
    const __m256d b1 = _mm256_loadu_pd(bp + p * nr + 4);
    __m256d a = _mm256_broadcast_sd(ap + p * MR + 0);
    c00 = _mm256_fmadd_pd(a, b0, c00);
    c01 = _mm256_fmadd_pd(a, b1, c01);
    a = _mm256_broadcast_sd(ap + p * MR + 1);
    c10 = _mm256_fmadd_pd(a, b0, c10);
    c11 = _mm256_fmadd_pd(a, b1, c11);
    a = _mm256_broadcast_sd(ap + p * MR + 2);
    c20 = _mm256_fmadd_pd(a, b0, c20);
    c21 = _mm256_fmadd_pd(a, b1, c21);
    a = _mm256_broadcast_sd(ap + p * MR + 3);
    c30 = _mm256_fmadd_pd(a, b0, c30);
    c31 = _mm256_fmadd_pd(a, b1, c31);
  }
  _mm256_storeu_pd(acc_out + 0, c00);
  _mm256_storeu_pd(acc_out + 4, c01);
  _mm256_storeu_pd(acc_out + 8, c10);
  _mm256_storeu_pd(acc_out + 12, c11);
  _mm256_storeu_pd(acc_out + 16, c20);
  _mm256_storeu_pd(acc_out + 20, c21);
  _mm256_storeu_pd(acc_out + 24, c30);
  _mm256_storeu_pd(acc_out + 28, c31);
}

/// 8x16 AVX-512 tile: 16 zmm accumulators (8 rows x 2 8-double vectors),
/// 19 live zmm registers out of 32. Eight rows keep 16 accumulators in
/// flight (fully hiding FMA latency, where 8 would sit right at the
/// latency-throughput product) and halve the B sliver loads per MAC
/// against a 4-row tile. Per output element the k-loop order is the same
/// as every other variant's — the micro-tile height only groups rows.
__attribute__((target("avx512f"))) void micro_kernel_avx512_8x16(
    const double* __restrict ap, const double* __restrict bp, std::size_t kc,
    double* __restrict acc_out) {
  constexpr std::size_t nr = 16;
  constexpr std::size_t mr = 8;
  __m512d c00 = _mm512_setzero_pd(), c01 = _mm512_setzero_pd();
  __m512d c10 = _mm512_setzero_pd(), c11 = _mm512_setzero_pd();
  __m512d c20 = _mm512_setzero_pd(), c21 = _mm512_setzero_pd();
  __m512d c30 = _mm512_setzero_pd(), c31 = _mm512_setzero_pd();
  __m512d c40 = _mm512_setzero_pd(), c41 = _mm512_setzero_pd();
  __m512d c50 = _mm512_setzero_pd(), c51 = _mm512_setzero_pd();
  __m512d c60 = _mm512_setzero_pd(), c61 = _mm512_setzero_pd();
  __m512d c70 = _mm512_setzero_pd(), c71 = _mm512_setzero_pd();
  for (std::size_t p = 0; p < kc; ++p) {
    // Stay ~8 k-steps ahead of the B stream: the packed sliver is a pure
    // sequential read, so a single T0 prefetch per step hides the L2->L1
    // latency the 16-FMA body cannot.
    _mm_prefetch(reinterpret_cast<const char*>(bp + (p + 8) * nr), _MM_HINT_T0);
    const __m512d b0 = _mm512_loadu_pd(bp + p * nr);
    const __m512d b1 = _mm512_loadu_pd(bp + p * nr + 8);
    __m512d a = _mm512_set1_pd(ap[p * mr + 0]);
    c00 = _mm512_fmadd_pd(a, b0, c00);
    c01 = _mm512_fmadd_pd(a, b1, c01);
    a = _mm512_set1_pd(ap[p * mr + 1]);
    c10 = _mm512_fmadd_pd(a, b0, c10);
    c11 = _mm512_fmadd_pd(a, b1, c11);
    a = _mm512_set1_pd(ap[p * mr + 2]);
    c20 = _mm512_fmadd_pd(a, b0, c20);
    c21 = _mm512_fmadd_pd(a, b1, c21);
    a = _mm512_set1_pd(ap[p * mr + 3]);
    c30 = _mm512_fmadd_pd(a, b0, c30);
    c31 = _mm512_fmadd_pd(a, b1, c31);
    a = _mm512_set1_pd(ap[p * mr + 4]);
    c40 = _mm512_fmadd_pd(a, b0, c40);
    c41 = _mm512_fmadd_pd(a, b1, c41);
    a = _mm512_set1_pd(ap[p * mr + 5]);
    c50 = _mm512_fmadd_pd(a, b0, c50);
    c51 = _mm512_fmadd_pd(a, b1, c51);
    a = _mm512_set1_pd(ap[p * mr + 6]);
    c60 = _mm512_fmadd_pd(a, b0, c60);
    c61 = _mm512_fmadd_pd(a, b1, c61);
    a = _mm512_set1_pd(ap[p * mr + 7]);
    c70 = _mm512_fmadd_pd(a, b0, c70);
    c71 = _mm512_fmadd_pd(a, b1, c71);
  }
  _mm512_storeu_pd(acc_out + 0, c00);
  _mm512_storeu_pd(acc_out + 8, c01);
  _mm512_storeu_pd(acc_out + 16, c10);
  _mm512_storeu_pd(acc_out + 24, c11);
  _mm512_storeu_pd(acc_out + 32, c20);
  _mm512_storeu_pd(acc_out + 40, c21);
  _mm512_storeu_pd(acc_out + 48, c30);
  _mm512_storeu_pd(acc_out + 56, c31);
  _mm512_storeu_pd(acc_out + 64, c40);
  _mm512_storeu_pd(acc_out + 72, c41);
  _mm512_storeu_pd(acc_out + 80, c50);
  _mm512_storeu_pd(acc_out + 88, c51);
  _mm512_storeu_pd(acc_out + 96, c60);
  _mm512_storeu_pd(acc_out + 104, c61);
  _mm512_storeu_pd(acc_out + 112, c70);
  _mm512_storeu_pd(acc_out + 120, c71);
}
/// Vectorized full-tile store for the 8x16 tile: moves the
/// accumulator tile into C (copy or accumulate) with the bias / bias+ReLU
/// epilogue folded in, 16 zmm stores instead of 128 scalar ones. Element
/// op order matches the scalar store loops exactly (v = [c +] acc, then
/// + bias, then max with +0.0 — vmaxpd(v, 0) returns +0.0 for -0.0 and NaN
/// like the scalar `v > 0 ? v : 0`), so bits are unchanged.
// gcc 12's avx512fintrin.h trips -Wmaybe-uninitialized inside the masked
// _mm512_max_pd builtin (header-internal `__Y`, a known false positive —
// same family as the -Wrestrict one sidestepped in bench/table3); scope the
// suppression to this one function.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
__attribute__((target("avx512f"))) void store_tile_avx512_8x16(double* c, std::size_t ldc,
                                                               const double* acc,
                                                               int mode,
                                                               const double* bias) {
  constexpr std::size_t nr = 16;
  const bool accum = (mode & 1) != 0;
  const bool has_bias = mode >= kStoreCopyBias;
  const bool relu = mode >= kStoreCopyBiasRelu;
  const __m512d zero = _mm512_setzero_pd();
  __m512d bias0 = zero, bias1 = zero;
  if (has_bias) {
    bias0 = _mm512_loadu_pd(bias);
    bias1 = _mm512_loadu_pd(bias + 8);
  }
  for (std::size_t r = 0; r < 8; ++r) {
    __m512d v0 = _mm512_loadu_pd(acc + r * nr);
    __m512d v1 = _mm512_loadu_pd(acc + r * nr + 8);
    double* crow = c + r * ldc;
    if (accum) {
      v0 = _mm512_add_pd(_mm512_loadu_pd(crow), v0);
      v1 = _mm512_add_pd(_mm512_loadu_pd(crow + 8), v1);
    }
    if (has_bias) {
      v0 = _mm512_add_pd(v0, bias0);
      v1 = _mm512_add_pd(v1, bias1);
    }
    if (relu) {
      v0 = _mm512_max_pd(v0, zero);
      v1 = _mm512_max_pd(v1, zero);
    }
    _mm512_storeu_pd(crow, v0);
    _mm512_storeu_pd(crow + 8, v1);
  }
}
#pragma GCC diagnostic pop
#endif  // ONESA_GEMM_X86_KERNELS

/// Widest micro-row height any kernel uses (sizes the stack accumulator).
constexpr std::size_t kMaxMr = 8;

/// A selected micro-kernel: function, tile height, B sliver width, and an
/// optional vectorized full-tile store (nullptr = scalar store loops).
struct MicroKernel {
  MicroKernelFn fn;
  std::size_t mr;
  std::size_t nr;
  StoreTileFn store = nullptr;
};

/// The one micro-kernel every blocked GEMM runs. AVX2 lacks the registers
/// for 8 rows (8x8 would need 16 accumulator ymm of the 16 total), so only
/// AVX-512 gets the 8-row tile and its vectorized store.
MicroKernel select_micro_kernel() {
#ifdef ONESA_GEMM_X86_KERNELS
  if (__builtin_cpu_supports("avx512f")) {
    return {micro_kernel_avx512_8x16, 8, 16, store_tile_avx512_8x16};
  }
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) {
    return {micro_kernel_avx2, MR, 8, nullptr};
  }
#endif
  return {micro_kernel_generic, MR, 8, nullptr};
}

const MicroKernel g_micro = select_micro_kernel();

static_assert(NC % kMaxNr == 0, "B panel width must hold whole slivers");
static_assert(MC % kMaxMr == 0 && MC % MR == 0, "A row blocks must hold whole micro-rows");

std::atomic<int> g_deterministic_override{-1};  // -1 = follow the environment

bool deterministic_from_env() {
  const char* env = std::getenv("ONESA_DETERMINISTIC_KERNELS");
  if (env == nullptr) return false;
  return env[0] != '\0' && !(env[0] == '0' && env[1] == '\0');
}

/// Epilogue pass over a whole output block, used by the reference-order
/// fallbacks (where the GEMM itself ran unfused). Element order matches the
/// unfused add_row_broadcast + activation sweeps exactly.
void apply_epilogue_block(double* c, std::size_t m, std::size_t n, const Epilogue& epi) {
  if (epi.kind == Epilogue::Kind::kNone) return;
  for (std::size_t i = 0; i < m; ++i) {
    double* crow = c + i * n;
    for (std::size_t j = 0; j < n; ++j) crow[j] = epilogue_apply(epi, j, crow[j]);
  }
}

/// Reference-order GEMM reading B back out of the packed layout: identical
/// loop nest, identical doubles (packing is loss-free), so the result is
/// bit-identical to gemm_reference on the original B. Powers deterministic
/// mode and the tiny-row dispatch of gemm_packed.
void gemm_reference_packed(const double* a, const PackedB& b, double* c, std::size_t m) {
  const std::size_t k = b.k();
  const std::size_t n = b.n();
  std::fill(c, c + m * n, 0.0);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t kk = 0; kk < k; ++kk) {
      const double aik = a[i * k + kk];
      if (aik == 0.0) continue;
      double* crow = c + i * n;
      for (std::size_t j = 0; j < n; ++j) crow[j] += aik * b.at(kk, j);
    }
  }
}

/// Pack A[ic:ic+mcb, kc:kc+kcb] into mr-tall slivers (column of the tile
/// contiguous per k step), zero-padded to whole micro-rows.
void pack_a_block(const double* a, std::size_t k, std::size_t ic, std::size_t kc,
                  std::size_t mcb, std::size_t kcb, std::size_t mr, double* dst_base) {
  for (std::size_t ir = 0; ir < mcb; ir += mr) {
    double* dst = dst_base + ir * kcb;
    const std::size_t h = std::min(mr, mcb - ir);
    for (std::size_t p = 0; p < kcb; ++p) {
      for (std::size_t r = 0; r < h; ++r) dst[p * mr + r] = a[(ic + ir + r) * k + kc + p];
      for (std::size_t r = h; r < mr; ++r) dst[p * mr + r] = 0.0;
    }
  }
}

/// The blocked GEMM: C[m x n] = A[m x k] * B, B pre-packed (by the caller,
/// or once per call by gemm()). A is packed exactly ONCE per call into
/// MC-row blocks of mr-tall slivers, ic-major with the k-panels inner, so
/// block (ic, kc) starts at ic * k + round_up(mcb, mr) * kc (every block
/// before the last is a whole MC rows, a multiple of mr).
/// Each output row's result depends only on its own A row, never on its
/// position in the block, so row slices and stacked batches reproduce it
/// bit for bit.
/// The epilogue, if any, is fused into the store of the LAST k-panel: each
/// output element receives bias+activation exactly once, after its full
/// k-sum is formed, in the same order the unfused composed ops would apply
/// them.
void blocked_over_packed(const double* a, const PackedB& b, double* c, std::size_t m,
                         const Epilogue& epi) {
  const std::size_t k = b.k();
  const std::size_t n = b.n();
  const MicroKernel& mk = g_micro;
  const MicroKernelFn micro = mk.fn;
  const std::size_t mr = mk.mr;
  const std::size_t nr = mk.nr;

  // Per-thread A-pack scratch in one bump arena (tensor/arena.hpp): reused
  // across calls, with debug boundary guards that reset() at the next call
  // verifies, so an out-of-bounds pack write fails loudly in
  // Debug/sanitizer builds. shrink_to caps what a thread keeps.
  thread_local MemoryStack pack_arena;
  pack_arena.reset();
  pack_arena.shrink_to(kScratchRetainBytes);
  double* apack = pack_arena.allocate_span<double>(round_up(m, mr) * k);
  for (std::size_t ic = 0; ic < m; ic += MC) {
    const std::size_t mcb = std::min(MC, m - ic);
    for (std::size_t kc = 0; kc < k; kc += KC) {
      pack_a_block(a, k, ic, kc, mcb, std::min(KC, k - kc), mr,
                   apack + ic * k + round_up(mcb, mr) * kc);
    }
  }

  for (std::size_t jc = 0; jc < n; jc += NC) {
    const std::size_t ncb = std::min(NC, n - jc);
    for (std::size_t kc = 0; kc < k; kc += KC) {
      const std::size_t kcb = std::min(KC, k - kc);
      const bool first_panel = kc == 0;
      const bool last_panel = kc + KC >= k;
      const double* bpack = b.panel(jc / NC, kc / KC);

      for (std::size_t ic = 0; ic < m; ic += MC) {
        const std::size_t mcb = std::min(MC, m - ic);
        const double* ablock = apack + ic * k + round_up(mcb, mr) * kc;

        for (std::size_t jr = 0; jr < ncb; jr += nr) {
          const double* bp = bpack + jr * kcb;
          const std::size_t w = std::min(nr, ncb - jr);
          for (std::size_t ir = 0; ir < mcb; ir += mr) {
            const double* ap = ablock + ir * kcb;
            const std::size_t h = std::min(mr, mcb - ir);
            double acc[kMaxMr * kMaxNr];
            micro(ap, bp, kcb, acc);
            double* cdst = c + (ic + ir) * n + jc + jr;
            if (mk.store != nullptr && h == mr && w == nr &&
                !(last_panel && epi.kind == Epilogue::Kind::kBiasTable)) {
              // Full interior tile on a kernel with a vectorized store:
              // copy/accumulate (+ bias / + bias+ReLU) in 16 vector ops,
              // same element-wise op order as the scalar loops below.
              int mode;
              const double* brow = nullptr;
              if (last_panel && epi.kind != Epilogue::Kind::kNone) {
                brow = epi.bias + jc + jr;
                mode = epi.kind == Epilogue::Kind::kBiasRelu
                           ? (first_panel ? kStoreCopyBiasRelu : kStoreAccumBiasRelu)
                           : (first_panel ? kStoreCopyBias : kStoreAccumBias);
              } else {
                mode = first_panel ? kStoreCopy : kStoreAccum;
              }
              mk.store(cdst, n, acc, mode, brow);
            } else if (last_panel && epi.kind != Epilogue::Kind::kNone) {
              // Specialized per-kind store loops: the switch is hoisted out
              // of the element sweep and the bias sliver is read through a
              // __restrict local, so the bias/ReLU epilogues stay
              // vectorizable instead of reloading epi per element.
              const double* __restrict bias = epi.bias + jc + jr;
              switch (epi.kind) {
                case Epilogue::Kind::kBias:
                  for (std::size_t r = 0; r < h; ++r)
                    for (std::size_t cc = 0; cc < w; ++cc) {
                      const double v = first_panel
                                           ? acc[r * nr + cc]
                                           : cdst[r * n + cc] + acc[r * nr + cc];
                      cdst[r * n + cc] = v + bias[cc];
                    }
                  break;
                case Epilogue::Kind::kBiasRelu:
                  for (std::size_t r = 0; r < h; ++r)
                    for (std::size_t cc = 0; cc < w; ++cc) {
                      const double v = (first_panel
                                            ? acc[r * nr + cc]
                                            : cdst[r * n + cc] + acc[r * nr + cc]) +
                                       bias[cc];
                      cdst[r * n + cc] = v > 0.0 ? v : 0.0;
                    }
                  break;
                case Epilogue::Kind::kBiasTable:
                  for (std::size_t r = 0; r < h; ++r)
                    for (std::size_t cc = 0; cc < w; ++cc) {
                      const double v = (first_panel
                                            ? acc[r * nr + cc]
                                            : cdst[r * n + cc] + acc[r * nr + cc]) +
                                       bias[cc];
                      cdst[r * n + cc] = epi.table_eval(epi.table, v);
                    }
                  break;
                case Epilogue::Kind::kNone:
                  break;  // unreachable (outer if)
              }
            } else if (first_panel) {
              for (std::size_t r = 0; r < h; ++r)
                for (std::size_t cc = 0; cc < w; ++cc)
                  cdst[r * n + cc] = acc[r * nr + cc];
            } else {
              for (std::size_t r = 0; r < h; ++r)
                for (std::size_t cc = 0; cc < w; ++cc)
                  cdst[r * n + cc] += acc[r * nr + cc];
            }
          }
        }
      }
    }
  }
}

/// Rows per slice when m rows fan out over `threads` lanes: whole
/// micro-rows, so no slice boundary splits a micro-tile.
std::size_t slice_rows(std::size_t m, std::size_t threads) {
  return round_up(std::max<std::size_t>(1, (m + threads - 1) / threads), g_micro.mr);
}

/// The one row-sliced fan-out of every GEMM path: body(lo, hi) for each
/// slice of [0, m) on the kernel pool, or body(0, m) inline when threads
/// <= 1. Every path computes a row from that row alone, so slicing never
/// changes bits; the blocked path's workers all read the ONE shared packed
/// B.
template <typename Body>
void for_row_slices(std::size_t m, std::size_t threads, Body&& body) {
  if (threads <= 1) {
    body(std::size_t{0}, m);
    return;
  }
  const std::size_t per = slice_rows(m, threads);
  ThreadPool::instance().run(threads, [&](std::size_t part) {
    const std::size_t lo = std::min(m, part * per);
    const std::size_t hi = std::min(m, lo + per);
    if (lo < hi) body(lo, hi);
  });
}

// ------------------------------------------------------- profiling hooks
//
// The public gemm()/gemm_packed() entry points wrap their dispatch in a
// per-call profile: FLOPs (2*m*k*n), bytes touched once (A+B+C), wall time
// and the derived GFLOP/s, recorded into registry counters/histograms, plus
// a "kernel"-category trace span when tracing runs. The hook measures the
// whole call on the calling thread (inner row-slice workers are part of the
// call), and costs two steady_clock reads per call — skipped entirely when
// both metrics and tracing are off.

/// Registry handles for one kernel entry point, resolved once.
struct KernelMetrics {
  obs::Counter& calls;
  obs::Counter& flops;
  obs::Counter& bytes;
  obs::Histogram& gflops;
  obs::Histogram& wall_ms;

  explicit KernelMetrics(const std::string& base)
      : calls(obs::MetricsRegistry::global().counter(base + "_calls_total")),
        flops(obs::MetricsRegistry::global().counter(base + "_flops_total")),
        bytes(obs::MetricsRegistry::global().counter(base + "_bytes_total")),
        gflops(obs::MetricsRegistry::global().histogram(base + "_gflops")),
        wall_ms(obs::MetricsRegistry::global().histogram(base + "_ms")) {}
};

KernelMetrics& gemm_metrics() {
  static KernelMetrics metrics("kernel_gemm");
  return metrics;
}

KernelMetrics& gemm_packed_metrics() {
  static KernelMetrics metrics("kernel_gemm_packed");
  return metrics;
}

bool profiling_active() { return obs::metrics_enabled() || obs::tracing_enabled(); }

void record_kernel_profile(KernelMetrics& metrics, const char* name, std::size_t m,
                           std::size_t k, std::size_t n,
                           std::chrono::steady_clock::time_point t0) {
  const auto t1 = std::chrono::steady_clock::now();
  const double ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
  const std::uint64_t flops = 2ull * m * k * n;
  const std::uint64_t bytes = 8ull * (m * k + k * n + m * n);
  metrics.calls.add(1);
  metrics.flops.add(flops);
  metrics.bytes.add(bytes);
  metrics.wall_ms.record(ms);
  if (ms > 0.0) metrics.gflops.record(static_cast<double>(flops) / (ms * 1e6));
  if (obs::tracing_enabled()) {
    const auto ts = std::chrono::duration_cast<std::chrono::microseconds>(
                        t0.time_since_epoch())
                        .count();
    const auto dur = std::chrono::duration_cast<std::chrono::microseconds>(t1 - t0).count();
    obs::trace_complete(name, "kernel", ts, dur,
                        "\"m\":" + std::to_string(m) + ",\"k\":" + std::to_string(k) +
                            ",\"n\":" + std::to_string(n) +
                            ",\"flops\":" + std::to_string(flops));
  }
}

}  // namespace

std::size_t sliver_width() { return g_micro.nr; }

bool deterministic() {
  const int forced = g_deterministic_override.load(std::memory_order_relaxed);
  if (forced >= 0) return forced != 0;
  static const bool from_env = deterministic_from_env();
  return from_env;
}

void set_deterministic(bool on) {
  g_deterministic_override.store(on ? 1 : 0, std::memory_order_relaxed);
}

void gemm_reference(const double* a, const double* b, double* c, std::size_t m,
                    std::size_t k, std::size_t n) {
  std::fill(c, c + m * n, 0.0);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t kk = 0; kk < k; ++kk) {
      const double aik = a[i * k + kk];
      if (aik == 0.0) continue;
      const double* brow = b + kk * n;
      double* crow = c + i * n;
      for (std::size_t j = 0; j < n; ++j) crow[j] += aik * brow[j];
    }
  }
}

std::size_t gemm_threads(std::size_t m, std::size_t k, std::size_t n) {
  if (deterministic()) return 1;
  const std::size_t macs = m * k * n;
  std::size_t t = ThreadPool::instance().effective_threads();
  t = std::min(t, std::max<std::size_t>(1, macs / kMacsPerThread));
  // Slices are whole micro-rows of the selected kernel: count only the
  // slices that get rows, so no lane is handed an empty one.
  const std::size_t per = slice_rows(m, t);
  return std::max<std::size_t>(1, (m + per - 1) / per);
}

namespace {

/// The dispatch body of gemm_packed() (public entry wraps it likewise).
void gemm_packed_dispatch(const double* a, const PackedB& b, double* c, std::size_t m,
                          const Epilogue& epi) {
  const std::size_t k = b.k();
  const std::size_t n = b.n();
  if (m == 0 || n == 0) return;
  ONESA_CHECK(b.nr() == g_micro.nr || b.empty(),
              "gemm_packed: PackedB sliver width " << b.nr()
                                                   << " does not match the selected "
                                                      "micro-kernel ("
                                                   << g_micro.nr << ")");
  const std::size_t threads = gemm_threads(m, k, n);
  if (deterministic() || k * n <= kTinyRowMacs) {
    // Same reference-order dispatch (and therefore row-stability) as
    // gemm(), reading B back out of the packed layout; the epilogue runs
    // as a separate pass, like the unfused ops.
    for_row_slices(m, threads, [&](std::size_t lo, std::size_t hi) {
      gemm_reference_packed(a + lo * k, b, c + lo * n, hi - lo);
      apply_epilogue_block(c + lo * n, hi - lo, n, epi);
    });
    return;
  }
  for_row_slices(m, threads, [&](std::size_t lo, std::size_t hi) {
    blocked_over_packed(a + lo * k, b, c + lo * n, hi - lo, epi);
  });
}

/// The dispatch body of gemm() (the public entry wraps it in the profiling
/// hook).
void gemm_dispatch(const double* a, const double* b, double* c, std::size_t m,
                   std::size_t k, std::size_t n) {
  if (m == 0 || n == 0) return;
  if (deterministic() || k * n <= kTinyRowMacs) {
    // Reference order (k == 0 lands here too and zero-fills C): always in
    // deterministic mode, and for skinny rows, row-sliced over the pool
    // when a tall m makes the total work worth threading.
    for_row_slices(m, gemm_threads(m, k, n), [&](std::size_t lo, std::size_t hi) {
      gemm_reference(a + lo * k, b, c + lo * n, hi - lo, k, n);
    });
    return;
  }
  // Pack B ONCE into a per-thread scratch (buffer reused across calls),
  // then run gemm_packed()'s pipeline on it: every (kc, jc) panel is packed
  // exactly once per call at any thread count (asserted by the pack counter
  // in tests), and every row slice reads the one packed copy. The scratch
  // goes down by reference — a lambda naming a thread_local would reach
  // each pool worker's own instance. Safe to reuse: the slice workers never
  // re-enter gemm().
  thread_local PackedB scratch;
  PackedB::pack_into(scratch, b, k, n);
  gemm_packed_dispatch(a, scratch, c, m, Epilogue{});
  if (scratch.packed_bytes() > kPackedBRetainBytes) scratch = PackedB();
}

}  // namespace

void gemm(const double* a, const double* b, double* c, std::size_t m, std::size_t k,
          std::size_t n) {
  if (!profiling_active()) {
    gemm_dispatch(a, b, c, m, k, n);
    return;
  }
  const auto t0 = std::chrono::steady_clock::now();
  gemm_dispatch(a, b, c, m, k, n);
  record_kernel_profile(gemm_metrics(), "gemm", m, k, n, t0);
}

void gemm_packed(const double* a, const PackedB& b, double* c, std::size_t m,
                 const Epilogue& epi) {
  if (!profiling_active()) {
    gemm_packed_dispatch(a, b, c, m, epi);
    return;
  }
  const auto t0 = std::chrono::steady_clock::now();
  gemm_packed_dispatch(a, b, c, m, epi);
  record_kernel_profile(gemm_packed_metrics(), "gemm_packed", m, b.k(), b.n(), t0);
}

void gemm_packed(ConstMatrixView a, const PackedB& b, MatrixView c, const Epilogue& epi) {
  ONESA_CHECK(a.contiguous() && c.contiguous(),
              "gemm_packed: views must be contiguous (stride == cols); got A stride "
                  << a.stride() << " for " << a.cols() << " cols, C stride "
                  << c.stride() << " for " << c.cols() << " cols");
  ONESA_CHECK_SHAPE(a.cols() == b.k(), "gemm_packed: A is " << a.rows() << "x" << a.cols()
                                                            << " but PackedB expects k="
                                                            << b.k());
  ONESA_CHECK_SHAPE(c.rows() == a.rows() && c.cols() == b.n(),
                    "gemm_packed: C is " << c.rows() << "x" << c.cols() << ", want "
                                         << a.rows() << "x" << b.n());
  gemm_packed(a.data(), b, c.data(), a.rows(), epi);
}

}  // namespace onesa::tensor::kernels
