// Persistent packed-weight storage for the blocked GEMM (pack-once reuse).
//
// The blocked kernel in gemm.cpp consumes B as NR-wide column slivers packed
// per (KC x NC) cache panel, and it only ever reads B in this form. A single
// matmul (gemm()) packs B once per call into a per-thread PackedB; on the
// serving hot path the same B — a model weight — is multiplied thousands of
// times, so PackedB captures the packed form once, cache-line aligned, and
// gemm_packed() runs any number of GEMMs — across any number of threads
// sharing the ONE packed copy — with zero packing on the request path. This
// is the BLIS-style "pack once, amortize forever" contract scaled to this
// library.
//
// The Epilogue type rides along because the same hot path ends every Linear
// layer with a bias broadcast and (usually) an activation: fusing both into
// the micro-tile store removes two full read-modify-write passes over the
// output. The fused arithmetic is ordered exactly like the unfused
// matmul + add_row_broadcast + activation sequence, so results stay
// bit-identical to the composed ops (see gemm.hpp for the full contract).
#pragma once

#include <cstddef>
#include <cstdint>
#include <new>
#include <vector>

namespace onesa::tensor::kernels {

// Blocking parameters shared by the packers and the blocked kernels (the
// micro-tile is mr x nr register accumulators; both are per-ISA, see
// sliver_width()). One source of truth: gemm.cpp's loop nest and
// PackedB::pack must agree on the panel geometry or the kernel would read
// garbage slivers. kMR is the tile height of the 4-row kernels (AVX2 and
// portable double, every INT16 variant).
inline constexpr std::size_t kMR = 4;
inline constexpr std::size_t kMaxNr = 16;
inline constexpr std::size_t kKC = 256;
inline constexpr std::size_t kNC = 512;  // multiple of every kernel's nr

/// B sliver width of the micro-kernel selected at startup (16 on AVX-512,
/// 8 on AVX2/portable). Defined in gemm.cpp next to the kernel selector.
std::size_t sliver_width();

/// Allocator for the packed buffers: cache-line (64 B) aligned and
/// default-initializing, so a resize never zero-fills storage the packer is
/// about to overwrite anyway.
template <typename T>
class PackAllocator {
 public:
  using value_type = T;
  static constexpr std::size_t kAlign = 64;

  PackAllocator() = default;
  template <typename U>
  PackAllocator(const PackAllocator<U>&) {}

  T* allocate(std::size_t n) {
    return static_cast<T*>(::operator new(n * sizeof(T), std::align_val_t{kAlign}));
  }
  void deallocate(T* p, std::size_t) noexcept {
    ::operator delete(p, std::align_val_t{kAlign});
  }
  template <typename U>
  void construct(U* ptr) noexcept(std::is_nothrow_default_constructible_v<U>) {
    ::new (static_cast<void*>(ptr)) U;
  }

  template <typename U>
  bool operator==(const PackAllocator<U>&) const {
    return true;
  }
};

/// B (k x n, row-major) packed once into the blocked kernel's sliver layout:
/// per (jc, kc) cache panel, nr-wide column slivers with the k step
/// innermost, zero-padded to full sliver width. Immutable in practice —
/// build with pack()/pack_into(), then share freely across threads (all
/// accessors are const and the buffer is never mutated after packing).
class PackedB {
 public:
  PackedB() = default;

  /// Pack `b` (k x n row-major). The sliver width is frozen at the current
  /// micro-kernel's nr.
  static PackedB pack(const double* b, std::size_t k, std::size_t n);

  /// Re-pack into an existing instance, reusing its buffer capacity (the
  /// dispatcher's per-call scratch path).
  static void pack_into(PackedB& dst, const double* b, std::size_t k, std::size_t n);

  std::size_t k() const { return k_; }
  std::size_t n() const { return n_; }
  std::size_t nr() const { return nr_; }
  bool empty() const { return k_ == 0 || n_ == 0; }

  /// Number of panels along each blocked dimension (ceil-div by kKC / kNC).
  std::size_t kc_panels() const { return k_ == 0 ? 0 : (k_ + kKC - 1) / kKC; }
  std::size_t nc_panels() const { return n_ == 0 ? 0 : (n_ + kNC - 1) / kNC; }

  /// Base of the packed slivers of panel (jc_idx, kc_idx); sliver `jr`
  /// (jr a multiple of nr) starts at base + jr * kcb.
  const double* panel(std::size_t jc_idx, std::size_t kc_idx) const {
    return data_.data() + offsets_[jc_idx * kc_panels() + kc_idx];
  }

  /// Element B[kk][j] read back out of the packed layout (loss-free: packing
  /// only copies). Powers the reference-order fallbacks, which must consume
  /// the exact same doubles the original B held.
  double at(std::size_t kk, std::size_t j) const;

  /// Bytes held by the packed buffer (capacity-independent logical size).
  std::size_t packed_bytes() const { return data_.size() * sizeof(double); }

 private:
  std::size_t k_ = 0;
  std::size_t n_ = 0;
  std::size_t nr_ = 0;
  std::vector<double, PackAllocator<double>> data_;
  std::vector<std::size_t> offsets_;  // per (jc, kc), jc-major
};

/// Post-GEMM epilogue fused into the micro-tile store (and into the final
/// output pass of the reference-order fallbacks): bias broadcast plus an
/// optional activation, applied exactly once per output element after its
/// full k-sum is formed. `bias` must point at n doubles for every kind but
/// kNone. kBiasTable evaluates an opaque scalar table (e.g.
/// cpwl::SegmentTable) through the function pointer so the kernel layer
/// stays free of upper-layer includes.
struct Epilogue {
  enum class Kind : std::uint8_t { kNone, kBias, kBiasRelu, kBiasTable };
  using TableEvalFn = double (*)(const void* table, double x);

  Kind kind = Kind::kNone;
  const double* bias = nullptr;
  TableEvalFn table_eval = nullptr;  // kBiasTable only
  const void* table = nullptr;       // kBiasTable only
};

/// y = epilogue(x) for output column j. Ordered exactly like the unfused
/// sequence (bias add first, then activation) so fused results are
/// bit-identical to matmul + add_row_broadcast + activation.
inline double epilogue_apply(const Epilogue& e, std::size_t j, double v) {
  switch (e.kind) {
    case Epilogue::Kind::kNone:
      return v;
    case Epilogue::Kind::kBias:
      return v + e.bias[j];
    case Epilogue::Kind::kBiasRelu: {
      const double b = v + e.bias[j];
      return b > 0.0 ? b : 0.0;  // == cpwl::eval_reference(kRelu, b), bit for bit
    }
    case Epilogue::Kind::kBiasTable:
      return e.table_eval(e.table, v + e.bias[j]);
  }
  return v;
}

// ------------------------------------------------------------ pack counter
//
// Debug-only instrumentation: every B panel packed anywhere in the kernel
// layer (PackedB::pack_into, which gemm() also uses per call, and the INT16
// packer) bumps a process-wide counter, letting tests assert the pack-once
// contract — e.g. that gemm() packs each (kc, jc) panel exactly once at any
// thread count, and that gemm_packed() packs nothing at all. Compiled out
// under NDEBUG (pack_counter_enabled() says which build you got).

bool pack_counter_enabled();
std::uint64_t pack_panel_count();
void reset_pack_panel_count();

namespace detail {
#ifndef NDEBUG
void note_pack_panel();
#else
inline void note_pack_panel() {}
#endif
}  // namespace detail

}  // namespace onesa::tensor::kernels
