#include "tensor/kernels/pack.hpp"

#include <algorithm>
#include <atomic>

#include "common/error.hpp"

namespace onesa::tensor::kernels {

namespace {

/// Round a packed-panel offset up to a whole cache line of doubles so every
/// panel starts 64-byte aligned (the buffer itself is aligned by the
/// allocator).
constexpr std::size_t kPanelAlignDoubles = 8;

std::size_t round_up(std::size_t v, std::size_t to) { return (v + to - 1) / to * to; }

#ifndef NDEBUG
std::atomic<std::uint64_t> g_pack_panels{0};
#endif

}  // namespace

#ifndef NDEBUG
bool pack_counter_enabled() { return true; }
std::uint64_t pack_panel_count() { return g_pack_panels.load(std::memory_order_relaxed); }
void reset_pack_panel_count() { g_pack_panels.store(0, std::memory_order_relaxed); }
namespace detail {
void note_pack_panel() { g_pack_panels.fetch_add(1, std::memory_order_relaxed); }
}  // namespace detail
#else
bool pack_counter_enabled() { return false; }
std::uint64_t pack_panel_count() { return 0; }
void reset_pack_panel_count() {}
#endif

PackedB PackedB::pack(const double* b, std::size_t k, std::size_t n) {
  PackedB packed;
  pack_into(packed, b, k, n);
  return packed;
}

void PackedB::pack_into(PackedB& dst, const double* b, std::size_t k, std::size_t n) {
  const std::size_t nr = sliver_width();
  dst.k_ = k;
  dst.n_ = n;
  dst.nr_ = nr;
  dst.offsets_.clear();
  if (k == 0 || n == 0) {
    dst.data_.clear();
    return;
  }

  // First pass: panel offsets (jc-major, kc inner — the kernel's loop order).
  std::size_t total = 0;
  dst.offsets_.reserve(dst.nc_panels() * dst.kc_panels());
  for (std::size_t jc = 0; jc < n; jc += kNC) {
    const std::size_t ncb_pad = round_up(std::min(kNC, n - jc), nr);
    for (std::size_t kc = 0; kc < k; kc += kKC) {
      const std::size_t kcb = std::min(kKC, k - kc);
      dst.offsets_.push_back(total);
      total += round_up(kcb * ncb_pad, kPanelAlignDoubles);
    }
  }
  dst.data_.resize(total);

  // Second pass: the sliver layout gemm.cpp's micro-kernels read — nr-wide
  // column slivers, k step innermost, zero-padded to full sliver width so
  // micro-tiles always see whole vectors.
  std::size_t panel_idx = 0;
  for (std::size_t jc = 0; jc < n; jc += kNC) {
    const std::size_t ncb = std::min(kNC, n - jc);
    for (std::size_t kc = 0; kc < k; kc += kKC) {
      const std::size_t kcb = std::min(kKC, k - kc);
      double* base = dst.data_.data() + dst.offsets_[panel_idx++];
      for (std::size_t jr = 0; jr < ncb; jr += nr) {
        double* sliver = base + jr * kcb;
        const std::size_t w = std::min(nr, ncb - jr);
        for (std::size_t p = 0; p < kcb; ++p) {
          const double* src = b + (kc + p) * n + jc + jr;
          for (std::size_t cc = 0; cc < w; ++cc) sliver[p * nr + cc] = src[cc];
          for (std::size_t cc = w; cc < nr; ++cc) sliver[p * nr + cc] = 0.0;
        }
      }
      detail::note_pack_panel();
    }
  }
}

double PackedB::at(std::size_t kk, std::size_t j) const {
  ONESA_DCHECK(kk < k_ && j < n_, "PackedB::at(" << kk << "," << j << ") out of " << k_
                                                 << "x" << n_);
  const std::size_t jc_idx = j / kNC;
  const std::size_t kc_idx = kk / kKC;
  const std::size_t jloc = j - jc_idx * kNC;
  const std::size_t p = kk - kc_idx * kKC;
  const std::size_t kcb = std::min(kKC, k_ - kc_idx * kKC);
  const std::size_t jr = jloc / nr_ * nr_;
  const std::size_t cc = jloc - jr;
  return panel(jc_idx, kc_idx)[jr * kcb + p * nr_ + cc];
}

}  // namespace onesa::tensor::kernels
