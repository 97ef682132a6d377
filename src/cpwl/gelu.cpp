#include "cpwl/gelu.hpp"

#include <cmath>
#include <cstdint>
#include <cstring>
#if defined(__x86_64__)
#include <immintrin.h>
#endif

#include "common/error.hpp"

// The rational parts must round exactly like the C library's erf, which
// evaluates them with separate multiplies and adds; a compiler that fused
// them into FMAs (gcc does so even across intrinsics when the target has
// FMA) would change bits and make the tiers disagree. The exp's FMAs are
// spelled out explicitly.
#if defined(__clang__)
#pragma STDC FP_CONTRACT OFF
#elif defined(__GNUC__)
#pragma GCC optimize("fp-contract=off")
#endif

namespace onesa::cpwl {

namespace {

constexpr double kSqrt2 = 0x1.6a09e667f3bcdp+0;  // std::sqrt(2.0), correctly rounded

// ------------------------------------------------------------- erf intervals
//
// fdlibm s_erf.c (Sun Microsystems, 1993; freely redistributable), in the
// evaluation order of the C library's version. On |z|:
//   [0, 2^-28)           erf = z + z*efx
//   [2^-28, 0.84375)     erf = z + z*N(z^2)/D(z^2)
//   [0.84375, 1.25)      erf = sign * (erx + N(|z|-1)/D(|z|-1))
//   [1.25, 1/0.35)       erf = sign * (1 - exp(-Z^2-0.5625) exp((Z-|z|)(Z+|z|)+R(s)/S(s)) / |z|)
//   [1/0.35, 6)          same with the second R/S pair; s = 1/z^2, Z = |z| with
//                        its low 32 bits cleared
//   [6, inf]             erf = sign * 1
// The two near intervals share one rational evaluation and the two tail
// intervals another. Every polynomial is spelled as one padded 9-term form,
//   (c0 + w c1) + w^2 (c2 + w c3) + w^4 (c4 + w c5) + w^6 (c6 + w c7) + w^8 c8,
// the C library's evaluation order with zero coefficients filling the
// shorter ones: c + w*0 == c and v + 0 == v for the nonzero sums involved,
// so every intermediate is exactly as in the unpadded form and the blended
// vector lanes reproduce the scalar branches bit for bit.
constexpr double kErx = 8.45062911510467529297e-01;
constexpr double kEfx = 1.28379167095512586316e-01;
constexpr double kTiny = 0x1p-28;
constexpr double kSmall = 0.84375;
constexpr double kNear = 1.25;
constexpr double kTailSplit = 0x1.6db6ep+1;  // high word 0x4006DB6E, ~1/0.35
constexpr double kOne = 6.0;                 // erf rounds to +-1 from here on

using Poly = double[2][9];

// Near intervals, in w = z^2 below kSmall (row 0) and w = |z| - 1 above.
constexpr Poly kNearNum = {
    {1.28379167095512558561e-01, -3.25042107247001499370e-01, -2.84817495755985104766e-02,
     -5.77027029648944159157e-03, -2.37630166566501626084e-05, 0.0, 0.0, 0.0, 0.0},
    {-2.36211856075265944077e-03, 4.14856118683748331666e-01, -3.72207876035701323847e-01,
     3.18346619901161753674e-01, -1.10894694282396677476e-01, 3.54783043256182359371e-02,
     -2.16637559486879084300e-03, 0.0, 0.0}};
constexpr Poly kNearDen = {
    {1.0, 3.97917223959155352819e-01, 6.50222499887672944485e-02, 5.08130628187576562776e-03,
     1.32494738004321644526e-04, -3.96022827877536812320e-06, 0.0, 0.0, 0.0},
    {1.0, 1.06420880400844228286e-01, 5.40397917702171048937e-01, 7.18286544141962662868e-02,
     1.26171219808761642112e-01, 1.36370839120290507362e-02, 1.19844998467991074170e-02, 0.0,
     0.0}};

// Tail intervals, in s = 1/z^2; row 0 is [1.25, 1/0.35).
constexpr Poly kTailNum = {
    {-9.86494403484714822705e-03, -6.93858572707181764372e-01, -1.05586262253232909814e+01,
     -6.23753324503260060396e+01, -1.62396669462573470355e+02, -1.84605092906711035994e+02,
     -8.12874355063065934246e+01, -9.81432934416914548592e+00, 0.0},
    {-9.86494292470009928597e-03, -7.99283237680523006574e-01, -1.77579549177547519889e+01,
     -1.60636384855821916062e+02, -6.37566443368389627722e+02, -1.02509513161107724954e+03,
     -4.83519191608651397019e+02, 0.0, 0.0}};
constexpr Poly kTailDen = {
    {1.0, 1.96512716674392571292e+01, 1.37657754143519042600e+02, 4.34565877475229228821e+02,
     6.45387271733267880336e+02, 4.29008140027567833386e+02, 1.08635005541779435134e+02,
     6.57024977031928170135e+00, -6.04244152148580987438e-02},
    {1.0, 3.03380607434824582924e+01, 3.25792512996573918826e+02, 1.53672958608443695994e+03,
     3.19985821950859553908e+03, 2.55305040643316442583e+03, 4.74528541206955367215e+02,
     -2.24409524465858183362e+01, 0.0}};

// ------------------------------------------------------------------- exp
//
// exp(x) = 2^(k/N) * exp(r), x = k ln2/N + r, |r| <= ln2/2N, N = 128: the
// table holds 2^(i/N) split into a double and its relative rounding tail,
// and exp(r) - 1 is a degree-5 Taylor polynomial (truncation < 0.01 ulp at
// |r| <= ln2/256). Only the tail intervals' arguments, finite and in
// [-37, 0], are kept; a vector's other lanes may carry any value, inf or
// NaN, and the index mask keeps their table gathers in bounds.
constexpr int kExpBits = 7;
constexpr std::size_t kExpN = std::size_t{1} << kExpBits;
constexpr double kInvLn2N = 0x1.71547652b82fep+0 * kExpN;
constexpr double kNegLn2HiN = -0x1.62e42fefa0000p-8;
constexpr double kNegLn2LoN = -0x1.cf79abc9e3b3ap-47;
constexpr double kRoundShift = 0x1.8p52;  // adds and removes to round to an integer
constexpr double kC2 = 1.0 / 2.0, kC3 = 1.0 / 6.0, kC4 = 1.0 / 24.0, kC5 = 1.0 / 120.0;

struct ExpTable {
  alignas(64) double tail[kExpN];
  // Bits of 2^(i/N) minus i << (52 - kExpBits): adding k << (52 - kExpBits)
  // for k = q*N + i then yields 2^(k/N) with the exponent q folded in.
  alignas(64) std::uint64_t scale_bits[kExpN];
};

std::uint64_t to_bits(double d) {
  std::uint64_t u;
  std::memcpy(&u, &d, sizeof u);
  return u;
}

double from_bits(std::uint64_t u) {
  double d;
  std::memcpy(&d, &u, sizeof d);
  return d;
}

const ExpTable& exp_table() {
  static const ExpTable table = [] {
    ExpTable t{};
    for (std::size_t i = 0; i < kExpN; ++i) {
      // long double carries the 11 extra bits the tail needs; where it is
      // plain double the tail is 0 and exp loses about half an ulp.
      const long double exact = std::exp2(static_cast<long double>(i) / kExpN);
      const double hi = static_cast<double>(exact);
      t.tail[i] = static_cast<double>((exact - hi) / hi);
      t.scale_bits[i] = to_bits(hi) - (std::uint64_t{i} << (52 - kExpBits));
    }
    return t;
  }();
  return table;
}

// -------------------------------------------------------- portable spelling

double exp_portable(double x, const ExpTable& t) {
  const double shifted = x * kInvLn2N + kRoundShift;
  const std::uint64_t ki = to_bits(shifted);
  const double kd = shifted - kRoundShift;
  double r = std::fma(kd, kNegLn2HiN, x);
  r = std::fma(kd, kNegLn2LoN, r);
  const std::size_t idx = ki & (kExpN - 1);
  const double scale = from_bits(t.scale_bits[idx] + (ki << (52 - kExpBits)));
  const double r2 = r * r;
  const double tmp = t.tail[idx] + r + r2 * (kC2 + r * kC3) + r2 * r2 * (kC4 + r * kC5);
  return std::fma(scale, tmp, scale);
}

/// The padded 9-term polynomial in w (see kNearNum), unfused.
double poly_portable(double w, const double (&c)[9]) {
  const double w2 = w * w;
  const double w4 = w2 * w2;
  return (c[0] + w * c[1]) + w2 * (c[2] + w * c[3]) + w4 * (c[4] + w * c[5]) +
         w4 * w2 * (c[6] + w * c[7]) + w4 * w4 * c[8];
}

/// erf(z), one interval branch at a time.
double erf_portable(double z, const ExpTable& t) {
  const double az = std::fabs(z);
  if (std::isnan(z)) return z;
  if (az < kNear) {
    const int row = az < kSmall ? 0 : 1;
    const double w = row == 0 ? z * z : az - 1.0;
    const double y = poly_portable(w, kNearNum[row]) / poly_portable(w, kNearDen[row]);
    if (row == 0) return z + z * (az < kTiny ? kEfx : y);
    return std::copysign(kErx + y, z);
  }
  if (!(az < kOne)) return std::copysign(1.0, z);
  const int row = az < kTailSplit ? 0 : 1;
  const double s = 1.0 / (az * az);
  const double ratio = poly_portable(s, kTailNum[row]) / poly_portable(s, kTailDen[row]);
  const double hz = from_bits(to_bits(az) & 0xFFFFFFFF00000000ull);
  const double e = exp_portable(-0.5625 - hz * hz, t) *
                   exp_portable((hz - az) * (hz + az) + ratio, t);
  return std::copysign(1.0 - e / az, z);
}

double gelu_portable(double x, const ExpTable& t) {
  return 0.5 * x * (1.0 + erf_portable(x / kSqrt2, t));
}

void gelu_span_portable(const double* x, double* y, std::size_t n, const ExpTable& t) {
  for (std::size_t i = 0; i < n; ++i) y[i] = gelu_portable(x[i], t);
}

#if defined(__x86_64__)
// gcc 12's avx512fintrin.h trips -Wmaybe-uninitialized inside several
// unmasked intrinsics (header-internal `__Y`, the known false positive also
// suppressed in gemm.cpp and segment_table.cpp).
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"

// ---------------------------------------------------------- AVX-512 spelling

__attribute__((target("avx512f"))) inline __m512d exp_avx512(__m512d x, const ExpTable& t) {
  const __m512d shift = _mm512_set1_pd(kRoundShift);
  const __m512d shifted = _mm512_add_pd(_mm512_mul_pd(x, _mm512_set1_pd(kInvLn2N)), shift);
  const __m512i ki = _mm512_castpd_si512(shifted);
  const __m512d kd = _mm512_sub_pd(shifted, shift);
  __m512d r = _mm512_fmadd_pd(kd, _mm512_set1_pd(kNegLn2HiN), x);
  r = _mm512_fmadd_pd(kd, _mm512_set1_pd(kNegLn2LoN), r);
  const __m512i idx = _mm512_and_si512(ki, _mm512_set1_epi64(kExpN - 1));
  const __m512d tail = _mm512_i64gather_pd(idx, t.tail, 8);
  const __m512d scale = _mm512_castsi512_pd(_mm512_add_epi64(
      _mm512_i64gather_epi64(idx, t.scale_bits, 8), _mm512_slli_epi64(ki, 52 - kExpBits)));
  const __m512d r2 = _mm512_mul_pd(r, r);
  const __m512d p23 = _mm512_add_pd(_mm512_set1_pd(kC2), _mm512_mul_pd(r, _mm512_set1_pd(kC3)));
  const __m512d p45 = _mm512_add_pd(_mm512_set1_pd(kC4), _mm512_mul_pd(r, _mm512_set1_pd(kC5)));
  const __m512d tmp =
      _mm512_add_pd(_mm512_add_pd(_mm512_add_pd(tail, r), _mm512_mul_pd(r2, p23)),
                    _mm512_mul_pd(_mm512_mul_pd(r2, r2), p45));
  return _mm512_fmadd_pd(scale, tmp, scale);
}

/// Coefficient i of each lane's row, as its `row1` bit selects; a plain
/// broadcast when every lane agrees (the common case), saving the blend.
__attribute__((target("avx512f"))) inline __m512d coef_avx512(const Poly& c, __mmask8 row1,
                                                             int i) {
  if (row1 == 0) return _mm512_set1_pd(c[0][i]);
  if (row1 == 0xFF) return _mm512_set1_pd(c[1][i]);
  return _mm512_mask_blend_pd(row1, _mm512_set1_pd(c[0][i]), _mm512_set1_pd(c[1][i]));
}

/// c_i + w * c_{i+1} per lane, unfused.
__attribute__((target("avx512f"))) inline __m512d pair_avx512(__m512d w, const Poly& c,
                                                             __mmask8 row1, int i) {
  return _mm512_add_pd(coef_avx512(c, row1, i), _mm512_mul_pd(w, coef_avx512(c, row1, i + 1)));
}

/// poly_portable per lane, on each lane's coefficient row.
__attribute__((target("avx512f"))) inline __m512d poly_avx512(__m512d w, const Poly& c,
                                                             __mmask8 row1) {
  const __m512d w2 = _mm512_mul_pd(w, w);
  const __m512d w4 = _mm512_mul_pd(w2, w2);
  __m512d p = _mm512_add_pd(pair_avx512(w, c, row1, 0),
                            _mm512_mul_pd(w2, pair_avx512(w, c, row1, 2)));
  p = _mm512_add_pd(p, _mm512_mul_pd(w4, pair_avx512(w, c, row1, 4)));
  p = _mm512_add_pd(p, _mm512_mul_pd(_mm512_mul_pd(w4, w2), pair_avx512(w, c, row1, 6)));
  return _mm512_add_pd(p, _mm512_mul_pd(_mm512_mul_pd(w4, w4), coef_avx512(c, row1, 8)));
}

/// v with `sign` OR-ed into its (clear) sign bit.
__attribute__((target("avx512f"))) inline __m512d with_sign_avx512(__m512d v, __m512d sign) {
  return _mm512_castsi512_pd(_mm512_or_si512(_mm512_castpd_si512(v), _mm512_castpd_si512(sign)));
}

/// GELU of eight lanes, each on its own erf interval. The near and tail
/// rationals share one divide (each lane divides its own interval's
/// numerator and denominator), and the tail's reciprocal square and two
/// exps run only for a vector that holds a tail lane (|z| in [1.25, 6)).
__attribute__((target("avx512f"))) __m512d gelu_lanes_avx512(__m512d x, const ExpTable& t) {
  const __m512d one = _mm512_set1_pd(1.0);
  const __m512d z = _mm512_div_pd(x, _mm512_set1_pd(kSqrt2));
  const __m512d az = _mm512_abs_pd(z);
  const __m512d sign = _mm512_castsi512_pd(
      _mm512_andnot_si512(_mm512_castpd_si512(az), _mm512_castpd_si512(z)));
  const __mmask8 near = _mm512_cmp_pd_mask(az, _mm512_set1_pd(kNear), _CMP_LT_OQ);
  const __mmask8 tail =
      _mm512_cmp_pd_mask(az, _mm512_set1_pd(kOne), _CMP_LT_OQ) & static_cast<__mmask8>(~near);
  const __mmask8 mid = _mm512_cmp_pd_mask(az, _mm512_set1_pd(kSmall), _CMP_GE_OQ);
  const __m512d w = _mm512_mask_blend_pd(mid, _mm512_mul_pd(z, z), _mm512_sub_pd(az, one));
  __m512d num = poly_avx512(w, kNearNum, mid);
  __m512d den = poly_avx512(w, kNearDen, mid);
  if (tail != 0) {
    const __mmask8 far = _mm512_cmp_pd_mask(az, _mm512_set1_pd(kTailSplit), _CMP_GE_OQ);
    const __m512d s = _mm512_div_pd(one, _mm512_mul_pd(az, az));
    num = _mm512_mask_blend_pd(tail, num, poly_avx512(s, kTailNum, far));
    den = _mm512_mask_blend_pd(tail, den, poly_avx512(s, kTailDen, far));
  }
  const __m512d ratio = _mm512_div_pd(num, den);

  // |z| >= 6 and +-inf give +-1; a NaN lane stays NaN through 0.5 * x.
  __m512d erf = with_sign_avx512(one, sign);
  const __mmask8 tiny = _mm512_cmp_pd_mask(az, _mm512_set1_pd(kTiny), _CMP_LT_OQ);
  const __m512d y = _mm512_mask_blend_pd(tiny, ratio, _mm512_set1_pd(kEfx));
  const __m512d small_erf = _mm512_add_pd(z, _mm512_mul_pd(z, y));
  const __m512d mid_erf = with_sign_avx512(_mm512_add_pd(_mm512_set1_pd(kErx), y), sign);
  erf = _mm512_mask_blend_pd(near, erf, _mm512_mask_blend_pd(mid, small_erf, mid_erf));
  if (tail != 0) {
    const __m512d hz = _mm512_castsi512_pd(_mm512_and_si512(
        _mm512_castpd_si512(az), _mm512_set1_epi64(static_cast<long long>(0xFFFFFFFF00000000ull))));
    const __m512d e1 =
        exp_avx512(_mm512_sub_pd(_mm512_set1_pd(-0.5625), _mm512_mul_pd(hz, hz)), t);
    const __m512d e2 = exp_avx512(
        _mm512_add_pd(_mm512_mul_pd(_mm512_sub_pd(hz, az), _mm512_add_pd(hz, az)), ratio), t);
    const __m512d tail_erf =
        with_sign_avx512(_mm512_sub_pd(one, _mm512_div_pd(_mm512_mul_pd(e1, e2), az)), sign);
    erf = _mm512_mask_blend_pd(tail, erf, tail_erf);
  }
  return _mm512_mul_pd(_mm512_mul_pd(_mm512_set1_pd(0.5), x), _mm512_add_pd(one, erf));
}

__attribute__((target("avx512f"))) void gelu_span_avx512(const double* x, double* y,
                                                         std::size_t n, const ExpTable& t) {
  std::size_t i = 0;
  for (; n - i >= 8; i += 8) _mm512_storeu_pd(y + i, gelu_lanes_avx512(_mm512_loadu_pd(x + i), t));
  gelu_span_portable(x + i, y + i, n - i, t);
}

// ------------------------------------------------------------- AVX2 spelling

__attribute__((target("avx2,fma"))) inline __m256d exp_avx2(__m256d x, const ExpTable& t) {
  const __m256d shift = _mm256_set1_pd(kRoundShift);
  const __m256d shifted = _mm256_add_pd(_mm256_mul_pd(x, _mm256_set1_pd(kInvLn2N)), shift);
  const __m256i ki = _mm256_castpd_si256(shifted);
  const __m256d kd = _mm256_sub_pd(shifted, shift);
  __m256d r = _mm256_fmadd_pd(kd, _mm256_set1_pd(kNegLn2HiN), x);
  r = _mm256_fmadd_pd(kd, _mm256_set1_pd(kNegLn2LoN), r);
  const __m256i idx = _mm256_and_si256(ki, _mm256_set1_epi64x(kExpN - 1));
  const __m256d tail = _mm256_i64gather_pd(t.tail, idx, 8);
  const __m256d scale = _mm256_castsi256_pd(_mm256_add_epi64(
      _mm256_i64gather_epi64(reinterpret_cast<const long long*>(t.scale_bits), idx, 8),
      _mm256_slli_epi64(ki, 52 - kExpBits)));
  const __m256d r2 = _mm256_mul_pd(r, r);
  const __m256d p23 = _mm256_add_pd(_mm256_set1_pd(kC2), _mm256_mul_pd(r, _mm256_set1_pd(kC3)));
  const __m256d p45 = _mm256_add_pd(_mm256_set1_pd(kC4), _mm256_mul_pd(r, _mm256_set1_pd(kC5)));
  const __m256d tmp =
      _mm256_add_pd(_mm256_add_pd(_mm256_add_pd(tail, r), _mm256_mul_pd(r2, p23)),
                    _mm256_mul_pd(_mm256_mul_pd(r2, r2), p45));
  return _mm256_fmadd_pd(scale, tmp, scale);
}

/// coef_avx512 on four lanes; `rows` is row1's movemask.
__attribute__((target("avx2,fma"))) inline __m256d coef_avx2(const Poly& c, __m256d row1,
                                                            int rows, int i) {
  if (rows == 0) return _mm256_set1_pd(c[0][i]);
  if (rows == 0xF) return _mm256_set1_pd(c[1][i]);
  return _mm256_blendv_pd(_mm256_set1_pd(c[0][i]), _mm256_set1_pd(c[1][i]), row1);
}

__attribute__((target("avx2,fma"))) inline __m256d pair_avx2(__m256d w, const Poly& c,
                                                            __m256d row1, int rows, int i) {
  return _mm256_add_pd(coef_avx2(c, row1, rows, i),
                       _mm256_mul_pd(w, coef_avx2(c, row1, rows, i + 1)));
}

__attribute__((target("avx2,fma"))) inline __m256d poly_avx2(__m256d w, const Poly& c,
                                                            __m256d row1) {
  const int rows = _mm256_movemask_pd(row1);
  const __m256d w2 = _mm256_mul_pd(w, w);
  const __m256d w4 = _mm256_mul_pd(w2, w2);
  __m256d p = _mm256_add_pd(pair_avx2(w, c, row1, rows, 0),
                            _mm256_mul_pd(w2, pair_avx2(w, c, row1, rows, 2)));
  p = _mm256_add_pd(p, _mm256_mul_pd(w4, pair_avx2(w, c, row1, rows, 4)));
  p = _mm256_add_pd(p, _mm256_mul_pd(_mm256_mul_pd(w4, w2), pair_avx2(w, c, row1, rows, 6)));
  return _mm256_add_pd(p, _mm256_mul_pd(_mm256_mul_pd(w4, w4), coef_avx2(c, row1, rows, 8)));
}

/// gelu_lanes_avx512 on four lanes.
__attribute__((target("avx2,fma"))) __m256d gelu_lanes_avx2(__m256d x, const ExpTable& t) {
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d z = _mm256_div_pd(x, _mm256_set1_pd(kSqrt2));
  const __m256d sign = _mm256_and_pd(_mm256_set1_pd(-0.0), z);
  const __m256d az = _mm256_andnot_pd(_mm256_set1_pd(-0.0), z);
  const __m256d near = _mm256_cmp_pd(az, _mm256_set1_pd(kNear), _CMP_LT_OQ);
  const __m256d tail =
      _mm256_andnot_pd(near, _mm256_cmp_pd(az, _mm256_set1_pd(kOne), _CMP_LT_OQ));
  const bool any_tail = _mm256_movemask_pd(tail) != 0;
  const __m256d mid = _mm256_cmp_pd(az, _mm256_set1_pd(kSmall), _CMP_GE_OQ);
  const __m256d w = _mm256_blendv_pd(_mm256_mul_pd(z, z), _mm256_sub_pd(az, one), mid);
  __m256d num = poly_avx2(w, kNearNum, mid);
  __m256d den = poly_avx2(w, kNearDen, mid);
  if (any_tail) {
    const __m256d far = _mm256_cmp_pd(az, _mm256_set1_pd(kTailSplit), _CMP_GE_OQ);
    const __m256d s = _mm256_div_pd(one, _mm256_mul_pd(az, az));
    num = _mm256_blendv_pd(num, poly_avx2(s, kTailNum, far), tail);
    den = _mm256_blendv_pd(den, poly_avx2(s, kTailDen, far), tail);
  }
  const __m256d ratio = _mm256_div_pd(num, den);

  __m256d erf = _mm256_or_pd(one, sign);
  const __m256d tiny = _mm256_cmp_pd(az, _mm256_set1_pd(kTiny), _CMP_LT_OQ);
  const __m256d y = _mm256_blendv_pd(ratio, _mm256_set1_pd(kEfx), tiny);
  const __m256d small_erf = _mm256_add_pd(z, _mm256_mul_pd(z, y));
  const __m256d mid_erf = _mm256_or_pd(_mm256_add_pd(_mm256_set1_pd(kErx), y), sign);
  erf = _mm256_blendv_pd(erf, _mm256_blendv_pd(small_erf, mid_erf, mid), near);
  if (any_tail) {
    const __m256d hz = _mm256_and_pd(
        az, _mm256_castsi256_pd(_mm256_set1_epi64x(static_cast<long long>(0xFFFFFFFF00000000ull))));
    const __m256d e1 =
        exp_avx2(_mm256_sub_pd(_mm256_set1_pd(-0.5625), _mm256_mul_pd(hz, hz)), t);
    const __m256d e2 = exp_avx2(
        _mm256_add_pd(_mm256_mul_pd(_mm256_sub_pd(hz, az), _mm256_add_pd(hz, az)), ratio), t);
    const __m256d tail_erf =
        _mm256_or_pd(_mm256_sub_pd(one, _mm256_div_pd(_mm256_mul_pd(e1, e2), az)), sign);
    erf = _mm256_blendv_pd(erf, tail_erf, tail);
  }
  return _mm256_mul_pd(_mm256_mul_pd(_mm256_set1_pd(0.5), x), _mm256_add_pd(one, erf));
}

__attribute__((target("avx2,fma"))) void gelu_span_avx2(const double* x, double* y,
                                                        std::size_t n, const ExpTable& t) {
  std::size_t i = 0;
  for (; n - i >= 4; i += 4) _mm256_storeu_pd(y + i, gelu_lanes_avx2(_mm256_loadu_pd(x + i), t));
  gelu_span_portable(x + i, y + i, n - i, t);
}

#pragma GCC diagnostic pop
#endif  // __x86_64__

using SpanFn = void (*)(const double*, double*, std::size_t, const ExpTable&);

/// The spelling of `tier`, or nullptr when this CPU (or build) cannot run it.
SpanFn tier_fn(detail::GeluTier tier) {
#if defined(__x86_64__)
  if (tier == detail::GeluTier::kAvx512 && __builtin_cpu_supports("avx512f")) {
    return gelu_span_avx512;
  }
  if (tier == detail::GeluTier::kAvx2 && __builtin_cpu_supports("avx2") &&
      __builtin_cpu_supports("fma")) {
    return gelu_span_avx2;
  }
#endif
  return tier == detail::GeluTier::kPortable ? gelu_span_portable : nullptr;
}

void run_span(SpanFn fn, std::span<const double> x, std::span<double> y) {
  ONESA_CHECK(x.size() == y.size(),
              "gelu_exact spans differ: " << x.size() << " vs " << y.size());
  fn(x.data(), y.data(), x.size(), exp_table());
}

}  // namespace

namespace detail {

bool gelu_tier_available(GeluTier tier) { return tier_fn(tier) != nullptr; }

void gelu_exact_tier(GeluTier tier, std::span<const double> x, std::span<double> y) {
  ONESA_CHECK(gelu_tier_available(tier), "gelu_exact tier unavailable on this CPU");
  run_span(tier_fn(tier), x, y);
}

}  // namespace detail

void gelu_exact(std::span<const double> x, std::span<double> y) {
  static const SpanFn fn = [] {
    for (auto tier : {detail::GeluTier::kAvx512, detail::GeluTier::kAvx2}) {
      if (const SpanFn f = tier_fn(tier)) return f;
    }
    return gelu_span_portable;
  }();
  run_span(fn, x, y);
}

double gelu_exact(double x) { return gelu_portable(x, exp_table()); }

}  // namespace onesa::cpwl
