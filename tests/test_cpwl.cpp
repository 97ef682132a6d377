// Tests for the CPWL approximation engine — the core mechanism of ONE-SA.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <span>
#include <vector>

#include "cpwl/approx_error.hpp"
#include "cpwl/gelu.hpp"
#include "cpwl/segment_table.hpp"

namespace onesa::cpwl {
namespace {

SegmentTable build(FunctionKind kind, double granularity) {
  SegmentTableConfig cfg;
  cfg.granularity = granularity;
  return SegmentTable::build(kind, cfg);
}

TEST(SegmentTable, ExactAtSegmentEndpoints) {
  // The CPWL line interpolates the curve at segment endpoints.
  const auto t = build(FunctionKind::kGelu, 0.25);
  for (double x = -8.0; x <= 8.0; x += 0.25) {
    EXPECT_NEAR(t.eval(x), eval_reference(FunctionKind::kGelu, x), 1e-9) << x;
  }
}

TEST(SegmentTable, ReluIsExactEverywhere) {
  // ReLU is piecewise linear with a breakpoint at a segment boundary, so
  // CPWL reproduces it exactly (for segment-aligned granularity).
  const auto t = build(FunctionKind::kRelu, 0.5);
  for (double x = -7.9; x <= 7.9; x += 0.0317) {
    EXPECT_NEAR(t.eval(x), eval_reference(FunctionKind::kRelu, x), 1e-12) << x;
  }
}

TEST(SegmentTable, ErrorBoundQuadraticInGranularity) {
  // For a C^2 function, interpolation error per segment is bounded by
  // g^2 / 8 * max|f''|. For sigmoid, max|f''| ~ 0.0963.
  for (double g : {0.125, 0.25, 0.5}) {
    const auto report =
        measure_error(FunctionKind::kSigmoid, build(FunctionKind::kSigmoid, g));
    EXPECT_LE(report.max_abs_error, g * g / 8.0 * 0.1 + 1e-9) << g;
  }
}

TEST(SegmentTable, ErrorDecreasesWithGranularity) {
  const auto reports =
      granularity_sweep(FunctionKind::kGelu, {1.0, 0.5, 0.25, 0.125, 0.0625});
  for (std::size_t i = 1; i < reports.size(); ++i) {
    EXPECT_LE(reports[i].max_abs_error, reports[i - 1].max_abs_error)
        << "granularity " << reports[i].granularity;
  }
}

TEST(SegmentTable, CappingUsesBoundarySegmentLine) {
  const auto t = build(FunctionKind::kGelu, 0.25);
  // Far beyond the domain, GELU(x) ~ x; the top boundary segment's line has
  // slope ~1, intercept ~0, so the capped evaluation extends it.
  const double far = 20.0;
  const int top = t.max_segment();
  EXPECT_EQ(t.segment_index(far), top);
  EXPECT_NEAR(t.eval(far), t.k(top) * far + t.b(top), 1e-12);
  // And below: GELU -> 0.
  const int bottom = t.min_segment();
  EXPECT_EQ(t.segment_index(-20.0), bottom);
  EXPECT_NEAR(t.eval(-20.0), t.k(bottom) * -20.0 + t.b(bottom), 1e-12);
}

TEST(SegmentTable, ShiftIndexableForPowersOfTwo) {
  EXPECT_TRUE(build(FunctionKind::kGelu, 0.25).shift_indexable());
  EXPECT_TRUE(build(FunctionKind::kGelu, 0.5).shift_indexable());
  EXPECT_TRUE(build(FunctionKind::kGelu, 1.0).shift_indexable());
  EXPECT_TRUE(build(FunctionKind::kGelu, 2.0).shift_indexable());
  EXPECT_FALSE(build(FunctionKind::kGelu, 0.1).shift_indexable());
  EXPECT_FALSE(build(FunctionKind::kGelu, 0.75).shift_indexable());
}

TEST(SegmentTable, ShiftAmountMatchesFormula) {
  // Q6.9: g = 2^e, shift = 9 + e.
  EXPECT_EQ(build(FunctionKind::kGelu, 0.25).shift_amount(), 7);
  EXPECT_EQ(build(FunctionKind::kGelu, 0.5).shift_amount(), 8);
  EXPECT_EQ(build(FunctionKind::kGelu, 1.0).shift_amount(), 9);
}

// The load-bearing hardware property: for every INT16 raw value, the shift
// path of the data-addressing unit gives the same (capped) segment as the
// arithmetic divide path.
class ShiftVsDivide : public ::testing::TestWithParam<double> {};

TEST_P(ShiftVsDivide, AgreeOnEveryRawValue) {
  const auto t = build(FunctionKind::kGelu, GetParam());
  ASSERT_TRUE(t.shift_indexable());
  for (int raw = -32768; raw <= 32767; ++raw) {
    const auto r = static_cast<std::int16_t>(raw);
    const double x = static_cast<double>(r) / 512.0;
    EXPECT_EQ(t.segment_index_raw(r), t.segment_index(x)) << "raw " << raw;
  }
}

INSTANTIATE_TEST_SUITE_P(PowerOfTwoGranularities, ShiftVsDivide,
                         ::testing::Values(0.125, 0.25, 0.5, 1.0, 2.0));

TEST(SegmentTable, EvalFixedTracksDoubleEval) {
  const auto t = build(FunctionKind::kGelu, 0.25);
  for (double x = -6.0; x <= 6.0; x += 0.0173) {
    const auto fx = fixed::Fix16::from_double(x);
    const double got = t.eval_fixed(fx).to_double();
    const double want = t.eval(fx.to_double());
    // Error budget: quantized k/b (each <= ulp/2, k error scaled by |x|<=8)
    // plus the final rounding.
    EXPECT_NEAR(got, want, fixed::Fix16::resolution() * (2.0 + std::abs(x))) << x;
  }
}

TEST(SegmentTable, BatchEvalFixedBitExactWithScalarAcrossFullRawRange) {
  // eval_fixed_batch carries a SIMD fast path on the shift-indexable route;
  // its contract is bit-exactness with eval_fixed for EVERY int16 input.
  // Sweep the entire raw range for a shift-indexable table, a divide-path
  // table (non-power-of-two granularity) and a non-default Q format, with a
  // batch length that exercises both the vector body and the scalar tail.
  SegmentTableConfig q8;
  q8.frac_bits = 8;
  const SegmentTable tables[] = {
      build(FunctionKind::kGelu, 0.25),
      build(FunctionKind::kSigmoid, 0.1),  // not a power of two: divide path
      SegmentTable::build(FunctionKind::kTanh, q8),
  };
  for (const SegmentTable& t : tables) {
    std::vector<fixed::Fix16> x;
    x.reserve(65536);
    for (int raw = std::numeric_limits<std::int16_t>::min();
         raw <= std::numeric_limits<std::int16_t>::max(); ++raw) {
      x.push_back(fixed::Fix16::from_raw(static_cast<std::int16_t>(raw)));
    }
    std::vector<fixed::Fix16> y(x.size());
    t.eval_fixed_batch(x, y);
    for (std::size_t i = 0; i < x.size(); ++i) {
      ASSERT_EQ(y[i].raw(), t.eval_fixed(x[i]).raw())
          << t.name() << " raw input " << x[i].raw();
    }
    // Odd length: the last 13 elements run down the scalar tail.
    const std::size_t odd = 16 * 3 + 13;
    std::vector<fixed::Fix16> y2(odd);
    t.eval_fixed_batch(std::span<const fixed::Fix16>(x.data(), odd),
                       std::span<fixed::Fix16>(y2.data(), odd));
    for (std::size_t i = 0; i < odd; ++i) ASSERT_EQ(y2[i].raw(), y[i].raw());
  }
}

TEST(SegmentTable, TableBytesMatchesSegmentCount) {
  const auto t = build(FunctionKind::kGelu, 0.25);
  // Domain [-8, 8] at 0.25 -> 64 segments, 2 INT16 params each.
  EXPECT_EQ(t.segment_count(), 64u);
  EXPECT_EQ(t.table_bytes(), 64u * 4u);
}

TEST(SegmentTable, ReciprocalBoundarySegmentIsFinite) {
  // The first segment of 1/x is clipped to the domain edge, so k and b stay
  // finite even though the segment nominally starts at 0.
  const auto t = build(FunctionKind::kReciprocal, 0.25);
  const int s0 = t.min_segment();
  EXPECT_TRUE(std::isfinite(t.k(s0)));
  EXPECT_TRUE(std::isfinite(t.b(s0)));
  // At the domain's low edge the approximation interpolates the curve.
  const double lo = t.domain().lo;
  EXPECT_NEAR(t.eval(lo), 1.0 / lo, 1e-9);
}

TEST(SegmentTable, InvalidConfigsThrow) {
  SegmentTableConfig bad;
  bad.granularity = -1.0;
  EXPECT_THROW(SegmentTable::build(FunctionKind::kGelu, bad), Error);
  SegmentTableConfig empty;
  empty.granularity = 0.25;
  empty.domain = {3.0, 3.0};
  EXPECT_THROW(
      SegmentTable::build_custom([](double x) { return x; }, "id", empty), Error);
}

TEST(SegmentTable, CustomFunctionSupported) {
  // The "one-size-fits-all" promise: arbitrary scalar nonlinearity.
  SegmentTableConfig cfg;
  cfg.granularity = 0.125;
  cfg.domain = {0.0, 4.0};
  const auto t = SegmentTable::build_custom(
      [](double x) { return std::log1p(x); }, "log1p", cfg);
  for (double x = 0.0; x <= 4.0; x += 0.0117) {
    EXPECT_NEAR(t.eval(x), std::log1p(x), 0.125 * 0.125 / 8.0 * 1.0 + 1e-9) << x;
  }
}

TEST(TableSet, ProvidesAllCatalogFunctions) {
  const TableSet set(0.25);
  for (FunctionKind kind : all_functions()) {
    EXPECT_EQ(set.get(kind).name(), function_name(kind));
    EXPECT_EQ(set.get(kind).granularity(), 0.25);
  }
  EXPECT_GT(set.total_table_bytes(), 0u);
}

TEST(TableSet, PerFunctionGranularityOverrides) {
  const TableSet set(0.5, {{FunctionKind::kExp, 0.125}, {FunctionKind::kGelu, 0.25}});
  EXPECT_DOUBLE_EQ(set.get(FunctionKind::kExp).granularity(), 0.125);
  EXPECT_DOUBLE_EQ(set.get(FunctionKind::kGelu).granularity(), 0.25);
  EXPECT_DOUBLE_EQ(set.get(FunctionKind::kTanh).granularity(), 0.5);
  // Finer exp table means more bytes than the uniform-0.5 set.
  const TableSet uniform(0.5);
  EXPECT_GT(set.total_table_bytes(), uniform.total_table_bytes());
}

TEST(ApproxError, ChooseGranularityMeetsTolerance) {
  const double g = choose_granularity(FunctionKind::kGelu, 0.01);
  const auto report = measure_error(FunctionKind::kGelu, build(FunctionKind::kGelu, g));
  EXPECT_LE(report.max_abs_error, 0.01);
  // And it is the *largest* qualifying power of two: doubling it fails.
  const auto worse =
      measure_error(FunctionKind::kGelu, build(FunctionKind::kGelu, g * 2.0));
  EXPECT_GT(worse.max_abs_error, 0.01);
}

TEST(ApproxError, ImpossibleToleranceThrows) {
  EXPECT_THROW(choose_granularity(FunctionKind::kExp, 1e-12), ConfigError);
}

// Every catalog function is well approximated at the paper's default 0.25
// granularity (the basis of Table III's "negligible loss" claim).
class AllFunctionsAtDefault : public ::testing::TestWithParam<FunctionKind> {};

TEST_P(AllFunctionsAtDefault, BoundedRelativeOrAbsoluteError) {
  const auto kind = GetParam();
  const auto report = measure_error(kind, build(kind, 0.25));
  // Reciprocal/rsqrt are steep near the domain edge; allow a looser bound.
  const double bound = positive_only(kind) ? 0.6 : 0.02;
  EXPECT_LE(report.max_abs_error, bound) << function_name(kind);
}

INSTANTIATE_TEST_SUITE_P(Catalog, AllFunctionsAtDefault,
                         ::testing::ValuesIn(all_functions()),
                         [](const auto& info) {
                           return std::string(function_name(info.param));
                         });

// ------------------------------------------------------------- exact GELU

/// The GELU every table and activation evaluated before gelu_exact.
double gelu_via_std_erf(double x) { return 0.5 * x * (1.0 + std::erf(x / std::sqrt(2.0))); }

bool same_bits_or_both_nan(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b) ||
         (std::isnan(a) && std::isnan(b));
}

TEST(GeluExact, WithinFourUlpsOfStdErfGeluOverAMillionPoints) {
  // |diff| <= 4 * 2^-52 * max(1, |x|) on an even grid over [-10, 10]. Off the
  // exp-based erf tail the two are the same arithmetic, so nearly every
  // point is bit-identical; the count bound catches an erf that drifts.
  constexpr std::size_t kPoints = 1'000'001;
  std::vector<double> x(kPoints), y(kPoints);
  for (std::size_t i = 0; i < kPoints; ++i)
    x[i] = -10.0 + 20.0 * static_cast<double>(i) / static_cast<double>(kPoints - 1);
  gelu_exact(x, y);
  const double eps = std::numeric_limits<double>::epsilon();  // 2^-52
  std::size_t differing = 0;
  for (std::size_t i = 0; i < kPoints; ++i) {
    const double want = gelu_via_std_erf(x[i]);
    ASSERT_LE(std::abs(y[i] - want), 4.0 * eps * std::max(1.0, std::abs(x[i]))) << x[i];
    differing += y[i] != want;
  }
  EXPECT_LT(differing, kPoints / 10000) << differing << " points differ in the last bits";
}

TEST(GeluExact, SpecialValuesMatchStdErfGelu) {
  const double inf = std::numeric_limits<double>::infinity();
  const double values[] = {0.0,
                           -0.0,
                           std::numeric_limits<double>::denorm_min(),
                           -std::numeric_limits<double>::denorm_min(),
                           0x1p-1030,
                           -0x1p-1030,
                           std::numeric_limits<double>::min(),
                           -std::numeric_limits<double>::min(),
                           1e-20,
                           -1e-20,
                           8.0,
                           -8.0,
                           inf,
                           -inf,  // -inf * Phi(-inf) = -inf * 0: NaN, as before
                           std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::max(),
                           -std::numeric_limits<double>::max()};
  std::vector<double> y(std::size(values));
  gelu_exact(values, y);
  for (std::size_t i = 0; i < std::size(values); ++i) {
    const double want = gelu_via_std_erf(values[i]);
    EXPECT_TRUE(same_bits_or_both_nan(y[i], want)) << values[i] << ": " << y[i] << " vs " << want;
    EXPECT_TRUE(same_bits_or_both_nan(gelu_exact(values[i]), want)) << values[i];
  }
}

TEST(GeluExact, EveryTierGivesIdenticalBits) {
  // Every erf interval and both interval boundaries on each side, random
  // normal draws, and a length that leaves a ragged remainder for each
  // vector width.
  std::vector<double> x;
  for (double v = -12.0; v <= 12.0; v += 0.00731) x.push_back(v);
  for (double edge : {0x1p-28, 0.84375, 1.25, 0x1.6db6ep+1, 6.0}) {
    for (double e : {std::nextafter(edge, 0.0), edge, std::nextafter(edge, 10.0)}) {
      x.push_back(e * std::sqrt(2.0));
      x.push_back(-e * std::sqrt(2.0));
    }
  }
  std::mt19937_64 gen(17);
  std::normal_distribution<double> normal(0.0, 2.0);
  for (int i = 0; i < 20000; ++i) x.push_back(normal(gen));
  x.push_back(std::numeric_limits<double>::infinity());
  x.push_back(std::numeric_limits<double>::quiet_NaN());
  x.push_back(-0.0);
  if (x.size() % 8 == 0) x.push_back(0.5);

  std::vector<double> portable(x.size());
  detail::gelu_exact_tier(detail::GeluTier::kPortable, x, portable);
  std::vector<double> dispatched(x.size());
  gelu_exact(x, dispatched);
  for (auto tier : {detail::GeluTier::kAvx512, detail::GeluTier::kAvx2}) {
    if (!detail::gelu_tier_available(tier)) continue;
    std::vector<double> y(x.size());
    detail::gelu_exact_tier(tier, x, y);
    for (std::size_t i = 0; i < x.size(); ++i)
      ASSERT_TRUE(same_bits_or_both_nan(y[i], portable[i]))
          << "tier " << static_cast<int>(tier) << " x=" << x[i];
  }
  for (std::size_t i = 0; i < x.size(); ++i)
    ASSERT_TRUE(same_bits_or_both_nan(dispatched[i], portable[i])) << x[i];

  // Spans shorter than, equal to and just past a vector, longer spans with a
  // scalar remainder, and in place.
  for (std::size_t len : {0u, 1u, 5u, 8u, 13u, 256u, 257u, 700u}) {
    std::vector<double> y(x.begin(), x.begin() + len);
    gelu_exact(y, y);
    for (std::size_t i = 0; i < len; ++i)
      ASSERT_TRUE(same_bits_or_both_nan(y[i], portable[i])) << "length " << len << " at " << i;
  }
}

TEST(GeluExact, CpwlTablesMatchTheStdErfBuildBitForBit) {
  // Every GELU table configuration the tests and benches build: the
  // granularity sweeps (Table III, the L3 ablation, the tuner's halvings),
  // the default, doubled (capping ablation) and custom domains, and both
  // fixed-point formats. A table built on gelu_exact must not move a bit of
  // its double or INT16 parameters.
  const Domain domains[] = {default_domain(FunctionKind::kGelu), {-16.0, 16.0}, {0.0, 4.0}};
  const double granularities[] = {2.0,   1.0,    0.75,    0.5,      0.25,      0.125, 0.1,
                                  0.0625, 0.03125, 0.015625, 0.0078125};
  for (const Domain& domain : domains) {
    for (double g : granularities) {
      for (int frac_bits : {8, 9}) {
        SegmentTableConfig cfg;
        cfg.granularity = g;
        cfg.domain = domain;
        cfg.frac_bits = frac_bits;
        const auto table = SegmentTable::build(FunctionKind::kGelu, cfg);
        const auto old = SegmentTable::build_custom(gelu_via_std_erf, "gelu", cfg);
        ASSERT_EQ(table.segment_count(), old.segment_count());
        for (int s = table.min_segment(); s <= table.max_segment(); ++s) {
          ASSERT_EQ(std::bit_cast<std::uint64_t>(table.k(s)), std::bit_cast<std::uint64_t>(old.k(s)))
              << "g=" << g << " domain=[" << domain.lo << ", " << domain.hi << "] s=" << s;
          ASSERT_EQ(std::bit_cast<std::uint64_t>(table.b(s)), std::bit_cast<std::uint64_t>(old.b(s)))
              << "g=" << g << " domain=[" << domain.lo << ", " << domain.hi << "] s=" << s;
          ASSERT_EQ(table.k_fixed(s).raw(), old.k_fixed(s).raw());
          ASSERT_EQ(table.b_fixed(s).raw(), old.b_fixed(s).raw());
        }
      }
    }
  }
}

}  // namespace
}  // namespace onesa::cpwl
