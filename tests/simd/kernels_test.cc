#include "simd/kernels.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "linalg/blocked_matrix.h"
#include "linalg/matrix.h"
#include "linalg/vector.h"
#include "simd/dispatch.h"
#include "stats/rng.h"

namespace cohere {
namespace simd {
namespace {

// Independent scalar references, written out in this file so a drift in the
// production oracle (src/simd/kernels_internal.h) cannot hide: these repeat
// the historical Metric / VaFileIndex loops operation for operation.

double RefL2(const double* q, const double* row, size_t d) {
  double sum = 0.0;
  for (size_t j = 0; j < d; ++j) {
    const double t = q[j] - row[j];
    sum += t * t;
  }
  return sum;
}

double RefL1(const double* q, const double* row, size_t d) {
  double sum = 0.0;
  for (size_t j = 0; j < d; ++j) sum += std::fabs(q[j] - row[j]);
  return sum;
}

double RefLinf(const double* q, const double* row, size_t d) {
  double best = 0.0;
  for (size_t j = 0; j < d; ++j) best = std::max(best, std::fabs(q[j] - row[j]));
  return best;
}

double RefCosine(const double* q, const double* row, size_t d) {
  double dot = 0.0;
  double na = 0.0;
  double nb = 0.0;
  for (size_t j = 0; j < d; ++j) {
    dot += q[j] * row[j];
    na += q[j] * q[j];
    nb += row[j] * row[j];
  }
  if (na == 0.0 && nb == 0.0) return 0.0;
  if (na == 0.0 || nb == 0.0) return 1.0;
  const double sim = dot / std::sqrt(na * nb);
  return 1.0 - std::clamp(sim, -1.0, 1.0);
}

double RefFractional(const double* q, const double* row, size_t d, double p) {
  double sum = 0.0;
  for (size_t j = 0; j < d; ++j) sum += std::pow(std::fabs(q[j] - row[j]), p);
  return sum;
}

void RefVaBounds(const double* q, const uint8_t* code, size_t d,
                 const double* boundaries, size_t bstride, int kind,
                 double* lb_out, double* ub_out) {
  double lb = 0.0;
  double ub = 0.0;
  for (size_t j = 0; j < d; ++j) {
    const double* b = boundaries + j * bstride;
    const double lo = b[code[j]];
    const double hi = b[code[j] + 1];
    const double qj = q[j];
    double lb_j = 0.0;
    if (qj < lo) {
      lb_j = lo - qj;
    } else if (qj > hi) {
      lb_j = qj - hi;
    }
    const double ub_j = std::max(std::fabs(qj - lo), std::fabs(qj - hi));
    switch (kind) {
      case 0:  // L2
        lb += lb_j * lb_j;
        ub += ub_j * ub_j;
        break;
      case 1:  // L1
        lb += lb_j;
        ub += ub_j;
        break;
      default:  // Linf
        lb = std::max(lb, lb_j);
        ub = std::max(ub, ub_j);
        break;
    }
  }
  *lb_out = lb;
  *ub_out = ub;
}

uint64_t Bits(double x) {
  uint64_t u;
  std::memcpy(&u, &x, sizeof(u));
  return u;
}

::testing::AssertionResult BitEqual(double actual, double expected) {
  // Any-NaN equals any-NaN: IEEE leaves the sign/payload of a generated or
  // propagated NaN unspecified, and GCC lowers the add/mul intrinsics to
  // generic (commutable) vector ops, so which NaN operand x86 selects can
  // differ between the scalar and vector pipelines. Everything non-NaN —
  // finite values, ±0, ±inf — stays bit-strict.
  if (std::isnan(actual) && std::isnan(expected)) {
    return ::testing::AssertionSuccess();
  }
  if (Bits(actual) == Bits(expected)) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << "bit mismatch: got " << actual << " (0x" << std::hex
         << Bits(actual) << "), want " << expected << " (0x" << Bits(expected)
         << ")";
}

std::vector<Level> AvailableLevels() {
  std::vector<Level> levels = {Level::kScalar};
  if (DetectedLevel() >= Level::kSse2) levels.push_back(Level::kSse2);
  if (DetectedLevel() >= Level::kAvx2) levels.push_back(Level::kAvx2);
  return levels;
}

// Gaussian fill with a sprinkling of exactly-representable special values so
// tails, denormals and non-finite propagation are all exercised.
std::vector<double> FillValues(size_t count, uint64_t seed,
                               bool with_specials) {
  Rng rng(seed);
  std::vector<double> v(count);
  for (double& x : v) x = rng.Gaussian();
  if (with_specials && count >= 12) {
    v[0] = 0.0;
    v[1] = -0.0;
    v[2] = 5e-324;   // smallest denormal
    v[3] = -1e-308;  // denormal-range magnitude
    v[4] = 1e300;
    v[5] = -1e300;
    v[6] = std::numeric_limits<double>::infinity();
    v[7] = -std::numeric_limits<double>::infinity();
    v[8] = std::numeric_limits<double>::quiet_NaN();
    v[9] = 1.0;
    v[10] = -1.0;
    v[11] = 0.5;
  }
  return v;
}

const size_t kDims[] = {0, 1, 2, 3, 4, 5, 7, 8, 9, 12, 15, 16, 17, 31, 32, 33};
const size_t kRowCounts[] = {0, 1, 2, 3, 4, 5, 6, 7, 8, 15, 16, 17};

TEST(SimdKernelParityTest, BlockKernelsMatchScalarReferenceBitwise) {
  for (Level level : AvailableLevels()) {
    const KernelTable& k = KernelsFor(level);
    for (size_t d : kDims) {
      for (size_t n_rows : kRowCounts) {
        const uint64_t seed = 1000 + d * 131 + n_rows;
        const std::vector<double> q = FillValues(std::max<size_t>(d, 1), seed,
                                                 /*with_specials=*/false);
        const std::vector<double> rows =
            FillValues(std::max<size_t>(n_rows * d, 1), seed + 1,
                       /*with_specials=*/true);
        std::vector<double> out(n_rows + 1, -7.0);

        k.l2_block(q.data(), rows.data(), n_rows, d, out.data());
        for (size_t r = 0; r < n_rows; ++r) {
          EXPECT_TRUE(BitEqual(out[r], RefL2(q.data(), rows.data() + r * d, d)))
              << LevelName(level) << " l2 d=" << d << " r=" << r;
        }
        k.l1_block(q.data(), rows.data(), n_rows, d, out.data());
        for (size_t r = 0; r < n_rows; ++r) {
          EXPECT_TRUE(BitEqual(out[r], RefL1(q.data(), rows.data() + r * d, d)))
              << LevelName(level) << " l1 d=" << d << " r=" << r;
        }
        k.linf_block(q.data(), rows.data(), n_rows, d, out.data());
        for (size_t r = 0; r < n_rows; ++r) {
          EXPECT_TRUE(
              BitEqual(out[r], RefLinf(q.data(), rows.data() + r * d, d)))
              << LevelName(level) << " linf d=" << d << " r=" << r;
        }
        k.cosine_block(q.data(), rows.data(), n_rows, d, out.data());
        for (size_t r = 0; r < n_rows; ++r) {
          EXPECT_TRUE(
              BitEqual(out[r], RefCosine(q.data(), rows.data() + r * d, d)))
              << LevelName(level) << " cosine d=" << d << " r=" << r;
        }
        k.fractional_block(q.data(), rows.data(), n_rows, d, 0.5, out.data());
        for (size_t r = 0; r < n_rows; ++r) {
          EXPECT_TRUE(BitEqual(
              out[r], RefFractional(q.data(), rows.data() + r * d, d, 0.5)))
              << LevelName(level) << " fractional d=" << d << " r=" << r;
        }
      }
    }
  }
}

TEST(SimdKernelParityTest, SpecialValuesInQueryPropagateBitwise) {
  // NaN / inf / denormals in the QUERY hit every row of a group at once.
  for (Level level : AvailableLevels()) {
    const KernelTable& k = KernelsFor(level);
    const size_t d = 13;
    const size_t n_rows = 9;
    std::vector<double> q = FillValues(d, 77, /*with_specials=*/true);
    const std::vector<double> rows =
        FillValues(n_rows * d, 78, /*with_specials=*/false);
    std::vector<double> out(n_rows);
    k.l2_block(q.data(), rows.data(), n_rows, d, out.data());
    for (size_t r = 0; r < n_rows; ++r) {
      EXPECT_TRUE(BitEqual(out[r], RefL2(q.data(), rows.data() + r * d, d)))
          << LevelName(level) << " r=" << r;
    }
    k.linf_block(q.data(), rows.data(), n_rows, d, out.data());
    for (size_t r = 0; r < n_rows; ++r) {
      EXPECT_TRUE(BitEqual(out[r], RefLinf(q.data(), rows.data() + r * d, d)))
          << LevelName(level) << " r=" << r;
    }
  }
}

TEST(SimdKernelParityTest, UnalignedRowBasePointerIsSupported) {
  // Scans call kernels at RowPtr(base) for arbitrary base, so row pointers
  // are not 32-byte aligned in general.
  for (Level level : AvailableLevels()) {
    const KernelTable& k = KernelsFor(level);
    const size_t d = 7;
    const size_t n_rows = 6;
    const std::vector<double> backing =
        FillValues(n_rows * d + 1, 97, /*with_specials=*/false);
    const double* rows = backing.data() + 1;  // deliberately odd offset
    const std::vector<double> q = FillValues(d, 98, /*with_specials=*/false);
    std::vector<double> out(n_rows);
    k.l2_block(q.data(), rows, n_rows, d, out.data());
    for (size_t r = 0; r < n_rows; ++r) {
      EXPECT_TRUE(BitEqual(out[r], RefL2(q.data(), rows + r * d, d)))
          << LevelName(level) << " r=" << r;
    }
  }
}

TEST(SimdKernelParityTest, ZeroVectorCosineRulesHold) {
  for (Level level : AvailableLevels()) {
    const KernelTable& k = KernelsFor(level);
    const size_t d = 6;
    std::vector<double> rows(3 * d, 0.0);
    rows[2 * d + 0] = 3.0;  // row 2 nonzero
    const std::vector<double> zero_q(d, 0.0);
    std::vector<double> out(3);
    k.cosine_block(zero_q.data(), rows.data(), 3, d, out.data());
    EXPECT_EQ(out[0], 0.0) << "zero vs zero";
    EXPECT_EQ(out[1], 0.0);
    EXPECT_EQ(out[2], 1.0) << "zero vs nonzero";

    std::vector<double> q(d, 0.0);
    q[1] = 2.0;
    k.cosine_block(q.data(), rows.data(), 3, d, out.data());
    EXPECT_EQ(out[0], 1.0) << "nonzero vs zero";
  }
}

// The BlockedMatrix contract: nothing reads at or past rows(). A view grown
// by AppendRow keeps spare capacity after its last row; with that capacity
// filled with NaN rows, every block kernel must return the bits it returns
// over an exact-size heap copy of the same rows (which ASan bounds).
TEST(SimdKernelParityTest, BlockKernelsNeverReadPastTheLastRow) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (size_t d : {size_t{1}, size_t{3}, size_t{8}, size_t{13}}) {
    for (size_t n_rows : {size_t{3}, size_t{5}, size_t{6}, size_t{9},
                          size_t{10}, size_t{11}, size_t{17}, size_t{18},
                          size_t{19}}) {
      const uint64_t seed = 3000 + d * 131 + n_rows;
      const std::vector<double> values =
          FillValues(n_rows * d, seed, /*with_specials=*/false);
      BlockedMatrix view{Matrix(0, d)};
      for (size_t r = 0; r < n_rows; ++r) {
        view = view.AppendRow(Vector(std::vector<double>(
            values.begin() + r * d, values.begin() + (r + 1) * d)));
      }
      const Vector poison(d, nan);
      BlockedMatrix poisoned = view;
      for (BlockedMatrix next = view.AppendRow(poison);
           next.data() == view.data(); next = next.AppendRow(poison)) {
        poisoned = next;
      }
      ASSERT_GT(poisoned.rows(), n_rows) << "no spare capacity to poison";
      ASSERT_TRUE(std::isnan(poisoned.At(n_rows, 0)));
      const std::vector<double> exact(view.data(),
                                      view.data() + n_rows * d);

      const std::vector<double> query =
          FillValues(d, seed + 1, /*with_specials=*/false);
      const double* q = query.data();
      for (Level level : AvailableLevels()) {
        const KernelTable& k = KernelsFor(level);
        std::vector<double> got(n_rows);
        std::vector<double> want(n_rows);
        auto expect_same = [&](const char* kernel) {
          for (size_t i = 0; i < n_rows; ++i) {
            EXPECT_TRUE(BitEqual(got[i], want[i]))
                << LevelName(level) << " " << kernel << " d=" << d
                << " n_rows=" << n_rows << " i=" << i;
          }
        };
        k.l2_block(q, view.data(), n_rows, d, got.data());
        k.l2_block(q, exact.data(), n_rows, d, want.data());
        expect_same("l2");
        k.l1_block(q, view.data(), n_rows, d, got.data());
        k.l1_block(q, exact.data(), n_rows, d, want.data());
        expect_same("l1");
        k.linf_block(q, view.data(), n_rows, d, got.data());
        k.linf_block(q, exact.data(), n_rows, d, want.data());
        expect_same("linf");
        k.cosine_block(q, view.data(), n_rows, d, got.data());
        k.cosine_block(q, exact.data(), n_rows, d, want.data());
        expect_same("cosine");
        k.fractional_block(q, view.data(), n_rows, d, 0.5, got.data());
        k.fractional_block(q, exact.data(), n_rows, d, 0.5, want.data());
        expect_same("fractional");
      }
    }
  }
}

TEST(SimdKernelParityTest, VaBoundsMatchScalarReferenceBitwise) {
  const size_t cells = 8;
  const size_t bstride = cells + 1;
  for (Level level : AvailableLevels()) {
    const KernelTable& k = KernelsFor(level);
    decltype(k.va_bounds_l2) kernels[3] = {k.va_bounds_l2, k.va_bounds_l1,
                                           k.va_bounds_linf};
    for (size_t d : {size_t{1}, size_t{3}, size_t{8}, size_t{17}}) {
      for (size_t n_rows : kRowCounts) {
        Rng rng(300 + d * 31 + n_rows);
        // Ascending boundaries per dimension.
        std::vector<double> boundaries(d * bstride);
        for (size_t j = 0; j < d; ++j) {
          double v = rng.Gaussian() - 4.0;
          for (size_t c = 0; c < bstride; ++c) {
            boundaries[j * bstride + c] = v;
            v += std::fabs(rng.Gaussian()) + 1e-3;
          }
        }
        std::vector<uint8_t> codes(std::max<size_t>(n_rows * d, 1));
        for (uint8_t& c : codes) {
          c = static_cast<uint8_t>(
              rng.UniformInt(0, static_cast<int64_t>(cells - 1)));
        }
        std::vector<double> q = FillValues(d, 400 + d, /*with_specials=*/false);
        if (d >= 3) q[2] = std::numeric_limits<double>::quiet_NaN();
        std::vector<double> lb(n_rows + 1), ub(n_rows + 1);
        for (int kind = 0; kind < 3; ++kind) {
          kernels[kind](q.data(), codes.data(), n_rows, d, boundaries.data(),
                        bstride, lb.data(), ub.data());
          for (size_t r = 0; r < n_rows; ++r) {
            double want_lb;
            double want_ub;
            RefVaBounds(q.data(), codes.data() + r * d, d, boundaries.data(),
                        bstride, kind, &want_lb, &want_ub);
            EXPECT_TRUE(BitEqual(lb[r], want_lb))
                << LevelName(level) << " kind=" << kind << " lb r=" << r;
            EXPECT_TRUE(BitEqual(ub[r], want_ub))
                << LevelName(level) << " kind=" << kind << " ub r=" << r;
          }
        }
      }
    }
  }
}

TEST(SimdKernelTest, FastPairKernelsAgreeWithinRoundingSlack) {
  for (Level level : AvailableLevels()) {
    const KernelTable& k = KernelsFor(level);
    for (size_t d : {size_t{1}, size_t{5}, size_t{16}, size_t{33},
                     size_t{64}}) {
      const std::vector<double> a = FillValues(d, 500 + d, false);
      const std::vector<double> b = FillValues(d, 501 + d, false);
      const double l2 = RefL2(a.data(), b.data(), d);
      const double l1 = RefL1(a.data(), b.data(), d);
      const double linf = RefLinf(a.data(), b.data(), d);
      const double cos = RefCosine(a.data(), b.data(), d);
      EXPECT_NEAR(k.l2_pair_fast(a.data(), b.data(), d), l2,
                  1e-12 * (1.0 + l2));
      EXPECT_NEAR(k.l1_pair_fast(a.data(), b.data(), d), l1,
                  1e-12 * (1.0 + l1));
      // max is order-insensitive: exact at every level.
      EXPECT_TRUE(BitEqual(k.linf_pair_fast(a.data(), b.data(), d), linf));
      EXPECT_NEAR(k.cosine_pair_fast(a.data(), b.data(), d), cos, 1e-12);
    }
  }
}

TEST(SimdKernelTest, L2SquaredMatchesReferenceBitwise) {
  const size_t d = 19;
  const std::vector<double> a = FillValues(d, 600, true);
  const std::vector<double> b = FillValues(d, 601, false);
  EXPECT_TRUE(BitEqual(L2Squared(a.data(), b.data(), d),
                       RefL2(a.data(), b.data(), d)));
}

TEST(SimdDispatchTest, ParseLevelRoundTrips) {
  Level out = Level::kAvx2;
  EXPECT_TRUE(ParseLevel("scalar", &out));
  EXPECT_EQ(out, Level::kScalar);
  EXPECT_TRUE(ParseLevel("sse2", &out));
  EXPECT_EQ(out, Level::kSse2);
  EXPECT_TRUE(ParseLevel("avx2", &out));
  EXPECT_EQ(out, Level::kAvx2);
  out = Level::kSse2;
  EXPECT_FALSE(ParseLevel("avx512", &out));
  EXPECT_EQ(out, Level::kSse2) << "failed parse must not clobber";
  for (Level level : AvailableLevels()) {
    Level parsed;
    ASSERT_TRUE(ParseLevel(LevelName(level), &parsed));
    EXPECT_EQ(parsed, level);
  }
}

TEST(SimdDispatchTest, SetActiveLevelClampsToDetected) {
  const Level before = ActiveLevel();
  const Level installed = SetActiveLevelForTest(Level::kAvx2);
  EXPECT_LE(static_cast<int>(installed), static_cast<int>(DetectedLevel()));
  EXPECT_EQ(installed, ActiveLevel());
  const Level scalar = SetActiveLevelForTest(Level::kScalar);
  EXPECT_EQ(scalar, Level::kScalar);
  EXPECT_EQ(ActiveLevel(), Level::kScalar);
  SetActiveLevelForTest(before);  // restore for other tests
  EXPECT_EQ(ActiveLevel(), before);
}

TEST(SimdDispatchTest, ActiveKernelsTracksActiveLevel) {
  const Level before = ActiveLevel();
  for (Level level : AvailableLevels()) {
    SetActiveLevelForTest(level);
    EXPECT_EQ(&ActiveKernels(), &KernelsFor(level)) << LevelName(level);
  }
  SetActiveLevelForTest(before);
}

}  // namespace
}  // namespace simd
}  // namespace cohere
