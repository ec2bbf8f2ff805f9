// AVX2 kernel tier.
//
// Bit-exactness strategy: vectorize ACROSS ROWS, four rows per ymm lane
// group. Each lane accumulates exactly one row's terms in the same
// sequential j-order as the scalar oracle, with separate vsub/vmul/vadd
// (never FMA — the scalar baseline is compiled without contraction), so
// every lane reproduces the scalar sum bitwise. MAXPD with the accumulator
// as the second operand replicates std::max(acc, x) including its NaN
// behaviour, and fabs-as-sign-mask matches std::fabs bit for bit, so the
// L-infinity and VA-bound kernels are exact too. Only the `_fast` pair
// kernels (EngineOptions::fast_math) reassociate and use FMA.
//
// This TU is compiled with -mavx2 -mfma (see src/simd/CMakeLists.txt);
// dispatch only selects it when cpuid reports both.

#include "simd/kernel_tables.h"
#include "simd/kernels_internal.h"

#if defined(__x86_64__) || defined(__i386__)

#include <immintrin.h>

namespace cohere {
namespace simd {
namespace internal {
namespace {

inline __m256d Fabs256(__m256d x) {
  const __m256d mask =
      _mm256_castsi256_pd(_mm256_set1_epi64x(0x7fffffffffffffffLL));
  return _mm256_and_pd(x, mask);
}

// Transposes a 4x4 tile: input vector m holds columns j..j+3 of data row m;
// output c[m] holds column j+m of rows 0..3 (lane r = row r).
inline void Transpose4(__m256d a0, __m256d a1, __m256d a2, __m256d a3,
                       __m256d c[4]) {
  const __m256d t0 = _mm256_unpacklo_pd(a0, a1);
  const __m256d t1 = _mm256_unpackhi_pd(a0, a1);
  const __m256d t2 = _mm256_unpacklo_pd(a2, a3);
  const __m256d t3 = _mm256_unpackhi_pd(a2, a3);
  c[0] = _mm256_permute2f128_pd(t0, t2, 0x20);
  c[1] = _mm256_permute2f128_pd(t1, t3, 0x20);
  c[2] = _mm256_permute2f128_pd(t0, t2, 0x31);
  c[3] = _mm256_permute2f128_pd(t1, t3, 0x31);
}

// std::max(acc, x) per lane: MAXPD returns the second operand when either
// input is NaN, and std::max(acc, x) is x iff acc < x — both reduce to
// "x when acc < x, acc otherwise (including any NaN)".
inline __m256d MaxAccum(__m256d acc, __m256d x) {
  return _mm256_max_pd(x, acc);
}

enum class Accum { kL2, kL1, kLinf, kCosine };

template <Accum Kind>
inline void Group4(const double* q, const double* rows, size_t d,
                   double* out) {
  const double* r0 = rows;
  const double* r1 = rows + d;
  const double* r2 = rows + 2 * d;
  const double* r3 = rows + 3 * d;
  __m256d acc = _mm256_setzero_pd();
  __m256d nb = _mm256_setzero_pd();  // cosine only
  size_t j = 0;
  for (; j + 4 <= d; j += 4) {
    __m256d c[4];
    Transpose4(_mm256_loadu_pd(r0 + j), _mm256_loadu_pd(r1 + j),
               _mm256_loadu_pd(r2 + j), _mm256_loadu_pd(r3 + j), c);
    for (int m = 0; m < 4; ++m) {
      const __m256d qv = _mm256_set1_pd(q[j + static_cast<size_t>(m)]);
      if constexpr (Kind == Accum::kCosine) {
        acc = _mm256_add_pd(acc, _mm256_mul_pd(qv, c[m]));
        nb = _mm256_add_pd(nb, _mm256_mul_pd(c[m], c[m]));
      } else {
        const __m256d diff = _mm256_sub_pd(qv, c[m]);
        if constexpr (Kind == Accum::kL2) {
          acc = _mm256_add_pd(acc, _mm256_mul_pd(diff, diff));
        } else if constexpr (Kind == Accum::kL1) {
          acc = _mm256_add_pd(acc, Fabs256(diff));
        } else {
          acc = MaxAccum(acc, Fabs256(diff));
        }
      }
    }
  }
  for (; j < d; ++j) {
    const __m256d col = _mm256_set_pd(r3[j], r2[j], r1[j], r0[j]);
    const __m256d qv = _mm256_set1_pd(q[j]);
    if constexpr (Kind == Accum::kCosine) {
      acc = _mm256_add_pd(acc, _mm256_mul_pd(qv, col));
      nb = _mm256_add_pd(nb, _mm256_mul_pd(col, col));
    } else {
      const __m256d diff = _mm256_sub_pd(qv, col);
      if constexpr (Kind == Accum::kL2) {
        acc = _mm256_add_pd(acc, _mm256_mul_pd(diff, diff));
      } else if constexpr (Kind == Accum::kL1) {
        acc = _mm256_add_pd(acc, Fabs256(diff));
      } else {
        acc = MaxAccum(acc, Fabs256(diff));
      }
    }
  }
  if constexpr (Kind == Accum::kCosine) {
    // na depends only on the query; the sequential sum below is exactly the
    // na every scalar per-row evaluation would have computed.
    double na = 0.0;
    for (size_t jj = 0; jj < d; ++jj) na += q[jj] * q[jj];
    double dot[4];
    double nbr[4];
    _mm256_storeu_pd(dot, acc);
    _mm256_storeu_pd(nbr, nb);
    for (int r = 0; r < 4; ++r) out[r] = CosineFinish(dot[r], na, nbr[r]);
  } else {
    _mm256_storeu_pd(out, acc);
  }
}

template <Accum Kind>
void Block(const double* q, const double* rows, size_t n_rows, size_t d,
           double* out) {
  size_t r = 0;
  for (; r + 4 <= n_rows; r += 4) {
    Group4<Kind>(q, rows + r * d, d, out + r);
  }
  for (; r < n_rows; ++r) {
    const double* row = rows + r * d;
    if constexpr (Kind == Accum::kL2) {
      out[r] = L2Row(q, row, d);
    } else if constexpr (Kind == Accum::kL1) {
      out[r] = L1Row(q, row, d);
    } else if constexpr (Kind == Accum::kLinf) {
      out[r] = LinfRow(q, row, d);
    } else {
      out[r] = CosineRow(q, row, d);
    }
  }
}

void FractionalBlockAvx2(const double* q, const double* rows, size_t n_rows,
                         size_t d, double p, double* out) {
  // std::pow has no bit-identical vector form; the fractional metric keeps
  // the scalar loop at every level.
  for (size_t r = 0; r < n_rows; ++r) {
    out[r] = FractionalRow(q, rows + r * d, d, p);
  }
}

enum class VaKind { kL2, kL1, kLinf };

template <VaKind Kind>
inline void VaGroup4(const double* q, const uint8_t* codes, size_t d,
                     const double* boundaries, size_t bstride, double* lb_out,
                     double* ub_out) {
  const uint8_t* c0 = codes;
  const uint8_t* c1 = codes + d;
  const uint8_t* c2 = codes + 2 * d;
  const uint8_t* c3 = codes + 3 * d;
  __m256d lb = _mm256_setzero_pd();
  __m256d ub = _mm256_setzero_pd();
  for (size_t j = 0; j < d; ++j) {
    const double* b = boundaries + j * bstride;
    const __m256d lov = _mm256_set_pd(b[c3[j]], b[c2[j]], b[c1[j]], b[c0[j]]);
    const __m256d hiv = _mm256_set_pd(b[c3[j] + 1], b[c2[j] + 1],
                                      b[c1[j] + 1], b[c0[j] + 1]);
    const __m256d qv = _mm256_set1_pd(q[j]);
    // Branchless replica of: if (q < lo) lb_j = lo - q; else if (q > hi)
    // lb_j = q - hi; else lb_j = 0 — ordered-quiet compares leave both
    // masks false for a NaN query, matching the scalar fall-through.
    const __m256d lt = _mm256_cmp_pd(qv, lov, _CMP_LT_OQ);
    const __m256d gt = _mm256_cmp_pd(qv, hiv, _CMP_GT_OQ);
    const __m256d lb_j = _mm256_or_pd(
        _mm256_and_pd(lt, _mm256_sub_pd(lov, qv)),
        _mm256_andnot_pd(lt, _mm256_and_pd(gt, _mm256_sub_pd(qv, hiv))));
    const __m256d f_lo = Fabs256(_mm256_sub_pd(qv, lov));
    const __m256d f_hi = Fabs256(_mm256_sub_pd(qv, hiv));
    // std::max(f_lo, f_hi): second MAXPD operand (the NaN fallback) is f_lo.
    const __m256d ub_j = _mm256_max_pd(f_hi, f_lo);
    if constexpr (Kind == VaKind::kL2) {
      lb = _mm256_add_pd(lb, _mm256_mul_pd(lb_j, lb_j));
      ub = _mm256_add_pd(ub, _mm256_mul_pd(ub_j, ub_j));
    } else if constexpr (Kind == VaKind::kL1) {
      lb = _mm256_add_pd(lb, lb_j);
      ub = _mm256_add_pd(ub, ub_j);
    } else {
      lb = MaxAccum(lb, lb_j);
      ub = MaxAccum(ub, ub_j);
    }
  }
  _mm256_storeu_pd(lb_out, lb);
  _mm256_storeu_pd(ub_out, ub);
}

template <VaKind Kind>
void VaBounds(const double* q, const uint8_t* codes, size_t n_rows, size_t d,
              const double* boundaries, size_t bstride, double* lb,
              double* ub) {
  size_t r = 0;
  for (; r + 4 <= n_rows; r += 4) {
    VaGroup4<Kind>(q, codes + r * d, d, boundaries, bstride, lb + r, ub + r);
  }
  for (; r < n_rows; ++r) {
    if constexpr (Kind == VaKind::kL2) {
      VaBoundsRowL2(q, codes + r * d, d, boundaries, bstride, lb + r, ub + r);
    } else if constexpr (Kind == VaKind::kL1) {
      VaBoundsRowL1(q, codes + r * d, d, boundaries, bstride, lb + r, ub + r);
    } else {
      VaBoundsRowLinf(q, codes + r * d, d, boundaries, bstride, lb + r,
                      ub + r);
    }
  }
}

// ---- fast_math pair kernels: across-dimension accumulation with FMA ----

inline double HSum256(__m256d v) {
  const __m128d lo = _mm256_castpd256_pd128(v);
  const __m128d hi = _mm256_extractf128_pd(v, 1);
  const __m128d s = _mm_add_pd(lo, hi);
  return _mm_cvtsd_f64(_mm_add_sd(s, _mm_unpackhi_pd(s, s)));
}

double L2PairFastAvx2(const double* a, const double* b, size_t d) {
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  size_t j = 0;
  for (; j + 8 <= d; j += 8) {
    const __m256d d0 =
        _mm256_sub_pd(_mm256_loadu_pd(a + j), _mm256_loadu_pd(b + j));
    const __m256d d1 =
        _mm256_sub_pd(_mm256_loadu_pd(a + j + 4), _mm256_loadu_pd(b + j + 4));
    acc0 = _mm256_fmadd_pd(d0, d0, acc0);
    acc1 = _mm256_fmadd_pd(d1, d1, acc1);
  }
  for (; j + 4 <= d; j += 4) {
    const __m256d d0 =
        _mm256_sub_pd(_mm256_loadu_pd(a + j), _mm256_loadu_pd(b + j));
    acc0 = _mm256_fmadd_pd(d0, d0, acc0);
  }
  double sum = HSum256(_mm256_add_pd(acc0, acc1));
  for (; j < d; ++j) {
    const double t = a[j] - b[j];
    sum += t * t;
  }
  return sum;
}

double L1PairFastAvx2(const double* a, const double* b, size_t d) {
  __m256d acc = _mm256_setzero_pd();
  size_t j = 0;
  for (; j + 4 <= d; j += 4) {
    acc = _mm256_add_pd(
        acc, Fabs256(_mm256_sub_pd(_mm256_loadu_pd(a + j),
                                   _mm256_loadu_pd(b + j))));
  }
  double sum = HSum256(acc);
  for (; j < d; ++j) sum += std::fabs(a[j] - b[j]);
  return sum;
}

double LinfPairFastAvx2(const double* a, const double* b, size_t d) {
  __m256d acc = _mm256_setzero_pd();
  size_t j = 0;
  for (; j + 4 <= d; j += 4) {
    acc = _mm256_max_pd(
        Fabs256(_mm256_sub_pd(_mm256_loadu_pd(a + j), _mm256_loadu_pd(b + j))),
        acc);
  }
  double tmp[4];
  _mm256_storeu_pd(tmp, acc);
  double best = std::max(std::max(tmp[0], tmp[1]), std::max(tmp[2], tmp[3]));
  for (; j < d; ++j) best = std::max(best, std::fabs(a[j] - b[j]));
  return best;
}

double CosinePairFastAvx2(const double* a, const double* b, size_t d) {
  __m256d dot = _mm256_setzero_pd();
  __m256d na = _mm256_setzero_pd();
  __m256d nb = _mm256_setzero_pd();
  size_t j = 0;
  for (; j + 4 <= d; j += 4) {
    const __m256d av = _mm256_loadu_pd(a + j);
    const __m256d bv = _mm256_loadu_pd(b + j);
    dot = _mm256_fmadd_pd(av, bv, dot);
    na = _mm256_fmadd_pd(av, av, na);
    nb = _mm256_fmadd_pd(bv, bv, nb);
  }
  double dots = HSum256(dot);
  double nas = HSum256(na);
  double nbs = HSum256(nb);
  for (; j < d; ++j) {
    dots += a[j] * b[j];
    nas += a[j] * a[j];
    nbs += b[j] * b[j];
  }
  return CosineFinish(dots, nas, nbs);
}

}  // namespace

const KernelTable& Avx2Kernels() {
  static const KernelTable table = {
      Block<Accum::kL2>,     Block<Accum::kL1>,   Block<Accum::kLinf>,
      Block<Accum::kCosine>, FractionalBlockAvx2,
      VaBounds<VaKind::kL2>, VaBounds<VaKind::kL1>,
      VaBounds<VaKind::kLinf>,
      L2PairFastAvx2,        L1PairFastAvx2,      LinfPairFastAvx2,
      CosinePairFastAvx2,
  };
  return table;
}

}  // namespace internal
}  // namespace simd
}  // namespace cohere

#else  // non-x86: never selected; alias the scalar table so the TU links.

namespace cohere {
namespace simd {
namespace internal {

const KernelTable& Avx2Kernels() { return ScalarKernels(); }

}  // namespace internal
}  // namespace simd
}  // namespace cohere

#endif
