// SSE2 kernel tier: the same across-rows bit-exact strategy as the AVX2
// tier (see kernels_avx2.cc) at half the width — two rows per xmm lane
// group, each lane accumulating its row's terms in sequential j-order.

#include "simd/kernel_tables.h"
#include "simd/kernels_internal.h"

#if defined(__x86_64__) || defined(__i386__)

#include <emmintrin.h>

namespace cohere {
namespace simd {
namespace internal {
namespace {

inline __m128d Fabs128(__m128d x) {
  const __m128d mask =
      _mm_castsi128_pd(_mm_set1_epi64x(0x7fffffffffffffffLL));
  return _mm_and_pd(x, mask);
}

// std::max(acc, x) per lane (MAXPD second operand is the NaN fallback).
inline __m128d MaxAccum(__m128d acc, __m128d x) { return _mm_max_pd(x, acc); }

enum class Accum { kL2, kL1, kLinf, kCosine };

template <Accum Kind>
inline void Group2(const double* q, const double* rows, size_t d,
                   double* out) {
  const double* r0 = rows;
  const double* r1 = rows + d;
  __m128d acc = _mm_setzero_pd();
  __m128d nb = _mm_setzero_pd();  // cosine only
  size_t j = 0;
  for (; j + 2 <= d; j += 2) {
    const __m128d a0 = _mm_loadu_pd(r0 + j);
    const __m128d a1 = _mm_loadu_pd(r1 + j);
    const __m128d c0 = _mm_unpacklo_pd(a0, a1);  // {r0[j], r1[j]}
    const __m128d c1 = _mm_unpackhi_pd(a0, a1);  // {r0[j+1], r1[j+1]}
    const __m128d q0 = _mm_set1_pd(q[j]);
    const __m128d q1 = _mm_set1_pd(q[j + 1]);
    if constexpr (Kind == Accum::kCosine) {
      acc = _mm_add_pd(acc, _mm_mul_pd(q0, c0));
      nb = _mm_add_pd(nb, _mm_mul_pd(c0, c0));
      acc = _mm_add_pd(acc, _mm_mul_pd(q1, c1));
      nb = _mm_add_pd(nb, _mm_mul_pd(c1, c1));
    } else {
      const __m128d d0 = _mm_sub_pd(q0, c0);
      const __m128d d1 = _mm_sub_pd(q1, c1);
      if constexpr (Kind == Accum::kL2) {
        acc = _mm_add_pd(acc, _mm_mul_pd(d0, d0));
        acc = _mm_add_pd(acc, _mm_mul_pd(d1, d1));
      } else if constexpr (Kind == Accum::kL1) {
        acc = _mm_add_pd(acc, Fabs128(d0));
        acc = _mm_add_pd(acc, Fabs128(d1));
      } else {
        acc = MaxAccum(acc, Fabs128(d0));
        acc = MaxAccum(acc, Fabs128(d1));
      }
    }
  }
  for (; j < d; ++j) {
    const __m128d col = _mm_set_pd(r1[j], r0[j]);
    const __m128d qv = _mm_set1_pd(q[j]);
    if constexpr (Kind == Accum::kCosine) {
      acc = _mm_add_pd(acc, _mm_mul_pd(qv, col));
      nb = _mm_add_pd(nb, _mm_mul_pd(col, col));
    } else {
      const __m128d diff = _mm_sub_pd(qv, col);
      if constexpr (Kind == Accum::kL2) {
        acc = _mm_add_pd(acc, _mm_mul_pd(diff, diff));
      } else if constexpr (Kind == Accum::kL1) {
        acc = _mm_add_pd(acc, Fabs128(diff));
      } else {
        acc = MaxAccum(acc, Fabs128(diff));
      }
    }
  }
  if constexpr (Kind == Accum::kCosine) {
    double na = 0.0;
    for (size_t jj = 0; jj < d; ++jj) na += q[jj] * q[jj];
    double dot[2];
    double nbr[2];
    _mm_storeu_pd(dot, acc);
    _mm_storeu_pd(nbr, nb);
    out[0] = CosineFinish(dot[0], na, nbr[0]);
    out[1] = CosineFinish(dot[1], na, nbr[1]);
  } else {
    _mm_storeu_pd(out, acc);
  }
}

template <Accum Kind>
void Block(const double* q, const double* rows, size_t n_rows, size_t d,
           double* out) {
  size_t r = 0;
  for (; r + 2 <= n_rows; r += 2) {
    Group2<Kind>(q, rows + r * d, d, out + r);
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

void FractionalBlockSse2(const double* q, const double* rows, size_t n_rows,
                         size_t d, double p, double* out) {
  for (size_t r = 0; r < n_rows; ++r) {
    out[r] = FractionalRow(q, rows + r * d, d, p);
  }
}

enum class VaKind { kL2, kL1, kLinf };

template <VaKind Kind>
inline void VaGroup2(const double* q, const uint8_t* codes, size_t d,
                     const double* boundaries, size_t bstride, double* lb_out,
                     double* ub_out) {
  const uint8_t* c0 = codes;
  const uint8_t* c1 = codes + d;
  __m128d lb = _mm_setzero_pd();
  __m128d ub = _mm_setzero_pd();
  for (size_t j = 0; j < d; ++j) {
    const double* b = boundaries + j * bstride;
    const __m128d lov = _mm_set_pd(b[c1[j]], b[c0[j]]);
    const __m128d hiv = _mm_set_pd(b[c1[j] + 1], b[c0[j] + 1]);
    const __m128d qv = _mm_set1_pd(q[j]);
    const __m128d lt = _mm_cmplt_pd(qv, lov);
    const __m128d gt = _mm_cmpgt_pd(qv, hiv);
    const __m128d lb_j =
        _mm_or_pd(_mm_and_pd(lt, _mm_sub_pd(lov, qv)),
                  _mm_andnot_pd(lt, _mm_and_pd(gt, _mm_sub_pd(qv, hiv))));
    const __m128d f_lo = Fabs128(_mm_sub_pd(qv, lov));
    const __m128d f_hi = Fabs128(_mm_sub_pd(qv, hiv));
    const __m128d ub_j = _mm_max_pd(f_hi, f_lo);
    if constexpr (Kind == VaKind::kL2) {
      lb = _mm_add_pd(lb, _mm_mul_pd(lb_j, lb_j));
      ub = _mm_add_pd(ub, _mm_mul_pd(ub_j, ub_j));
    } else if constexpr (Kind == VaKind::kL1) {
      lb = _mm_add_pd(lb, lb_j);
      ub = _mm_add_pd(ub, ub_j);
    } else {
      lb = MaxAccum(lb, lb_j);
      ub = MaxAccum(ub, ub_j);
    }
  }
  _mm_storeu_pd(lb_out, lb);
  _mm_storeu_pd(ub_out, ub);
}

template <VaKind Kind>
void VaBounds(const double* q, const uint8_t* codes, size_t n_rows, size_t d,
              const double* boundaries, size_t bstride, double* lb,
              double* ub) {
  size_t r = 0;
  for (; r + 2 <= n_rows; r += 2) {
    VaGroup2<Kind>(q, codes + r * d, d, boundaries, bstride, lb + r, ub + r);
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

// ---- fast_math pair kernels: across-dimension accumulation (no FMA in
// SSE2) with two independent partial sums to break the add latency chain.

inline double HSum128(__m128d v) {
  return _mm_cvtsd_f64(_mm_add_sd(v, _mm_unpackhi_pd(v, v)));
}

double L2PairFastSse2(const double* a, const double* b, size_t d) {
  __m128d acc0 = _mm_setzero_pd();
  __m128d acc1 = _mm_setzero_pd();
  size_t j = 0;
  for (; j + 4 <= d; j += 4) {
    const __m128d d0 = _mm_sub_pd(_mm_loadu_pd(a + j), _mm_loadu_pd(b + j));
    const __m128d d1 =
        _mm_sub_pd(_mm_loadu_pd(a + j + 2), _mm_loadu_pd(b + j + 2));
    acc0 = _mm_add_pd(acc0, _mm_mul_pd(d0, d0));
    acc1 = _mm_add_pd(acc1, _mm_mul_pd(d1, d1));
  }
  for (; j + 2 <= d; j += 2) {
    const __m128d d0 = _mm_sub_pd(_mm_loadu_pd(a + j), _mm_loadu_pd(b + j));
    acc0 = _mm_add_pd(acc0, _mm_mul_pd(d0, d0));
  }
  double sum = HSum128(_mm_add_pd(acc0, acc1));
  for (; j < d; ++j) {
    const double t = a[j] - b[j];
    sum += t * t;
  }
  return sum;
}

double L1PairFastSse2(const double* a, const double* b, size_t d) {
  __m128d acc = _mm_setzero_pd();
  size_t j = 0;
  for (; j + 2 <= d; j += 2) {
    acc = _mm_add_pd(
        acc, Fabs128(_mm_sub_pd(_mm_loadu_pd(a + j), _mm_loadu_pd(b + j))));
  }
  double sum = HSum128(acc);
  for (; j < d; ++j) sum += std::fabs(a[j] - b[j]);
  return sum;
}

double LinfPairFastSse2(const double* a, const double* b, size_t d) {
  __m128d acc = _mm_setzero_pd();
  size_t j = 0;
  for (; j + 2 <= d; j += 2) {
    acc = _mm_max_pd(
        Fabs128(_mm_sub_pd(_mm_loadu_pd(a + j), _mm_loadu_pd(b + j))), acc);
  }
  double tmp[2];
  _mm_storeu_pd(tmp, acc);
  double best = std::max(tmp[0], tmp[1]);
  for (; j < d; ++j) best = std::max(best, std::fabs(a[j] - b[j]));
  return best;
}

double CosinePairFastSse2(const double* a, const double* b, size_t d) {
  __m128d dot = _mm_setzero_pd();
  __m128d na = _mm_setzero_pd();
  __m128d nb = _mm_setzero_pd();
  size_t j = 0;
  for (; j + 2 <= d; j += 2) {
    const __m128d av = _mm_loadu_pd(a + j);
    const __m128d bv = _mm_loadu_pd(b + j);
    dot = _mm_add_pd(dot, _mm_mul_pd(av, bv));
    na = _mm_add_pd(na, _mm_mul_pd(av, av));
    nb = _mm_add_pd(nb, _mm_mul_pd(bv, bv));
  }
  double dots = HSum128(dot);
  double nas = HSum128(na);
  double nbs = HSum128(nb);
  for (; j < d; ++j) {
    dots += a[j] * b[j];
    nas += a[j] * a[j];
    nbs += b[j] * b[j];
  }
  return CosineFinish(dots, nas, nbs);
}

}  // namespace

const KernelTable& Sse2Kernels() {
  static const KernelTable table = {
      Block<Accum::kL2>,     Block<Accum::kL1>,   Block<Accum::kLinf>,
      Block<Accum::kCosine>, FractionalBlockSse2,
      VaBounds<VaKind::kL2>, VaBounds<VaKind::kL1>,
      VaBounds<VaKind::kLinf>,
      L2PairFastSse2,        L1PairFastSse2,      LinfPairFastSse2,
      CosinePairFastSse2,
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

const KernelTable& Sse2Kernels() { return ScalarKernels(); }

}  // namespace internal
}  // namespace simd
}  // namespace cohere

#endif
