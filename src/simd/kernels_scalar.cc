#include "simd/kernel_tables.h"
#include "simd/kernels_internal.h"

namespace cohere {
namespace simd {
namespace internal {
namespace {

void L2BlockScalar(const double* q, const double* rows, size_t n_rows,
                   size_t d, double* out) {
  for (size_t r = 0; r < n_rows; ++r) out[r] = L2Row(q, rows + r * d, d);
}

void L1BlockScalar(const double* q, const double* rows, size_t n_rows,
                   size_t d, double* out) {
  for (size_t r = 0; r < n_rows; ++r) out[r] = L1Row(q, rows + r * d, d);
}

void LinfBlockScalar(const double* q, const double* rows, size_t n_rows,
                     size_t d, double* out) {
  for (size_t r = 0; r < n_rows; ++r) out[r] = LinfRow(q, rows + r * d, d);
}

void CosineBlockScalar(const double* q, const double* rows, size_t n_rows,
                       size_t d, double* out) {
  for (size_t r = 0; r < n_rows; ++r) out[r] = CosineRow(q, rows + r * d, d);
}

void FractionalBlockScalar(const double* q, const double* rows, size_t n_rows,
                           size_t d, double p, double* out) {
  for (size_t r = 0; r < n_rows; ++r) {
    out[r] = FractionalRow(q, rows + r * d, d, p);
  }
}

void VaBoundsL2Scalar(const double* q, const uint8_t* codes, size_t n_rows,
                      size_t d, const double* boundaries, size_t bstride,
                      double* lb, double* ub) {
  for (size_t r = 0; r < n_rows; ++r) {
    VaBoundsRowL2(q, codes + r * d, d, boundaries, bstride, lb + r, ub + r);
  }
}

void VaBoundsL1Scalar(const double* q, const uint8_t* codes, size_t n_rows,
                      size_t d, const double* boundaries, size_t bstride,
                      double* lb, double* ub) {
  for (size_t r = 0; r < n_rows; ++r) {
    VaBoundsRowL1(q, codes + r * d, d, boundaries, bstride, lb + r, ub + r);
  }
}

void VaBoundsLinfScalar(const double* q, const uint8_t* codes, size_t n_rows,
                        size_t d, const double* boundaries, size_t bstride,
                        double* lb, double* ub) {
  for (size_t r = 0; r < n_rows; ++r) {
    VaBoundsRowLinf(q, codes + r * d, d, boundaries, bstride, lb + r, ub + r);
  }
}

// Fast pair kernels at the scalar level are simply the exact loops: the
// fast-math contract promises speed where the ISA allows it, not a
// different answer.
double L2PairScalar(const double* a, const double* b, size_t d) {
  return L2Row(a, b, d);
}
double L1PairScalar(const double* a, const double* b, size_t d) {
  return L1Row(a, b, d);
}
double LinfPairScalar(const double* a, const double* b, size_t d) {
  return LinfRow(a, b, d);
}
double CosinePairScalar(const double* a, const double* b, size_t d) {
  return CosineRow(a, b, d);
}

}  // namespace

const KernelTable& ScalarKernels() {
  static const KernelTable table = {
      L2BlockScalar,      L1BlockScalar,     LinfBlockScalar,
      CosineBlockScalar,  FractionalBlockScalar,
      VaBoundsL2Scalar,   VaBoundsL1Scalar,  VaBoundsLinfScalar,
      L2PairScalar,       L1PairScalar,      LinfPairScalar,
      CosinePairScalar,
  };
  return table;
}

}  // namespace internal
}  // namespace simd
}  // namespace cohere
