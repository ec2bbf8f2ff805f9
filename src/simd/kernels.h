#ifndef COHERE_SIMD_KERNELS_H_
#define COHERE_SIMD_KERNELS_H_

#include <cstddef>
#include <cstdint>

#include "simd/dispatch.h"

namespace cohere {
namespace simd {

/// Runtime-dispatched distance kernels over blocked row storage.
///
/// Block kernels compute per-row results from one query against `n_rows`
/// rows stored contiguously at stride `d` (the BlockedMatrix layout; a plain
/// row-major Matrix qualifies too). `out` receives one value per row.
///
/// Bit-exactness contract: for every kernel except the `_fast` pair entries,
/// out[r] is BITWISE IDENTICAL to the scalar reference loop over row r at
/// every dispatch level. The SIMD implementations achieve this by
/// vectorizing ACROSS ROWS — each SIMD lane accumulates one row's terms in
/// the same sequential j-order as the scalar loop (no FMA, no reassociation)
/// — so the golden-hash serving tests pass unmodified whatever the CPU.
/// One carve-out: a NaN result is guaranteed to be NaN, but its sign and
/// payload are unspecified (IEEE leaves NaN selection to the
/// implementation, and compilers may commute vector add/mul operands,
/// changing which NaN operand the hardware propagates). Finite values, ±0
/// and ±inf are always bit-strict.
/// The `_fast` pair kernels trade that contract away (striped accumulators,
/// FMA where available) and back the opt-in EngineOptions::fast_math mode.
struct KernelTable {
  /// out[r] = sum_j (q[j] - row[j])^2  (comparable L2).
  void (*l2_block)(const double* q, const double* rows, size_t n_rows,
                   size_t d, double* out);
  /// out[r] = sum_j |q[j] - row[j]|  (L1).
  void (*l1_block)(const double* q, const double* rows, size_t n_rows,
                   size_t d, double* out);
  /// out[r] = max_j |q[j] - row[j]|  (L-infinity).
  void (*linf_block)(const double* q, const double* rows, size_t n_rows,
                     size_t d, double* out);
  /// out[r] = cosine distance with the metric's zero-vector rules applied.
  void (*cosine_block)(const double* q, const double* rows, size_t n_rows,
                       size_t d, double* out);
  /// out[r] = sum_j |q[j] - row[j]|^p. Scalar at every level: std::pow has
  /// no bit-identical vector form, so the fractional metric's win comes from
  /// the blocked layout only.
  void (*fractional_block)(const double* q, const double* rows, size_t n_rows,
                           size_t d, double p, double* out);

  /// VA-file lower/upper bound scan over a flattened boundary table.
  /// `codes` holds n_rows contiguous rows of d uint8 cell codes; dimension
  /// j's cells+1 boundaries live at `boundaries + j * bstride`. Per row:
  /// lb/ub accumulate the per-dimension cell bounds in the metric's
  /// comparable form, bitwise identical to the scalar reference.
  void (*va_bounds_l2)(const double* q, const uint8_t* codes, size_t n_rows,
                       size_t d, const double* boundaries, size_t bstride,
                       double* lb, double* ub);
  void (*va_bounds_l1)(const double* q, const uint8_t* codes, size_t n_rows,
                       size_t d, const double* boundaries, size_t bstride,
                       double* lb, double* ub);
  void (*va_bounds_linf)(const double* q, const uint8_t* codes, size_t n_rows,
                         size_t d, const double* boundaries, size_t bstride,
                         double* lb, double* ub);

  /// Single-pair kernels for EngineOptions::fast_math: vectorized across
  /// dimensions with striped partial accumulators (and FMA on AVX2), so the
  /// summation order differs from the scalar oracle — results are within
  /// normal rounding slack but NOT bitwise stable across levels.
  double (*l2_pair_fast)(const double* a, const double* b, size_t d);
  double (*l1_pair_fast)(const double* a, const double* b, size_t d);
  double (*linf_pair_fast)(const double* a, const double* b, size_t d);
  double (*cosine_pair_fast)(const double* a, const double* b, size_t d);
};

/// Kernel table for an explicit level (parity tests iterate these).
const KernelTable& KernelsFor(Level level);

/// Kernel table for ActiveLevel().
const KernelTable& ActiveKernels();

/// Scalar-oracle squared-L2 between two raw vectors: the shared entry point
/// private distance loops (k-means seeding/assignment, ...) dedupe onto.
/// Sequential accumulation — bitwise equal to the historical private loops.
double L2Squared(const double* a, const double* b, size_t n);

/// Per-kernel invocation counters (`simd.kernel.<name>` in the metrics
/// registry). `calls` lets a scan count a whole span of block calls in one
/// striped-atomic add.
enum class KernelId : int {
  kL2Block = 0,
  kL1Block,
  kLinfBlock,
  kCosineBlock,
  kFractionalBlock,
  kVaBounds,
  kCount,
};
void CountKernel(KernelId id, uint64_t calls = 1);

}  // namespace simd
}  // namespace cohere

#endif  // COHERE_SIMD_KERNELS_H_
