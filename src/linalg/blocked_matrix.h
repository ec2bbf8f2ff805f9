#ifndef COHERE_LINALG_BLOCKED_MATRIX_H_
#define COHERE_LINALG_BLOCKED_MATRIX_H_

#include <cstddef>
#include <memory>

#include "linalg/matrix.h"
#include "linalg/vector.h"

namespace cohere {

/// Row storage for scan kernels: an immutable prefix view over a shared,
/// 64-byte-aligned, append-only allocation.
///
/// Rows are plain row-major (`RowPtr(i) == data() + i * cols()`) and the
/// base pointer is 64-byte aligned. A view covers rows [0, rows()) of its
/// allocation; those rows are never written again once the view exists, so
/// copies of a view (and views handed to other threads through a snapshot
/// publish) can be read without synchronization. Nothing reads at or past
/// `rows()`: the allocation's spare capacity is neither initialized nor
/// touched, and every block kernel finishes a partial row group with a
/// scalar tail.
///
/// A snapshot shard owns one view (via shared_ptr) and every index built
/// over that shard references it, so publishing a snapshot does not
/// duplicate the reduced dataset once per backend. The dynamic engine grows
/// its rows with AppendRow, so successive snapshots share one allocation.
class BlockedMatrix {
 public:
  static constexpr size_t kAlignment = 64;

  BlockedMatrix() = default;
  /// Copies the rows of `m` into a new allocation of exactly m.rows() rows.
  explicit BlockedMatrix(const Matrix& m);

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  bool empty() const { return rows_ == 0; }

  const double* data() const { return data_; }
  const double* RowPtr(size_t i) const { return data_ + i * cols_; }
  /// Unchecked element access (inner-loop use, mirrors Matrix::At).
  double At(size_t i, size_t j) const { return data_[i * cols_ + j]; }

  /// Copies row `i` into a Vector.
  Vector Row(size_t i) const;
  /// Copies the rows of this view into a Matrix (the dynamic engine's
  /// refit hands the originals to ReductionPipeline::Fit this way).
  Matrix ToMatrix() const;

  /// Writer-side growth: returns a view of rows() + 1 rows whose last row is
  /// `row` (which must have cols() entries); this view is unchanged.
  ///
  /// When this view ends at the last row written into its allocation and
  /// capacity remains, `row` goes into the next free slot and the result
  /// shares the allocation — O(cols()). Otherwise (an exact-size allocation,
  /// a full one, or a view that another append already extended) the rows
  /// are copied into a new allocation of twice as many rows, mapped from
  /// the OS so its spare rows cost no resident memory until written. The free slot is claimed
  /// atomically, so two appends to views of one allocation never write the
  /// same row.
  BlockedMatrix AppendRow(const Vector& row) const;

 private:
  struct Storage;

  BlockedMatrix(std::shared_ptr<Storage> storage, size_t rows, size_t cols);

  std::shared_ptr<Storage> storage_;
  size_t rows_ = 0;
  size_t cols_ = 0;
  const double* data_ = nullptr;  // storage_'s first row
};

}  // namespace cohere

#endif  // COHERE_LINALG_BLOCKED_MATRIX_H_
