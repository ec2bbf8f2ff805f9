#include "linalg/blocked_matrix.h"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <new>
#include <utility>

#include <sys/mman.h>

#include "common/check.h"

namespace cohere {

/// One 64-byte-aligned allocation of `capacity` rows, of which the first
/// `written` have been filled. `written` only ever grows, and a row below
/// it is never written again.
///
/// An allocation with spare rows (made by AppendRow) is mapped straight
/// from the OS: pages of rows not yet written never become resident, and
/// unmapping returns every page at once. From the C++ heap, freeing such a
/// block would raise glibc's dynamic mmap threshold to twice the corpus
/// size, after which corpus-sized temporaries (a refit's copy and working
/// matrices) stay resident in the heap once freed. Exact-size allocations
/// stay on the heap, where the allocator reuses their pages for the next
/// build's temporaries.
struct BlockedMatrix::Storage {
  Storage(size_t capacity_rows, size_t cols, size_t written_rows)
      : bytes(capacity_rows * cols * sizeof(double)),
        mapped(written_rows < capacity_rows && bytes > 0),
        data(mapped ? Map(bytes)
                    : static_cast<double*>(::operator new(
                          bytes, std::align_val_t{kAlignment}))),
        capacity(capacity_rows),
        written(written_rows) {}
  ~Storage() {
    if (mapped) {
      ::munmap(data, bytes);
    } else {
      ::operator delete(data, std::align_val_t{kAlignment});
    }
  }
  Storage(const Storage&) = delete;
  Storage& operator=(const Storage&) = delete;

  // Mappings are page-aligned, which covers kAlignment.
  static double* Map(size_t bytes) {
    void* p = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED) throw std::bad_alloc();
    return static_cast<double*>(p);
  }

  const size_t bytes;
  const bool mapped;
  double* const data;
  const size_t capacity;
  std::atomic<size_t> written;
};

namespace {

void CopyDoubles(double* dst, const double* src, size_t count) {
  if (count > 0) std::memcpy(dst, src, count * sizeof(double));
}

}  // namespace

BlockedMatrix::BlockedMatrix(std::shared_ptr<Storage> storage, size_t rows,
                             size_t cols)
    : storage_(std::move(storage)),
      rows_(rows),
      cols_(cols),
      data_(storage_->data) {}

BlockedMatrix::BlockedMatrix(const Matrix& m)
    : BlockedMatrix(std::make_shared<Storage>(m.rows(), m.cols(), m.rows()),
                    m.rows(), m.cols()) {
  CopyDoubles(storage_->data, m.data(), rows_ * cols_);
}

Vector BlockedMatrix::Row(size_t i) const {
  COHERE_CHECK_LT(i, rows_);
  Vector out(cols_);
  const double* src = RowPtr(i);
  std::copy(src, src + cols_, out.data());
  return out;
}

Matrix BlockedMatrix::ToMatrix() const {
  Matrix out(rows_, cols_);
  CopyDoubles(out.data(), data_, rows_ * cols_);
  return out;
}

BlockedMatrix BlockedMatrix::AppendRow(const Vector& row) const {
  COHERE_CHECK_EQ(row.size(), cols_);
  std::shared_ptr<Storage> storage = storage_;
  size_t expected = rows_;
  const bool in_place =
      storage != nullptr && rows_ < storage->capacity &&
      storage->written.compare_exchange_strong(expected, rows_ + 1);
  if (!in_place) {
    storage = std::make_shared<Storage>(std::max<size_t>(2 * rows_, 1), cols_,
                                        rows_ + 1);
    CopyDoubles(storage->data, data_, rows_ * cols_);
  }
  CopyDoubles(storage->data + rows_ * cols_, row.data(), cols_);
  return BlockedMatrix(std::move(storage), rows_ + 1, cols_);
}

}  // namespace cohere
