#ifndef COHERE_TESTS_TEST_UTIL_H_
#define COHERE_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <ostream>
#include <type_traits>

#include "linalg/matrix.h"
#include "linalg/vector.h"
#include "stats/rng.h"

namespace cohere {
namespace testing_util {

/// Random matrix with iid N(0,1) entries.
inline Matrix RandomMatrix(size_t rows, size_t cols, Rng* rng) {
  Matrix m(rows, cols);
  for (size_t i = 0; i < rows; ++i) {
    for (size_t j = 0; j < cols; ++j) m.At(i, j) = rng->Gaussian();
  }
  return m;
}

/// Random symmetric matrix (A + A^T)/2.
inline Matrix RandomSymmetric(size_t n, Rng* rng) {
  Matrix a = RandomMatrix(n, n, rng);
  Matrix at = a.Transposed();
  Matrix sym = a;
  sym += at;
  sym *= 0.5;
  return sym;
}

/// Random symmetric positive definite matrix A^T A + n*I.
inline Matrix RandomSpd(size_t n, Rng* rng) {
  Matrix a = RandomMatrix(n, n, rng);
  Matrix spd = MultiplyTransposeA(a, a);
  for (size_t i = 0; i < n; ++i) {
    spd.At(i, i) += static_cast<double>(n);
  }
  return spd;
}

/// EXPECT that two matrices agree entrywise within tol.
inline void ExpectMatrixNear(const Matrix& a, const Matrix& b, double tol) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  for (size_t i = 0; i < a.rows(); ++i) {
    for (size_t j = 0; j < a.cols(); ++j) {
      EXPECT_NEAR(a.At(i, j), b.At(i, j), tol)
          << "mismatch at (" << i << ", " << j << ")";
    }
  }
}

/// EXPECT that two vectors agree within tol.
inline void ExpectVectorNear(const Vector& a, const Vector& b, double tol) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_NEAR(a[i], b[i], tol) << "mismatch at " << i;
  }
}

/// EXPECT that the columns of `m` are orthonormal within tol.
inline void ExpectOrthonormalColumns(const Matrix& m, double tol) {
  const Matrix gram = MultiplyTransposeA(m, m);
  ExpectMatrixNear(gram, Matrix::Identity(m.cols()), tol);
}

/// Prints a test-parameter struct as gtest's default byte dump, with the
/// padding bytes [pad_begin, pad_end) shown as zero. gtest_discover_tests names
/// each parameterised case after this dump, and padding is never initialised,
/// so a dump of the raw object put stray stack and heap address bytes into the
/// name and renamed the case from build to build.
template <typename T>
void PrintBytesWithZeroedPadding(const T& value, size_t pad_begin,
                                 size_t pad_end, std::ostream* os) {
  static_assert(std::is_trivially_copyable_v<T>);
  unsigned char bytes[sizeof(T)];
  std::memcpy(bytes, &value, sizeof(T));
  std::fill(bytes + pad_begin, bytes + pad_end, static_cast<unsigned char>(0));
  ::testing::internal::PrintBytesInObjectTo(bytes, sizeof(T), os);
}

}  // namespace testing_util
}  // namespace cohere

#endif  // COHERE_TESTS_TEST_UTIL_H_
