#include "linalg/symmetric_eigen.h"

#include <gtest/gtest.h>

#include <cstring>
#include <string>

#include "../test_util.h"
#include "common/fault.h"
#include "stats/covariance.h"

namespace cohere {
namespace {

using testing_util::ExpectMatrixNear;
using testing_util::ExpectOrthonormalColumns;
using testing_util::RandomSpd;
using testing_util::RandomSymmetric;

TEST(SymmetricEigenTest, DiagonalMatrix) {
  Matrix a = Matrix::Diagonal(Vector{3.0, 1.0, 2.0});
  Result<EigenDecomposition> result = SymmetricEigen(a);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_NEAR(result->eigenvalues[0], 3.0, 1e-12);
  EXPECT_NEAR(result->eigenvalues[1], 2.0, 1e-12);
  EXPECT_NEAR(result->eigenvalues[2], 1.0, 1e-12);
}

TEST(SymmetricEigenTest, TwoByTwoAnalytic) {
  // Eigenvalues of [[2,1],[1,2]] are 3 and 1 with eigenvectors along
  // (1,1)/sqrt(2) and (1,-1)/sqrt(2).
  Matrix a{{2.0, 1.0}, {1.0, 2.0}};
  Result<EigenDecomposition> result = SymmetricEigen(a);
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result->eigenvalues[0], 3.0, 1e-12);
  EXPECT_NEAR(result->eigenvalues[1], 1.0, 1e-12);
  const double inv_sqrt2 = 1.0 / std::sqrt(2.0);
  EXPECT_NEAR(std::fabs(result->eigenvectors.At(0, 0)), inv_sqrt2, 1e-12);
  EXPECT_NEAR(std::fabs(result->eigenvectors.At(1, 0)), inv_sqrt2, 1e-12);
}

TEST(SymmetricEigenTest, ReconstructsRandomMatrix) {
  Rng rng(11);
  const Matrix a = RandomSymmetric(20, &rng);
  Result<EigenDecomposition> result = SymmetricEigen(a);
  ASSERT_TRUE(result.ok());
  // A = V diag(w) V^T.
  const Matrix& v = result->eigenvectors;
  Matrix reconstructed =
      Multiply(Multiply(v, Matrix::Diagonal(result->eigenvalues)),
               v.Transposed());
  ExpectMatrixNear(reconstructed, a, 1e-10);
}

TEST(SymmetricEigenTest, EigenvectorsAreOrthonormal) {
  Rng rng(12);
  const Matrix a = RandomSymmetric(15, &rng);
  Result<EigenDecomposition> result = SymmetricEigen(a);
  ASSERT_TRUE(result.ok());
  ExpectOrthonormalColumns(result->eigenvectors, 1e-12);
}

TEST(SymmetricEigenTest, EigenvaluesSortedDescending) {
  Rng rng(13);
  const Matrix a = RandomSymmetric(25, &rng);
  Result<EigenDecomposition> result = SymmetricEigen(a);
  ASSERT_TRUE(result.ok());
  for (size_t i = 1; i < result->eigenvalues.size(); ++i) {
    EXPECT_GE(result->eigenvalues[i - 1], result->eigenvalues[i]);
  }
}

TEST(SymmetricEigenTest, TraceEqualsEigenvalueSum) {
  Rng rng(14);
  const Matrix a = RandomSymmetric(30, &rng);
  Result<EigenDecomposition> result = SymmetricEigen(a);
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result->eigenvalues.Sum(), a.Trace(), 1e-9);
}

TEST(SymmetricEigenTest, SatisfiesEigenEquation) {
  Rng rng(15);
  const Matrix a = RandomSymmetric(12, &rng);
  Result<EigenDecomposition> result = SymmetricEigen(a);
  ASSERT_TRUE(result.ok());
  for (size_t i = 0; i < a.rows(); ++i) {
    const Vector v = result->eigenvectors.Col(i);
    const Vector av = MatVec(a, v);
    const Vector lv = v * result->eigenvalues[i];
    for (size_t j = 0; j < v.size(); ++j) {
      EXPECT_NEAR(av[j], lv[j], 1e-9);
    }
  }
}

TEST(SymmetricEigenTest, RepeatedEigenvalues) {
  // 3x identity scaled: all eigenvalues 5.
  Matrix a = Matrix::Identity(3);
  a *= 5.0;
  Result<EigenDecomposition> result = SymmetricEigen(a);
  ASSERT_TRUE(result.ok());
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_NEAR(result->eigenvalues[i], 5.0, 1e-12);
  }
  ExpectOrthonormalColumns(result->eigenvectors, 1e-12);
}

TEST(SymmetricEigenTest, RankDeficientMatrix) {
  // Rank-1: outer product of (1,2,3) with itself.
  const Vector u{1.0, 2.0, 3.0};
  Matrix a = OuterProduct(u, u);
  Result<EigenDecomposition> result = SymmetricEigen(a);
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result->eigenvalues[0], u.SquaredNorm2(), 1e-10);
  EXPECT_NEAR(result->eigenvalues[1], 0.0, 1e-10);
  EXPECT_NEAR(result->eigenvalues[2], 0.0, 1e-10);
}

TEST(SymmetricEigenTest, OneByOne) {
  Matrix a{{4.0}};
  Result<EigenDecomposition> result = SymmetricEigen(a);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->eigenvalues[0], 4.0);
  EXPECT_NEAR(std::fabs(result->eigenvectors.At(0, 0)), 1.0, 1e-15);
}

TEST(SymmetricEigenTest, RejectsNonSquare) {
  EXPECT_FALSE(SymmetricEigen(Matrix(2, 3)).ok());
}

TEST(SymmetricEigenTest, RejectsNonSymmetric) {
  Matrix a{{1.0, 2.0}, {0.0, 1.0}};
  Result<EigenDecomposition> result = SymmetricEigen(a);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(SymmetricEigenTest, HouseholderProducesSimilarTridiagonal) {
  Rng rng(16);
  const Matrix a = RandomSymmetric(10, &rng);
  Matrix z;
  Vector d;
  Vector e;
  HouseholderTridiagonalize(a, &z, &d, &e);
  // Rebuild T from d, e and verify Z T Z^T == A.
  Matrix t(10, 10);
  for (size_t i = 0; i < 10; ++i) {
    t.At(i, i) = d[i];
    if (i > 0) {
      t.At(i, i - 1) = e[i];
      t.At(i - 1, i) = e[i];
    }
  }
  ExpectMatrixNear(Multiply(Multiply(z, t), z.Transposed()), a, 1e-10);
  ExpectOrthonormalColumns(z, 1e-12);
}

// --- SymmetricEigenvalues: the values-only solve must be bitwise equal to
// the eigenvalues of the full solve. ---

void ExpectBitwiseEqual(const Vector& got, const Vector& want,
                        const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(std::memcmp(got.data() + i, want.data() + i, sizeof(double)), 0)
        << what << " [" << i << "]: " << got[i] << " vs " << want[i];
  }
}

// Symmetric by construction: every (j, i) entry is a copy of (i, j).
Matrix MirrorUpper(const Matrix& a) {
  Matrix out = a;
  for (size_t i = 0; i < a.rows(); ++i) {
    for (size_t j = i + 1; j < a.cols(); ++j) out.At(j, i) = out.At(i, j);
  }
  return out;
}

// Q diag(w) Q^T for a random orthogonal Q and eigenvalues w that come in
// repeated pairs.
Matrix RepeatedSpectrum(size_t n, Rng* rng) {
  Result<EigenDecomposition> basis = SymmetricEigen(RandomSymmetric(n, rng));
  EXPECT_TRUE(basis.ok());
  Vector w(n);
  for (size_t i = 0; i < n; ++i) w[i] = 1.0 + static_cast<double>(i / 2);
  const Matrix& q = basis->eigenvectors;
  return MirrorUpper(
      Multiply(Multiply(q, Matrix::Diagonal(w)), q.Transposed()));
}

// The covariance of fewer rows than columns: rank at most rows - 1.
Matrix RankDeficientCovariance(size_t n, Rng* rng) {
  const size_t rows = n / 2 + 1;
  Matrix data(rows, n);
  for (size_t i = 0; i < rows; ++i) {
    for (size_t j = 0; j < n; ++j) data.At(i, j) = rng->Gaussian();
  }
  return CovarianceMatrix(data);
}

// An SPD matrix with its first and last rows and columns zeroed. The last
// row is where the reduction starts, so its `scale == 0` branch runs.
Matrix ZeroRowsAndColumns(size_t n, Rng* rng) {
  Matrix a = RandomSpd(n, rng);
  for (size_t k = 0; k < n; ++k) {
    a.At(0, k) = a.At(k, 0) = 0.0;
    a.At(n - 1, k) = a.At(k, n - 1) = 0.0;
  }
  return a;
}

TEST(SymmetricEigenvaluesTest, BitwiseEqualToFullSolve) {
  Rng rng(2024);
  for (size_t n : {1, 2, 3, 6, 48}) {
    struct Case {
      const char* name;
      Matrix a;
    };
    const Case cases[] = {
        {"random spd", RandomSpd(n, &rng)},
        {"random symmetric", RandomSymmetric(n, &rng)},
        {"rank-deficient covariance", RankDeficientCovariance(n, &rng)},
        {"repeated eigenvalues", RepeatedSpectrum(n, &rng)},
        {"zero rows and columns", ZeroRowsAndColumns(n, &rng)},
        {"zero matrix", Matrix(n, n)},
    };
    for (const Case& c : cases) {
      const std::string what = std::string(c.name) + ", n=" + std::to_string(n);
      Result<EigenDecomposition> full = SymmetricEigen(c.a);
      Result<Vector> values = SymmetricEigenvalues(c.a);
      ASSERT_TRUE(full.ok()) << what << ": " << full.status().ToString();
      ASSERT_TRUE(values.ok()) << what << ": " << values.status().ToString();
      ExpectBitwiseEqual(*values, full->eigenvalues, what);

      // The tridiagonal form itself does not depend on the transform.
      Matrix z;
      Vector d_full, e_full, d_values, e_values;
      HouseholderTridiagonalize(c.a, &z, &d_full, &e_full);
      HouseholderTridiagonalize(c.a, nullptr, &d_values, &e_values);
      ExpectBitwiseEqual(d_values, d_full, what + " diagonal");
      ExpectBitwiseEqual(e_values, e_full, what + " subdiagonal");
    }
  }
}

TEST(SymmetricEigenvaluesTest, EmptyMatrixHasNoEigenvalues) {
  Result<Vector> values = SymmetricEigenvalues(Matrix());
  ASSERT_TRUE(values.ok());
  EXPECT_EQ(values->size(), 0u);
}

TEST(SymmetricEigenvaluesTest, RejectsNonSymmetricAndNonSquare) {
  Result<Vector> asymmetric =
      SymmetricEigenvalues(Matrix{{1.0, 2.0}, {0.0, 1.0}});
  ASSERT_FALSE(asymmetric.ok());
  EXPECT_EQ(asymmetric.status().code(), StatusCode::kInvalidArgument);
  Result<Vector> non_square = SymmetricEigenvalues(Matrix(2, 3));
  ASSERT_FALSE(non_square.ok());
  EXPECT_EQ(non_square.status().code(), StatusCode::kInvalidArgument);
}

TEST(SymmetricEigenvaluesTest, HonoursTheSymmetricEigenFaultPoint) {
  Rng rng(2025);
  const Matrix a = RandomSpd(4, &rng);
  fault::Arm(fault::kPointSymmetricEigen, 1.0);
  Result<Vector> values = SymmetricEigenvalues(a);
  fault::DisarmAll();
  ASSERT_FALSE(values.ok());
  EXPECT_EQ(values.status().code(), StatusCode::kNumericalError);
  EXPECT_TRUE(SymmetricEigenvalues(a).ok());  // no sticky state
}

// Property sweep over sizes: decomposition invariants hold for every n.
class SymmetricEigenPropertyTest : public ::testing::TestWithParam<size_t> {};

TEST_P(SymmetricEigenPropertyTest, InvariantsHold) {
  const size_t n = GetParam();
  Rng rng(100 + n);
  const Matrix a = RandomSymmetric(n, &rng);
  Result<EigenDecomposition> result = SymmetricEigen(a);
  ASSERT_TRUE(result.ok());
  ExpectOrthonormalColumns(result->eigenvectors, 1e-11);
  EXPECT_NEAR(result->eigenvalues.Sum(), a.Trace(),
              1e-9 * std::max(1.0, std::fabs(a.Trace())));
  const Matrix& v = result->eigenvectors;
  Matrix reconstructed =
      Multiply(Multiply(v, Matrix::Diagonal(result->eigenvalues)),
               v.Transposed());
  ExpectMatrixNear(reconstructed, a, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Sizes, SymmetricEigenPropertyTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55, 89));

}  // namespace
}  // namespace cohere
