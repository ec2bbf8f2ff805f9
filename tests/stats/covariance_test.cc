#include "stats/covariance.h"

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "../test_util.h"
#include "common/parallel.h"

namespace cohere {
namespace {

using testing_util::ExpectMatrixNear;

TEST(ColumnStatsTest, MeansAndStdDevs) {
  Matrix data{{1.0, 10.0}, {3.0, 30.0}};
  Vector means = ColumnMeans(data);
  EXPECT_DOUBLE_EQ(means[0], 2.0);
  EXPECT_DOUBLE_EQ(means[1], 20.0);
  Vector stds = ColumnStdDevs(data);
  EXPECT_DOUBLE_EQ(stds[0], 1.0);
  EXPECT_DOUBLE_EQ(stds[1], 10.0);
}

TEST(CovarianceTest, KnownTwoColumnCase) {
  // Perfectly correlated columns y = 2x.
  Matrix data{{1.0, 2.0}, {2.0, 4.0}, {3.0, 6.0}};
  Matrix cov = CovarianceMatrix(data);
  const double var_x = 2.0 / 3.0;  // population variance of {1,2,3}
  EXPECT_NEAR(cov(0, 0), var_x, 1e-14);
  EXPECT_NEAR(cov(1, 1), 4.0 * var_x, 1e-14);
  EXPECT_NEAR(cov(0, 1), 2.0 * var_x, 1e-14);
  EXPECT_NEAR(cov(0, 1), cov(1, 0), 1e-15);
}

TEST(CovarianceTest, TraceIsMeanSquaredDeviationFromCentroid) {
  // The paper's invariant: trace(C) equals the mean squared Euclidean
  // deviation of records from the centroid.
  Rng rng(61);
  Matrix data = testing_util::RandomMatrix(50, 7, &rng);
  Matrix cov = CovarianceMatrix(data);
  const Vector mean = ColumnMeans(data);
  double msd = 0.0;
  for (size_t i = 0; i < data.rows(); ++i) {
    for (size_t j = 0; j < data.cols(); ++j) {
      const double d = data.At(i, j) - mean[j];
      msd += d * d;
    }
  }
  msd /= static_cast<double>(data.rows());
  EXPECT_NEAR(cov.Trace(), msd, 1e-10);
}

TEST(CorrelationMatrixTest, UnitDiagonalAndBounds) {
  Rng rng(62);
  Matrix data = testing_util::RandomMatrix(40, 5, &rng);
  Matrix corr = CorrelationMatrix(data);
  for (size_t i = 0; i < 5; ++i) {
    EXPECT_DOUBLE_EQ(corr(i, i), 1.0);
    for (size_t j = 0; j < 5; ++j) {
      EXPECT_LE(std::fabs(corr(i, j)), 1.0 + 1e-12);
    }
  }
}

TEST(CorrelationMatrixTest, PerfectCorrelationIsOne) {
  Matrix data{{1.0, 2.0}, {2.0, 4.0}, {3.0, 6.0}};
  Matrix corr = CorrelationMatrix(data);
  EXPECT_NEAR(corr(0, 1), 1.0, 1e-12);
}

TEST(CorrelationMatrixTest, ConstantColumnStaysInert) {
  Matrix data{{1.0, 5.0}, {2.0, 5.0}, {3.0, 5.0}};
  Matrix corr = CorrelationMatrix(data);
  EXPECT_DOUBLE_EQ(corr(1, 1), 1.0);
  EXPECT_DOUBLE_EQ(corr(0, 1), 0.0);
}

TEST(PearsonTest, KnownValues) {
  EXPECT_NEAR(
      PearsonCorrelation(Vector{1.0, 2.0, 3.0}, Vector{2.0, 4.0, 6.0}), 1.0,
      1e-14);
  EXPECT_NEAR(
      PearsonCorrelation(Vector{1.0, 2.0, 3.0}, Vector{6.0, 4.0, 2.0}), -1.0,
      1e-14);
  EXPECT_EQ(PearsonCorrelation(Vector{1.0, 1.0}, Vector{2.0, 3.0}), 0.0);
}

TEST(AverageRanksTest, HandlesTies) {
  const Vector ranks = AverageRanks(Vector{10.0, 20.0, 20.0, 30.0});
  EXPECT_DOUBLE_EQ(ranks[0], 1.0);
  EXPECT_DOUBLE_EQ(ranks[1], 2.5);
  EXPECT_DOUBLE_EQ(ranks[2], 2.5);
  EXPECT_DOUBLE_EQ(ranks[3], 4.0);
}

TEST(SpearmanTest, MonotoneNonlinearIsOne) {
  // Spearman sees the monotone relationship Pearson would understate.
  Vector x{1.0, 2.0, 3.0, 4.0, 5.0};
  Vector y{1.0, 8.0, 27.0, 64.0, 125.0};
  EXPECT_NEAR(SpearmanCorrelation(x, y), 1.0, 1e-14);
  Vector y_rev{125.0, 64.0, 27.0, 8.0, 1.0};
  EXPECT_NEAR(SpearmanCorrelation(x, y_rev), -1.0, 1e-14);
}

TEST(SpearmanTest, TinyInputs) {
  EXPECT_EQ(SpearmanCorrelation(Vector{1.0}, Vector{2.0}), 0.0);
}

TEST(CorrelationTest, ZeroVarianceColumnsStayFinite) {
  // Column 1 is constant: its correlation row/column must be zero (no
  // correlation signal) with a 1 on the diagonal — never NaN or Inf.
  Matrix data(6, 3);
  for (size_t i = 0; i < data.rows(); ++i) {
    data.At(i, 0) = static_cast<double>(i);
    data.At(i, 1) = 42.0;
    data.At(i, 2) = static_cast<double>(i * i);
  }
  const Matrix corr = CorrelationMatrix(data);
  for (size_t i = 0; i < corr.rows(); ++i) {
    for (size_t j = 0; j < corr.cols(); ++j) {
      EXPECT_TRUE(std::isfinite(corr.At(i, j))) << i << "," << j;
    }
    EXPECT_DOUBLE_EQ(corr.At(i, i), 1.0);
  }
  EXPECT_DOUBLE_EQ(corr.At(0, 1), 0.0);
  EXPECT_DOUBLE_EQ(corr.At(1, 0), 0.0);
  EXPECT_DOUBLE_EQ(corr.At(1, 2), 0.0);
  EXPECT_DOUBLE_EQ(corr.At(2, 1), 0.0);
  // The varying columns keep their real (perfectly monotone) correlation.
  EXPECT_GT(corr.At(0, 2), 0.9);
}

TEST(CovarianceParallelTest, MatrixIsBitwiseIdenticalAcrossThreadCounts) {
  // Centering is element-wise and the product keeps its per-element
  // accumulation order under row striping, so the covariance matrix must be
  // exactly the same at any thread count.
  Rng rng(177);
  const Matrix data = testing_util::RandomMatrix(220, 35, &rng);
  SetParallelThreadCount(1);
  const Matrix serial = CovarianceMatrix(data);
  const Matrix corr_serial = CorrelationMatrix(data);
  SetParallelThreadCount(4);
  EXPECT_EQ(CovarianceMatrix(data), serial);
  EXPECT_EQ(CorrelationMatrix(data), corr_serial);
  SetParallelThreadCount(0);
}

// The covariance as a centred n x d copy and its MultiplyTransposeA
// product, the formulation CovarianceMatrix must match bit for bit.
Matrix CenteredCopyCovariance(const Matrix& data) {
  const Vector means = ColumnMeans(data);
  Matrix centered = data;
  for (size_t i = 0; i < centered.rows(); ++i) {
    for (size_t j = 0; j < centered.cols(); ++j) centered.At(i, j) -= means[j];
  }
  Matrix cov = MultiplyTransposeA(centered, centered);
  cov *= 1.0 / static_cast<double>(data.rows());
  for (size_t i = 0; i < cov.rows(); ++i) {
    for (size_t j = i + 1; j < cov.cols(); ++j) {
      const double avg = 0.5 * (cov.At(i, j) + cov.At(j, i));
      cov.At(i, j) = avg;
      cov.At(j, i) = avg;
    }
  }
  return cov;
}

TEST(RowSubsetCovarianceTest, BitwiseEqualToCenteredCopyOfSelectedRows) {
  Rng rng(311);
  Matrix data = testing_util::RandomMatrix(120, 17, &rng);
  // A constant column and small integer columns centre to exact zeros,
  // which the product skips.
  for (size_t i = 0; i < data.rows(); ++i) {
    data.At(i, 3) = 2.5;
    data.At(i, 9) = static_cast<double>(i % 3);
  }
  EXPECT_EQ(CovarianceMatrix(data), CenteredCopyCovariance(data));
  const std::vector<std::vector<size_t>> lists = {
      {7},
      {4, 4},
      {0, 1, 2, 3, 4, 5, 6, 7, 8, 9},
      {119, 3, 58, 3, 77, 12, 0, 101, 64, 33, 90},
  };
  for (const std::vector<size_t>& rows : lists) {
    EXPECT_EQ(RowSubsetCovariance(data, rows),
              CenteredCopyCovariance(data.SelectRows(rows)))
        << rows.size() << " rows";
  }
}

}  // namespace
}  // namespace cohere
