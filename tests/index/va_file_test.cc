#include "index/va_file.h"

#include <gtest/gtest.h>

#include <cstddef>

#include "../test_util.h"
#include "index/linear_scan.h"

namespace cohere {
namespace {

using testing_util::RandomMatrix;

TEST(VaFileTest, MatchesLinearScanOnSmallExample) {
  Matrix data{{0.0, 0.0}, {1.0, 1.0}, {2.0, 0.0}, {0.5, 0.5}, {3.0, 3.0}};
  auto metric = MakeMetric(MetricKind::kEuclidean);
  VaFileIndex va(data, metric.get(), 4);
  LinearScanIndex scan(data, metric.get());
  const Vector query{0.4, 0.4};
  EXPECT_EQ(va.Query(query, 3), scan.Query(query, 3));
}

TEST(VaFileTest, SkipIndexWorks) {
  Matrix data{{0.0}, {0.1}, {5.0}};
  auto metric = MakeMetric(MetricKind::kEuclidean);
  VaFileIndex va(data, metric.get());
  const auto result = va.Query(Vector{0.0}, 1, /*skip_index=*/0, nullptr);
  ASSERT_EQ(result.size(), 1u);
  EXPECT_EQ(result[0].index, 1u);
}

TEST(VaFileTest, RefinesFewerThanScansWhenQuantizationHelps) {
  Rng rng(98);
  Matrix data = RandomMatrix(2000, 4, &rng);
  auto metric = MakeMetric(MetricKind::kEuclidean);
  VaFileIndex va(data, metric.get(), 6);
  QueryStats stats;
  va.Query(rng.GaussianVector(4), 5, KnnIndex::kNoSkip, &stats);
  // Phase 1 scans every approximation; phase 2 must touch only a fraction.
  EXPECT_EQ(stats.nodes_visited, 2000u);
  EXPECT_LT(stats.candidates_refined, 400u);
}

TEST(VaFileTest, ApproximationBytesIsCompact) {
  Matrix data(100, 8);
  auto metric = MakeMetric(MetricKind::kEuclidean);
  VaFileIndex va(data, metric.get(), 5);
  // One byte per cell code plus the flattened (d x (cells+1)) boundary
  // table of doubles.
  EXPECT_EQ(va.ApproximationBytes(), 100u * 8u + 8u * (32u + 1u) * 8u);
}

TEST(VaFileTest, ConstantColumnHandled) {
  Matrix data(30, 2);
  for (size_t i = 0; i < 30; ++i) {
    data.At(i, 0) = 5.0;  // constant
    data.At(i, 1) = static_cast<double>(i);
  }
  auto metric = MakeMetric(MetricKind::kEuclidean);
  VaFileIndex va(data, metric.get(), 3);
  LinearScanIndex scan(data, metric.get());
  const Vector query{5.0, 12.2};
  EXPECT_EQ(va.Query(query, 4), scan.Query(query, 4));
}

TEST(VaFileDeathTest, RejectsBadConfig) {
  auto cosine = MakeMetric(MetricKind::kCosine);
  EXPECT_DEATH(VaFileIndex(Matrix(3, 2), cosine.get()), "decomposable");
  auto l2 = MakeMetric(MetricKind::kEuclidean);
  EXPECT_DEATH(VaFileIndex(Matrix(3, 2), l2.get(), 0), "COHERE_CHECK");
  EXPECT_DEATH(VaFileIndex(Matrix(3, 2), l2.get(), 9), "COHERE_CHECK");
}

struct VaCase {
  MetricKind metric;
  size_t n;
  size_t d;
  size_t k;
  size_t bits;
};

void PrintTo(const VaCase& c, std::ostream* os) {
  testing_util::PrintBytesWithZeroedPadding(c, sizeof(c.metric),
                                            offsetof(VaCase, n), os);
}

class VaFileAgreementTest : public ::testing::TestWithParam<VaCase> {};

TEST_P(VaFileAgreementTest, AgreesWithLinearScan) {
  const VaCase& c = GetParam();
  Rng rng(2000 + c.n + c.d * 11 + c.k + c.bits);
  Matrix data = RandomMatrix(c.n, c.d, &rng);
  auto metric = MakeMetric(c.metric);
  VaFileIndex va(data, metric.get(), c.bits);
  LinearScanIndex scan(data, metric.get());
  for (int trial = 0; trial < 8; ++trial) {
    const Vector query = rng.GaussianVector(c.d);
    const auto expected = scan.Query(query, c.k);
    const auto actual = va.Query(query, c.k);
    ASSERT_EQ(actual.size(), expected.size());
    for (size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(actual[i].index, expected[i].index) << "trial " << trial;
      EXPECT_NEAR(actual[i].distance, expected[i].distance, 1e-10);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, VaFileAgreementTest,
    ::testing::Values(VaCase{MetricKind::kEuclidean, 200, 3, 5, 4},
                      VaCase{MetricKind::kEuclidean, 300, 8, 3, 6},
                      VaCase{MetricKind::kManhattan, 150, 5, 4, 5},
                      VaCase{MetricKind::kChebyshev, 100, 4, 2, 5},
                      VaCase{MetricKind::kEuclidean, 80, 20, 6, 1},
                      VaCase{MetricKind::kEuclidean, 500, 2, 1, 8}));

}  // namespace
}  // namespace cohere
