#include "index/rstar_tree.h"

#include <gtest/gtest.h>

#include <cstddef>

#include "../test_util.h"
#include "index/linear_scan.h"

namespace cohere {
namespace {

using testing_util::RandomMatrix;

TEST(RStarTreeTest, MatchesLinearScanOnSmallExample) {
  Matrix data{{0.0, 0.0}, {1.0, 1.0}, {2.0, 0.0}, {0.5, 0.5}, {3.0, 3.0}};
  auto metric = MakeMetric(MetricKind::kEuclidean);
  RStarTreeIndex tree(data, metric.get(), 4);
  LinearScanIndex scan(data, metric.get());
  const Vector query{0.4, 0.4};
  EXPECT_EQ(tree.Query(query, 3), scan.Query(query, 3));
  EXPECT_TRUE(tree.CheckInvariants());
}

TEST(RStarTreeTest, InvariantsHoldAcrossGrowth) {
  Rng rng(801);
  auto metric = MakeMetric(MetricKind::kEuclidean);
  for (size_t n : {1u, 5u, 17u, 64u, 200u, 777u}) {
    Matrix data = RandomMatrix(n, 3, &rng);
    RStarTreeIndex tree(data, metric.get(), 8);
    EXPECT_TRUE(tree.CheckInvariants()) << "n=" << n;
    if (n > 64) {
      EXPECT_GT(tree.Height(), 1u);
    }
  }
}

TEST(RStarTreeTest, EmptyDataset) {
  auto metric = MakeMetric(MetricKind::kEuclidean);
  RStarTreeIndex tree(Matrix(0, 2), metric.get());
  EXPECT_TRUE(tree.Query(Vector(2), 5).empty());
  EXPECT_TRUE(tree.CheckInvariants());
}

TEST(RStarTreeTest, SkipIndexWorks) {
  Matrix data{{0.0}, {0.1}, {5.0}};
  auto metric = MakeMetric(MetricKind::kEuclidean);
  RStarTreeIndex tree(data, metric.get());
  const auto result = tree.Query(Vector{0.0}, 1, /*skip_index=*/0, nullptr);
  ASSERT_EQ(result.size(), 1u);
  EXPECT_EQ(result[0].index, 1u);
}

TEST(RStarTreeTest, DuplicatePointsKeepAllRows) {
  Matrix data(60, 2, 3.0);
  auto metric = MakeMetric(MetricKind::kEuclidean);
  RStarTreeIndex tree(data, metric.get(), 6);
  EXPECT_TRUE(tree.CheckInvariants());
  const auto result = tree.Query(Vector(2, 3.0), 10);
  ASSERT_EQ(result.size(), 10u);
  for (const auto& n : result) EXPECT_EQ(n.distance, 0.0);
}

TEST(RStarTreeTest, PrunesInLowDimensions) {
  Rng rng(802);
  Matrix data = RandomMatrix(3000, 2, &rng);
  auto metric = MakeMetric(MetricKind::kEuclidean);
  RStarTreeIndex tree(data, metric.get(), 16);
  QueryStats stats;
  tree.Query(Vector(2), 5, KnnIndex::kNoSkip, &stats);
  EXPECT_LT(stats.distance_evaluations, 600u);
}

TEST(RStarTreeDeathTest, RejectsBadConfig) {
  auto cosine = MakeMetric(MetricKind::kCosine);
  EXPECT_DEATH(RStarTreeIndex(Matrix(3, 2), cosine.get()), "true metric");
  auto l2 = MakeMetric(MetricKind::kEuclidean);
  EXPECT_DEATH(RStarTreeIndex(Matrix(3, 2), l2.get(), 3), "COHERE_CHECK");
}

struct RStarCase {
  MetricKind metric;
  size_t n;
  size_t d;
  size_t k;
  size_t max_entries;
};

void PrintTo(const RStarCase& c, std::ostream* os) {
  testing_util::PrintBytesWithZeroedPadding(c, sizeof(c.metric),
                                            offsetof(RStarCase, n), os);
}

class RStarAgreementTest : public ::testing::TestWithParam<RStarCase> {};

TEST_P(RStarAgreementTest, AgreesWithLinearScanAndStaysValid) {
  const RStarCase& c = GetParam();
  Rng rng(4000 + c.n + c.d * 17 + c.k);
  Matrix data = RandomMatrix(c.n, c.d, &rng);
  auto metric = MakeMetric(c.metric);
  RStarTreeIndex tree(data, metric.get(), c.max_entries);
  ASSERT_TRUE(tree.CheckInvariants());
  LinearScanIndex scan(data, metric.get());
  for (int trial = 0; trial < 10; ++trial) {
    const Vector query = rng.GaussianVector(c.d);
    const auto expected = scan.Query(query, c.k);
    const auto actual = tree.Query(query, c.k);
    ASSERT_EQ(actual.size(), expected.size());
    for (size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(actual[i].index, expected[i].index) << "trial " << trial;
      EXPECT_NEAR(actual[i].distance, expected[i].distance, 1e-10);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, RStarAgreementTest,
    ::testing::Values(RStarCase{MetricKind::kEuclidean, 100, 2, 1, 4},
                      RStarCase{MetricKind::kEuclidean, 400, 3, 5, 8},
                      RStarCase{MetricKind::kManhattan, 250, 4, 4, 16},
                      RStarCase{MetricKind::kChebyshev, 150, 5, 2, 8},
                      RStarCase{MetricKind::kEuclidean, 60, 30, 7, 8},
                      RStarCase{MetricKind::kEuclidean, 600, 2, 3, 32}));

}  // namespace
}  // namespace cohere
