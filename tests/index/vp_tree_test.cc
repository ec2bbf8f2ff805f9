#include "index/vp_tree.h"

#include <gtest/gtest.h>

#include <cstddef>

#include "../test_util.h"
#include "index/linear_scan.h"

namespace cohere {
namespace {

using testing_util::RandomMatrix;

TEST(VpTreeTest, MatchesLinearScanOnSmallExample) {
  Matrix data{{0.0, 0.0}, {1.0, 1.0}, {2.0, 0.0}, {0.5, 0.5}, {3.0, 3.0}};
  auto metric = MakeMetric(MetricKind::kEuclidean);
  VpTreeIndex tree(data, metric.get(), /*leaf_size=*/2);
  LinearScanIndex scan(data, metric.get());
  const Vector query{0.4, 0.4};
  const auto expected = scan.Query(query, 3);
  const auto actual = tree.Query(query, 3);
  ASSERT_EQ(actual.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(actual[i].index, expected[i].index);
    EXPECT_NEAR(actual[i].distance, expected[i].distance, 1e-12);
  }
}

TEST(VpTreeTest, SkipIndexWorks) {
  Matrix data{{0.0}, {0.1}, {5.0}};
  auto metric = MakeMetric(MetricKind::kEuclidean);
  VpTreeIndex tree(data, metric.get());
  const auto result = tree.Query(Vector{0.0}, 1, /*skip_index=*/0, nullptr);
  ASSERT_EQ(result.size(), 1u);
  EXPECT_EQ(result[0].index, 1u);
}

TEST(VpTreeTest, EmptyAndTiny) {
  auto metric = MakeMetric(MetricKind::kEuclidean);
  VpTreeIndex empty(Matrix(0, 2), metric.get());
  EXPECT_TRUE(empty.Query(Vector(2), 3).empty());
  VpTreeIndex one(Matrix(1, 2), metric.get());
  EXPECT_EQ(one.Query(Vector(2), 3).size(), 1u);
}

TEST(VpTreeTest, DuplicatePoints) {
  Matrix data(25, 3, 2.0);
  auto metric = MakeMetric(MetricKind::kManhattan);
  VpTreeIndex tree(data, metric.get(), 4);
  const auto result = tree.Query(Vector(3, 2.0), 5);
  ASSERT_EQ(result.size(), 5u);
  for (size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(result[i].distance, 0.0);
    EXPECT_EQ(result[i].index, i);  // ties broken by ascending index
  }
}

TEST(VpTreeTest, PrunesInLowDimensions) {
  Rng rng(501);
  Matrix data = RandomMatrix(3000, 2, &rng);
  auto metric = MakeMetric(MetricKind::kEuclidean);
  VpTreeIndex tree(data, metric.get(), 8);
  QueryStats stats;
  tree.Query(Vector(2), 5, KnnIndex::kNoSkip, &stats);
  EXPECT_LT(stats.distance_evaluations, 1200u);
}

TEST(VpTreeDeathTest, RejectsNonTrueMetric) {
  auto cosine = MakeMetric(MetricKind::kCosine);
  EXPECT_DEATH(VpTreeIndex(Matrix(3, 2), cosine.get()), "true metric");
}

struct VpCase {
  MetricKind metric;
  size_t n;
  size_t d;
  size_t k;
  size_t leaf;
};

void PrintTo(const VpCase& c, std::ostream* os) {
  testing_util::PrintBytesWithZeroedPadding(c, sizeof(c.metric),
                                            offsetof(VpCase, n), os);
}

class VpTreeAgreementTest : public ::testing::TestWithParam<VpCase> {};

TEST_P(VpTreeAgreementTest, AgreesWithLinearScan) {
  const VpCase& c = GetParam();
  Rng rng(3000 + c.n + c.d * 13 + c.k);
  Matrix data = RandomMatrix(c.n, c.d, &rng);
  auto metric = MakeMetric(c.metric);
  VpTreeIndex tree(data, metric.get(), c.leaf);
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
    Cases, VpTreeAgreementTest,
    ::testing::Values(VpCase{MetricKind::kEuclidean, 100, 2, 1, 1},
                      VpCase{MetricKind::kEuclidean, 300, 3, 5, 8},
                      VpCase{MetricKind::kManhattan, 250, 4, 4, 4},
                      VpCase{MetricKind::kChebyshev, 150, 5, 2, 8},
                      VpCase{MetricKind::kEuclidean, 60, 20, 7, 16},
                      VpCase{MetricKind::kEuclidean, 500, 8, 3, 2}));

}  // namespace
}  // namespace cohere
