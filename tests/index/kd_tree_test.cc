#include "index/kd_tree.h"

#include <gtest/gtest.h>

#include <cstddef>

#include "../test_util.h"
#include "index/linear_scan.h"

namespace cohere {
namespace {

using testing_util::RandomMatrix;

TEST(KdTreeTest, MatchesLinearScanOnSmallExample) {
  Matrix data{{0.0, 0.0}, {1.0, 1.0}, {2.0, 0.0}, {0.5, 0.5}, {3.0, 3.0}};
  auto metric = MakeMetric(MetricKind::kEuclidean);
  KdTreeIndex tree(data, metric.get(), /*leaf_size=*/2);
  LinearScanIndex scan(data, metric.get());
  const Vector query{0.4, 0.4};
  EXPECT_EQ(tree.Query(query, 3), scan.Query(query, 3));
}

TEST(KdTreeTest, SkipIndexWorks) {
  Matrix data{{0.0}, {0.1}, {5.0}};
  auto metric = MakeMetric(MetricKind::kEuclidean);
  KdTreeIndex tree(data, metric.get());
  const auto result = tree.Query(Vector{0.0}, 1, /*skip_index=*/0, nullptr);
  ASSERT_EQ(result.size(), 1u);
  EXPECT_EQ(result[0].index, 1u);
}

TEST(KdTreeTest, HandlesDuplicatePoints) {
  Matrix data(20, 2, 1.0);  // all identical
  auto metric = MakeMetric(MetricKind::kEuclidean);
  KdTreeIndex tree(data, metric.get(), 4);
  const auto result = tree.Query(Vector{1.0, 1.0}, 5);
  ASSERT_EQ(result.size(), 5u);
  for (const auto& n : result) EXPECT_EQ(n.distance, 0.0);
  // Ties are broken by index, ascending.
  for (size_t i = 0; i < 5; ++i) EXPECT_EQ(result[i].index, i);
}

TEST(KdTreeTest, EmptyAndTinyDatasets) {
  auto metric = MakeMetric(MetricKind::kEuclidean);
  KdTreeIndex empty(Matrix(0, 3), metric.get());
  EXPECT_TRUE(empty.Query(Vector(3), 4).empty());
  KdTreeIndex one(Matrix(1, 2), metric.get());
  EXPECT_EQ(one.Query(Vector(2), 4).size(), 1u);
}

TEST(KdTreeTest, PrunesInLowDimensions) {
  Rng rng(96);
  Matrix data = RandomMatrix(2000, 2, &rng);
  auto metric = MakeMetric(MetricKind::kEuclidean);
  KdTreeIndex tree(data, metric.get(), 8);
  QueryStats stats;
  tree.Query(Vector(2), 5, KnnIndex::kNoSkip, &stats);
  // In 2-d the tree must visit far fewer points than a full scan.
  EXPECT_LT(stats.distance_evaluations, 500u);
}

TEST(KdTreeTest, DegradesGracefullyInHighDimensions) {
  Rng rng(97);
  Matrix data = RandomMatrix(500, 64, &rng);
  auto metric = MakeMetric(MetricKind::kEuclidean);
  KdTreeIndex tree(data, metric.get(), 8);
  LinearScanIndex scan(data, metric.get());
  const Vector query = rng.GaussianVector(64);
  // Correctness is preserved even when pruning fails.
  EXPECT_EQ(tree.Query(query, 10), scan.Query(query, 10));
}

TEST(KdTreeDeathTest, RejectsNonTrueMetric) {
  auto cosine = MakeMetric(MetricKind::kCosine);
  EXPECT_DEATH(KdTreeIndex(Matrix(3, 2), cosine.get()), "true metric");
}

struct KnnCase {
  MetricKind metric;
  size_t n;
  size_t d;
  size_t k;
};

void PrintTo(const KnnCase& c, std::ostream* os) {
  testing_util::PrintBytesWithZeroedPadding(c, sizeof(c.metric),
                                            offsetof(KnnCase, n), os);
}

class KdTreeAgreementTest : public ::testing::TestWithParam<KnnCase> {};

TEST_P(KdTreeAgreementTest, AgreesWithLinearScan) {
  const KnnCase& c = GetParam();
  Rng rng(1000 + c.n + c.d * 7 + c.k);
  Matrix data = RandomMatrix(c.n, c.d, &rng);
  auto metric = MakeMetric(c.metric);
  KdTreeIndex tree(data, metric.get(), 6);
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
    Cases, KdTreeAgreementTest,
    ::testing::Values(KnnCase{MetricKind::kEuclidean, 100, 2, 1},
                      KnnCase{MetricKind::kEuclidean, 300, 3, 5},
                      KnnCase{MetricKind::kEuclidean, 200, 10, 3},
                      KnnCase{MetricKind::kManhattan, 250, 4, 4},
                      KnnCase{MetricKind::kChebyshev, 150, 5, 2},
                      KnnCase{MetricKind::kEuclidean, 50, 30, 7}));

}  // namespace
}  // namespace cohere
