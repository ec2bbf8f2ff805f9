#include "cluster/projected.h"

#include <set>

#include <gtest/gtest.h>

#include "../test_util.h"
#include "stats/rng.h"

namespace cohere {
namespace {

// Two populations living on different 1-d lines inside a noisy 6-d space:
// population 0 varies along e0, population 1 along e1; both have small
// isotropic noise. A projected clustering with l = 5 (the directions each
// cluster is tight in) should separate them.
Matrix TwoSubspacePopulations(size_t per_pop, Rng* rng) {
  Matrix data(2 * per_pop, 6);
  for (size_t i = 0; i < per_pop; ++i) {
    const double t = rng->Gaussian() * 5.0;
    for (size_t j = 0; j < 6; ++j) {
      data.At(i, j) = rng->Gaussian() * 0.2;
    }
    data.At(i, 0) += t;
  }
  for (size_t i = 0; i < per_pop; ++i) {
    const double t = rng->Gaussian() * 5.0;
    for (size_t j = 0; j < 6; ++j) {
      data.At(per_pop + i, j) = rng->Gaussian() * 0.2;
    }
    data.At(per_pop + i, 1) += t;
    data.At(per_pop + i, 2) += 3.0;  // small offset to break symmetry
  }
  return data;
}

TEST(ProjectedClusteringTest, SeparatesSubspacePopulations) {
  Rng rng(301);
  Matrix data = TwoSubspacePopulations(80, &rng);
  ProjectedClusteringOptions options;
  options.num_clusters = 2;
  options.subspace_dim = 5;
  options.seed = 4;
  Result<ProjectedClusteringResult> result =
      RunProjectedClustering(data, options);
  ASSERT_TRUE(result.ok());

  // Count the majority assignment per population; the split must be clean
  // for at least 90% of the points.
  size_t correct = 0;
  const size_t pop0_major = result->assignment[0];
  for (size_t i = 0; i < 80; ++i) {
    if (result->assignment[i] == pop0_major) ++correct;
  }
  for (size_t i = 80; i < 160; ++i) {
    if (result->assignment[i] != pop0_major) ++correct;
  }
  EXPECT_GE(correct, 144u);
}

TEST(ProjectedClusteringTest, BasesAreOrthonormalAndTight) {
  Rng rng(302);
  Matrix data = TwoSubspacePopulations(60, &rng);
  ProjectedClusteringOptions options;
  options.num_clusters = 2;
  options.subspace_dim = 5;
  Result<ProjectedClusteringResult> result =
      RunProjectedClustering(data, options);
  ASSERT_TRUE(result.ok());
  for (const ProjectedCluster& cluster : result->clusters) {
    ASSERT_EQ(cluster.basis.rows(), 6u);
    ASSERT_EQ(cluster.basis.cols(), 5u);
    testing_util::ExpectOrthonormalColumns(cluster.basis, 1e-9);
  }
  // The energy (mean projected distance^2) must be far below the raw
  // variance of the data (~25 along the sprawl direction).
  EXPECT_LT(result->energy, 3.0);
}

TEST(ProjectedClusteringTest, ProjectedDistanceIgnoresSprawlDirection) {
  ProjectedCluster cluster;
  cluster.centroid = Vector{0.0, 0.0, 0.0};
  // Subspace spanned by e1, e2: distance ignores movement along e0.
  cluster.basis = Matrix(3, 2);
  cluster.basis.At(1, 0) = 1.0;
  cluster.basis.At(2, 1) = 1.0;
  EXPECT_DOUBLE_EQ(ProjectedSquaredDistance(Vector{100.0, 0.0, 0.0}, cluster),
                   0.0);
  EXPECT_DOUBLE_EQ(ProjectedSquaredDistance(Vector{0.0, 3.0, 4.0}, cluster),
                   25.0);
}

TEST(ProjectedClusteringTest, NearestProjectedCluster) {
  ProjectedCluster a;
  a.centroid = Vector{0.0, 0.0};
  a.basis = Matrix::Identity(2);
  ProjectedCluster b;
  b.centroid = Vector{10.0, 0.0};
  b.basis = Matrix::Identity(2);
  std::vector<ProjectedCluster> clusters{a, b};
  EXPECT_EQ(NearestProjectedCluster(clusters, Vector{1.0, 0.0}), 0u);
  EXPECT_EQ(NearestProjectedCluster(clusters, Vector{9.0, 0.0}), 1u);
}

TEST(ProjectedClusteringTest, FullSubspaceDimReducesToKMeansGeometry) {
  // With l = d the projected distance is the full Euclidean distance, so
  // separated blobs still split cleanly.
  Rng rng(303);
  Matrix data(60, 2);
  for (size_t i = 0; i < 30; ++i) {
    data.At(i, 0) = rng.Gaussian() * 0.3;
    data.At(i, 1) = rng.Gaussian() * 0.3;
    data.At(30 + i, 0) = 10.0 + rng.Gaussian() * 0.3;
    data.At(30 + i, 1) = rng.Gaussian() * 0.3;
  }
  ProjectedClusteringOptions options;
  options.num_clusters = 2;
  options.subspace_dim = 2;
  Result<ProjectedClusteringResult> result =
      RunProjectedClustering(data, options);
  ASSERT_TRUE(result.ok());
  const size_t id0 = result->assignment[0];
  for (size_t i = 0; i < 30; ++i) EXPECT_EQ(result->assignment[i], id0);
  for (size_t i = 30; i < 60; ++i) EXPECT_NE(result->assignment[i], id0);
}

TEST(ProjectedClusteringTest, RejectsBadArguments) {
  Matrix data(10, 4);
  ProjectedClusteringOptions options;
  options.num_clusters = 0;
  EXPECT_FALSE(RunProjectedClustering(data, options).ok());
  options.num_clusters = 2;
  options.subspace_dim = 0;
  EXPECT_FALSE(RunProjectedClustering(data, options).ok());
  options.subspace_dim = 5;  // > d
  EXPECT_FALSE(RunProjectedClustering(data, options).ok());
  options.subspace_dim = 2;
  options.num_clusters = 11;  // > n
  EXPECT_FALSE(RunProjectedClustering(data, options).ok());
}

TEST(ProjectedClusteringTest, FewerDistinctRowsThanClustersYieldsFewerClusters) {
  // 12 rows on 2 distinct points, k = 4: the over-seeded clusters collapse
  // onto the two points and the empty ones are dropped, so 2 clusters come
  // back, not 4.
  Matrix data(12, 3);
  for (size_t i = 0; i < 12; ++i) {
    data.At(i, 0) = i % 2 == 0 ? 1.0 : -1.0;
    data.At(i, 1) = i % 2 == 0 ? 2.0 : 0.5;
  }
  ProjectedClusteringOptions options;
  options.num_clusters = 4;
  options.subspace_dim = 2;
  Result<ProjectedClusteringResult> result =
      RunProjectedClustering(data, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->clusters.size(), 2u);
  size_t total = 0;
  for (const ProjectedCluster& cluster : result->clusters) {
    ASSERT_FALSE(cluster.members.empty());
    for (size_t member : cluster.members) {
      EXPECT_EQ(member % 2, cluster.members[0] % 2);
    }
    total += cluster.members.size();
  }
  EXPECT_EQ(total, 12u);
  for (size_t i = 0; i < 12; ++i) {
    EXPECT_LT(result->assignment[i], result->clusters.size());
  }
}

TEST(ProjectedClusteringTest, Deterministic) {
  Rng rng(304);
  Matrix data = TwoSubspacePopulations(40, &rng);
  ProjectedClusteringOptions options;
  options.num_clusters = 2;
  options.subspace_dim = 4;
  options.seed = 11;
  Result<ProjectedClusteringResult> a = RunProjectedClustering(data, options);
  Result<ProjectedClusteringResult> b = RunProjectedClustering(data, options);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->assignment, b->assignment);
}

}  // namespace
}  // namespace cohere
