#ifndef COHERE_CLUSTER_PROJECTED_H_
#define COHERE_CLUSTER_PROJECTED_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "linalg/matrix.h"
#include "linalg/vector.h"

namespace cohere {

/// Options for generalized projected clustering.
struct ProjectedClusteringOptions {
  size_t num_clusters = 2;
  /// Per-cluster subspace dimensionality l (the cluster's implicit
  /// dimensionality). Must be <= data dimensionality.
  size_t subspace_dim = 4;
  int max_iterations = 15;
  uint64_t seed = 1;
};

/// One projected cluster: a centroid plus the l-dimensional subspace in
/// which its members are tight.
struct ProjectedCluster {
  /// Centroid in the original attribute space.
  Vector centroid;
  /// d x l orthonormal basis of the cluster's subspace: the *least-spread*
  /// eigenvectors of the member covariance, following ORCLUS — distances
  /// measured inside this basis ignore the directions the cluster sprawls
  /// along and keep the ones it agrees in.
  Matrix basis;
  /// Member row indices into the clustered matrix.
  std::vector<size_t> members;
};

/// Result of RunProjectedClustering.
struct ProjectedClusteringResult {
  std::vector<ProjectedCluster> clusters;
  /// Cluster id per input row.
  std::vector<size_t> assignment;
  /// Mean squared projected distance of points to their cluster centroid
  /// (the ORCLUS energy; lower is tighter).
  double energy = 0.0;
  int iterations = 0;
};

/// Generalized projected clustering in the spirit of ORCLUS (Aggarwal & Yu,
/// SIGMOD 2000 — the paper's reference [2]): k-means++-seeded iterations
/// that alternately (a) assign each point to the cluster whose centroid is
/// nearest *in that cluster's own subspace* and (b) refit each cluster's
/// centroid and least-spread eigenbasis from its members.
///
/// This is the decomposition the paper's Section 3.1 proposes for data whose
/// *global* implicit dimensionality is too high for any single axis system:
/// split the data into subsets that are individually low-dimensional, then
/// run the coherence machinery per subset (see LocalReducedSearchEngine).
///
/// Returns at most `num_clusters` clusters, every one non-empty. It returns
/// fewer when over-seeded clusters that no point chooses are dropped before
/// the merge phase, as on a corpus with fewer distinct rows than
/// `num_clusters` (12 rows on 2 distinct points with k = 4 give 2 clusters).
Result<ProjectedClusteringResult> RunProjectedClustering(
    const Matrix& data, const ProjectedClusteringOptions& options);

/// Squared distance between `point` and `centroid` measured inside
/// `basis` (d x l): |B^T (point - centroid)|^2.
double ProjectedSquaredDistance(const Vector& point, const Vector& centroid,
                                const Matrix& basis);

/// The same distance for a cluster's centroid and basis.
double ProjectedSquaredDistance(const Vector& point,
                                const ProjectedCluster& cluster);

/// Index of the cluster with the smallest projected distance to `point`.
size_t NearestProjectedCluster(
    const std::vector<ProjectedCluster>& clusters, const Vector& point);

}  // namespace cohere

#endif  // COHERE_CLUSTER_PROJECTED_H_
