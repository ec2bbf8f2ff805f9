#include "cluster/projected.h"

#include <algorithm>
#include <limits>

#include "cluster/kmeans.h"
#include "common/check.h"
#include "linalg/symmetric_eigen.h"
#include "stats/covariance.h"

namespace cohere {
namespace {

// What the last refit of one cluster saw: its member list and the
// population covariance (divide by n) of those members. Kept beside the
// clusters, index for index, so the merge search can score a union from two
// clusters' moments and RefitAll can skip clusters whose members did not
// change.
struct ClusterFit {
  std::vector<size_t> members;
  /// d x d; zero for fewer than two members.
  Matrix covariance;
  /// False until a fit completes, and again after a failed eigensolve so
  /// the next refit retries it.
  bool current = false;
};

// Centroid of the listed rows.
Vector MemberCentroid(const Matrix& data, const std::vector<size_t>& members) {
  const size_t d = data.cols();
  Vector centroid(d);
  for (size_t member : members) {
    const double* row = data.RowPtr(member);
    for (size_t j = 0; j < d; ++j) centroid[j] += row[j];
  }
  if (!members.empty()) centroid /= static_cast<double>(members.size());
  return centroid;
}

// Refits the centroid and the least-spread eigenbasis (d x l) of `cluster`
// from its members and records them in `*fit`. A cluster too small to
// define a covariance, or whose eigensolve fails, keeps its basis.
void Refit(const Matrix& data, size_t l, ProjectedCluster* cluster,
           ClusterFit* fit) {
  const size_t d = data.cols();
  cluster->centroid = MemberCentroid(data, cluster->members);
  fit->members = cluster->members;
  fit->current = true;
  if (cluster->members.size() < 2) {
    fit->covariance = Matrix(d, d);
    return;
  }
  fit->covariance = RowSubsetCovariance(data, cluster->members);
  Result<EigenDecomposition> eig = SymmetricEigen(fit->covariance);
  if (!eig.ok()) {
    fit->current = false;
    return;
  }
  std::vector<size_t> least(l);
  for (size_t i = 0; i < l; ++i) least[i] = d - l + i;
  cluster->basis = eig->eigenvectors.SelectCols(least);
}

// Projected energy per member of the union of clusters a and b: the sum of
// the l smallest eigenvalues of the union's covariance, built from the two
// clusters' counts, centroids and covariances in O(d^2):
//   C = (n_a C_a + n_b C_b) / n + (n_a n_b / n^2) delta delta^T,
//   delta = mu_a - mu_b.
// `*merged` is d x d scratch. A failed eigensolve scores +inf, so it is
// never the preferred merge.
double MergedEnergy(const ProjectedCluster& a, const ClusterFit& fit_a,
                    const ProjectedCluster& b, const ClusterFit& fit_b,
                    size_t l, Matrix* merged) {
  const double n_a = static_cast<double>(a.members.size());
  const double n_b = static_cast<double>(b.members.size());
  const double n = n_a + n_b;
  if (n < 2.0) return 0.0;  // tiny unions are trivially tight
  const size_t d = a.centroid.size();
  const double cross = n_a * n_b / (n * n);
  for (size_t i = 0; i < d; ++i) {
    const double delta_i = a.centroid[i] - b.centroid[i];
    const double* row_a = fit_a.covariance.RowPtr(i);
    const double* row_b = fit_b.covariance.RowPtr(i);
    for (size_t j = i; j < d; ++j) {
      const double delta_j = a.centroid[j] - b.centroid[j];
      const double value =
          (n_a * row_a[j] + n_b * row_b[j]) / n + cross * delta_i * delta_j;
      merged->At(i, j) = value;
      merged->At(j, i) = value;
    }
  }
  Result<Vector> eigenvalues = SymmetricEigenvalues(*merged);
  if (!eigenvalues.ok()) return std::numeric_limits<double>::infinity();
  double spread = 0.0;
  for (size_t i = 0; i < l; ++i) {
    spread += std::max((*eigenvalues)[d - l + i], 0.0);
  }
  return spread;
}

// NearestProjectedCluster's scan, also reporting the winner's distance.
size_t NearestWithDistance(const std::vector<ProjectedCluster>& clusters,
                           const Vector& point, double* distance) {
  COHERE_CHECK(!clusters.empty());
  size_t best = 0;
  double best_dist = std::numeric_limits<double>::infinity();
  double first_dist = 0.0;
  for (size_t c = 0; c < clusters.size(); ++c) {
    const double dist = ProjectedSquaredDistance(point, clusters[c]);
    if (c == 0) first_dist = dist;
    if (dist < best_dist) {
      best_dist = dist;
      best = c;
    }
  }
  // When no distance is below +inf (all inf or NaN), cluster 0 wins with
  // its own distance.
  *distance = best == 0 ? first_dist : best_dist;
  return best;
}

// Reassigns every point to its nearest cluster by projected distance and
// rebuilds member lists. Returns whether any assignment changed; accumulates
// the mean projected energy into `*mean_energy`.
bool AssignAll(const Matrix& data, std::vector<ProjectedCluster>* clusters,
               std::vector<size_t>* assignment, double* mean_energy) {
  const size_t n = data.rows();
  const size_t d = data.cols();
  bool changed = false;
  double energy = 0.0;
  for (ProjectedCluster& cluster : *clusters) cluster.members.clear();
  Vector point(d);
  for (size_t i = 0; i < n; ++i) {
    const double* src = data.RowPtr(i);
    std::copy(src, src + d, point.data());
    double dist;
    const size_t best = NearestWithDistance(*clusters, point, &dist);
    energy += dist;
    if (best != (*assignment)[i]) {
      (*assignment)[i] = best;
      changed = true;
    }
    (*clusters)[best].members.push_back(i);
  }
  *mean_energy = energy / static_cast<double>(n);
  return changed;
}

// Refits every non-empty cluster whose member list differs from the one it
// was last fitted on. An identical list would refit to identical bits.
void RefitAll(const Matrix& data, size_t l,
              std::vector<ProjectedCluster>* clusters,
              std::vector<ClusterFit>* fits) {
  for (size_t c = 0; c < clusters->size(); ++c) {
    ProjectedCluster& cluster = (*clusters)[c];
    ClusterFit& fit = (*fits)[c];
    if (cluster.members.empty()) continue;
    if (fit.current && fit.members == cluster.members) continue;
    Refit(data, l, &cluster, &fit);
  }
}

// Drops empty clusters (and their fits), compacting assignments.
void DropEmpty(std::vector<ProjectedCluster>* clusters,
               std::vector<ClusterFit>* fits,
               std::vector<size_t>* assignment) {
  std::vector<size_t> remap(clusters->size(), 0);
  std::vector<ProjectedCluster> kept;
  std::vector<ClusterFit> kept_fits;
  for (size_t c = 0; c < clusters->size(); ++c) {
    if (!(*clusters)[c].members.empty()) {
      remap[c] = kept.size();
      kept.push_back(std::move((*clusters)[c]));
      kept_fits.push_back(std::move((*fits)[c]));
    }
  }
  for (size_t& a : *assignment) a = remap[a];
  *clusters = std::move(kept);
  *fits = std::move(kept_fits);
}

}  // namespace

// Not a point-to-point distance (it projects the centered point onto the
// cluster's subspace basis first), so it cannot dedupe onto the shared
// simd::L2Squared entry point the way cluster/kmeans.cc did.
double ProjectedSquaredDistance(const Vector& point, const Vector& centroid,
                                const Matrix& basis) {
  COHERE_CHECK_EQ(point.size(), centroid.size());
  COHERE_CHECK_EQ(basis.rows(), point.size());
  // One pass over the centered point per block of basis columns, walking
  // the row-major basis row by row. Coordinate c still sums
  // (point_j - centroid_j) * B(j, c) over ascending j from 0.0, and the
  // squares still add in ascending c, so the result is bitwise that of a
  // column-at-a-time loop.
  constexpr size_t kBlock = 32;
  double coords[kBlock];
  const size_t d = point.size();
  const size_t l = basis.cols();
  double sum = 0.0;
  for (size_t begin = 0; begin < l; begin += kBlock) {
    const size_t width = std::min(kBlock, l - begin);
    std::fill_n(coords, width, 0.0);
    for (size_t j = 0; j < d; ++j) {
      const double diff = point[j] - centroid[j];
      const double* row = basis.RowPtr(j) + begin;
      for (size_t c = 0; c < width; ++c) coords[c] += diff * row[c];
    }
    for (size_t c = 0; c < width; ++c) sum += coords[c] * coords[c];
  }
  return sum;
}

double ProjectedSquaredDistance(const Vector& point,
                                const ProjectedCluster& cluster) {
  return ProjectedSquaredDistance(point, cluster.centroid, cluster.basis);
}

size_t NearestProjectedCluster(
    const std::vector<ProjectedCluster>& clusters, const Vector& point) {
  double dist;
  return NearestWithDistance(clusters, point, &dist);
}

Result<ProjectedClusteringResult> RunProjectedClustering(
    const Matrix& data, const ProjectedClusteringOptions& options) {
  const size_t n = data.rows();
  const size_t d = data.cols();
  const size_t k = options.num_clusters;
  const size_t l = options.subspace_dim;
  if (k == 0) return Status::InvalidArgument("num_clusters must be positive");
  if (l == 0 || l > d) {
    return Status::InvalidArgument("subspace_dim must be in [1, d]");
  }
  if (n < k) return Status::InvalidArgument("fewer rows than clusters");

  // ORCLUS-style over-seeding: start with k0 > k localities found by plain
  // k-means, learn their subspaces, then merge down to k by the pair whose
  // union stays tightest in its own least-spread subspace. Over-seeding is
  // what separates populations whose subspaces cross: no single k-means
  // split can, but some of the k0 seeds land inside each population.
  const size_t k0 = std::min(n, std::max(k * 3, k + 2));
  KMeansOptions seed_options;
  seed_options.num_clusters = k0;
  seed_options.max_iterations = 5;
  seed_options.num_restarts = 2;
  seed_options.seed = options.seed;
  Result<KMeansResult> seed = RunKMeans(data, seed_options);
  if (!seed.ok()) return seed.status();

  ProjectedClusteringResult result;
  result.assignment = seed->assignment;
  result.clusters.resize(k0);
  std::vector<ClusterFit> fits(k0);
  for (size_t c = 0; c < k0; ++c) {
    result.clusters[c].centroid = seed->centroids.Row(c);
    result.clusters[c].basis = Matrix(d, l);
    for (size_t i = 0; i < l; ++i) result.clusters[c].basis.At(i, i) = 1.0;
  }
  for (size_t i = 0; i < n; ++i) {
    result.clusters[result.assignment[i]].members.push_back(i);
  }
  RefitAll(data, l, &result.clusters, &fits);

  // Two stabilization passes at the over-seeded granularity.
  for (int pass = 0; pass < 2; ++pass) {
    AssignAll(data, &result.clusters, &result.assignment, &result.energy);
    DropEmpty(&result.clusters, &fits, &result.assignment);
    RefitAll(data, l, &result.clusters, &fits);
  }

  // Merge phase. Every cluster was refitted on its current members, so its
  // fit holds the moments the pair scores are built from.
  Matrix merged(d, d);
  while (result.clusters.size() > k) {
    size_t best_a = 0;
    size_t best_b = 1;
    double best_energy = std::numeric_limits<double>::infinity();
    for (size_t a = 0; a < result.clusters.size(); ++a) {
      for (size_t b = a + 1; b < result.clusters.size(); ++b) {
        const double energy =
            MergedEnergy(result.clusters[a], fits[a], result.clusters[b],
                         fits[b], l, &merged);
        if (energy < best_energy) {
          best_energy = energy;
          best_a = a;
          best_b = b;
        }
      }
    }
    {
      ProjectedCluster& into = result.clusters[best_a];
      ProjectedCluster& from = result.clusters[best_b];
      for (size_t member : from.members) result.assignment[member] = best_a;
      into.members.insert(into.members.end(), from.members.begin(),
                          from.members.end());
      from.members.clear();
    }
    DropEmpty(&result.clusters, &fits, &result.assignment);
    RefitAll(data, l, &result.clusters, &fits);
    // One re-assignment pass after each merge keeps boundaries crisp.
    AssignAll(data, &result.clusters, &result.assignment, &result.energy);
    DropEmpty(&result.clusters, &fits, &result.assignment);
    RefitAll(data, l, &result.clusters, &fits);
  }

  // Final refinement at the target granularity.
  for (int iter = 0; iter < options.max_iterations; ++iter) {
    result.iterations = iter + 1;
    const bool changed =
        AssignAll(data, &result.clusters, &result.assignment, &result.energy);
    // Re-seed any emptied cluster with the globally worst-fitting point, so
    // every cluster that reached this phase survives. Fewer than k can reach
    // it: the passes above drop clusters that no point chose, as on a corpus
    // with fewer than k distinct rows.
    for (size_t c = 0; c < result.clusters.size(); ++c) {
      ProjectedCluster& cluster = result.clusters[c];
      if (!cluster.members.empty()) continue;
      size_t farthest = 0;
      double farthest_dist = -1.0;
      for (size_t i = 0; i < n; ++i) {
        if (result.clusters[result.assignment[i]].members.size() <= 1) {
          continue;
        }
        const double dist = ProjectedSquaredDistance(
            data.Row(i), result.clusters[result.assignment[i]]);
        if (dist > farthest_dist) {
          farthest_dist = dist;
          farthest = i;
        }
      }
      std::vector<size_t>& old_members =
          result.clusters[result.assignment[farthest]].members;
      old_members.erase(
          std::find(old_members.begin(), old_members.end(), farthest));
      result.assignment[farthest] = c;
      cluster.members.assign(1, farthest);
      cluster.centroid = data.Row(farthest);
      fits[c].current = false;  // refit even if it last held just `farthest`
    }
    RefitAll(data, l, &result.clusters, &fits);
    if (!changed) break;
  }
  return result;
}

}  // namespace cohere
