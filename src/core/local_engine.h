#ifndef COHERE_CORE_LOCAL_ENGINE_H_
#define COHERE_CORE_LOCAL_ENGINE_H_

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/serving.h"
#include "core/snapshot.h"
#include "data/dataset.h"
#include "index/knn.h"
#include "index/metric.h"
#include "reduction/pipeline.h"

namespace cohere {

/// Options for LocalReducedSearchEngine::Build (the serving fields are
/// inherited from ServingOptions; cache keys include probe_clusters).
struct LocalEngineOptions : ServingOptions {
  /// Number of data localities.
  size_t num_clusters = 4;
  /// Subspace dimensionality used by the projected clustering.
  size_t cluster_subspace_dim = 6;
  /// When false, partition with plain full-space k-means instead of
  /// projected clustering (ablation knob).
  bool use_projected_clustering = true;
  /// Per-cluster reduction configuration.
  ReductionOptions reduction;
  /// How many nearest clusters to probe per query (>= 1). With more than
  /// one probe, the probed localities act as candidate generators and the
  /// merged candidates are re-ranked by the metric in the shared
  /// (studentized) full space, since cluster-local distances are not
  /// comparable across concept spaces.
  size_t probe_clusters = 1;
  MetricKind metric = MetricKind::kEuclidean;
  double metric_p = 0.5;
  uint64_t seed = 1;
};

/// The Section 3.1 extension the paper sketches: when the *global* implicit
/// dimensionality is too high for one axis system, decompose the data into
/// localities of low implicit dimensionality (generalized projected
/// clustering, ORCLUS-style) and run the coherence reduction machinery per
/// locality. Queries are routed to their locality and answered in its
/// concept space; multi-probe queries scatter across the probed localities
/// on the shared thread pool and gather with a full-space re-rank.
///
/// Concurrency: the per-locality pipelines and indexes live inside one
/// RCU-published snapshot (see core/snapshot.h), so queries are lock-free
/// readers and may run concurrently with Rebuild().
///
/// Memory: Build() and Rebuild() end by returning the heap pages their
/// temporaries freed to the OS (malloc_trim, on glibc), so the resident set
/// after a build does not depend on how earlier builds fragmented the heap.
class LocalReducedSearchEngine {
 public:
  LocalReducedSearchEngine(LocalReducedSearchEngine&&) = default;
  LocalReducedSearchEngine& operator=(LocalReducedSearchEngine&&) = default;
  LocalReducedSearchEngine(const LocalReducedSearchEngine&) = delete;
  LocalReducedSearchEngine& operator=(const LocalReducedSearchEngine&) =
      delete;

  static Result<LocalReducedSearchEngine> Build(
      const Dataset& dataset, const LocalEngineOptions& options);

  /// Re-clusters and refits on `dataset` under the engine's options and
  /// atomically publishes the replacement snapshot. Queries in flight keep
  /// the old snapshot alive until they finish; on failure (fit error or
  /// injected publish fault) the old snapshot keeps serving unchanged.
  /// Neighbor indices refer to rows of the *new* dataset after a successful
  /// rebuild. Callers mutate from one thread at a time.
  Status Rebuild(const Dataset& dataset);

  /// k nearest records to a query in the original attribute space. Neighbor
  /// indices refer to rows of the dataset the engine was built on. With one
  /// probe, distances are measured in the locality's concept space; with
  /// several probes the localities generate candidates and the final
  /// ranking (and reported distances) use the metric in the shared
  /// studentized full space. Honors LocalEngineOptions::query_deadline_us.
  std::vector<Neighbor> Query(const Vector& original_space_query, size_t k,
                              size_t skip_index = KnnIndex::kNoSkip,
                              QueryStats* stats = nullptr) const;

  /// Query under explicit limits: every probe shares one absolute deadline;
  /// when it passes the probes stop at their next control check and the
  /// best candidates so far come back with `stats->truncated` set.
  std::vector<Neighbor> Query(const Vector& original_space_query, size_t k,
                              size_t skip_index, QueryStats* stats,
                              const QueryLimits& limits) const;

  /// Batched form of Query: one original-space query per row, fanned across
  /// the shared thread pool; entry i equals Query(queries.Row(i), k)
  /// exactly. The default deadline applies batch-wide.
  std::vector<std::vector<Neighbor>> QueryBatch(
      const Matrix& original_space_queries, size_t k,
      QueryStats* stats = nullptr) const;

  /// QueryBatch under explicit per-call limits (batch-wide deadline).
  std::vector<std::vector<Neighbor>> QueryBatch(
      const Matrix& original_space_queries, size_t k, QueryStats* stats,
      const QueryLimits& limits) const;

  /// Localities actually built. With projected clustering this can be
  /// fewer than `num_clusters` (see RunProjectedClustering), e.g. on a corpus
  /// with fewer distinct rows than clusters.
  size_t NumClusters() const { return serving_->snapshot()->shards.size(); }
  /// Member rows (global ids) of cluster `c`. The reference is valid until
  /// the next Rebuild() publish.
  const std::vector<size_t>& ClusterMembers(size_t c) const;
  /// The fitted reduction of cluster `c` (same lifetime note).
  const ReductionPipeline& ClusterPipeline(size_t c) const;
  /// Cluster assignment per original row (same lifetime note).
  const std::vector<size_t>& assignment() const {
    return serving_->snapshot()->assignment;
  }

  /// Version of the serving snapshot (1 after Build, +1 per successful
  /// Rebuild publish).
  uint64_t SnapshotVersion() const { return serving_->version(); }

  /// The serving substrate (snapshot handle, metrics, query plumbing).
  const ServingCore& serving() const { return *serving_; }

  std::string Describe() const;

 private:
  LocalReducedSearchEngine() = default;

  /// Clusters, fits, and indexes `dataset` into a publishable snapshot.
  static Result<std::shared_ptr<EngineSnapshot>> BuildSnapshot(
      const Dataset& dataset, const LocalEngineOptions& options,
      std::shared_ptr<const Metric> metric);

  LocalEngineOptions options_;
  std::unique_ptr<ServingCore> serving_;
};

}  // namespace cohere

#endif  // COHERE_CORE_LOCAL_ENGINE_H_
