#include "core/local_engine.h"

#include <algorithm>
#include <cstdio>
#include <utility>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "cluster/kmeans.h"
#include "cluster/projected.h"
#include "common/stopwatch.h"
#include "data/transforms.h"
#include "index/linear_scan.h"
#include "obs/metrics.h"
#include "obs/tracing.h"

namespace cohere {

Result<std::shared_ptr<EngineSnapshot>>
LocalReducedSearchEngine::BuildSnapshot(const Dataset& dataset,
                                        const LocalEngineOptions& options,
                                        std::shared_ptr<const Metric> metric) {
  if (dataset.NumRecords() == 0) {
    return Status::InvalidArgument("cannot build on an empty dataset");
  }
  if (options.num_clusters == 0) {
    return Status::InvalidArgument("num_clusters must be positive");
  }
  if (options.probe_clusters == 0) {
    return Status::InvalidArgument("probe_clusters must be positive");
  }
  if (dataset.NumRecords() < options.num_clusters) {
    return Status::InvalidArgument("fewer records than clusters");
  }

  auto snapshot = std::make_shared<EngineSnapshot>();
  snapshot->metric = std::move(metric);
  if (dataset.HasLabels()) snapshot->labels = dataset.labels();

  // Cluster in the globally studentized space so heterogeneous attribute
  // scales do not dominate the partitioning (Section 2.2 all over again).
  snapshot->has_studentizer = true;
  snapshot->studentizer = ColumnAffineTransform::FitZScore(dataset.features());
  snapshot->studentized_records =
      snapshot->studentizer.ApplyToRows(dataset.features());
  const Matrix& studentized = snapshot->studentized_records;

  std::vector<std::vector<size_t>> member_lists;
  std::vector<Vector> centroids;
  std::vector<Matrix> bases;
  if (options.use_projected_clustering) {
    ProjectedClusteringOptions cluster_options;
    cluster_options.num_clusters = options.num_clusters;
    cluster_options.subspace_dim = std::min(options.cluster_subspace_dim,
                                            dataset.NumAttributes());
    cluster_options.seed = options.seed;
    Result<ProjectedClusteringResult> clustering =
        RunProjectedClustering(studentized, cluster_options);
    if (!clustering.ok()) return clustering.status();
    snapshot->assignment = clustering->assignment;
    for (ProjectedCluster& cluster : clustering->clusters) {
      member_lists.push_back(std::move(cluster.members));
      centroids.push_back(std::move(cluster.centroid));
      bases.push_back(std::move(cluster.basis));
    }
  } else {
    KMeansOptions cluster_options;
    cluster_options.num_clusters = options.num_clusters;
    cluster_options.seed = options.seed;
    Result<KMeansResult> clustering = RunKMeans(studentized, cluster_options);
    if (!clustering.ok()) return clustering.status();
    snapshot->assignment = clustering->assignment;
    member_lists.resize(options.num_clusters);
    for (size_t i = 0; i < snapshot->assignment.size(); ++i) {
      member_lists[snapshot->assignment[i]].push_back(i);
    }
    for (size_t c = 0; c < options.num_clusters; ++c) {
      centroids.push_back(clustering->centroids.Row(c));
      bases.emplace_back();  // empty: route by full-space distance
    }
  }

  // Fit a coherence reduction and build an index per locality. Small or
  // degenerate localities fall back to keeping all their dimensions.
  for (size_t c = 0; c < member_lists.size(); ++c) {
    SnapshotShard shard;
    shard.members = std::move(member_lists[c]);
    shard.centroid = std::move(centroids[c]);
    shard.cluster_basis = std::move(bases[c]);

    Dataset member_data = dataset.SelectRecords(shard.members);
    ReductionOptions reduction = options.reduction;
    if (reduction.target_dim > member_data.NumAttributes()) {
      reduction.target_dim = member_data.NumAttributes();
    }
    Result<ReductionPipeline> pipeline =
        ReductionPipeline::Fit(member_data, reduction);
    if (!pipeline.ok()) return pipeline.status();
    shard.pipeline = std::move(*pipeline);

    Matrix reduced = shard.pipeline.TransformDataset(member_data).features();
    shard.rows = std::make_shared<const BlockedMatrix>(reduced);
    shard.index =
        std::make_unique<LinearScanIndex>(shard.rows, snapshot->metric.get());
    snapshot->shards.push_back(std::move(shard));
  }
  // The build has freed every locality's member-row copy and fit working
  // matrices. glibc keeps freed heap pages resident, so a process that
  // rebuilds would hold the heap's high-water mark, grown by however its
  // earlier allocations happened to fragment it. Return the free pages so
  // what stays resident after a build is the snapshot and the caller's data.
#if defined(__GLIBC__)
  malloc_trim(0);
#endif
  return snapshot;
}

Result<LocalReducedSearchEngine> LocalReducedSearchEngine::Build(
    const Dataset& dataset, const LocalEngineOptions& options) {
  obs::TraceSpan trace("local_engine.build");
  Stopwatch build_watch;

  LocalReducedSearchEngine engine;
  engine.options_ = options;
  Result<std::shared_ptr<EngineSnapshot>> snapshot = BuildSnapshot(
      dataset, options, MakeMetric(options.metric, options.metric_p));
  if (!snapshot.ok()) return snapshot.status();

  ServingCoreOptions serving_options;
  static_cast<ServingOptions&>(serving_options) = options;
  serving_options.scope = "local_engine";
  serving_options.probe_shards = options.probe_clusters;
  serving_options.rerank_multi_probe = true;
  engine.serving_ = std::make_unique<ServingCore>(serving_options);
  COHERE_CHECK(engine.serving_->Publish(std::move(*snapshot)).ok());

  if (obs::MetricsRegistry::Enabled()) {
    obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
    registry.GetCounter("local_engine.builds")->Increment();
    registry.GetHistogram("local_engine.build_latency_us")
        ->Record(build_watch.ElapsedMicros());
  }
  return engine;
}

Status LocalReducedSearchEngine::Rebuild(const Dataset& dataset) {
  obs::TraceSpan trace("local_engine.build");
  Stopwatch build_watch;
  const std::shared_ptr<const EngineSnapshot> current = serving_->snapshot();
  Result<std::shared_ptr<EngineSnapshot>> snapshot =
      BuildSnapshot(dataset, options_, current->metric);
  if (!snapshot.ok()) return snapshot.status();
  Status published = serving_->Publish(std::move(*snapshot));
  if (!published.ok()) return published;
  if (obs::MetricsRegistry::Enabled()) {
    obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
    registry.GetCounter("local_engine.builds")->Increment();
    registry.GetHistogram("local_engine.build_latency_us")
        ->Record(build_watch.ElapsedMicros());
  }
  return Status::Ok();
}

std::vector<Neighbor> LocalReducedSearchEngine::Query(
    const Vector& original_space_query, size_t k, size_t skip_index,
    QueryStats* stats) const {
  return serving_->Query(original_space_query, k, skip_index, stats);
}

std::vector<Neighbor> LocalReducedSearchEngine::Query(
    const Vector& original_space_query, size_t k, size_t skip_index,
    QueryStats* stats, const QueryLimits& limits) const {
  return serving_->Query(original_space_query, k, skip_index, stats, limits);
}

std::vector<std::vector<Neighbor>> LocalReducedSearchEngine::QueryBatch(
    const Matrix& original_space_queries, size_t k, QueryStats* stats) const {
  return serving_->QueryBatch(original_space_queries, k, stats);
}

std::vector<std::vector<Neighbor>> LocalReducedSearchEngine::QueryBatch(
    const Matrix& original_space_queries, size_t k, QueryStats* stats,
    const QueryLimits& limits) const {
  return serving_->QueryBatch(original_space_queries, k, stats, limits);
}

const std::vector<size_t>& LocalReducedSearchEngine::ClusterMembers(
    size_t c) const {
  const std::shared_ptr<const EngineSnapshot> snapshot = serving_->snapshot();
  COHERE_CHECK_LT(c, snapshot->shards.size());
  return snapshot->shards[c].members;
}

const ReductionPipeline& LocalReducedSearchEngine::ClusterPipeline(
    size_t c) const {
  const std::shared_ptr<const EngineSnapshot> snapshot = serving_->snapshot();
  COHERE_CHECK_LT(c, snapshot->shards.size());
  return snapshot->shards[c].pipeline;
}

std::string LocalReducedSearchEngine::Describe() const {
  const std::shared_ptr<const EngineSnapshot> snapshot = serving_->snapshot();
  std::string out = "LocalReducedSearchEngine (" +
                    std::string(options_.use_projected_clustering
                                    ? "projected clustering"
                                    : "k-means") +
                    ", " + std::to_string(snapshot->shards.size()) +
                    " localities)\n";
  char buf[160];
  for (size_t c = 0; c < snapshot->shards.size(); ++c) {
    std::snprintf(buf, sizeof(buf), "  locality %zu: %zu records, %s\n", c,
                  snapshot->shards[c].members.size(),
                  snapshot->shards[c].pipeline.Describe().c_str());
    out += buf;
  }
  return out;
}

}  // namespace cohere
