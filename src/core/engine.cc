#include "core/engine.h"

#include "common/logging.h"
#include "common/parallel.h"
#include "common/stopwatch.h"
#include "obs/tracing.h"
#include "index/kd_tree.h"
#include "index/linear_scan.h"
#include "index/va_file.h"
#include "index/rstar_tree.h"
#include "index/vp_tree.h"

namespace cohere {

const char* IndexBackendName(IndexBackend backend) {
  switch (backend) {
    case IndexBackend::kLinearScan:
      return "linear_scan";
    case IndexBackend::kKdTree:
      return "kd_tree";
    case IndexBackend::kVaFile:
      return "va_file";
    case IndexBackend::kVpTree:
      return "vp_tree";
    case IndexBackend::kRStarTree:
      return "rstar_tree";
  }
  return "unknown";
}

Result<ReducedSearchEngine> ReducedSearchEngine::Build(
    const Dataset& dataset, const EngineOptions& options) {
  if (dataset.NumRecords() == 0) {
    return Status::InvalidArgument("cannot build an engine on an empty dataset");
  }

  obs::TraceSpan trace("engine.build");
  Stopwatch build_watch;

  ReducedSearchEngine engine;
  engine.options_ = options;
  if (options.trace_slow_query_us > 0.0) {
    obs::Tracer::Global().EnableSlowQueryCapture(options.trace_slow_query_us);
  }
  if (options.num_threads != 0) {
    const size_t before = ParallelThreadCount();
    SetParallelThreadCount(options.num_threads);
    const size_t after = ParallelThreadCount();
    if (after != before) {
      // "Most recently built engine wins" is easy to trip over (a stray
      // num_threads=1 build silently serializes the whole process); make the
      // reconfiguration observable.
      COHERE_LOG(Info) << "ReducedSearchEngine::Build resized the shared "
                          "thread pool from " << before << " to " << after
                       << " threads (EngineOptions::num_threads)";
    }
  }
  if (obs::MetricsRegistry::Enabled()) {
    obs::MetricsRegistry::Global().GetGauge("parallel.threads")->Set(
        static_cast<double>(ParallelThreadCount()));
  }

  Result<ReductionPipeline> pipeline =
      ReductionPipeline::Fit(dataset, options.reduction);
  if (!pipeline.ok()) return pipeline.status();

  std::shared_ptr<const Metric> metric =
      MakeMetric(options.metric, options.metric_p, options.fast_math);
  // One blocked copy of the reduced rows, owned by the shard and shared with
  // whichever backend is built over it.
  std::shared_ptr<const BlockedMatrix> rows = [&] {
    obs::TraceSpan project("engine.project_dataset");
    return std::make_shared<const BlockedMatrix>(
        pipeline->model().ProjectRows(dataset.features(),
                                      pipeline->components()));
  }();

  // Covers the backend construction (and the trailing publish, which is
  // negligible against any real index build).
  obs::TraceSpan index_build("engine.index_build");
  std::unique_ptr<KnnIndex> index;
  switch (options.backend) {
    case IndexBackend::kLinearScan:
      index = std::make_unique<LinearScanIndex>(rows, metric.get());
      break;
    case IndexBackend::kKdTree:
      if (!metric->IsTrueMetric()) {
        return Status::InvalidArgument(
            "kd_tree backend requires a true metric; use linear_scan");
      }
      index = std::make_unique<KdTreeIndex>(rows, metric.get(),
                                            options.kd_leaf_size);
      break;
    case IndexBackend::kVaFile: {
      const MetricKind kind = metric->kind();
      if (kind != MetricKind::kEuclidean && kind != MetricKind::kManhattan &&
          kind != MetricKind::kChebyshev) {
        return Status::InvalidArgument(
            "va_file backend requires an L1/L2/Linf metric");
      }
      index = std::make_unique<VaFileIndex>(rows, metric.get(),
                                            options.va_bits_per_dim);
      break;
    }
    case IndexBackend::kVpTree:
      if (!metric->IsTrueMetric()) {
        return Status::InvalidArgument(
            "vp_tree backend requires a true metric; use linear_scan");
      }
      index = std::make_unique<VpTreeIndex>(rows, metric.get(),
                                            options.vp_leaf_size);
      break;
    case IndexBackend::kRStarTree: {
      const MetricKind kind = metric->kind();
      if (kind != MetricKind::kEuclidean && kind != MetricKind::kManhattan &&
          kind != MetricKind::kChebyshev) {
        return Status::InvalidArgument(
            "rstar_tree backend requires an L1/L2/Linf metric");
      }
      index = std::make_unique<RStarTreeIndex>(rows, metric.get(),
                                               options.rstar_max_entries);
      break;
    }
  }

  auto snapshot = std::make_shared<EngineSnapshot>();
  snapshot->metric = std::move(metric);
  SnapshotShard shard;
  shard.pipeline = std::move(*pipeline);
  shard.rows = std::move(rows);
  shard.index = std::move(index);
  snapshot->shards.push_back(std::move(shard));
  if (dataset.HasLabels()) snapshot->labels = dataset.labels();

  ServingCoreOptions serving_options;
  static_cast<ServingOptions&>(serving_options) = options;
  serving_options.scope = "engine";
  engine.serving_ = std::make_unique<ServingCore>(serving_options);
  // The initial publish of a handle never fails (the fault point only
  // covers replacement publishes).
  COHERE_CHECK(engine.serving_->Publish(std::move(snapshot)).ok());
  engine.snapshot_ = engine.serving_->snapshot();

  if (obs::MetricsRegistry::Enabled()) {
    obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
    registry.GetCounter("engine.builds")->Increment();
    registry.GetHistogram("engine.build_latency_us")
        ->Record(build_watch.ElapsedMicros());
  }
  return engine;
}

std::vector<Neighbor> ReducedSearchEngine::Query(
    const Vector& original_space_query, size_t k, size_t skip_index,
    QueryStats* stats) const {
  return serving_->Query(original_space_query, k, skip_index, stats);
}

std::vector<Neighbor> ReducedSearchEngine::Query(
    const Vector& original_space_query, size_t k, size_t skip_index,
    QueryStats* stats, const QueryLimits& limits) const {
  return serving_->Query(original_space_query, k, skip_index, stats, limits);
}

std::vector<std::vector<Neighbor>> ReducedSearchEngine::QueryBatch(
    const Matrix& original_space_queries, size_t k, QueryStats* stats) const {
  return serving_->QueryBatch(original_space_queries, k, stats);
}

std::vector<std::vector<Neighbor>> ReducedSearchEngine::QueryBatch(
    const Matrix& original_space_queries, size_t k, QueryStats* stats,
    const QueryLimits& limits) const {
  return serving_->QueryBatch(original_space_queries, k, stats, limits);
}

std::string ReducedSearchEngine::Describe() const {
  std::string out = "ReducedSearchEngine\n";
  out += "  reduction: " + pipeline().Describe() + "\n";
  out += "  backend:   " + std::string(IndexBackendName(options_.backend)) +
         " (" + snapshot_->metric->name() + ")\n";
  return out;
}

}  // namespace cohere
