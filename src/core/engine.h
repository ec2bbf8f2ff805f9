#ifndef COHERE_CORE_ENGINE_H_
#define COHERE_CORE_ENGINE_H_

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

/// Which k-NN engine serves queries in the reduced space.
enum class IndexBackend {
  kLinearScan,
  kKdTree,
  kVaFile,
  kVpTree,
  kRStarTree,
};

const char* IndexBackendName(IndexBackend backend);

/// Options for ReducedSearchEngine::Build (the serving fields are
/// inherited from ServingOptions).
struct EngineOptions : ServingOptions {
  ReductionOptions reduction;
  IndexBackend backend = IndexBackend::kKdTree;
  MetricKind metric = MetricKind::kEuclidean;
  /// p for the fractional metric (ignored otherwise).
  double metric_p = 0.5;
  /// Opt-in fast-math distance kernels for single-row Metric::Distance /
  /// ComparableDistance calls (tree traversals, routing): wider striped
  /// accumulators and FMA where the CPU has them. Faster, but sums in a
  /// different order than the scalar reference, so results are no longer
  /// bit-identical to the default mode (they differ by normal floating-point
  /// reassociation error). Block scans are unaffected — they are bitwise
  /// exact at every dispatch level. Off by default; ignored by the
  /// fractional metric (std::pow dominates). See DESIGN.md §13.
  bool fast_math = false;
  size_t kd_leaf_size = 16;
  size_t va_bits_per_dim = 5;
  size_t vp_leaf_size = 8;
  size_t rstar_max_entries = 16;
  /// Threads for the shared parallel-execution layer (see common/parallel.h):
  /// fitting kernels and QueryBatch fan-out. 0 keeps the current pool
  /// configuration (COHERE_THREADS env var, else hardware concurrency); a
  /// nonzero value reconfigures the process-wide pool at Build time, so the
  /// most recently built engine's setting wins. 1 forces fully serial,
  /// deterministic execution.
  size_t num_threads = 0;
  /// Slow-query tracing threshold in microseconds: root query spans at
  /// least this slow are always captured into the tracer's slow-query log,
  /// regardless of sampling (see obs/tracing.h). 0 keeps the current tracer
  /// configuration (the `COHERE_TRACE_SLOW_US` environment variable, else
  /// disabled); like num_threads, the most recently built engine wins.
  double trace_slow_query_us = 0.0;
};

/// The library's top-level facade: fits a coherence-driven dimensionality
/// reduction on a dataset, builds a similarity index in the reduced space,
/// and answers k-NN queries posed in the *original* attribute space.
///
/// This is the end-to-end object the paper argues for — aggressive,
/// noise-aware reduction making high-dimensional similarity search both
/// meaningful (coherent neighbors) and practical (indexable).
class ReducedSearchEngine {
 public:
  ReducedSearchEngine(ReducedSearchEngine&&) = default;
  ReducedSearchEngine& operator=(ReducedSearchEngine&&) = default;
  ReducedSearchEngine(const ReducedSearchEngine&) = delete;
  ReducedSearchEngine& operator=(const ReducedSearchEngine&) = delete;

  /// Fits the reduction on `dataset` and indexes its reduced records.
  static Result<ReducedSearchEngine> Build(const Dataset& dataset,
                                           const EngineOptions& options);

  /// k nearest indexed records to a query given in the original attribute
  /// space. `skip_index`/`stats` as in KnnIndex::Query. Honors
  /// EngineOptions::query_deadline_us (the deadline covers the index
  /// traversal; the projection is a fixed small cost).
  std::vector<Neighbor> Query(const Vector& original_space_query, size_t k,
                              size_t skip_index = KnnIndex::kNoSkip,
                              QueryStats* stats = nullptr) const;

  /// Query under explicit per-call limits (overriding the engine default).
  /// See KnnIndex::Query for deadline/cancellation semantics.
  std::vector<Neighbor> Query(const Vector& original_space_query, size_t k,
                              size_t skip_index, QueryStats* stats,
                              const QueryLimits& limits) const;

  /// Batched form of Query: one original-space query per row. Rows are
  /// reduced and answered across the shared thread pool; entry i equals
  /// Query(queries.Row(i), k) exactly, and per-thread QueryStats are merged
  /// into `stats`. Honors EngineOptions::query_deadline_us as a batch-wide
  /// budget.
  std::vector<std::vector<Neighbor>> QueryBatch(
      const Matrix& original_space_queries, size_t k,
      QueryStats* stats = nullptr) const;

  /// QueryBatch under explicit per-call limits (overriding the engine
  /// default). The deadline is batch-wide; see KnnIndex::QueryBatch.
  std::vector<std::vector<Neighbor>> QueryBatch(
      const Matrix& original_space_queries, size_t k, QueryStats* stats,
      const QueryLimits& limits) const;

  const ReductionPipeline& pipeline() const {
    return snapshot_->shards[0].pipeline;
  }
  const KnnIndex& index() const { return *snapshot_->shards[0].index; }
  const EngineOptions& options() const { return options_; }
  size_t ReducedDims() const { return pipeline().ReducedDims(); }

  /// The serving substrate (snapshot handle, metrics, query plumbing).
  const ServingCore& serving() const { return *serving_; }

  /// Multi-line human-readable configuration summary.
  std::string Describe() const;

 private:
  ReducedSearchEngine() = default;

  EngineOptions options_;
  // All query-path plumbing (deadlines, batching, metrics, tracing) lives
  // in the shared serving core; this facade only assembles the snapshot.
  std::unique_ptr<ServingCore> serving_;
  // The engine is static — its one snapshot is never replaced — so pinning
  // it here keeps the pipeline()/index() references valid for the engine's
  // lifetime.
  std::shared_ptr<const EngineSnapshot> snapshot_;
};

}  // namespace cohere

#endif  // COHERE_CORE_ENGINE_H_
