#ifndef COHERE_CORE_DYNAMIC_ENGINE_H_
#define COHERE_CORE_DYNAMIC_ENGINE_H_

#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/serving.h"
#include "core/snapshot.h"
#include "data/dataset.h"
#include "index/knn.h"
#include "index/metric.h"
#include "obs/metrics.h"
#include "reduction/pipeline.h"

namespace cohere {

/// Options for DynamicReducedIndex::Build (the serving fields are
/// inherited from ServingOptions).
struct DynamicEngineOptions : ServingOptions {
  ReductionOptions reduction;
  MetricKind metric = MetricKind::kEuclidean;
  double metric_p = 0.5;
  /// A refit is recommended when the mean reconstruction error of recently
  /// inserted records exceeds this multiple of the baseline error measured
  /// at fit time (>= 1).
  double drift_threshold = 1.5;
  /// Number of most recent insertions in the drift estimate.
  size_t drift_window = 100;
  /// Retry discipline for the insert path's snapshot publish: a publish
  /// that fails (e.g. an injected `core.snapshot.publish` fault) is retried
  /// up to `insert_retry.max_attempts` times with jittered backoff, bounded
  /// by the token-bucket retry budget so a persistent fault cannot amplify
  /// itself. The same policy's capped-exponential ladder drives the refit
  /// backoff gate.
  RetryPolicyOptions insert_retry;
};

/// A reduced similarity index for *dynamic* data sets (the concern of the
/// paper's reference [17], Ravi Kanth et al., SIGMOD 1998): records can be
/// inserted after the reduction was fitted, the index answers queries
/// immediately, and a drift monitor based on reconstruction error flags
/// when the fitted axis system has gone stale so the caller can Refit().
///
/// The monitor's logic: the retained components were chosen for the fit-time
/// distribution; if newly inserted records systematically lose more energy
/// under projection than the fit-time records did, the concepts have moved.
///
/// Concurrency: queries are lock-free readers of an RCU-published snapshot
/// (see core/snapshot.h) and may run from any number of threads concurrently
/// with Insert() and Refit(). Writers build the successor snapshot aside
/// under an internal mutex (serializing Insert/Refit against each other) and
/// publish it atomically; a query that started on the old snapshot keeps it
/// alive and finishes on it.
class DynamicReducedIndex {
 public:
  DynamicReducedIndex(DynamicReducedIndex&&) = default;
  DynamicReducedIndex& operator=(DynamicReducedIndex&&) = default;
  DynamicReducedIndex(const DynamicReducedIndex&) = delete;
  DynamicReducedIndex& operator=(const DynamicReducedIndex&) = delete;

  /// Fits the reduction on `dataset` and indexes its records.
  static Result<DynamicReducedIndex> Build(
      const Dataset& dataset, const DynamicEngineOptions& options);

  /// Inserts a record given in the original attribute space. `label` may be
  /// kNoLabel for unlabeled records. The record is immediately queryable:
  /// the insert appends its original and reduced rows to storage shared
  /// with the current snapshot (amortised O(d + d') row work, plus copies
  /// of the labels and the fitted pipeline) and publishes a successor
  /// snapshot one row longer, so concurrent queries see either the old or
  /// the new state, never a torn one.
  Status Insert(const Vector& record, int label = kNoLabel);

  /// k nearest records (by the reduced-space metric) to an original-space
  /// query. Indices are insertion-ordered: the fit-time records first, then
  /// inserts in arrival order. Honors
  /// DynamicEngineOptions::query_deadline_us.
  std::vector<Neighbor> Query(const Vector& original_space_query, size_t k,
                              size_t skip_index = KnnIndex::kNoSkip,
                              QueryStats* stats = nullptr) const;

  /// Query under explicit limits: when the deadline passes or the token is
  /// cancelled the scan stops at its next control check and returns the
  /// best neighbors so far with `stats->truncated` set (see KnnIndex).
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

  /// Total records currently indexed.
  size_t size() const { return serving_->snapshot()->labels.size(); }
  /// Label of record `i` (kNoLabel when unlabeled).
  int label(size_t i) const;

  /// Mean squared normalized-space reconstruction error of the fit-time
  /// records under the current pipeline.
  double BaselineReconstructionError() const;
  /// Same statistic over the drift window of recent inserts; falls back to
  /// the baseline while the window is empty.
  double RecentReconstructionError() const;
  /// Recent / baseline; 1 means "as fresh as at fit time".
  double DriftRatio() const;
  /// True when DriftRatio() exceeds the configured threshold and the window
  /// holds enough observations (at least a quarter of drift_window) — and
  /// the index is not inside the post-failure retry backoff (see Refit).
  bool NeedsRefit() const;

  /// Refits the reduction on all current records, reprojects everything and
  /// resets the drift monitor.
  ///
  /// Transactional: the replacement pipeline, projection, and index are
  /// built aside and swapped in as one snapshot publish only on success. On
  /// failure (e.g. NumericalError, or an injected publish fault) the index
  /// keeps serving the previous snapshot unchanged, the
  /// `dynamic_index.refit_failures` counter is bumped, and NeedsRefit()
  /// goes quiet for a capped-exponential number of inserts so a poisoned
  /// dataset cannot wedge the insert path in refit retries. An explicit
  /// Refit() call always attempts (the backoff only gates the
  /// recommendation); success resets the backoff.
  Status Refit();

  /// Inserts remaining before NeedsRefit() may recommend again after a
  /// failed refit (0 when not backing off).
  size_t RefitBackoffRemaining() const;

  /// The currently serving pipeline. The reference is valid until the next
  /// Insert()/Refit() publish; callers that mutate concurrently should copy
  /// what they need.
  const ReductionPipeline& pipeline() const {
    return serving_->snapshot()->shards[0].pipeline;
  }

  /// Version of the serving snapshot (1 after Build, +1 per successful
  /// Insert/Refit publish).
  uint64_t SnapshotVersion() const { return serving_->version(); }

  /// The serving substrate (snapshot handle, metrics, query plumbing).
  const ServingCore& serving() const { return *serving_; }

  /// One-line status ("n=520 dims=8 drift=1.82 REFIT").
  std::string Describe() const;

  static constexpr int kNoLabel = -1;

 private:
  DynamicReducedIndex() = default;

  /// An original-space record's reduced coordinates (bitwise equal to
  /// pipeline.TransformPoint) and its squared reconstruction error in the
  /// pipeline's normalized space, from one normalization and one
  /// projection.
  struct ProjectedRecord {
    Vector reduced;
    double error_sq = 0.0;
  };
  static ProjectedRecord Project(const ReductionPipeline& pipeline,
                                 const Vector& record);

  /// Drift-monitor and refit-backoff state, owned by the writer side and
  /// guarded by `mu` (readers of the serving snapshot never touch it).
  /// Boxed so the facade stays movable.
  struct WriterState {
    explicit WriterState(const RetryPolicyOptions& retry_options)
        : insert_retry(retry_options) {}
    std::mutex mu;
    size_t fitted_records = 0;  // records the current fit used
    double baseline_error = 0.0;
    std::deque<double> recent_errors;
    size_t consecutive_refit_failures = 0;
    size_t backoff_remaining_inserts = 0;
    /// Bounded publish-retry for Insert (see
    /// DynamicEngineOptions::insert_retry); used under `mu`.
    RetryPolicy insert_retry;
  };

  double RecentReconstructionErrorLocked() const;
  double DriftRatioLocked() const;

  // Post-failure retry backoff: 8, 16, 32, ... up to 128 inserts between
  // refit recommendations; reset by a successful Refit().
  static constexpr size_t kRefitBackoffBaseInserts = 8;
  static constexpr size_t kRefitBackoffCapInserts = 128;

  DynamicEngineOptions options_;
  size_t dims_ = 0;  // original dimensionality (immutable after Build)
  std::unique_ptr<ServingCore> serving_;
  std::unique_ptr<WriterState> writer_;

  // Registry metrics (process-lifetime pointers), resolved once at Build;
  // the query path reports through the serving core, the mutation path
  // records insert/refit counters plus a drift gauge.
  obs::Counter* inserts_ = nullptr;
  obs::Counter* refits_ = nullptr;
  obs::Counter* refit_failures_ = nullptr;
  obs::Gauge* drift_gauge_ = nullptr;
  // Inserts remaining in the post-refit-failure gate (satellite of the
  // overload work: lets the load generator observe refit pressure).
  obs::Gauge* insert_backoff_gauge_ = nullptr;
};

}  // namespace cohere

#endif  // COHERE_CORE_DYNAMIC_ENGINE_H_
