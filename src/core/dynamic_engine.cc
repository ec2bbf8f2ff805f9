#include "core/dynamic_engine.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <thread>

#include "common/fault.h"
#include "common/logging.h"
#include "common/stopwatch.h"
#include "index/linear_scan.h"
#include "obs/tracing.h"

namespace cohere {

Result<DynamicReducedIndex> DynamicReducedIndex::Build(
    const Dataset& dataset, const DynamicEngineOptions& options) {
  if (dataset.NumRecords() == 0) {
    return Status::InvalidArgument("cannot build on an empty dataset");
  }
  if (options.drift_threshold < 1.0) {
    return Status::InvalidArgument("drift_threshold must be >= 1");
  }
  if (options.drift_window == 0) {
    return Status::InvalidArgument("drift_window must be positive");
  }

  obs::TraceSpan trace("dynamic_index.build");

  DynamicReducedIndex index;
  index.options_ = options;
  index.dims_ = dataset.NumAttributes();
  index.writer_ = std::make_unique<WriterState>(options.insert_retry);

  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  index.inserts_ = registry.GetCounter("dynamic_index.inserts");
  index.refits_ = registry.GetCounter("dynamic_index.refits");
  index.refit_failures_ = registry.GetCounter("dynamic_index.refit_failures");
  index.drift_gauge_ = registry.GetGauge("dynamic_index.drift_ratio");
  index.insert_backoff_gauge_ =
      registry.GetGauge("dynamic_index.insert_backoff");

  Result<ReductionPipeline> pipeline =
      ReductionPipeline::Fit(dataset, options.reduction);
  if (!pipeline.ok()) return pipeline.status();

  const size_t n = dataset.NumRecords();
  Matrix reduced(n, pipeline->ReducedDims());
  double error_sum = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const ProjectedRecord projected = Project(*pipeline, dataset.Record(i));
    reduced.SetRow(i, projected.reduced);
    error_sum += projected.error_sq;
  }

  auto snapshot = std::make_shared<EngineSnapshot>();
  snapshot->metric = MakeMetric(options.metric, options.metric_p);
  snapshot->originals =
      std::make_shared<const BlockedMatrix>(dataset.features());
  if (dataset.HasLabels()) {
    snapshot->labels = dataset.labels();
  } else {
    snapshot->labels.assign(n, kNoLabel);
  }
  SnapshotShard shard;
  shard.pipeline = std::move(*pipeline);
  shard.rows = std::make_shared<const BlockedMatrix>(reduced);
  shard.index =
      std::make_unique<LinearScanIndex>(shard.rows, snapshot->metric.get());
  snapshot->shards.push_back(std::move(shard));

  index.writer_->fitted_records = n;
  index.writer_->baseline_error = error_sum / static_cast<double>(n);

  ServingCoreOptions serving_options;
  static_cast<ServingOptions&>(serving_options) = options;
  serving_options.scope = "dynamic_index";
  index.serving_ = std::make_unique<ServingCore>(serving_options);
  COHERE_CHECK(index.serving_->Publish(std::move(snapshot)).ok());
  return index;
}

DynamicReducedIndex::ProjectedRecord DynamicReducedIndex::Project(
    const ReductionPipeline& pipeline, const Vector& record) {
  const PcaModel& model = pipeline.model();
  const Vector normalized = model.Normalize(record);
  ProjectedRecord out;
  out.reduced = model.ProjectNormalized(normalized, pipeline.components());
  // Energy identity: |normalized|^2 = |full coords|^2, so the error of
  // keeping only the retained components is |normalized|^2 - |kept|^2.
  const double err = normalized.SquaredNorm2() - out.reduced.SquaredNorm2();
  out.error_sq = std::max(err, 0.0);
  return out;
}

Status DynamicReducedIndex::Insert(const Vector& record, int label) {
  if (record.size() != dims_) {
    return Status::InvalidArgument("record dimensionality mismatch");
  }
  std::lock_guard<std::mutex> lock(writer_->mu);
  const std::shared_ptr<const EngineSnapshot> snapshot = serving_->snapshot();
  const SnapshotShard& shard = snapshot->shards[0];
  const ProjectedRecord projected = Project(shard.pipeline, record);

  // Build the successor snapshot aside and publish it atomically. The
  // originals and the reduced rows grow by one appended row each: the row
  // lands past every published view of the shared allocation, and the
  // rows the current snapshot serves are never written, so in-flight
  // queries finish on the old snapshot undisturbed.
  auto next = std::make_shared<EngineSnapshot>();
  next->metric = snapshot->metric;
  next->labels.reserve(snapshot->labels.size() + 1);
  next->labels.assign(snapshot->labels.begin(), snapshot->labels.end());
  next->labels.push_back(label);
  next->originals = std::make_shared<const BlockedMatrix>(
      snapshot->originals->AppendRow(record));
  SnapshotShard next_shard;
  next_shard.pipeline = shard.pipeline;  // unchanged by inserts
  next_shard.rows = std::make_shared<const BlockedMatrix>(
      shard.rows->AppendRow(projected.reduced));
  next_shard.index =
      std::make_unique<LinearScanIndex>(next_shard.rows, next->metric.get());
  next->shards.push_back(std::move(next_shard));

  // A failed publish (e.g. an injected `core.snapshot.publish` fault) keeps
  // the built successor aside and retries under the RetryPolicy's attempt
  // and token budgets; a persistent fault still surfaces as an error with
  // the old snapshot serving untouched.
  Status published = serving_->Publish(next);
  for (size_t attempt = 1;
       !published.ok() && writer_->insert_retry.AcquireRetry(attempt);
       ++attempt) {
    const auto pause = std::chrono::microseconds(
        static_cast<int64_t>(writer_->insert_retry.BackoffUs(attempt)));
    std::this_thread::sleep_for(pause);
    published = serving_->Publish(next);
  }
  if (!published.ok()) {
    // The old snapshot is still serving and the record was not inserted;
    // leave the drift monitor untouched.
    return published;
  }

  writer_->recent_errors.push_back(projected.error_sq);
  while (writer_->recent_errors.size() > options_.drift_window) {
    writer_->recent_errors.pop_front();
  }
  if (writer_->backoff_remaining_inserts > 0) {
    --writer_->backoff_remaining_inserts;
  }
  if (obs::MetricsRegistry::Enabled()) {
    inserts_->Increment();
    drift_gauge_->Set(DriftRatioLocked());
    insert_backoff_gauge_->Set(
        static_cast<double>(writer_->backoff_remaining_inserts));
  }
  return Status::Ok();
}

std::vector<Neighbor> DynamicReducedIndex::Query(
    const Vector& original_space_query, size_t k, size_t skip_index,
    QueryStats* stats) const {
  COHERE_CHECK_EQ(original_space_query.size(), dims_);
  return serving_->Query(original_space_query, k, skip_index, stats);
}

std::vector<Neighbor> DynamicReducedIndex::Query(
    const Vector& original_space_query, size_t k, size_t skip_index,
    QueryStats* stats, const QueryLimits& limits) const {
  COHERE_CHECK_EQ(original_space_query.size(), dims_);
  return serving_->Query(original_space_query, k, skip_index, stats, limits);
}

std::vector<std::vector<Neighbor>> DynamicReducedIndex::QueryBatch(
    const Matrix& original_space_queries, size_t k, QueryStats* stats) const {
  return serving_->QueryBatch(original_space_queries, k, stats);
}

std::vector<std::vector<Neighbor>> DynamicReducedIndex::QueryBatch(
    const Matrix& original_space_queries, size_t k, QueryStats* stats,
    const QueryLimits& limits) const {
  return serving_->QueryBatch(original_space_queries, k, stats, limits);
}

int DynamicReducedIndex::label(size_t i) const {
  const std::shared_ptr<const EngineSnapshot> snapshot = serving_->snapshot();
  COHERE_CHECK_LT(i, snapshot->labels.size());
  return snapshot->labels[i];
}

double DynamicReducedIndex::BaselineReconstructionError() const {
  std::lock_guard<std::mutex> lock(writer_->mu);
  return writer_->baseline_error;
}

double DynamicReducedIndex::RecentReconstructionErrorLocked() const {
  if (writer_->recent_errors.empty()) return writer_->baseline_error;
  double sum = 0.0;
  for (double e : writer_->recent_errors) sum += e;
  return sum / static_cast<double>(writer_->recent_errors.size());
}

double DynamicReducedIndex::RecentReconstructionError() const {
  std::lock_guard<std::mutex> lock(writer_->mu);
  return RecentReconstructionErrorLocked();
}

double DynamicReducedIndex::DriftRatioLocked() const {
  if (writer_->baseline_error <= 0.0) {
    return RecentReconstructionErrorLocked() > 0.0
               ? options_.drift_threshold + 1.0
               : 1.0;
  }
  return RecentReconstructionErrorLocked() / writer_->baseline_error;
}

double DynamicReducedIndex::DriftRatio() const {
  std::lock_guard<std::mutex> lock(writer_->mu);
  return DriftRatioLocked();
}

bool DynamicReducedIndex::NeedsRefit() const {
  std::lock_guard<std::mutex> lock(writer_->mu);
  if (writer_->backoff_remaining_inserts > 0) return false;
  if (writer_->recent_errors.size() * 4 < options_.drift_window) return false;
  return DriftRatioLocked() > options_.drift_threshold;
}

size_t DynamicReducedIndex::RefitBackoffRemaining() const {
  std::lock_guard<std::mutex> lock(writer_->mu);
  return writer_->backoff_remaining_inserts;
}

Status DynamicReducedIndex::Refit() {
  std::lock_guard<std::mutex> lock(writer_->mu);
  obs::TraceSpan trace("dynamic_index.refit");
  obs::ScopedTimer timer(
      obs::MetricsRegistry::Enabled()
          ? obs::MetricsRegistry::Global().GetHistogram(
                "dynamic_index.refit_latency_us")
          : nullptr);
  const std::shared_ptr<const EngineSnapshot> snapshot = serving_->snapshot();
  const size_t n = snapshot->labels.size();
  Dataset dataset(snapshot->originals->ToMatrix());
  // Labels may be partially kNoLabel; the reduction does not need them.

  auto fail = [&](const Status& status) {
    ++writer_->consecutive_refit_failures;
    // Same ladder as RetryPolicy backoff sequencing: 8, 16, ... capped at
    // 128 inserts between refit recommendations.
    writer_->backoff_remaining_inserts = RetryPolicy::CappedExponentialSteps(
        kRefitBackoffBaseInserts, kRefitBackoffCapInserts,
        writer_->consecutive_refit_failures);
    if (obs::MetricsRegistry::Enabled()) {
      refit_failures_->Increment();
      insert_backoff_gauge_->Set(
          static_cast<double>(writer_->backoff_remaining_inserts));
    }
    COHERE_LOG(Warning) << "DynamicReducedIndex::Refit failed ("
                        << status.ToString()
                        << "); keeping the previous snapshot and backing "
                           "off for " << writer_->backoff_remaining_inserts
                        << " inserts";
    return status;
  };

  // Build the replacement pipeline aside; nothing the index serves from is
  // touched until the whole successor snapshot has been published, so a
  // failed refit (fit error or publish fault) leaves the old snapshot
  // answering queries exactly as before.
  Result<ReductionPipeline> pipeline = [&]() -> Result<ReductionPipeline> {
    if (COHERE_INJECT_FAULT(fault::kPointDynamicRefit)) {
      return Status::NumericalError(
          "injected fault: " + std::string(fault::kPointDynamicRefit));
    }
    return ReductionPipeline::Fit(dataset, options_.reduction);
  }();
  if (!pipeline.ok()) return fail(pipeline.status());

  Matrix reduced(n, pipeline->ReducedDims());
  double error_sum = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const ProjectedRecord projected = Project(*pipeline, dataset.Record(i));
    reduced.SetRow(i, projected.reduced);
    error_sum += projected.error_sq;
  }
  auto next = std::make_shared<EngineSnapshot>();
  next->metric = snapshot->metric;
  next->labels = snapshot->labels;
  next->originals = snapshot->originals;  // shared, not copied
  SnapshotShard next_shard;
  next_shard.pipeline = std::move(*pipeline);
  next_shard.rows = std::make_shared<const BlockedMatrix>(reduced);
  next_shard.index =
      std::make_unique<LinearScanIndex>(next_shard.rows, next->metric.get());
  next->shards.push_back(std::move(next_shard));

  Status published = serving_->Publish(std::move(next));
  if (!published.ok()) return fail(published);

  writer_->fitted_records = n;
  writer_->consecutive_refit_failures = 0;
  writer_->backoff_remaining_inserts = 0;
  writer_->baseline_error = error_sum / static_cast<double>(n);
  writer_->recent_errors.clear();
  if (obs::MetricsRegistry::Enabled()) {
    refits_->Increment();
    insert_backoff_gauge_->Set(0.0);
  }
  return Status::Ok();
}

std::string DynamicReducedIndex::Describe() const {
  const std::shared_ptr<const EngineSnapshot> snapshot = serving_->snapshot();
  size_t fitted;
  {
    std::lock_guard<std::mutex> lock(writer_->mu);
    fitted = writer_->fitted_records;
  }
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "DynamicReducedIndex: n=%zu (fitted on %zu) dims=%zu->%zu "
                "drift=%.2f%s",
                snapshot->labels.size(), fitted, dims_,
                snapshot->shards[0].pipeline.ReducedDims(), DriftRatio(),
                NeedsRefit() ? " REFIT" : "");
  return buf;
}

}  // namespace cohere
