#include "index/knn.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>

#include "common/check.h"
#include "common/parallel.h"
#include "common/stopwatch.h"
#include "obs/metrics.h"
#include "obs/query_metrics.h"
#include "obs/tracing.h"

namespace cohere {
namespace {

// Max-heap ordering: the worst (largest distance, then largest index)
// candidate sits at the root so it can be evicted first.
bool HeapLess(const Neighbor& a, const Neighbor& b) {
  if (a.distance != b.distance) return a.distance < b.distance;
  return a.index < b.index;
}

// Queries per work chunk in QueryBatch. Each query is already a coarse unit
// of work (a full index traversal), so small chunks keep the pool's lanes
// busy even for modest batches.
constexpr size_t kBatchGrain = 4;

}  // namespace

void KnnCollector::Offer(size_t index, double distance) {
  if (heap_.size() < k_) {
    heap_.push_back({index, distance});
    std::push_heap(heap_.begin(), heap_.end(), HeapLess);
    return;
  }
  if (k_ == 0) return;
  const Neighbor& worst = heap_.front();
  if (distance > worst.distance ||
      (distance == worst.distance && index > worst.index)) {
    return;
  }
  std::pop_heap(heap_.begin(), heap_.end(), HeapLess);
  heap_.back() = {index, distance};
  std::push_heap(heap_.begin(), heap_.end(), HeapLess);
}

double KnnCollector::Threshold() const {
  // k = 0 is trivially full with nothing collectable: report the strongest
  // possible pruning bound instead of reading the front of an empty heap.
  if (k_ == 0) return -std::numeric_limits<double>::infinity();
  if (heap_.size() < k_) return std::numeric_limits<double>::infinity();
  return heap_.front().distance;
}

std::vector<Neighbor> KnnCollector::Take() {
  std::vector<Neighbor> out = std::move(heap_);
  heap_.clear();
  std::sort(out.begin(), out.end(), HeapLess);
  return out;
}

const obs::QueryPathMetrics& KnnIndex::Instrument() const {
  const obs::QueryPathMetrics* bundle =
      instrument_.load(std::memory_order_acquire);
  if (bundle == nullptr) {
    bundle = &obs::QueryPathMetricsFor("index." + name());
    instrument_.store(bundle, std::memory_order_release);
  }
  return *bundle;
}

const char* KnnIndex::TraceName() const {
  const char* cached = trace_name_.load(std::memory_order_acquire);
  if (cached == nullptr) {
    cached = obs::Tracer::InternName("index." + name() + ".query");
    trace_name_.store(cached, std::memory_order_release);
  }
  return cached;
}

long long QueryControl::DeadlineMicros(double deadline_us) {
  // The comparison is written so NaN also lands in the inactive branch.
  if (!(deadline_us > 0.0)) return 0;
  // ~285 years in microseconds: far beyond any real budget, comfortably
  // inside long long, and safe to add to steady_clock::now().
  constexpr double kMaxBudgetUs = 9.0e15;
  if (deadline_us >= kMaxBudgetUs) {
    return static_cast<long long>(kMaxBudgetUs);
  }
  // Round *up*: a (0,1) budget used to truncate to 0us — an already-expired
  // deadline that made every first control check fire.
  return std::max(1LL, static_cast<long long>(std::ceil(deadline_us)));
}

QueryControl QueryControl::FromLimits(const QueryLimits& limits) {
  const long long budget_us = DeadlineMicros(limits.deadline_us);
  const bool has_deadline = budget_us > 0;
  auto deadline = std::chrono::steady_clock::time_point::max();
  if (has_deadline) {
    deadline = std::chrono::steady_clock::now() +
               std::chrono::microseconds(budget_us);
  }
  return QueryControl(limits.cancel, deadline, has_deadline);
}

namespace {

// Deadline expiries are a service-level event worth counting even though
// each one also shows up as a truncated QueryStats. Counter pointers have
// process lifetime, so caching one in a function-local static is safe.
void CountDeadlineExceeded() {
  static obs::Counter* counter =
      obs::MetricsRegistry::Global().GetCounter("queries.deadline_exceeded");
  counter->Increment();
}

}  // namespace

std::vector<Neighbor> KnnIndex::Query(const Vector& query, size_t k,
                                      size_t skip_index,
                                      QueryStats* stats) const {
  return QueryWithControl(query, k, skip_index, stats, nullptr);
}

std::vector<Neighbor> KnnIndex::Query(const Vector& query, size_t k,
                                      size_t skip_index, QueryStats* stats,
                                      const QueryLimits& limits) const {
  if (!limits.active()) {
    return QueryWithControl(query, k, skip_index, stats, nullptr);
  }
  QueryControl control = QueryControl::FromLimits(limits);
  return QueryWithControl(query, k, skip_index, stats, &control);
}

std::vector<Neighbor> KnnIndex::QueryWithControl(const Vector& query,
                                                 size_t k, size_t skip_index,
                                                 QueryStats* stats,
                                                 QueryControl* control) const {
  // Each sink gates itself: the span records only while the tracer is on,
  // and the clock is read only while the registry records latency.
  const bool metrics = obs::MetricsRegistry::Enabled();
  obs::TraceSpan span(TraceName());
  span.AddArg("k", static_cast<double>(k));
  QueryStats local;
  std::optional<Stopwatch> watch;
  if (metrics) watch.emplace();
  std::vector<Neighbor> out = QueryImpl(query, k, skip_index, &local, control);
  if (control != nullptr && control->stopped()) local.truncated = true;
  if (metrics) {
    Instrument().Record(local.distance_evaluations, local.nodes_visited,
                        local.candidates_refined, watch->ElapsedMicros(),
                        local.truncated);
    if (control != nullptr && control->deadline_exceeded()) {
      CountDeadlineExceeded();
    }
  }
  span.AddArg("distance_evaluations",
              static_cast<double>(local.distance_evaluations));
  if (local.truncated) span.AddArg("truncated", 1.0);
  if (stats != nullptr) stats->MergeFrom(local);
  return out;
}

std::vector<std::vector<Neighbor>> KnnIndex::QueryBatch(
    const Matrix& queries, size_t k, QueryStats* stats,
    const QueryLimits& limits) const {
  const size_t n = queries.rows();
  std::vector<std::vector<Neighbor>> out(n);
  if (n == 0) return out;
  COHERE_CHECK_EQ(queries.cols(), dims());

  // One absolute deadline for the whole batch: every row copies this
  // control (same expiry, fresh countdown), so rows started after expiry
  // stop at their first control check and batch latency is bounded by the
  // budget plus one check interval per pool lane. Inactive limits run each
  // row with a null control, the exact unlimited path.
  const QueryControl batch_control = QueryControl::FromLimits(limits);
  const bool limited = limits.active();
  const size_t chunks = ParallelChunkCount(n, kBatchGrain);
  std::vector<QueryStats> partial(stats != nullptr ? chunks : 0);
  ParallelForIndexed(0, n, kBatchGrain,
                     [&](size_t chunk, size_t begin, size_t end) {
    QueryStats* local = stats != nullptr ? &partial[chunk] : nullptr;
    Vector query(queries.cols());
    for (size_t i = begin; i < end; ++i) {
      const double* src = queries.RowPtr(i);
      std::copy(src, src + queries.cols(), query.data());
      QueryControl control = batch_control;
      out[i] = QueryWithControl(query, k, kNoSkip, local,
                                limited ? &control : nullptr);
    }
  });
  if (stats != nullptr) {
    for (const QueryStats& p : partial) stats->MergeFrom(p);
  }
  return out;
}

}  // namespace cohere
