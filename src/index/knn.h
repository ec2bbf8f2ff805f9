#ifndef COHERE_INDEX_KNN_H_
#define COHERE_INDEX_KNN_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <string>
#include <vector>

#include "index/metric.h"
#include "linalg/matrix.h"
#include "linalg/vector.h"

namespace cohere {
namespace obs {
struct QueryPathMetrics;
}  // namespace obs
}  // namespace cohere

namespace cohere {

class ServingCore;

/// One answer of a k-nearest-neighbor query.
struct Neighbor {
  size_t index = 0;    ///< Row index into the indexed data matrix.
  double distance = 0; ///< True (not comparable-form) distance.

  friend bool operator==(const Neighbor&, const Neighbor&) = default;
};

/// Work counters for one query; the indexing experiments in the paper's
/// motivation are about exactly these numbers (how much of the data an
/// index must touch in high dimensionality).
struct QueryStats {
  size_t distance_evaluations = 0;  ///< Full-precision distance computations.
  size_t nodes_visited = 0;         ///< Tree nodes or VA cells examined.
  size_t candidates_refined = 0;    ///< Exact refinements after filtering.
  /// True when the query stopped early (deadline or cancellation) and the
  /// results are the best found so far rather than the exact answer.
  bool truncated = false;
  /// Brownout degradation applied by admission control: 0 = full-fidelity,
  /// 1 = re-rank candidate cap, 2 = probes forced down to one shard. Always
  /// 0 when admission is disabled (the default).
  size_t brownout_level = 0;
  /// Merged re-rank candidates discarded by the brownout cap (work the
  /// query would have done at full fidelity).
  size_t rerank_dropped = 0;

  /// Accumulates another query's counters (batch paths merge per-thread
  /// stats through this).
  void MergeFrom(const QueryStats& other) {
    distance_evaluations += other.distance_evaluations;
    nodes_visited += other.nodes_visited;
    candidates_refined += other.candidates_refined;
    truncated = truncated || other.truncated;
    if (other.brownout_level > brownout_level) {
      brownout_level = other.brownout_level;
    }
    rerank_dropped += other.rerank_dropped;
  }
};

/// Cooperative cancellation flag. The caller keeps the token alive for the
/// duration of the query (or batch) and may flip it from any thread; running
/// queries notice at their next control check and return partial results
/// with `QueryStats::truncated` set.
class CancelToken {
 public:
  void Cancel() { cancelled_.store(true, std::memory_order_relaxed); }
  bool Cancelled() const {
    return cancelled_.load(std::memory_order_relaxed);
  }
  void Reset() { cancelled_.store(false, std::memory_order_relaxed); }

 private:
  std::atomic<bool> cancelled_{false};
};

/// Per-query execution limits. Default-constructed limits are inactive and
/// leave the query path byte-identical to the pre-deadline code.
struct QueryLimits {
  /// Wall-clock budget for the query in microseconds; <= 0 (and NaN)
  /// disables the deadline, and fractional budgets round *up* to a whole
  /// microsecond (see QueryControl::DeadlineMicros), so a tiny positive
  /// budget is short but never born expired. For QueryBatch the budget
  /// covers the whole batch (one absolute deadline shared by every row).
  double deadline_us = 0.0;
  /// Optional external cancellation; not owned, may be null.
  const CancelToken* cancel = nullptr;

  bool active() const { return deadline_us > 0.0 || cancel != nullptr; }
};

/// Countdown-gated deadline/cancel checker threaded through QueryImpl. The
/// clock is only consulted every kCheckInterval calls, so the per-distance
/// cost is a decrement and branch; a query therefore overshoots its
/// deadline by at most one check interval of work. Not thread-safe: each
/// query (batch row) gets its own instance.
class QueryControl {
 public:
  /// Distance evaluations between clock reads.
  static constexpr size_t kCheckInterval = 64;

  QueryControl(const CancelToken* cancel,
               std::chrono::steady_clock::time_point deadline,
               bool has_deadline)
      : cancel_(cancel), deadline_(deadline), has_deadline_(has_deadline) {}

  /// Builds a control whose deadline is `limits.deadline_us` from now.
  static QueryControl FromLimits(const QueryLimits& limits);

  /// Microsecond budget after rounding: fractional budgets round *up* (a
  /// sub-microsecond deadline is short but never already expired when
  /// granted), non-positive and NaN budgets clamp to 0 (inactive), and
  /// astronomically large budgets clamp below the steady_clock overflow
  /// horizon. Every deadline the library arms goes through this.
  static long long DeadlineMicros(double deadline_us);

  /// True when the query should stop now. Latches: once stopped, every
  /// subsequent call returns true immediately. The first call always
  /// evaluates the clock so sub-interval deadlines fire deterministically.
  bool ShouldStop() {
    if (stopped_) return true;
    if (--countdown_ > 0) return false;
    countdown_ = kCheckInterval;
    if (cancel_ != nullptr && cancel_->Cancelled()) {
      stopped_ = true;
    } else if (has_deadline_ &&
               std::chrono::steady_clock::now() >= deadline_) {
      stopped_ = true;
      deadline_exceeded_ = true;
    }
    return stopped_;
  }

  bool stopped() const { return stopped_; }
  bool deadline_exceeded() const { return deadline_exceeded_; }

 private:
  const CancelToken* cancel_;
  std::chrono::steady_clock::time_point deadline_;
  bool has_deadline_;
  size_t countdown_ = 1;  // first call evaluates, then every kCheckInterval
  bool stopped_ = false;
  bool deadline_exceeded_ = false;
};

/// Interface of all k-NN engines over a fixed set of points.
class KnnIndex {
 public:
  virtual ~KnnIndex() = default;

  /// Returns the `k` nearest rows to `query`, nearest first, with ties
  /// broken by row index. Fewer than `k` results are returned only when the
  /// index holds fewer than `k` points. `skip_index` (when not kNoSkip)
  /// excludes one row — used by leave-one-out evaluation to exclude the
  /// query point itself.
  ///
  /// This is the instrumented entry point: it forwards to the backend's
  /// QueryImpl and, while obs::MetricsRegistry::Enabled(), publishes the
  /// per-query latency and work counters to the global registry under
  /// `index.<name()>.*`; while the tracer is enabled it emits an
  /// `index.<name()>.query` span. Each sink is gated by its own switch and
  /// none changes the answer. The registry totals accumulate exactly the
  /// `QueryStats` fields the `stats` out-param receives.
  std::vector<Neighbor> Query(const Vector& query, size_t k,
                              size_t skip_index, QueryStats* stats) const;

  /// Like the 4-argument Query but subject to `limits`: when the deadline
  /// passes or the token is cancelled the traversal stops at its next
  /// control check and the best neighbors found so far are returned with
  /// `stats->truncated` set (deadline expiries also bump the
  /// `queries.deadline_exceeded` counter). Inactive limits take the exact
  /// unlimited path.
  std::vector<Neighbor> Query(const Vector& query, size_t k,
                              size_t skip_index, QueryStats* stats,
                              const QueryLimits& limits) const;

  std::vector<Neighbor> Query(const Vector& query, size_t k) const {
    return Query(query, k, kNoSkip, nullptr);
  }

  /// Answers one query per row of `queries`, fanning the rows across the
  /// shared thread pool (see common/parallel.h). Entry i of the result is
  /// exactly Query(queries.Row(i), k): queries are independent, so the
  /// parallel path is bitwise identical to the serial one. When `stats` is
  /// non-null the per-thread counters are merged into it.
  ///
  /// Under active `limits` the deadline is batch-wide: one absolute expiry
  /// computed on entry and shared by every row (each row still keeps its
  /// own check countdown), so a stalled batch returns within one check
  /// interval per in-flight row. Rows answered after expiry come back
  /// truncated (possibly empty); `stats->truncated` reports whether any row
  /// was cut short.
  std::vector<std::vector<Neighbor>> QueryBatch(
      const Matrix& queries, size_t k, QueryStats* stats = nullptr,
      const QueryLimits& limits = QueryLimits()) const;

  /// Number of indexed points.
  virtual size_t size() const = 0;
  /// Dimensionality of the indexed points.
  virtual size_t dims() const = 0;
  virtual std::string name() const = 0;

  static constexpr size_t kNoSkip = static_cast<size_t>(-1);

 protected:
  /// Backend hook behind Query(): answers one query, accumulating work
  /// counters into `stats` when it is non-null. `control` is null for
  /// unlimited queries; when non-null the backend must call
  /// control->ShouldStop() around each distance evaluation (or node visit)
  /// and, once it returns true, stop traversing and return the best
  /// candidates collected so far. The wrapper translates a stopped control
  /// into `QueryStats::truncated`.
  virtual std::vector<Neighbor> QueryImpl(const Vector& query, size_t k,
                                          size_t skip_index,
                                          QueryStats* stats,
                                          QueryControl* control) const = 0;

 private:
  /// The serving core's multi-probe scatter-gather shares one absolute
  /// deadline across per-probe (and per-batch-row) controls, which requires
  /// the control-taking entry point rather than the relative-limits one.
  friend class ServingCore;

  /// Shared body of both Query overloads: instruments unless disabled and
  /// folds a stopped control into the stats.
  std::vector<Neighbor> QueryWithControl(const Vector& query, size_t k,
                                         size_t skip_index, QueryStats* stats,
                                         QueryControl* control) const;
  /// Registry metric bundle for this backend, resolved from name() on the
  /// first instrumented query and cached (concurrent first queries resolve
  /// to the same process-lifetime bundle, so the race is benign).
  const obs::QueryPathMetrics& Instrument() const;

  /// Interned "index.<name()>.query" span name, lazily resolved and cached
  /// the same way as the metric bundle (interned names have process
  /// lifetime, so the race is equally benign).
  const char* TraceName() const;

  mutable std::atomic<const obs::QueryPathMetrics*> instrument_{nullptr};
  mutable std::atomic<const char*> trace_name_{nullptr};
};

/// Bounded max-heap collecting the k best candidates during a scan.
class KnnCollector {
 public:
  explicit KnnCollector(size_t k) : k_(k) {}

  /// Offers a candidate; keeps only the k smallest distances.
  void Offer(size_t index, double distance);

  /// Current k-th best distance, or +infinity while fewer than k collected.
  double Threshold() const;

  /// True once k candidates have been collected.
  bool Full() const { return heap_.size() >= k_; }

  /// Extracts results sorted by (distance, index) ascending.
  std::vector<Neighbor> Take();

 private:
  size_t k_;
  // Max-heap on (distance, index) so the worst candidate is on top.
  std::vector<Neighbor> heap_;
};

}  // namespace cohere

#endif  // COHERE_INDEX_KNN_H_
