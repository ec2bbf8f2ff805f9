#ifndef COHERE_CORE_SERVING_H_
#define COHERE_CORE_SERVING_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "cache/query_cache.h"
#include "common/status.h"
#include "core/admission.h"
#include "core/snapshot.h"
#include "index/knn.h"
#include "obs/query_metrics.h"

namespace cohere {
namespace obs {
class TraceSpan;
}  // namespace obs

/// The serving fields every engine's options share, declared once here:
/// EngineOptions, DynamicEngineOptions, LocalEngineOptions and
/// ServingCoreOptions inherit them. Each one off (the default) leaves the
/// answers bit-identical to the code without the feature.
struct ServingOptions {
  /// Default wall-clock budget per Query (and per QueryBatch as a whole) in
  /// microseconds; 0 disables. When the budget runs out the index traversal
  /// stops at its next control check (every QueryControl::kCheckInterval
  /// distance evaluations) and the best neighbors found so far come back
  /// with `QueryStats::truncated` set — a bounded-time partial answer
  /// instead of an unbounded exact one. Per-call QueryLimits override this
  /// default.
  double query_deadline_us = 0.0;
  /// Byte budget for the engine's query-result cache, requested from the
  /// process-wide cache::CacheManager (which may rebalance it when a global
  /// COHERE_CACHE_BUDGET cap is set). 0 disables caching. With a budget,
  /// repeated queries are served from entries keyed on (snapshot version,
  /// metric, query fingerprint, k, probes): every publish (insert, refit,
  /// rebuild) bumps the version and so implicitly invalidates, and stale
  /// entries age out via eviction. A truncated (deadline/cancel) answer is
  /// never cached.
  size_t cache_budget_bytes = 0;
  /// Capture a per-query EXPLAIN profile (obs::QueryProfile) for every
  /// serial Query and TryQuery; read the most recent one via
  /// serving().LastProfile().
  bool explain = false;
  /// Overload policy: admission control, load shedding, brownout, circuit
  /// breaker (see core/admission.h). When enabled, serving().TryQuery() is
  /// the Status-returning (rejectable) entry point, and under brownout the
  /// controller caps effective probes and re-rank candidates before
  /// shedding; the plain Query() overloads always bypass admission.
  AdmissionOptions admission;
};

/// Static configuration of one ServingCore (fixed at engine build).
struct ServingCoreOptions : ServingOptions {
  /// Metric/trace scope prefix: the core records the S.queries /
  /// S.distance_evaluations / S.nodes_visited / S.candidates_refined /
  /// S.query_latency_us bundle plus S.batch_latency_us, and emits S.query /
  /// S.project / S.query_batch / S.project_batch / S.probe spans.
  std::string scope = "engine";
  /// Shards probed per query on multi-shard snapshots, nearest first.
  size_t probe_shards = 1;
  /// When more than one shard is probed, re-rank the merged candidates by
  /// the metric in the shared studentized full space (per-shard concept
  /// spaces are not mutually comparable).
  bool rerank_multi_probe = false;
};

/// The query-path substrate shared by all engine facades: one place that
/// owns snapshot publication (RCU handle + version), deadline/cancellation
/// resolution, pooled batch fan-out with batch-wide deadlines and QueryStats
/// merging, scope-prefixed metrics and trace spans, and — on multi-shard
/// snapshots — routed multi-probe scatter-gather with optional full-space
/// re-rank.
///
/// Every serial entry point (the Query overloads and TryQuery) forwards to
/// one private body, which produces one QueryOutcome per query; one
/// function then feeds that record to the metrics bundle, the root span,
/// the query log and the EXPLAIN profile. Each sink is gated by its own
/// switch and none changes the answer.
///
/// Work accounting is defined here, once, for every engine:
///   - `distance_evaluations` and `candidates_refined` are whatever the
///     probed shard indexes report, plus one `candidates_refined` per
///     merged candidate scored during full-space re-rank;
///   - `nodes_visited` is the shard indexes' count plus one per probed
///     shard (the routing decision).
/// Single-shard snapshots add nothing on top of the index's own counters.
///
/// Thread safety: Query/QueryBatch are safe from any number of threads
/// concurrently with Publish; each call acquires the current snapshot once
/// and never touches mutable engine state afterwards.
class ServingCore {
 public:
  explicit ServingCore(ServingCoreOptions options);
  ServingCore(const ServingCore&) = delete;
  ServingCore& operator=(const ServingCore&) = delete;

  /// Publishes the successor snapshot (see SnapshotHandle::Publish).
  Status Publish(std::shared_ptr<EngineSnapshot> snapshot) {
    return handle_.Publish(std::move(snapshot));
  }

  /// The currently served snapshot (null until the first Publish).
  std::shared_ptr<const EngineSnapshot> snapshot() const {
    return handle_.Acquire();
  }

  /// Version of the current snapshot (0 before the first publish).
  uint64_t version() const { return handle_.version(); }

  const ServingCoreOptions& options() const { return options_; }

  /// The result cache backing this core, or null when
  /// `cache_budget_bytes == 0` (tests read its hit/miss stats).
  const cache::ResultCache* result_cache() const { return cache_.get(); }

  /// k nearest records to an original-space query under the configured
  /// default deadline. `skip_index` is a *global* record id (translated to
  /// shard-local rows on multi-shard snapshots).
  std::vector<Neighbor> Query(const Vector& original_space_query, size_t k,
                              size_t skip_index = KnnIndex::kNoSkip,
                              QueryStats* stats = nullptr) const;

  /// Query under explicit per-call limits (overriding the default). On
  /// multi-shard snapshots every probe shares one absolute deadline.
  ///
  /// A non-null `profile` receives an EXPLAIN profile of this query,
  /// regardless of `options().explain` (and LastProfile() is left alone).
  /// The profile's totals are exactly the query's merged QueryStats, and its
  /// phases partition that work (see obs::QueryProfile).
  std::vector<Neighbor> Query(const Vector& original_space_query, size_t k,
                              size_t skip_index, QueryStats* stats,
                              const QueryLimits& limits,
                              obs::QueryProfile* profile = nullptr) const;

  /// Copies the most recent profile captured by a serial Query or TryQuery
  /// while `options().explain` was set; false when none has been captured
  /// yet.
  bool LastProfile(obs::QueryProfile* out) const;

  /// Status-returning serial query. Bad input — a query whose length is not
  /// the engine's original dimensionality, or a NaN/infinite coordinate —
  /// returns kInvalidArgument before admission (it takes no slot and is not
  /// counted as shed). With admission disabled a valid query then runs
  /// exactly as Query() does. With it enabled the query first passes the
  /// AdmissionController: rejected/shed queries return kResourceExhausted
  /// without running, and admitted queries execute under the granted
  /// brownout plan (probe limit, re-rank cap) with any queue wait deducted
  /// from their deadline budget. Degradations are recorded in `stats`
  /// (brownout_level/rerank_dropped).
  Status TryQuery(const Vector& original_space_query, size_t k,
                  size_t skip_index, QueryStats* stats,
                  const QueryLimits& limits,
                  std::vector<Neighbor>* out) const;

  /// The admission controller, or null when `options().admission.enabled`
  /// is false (tests and the load generator read its exact totals).
  AdmissionController* admission() const { return admission_.get(); }

  /// One query per row, fanned across the shared thread pool; entry i
  /// equals Query(queries.Row(i), k) exactly. The default deadline applies
  /// batch-wide (one absolute expiry shared by every row).
  std::vector<std::vector<Neighbor>> QueryBatch(
      const Matrix& original_space_queries, size_t k,
      QueryStats* stats = nullptr) const;

  /// QueryBatch under explicit per-call limits (batch-wide deadline).
  std::vector<std::vector<Neighbor>> QueryBatch(
      const Matrix& original_space_queries, size_t k, QueryStats* stats,
      const QueryLimits& limits) const;

 private:
  /// One serial query as an entry point hands it to Serve().
  struct QueryRequest {
    const Vector& query;
    size_t k;
    size_t skip_index;
    const QueryLimits& limits;
    /// EXPLAIN profile to fill; null captures none (unless
    /// `options().explain` asks for LastProfile()).
    obs::QueryProfile* profile;
    /// TryQuery: validate the input, then pass admission control when it
    /// is enabled.
    bool admit;
  };

  /// The facts about one finished serial query that the sinks report.
  struct QueryOutcome {
    QueryStats stats;  ///< Merged work counters, truncation, brownout level.
    uint64_t snapshot_version = 0;
    bool cacheable = false;
    bool cache_hit = false;
    /// End-to-end latency; measured only when a sink consumes it.
    double latency_us = 0.0;
    /// Granted deadline budget in µs after QueryControl rounding; 0 = none.
    double deadline_us = 0.0;
    /// Sinks switched on when the query started (read once per query).
    bool record_metrics = false;
    bool record_log = false;
  };

  /// True for the global single-index layout (no member mapping, no
  /// routing): the query path is projection + one index call.
  static bool SingleShard(const EngineSnapshot& snapshot) {
    return snapshot.shards.size() == 1 && snapshot.shards[0].members.empty();
  }

  /// The serial query body every public serial entry point forwards to:
  /// validation and admission (TryQuery only), cache lookup, projection and
  /// index scan or multi-shard scatter-gather, cache insert, then Report().
  Status Serve(const QueryRequest& request, QueryStats* stats,
               std::vector<Neighbor>* out) const;

  /// Feeds one finished query to the four sinks: the metrics bundle, the
  /// root span's args, the query log's QueryEvent and the EXPLAIN profile
  /// (null when none is captured).
  void Report(const QueryOutcome& outcome, size_t k, obs::TraceSpan* span,
              obs::QueryProfile* profile) const;

  /// Full cache key for one serial query (or batch row) against `snapshot`.
  cache::CacheKey MakeCacheKey(uint64_t snapshot_version,
                               uint64_t metric_hash, const Vector& query,
                               size_t k) const;

  /// Routed multi-probe scatter-gather over the shard set for `request`.
  /// Every probe runs under its own copy of `deadline` (one absolute expiry
  /// per call, a fresh check countdown per traversal; empty = unlimited)
  /// and under the brownout caps of `grant` (a default grant caps nothing).
  /// Merges the probes' work into `stats` and, when `request.profile` is
  /// set, appends route/probe/merge phases. `allow_parallel` is false on
  /// batch rows (the row fan-out already owns the pool).
  std::vector<Neighbor> QueryMultiShard(const EngineSnapshot& snapshot,
                                        const QueryRequest& request,
                                        const std::optional<QueryControl>&
                                            deadline,
                                        const AdmissionGrant& grant,
                                        bool allow_parallel,
                                        QueryStats* stats) const;

  /// Probed shard ids for a studentized query, nearest first. A brownout
  /// grant may cap the probe count below the configured probe_shards.
  std::vector<size_t> RouteShards(const EngineSnapshot& snapshot,
                                  const Vector& studentized_query,
                                  const AdmissionGrant& grant) const;

  ServingCoreOptions options_;
  SnapshotHandle handle_;

  // Overload policy; null while options_.admission.enabled is false.
  std::unique_ptr<AdmissionController> admission_;

  // Result/projection cache from the process-wide manager; null while
  // cache_budget_bytes == 0.
  std::shared_ptr<cache::ResultCache> cache_;

  // Registry metrics and interned span names (process lifetime), resolved
  // once at construction.
  obs::ServingPathMetrics metrics_;
  const char* span_query_ = nullptr;
  const char* span_project_ = nullptr;
  const char* span_query_batch_ = nullptr;
  const char* span_project_batch_ = nullptr;
  const char* span_probe_ = nullptr;
  const char* span_cache_lookup_ = nullptr;
  const char* span_cache_insert_ = nullptr;
  // Interned copy of options_.scope for query-log events (ring records may
  // outlive this core).
  const char* log_scope_ = nullptr;

  // Most recent EXPLAIN profile captured under options_.explain. A mutex is
  // fine here: explain is a diagnostic mode, not the serving fast path.
  mutable std::mutex profile_mu_;
  mutable std::optional<obs::QueryProfile> last_profile_;
};

}  // namespace cohere

#endif  // COHERE_CORE_SERVING_H_
