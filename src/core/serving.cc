#include "core/serving.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <string>
#include <utility>

#include "cache/cache_manager.h"
#include "cluster/projected.h"
#include "common/check.h"
#include "common/parallel.h"
#include "common/stopwatch.h"
#include "obs/metrics.h"
#include "obs/query_log.h"
#include "obs/tracing.h"

namespace cohere {
namespace {

// Queries per work chunk when a batch fans rows across the pool; matches
// the KnnIndex::QueryBatch grain so both fan-outs decompose identically.
constexpr size_t kBatchGrain = 4;

// Rows per chunk for batch projection (cheap per-row work).
constexpr size_t kProjectGrain = 16;

// FNV-1a of the snapshot metric's name — the metric component of every
// cache key built against that snapshot (computed once per call, not per
// batch row).
uint64_t MetricHashOf(const EngineSnapshot& snapshot) {
  const std::string name = snapshot.metric->name();
  return cache::FingerprintBytes(name.data(), name.size());
}

// TryQuery's input check. The engine's original dimensionality is every
// shard pipeline's input width (shards differ only in their members).
Status ValidateQuery(const EngineSnapshot& snapshot, const Vector& query) {
  const size_t dims = snapshot.shards[0].pipeline.model().dims();
  if (query.size() != dims) {
    return Status::InvalidArgument(
        "query has " + std::to_string(query.size()) +
        " coordinates; the engine indexes " + std::to_string(dims) +
        "-dimensional records");
  }
  for (size_t j = 0; j < dims; ++j) {
    if (!std::isfinite(query[j])) {
      return Status::InvalidArgument("query coordinate " + std::to_string(j) +
                                     " is not finite");
    }
  }
  return Status::Ok();
}

// Times one EXPLAIN phase. The clock is read only while a profile is being
// captured; Finish appends the phase and returns it for the caller to
// annotate (null when not profiling, so no detail string is built then).
class PhaseTimer {
 public:
  explicit PhaseTimer(obs::QueryProfile* profile) : profile_(profile) {
    if (profile_ != nullptr) watch_.emplace();
  }

  obs::QueryPhase* Finish(const char* name, const char* detail = "") {
    if (profile_ == nullptr) return nullptr;
    obs::QueryPhase& phase = profile_->phases.emplace_back();
    phase.name = name;
    phase.duration_us = watch_->ElapsedMicros();
    phase.detail = detail;
    return &phase;
  }

 private:
  obs::QueryProfile* profile_;
  std::optional<Stopwatch> watch_;
};

// Copies one probe's or scan's work counters into its EXPLAIN phase.
void SetPhaseWork(obs::QueryPhase* phase, const QueryStats& stats, int shard) {
  phase->distance_evaluations = stats.distance_evaluations;
  phase->nodes_visited = stats.nodes_visited;
  phase->candidates_refined = stats.candidates_refined;
  phase->truncated = stats.truncated;
  phase->shard = shard;
}

}  // namespace

ServingCore::ServingCore(ServingCoreOptions options)
    : options_(std::move(options)) {
  metrics_ = obs::ServingPathMetricsFor(options_.scope);
  span_query_ = obs::Tracer::InternName(options_.scope + ".query");
  span_project_ = obs::Tracer::InternName(options_.scope + ".project");
  span_query_batch_ = obs::Tracer::InternName(options_.scope + ".query_batch");
  span_project_batch_ =
      obs::Tracer::InternName(options_.scope + ".project_batch");
  span_probe_ = obs::Tracer::InternName(options_.scope + ".probe");
  span_cache_lookup_ =
      obs::Tracer::InternName(options_.scope + ".cache.lookup");
  span_cache_insert_ =
      obs::Tracer::InternName(options_.scope + ".cache.insert");
  log_scope_ = obs::Tracer::InternName(options_.scope);
  if (options_.cache_budget_bytes > 0) {
    cache_ = cache::CacheManager::Global().CreateCache(
        options_.scope, options_.cache_budget_bytes);
  }
  if (options_.admission.enabled) {
    admission_ = std::make_unique<AdmissionController>(options_.scope,
                                                       options_.admission);
  }
}

cache::CacheKey ServingCore::MakeCacheKey(uint64_t snapshot_version,
                                          uint64_t metric_hash,
                                          const Vector& query,
                                          size_t k) const {
  cache::CacheKey key;
  key.snapshot_version = snapshot_version;
  key.metric_hash = metric_hash;
  key.query_fingerprint = cache::FingerprintVector(query);
  key.k = static_cast<uint32_t>(k);
  key.probes = static_cast<uint32_t>(options_.probe_shards);
  return key;
}

std::vector<Neighbor> ServingCore::Query(const Vector& original_space_query,
                                         size_t k, size_t skip_index,
                                         QueryStats* stats) const {
  QueryLimits limits;
  limits.deadline_us = options_.query_deadline_us;
  return Query(original_space_query, k, skip_index, stats, limits);
}

std::vector<Neighbor> ServingCore::Query(const Vector& original_space_query,
                                         size_t k, size_t skip_index,
                                         QueryStats* stats,
                                         const QueryLimits& limits,
                                         obs::QueryProfile* profile) const {
  if (profile != nullptr) *profile = obs::QueryProfile();
  std::vector<Neighbor> out;
  // Without admission nothing can refuse the query.
  Serve({original_space_query, k, skip_index, limits, profile,
         /*admit=*/false},
        stats, &out);
  return out;
}

bool ServingCore::LastProfile(obs::QueryProfile* out) const {
  std::lock_guard<std::mutex> lock(profile_mu_);
  if (!last_profile_) return false;
  *out = *last_profile_;
  return true;
}

Status ServingCore::TryQuery(const Vector& original_space_query, size_t k,
                             size_t skip_index, QueryStats* stats,
                             const QueryLimits& limits,
                             std::vector<Neighbor>* out) const {
  COHERE_CHECK(out != nullptr);
  return Serve({original_space_query, k, skip_index, limits,
                /*profile=*/nullptr, /*admit=*/true},
               stats, out);
}

Status ServingCore::Serve(const QueryRequest& request, QueryStats* stats,
                          std::vector<Neighbor>* out) const {
  const std::shared_ptr<const EngineSnapshot> snapshot = handle_.Acquire();
  COHERE_CHECK(snapshot != nullptr);
  QueryLimits limits = request.limits;
  // The degradation the query runs under; the default grant caps nothing.
  AdmissionGrant grant;
  std::optional<Stopwatch> service_watch;
  if (request.admit) {
    const Status valid = ValidateQuery(*snapshot, request.query);
    if (!valid.ok()) return valid;
  }
  if (request.admit && admission_ != nullptr) {
    // Resolve the budget exactly as the deadline machinery will, so the
    // feasibility gate and the eventual QueryControl agree on it.
    const double budget_us = static_cast<double>(
        QueryControl::DeadlineMicros(limits.deadline_us));
    Stopwatch arrival_watch;  // covers any queue wait
    grant = admission_->Admit(budget_us);
    if (!grant.admitted) return grant.status;
    // The queue wait ate into the caller's budget: the query runs with what
    // is left, so an admitted query still completes within the deadline the
    // caller configured (measured from arrival).
    if (budget_us > 0.0) {
      limits.deadline_us =
          std::max(1.0, budget_us - arrival_watch.ElapsedMicros());
    }
    service_watch.emplace();
  }
  // A profile is captured for LastProfile() when explain is on and the
  // caller did not ask for one of its own.
  obs::QueryProfile captured;
  obs::QueryProfile* const profile =
      request.profile == nullptr && options_.explain ? &captured
                                                     : request.profile;
  const QueryRequest served{request.query, request.k, request.skip_index,
                            limits, profile, request.admit};

  QueryOutcome outcome;
  outcome.snapshot_version = snapshot->version;
  outcome.deadline_us =
      static_cast<double>(QueryControl::DeadlineMicros(limits.deadline_us));
  outcome.record_metrics = obs::MetricsRegistry::Enabled();
  outcome.record_log = obs::QueryLog::Enabled();
  // Cacheable: cache enabled, no row exclusion (skip changes the answer but
  // is not part of the key), the token is not already cancelled (an
  // aborted caller gets the usual truncated answer, never a cached full
  // one), and the query is not brownout-degraded (a degraded answer must
  // never be served later as the full-fidelity one, and a degraded lookup
  // key would alias the full-probe entry). A cache hit trivially respects
  // any deadline — it does no work.
  outcome.cacheable =
      cache_ != nullptr && request.skip_index == KnnIndex::kNoSkip &&
      (limits.cancel == nullptr || !limits.cancel->Cancelled()) &&
      grant.brownout_level == 0;
  cache::CacheKey key;
  if (outcome.cacheable) {
    key = MakeCacheKey(snapshot->version, MetricHashOf(*snapshot),
                       request.query, request.k);
  }

  // Root span of the serial query path; the per-query sampling (and slow-
  // query) decision is made here, and the cache / projection / probe
  // phases nest under it.
  obs::TraceSpan span(span_query_);
  span.AddArg("k", static_cast<double>(request.k));
  std::optional<Stopwatch> watch;
  if (outcome.record_metrics || outcome.record_log || profile != nullptr) {
    watch.emplace();
  }
  if (outcome.cacheable) {
    PhaseTimer lookup_timer(profile);
    {
      obs::TraceSpan lookup(span_cache_lookup_);
      outcome.cache_hit = cache_->Lookup(key, out);
      lookup.AddArg("hit", outcome.cache_hit ? 1.0 : 0.0);
    }
    lookup_timer.Finish("cache.lookup", outcome.cache_hit ? "hit" : "miss");
  }
  if (!outcome.cache_hit && SingleShard(*snapshot)) {
    const SnapshotShard& shard = snapshot->shards[0];
    PhaseTimer project_timer(profile);
    Vector reduced;
    {
      obs::TraceSpan project(span_project_);
      // A cacheable query's projection is itself cached under (version,
      // fingerprint, metric) — without k — so a hot query repeated with a
      // different k still skips the original-space transform.
      // TransformPoint is deterministic, so the reused vector is
      // bit-identical to a recompute.
      if (!outcome.cacheable ||
          !cache_->LookupProjection(key.snapshot_version,
                                    key.query_fingerprint, key.metric_hash,
                                    &reduced)) {
        reduced = shard.pipeline.TransformPoint(request.query);
        if (outcome.cacheable) {
          cache_->InsertProjection(key.snapshot_version,
                                   key.query_fingerprint, key.metric_hash,
                                   reduced);
        }
      }
    }
    project_timer.Finish("project");
    PhaseTimer scan_timer(profile);
    *out = shard.index->Query(reduced, request.k, request.skip_index,
                              &outcome.stats, limits);
    if (obs::QueryPhase* scan = scan_timer.Finish("scan")) {
      scan->detail = shard.index->name();
      SetPhaseWork(scan, outcome.stats, /*shard=*/0);
    }
  } else if (!outcome.cache_hit) {
    std::optional<QueryControl> deadline;
    if (limits.active()) deadline = QueryControl::FromLimits(limits);
    *out = QueryMultiShard(*snapshot, served, deadline, grant,
                           /*allow_parallel=*/true, &outcome.stats);
  }
  outcome.stats.brownout_level =
      std::max(outcome.stats.brownout_level, grant.brownout_level);
  if (watch) outcome.latency_us = watch->ElapsedMicros();
  // Truncated answers are partial, never cacheable.
  if (outcome.cacheable && !outcome.cache_hit && !outcome.stats.truncated) {
    PhaseTimer insert_timer(profile);
    {
      obs::TraceSpan insert(span_cache_insert_);
      cache_->Insert(key, *out);
    }
    insert_timer.Finish("cache.insert");
  }
  Report(outcome, request.k, &span, profile);
  if (profile == &captured) {
    std::lock_guard<std::mutex> lock(profile_mu_);
    last_profile_ = std::move(captured);
  }
  if (service_watch) {
    // Deadline/cancel truncation is the failure signal the breaker watches;
    // the EWMA only learns service time, not queue time.
    admission_->Release(service_watch->ElapsedMicros(),
                        /*success=*/!outcome.stats.truncated);
  }
  if (stats != nullptr) stats->MergeFrom(outcome.stats);
  return Status::Ok();
}

void ServingCore::Report(const QueryOutcome& outcome, size_t k,
                         obs::TraceSpan* span,
                         obs::QueryProfile* profile) const {
  const QueryStats& stats = outcome.stats;
  if (outcome.record_metrics) {
    // Hits record a (0 work, tiny latency) sample: the latency histogram
    // reflects what callers actually observed, and the work counters stay
    // consistent with QueryStats (a hit does no index work). Truncated
    // answers record into the dedicated `.truncated` histogram so an
    // overload storm of budget-bounded latencies cannot deflate the main
    // tail.
    metrics_.query->Record(stats.distance_evaluations, stats.nodes_visited,
                           stats.candidates_refined, outcome.latency_us,
                           stats.truncated);
  }
  if (outcome.cache_hit) span->AddArg("cache_hit", 1.0);
  if (stats.truncated) span->AddArg("truncated", 1.0);
  if (outcome.record_log) {
    obs::QueryEvent event;
    event.scope = log_scope_;
    event.snapshot_version = outcome.snapshot_version;
    event.k = static_cast<uint32_t>(k);
    event.cache_hit = outcome.cache_hit;
    event.truncated = stats.truncated;
    event.distance_evaluations = stats.distance_evaluations;
    event.nodes_visited = stats.nodes_visited;
    event.candidates_refined = stats.candidates_refined;
    event.latency_us = outcome.latency_us;
    obs::QueryLog::Global().Record(event);
  }
  if (profile != nullptr) {
    profile->scope = options_.scope;
    profile->snapshot_version = outcome.snapshot_version;
    profile->k = k;
    profile->cacheable = outcome.cacheable;
    profile->cache_hit = outcome.cache_hit;
    profile->truncated = stats.truncated;
    profile->brownout_level = stats.brownout_level;
    profile->rerank_dropped = stats.rerank_dropped;
    profile->distance_evaluations = stats.distance_evaluations;
    profile->nodes_visited = stats.nodes_visited;
    profile->candidates_refined = stats.candidates_refined;
    profile->latency_us = outcome.latency_us;
    profile->deadline_us = outcome.deadline_us;
    profile->deadline_headroom_us =
        outcome.deadline_us > 0.0
            ? std::max(0.0, outcome.deadline_us - outcome.latency_us)
            : 0.0;
  }
}

std::vector<size_t> ServingCore::RouteShards(
    const EngineSnapshot& snapshot, const Vector& studentized_query,
    const AdmissionGrant& grant) const {
  std::vector<std::pair<double, size_t>> scored;
  scored.reserve(snapshot.shards.size());
  for (size_t c = 0; c < snapshot.shards.size(); ++c) {
    const SnapshotShard& shard = snapshot.shards[c];
    double dist;
    if (!shard.cluster_basis.empty()) {
      dist = ProjectedSquaredDistance(studentized_query, shard.centroid,
                                      shard.cluster_basis);
    } else {
      dist = (studentized_query - shard.centroid).SquaredNorm2();
    }
    scored.emplace_back(dist, c);
  }
  std::sort(scored.begin(), scored.end());
  const size_t probe_budget =
      std::min(options_.probe_shards, grant.probe_limit);
  std::vector<size_t> out;
  for (size_t i = 0; i < std::min(probe_budget, scored.size()); ++i) {
    out.push_back(scored[i].second);
  }
  return out;
}

std::vector<Neighbor> ServingCore::QueryMultiShard(
    const EngineSnapshot& snapshot, const QueryRequest& request,
    const std::optional<QueryControl>& deadline, const AdmissionGrant& grant,
    bool allow_parallel, QueryStats* stats) const {
  COHERE_CHECK(snapshot.has_studentizer);
  obs::QueryProfile* const profile = request.profile;
  PhaseTimer route_timer(profile);
  const Vector studentized = snapshot.studentizer.Apply(request.query);
  const std::vector<size_t> probes = RouteShards(snapshot, studentized, grant);
  const bool rerank = options_.rerank_multi_probe && probes.size() > 1;
  // Brownout level >= 1 caps the candidates each probe may contribute to
  // the full-space re-rank; everything past the cap is dropped (counted in
  // rerank_dropped) rather than merged with an incomparable local distance.
  const size_t rerank_cap =
      rerank ? grant.rerank_cap : static_cast<size_t>(-1);
  if (obs::QueryPhase* route = route_timer.Finish("route")) {
    route->detail = std::to_string(probes.size()) + " probes";
  }

  // Scatter: each probe fills its own slot (results and stats), so the
  // probes can run on the pool without sharing anything; the gather below
  // merges in probe order. The merged result is order-independent anyway —
  // KnnCollector keeps the k smallest in the (distance, index) total order.
  // Profile phases are appended after the scatter from the per-slot arrays,
  // never from inside probe_one, so pool lanes share nothing.
  std::vector<std::vector<Neighbor>> gathered(probes.size());
  std::vector<QueryStats> probe_stats(probes.size());
  std::vector<double> probe_us(profile != nullptr ? probes.size() : 0);
  auto probe_one = [&](size_t pi) {
    std::optional<Stopwatch> probe_watch;
    if (profile != nullptr) probe_watch.emplace();
    const SnapshotShard& shard = snapshot.shards[probes[pi]];
    QueryStats* local = &probe_stats[pi];
    obs::TraceSpan span(span_probe_);
    span.AddArg("shard", static_cast<double>(probes[pi]));
    // The routing decision that sent the query here is the one node this
    // layer visits per probe; everything else is the shard index's count.
    ++local->nodes_visited;
    const Vector local_query = shard.pipeline.TransformPoint(request.query);
    // Translate the global skip index into a local row, if it lives here.
    size_t local_skip = KnnIndex::kNoSkip;
    if (request.skip_index != KnnIndex::kNoSkip && !shard.members.empty()) {
      auto it = std::find(shard.members.begin(), shard.members.end(),
                          request.skip_index);
      if (it != shard.members.end()) {
        local_skip = static_cast<size_t>(it - shard.members.begin());
      }
    }
    std::optional<QueryControl> control = deadline;
    const std::vector<Neighbor> found = shard.index->QueryWithControl(
        local_query, request.k, local_skip, local,
        control ? &*control : nullptr);
    gathered[pi].reserve(found.size());
    size_t reranked = 0;
    for (const Neighbor& nb : found) {
      const size_t global_row =
          shard.members.empty() ? nb.index : shard.members[nb.index];
      if (rerank) {
        if (reranked >= rerank_cap) {
          // Brownout: this candidate's re-rank is sacrificed. `found` is
          // nearest-first in the shard's local space, so the cap keeps the
          // locally most promising candidates.
          ++local->rerank_dropped;
          continue;
        }
        // Local distances are not comparable across concept spaces: score
        // merged candidates by the metric in the shared studentized space.
        const double dist = snapshot.metric->Distance(
            studentized, snapshot.studentized_records.Row(global_row));
        ++local->candidates_refined;
        ++reranked;
        gathered[pi].push_back({global_row, dist});
      } else {
        gathered[pi].push_back({global_row, nb.distance});
      }
    }
    if (probe_watch) probe_us[pi] = probe_watch->ElapsedMicros();
  };
  if (allow_parallel && probes.size() > 1) {
    ParallelFor(0, probes.size(), /*grain=*/1, [&](size_t begin, size_t end) {
      for (size_t pi = begin; pi < end; ++pi) probe_one(pi);
    });
  } else {
    for (size_t pi = 0; pi < probes.size(); ++pi) probe_one(pi);
  }
  if (profile != nullptr) {
    // One phase per probe, carrying that probe's whole QueryStats (routing
    // node, shard scan, and its share of re-rank refinements), so the probe
    // phases plus the zero-work route/merge phases sum exactly to the
    // query's merged stats.
    for (size_t pi = 0; pi < probes.size(); ++pi) {
      obs::QueryPhase& phase = profile->phases.emplace_back();
      phase.name = "probe";
      phase.duration_us = probe_us[pi];
      phase.detail = snapshot.shards[probes[pi]].index->name();
      SetPhaseWork(&phase, probe_stats[pi], static_cast<int>(probes[pi]));
    }
  }

  PhaseTimer merge_timer(profile);
  KnnCollector collector(request.k);
  for (const std::vector<Neighbor>& candidates : gathered) {
    for (const Neighbor& nb : candidates) {
      collector.Offer(nb.index, nb.distance);
    }
  }
  for (const QueryStats& ps : probe_stats) stats->MergeFrom(ps);
  std::vector<Neighbor> merged = collector.Take();
  merge_timer.Finish("merge", rerank ? "rerank" : "");
  return merged;
}

std::vector<std::vector<Neighbor>> ServingCore::QueryBatch(
    const Matrix& original_space_queries, size_t k, QueryStats* stats) const {
  QueryLimits limits;
  limits.deadline_us = options_.query_deadline_us;
  return QueryBatch(original_space_queries, k, stats, limits);
}

std::vector<std::vector<Neighbor>> ServingCore::QueryBatch(
    const Matrix& original_space_queries, size_t k, QueryStats* stats,
    const QueryLimits& limits) const {
  const std::shared_ptr<const EngineSnapshot> snapshot = handle_.Acquire();
  COHERE_CHECK(snapshot != nullptr);
  obs::TraceSpan span(span_query_batch_);
  obs::ScopedTimer timer(
      obs::MetricsRegistry::Enabled() ? metrics_.batch_latency_us : nullptr);
  const size_t n = original_space_queries.rows();
  std::vector<std::vector<Neighbor>> out(n);
  // As in the serial path: no caching for an already-cancelled token, and a
  // batch row's hit does no work (trivially within the batch deadline).
  const bool cacheable =
      cache_ != nullptr &&
      (limits.cancel == nullptr || !limits.cancel->Cancelled());
  // Answer hits up front; only the misses run.
  std::vector<cache::CacheKey> keys(cacheable ? n : 0);
  std::vector<size_t> misses;
  misses.reserve(n);
  const uint64_t metric_hash = cacheable ? MetricHashOf(*snapshot) : 0;
  for (size_t i = 0; i < n; ++i) {
    if (cacheable) {
      keys[i] = MakeCacheKey(snapshot->version, metric_hash,
                             original_space_queries.Row(i), k);
      if (cache_->Lookup(keys[i], &out[i])) continue;
    }
    misses.push_back(i);
  }
  if (misses.empty()) return out;

  QueryStats local;
  std::vector<std::vector<Neighbor>> found;
  if (SingleShard(*snapshot)) {
    const SnapshotShard& shard = snapshot->shards[0];
    Matrix reduced(misses.size(), shard.pipeline.ReducedDims());
    {
      // Row transforms are independent; reduce them across the pool before
      // the index fans the reduced rows back out. Pool-lane chunks emit no
      // spans of their own — the caller-side span covers the whole phase.
      obs::TraceSpan project(span_project_batch_);
      ParallelFor(0, misses.size(), kProjectGrain,
                  [&](size_t begin, size_t end) {
        for (size_t j = begin; j < end; ++j) {
          reduced.SetRow(j, shard.pipeline.TransformPoint(
                                original_space_queries.Row(misses[j])));
        }
      });
    }
    found = shard.index->QueryBatch(reduced, k, &local, limits);
  } else {
    // One absolute deadline for the whole batch, shared by every row.
    std::optional<QueryControl> deadline;
    if (limits.active()) deadline = QueryControl::FromLimits(limits);
    const AdmissionGrant no_brownout;
    found.resize(misses.size());
    std::vector<QueryStats> partial(ParallelChunkCount(misses.size(),
                                                       kBatchGrain));
    ParallelForIndexed(0, misses.size(), kBatchGrain,
                       [&](size_t chunk, size_t begin, size_t end) {
      for (size_t j = begin; j < end; ++j) {
        const Vector row = original_space_queries.Row(misses[j]);
        // Probes stay serial inside a batch row: the row fan-out already
        // owns the pool (nested regions run serial regardless).
        found[j] = QueryMultiShard(
            *snapshot,
            {row, k, KnnIndex::kNoSkip, limits, /*profile=*/nullptr,
             /*admit=*/false},
            deadline, no_brownout, /*allow_parallel=*/false,
            &partial[chunk]);
      }
    });
    for (const QueryStats& p : partial) local.MergeFrom(p);
  }
  // Truncation is reported batch-wide, not per row, so a truncated batch
  // conservatively stores nothing (a partial row must never be served as
  // the exact answer later).
  const bool store = cacheable && !local.truncated;
  for (size_t j = 0; j < misses.size(); ++j) {
    out[misses[j]] = std::move(found[j]);
    if (store) cache_->Insert(keys[misses[j]], out[misses[j]]);
  }
  if (stats != nullptr) stats->MergeFrom(local);
  return out;
}

}  // namespace cohere
