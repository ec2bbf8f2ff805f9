// Every serial entry point of ServingCore runs one body, so they must agree
// exactly: this suite pins that parity across the static (kd-tree and
// linear scan), dynamic and local engines, pins the serving answers with
// every observability layer switched off (the golden hashes of
// serving_test.cc reproduce bit for bit), and checks that TryQuery turns
// bad input into a Status and captures EXPLAIN profiles under admission.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "core/dynamic_engine.h"
#include "core/engine.h"
#include "core/local_engine.h"
#include "core/serving.h"
#include "data/synthetic.h"
#include "data/uci_like.h"
#include "obs/metrics.h"
#include "obs/query_log.h"
#include "obs/query_metrics.h"
#include "obs/tracing.h"

namespace cohere {
namespace {

constexpr uint64_t kFnvSeed = 1469598103934665603ULL;

uint64_t HashNeighbors(uint64_t h, const std::vector<Neighbor>& neighbors) {
  for (const Neighbor& n : neighbors) {
    uint64_t words[2] = {n.index, 0};
    std::memcpy(&words[1], &n.distance, sizeof(words[1]));
    const unsigned char* p = reinterpret_cast<const unsigned char*>(words);
    for (size_t i = 0; i < sizeof(words); ++i) {
      h ^= p[i];
      h *= 1099511628211ULL;
    }
  }
  return h;
}

// The recipes below are the ServingGoldenTest recipes of serving_test.cc.
Dataset MixedPopulations(uint64_t seed) {
  MultiPopulationConfig config;
  LatentFactorConfig pop;
  pop.num_records = 180;
  pop.num_attributes = 40;
  pop.num_concepts = 6;
  pop.num_classes = 4;
  pop.class_separation = 1.0;
  pop.noise_stddev = 0.4;
  pop.seed = seed;
  config.populations.push_back(pop);
  pop.seed = seed + 100;
  config.populations.push_back(pop);
  config.center_separation = 2.0;
  config.seed = seed + 1;
  return GenerateMultiPopulation(config);
}

Dataset DynamicData() {
  LatentFactorConfig config;
  config.num_records = 300;
  config.num_attributes = 30;
  config.num_concepts = 5;
  config.num_classes = 2;
  config.noise_stddev = 0.5;
  config.seed = 701;
  return GenerateLatentFactor(config);
}

EngineOptions StaticOptions(IndexBackend backend) {
  EngineOptions options;
  options.reduction.strategy = SelectionStrategy::kCoherenceOrder;
  options.reduction.target_dim = 8;
  options.backend = backend;
  return options;
}

DynamicEngineOptions DynamicOptions() {
  DynamicEngineOptions options;
  options.reduction.scaling = PcaScaling::kCorrelation;
  options.reduction.strategy = SelectionStrategy::kCoherenceOrder;
  options.reduction.target_dim = 5;
  options.drift_window = 40;
  return options;
}

LocalEngineOptions LocalOptions(size_t probes) {
  LocalEngineOptions options;
  options.num_clusters = 3;
  options.cluster_subspace_dim = 10;
  options.reduction.scaling = PcaScaling::kCorrelation;
  options.reduction.strategy = SelectionStrategy::kCoherenceOrder;
  options.reduction.target_dim = 6;
  options.probe_clusters = probes;
  return options;
}

void ExpectSameAnswer(const std::vector<Neighbor>& got, const QueryStats& got_stats,
                      const std::vector<Neighbor>& want,
                      const QueryStats& want_stats, const std::string& label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  for (size_t j = 0; j < got.size(); ++j) {
    EXPECT_EQ(got[j].index, want[j].index) << label << " slot " << j;
    uint64_t got_bits;
    uint64_t want_bits;
    std::memcpy(&got_bits, &got[j].distance, sizeof(got_bits));
    std::memcpy(&want_bits, &want[j].distance, sizeof(want_bits));
    EXPECT_EQ(got_bits, want_bits) << label << " slot " << j;
  }
  EXPECT_EQ(got_stats.distance_evaluations, want_stats.distance_evaluations)
      << label;
  EXPECT_EQ(got_stats.nodes_visited, want_stats.nodes_visited) << label;
  EXPECT_EQ(got_stats.candidates_refined, want_stats.candidates_refined)
      << label;
  EXPECT_EQ(got_stats.truncated, want_stats.truncated) << label;
  EXPECT_EQ(got_stats.brownout_level, want_stats.brownout_level) << label;
  EXPECT_EQ(got_stats.rerank_dropped, want_stats.rerank_dropped) << label;
}

// Builds three engines from one recipe — plain, explain on, admission on —
// and checks that every serial entry point answers each query with the same
// neighbours and QueryStats as the plain 4-argument Query.
template <typename Options, typename Build>
void ExpectEntryPointsAgree(const std::string& engine, const Dataset& data,
                            Options options, Build build) {
  auto plain = build(options);
  ASSERT_TRUE(plain.ok()) << plain.status().ToString();
  Options explain_options = options;
  explain_options.explain = true;
  auto explained = build(explain_options);
  ASSERT_TRUE(explained.ok()) << explained.status().ToString();
  Options admission_options = options;
  admission_options.admission.enabled = true;
  auto admitted = build(admission_options);
  ASSERT_TRUE(admitted.ok()) << admitted.status().ToString();

  for (size_t q = 0; q < 12; ++q) {
    const size_t row = q * 23 % data.NumRecords();
    const Vector query = data.Record(row);
    // Half the queries exclude their own row, the rest take no skip.
    const size_t skip = q % 2 == 0 ? row : KnnIndex::kNoSkip;
    const std::string label = engine + " query " + std::to_string(q);

    QueryStats want_stats;
    const std::vector<Neighbor> want =
        plain->serving().Query(query, 5, skip, &want_stats);

    QueryStats stats;
    std::vector<Neighbor> got =
        plain->serving().Query(query, 5, skip, &stats, QueryLimits());
    ExpectSameAnswer(got, stats, want, want_stats, label + " inactive limits");

    stats = QueryStats();
    obs::QueryProfile profile;
    got = plain->serving().Query(query, 5, skip, &stats, QueryLimits(),
                                 &profile);
    ExpectSameAnswer(got, stats, want, want_stats, label + " profiled");

    stats = QueryStats();
    got = explained->serving().Query(query, 5, skip, &stats);
    ExpectSameAnswer(got, stats, want, want_stats, label + " explain");

    stats = QueryStats();
    got.clear();
    ASSERT_TRUE(plain->serving()
                    .TryQuery(query, 5, skip, &stats, QueryLimits(), &got)
                    .ok());
    ExpectSameAnswer(got, stats, want, want_stats, label + " TryQuery");

    stats = QueryStats();
    got.clear();
    ASSERT_TRUE(admitted->serving()
                    .TryQuery(query, 5, skip, &stats, QueryLimits(), &got)
                    .ok());
    ExpectSameAnswer(got, stats, want, want_stats,
                     label + " TryQuery under admission");
  }
}

TEST(ServingParityTest, EveryEntryPointAgreesOnEveryEngine) {
  const Dataset ionosphere = IonosphereLike(152);
  for (IndexBackend backend :
       {IndexBackend::kKdTree, IndexBackend::kLinearScan}) {
    ExpectEntryPointsAgree(
        IndexBackendName(backend), ionosphere, StaticOptions(backend),
        [&](const EngineOptions& options) {
          return ReducedSearchEngine::Build(ionosphere, options);
        });
  }
  const Dataset dynamic = DynamicData();
  ExpectEntryPointsAgree("dynamic", dynamic, DynamicOptions(),
                         [&](const DynamicEngineOptions& options) {
                           return DynamicReducedIndex::Build(dynamic, options);
                         });
  const Dataset mixed = MixedPopulations(411);
  ExpectEntryPointsAgree("local", mixed, LocalOptions(2),
                         [&](const LocalEngineOptions& options) {
                           return LocalReducedSearchEngine::Build(mixed,
                                                                  options);
                         });
}

// Switches the metrics registry, the tracer and the query log off for the
// test's lifetime, restoring the registry (the process default) afterwards.
class ObservabilityOff {
 public:
  ObservabilityOff() : registry_was_on_(obs::MetricsRegistry::Enabled()) {
    obs::MetricsRegistry::SetEnabled(false);
    obs::Tracer::Global().Stop();
    obs::QueryLog::Global().Stop();
  }
  ~ObservabilityOff() { obs::MetricsRegistry::SetEnabled(registry_was_on_); }

 private:
  bool registry_was_on_;
};

TEST(ServingGoldenTest, HashesReproduceWithEveryObservabilityLayerOff) {
  ObservabilityOff off;
  ASSERT_FALSE(obs::MetricsRegistry::Enabled());
  ASSERT_FALSE(obs::Tracer::Enabled());
  ASSERT_FALSE(obs::QueryLog::Enabled());

  const Dataset ionosphere = IonosphereLike(152);
  for (IndexBackend backend :
       {IndexBackend::kLinearScan, IndexBackend::kKdTree,
        IndexBackend::kVaFile, IndexBackend::kVpTree,
        IndexBackend::kRStarTree}) {
    Result<ReducedSearchEngine> engine =
        ReducedSearchEngine::Build(ionosphere, StaticOptions(backend));
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    uint64_t h = kFnvSeed;
    for (size_t q = 0; q < 20; ++q) {
      h = HashNeighbors(
          h, engine->Query(ionosphere.Record(q * 17 % ionosphere.NumRecords()),
                           4));
    }
    EXPECT_EQ(h, 0x5fc625f230dd3617ULL) << IndexBackendName(backend);
  }

  const Dataset dynamic = DynamicData();
  auto [fit_part, insert_part] = dynamic.Split(250);
  Result<DynamicReducedIndex> index =
      DynamicReducedIndex::Build(fit_part, DynamicOptions());
  ASSERT_TRUE(index.ok()) << index.status().ToString();
  for (size_t i = 0; i < insert_part.NumRecords(); ++i) {
    ASSERT_TRUE(
        index->Insert(insert_part.Record(i), insert_part.label(i)).ok());
  }
  auto dynamic_hash = [&] {
    uint64_t h = kFnvSeed;
    for (size_t q = 0; q < 20; ++q) {
      h = HashNeighbors(
          h, index->Query(dynamic.Record(q * 13 % dynamic.NumRecords()), 5));
    }
    return h;
  };
  EXPECT_EQ(dynamic_hash(), 0xf57cdcc25ad7f662ULL) << "after inserts";
  ASSERT_TRUE(index->Refit().ok());
  EXPECT_EQ(dynamic_hash(), 0x83284f467ec26586ULL) << "after refit";

  const Dataset mixed = MixedPopulations(411);
  const std::pair<size_t, uint64_t> local_cases[] = {
      {1, 0x7612cde2a47eb504ULL},
      {3, 0x3513a7c9bc68e92bULL},
  };
  for (const auto& [probes, expected] : local_cases) {
    Result<LocalReducedSearchEngine> engine =
        LocalReducedSearchEngine::Build(mixed, LocalOptions(probes));
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    uint64_t h = kFnvSeed;
    for (size_t q = 0; q < 15; ++q) {
      h = HashNeighbors(
          h, engine->Query(mixed.Record(q * 11 % mixed.NumRecords()), 5));
    }
    EXPECT_EQ(h, expected) << "probes=" << probes;
  }
}

TEST(ServingBatchTest, LinearScanBatchWithRegistryOffMatchesSerialBitwise) {
  ObservabilityOff off;
  const Dataset data = IonosphereLike(152);
  Result<ReducedSearchEngine> engine = ReducedSearchEngine::Build(
      data, StaticOptions(IndexBackend::kLinearScan));
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  // More rows than one batch chunk, and a count that leaves a short chunk.
  const size_t n = 37;
  Matrix queries(n, data.NumAttributes());
  for (size_t i = 0; i < n; ++i) queries.SetRow(i, data.Record(i * 7));

  QueryStats batch_stats;
  const std::vector<std::vector<Neighbor>> batch =
      engine->QueryBatch(queries, 6, &batch_stats);
  ASSERT_EQ(batch.size(), n);
  QueryStats serial_stats;
  for (size_t i = 0; i < n; ++i) {
    QueryStats row_stats;
    const std::vector<Neighbor> serial =
        engine->Query(queries.Row(i), 6, KnnIndex::kNoSkip, &row_stats);
    ExpectSameAnswer(batch[i], row_stats, serial, row_stats,
                     "row " + std::to_string(i));
    serial_stats.MergeFrom(row_stats);
  }
  EXPECT_EQ(batch_stats.distance_evaluations,
            serial_stats.distance_evaluations);
}

TEST(ServingExplainTest, TryQueryUnderAdmissionCapturesLastProfile) {
  const Dataset data = IonosphereLike(152);
  EngineOptions options = StaticOptions(IndexBackend::kKdTree);
  options.explain = true;
  options.admission.enabled = true;
  Result<ReducedSearchEngine> engine = ReducedSearchEngine::Build(data, options);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();

  obs::QueryProfile profile;
  ASSERT_FALSE(engine->serving().LastProfile(&profile));
  QueryStats stats;
  std::vector<Neighbor> neighbors;
  ASSERT_TRUE(engine->serving()
                  .TryQuery(data.Record(3), 4, KnnIndex::kNoSkip, &stats,
                            QueryLimits(), &neighbors)
                  .ok());
  ASSERT_TRUE(engine->serving().LastProfile(&profile));
  EXPECT_EQ(profile.k, 4u);
  EXPECT_EQ(profile.distance_evaluations, stats.distance_evaluations);
  EXPECT_EQ(profile.nodes_visited, stats.nodes_visited);
  EXPECT_EQ(profile.candidates_refined, stats.candidates_refined);
  uint64_t phase_evaluations = 0;
  for (const obs::QueryPhase& phase : profile.phases) {
    phase_evaluations += phase.distance_evaluations;
  }
  EXPECT_EQ(phase_evaluations, profile.distance_evaluations);
}

// Bad input comes back as InvalidArgument before admission: no slot is
// taken and nothing is counted as offered or shed, so a valid query right
// after still gets the single slot.
template <typename Engine>
void ExpectBadInputRejected(const Engine& engine, const Dataset& data,
                            const std::string& label) {
  const ServingCore& serving = engine.serving();
  ASSERT_NE(serving.admission(), nullptr) << label;
  Vector too_short(data.NumAttributes() - 1, 0.5);
  Vector too_long(data.NumAttributes() + 1, 0.5);
  Vector with_nan = data.Record(0);
  with_nan[1] = std::numeric_limits<double>::quiet_NaN();
  Vector with_inf = data.Record(0);
  with_inf[0] = -std::numeric_limits<double>::infinity();
  for (const Vector* bad : {&too_short, &too_long, &with_nan, &with_inf}) {
    std::vector<Neighbor> out;
    QueryStats stats;
    const Status status = serving.TryQuery(*bad, 4, KnnIndex::kNoSkip, &stats,
                                           QueryLimits(), &out);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument)
        << label << ": " << status.ToString();
    EXPECT_TRUE(out.empty()) << label;
    EXPECT_EQ(stats.distance_evaluations, 0u) << label;
  }
  AdmissionTotals totals = serving.admission()->Totals();
  EXPECT_EQ(totals.offered, 0u) << label;
  EXPECT_EQ(totals.shed, 0u) << label;

  std::vector<Neighbor> out;
  ASSERT_TRUE(serving
                  .TryQuery(data.Record(2), 4, KnnIndex::kNoSkip, nullptr,
                            QueryLimits(), &out)
                  .ok())
      << label;
  EXPECT_EQ(out.size(), 4u) << label;
  totals = serving.admission()->Totals();
  EXPECT_EQ(totals.offered, 1u) << label;
  EXPECT_EQ(totals.admitted, 1u) << label;
}

TEST(ServingInputTest, TryQueryRejectsBadInputOnStaticAndLocalEngines) {
  const Dataset ionosphere = IonosphereLike(152);
  EngineOptions static_options = StaticOptions(IndexBackend::kKdTree);
  static_options.admission.enabled = true;
  static_options.admission.max_concurrency = 1;
  Result<ReducedSearchEngine> static_engine =
      ReducedSearchEngine::Build(ionosphere, static_options);
  ASSERT_TRUE(static_engine.ok()) << static_engine.status().ToString();
  ExpectBadInputRejected(*static_engine, ionosphere, "static");

  const Dataset mixed = MixedPopulations(411);
  LocalEngineOptions local_options = LocalOptions(2);
  local_options.admission.enabled = true;
  local_options.admission.max_concurrency = 1;
  Result<LocalReducedSearchEngine> local_engine =
      LocalReducedSearchEngine::Build(mixed, local_options);
  ASSERT_TRUE(local_engine.ok()) << local_engine.status().ToString();
  ExpectBadInputRejected(*local_engine, mixed, "local");
}

TEST(ServingInputTest, TryQueryRejectsBadInputWithAdmissionDisabled) {
  const Dataset ionosphere = IonosphereLike(152);
  Result<ReducedSearchEngine> engine = ReducedSearchEngine::Build(
      ionosphere, StaticOptions(IndexBackend::kLinearScan));
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  Vector with_nan = ionosphere.Record(0);
  with_nan[2] = std::numeric_limits<double>::quiet_NaN();
  std::vector<Neighbor> out;
  EXPECT_EQ(engine->serving()
                .TryQuery(with_nan, 4, KnnIndex::kNoSkip, nullptr,
                          QueryLimits(), &out)
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(engine->serving()
                .TryQuery(Vector(ionosphere.NumAttributes() + 2, 1.0), 4,
                          KnnIndex::kNoSkip, nullptr, QueryLimits(), &out)
                .code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace cohere
