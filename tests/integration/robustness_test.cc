// Failure-injection and property tests across module boundaries: malformed
// inputs must fail with Status (never crash or poison results), and the
// selection machinery must honor its ordering contracts. The FaultMatrix
// suite at the bottom asserts the documented outcome of every registered
// fault point; scripts/tier1.sh re-runs it with each point forced via
// COHERE_FAULT at probability 1.0.
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>

#include <gtest/gtest.h>

#include "common/fault.h"
#include "common/parallel.h"
#include "core/dynamic_engine.h"
#include "core/engine.h"
#include "core/local_engine.h"
#include "data/arff.h"
#include "data/csv.h"
#include "data/synthetic.h"
#include "data/uci_like.h"
#include "index/linear_scan.h"
#include "linalg/jacobi_eigen.h"
#include "linalg/power_iteration.h"
#include "linalg/svd.h"
#include "linalg/symmetric_eigen.h"
#include "obs/metrics.h"
#include "reduction/pipeline.h"
#include "reduction/serialization.h"

namespace cohere {
namespace {

TEST(RobustnessTest, MalformedCsvInputsFailCleanly) {
  CsvOptions options;
  const char* cases[] = {
      "",                         // empty
      "\n\n\n",                   // only blank lines
      "a,b,c\n",                  // all non-numeric, no header flag
      "1,2\n3\n",                 // ragged
      "1,2\nx,y\n",               // numbers then garbage
      "1,2\n3,1e999999\n",        // overflow
      ",,,\n,,,\n",               // empty fields (missing, default policy)
      "1;2\n",                    // wrong delimiter => one non-numeric field
  };
  for (const char* input : cases) {
    Result<Dataset> parsed = ParseCsv(input, options);
    EXPECT_FALSE(parsed.ok()) << "input: " << input;
  }
}

TEST(RobustnessTest, MalformedArffInputsFailCleanly) {
  const char* cases[] = {
      "",
      "@data\n1\n",                                  // data before attributes
      "@relation r\n@attribute x numeric\n",         // missing @data
      "@relation r\n@attribute x weird\n@data\n1\n", // bad type
      "@relation r\n@attribute x numeric\n@data\n1,2\n",  // arity
      "@relation r\n@attribute c {a\n@data\na\n",    // unterminated nominal
      "random noise\n",
  };
  for (const char* input : cases) {
    Result<Dataset> parsed = ParseArff(input);
    EXPECT_FALSE(parsed.ok()) << "input: " << input;
  }
}

TEST(RobustnessTest, PcaRejectsNonFiniteData) {
  Matrix data(5, 3, 1.0);
  data.At(2, 1) = std::nan("");
  EXPECT_FALSE(PcaModel::Fit(data, PcaScaling::kCovariance).ok());
  data.At(2, 1) = std::numeric_limits<double>::infinity();
  EXPECT_FALSE(PcaModel::Fit(data, PcaScaling::kCorrelation).ok());
  EXPECT_FALSE(PcaModel::FitWithSvd(data, PcaScaling::kCovariance).ok());
}

TEST(RobustnessTest, AllFiniteHelper) {
  Matrix clean(2, 2, 1.0);
  EXPECT_TRUE(AllFinite(clean));
  clean.At(0, 1) = -std::numeric_limits<double>::infinity();
  EXPECT_FALSE(AllFinite(clean));
  EXPECT_TRUE(AllFinite(Vector{1.0, 2.0}));
  EXPECT_FALSE(AllFinite(Vector{1.0, std::nan("")}));
}

TEST(PipelinePropertyTest, VarianceRetainedMonotoneInTargetDim) {
  Dataset data = IonosphereLike(1301);
  double previous = -1.0;
  for (size_t dims = 1; dims <= data.NumAttributes(); dims += 3) {
    ReductionOptions options;
    options.strategy = SelectionStrategy::kEigenvalueOrder;
    options.target_dim = dims;
    Result<ReductionPipeline> pipeline = ReductionPipeline::Fit(data, options);
    ASSERT_TRUE(pipeline.ok());
    EXPECT_GE(pipeline->VarianceRetainedFraction(), previous - 1e-12);
    previous = pipeline->VarianceRetainedFraction();
  }
  EXPECT_GT(previous, 0.9);  // near-full dims retain almost everything
}

TEST(PipelinePropertyTest, EigenvalueOrderMaximizesVarianceAtEveryDim) {
  // Among the built-in orderings, the eigenvalue prefix must retain at
  // least as much variance as the coherence prefix of the same size.
  Dataset data = NoisyDataA(1302);
  for (size_t dims : {3u, 8u, 15u}) {
    ReductionOptions eigen;
    eigen.scaling = PcaScaling::kCovariance;
    eigen.strategy = SelectionStrategy::kEigenvalueOrder;
    eigen.target_dim = dims;
    ReductionOptions coherence = eigen;
    coherence.strategy = SelectionStrategy::kCoherenceOrder;
    Result<ReductionPipeline> a = ReductionPipeline::Fit(data, eigen);
    Result<ReductionPipeline> b = ReductionPipeline::Fit(data, coherence);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_GE(a->VarianceRetainedFraction(),
              b->VarianceRetainedFraction() - 1e-12);
  }
}

TEST(PipelinePropertyTest, CoherencePrefixMaximizesCoherenceSum) {
  Dataset data = NoisyDataA(1303);
  ReductionOptions options;
  options.scaling = PcaScaling::kCovariance;
  options.strategy = SelectionStrategy::kCoherenceOrder;
  options.target_dim = 10;
  Result<ReductionPipeline> pipeline = ReductionPipeline::Fit(data, options);
  ASSERT_TRUE(pipeline.ok());
  const Vector& prob = pipeline->coherence().probability;
  double kept = 0.0;
  for (size_t c : pipeline->components()) kept += prob[c];
  // No other 10-subset can beat it; check against the eigenvalue prefix.
  double eigen_prefix = 0.0;
  for (size_t i = 0; i < 10; ++i) eigen_prefix += prob[i];
  EXPECT_GE(kept, eigen_prefix - 1e-12);
}

TEST(SerializationIntegrationTest, LoadedPipelineServesIdenticalQueries) {
  Dataset data = IonosphereLike(1304);
  ReductionOptions options;
  options.strategy = SelectionStrategy::kCoherenceOrder;
  options.target_dim = 8;
  Result<ReductionPipeline> fitted = ReductionPipeline::Fit(data, options);
  ASSERT_TRUE(fitted.ok());

  const std::string path = ::testing::TempDir() + "/pipeline_queries.txt";
  ASSERT_TRUE(SaveReductionPipeline(*fitted, path).ok());
  Result<ReductionPipeline> loaded = LoadReductionPipeline(path);
  ASSERT_TRUE(loaded.ok());

  // Build identical indexes over both reduced spaces and compare answers.
  auto metric = MakeMetric(MetricKind::kEuclidean);
  LinearScanIndex fitted_index(fitted->TransformDataset(data).features(),
                               metric.get());
  LinearScanIndex loaded_index(loaded->TransformDataset(data).features(),
                               metric.get());
  for (size_t q = 0; q < data.NumRecords(); q += 13) {
    const Vector fitted_query = fitted->TransformPoint(data.Record(q));
    const Vector loaded_query = loaded->TransformPoint(data.Record(q));
    EXPECT_EQ(fitted_index.Query(fitted_query, 5),
              loaded_index.Query(loaded_query, 5));
  }
  std::remove(path.c_str());
}

TEST(RobustnessTest, ConstantDatasetSurvivesTheWholePipeline) {
  // All-identical records: zero variance everywhere. Nothing meaningful to
  // find, but nothing may crash either.
  Dataset data(Matrix(40, 6, 3.0), std::vector<int>(40, 0));
  ReductionOptions options;
  options.strategy = SelectionStrategy::kEigenvalueOrder;
  options.target_dim = 2;
  Result<ReductionPipeline> pipeline = ReductionPipeline::Fit(data, options);
  ASSERT_TRUE(pipeline.ok());
  Dataset reduced = pipeline->TransformDataset(data);
  EXPECT_EQ(reduced.NumAttributes(), 2u);
  for (size_t i = 0; i < reduced.NumRecords(); ++i) {
    for (size_t j = 0; j < 2; ++j) {
      EXPECT_TRUE(std::isfinite(reduced.features()(i, j)));
    }
  }
}

// --- FaultMatrix: documented outcome of every registered fault point. ---
//
// Each test arms points only for its own duration (SetUp/TearDown disarm
// everything), so the suite is safe to run with additional points forced
// from the environment — COHERE_FAULT arming from the tier-1 sweep is
// deliberately cleared here and re-asserted by FaultMatrixEnvTest below.
class FaultMatrixTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fault::DisarmAll();
    fault::ResetCounters();
    ResetParallelTaskFailureCount();
  }
  void TearDown() override {
    fault::DisarmAll();
    fault::ResetCounters();
    ResetParallelTaskFailureCount();
    SetParallelThreadCount(0);
  }

  static Matrix SmallSpd() {
    Matrix m(3, 3);
    m.At(0, 0) = 4.0; m.At(0, 1) = 1.0; m.At(0, 2) = 0.5;
    m.At(1, 0) = 1.0; m.At(1, 1) = 3.0; m.At(1, 2) = 0.25;
    m.At(2, 0) = 0.5; m.At(2, 1) = 0.25; m.At(2, 2) = 2.0;
    return m;
  }
};

TEST_F(FaultMatrixTest, SymmetricEigenReturnsNumericalError) {
  fault::Arm(fault::kPointSymmetricEigen, 1.0);
  const Result<EigenDecomposition> eig = SymmetricEigen(SmallSpd());
  ASSERT_FALSE(eig.ok());
  EXPECT_EQ(eig.status().code(), StatusCode::kNumericalError);
  EXPECT_GT(fault::Point(fault::kPointSymmetricEigen)->triggers(), 0u);
  fault::DisarmAll();
  EXPECT_TRUE(SymmetricEigen(SmallSpd()).ok());  // no sticky state
}

TEST_F(FaultMatrixTest, JacobiEigenReturnsNumericalError) {
  fault::Arm(fault::kPointJacobiEigen, 1.0);
  const Result<EigenDecomposition> eig = JacobiEigen(SmallSpd());
  ASSERT_FALSE(eig.ok());
  EXPECT_EQ(eig.status().code(), StatusCode::kNumericalError);
  fault::DisarmAll();
  EXPECT_TRUE(JacobiEigen(SmallSpd()).ok());
}

TEST_F(FaultMatrixTest, PowerIterationReturnsNumericalError) {
  TopKEigenOptions top_k;
  top_k.k = 2;
  fault::Arm(fault::kPointPowerIteration, 1.0);
  const Result<EigenDecomposition> eig = TopKEigen(SmallSpd(), top_k);
  ASSERT_FALSE(eig.ok());
  EXPECT_EQ(eig.status().code(), StatusCode::kNumericalError);
  fault::DisarmAll();
  EXPECT_TRUE(TopKEigen(SmallSpd(), top_k).ok());
}

TEST_F(FaultMatrixTest, SvdReturnsNumericalError) {
  fault::Arm(fault::kPointSvd, 1.0);
  const Result<SvdDecomposition> svd = JacobiSvd(SmallSpd());
  ASSERT_FALSE(svd.ok());
  EXPECT_EQ(svd.status().code(), StatusCode::kNumericalError);
  fault::DisarmAll();
  EXPECT_TRUE(JacobiSvd(SmallSpd()).ok());
}

TEST_F(FaultMatrixTest, LoaderIoFailsFileLoadsButNotStringParses) {
  const std::string path = ::testing::TempDir() + "/fault_loader.csv";
  {
    std::ofstream out(path);
    out << "1.0,2.0\n3.0,4.0\n";
  }
  fault::Arm(fault::kPointLoaderIo, 1.0);
  CsvOptions options;
  options.label_column = CsvOptions::kNoLabelColumn;
  const Result<Dataset> loaded = LoadCsv(path, options);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIoError);
  EXPECT_FALSE(LoadArff(path).ok());
  // String-level parsing has no IO and stays immune.
  EXPECT_TRUE(ParseCsv("1.0,2.0\n3.0,4.0\n", options).ok());
  fault::DisarmAll();
  EXPECT_TRUE(LoadCsv(path, options).ok());
  std::remove(path.c_str());
}

TEST_F(FaultMatrixTest, ParallelDispatchThrowsAndThePoolSurvives) {
  SetParallelThreadCount(4);
  fault::Arm(fault::kPointParallelDispatch, 1.0);
  EXPECT_THROW(ParallelFor(0, 128, 1, [](size_t, size_t) {}),
               fault::InjectedFaultError);
  EXPECT_GT(ParallelTaskFailureCount(), 0u);
  fault::DisarmAll();

  std::atomic<int> covered{0};
  ParallelFor(0, 128, 4, [&](size_t begin, size_t end) {
    covered.fetch_add(static_cast<int>(end - begin));
  });
  EXPECT_EQ(covered.load(), 128);
}

TEST_F(FaultMatrixTest, ReductionFitDegradesInsteadOfFailing) {
  Dataset data = IonosphereLike(1401);
  ReductionOptions options;
  options.strategy = SelectionStrategy::kCoherenceOrder;
  options.target_dim = 6;
  fault::Arm(fault::kPointReductionFit, 1.0);
  const Result<ReductionPipeline> degraded =
      ReductionPipeline::Fit(data, options);
  ASSERT_TRUE(degraded.ok()) << degraded.status().ToString();
  EXPECT_EQ(degraded->ReducedDims(), 6u);

  // Opting out of degradation surfaces the underlying NumericalError.
  options.allow_degraded_fit = false;
  const Result<ReductionPipeline> strict =
      ReductionPipeline::Fit(data, options);
  ASSERT_FALSE(strict.ok());
  EXPECT_EQ(strict.status().code(), StatusCode::kNumericalError);
}

TEST_F(FaultMatrixTest, EngineBuildSurvivesEigensolverFault) {
  // The engine's pipeline fit rides the fallback chain: a solver-level
  // fault degrades the reduction instead of failing the build.
  Dataset data = IonosphereLike(1402);
  EngineOptions options;
  options.reduction.strategy = SelectionStrategy::kEigenvalueOrder;
  options.reduction.target_dim = 8;
  options.backend = IndexBackend::kLinearScan;
  fault::Arm(fault::kPointSymmetricEigen, 1.0);
  Result<ReducedSearchEngine> engine =
      ReducedSearchEngine::Build(data, options);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  EXPECT_EQ(engine->Query(data.Record(0), 3).size(), 3u);
}

TEST_F(FaultMatrixTest, LocalEngineBuildSurvivesEigensolverFault) {
  // Every eigensolve fails: the projected clustering keeps its seed bases
  // and scores every merge +inf, and each locality's pipeline fit rides the
  // fallback chain, so the local engine still builds and answers.
  MultiPopulationConfig config;
  LatentFactorConfig pop;
  pop.num_records = 120;
  pop.num_attributes = 12;
  pop.num_concepts = 3;
  pop.seed = 1403;
  config.populations.push_back(pop);
  pop.seed = 1503;
  config.populations.push_back(pop);
  config.seed = 1404;
  Dataset data = GenerateMultiPopulation(config);
  LocalEngineOptions options;
  options.num_clusters = 2;
  options.cluster_subspace_dim = 4;
  options.reduction.target_dim = 4;
  fault::Arm(fault::kPointSymmetricEigen, 1.0);
  Result<LocalReducedSearchEngine> engine =
      LocalReducedSearchEngine::Build(data, options);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  EXPECT_GT(fault::Point(fault::kPointSymmetricEigen)->triggers(), 0u);
  EXPECT_EQ(engine->Query(data.Record(0), 3).size(), 3u);
}

TEST_F(FaultMatrixTest, DynamicRefitFailureKeepsServingAndCounts) {
  LatentFactorConfig config;
  config.num_records = 200;
  config.num_attributes = 20;
  config.num_concepts = 4;
  config.num_classes = 2;
  config.seed = 1403;
  Dataset data = GenerateLatentFactor(config);
  DynamicEngineOptions options;
  options.reduction.target_dim = 4;
  Result<DynamicReducedIndex> index =
      DynamicReducedIndex::Build(data, options);
  ASSERT_TRUE(index.ok()) << index.status().ToString();

  const auto before = index->Query(data.Record(1), 4);
  const uint64_t failures_before =
      obs::MetricsRegistry::Global()
          .GetCounter("dynamic_index.refit_failures")
          ->Value();
  fault::Arm(fault::kPointDynamicRefit, 1.0);
  ASSERT_FALSE(index->Refit().ok());
  fault::DisarmAll();

  EXPECT_EQ(index->Query(data.Record(1), 4), before);
  EXPECT_GT(index->RefitBackoffRemaining(), 0u);
  EXPECT_GT(obs::MetricsRegistry::Global()
                .GetCounter("dynamic_index.refit_failures")
                ->Value(),
            failures_before);
  EXPECT_TRUE(index->Refit().ok());  // recovery once the fault clears
}

TEST_F(FaultMatrixTest, SnapshotPublishFaultKeepsOldSnapshotServing) {
  // core.snapshot.publish sits at the RCU swap itself: when a replacement
  // publish fails, the mutation (insert or refit) must report the error and
  // the previously published snapshot must keep serving, unchanged.
  LatentFactorConfig config;
  config.num_records = 200;
  config.num_attributes = 20;
  config.num_concepts = 4;
  config.num_classes = 2;
  config.seed = 1405;
  Dataset data = GenerateLatentFactor(config);
  DynamicEngineOptions options;
  options.reduction.target_dim = 4;
  Result<DynamicReducedIndex> index =
      DynamicReducedIndex::Build(data, options);
  ASSERT_TRUE(index.ok()) << index.status().ToString();
  ASSERT_EQ(index->SnapshotVersion(), 1u);

  const auto before = index->Query(data.Record(3), 4);
  fault::Arm(fault::kPointSnapshotPublish, 1.0);
  const Status insert = index->Insert(data.Record(0));
  EXPECT_FALSE(insert.ok());
  EXPECT_EQ(insert.code(), StatusCode::kInternal);
  ASSERT_FALSE(index->Refit().ok());
  fault::DisarmAll();

  // Old snapshot still serving: same size, same version, same answers.
  EXPECT_EQ(index->size(), data.NumRecords());
  EXPECT_EQ(index->SnapshotVersion(), 1u);
  EXPECT_EQ(index->Query(data.Record(3), 4), before);

  // Recovery once the fault clears.
  EXPECT_TRUE(index->Insert(data.Record(0)).ok());
  EXPECT_EQ(index->size(), data.NumRecords() + 1);
  EXPECT_EQ(index->SnapshotVersion(), 2u);
}

TEST_F(FaultMatrixTest, DeadlineTruncationFeedsTheCounter) {
  Dataset data = IonosphereLike(1404);
  EngineOptions options;
  options.reduction.strategy = SelectionStrategy::kCoherenceOrder;
  options.reduction.target_dim = 8;
  options.backend = IndexBackend::kLinearScan;
  options.query_deadline_us = 1e-3;
  Result<ReducedSearchEngine> engine =
      ReducedSearchEngine::Build(data, options);
  ASSERT_TRUE(engine.ok());

  const uint64_t exceeded_before =
      obs::MetricsRegistry::Global()
          .GetCounter("queries.deadline_exceeded")
          ->Value();
  QueryStats stats;
  engine->Query(data.Record(0), 5, KnnIndex::kNoSkip, &stats);
  EXPECT_TRUE(stats.truncated);
  EXPECT_GT(obs::MetricsRegistry::Global()
                .GetCounter("queries.deadline_exceeded")
                ->Value(),
            exceeded_before);
}

TEST_F(FaultMatrixTest, CancelTokenTruncatesWithoutTheDeadlineCounter) {
  Dataset data = IonosphereLike(1405);
  EngineOptions options;
  options.reduction.target_dim = 8;
  options.backend = IndexBackend::kLinearScan;
  Result<ReducedSearchEngine> engine =
      ReducedSearchEngine::Build(data, options);
  ASSERT_TRUE(engine.ok());

  CancelToken token;
  token.Cancel();
  QueryLimits limits;
  limits.cancel = &token;
  const uint64_t exceeded_before =
      obs::MetricsRegistry::Global()
          .GetCounter("queries.deadline_exceeded")
          ->Value();
  QueryStats stats;
  engine->Query(data.Record(0), 5, KnnIndex::kNoSkip, &stats, limits);
  EXPECT_TRUE(stats.truncated);
  // Cancellation is not a deadline miss.
  EXPECT_EQ(obs::MetricsRegistry::Global()
                .GetCounter("queries.deadline_exceeded")
                ->Value(),
            exceeded_before);
}

TEST_F(FaultMatrixTest, ConstantAttributesSurviveCoherenceOrdering) {
  // Satellite of the zero-variance handling: constant columns under
  // correlation scaling must not poison the coherence ordering.
  Dataset base = IonosphereLike(1406);
  Matrix features = base.features();
  for (size_t i = 0; i < features.rows(); ++i) {
    features.At(i, 2) = 7.0;   // two constant attributes
    features.At(i, 10) = -1.5;
  }
  Dataset data(std::move(features), std::vector<int>(base.NumRecords(), 0));
  ReductionOptions options;
  options.scaling = PcaScaling::kCorrelation;
  options.strategy = SelectionStrategy::kCoherenceOrder;
  options.target_dim = 6;
  const Result<ReductionPipeline> pipeline =
      ReductionPipeline::Fit(data, options);
  ASSERT_TRUE(pipeline.ok()) << pipeline.status().ToString();
  const Dataset reduced = pipeline->TransformDataset(data);
  for (size_t i = 0; i < reduced.NumRecords(); ++i) {
    for (size_t j = 0; j < reduced.NumAttributes(); ++j) {
      EXPECT_TRUE(std::isfinite(reduced.features().At(i, j)));
    }
  }
  if (obs::MetricsRegistry::Enabled()) {
    EXPECT_GE(obs::MetricsRegistry::Global()
                  .GetGauge("scaling.zero_variance_dims")
                  ->Value(),
              2.0);
  }
}

TEST_F(FaultMatrixTest, CacheInsertPressureDegradesToColdNotWrong) {
  // The documented outcome of cache.insert.pressure: every result/projection
  // store is dropped, so the cache never warms — but answers stay exact.
  Dataset data = IonosphereLike(1407);
  EngineOptions options;
  options.reduction.target_dim = 8;
  options.backend = IndexBackend::kLinearScan;
  options.cache_budget_bytes = 1 << 20;
  Result<ReducedSearchEngine> cached =
      ReducedSearchEngine::Build(data, options);
  ASSERT_TRUE(cached.ok()) << cached.status().ToString();
  options.cache_budget_bytes = 0;
  Result<ReducedSearchEngine> plain =
      ReducedSearchEngine::Build(data, options);
  ASSERT_TRUE(plain.ok());

  fault::Arm(fault::kPointCacheInsertPressure, 1.0);
  const Vector query = data.Record(9);
  const auto want = plain->Query(query, 4);
  for (int repeat = 0; repeat < 2; ++repeat) {
    const auto got = cached->Query(query, 4);
    ASSERT_EQ(got.size(), want.size());
    for (size_t j = 0; j < want.size(); ++j) {
      EXPECT_EQ(got[j].index, want[j].index);
      EXPECT_EQ(got[j].distance, want[j].distance);
    }
  }
  const cache::ResultCacheStats stats =
      cached->serving().result_cache()->Stats();
  EXPECT_EQ(stats.insertions, 0u);
  EXPECT_GT(stats.rejected, 0u);
  EXPECT_GT(fault::Point(fault::kPointCacheInsertPressure)->triggers(), 0u);

  fault::DisarmAll();
  cached->Query(query, 4);  // inserts now
  cached->Query(query, 4);  // and hits
  EXPECT_GT(cached->serving().result_cache()->Stats().hits, 0u);
}

TEST_F(FaultMatrixTest, AdmissionShedFaultShedsCleanlyAndOnlyWhenEnabled) {
  // The documented outcome of core.admission.shed: with admission enabled,
  // every arrival is shed with a clean ResourceExhausted (degrade, never
  // crash); with admission disabled the armed point is never consulted.
  Dataset data = IonosphereLike(1408);
  EngineOptions options;
  options.reduction.target_dim = 8;
  options.backend = IndexBackend::kLinearScan;
  options.admission.enabled = true;
  Result<ReducedSearchEngine> admitted =
      ReducedSearchEngine::Build(data, options);
  ASSERT_TRUE(admitted.ok()) << admitted.status().ToString();
  options.admission.enabled = false;
  Result<ReducedSearchEngine> plain =
      ReducedSearchEngine::Build(data, options);
  ASSERT_TRUE(plain.ok());

  fault::Arm(fault::kPointAdmissionShed, 1.0);
  QueryStats stats;
  std::vector<Neighbor> neighbors;
  const Status shed = admitted->serving().TryQuery(
      data.Record(4), 4, KnnIndex::kNoSkip, &stats, QueryLimits(),
      &neighbors);
  EXPECT_EQ(shed.code(), StatusCode::kResourceExhausted) << shed.ToString();
  EXPECT_TRUE(neighbors.empty());
  EXPECT_GT(fault::Point(fault::kPointAdmissionShed)->triggers(), 0u);
  ASSERT_TRUE(plain->serving()
                  .TryQuery(data.Record(4), 4, KnnIndex::kNoSkip, &stats,
                            QueryLimits(), &neighbors)
                  .ok());
  EXPECT_EQ(neighbors.size(), 4u);

  // Recovery once the fault clears, with the shed fully accounted.
  fault::DisarmAll();
  ASSERT_TRUE(admitted->serving()
                  .TryQuery(data.Record(4), 4, KnnIndex::kNoSkip, &stats,
                            QueryLimits(), &neighbors)
                  .ok());
  EXPECT_EQ(neighbors.size(), 4u);
  const AdmissionTotals totals = admitted->serving().admission()->Totals();
  EXPECT_EQ(totals.offered, totals.admitted + totals.shed + totals.rejected);
  EXPECT_GE(totals.shed, 1u);
}

// When scripts/tier1.sh runs this binary under COHERE_FAULT, the env spec
// must actually have armed the named points before main() — that is the
// whole point of the sweep. Skipped in ordinary runs.
TEST(FaultMatrixEnvTest, EnvSpecPointsWereArmedAtStartup) {
  const char* spec = std::getenv("COHERE_FAULT");
  if (spec == nullptr || spec[0] == '\0') {
    GTEST_SKIP() << "COHERE_FAULT not set";
  }
  // NOTE: FaultMatrixTest fixtures disarm everything they touch, so this
  // test must run while nothing has disarmed the env points yet — gtest
  // runs suites in declaration order only within a file; to stay robust we
  // re-apply the spec instead of assuming pristine state.
  ASSERT_TRUE(fault::ArmFromSpec(spec).ok()) << spec;
  bool any = false;
  for (const fault::PointInfo& info : fault::Points()) {
    any = any || info.armed;
  }
  EXPECT_TRUE(any);
  fault::DisarmAll();
  fault::ResetCounters();
}

}  // namespace
}  // namespace cohere
