#include "core/local_engine.h"

#include <gtest/gtest.h>

#include "data/synthetic.h"
#include "data/transforms.h"
#include "eval/knn_quality.h"
#include "index/metric.h"

namespace cohere {
namespace {

// Two latent-factor populations with disjoint concept subspaces and
// disjoint class blocks: the Section 3.1 regime.
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
  pop.seed = seed + 100;  // different loadings => different concepts
  config.populations.push_back(pop);
  config.center_separation = 2.0;
  config.seed = seed + 1;
  return GenerateMultiPopulation(config);
}

LocalEngineOptions DefaultOptions() {
  LocalEngineOptions options;
  options.num_clusters = 2;
  options.cluster_subspace_dim = 10;
  options.reduction.scaling = PcaScaling::kCorrelation;
  options.reduction.strategy = SelectionStrategy::kCoherenceOrder;
  options.reduction.target_dim = 6;
  return options;
}

TEST(LocalEngineTest, BuildsAndPartitions) {
  Dataset data = MixedPopulations(401);
  Result<LocalReducedSearchEngine> engine =
      LocalReducedSearchEngine::Build(data, DefaultOptions());
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  EXPECT_EQ(engine->NumClusters(), 2u);
  size_t total = 0;
  for (size_t c = 0; c < 2; ++c) {
    total += engine->ClusterMembers(c).size();
    EXPECT_EQ(engine->ClusterPipeline(c).ReducedDims(), 6u);
  }
  EXPECT_EQ(total, data.NumRecords());
  EXPECT_EQ(engine->assignment().size(), data.NumRecords());
}

TEST(LocalEngineTest, QueriesReturnGlobalIndices) {
  Dataset data = MixedPopulations(402);
  Result<LocalReducedSearchEngine> engine =
      LocalReducedSearchEngine::Build(data, DefaultOptions());
  ASSERT_TRUE(engine.ok());
  const auto neighbors = engine->Query(data.Record(7), 5);
  ASSERT_EQ(neighbors.size(), 5u);
  for (const Neighbor& n : neighbors) {
    EXPECT_LT(n.index, data.NumRecords());
  }
  // The query record itself is indexed: it must come back first at ~0.
  EXPECT_EQ(neighbors[0].index, 7u);
  EXPECT_NEAR(neighbors[0].distance, 0.0, 1e-9);
}

TEST(LocalEngineTest, SkipIndexExcludesGlobalRow) {
  Dataset data = MixedPopulations(403);
  Result<LocalReducedSearchEngine> engine =
      LocalReducedSearchEngine::Build(data, DefaultOptions());
  ASSERT_TRUE(engine.ok());
  for (const Neighbor& n : engine->Query(data.Record(11), 4, 11)) {
    EXPECT_NE(n.index, 11u);
  }
}

TEST(LocalEngineTest, RoutesQueriesToOwnPopulation) {
  Dataset data = MixedPopulations(404);
  Result<LocalReducedSearchEngine> engine =
      LocalReducedSearchEngine::Build(data, DefaultOptions());
  ASSERT_TRUE(engine.ok());
  // Neighbors of a record should overwhelmingly share its cluster.
  size_t same_cluster = 0;
  size_t total = 0;
  for (size_t i = 0; i < data.NumRecords(); i += 7) {
    for (const Neighbor& n : engine->Query(data.Record(i), 3, i)) {
      ++total;
      if (engine->assignment()[n.index] == engine->assignment()[i]) {
        ++same_cluster;
      }
    }
  }
  EXPECT_GT(static_cast<double>(same_cluster) / static_cast<double>(total),
            0.95);
}

TEST(LocalEngineTest, LocalBeatsGlobalOnMixedConcepts) {
  // The headline property of the extension: on multi-population data, local
  // coherence reduction preserves semantic quality better than one global
  // reduction of the same dimensionality.
  Dataset data = MixedPopulations(405);

  LocalEngineOptions local_options = DefaultOptions();
  Result<LocalReducedSearchEngine> local =
      LocalReducedSearchEngine::Build(data, local_options);
  ASSERT_TRUE(local.ok());

  size_t matches = 0;
  size_t slots = 0;
  for (size_t i = 0; i < data.NumRecords(); ++i) {
    for (const Neighbor& n : local->Query(data.Record(i), 3, i)) {
      ++slots;
      if (data.label(n.index) == data.label(i)) ++matches;
    }
  }
  const double local_accuracy =
      static_cast<double>(matches) / static_cast<double>(slots);

  // Global reduction to the same dimensionality.
  ReductionOptions global_options;
  global_options.scaling = PcaScaling::kCorrelation;
  global_options.strategy = SelectionStrategy::kCoherenceOrder;
  global_options.target_dim = 6;
  Result<ReductionPipeline> global = ReductionPipeline::Fit(data, global_options);
  ASSERT_TRUE(global.ok());
  auto metric = MakeMetric(MetricKind::kEuclidean);
  const double global_accuracy = KnnPredictionAccuracy(
      global->TransformDataset(data).features(), data.labels(), 3, *metric);

  EXPECT_GT(local_accuracy, global_accuracy);
}

TEST(LocalEngineTest, KMeansPartitionModeWorks) {
  Dataset data = MixedPopulations(406);
  LocalEngineOptions options = DefaultOptions();
  options.use_projected_clustering = false;
  Result<LocalReducedSearchEngine> engine =
      LocalReducedSearchEngine::Build(data, options);
  ASSERT_TRUE(engine.ok());
  EXPECT_EQ(engine->Query(data.Record(0), 3).size(), 3u);
}

TEST(LocalEngineTest, MultiProbeRanksInStudentizedSpace) {
  // With more than one probe, merged candidates are re-ranked by the metric
  // in the shared studentized space; the reported distances must therefore
  // be the studentized-space distances and non-decreasing.
  Dataset data = MixedPopulations(410);
  LocalEngineOptions options = DefaultOptions();
  options.num_clusters = 3;
  options.probe_clusters = 3;
  Result<LocalReducedSearchEngine> engine =
      LocalReducedSearchEngine::Build(data, options);
  ASSERT_TRUE(engine.ok());

  const Matrix studentized =
      ColumnAffineTransform::FitZScore(data.features())
          .ApplyToRows(data.features());
  auto metric = MakeMetric(MetricKind::kEuclidean);
  const size_t q = 4;
  const auto neighbors = engine->Query(data.Record(q), 5, q);
  double previous = 0.0;
  for (const Neighbor& n : neighbors) {
    EXPECT_GE(n.distance, previous);
    previous = n.distance;
    const double expected =
        metric->Distance(studentized.Row(q), studentized.Row(n.index));
    EXPECT_NEAR(n.distance, expected, 1e-9);
  }
}

TEST(LocalEngineTest, MultiProbeReturnsMoreCandidates) {
  Dataset data = MixedPopulations(407);
  LocalEngineOptions options = DefaultOptions();
  options.num_clusters = 4;
  options.probe_clusters = 4;
  Result<LocalReducedSearchEngine> engine =
      LocalReducedSearchEngine::Build(data, options);
  ASSERT_TRUE(engine.ok());
  QueryStats stats;
  const auto neighbors =
      engine->Query(data.Record(3), 6, KnnIndex::kNoSkip, &stats);
  EXPECT_EQ(neighbors.size(), 6u);
  EXPECT_EQ(stats.nodes_visited, 4u);  // all four localities probed
}

TEST(LocalEngineTest, RejectsBadOptions) {
  Dataset data = MixedPopulations(408);
  LocalEngineOptions options = DefaultOptions();
  options.num_clusters = 0;
  EXPECT_FALSE(LocalReducedSearchEngine::Build(data, options).ok());
  options = DefaultOptions();
  options.probe_clusters = 0;
  EXPECT_FALSE(LocalReducedSearchEngine::Build(data, options).ok());
  options = DefaultOptions();
  options.num_clusters = data.NumRecords() + 1;
  EXPECT_FALSE(LocalReducedSearchEngine::Build(data, options).ok());
}

TEST(LocalEngineTest, BuildsWithFewerDistinctRowsThanClusters) {
  // 12 records on 2 distinct points, 4 clusters asked: the clustering
  // returns 2 localities and the engine still answers k neighbours.
  Matrix features(12, 3);
  for (size_t i = 0; i < 12; ++i) {
    features.At(i, 0) = i % 2 == 0 ? 1.0 : -1.0;
    features.At(i, 1) = i % 2 == 0 ? 2.0 : 0.5;
    features.At(i, 2) = i % 2 == 0 ? -3.0 : 4.0;
  }
  const Dataset data(features);
  LocalEngineOptions options;
  options.num_clusters = 4;
  options.cluster_subspace_dim = 2;
  Result<LocalReducedSearchEngine> engine =
      LocalReducedSearchEngine::Build(data, options);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  EXPECT_EQ(engine->NumClusters(), 2u);
  const size_t k = 4;
  for (size_t q = 0; q < 2; ++q) {
    EXPECT_EQ(engine->Query(data.Record(q), k).size(), k) << "row " << q;
  }
  const auto batch = engine->QueryBatch(features, k);
  ASSERT_EQ(batch.size(), 12u);
  for (size_t q = 0; q < batch.size(); ++q) {
    EXPECT_EQ(batch[q].size(), k) << "row " << q;
  }
}

TEST(LocalEngineTest, DescribeListsLocalities) {
  Dataset data = MixedPopulations(409);
  Result<LocalReducedSearchEngine> engine =
      LocalReducedSearchEngine::Build(data, DefaultOptions());
  ASSERT_TRUE(engine.ok());
  const std::string desc = engine->Describe();
  EXPECT_NE(desc.find("projected clustering"), std::string::npos);
  EXPECT_NE(desc.find("locality 0"), std::string::npos);
  EXPECT_NE(desc.find("locality 1"), std::string::npos);
}

}  // namespace
}  // namespace cohere
