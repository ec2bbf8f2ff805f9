// Cross-dispatch-level golden tests: the serving stack must produce
// BITWISE-identical answers whichever SIMD kernel tier is active. The hash
// values are the very same pins tests/core/serving_test.cc carries for the
// pre-refactor scalar engines — if any level drifts by one distance bit or
// one neighbor, the FNV hash changes.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <vector>

#include "cluster/projected.h"
#include "core/dynamic_engine.h"
#include "core/engine.h"
#include "core/local_engine.h"
#include "data/synthetic.h"
#include "data/transforms.h"
#include "data/uci_like.h"
#include "simd/dispatch.h"

namespace cohere {
namespace {

constexpr uint64_t kFnvSeed = 1469598103934665603ULL;

uint64_t Fnv(uint64_t h, const void* data, size_t bytes) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
  return h;
}

uint64_t HashNeighbors(uint64_t h, const std::vector<Neighbor>& neighbors) {
  for (const Neighbor& n : neighbors) {
    const uint64_t index = n.index;
    uint64_t bits;
    std::memcpy(&bits, &n.distance, sizeof(bits));
    h = Fnv(h, &index, sizeof(index));
    h = Fnv(h, &bits, sizeof(bits));
  }
  return h;
}

std::vector<simd::Level> AvailableLevels() {
  std::vector<simd::Level> levels = {simd::Level::kScalar};
  if (simd::DetectedLevel() >= simd::Level::kSse2) {
    levels.push_back(simd::Level::kSse2);
  }
  if (simd::DetectedLevel() >= simd::Level::kAvx2) {
    levels.push_back(simd::Level::kAvx2);
  }
  return levels;
}

// RAII level override so a failing assertion cannot leak a forced level
// into the other tests of this binary.
class ScopedLevel {
 public:
  explicit ScopedLevel(simd::Level level)
      : previous_(simd::ActiveLevel()) {
    simd::SetActiveLevelForTest(level);
  }
  ~ScopedLevel() { simd::SetActiveLevelForTest(previous_); }

 private:
  simd::Level previous_;
};

TEST(ServingSimdGoldenTest, StaticEnginesBitIdenticalAtEveryLevel) {
  Dataset data = IonosphereLike(152);
  const IndexBackend backends[] = {
      IndexBackend::kLinearScan, IndexBackend::kKdTree, IndexBackend::kVaFile,
      IndexBackend::kVpTree, IndexBackend::kRStarTree,
  };
  for (simd::Level level : AvailableLevels()) {
    ScopedLevel scoped(level);
    for (IndexBackend backend : backends) {
      EngineOptions options;
      options.reduction.strategy = SelectionStrategy::kCoherenceOrder;
      options.reduction.target_dim = 8;
      options.backend = backend;
      Result<ReducedSearchEngine> engine =
          ReducedSearchEngine::Build(data, options);
      ASSERT_TRUE(engine.ok()) << engine.status().ToString();
      uint64_t h = kFnvSeed;
      for (size_t q = 0; q < 20; ++q) {
        const Vector query = data.Record(q * 17 % data.NumRecords());
        h = HashNeighbors(h, engine->Query(query, 4));
      }
      // Same pin as ServingGoldenTest.StaticEnginesMatchPreRefactorResults.
      EXPECT_EQ(h, 0x5fc625f230dd3617ULL)
          << IndexBackendName(backend) << " at " << simd::LevelName(level);
    }
  }
}

TEST(ServingSimdGoldenTest, LocalEngineBitIdenticalAtEveryLevel) {
  MultiPopulationConfig config;
  LatentFactorConfig pop;
  pop.num_records = 180;
  pop.num_attributes = 40;
  pop.num_concepts = 6;
  pop.num_classes = 4;
  pop.class_separation = 1.0;
  pop.noise_stddev = 0.4;
  pop.seed = 411;
  config.populations.push_back(pop);
  pop.seed = 511;
  config.populations.push_back(pop);
  config.center_separation = 2.0;
  config.seed = 412;
  Dataset data = GenerateMultiPopulation(config);

  LocalEngineOptions options;
  options.num_clusters = 3;
  options.cluster_subspace_dim = 10;
  options.reduction.scaling = PcaScaling::kCorrelation;
  options.reduction.strategy = SelectionStrategy::kCoherenceOrder;
  options.reduction.target_dim = 6;
  options.probe_clusters = 3;

  // Same pin as ServingGoldenTest.LocalEngineMatchesPreRefactorResults
  // (probes=3 case).
  for (simd::Level level : AvailableLevels()) {
    ScopedLevel scoped(level);
    Result<LocalReducedSearchEngine> engine =
        LocalReducedSearchEngine::Build(data, options);
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    uint64_t h = kFnvSeed;
    for (size_t q = 0; q < 15; ++q) {
      h = HashNeighbors(
          h, engine->Query(data.Record(q * 11 % data.NumRecords()), 5));
    }
    EXPECT_EQ(h, 0x3513a7c9bc68e92bULL) << simd::LevelName(level);
  }
}

uint64_t HashDoubles(uint64_t h, const double* values, size_t count) {
  for (size_t i = 0; i < count; ++i) {
    uint64_t bits;
    std::memcpy(&bits, &values[i], sizeof(bits));
    h = Fnv(h, &bits, sizeof(bits));
  }
  return h;
}

// Every output of one clustering run: the assignment, each cluster's member
// list, the bits of every centroid and basis entry, the energy and the
// iteration count.
uint64_t HashClustering(const ProjectedClusteringResult& result) {
  uint64_t h = kFnvSeed;
  for (size_t a : result.assignment) {
    const uint64_t id = a;
    h = Fnv(h, &id, sizeof(id));
  }
  for (const ProjectedCluster& cluster : result.clusters) {
    const uint64_t size = cluster.members.size();
    h = Fnv(h, &size, sizeof(size));
    for (size_t m : cluster.members) {
      const uint64_t id = m;
      h = Fnv(h, &id, sizeof(id));
    }
    h = HashDoubles(h, cluster.centroid.data(), cluster.centroid.size());
    h = HashDoubles(h, cluster.basis.data(),
                    cluster.basis.rows() * cluster.basis.cols());
  }
  h = HashDoubles(h, &result.energy, 1);
  const int64_t iterations = result.iterations;
  return Fnv(h, &iterations, sizeof(iterations));
}

// Studentized latent-factor populations, the space the local engine
// clusters in.
Matrix StudentizedPopulations(size_t populations, size_t per_population,
                              size_t d, uint64_t seed) {
  MultiPopulationConfig config;
  for (size_t p = 0; p < populations; ++p) {
    LatentFactorConfig pop;
    pop.num_records = per_population;
    pop.num_attributes = d;
    pop.num_concepts = 4;
    pop.num_classes = 8;
    pop.class_separation = 2.0;
    pop.seed = seed * 31 + p + 1;
    config.populations.push_back(pop);
  }
  config.seed = seed;
  const Dataset dataset = GenerateMultiPopulation(config);
  const Matrix& x = dataset.features();
  return ColumnAffineTransform::FitZScore(x).ApplyToRows(x);
}

TEST(ServingSimdGoldenTest, ProjectedClusteringBitIdenticalAtEveryLevel) {
  // Pinned before the merge search scored pairs from per-cluster moments:
  // the clustering's fits and distances are bitwise what they were, and the
  // merge sequence on these corpora did not move.
  struct Case {
    size_t per_population;
    size_t d;
    uint64_t seed;
    uint64_t expected;
  };
  const Case cases[] = {
      {300, 24, 1, 0x2457ee13d07a991cULL},
      {300, 24, 2, 0x26b3e3c760d8551cULL},
      {300, 24, 3, 0x5861367c0d9e387fULL},
      // local_multiprobe's shape: 4 x 1000 rows, d = 48, l = 6, k = 4.
      {1000, 48, 1, 0x5099b1f309629248ULL},
  };
  for (const Case& c : cases) {
    const Matrix data = StudentizedPopulations(4, c.per_population, c.d,
                                               c.seed);
    ProjectedClusteringOptions options;
    options.num_clusters = 4;
    options.subspace_dim = 6;
    options.seed = c.seed;
    for (simd::Level level : AvailableLevels()) {
      ScopedLevel scoped(level);
      Result<ProjectedClusteringResult> result =
          RunProjectedClustering(data, options);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      const uint64_t h = HashClustering(*result);
      EXPECT_EQ(h, c.expected)
          << std::hex << "0x" << h << std::dec << " at "
          << simd::LevelName(level) << ", " << c.per_population << " x "
          << c.d << ", seed " << c.seed;
    }
  }
}

TEST(ServingSimdGoldenTest, QueryBatchBitIdenticalAcrossLevels) {
  // The LinearScan batch override (multi-query kernel) must agree with the
  // serial Query path entry for entry, bit for bit, at every level.
  Dataset data = IonosphereLike(273);
  EngineOptions options;
  options.reduction.strategy = SelectionStrategy::kCoherenceOrder;
  options.reduction.target_dim = 8;
  options.backend = IndexBackend::kLinearScan;
  const size_t n_queries = 23;
  Matrix queries(n_queries, data.NumAttributes());
  for (size_t i = 0; i < n_queries; ++i) {
    queries.SetRow(i, data.Record(i * 7 % data.NumRecords()));
  }
  uint64_t serial_hash = 0;
  for (simd::Level level : AvailableLevels()) {
    ScopedLevel scoped(level);
    Result<ReducedSearchEngine> engine =
        ReducedSearchEngine::Build(data, options);
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    uint64_t h_serial = kFnvSeed;
    for (size_t i = 0; i < n_queries; ++i) {
      h_serial = HashNeighbors(h_serial, engine->Query(queries.Row(i), 5));
    }
    uint64_t h_batch = kFnvSeed;
    for (const auto& result : engine->QueryBatch(queries, 5)) {
      h_batch = HashNeighbors(h_batch, result);
    }
    EXPECT_EQ(h_batch, h_serial) << simd::LevelName(level);
    if (level == simd::Level::kScalar) {
      serial_hash = h_serial;
    } else {
      EXPECT_EQ(h_serial, serial_hash)
          << simd::LevelName(level) << " drifted from scalar";
    }
  }
}

TEST(ServingSimdTest, FastMathAgreesOnNeighborSets) {
  // fast_math reassociates pair sums, so distances may differ in the last
  // bits — but on this well-separated data the neighbor sets must match.
  Dataset data = IonosphereLike(331);
  EngineOptions exact;
  exact.reduction.strategy = SelectionStrategy::kCoherenceOrder;
  exact.reduction.target_dim = 8;
  exact.backend = IndexBackend::kKdTree;
  EngineOptions fast = exact;
  fast.fast_math = true;
  Result<ReducedSearchEngine> exact_engine =
      ReducedSearchEngine::Build(data, exact);
  Result<ReducedSearchEngine> fast_engine =
      ReducedSearchEngine::Build(data, fast);
  ASSERT_TRUE(exact_engine.ok());
  ASSERT_TRUE(fast_engine.ok());
  for (size_t q = 0; q < 10; ++q) {
    const Vector query = data.Record(q * 19 % data.NumRecords());
    const auto want = exact_engine->Query(query, 4);
    const auto got = fast_engine->Query(query, 4);
    ASSERT_EQ(got.size(), want.size());
    for (size_t j = 0; j < want.size(); ++j) {
      EXPECT_EQ(got[j].index, want[j].index) << "q=" << q << " slot " << j;
      EXPECT_NEAR(got[j].distance, want[j].distance,
                  1e-9 * (1.0 + want[j].distance));
    }
  }
}

}  // namespace
}  // namespace cohere
