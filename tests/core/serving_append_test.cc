#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <vector>

#include "common/fault.h"
#include "core/dynamic_engine.h"
#include "core/snapshot.h"
#include "data/synthetic.h"

namespace cohere {
namespace {

// The dynamic engine's inserts append rows to storage shared by successive
// snapshots (BlockedMatrix::AppendRow). These tests pin that sharing and the
// fork after a failed publish. The `ServingAppend` prefix puts them in the
// TSAN and ASan legs of scripts/tier1.sh.

Dataset Population() {
  LatentFactorConfig config;
  config.num_records = 300;
  config.num_attributes = 30;
  config.num_concepts = 5;
  config.num_classes = 2;
  config.noise_stddev = 0.5;
  config.seed = 701;
  return GenerateLatentFactor(config);
}

DynamicEngineOptions Options() {
  DynamicEngineOptions options;
  options.reduction.scaling = PcaScaling::kCorrelation;
  options.reduction.strategy = SelectionStrategy::kCoherenceOrder;
  options.reduction.target_dim = 5;
  options.drift_window = 40;
  return options;
}

std::shared_ptr<const EngineSnapshot> Current(
    const DynamicReducedIndex& index) {
  return index.serving().snapshot();
}

std::vector<double> Bits(const BlockedMatrix& m) {
  return std::vector<double>(m.data(), m.data() + m.rows() * m.cols());
}

bool SameBits(const BlockedMatrix& m, const std::vector<double>& bits) {
  return m.rows() * m.cols() == bits.size() &&
         (bits.empty() ||
          std::memcmp(m.data(), bits.data(), bits.size() * sizeof(double)) ==
              0);
}

// The snapshot's originals must be exactly `records`, in order.
void ExpectOriginals(const EngineSnapshot& snapshot,
                     const std::vector<Vector>& records) {
  const BlockedMatrix& originals = *snapshot.originals;
  ASSERT_EQ(originals.rows(), records.size());
  for (size_t i = 0; i < records.size(); ++i) {
    ASSERT_EQ(std::memcmp(originals.RowPtr(i), records[i].data(),
                          originals.cols() * sizeof(double)),
              0)
        << "row " << i;
  }
}

// Exhaustive k-NN over `records`, each projected through the snapshot's
// pipeline, ties broken by row index.
std::vector<Neighbor> BruteForce(const EngineSnapshot& snapshot,
                                 const std::vector<Vector>& records,
                                 const Vector& query, size_t k) {
  const ReductionPipeline& pipeline = snapshot.shards[0].pipeline;
  const Metric& metric = *snapshot.metric;
  const Vector reduced_query = pipeline.TransformPoint(query);
  std::vector<Neighbor> all;
  for (size_t i = 0; i < records.size(); ++i) {
    all.push_back({i, metric.ComparableDistance(
                          reduced_query, pipeline.TransformPoint(records[i]))});
  }
  std::stable_sort(all.begin(), all.end(),
                   [](const Neighbor& a, const Neighbor& b) {
                     return a.distance < b.distance;
                   });
  all.resize(std::min(k, all.size()));
  for (Neighbor& nb : all) nb.distance = metric.ComparableToActual(nb.distance);
  return all;
}

void ExpectMatchesBruteForce(const DynamicReducedIndex& index,
                             const std::vector<Vector>& records,
                             const std::vector<Vector>& queries) {
  const std::shared_ptr<const EngineSnapshot> snapshot = Current(index);
  for (size_t q = 0; q < queries.size(); ++q) {
    EXPECT_EQ(index.Query(queries[q], 7),
              BruteForce(*snapshot, records, queries[q], 7))
        << "query " << q;
  }
}

class ServingAppendTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fault::DisarmAll();
    fault::ResetCounters();
    auto [fit_part, rest] = Population().Split(100);
    for (size_t i = 0; i < fit_part.NumRecords(); ++i) {
      records_.push_back(fit_part.Record(i));
    }
    for (size_t i = 0; i < rest.NumRecords(); ++i) {
      pending_.push_back(rest.Record(i));
    }
    Result<DynamicReducedIndex> built =
        DynamicReducedIndex::Build(fit_part, Options());
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    index_ = std::make_unique<DynamicReducedIndex>(std::move(*built));
  }
  void TearDown() override {
    fault::DisarmAll();
    fault::ResetCounters();
  }

  // Inserts pending record `i` and records it as indexed.
  void Insert(size_t i) {
    ASSERT_TRUE(index_->Insert(pending_[i]).ok());
    records_.push_back(pending_[i]);
  }

  std::unique_ptr<DynamicReducedIndex> index_;
  std::vector<Vector> records_;  // what the index holds, in row order
  std::vector<Vector> pending_;  // 200 records not yet inserted
};

TEST_F(ServingAppendTest, InsertsUpToCapacityShareOneAllocation) {
  // Build stores its 100 rows exactly, so the first insert moves them into
  // an allocation of 200 rows; the next 99 inserts fill it in place.
  Insert(0);
  const std::shared_ptr<const EngineSnapshot> first = Current(*index_);
  const double* reduced_base = first->shards[0].rows->data();
  const double* originals_base = first->originals->data();

  std::vector<std::shared_ptr<const EngineSnapshot>> kept = {first};
  std::vector<std::vector<double>> reduced_bits = {
      Bits(*first->shards[0].rows)};
  std::vector<std::vector<double>> originals_bits = {Bits(*first->originals)};
  for (size_t i = 1; i < 100; ++i) {
    Insert(i);
    const std::shared_ptr<const EngineSnapshot> s = Current(*index_);
    EXPECT_EQ(s->shards[0].rows->data(), reduced_base) << "insert " << i;
    EXPECT_EQ(s->originals->data(), originals_base) << "insert " << i;
    kept.push_back(s);
    reduced_bits.push_back(Bits(*s->shards[0].rows));
    originals_bits.push_back(Bits(*s->originals));
  }
  ASSERT_EQ(index_->size(), 200u);

  // The allocation is full: the next insert copies into a new one.
  Insert(100);
  EXPECT_NE(Current(*index_)->shards[0].rows->data(), reduced_base);
  EXPECT_NE(Current(*index_)->originals->data(), originals_base);

  // No append wrote into a row an earlier snapshot serves.
  for (size_t v = 0; v < kept.size(); ++v) {
    EXPECT_EQ(kept[v]->shards[0].rows->rows(), 101 + v);
    EXPECT_EQ(kept[v]->originals->rows(), 101 + v);
    EXPECT_TRUE(SameBits(*kept[v]->shards[0].rows, reduced_bits[v]))
        << "snapshot " << v;
    EXPECT_TRUE(SameBits(*kept[v]->originals, originals_bits[v]))
        << "snapshot " << v;
  }
  ExpectOriginals(*Current(*index_), records_);
  ExpectMatchesBruteForce(*index_, records_,
                          {records_[3], records_[150], pending_[150]});
}

TEST_F(ServingAppendTest, FailedPublishKeepsOldSnapshotAndNextInsertIsExact) {
  for (size_t i = 0; i < 4; ++i) Insert(i);
  const std::shared_ptr<const EngineSnapshot> before = Current(*index_);
  const std::vector<double> before_bits = Bits(*before->shards[0].rows);
  const std::vector<Neighbor> before_answer = index_->Query(pending_[4], 7);

  // Every publish attempt fails, so the insert exhausts its retries.
  fault::Arm(fault::kPointSnapshotPublish, 1.0);
  EXPECT_FALSE(index_->Insert(pending_[4]).ok());
  fault::DisarmAll();
  EXPECT_EQ(Current(*index_), before);
  EXPECT_EQ(index_->size(), 104u);
  EXPECT_EQ(index_->Query(pending_[4], 7), before_answer);
  EXPECT_TRUE(SameBits(*before->shards[0].rows, before_bits));

  // The failed insert's row sits just past `before` in the shared storage;
  // the next insert must copy rather than claim that slot again.
  Insert(5);
  const std::shared_ptr<const EngineSnapshot> after = Current(*index_);
  EXPECT_NE(after->shards[0].rows->data(), before->shards[0].rows->data());
  EXPECT_NE(after->originals->data(), before->originals->data());
  EXPECT_EQ(index_->size(), 105u);
  EXPECT_TRUE(SameBits(*before->shards[0].rows, before_bits));
  ExpectOriginals(*after, records_);
  EXPECT_EQ(index_->Query(pending_[5], 1),
            (std::vector<Neighbor>{{104, 0.0}}));
  ExpectMatchesBruteForce(*index_, records_,
                          {pending_[4], pending_[5], records_[0], pending_[9]});
}

TEST_F(ServingAppendTest, RefitKeepsSharingTheOriginals) {
  Insert(0);
  const double* originals_base = Current(*index_)->originals->data();

  ASSERT_TRUE(index_->Refit().ok());
  EXPECT_EQ(Current(*index_)->originals->data(), originals_base);
  for (size_t i = 1; i < 10; ++i) {
    Insert(i);
    EXPECT_EQ(Current(*index_)->originals->data(), originals_base)
        << "insert " << i;
  }
  ExpectOriginals(*Current(*index_), records_);
  ExpectMatchesBruteForce(*index_, records_,
                          {records_[0], records_[105], pending_[20]});
}

}  // namespace
}  // namespace cohere
