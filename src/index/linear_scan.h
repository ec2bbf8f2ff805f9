#ifndef COHERE_INDEX_LINEAR_SCAN_H_
#define COHERE_INDEX_LINEAR_SCAN_H_

#include <memory>

#include "index/knn.h"
#include "linalg/blocked_matrix.h"

namespace cohere {

/// Exhaustive-scan k-NN: the exact reference every other engine is checked
/// against, and — per the paper's motivation — often the only competitive
/// option in full dimensionality where partition pruning fails.
///
/// Scans run block-at-a-time over 64-byte-aligned BlockedMatrix storage
/// through Metric::ComparableDistanceBlock, which dispatches to the SIMD
/// kernel tier the CPU supports; results are bitwise identical to the
/// historical per-row scalar scan at every dispatch level. Batches take
/// KnnIndex::QueryBatch (one block scan per query): a multi-query kernel
/// that loads each span once per chunk of queries measured no faster.
class LinearScanIndex final : public KnnIndex {
 public:
  /// Indexes shard-owned blocked rows. `rows` is shared with the snapshot
  /// shard (no per-index copy); `metric` must outlive the index.
  LinearScanIndex(std::shared_ptr<const BlockedMatrix> rows,
                  const Metric* metric);
  /// Convenience: copies `data` into a privately owned BlockedMatrix.
  LinearScanIndex(Matrix data, const Metric* metric);

 protected:
  std::vector<Neighbor> QueryImpl(const Vector& query, size_t k,
                                  size_t skip_index, QueryStats* stats,
                                  QueryControl* control) const override;

 public:
  size_t size() const override { return rows_->rows(); }
  size_t dims() const override { return rows_->cols(); }
  std::string name() const override { return "linear_scan"; }

  /// The indexed rows (a prefix view; see BlockedMatrix).
  const BlockedMatrix& data() const { return *rows_; }
  /// Shared handle to the indexed rows (successor indexes alias it).
  const std::shared_ptr<const BlockedMatrix>& shared_data() const {
    return rows_;
  }

 private:
  std::shared_ptr<const BlockedMatrix> rows_;
  const Metric* metric_;
};

}  // namespace cohere

#endif  // COHERE_INDEX_LINEAR_SCAN_H_
