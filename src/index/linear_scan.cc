#include "index/linear_scan.h"

#include <algorithm>

#include "common/check.h"

namespace cohere {
namespace {

// Rows per ComparableDistanceBlock call. A span is many SIMD row-groups:
// large enough that the per-call virtual dispatch and kernel counter cost
// vanish, small enough that the distance buffer lives on the stack.
constexpr size_t kScanSpan = 256;

}  // namespace

LinearScanIndex::LinearScanIndex(std::shared_ptr<const BlockedMatrix> rows,
                                 const Metric* metric)
    : rows_(std::move(rows)), metric_(metric) {
  COHERE_CHECK(rows_ != nullptr);
  COHERE_CHECK(metric_ != nullptr);
}

LinearScanIndex::LinearScanIndex(Matrix data, const Metric* metric)
    : LinearScanIndex(std::make_shared<BlockedMatrix>(data), metric) {}

std::vector<Neighbor> LinearScanIndex::QueryImpl(const Vector& query, size_t k,
                                                 size_t skip_index,
                                                 QueryStats* stats,
                                                 QueryControl* control) const {
  COHERE_CHECK_EQ(query.size(), rows_->cols());
  KnnCollector collector(k);
  const double* q = query.data();
  const size_t d = rows_->cols();
  const size_t n = rows_->rows();
  if (control == nullptr) {
    // Span-at-a-time scan: one block-kernel call per kScanSpan rows, then a
    // sequential offer loop — the same (index, distance) stream the
    // historical per-row loop produced, bit for bit.
    double dist[kScanSpan];
    for (size_t base = 0; base < n; base += kScanSpan) {
      const size_t span = std::min(kScanSpan, n - base);
      metric_->ComparableDistanceBlock(q, rows_->RowPtr(base), span, d, dist);
      if (skip_index - base < span) {
        for (size_t r = 0; r < span; ++r) {
          if (base + r == skip_index) continue;
          collector.Offer(base + r, dist[r]);
        }
      } else {
        for (size_t r = 0; r < span; ++r) collector.Offer(base + r, dist[r]);
      }
    }
    if (stats != nullptr) {
      // The scan evaluates every non-skipped row; count in one add instead
      // of a pointer-indirect increment inside the hot loop.
      stats->distance_evaluations += n - (skip_index < n ? 1 : 0);
    }
  } else {
    // Deadline/cancel path: per-row evaluation preserves the exact
    // truncation semantics (one control check per distance).
    size_t evaluated = 0;
    for (size_t i = 0; i < n; ++i) {
      if (i == skip_index) continue;
      if (control->ShouldStop()) break;
      const double comparable =
          metric_->ComparableDistance(q, rows_->RowPtr(i), d);
      collector.Offer(i, comparable);
      ++evaluated;
    }
    if (stats != nullptr) stats->distance_evaluations += evaluated;
  }
  std::vector<Neighbor> out = collector.Take();
  for (Neighbor& n : out) {
    n.distance = metric_->ComparableToActual(n.distance);
  }
  return out;
}

}  // namespace cohere
