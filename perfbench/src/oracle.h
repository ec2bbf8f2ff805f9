// Brute-force reference answers computed from a published snapshot's own
// reduced rows. An engine answer passes when it has the same row ids in
// the same order and bitwise-equal distances; the one tie order is
// ascending (comparable distance, row id), as KnnCollector documents.
#ifndef PERFBENCH_ORACLE_H_
#define PERFBENCH_ORACLE_H_

#include <vector>

#include "core/snapshot.h"
#include "index/knn.h"
#include "linalg/vector.h"

namespace perfbench {

/// The k best of `all` in the (distance, row) order.
std::vector<cohere::Neighbor> BestK(std::vector<cohere::Neighbor> all,
                                    size_t k);

/// Exact k nearest rows of one shard to a query already in the shard's
/// reduced space; row ids are local to the shard.
std::vector<cohere::Neighbor> ScanShard(const cohere::EngineSnapshot& snapshot,
                                        const cohere::SnapshotShard& shard,
                                        const cohere::Vector& reduced_query,
                                        size_t k);

/// Reference for a single-shard snapshot (static and dynamic engines).
std::vector<cohere::Neighbor> ReferenceSingleShard(
    const cohere::EngineSnapshot& snapshot, const cohere::Vector& query,
    size_t k);

/// The shards a multi-shard snapshot routes `studentized_query` to: the
/// `probes` nearest by projected (or full-space) squared distance, ties to
/// the lower shard.
std::vector<size_t> RouteProbes(const cohere::EngineSnapshot& snapshot,
                                const cohere::Vector& studentized_query,
                                size_t probes);

/// Reference for a multi-shard snapshot with full-space re-rank: route,
/// scan each probed shard exactly, re-score the candidates by the metric in
/// the shared studentized space, keep the k best.
std::vector<cohere::Neighbor> ReferenceMultiShard(
    const cohere::EngineSnapshot& snapshot, const cohere::Vector& query,
    size_t k, size_t probes);

/// Same ids in the same order and bitwise-equal distances.
bool SameAnswer(const std::vector<cohere::Neighbor>& got,
                const std::vector<cohere::Neighbor>& want);

}  // namespace perfbench

#endif  // PERFBENCH_ORACLE_H_
