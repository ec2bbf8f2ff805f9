#include "oracle.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <utility>

#include "cluster/projected.h"

namespace perfbench {

using cohere::EngineSnapshot;
using cohere::Neighbor;
using cohere::SnapshotShard;
using cohere::Vector;

namespace {

bool ByDistanceThenRow(const Neighbor& a, const Neighbor& b) {
  return a.distance != b.distance ? a.distance < b.distance
                                  : a.index < b.index;
}

}  // namespace

std::vector<Neighbor> BestK(std::vector<Neighbor> all, size_t k) {
  const size_t keep = std::min(k, all.size());
  std::partial_sort(all.begin(), all.begin() + keep, all.end(),
                    ByDistanceThenRow);
  all.resize(keep);
  return all;
}

std::vector<Neighbor> ScanShard(const EngineSnapshot& snapshot,
                                const SnapshotShard& shard,
                                const Vector& reduced_query, size_t k) {
  const cohere::BlockedMatrix& rows = *shard.rows;
  std::vector<Neighbor> all(rows.rows());
  for (size_t i = 0; i < rows.rows(); ++i) {
    all[i] = {i, snapshot.metric->ComparableDistance(
                     reduced_query.data(), rows.RowPtr(i), rows.cols())};
  }
  std::vector<Neighbor> best = BestK(std::move(all), k);
  for (Neighbor& nb : best) {
    nb.distance = snapshot.metric->ComparableToActual(nb.distance);
  }
  return best;
}

std::vector<Neighbor> ReferenceSingleShard(const EngineSnapshot& snapshot,
                                           const Vector& query, size_t k) {
  const SnapshotShard& shard = snapshot.shards[0];
  return ScanShard(snapshot, shard, shard.pipeline.TransformPoint(query), k);
}

std::vector<size_t> RouteProbes(const EngineSnapshot& snapshot,
                                const Vector& studentized_query,
                                size_t probes) {
  std::vector<std::pair<double, size_t>> scored;
  for (size_t c = 0; c < snapshot.shards.size(); ++c) {
    const SnapshotShard& shard = snapshot.shards[c];
    double dist;
    if (!shard.cluster_basis.empty()) {
      cohere::ProjectedCluster view;
      view.centroid = shard.centroid;
      view.basis = shard.cluster_basis;
      dist = cohere::ProjectedSquaredDistance(studentized_query, view);
    } else {
      dist = (studentized_query - shard.centroid).SquaredNorm2();
    }
    scored.emplace_back(dist, c);
  }
  std::sort(scored.begin(), scored.end());
  std::vector<size_t> out;
  for (size_t i = 0; i < std::min(probes, scored.size()); ++i) {
    out.push_back(scored[i].second);
  }
  return out;
}

std::vector<Neighbor> ReferenceMultiShard(const EngineSnapshot& snapshot,
                                          const Vector& query, size_t k,
                                          size_t probes) {
  const Vector studentized = snapshot.studentizer.Apply(query);
  std::vector<Neighbor> candidates;
  for (size_t c : RouteProbes(snapshot, studentized, probes)) {
    const SnapshotShard& shard = snapshot.shards[c];
    for (const Neighbor& local :
         ScanShard(snapshot, shard, shard.pipeline.TransformPoint(query), k)) {
      const size_t row =
          shard.members.empty() ? local.index : shard.members[local.index];
      candidates.push_back(
          {row, snapshot.metric->Distance(
                    studentized, snapshot.studentized_records.Row(row))});
    }
  }
  return BestK(std::move(candidates), k);
}

bool SameAnswer(const std::vector<Neighbor>& got,
                const std::vector<Neighbor>& want) {
  if (got.size() != want.size()) return false;
  for (size_t i = 0; i < got.size(); ++i) {
    if (got[i].index != want[i].index ||
        std::bit_cast<uint64_t>(got[i].distance) !=
            std::bit_cast<uint64_t>(want[i].distance)) {
      return false;
    }
  }
  return true;
}

}  // namespace perfbench
