#ifndef COHERE_CORE_SNAPSHOT_H_
#define COHERE_CORE_SNAPSHOT_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/status.h"
#include "data/transforms.h"
#include "index/knn.h"
#include "index/metric.h"
#include "linalg/blocked_matrix.h"
#include "linalg/matrix.h"
#include "reduction/pipeline.h"

namespace cohere {

/// One locality of an engine snapshot: a fitted reduction plus the index
/// built over the reduced member rows. A single-shard snapshot with empty
/// `members` is the global case (row i of the index is record i); shards
/// with `members` map local index rows back to global record ids and carry
/// the routing geometry (centroid, optional subspace basis) the serving
/// layer uses to pick which shards a query probes.
struct SnapshotShard {
  ReductionPipeline pipeline;       ///< Fitted on the member records.
  /// The reduced member rows (64-byte-aligned row storage) — the shard owns
  /// this one view and the index references it, so scan backends hold no
  /// private row storage.
  std::shared_ptr<const BlockedMatrix> rows;
  std::unique_ptr<KnnIndex> index;  ///< Over `rows`.
  std::vector<size_t> members;      ///< Global row per local row; empty = id.
  Vector centroid;                  ///< Routing centroid (studentized space).
  Matrix cluster_basis;             ///< Routing subspace; empty = full space.
};

/// The complete immutable serving state of an engine at one instant: every
/// byte a query touches. Snapshots are built aside by writers, published
/// through SnapshotHandle, and never mutated afterwards — readers that hold
/// a shared_ptr to one can use it without any synchronization while writers
/// publish successors.
struct EngineSnapshot {
  /// Monotonically increasing per-handle publish ordinal (first publish is
  /// version 1). Stamped by SnapshotHandle::Publish.
  uint64_t version = 0;

  /// The distance metric every shard index points into. Shared between
  /// successive snapshots of the same engine (the metric is stateless).
  std::shared_ptr<const Metric> metric;

  std::vector<SnapshotShard> shards;

  /// Per-record labels (kNoLabel/-1 for unlabeled); may be empty when the
  /// engine does not track labels.
  std::vector<int> labels;

  /// Original-space records, kept only by engines that need them after
  /// build (the dynamic engine's refit path); null otherwise. The dynamic
  /// engine's successive snapshots share one growable allocation (see
  /// BlockedMatrix::AppendRow).
  std::shared_ptr<const BlockedMatrix> originals;

  /// Global z-score transform and the studentized copies of every record;
  /// present on multi-locality snapshots, where routing and full-space
  /// re-ranking happen in this shared comparable space.
  bool has_studentizer = false;
  ColumnAffineTransform studentizer;
  Matrix studentized_records;

  /// Cluster id per global row (local engine); empty otherwise.
  std::vector<size_t> assignment;
};

/// The RCU-style publication point: an atomic shared_ptr to the current
/// snapshot. Readers Acquire() once per call and then work lock-free on an
/// immutable object; writers build a successor aside and Publish() it.
/// Replaced snapshots are not reclaimed eagerly — in-flight readers keep
/// them alive through their shared_ptr until the last reference drops,
/// which is the entire memory-reclamation story (no epochs, no hazard
/// pointers, just shared_ptr reference counts).
class SnapshotHandle {
 public:
  SnapshotHandle() = default;
  SnapshotHandle(const SnapshotHandle&) = delete;
  SnapshotHandle& operator=(const SnapshotHandle&) = delete;

  /// The currently served snapshot (null until the first Publish).
  std::shared_ptr<const EngineSnapshot> Acquire() const {
    return current_.load(std::memory_order_acquire);
  }

  /// Stamps `next` with the successor version and atomically swaps it in.
  /// Subject to the `core.snapshot.publish` fault point *on replacement
  /// publishes only* (an engine's initial publish cannot fail): when the
  /// fault fires, the handle is untouched — the previous snapshot keeps
  /// serving — and the injected error is returned so the writer can unwind
  /// its side state. Bumps `core.snapshot.publishes` / `core.snapshot.retired`
  /// and sets the `core.snapshot.version` gauge (last publisher wins).
  ///
  /// Writers are expected to serialize among themselves (the facades hold a
  /// writer mutex); Publish itself only promises atomicity versus readers.
  Status Publish(std::shared_ptr<EngineSnapshot> next);

  /// Version of the current snapshot (0 before the first publish).
  uint64_t version() const {
    return versions_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::shared_ptr<const EngineSnapshot>> current_;
  std::atomic<uint64_t> versions_{0};
};

}  // namespace cohere

#endif  // COHERE_CORE_SNAPSHOT_H_
