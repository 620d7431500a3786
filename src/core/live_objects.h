// Live (mutable) object sets over the immutable VIP-/IP-Tree: an
// RCU-style epoch-published view of the ObjectIndex, motivated by the
// velocity-partitioning idea of "Boosting Moving Object Indexing through
// Velocity Partitioning" — hot (recently moved/added) objects live in a
// small overlay, cold objects stay in the packed ObjectIndex, and the
// overlay is merged back into the packed base once it crosses a low
// watermark. As in that paper, the hot store is queried with the same
// pruning as the cold one: each overlay entry carries its leaf and its
// access-door row (ObjectIndex::FillDoorRow, computed once when the entry
// is published), and the kNN/range branch-and-bound scores it only when
// it scans that leaf. An entry in a pruned subtree costs a read nothing,
// and an object's answer is the same bits whether or not it was merged.
//
// A merge costs what moved, not what exists (ObjectIndex::Merge): the
// next base shares every leaf no id entered or left since the last merge
// with the previous base, and rebuilds the others from the stayers' cells
// plus the overlay entries' rows. The result is byte-identical to a base
// built from scratch over the same positions.
//
// Concurrency model (the whole point of this file):
//
//   writer                           readers (any number, lock-free)
//   ------                           -------------------------------
//   lock write_mu_                   snap = Acquire()   (atomic load)
//   build next ObjectSnapshot        ... answer queries against *snap,
//   aside (patch overlay / merge         which is immutable forever ...
//   touched leaves at the watermark) drop snap          (refcount)
//   atomic_store(snapshot_, next)
//   unlock
//
// Readers pin one snapshot per query via a shared_ptr atomic load and
// never observe a half-applied update; reclamation is the shared_ptr
// refcount — the last reader of a superseded snapshot frees it. Epochs
// are strictly monotonic, so a reader can also detect publishes.
//
// Removals are tombstones: ObjectIndex requires every object id to appear
// in some leaf, so removed ids stay in the packed base at their last known
// position and are hidden by the query-side object filter. SubtreeCount
// therefore over-counts after removals, which only weakens pruning (never
// correctness). PackedParts() — the Save path — compacts to live objects
// with densely renumbered ids, so the snapshot *file* format is untouched.

#ifndef VIPTREE_CORE_LIVE_OBJECTS_H_
#define VIPTREE_CORE_LIVE_OBJECTS_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "core/keyword_query.h"
#include "core/knn_query.h"
#include "core/object_index.h"

namespace viptree {

// One batch of object mutations, applied atomically: either every
// operation takes effect in one published epoch, or (on validation
// failure) none does.
struct ObjectDelta {
  struct Move {
    ObjectId id = kInvalidId;
    IndoorPoint to;
  };
  struct Add {
    IndoorPoint at;
    // Only meaningful on venues with a keyword index; must be empty
    // otherwise (validated, not CHECKed).
    std::vector<std::string> keywords;
  };

  std::vector<Move> moves;
  std::vector<Add> adds;
  std::vector<ObjectId> removes;

  bool empty() const {
    return moves.empty() && adds.empty() && removes.empty();
  }
  size_t size() const {
    return moves.size() + adds.size() + removes.size();
  }
};

// One immutable published view of the object set. Everything here is
// written before the atomic publish and never mutated after, so any
// number of readers share it without synchronization.
struct ObjectSnapshot {
  struct OverlayEntry {
    ObjectId id = kInvalidId;
    IndoorPoint point;
    std::vector<std::string> keywords;  // empty on keywordless venues
  };

  // Strictly monotonic per LiveObjectIndex; starts at 1.
  uint64_t epoch = 0;

  // The packed cold store. `keywords` (null on keywordless venues) is
  // built over *base, so it is declared after base and destroyed first.
  std::shared_ptr<const ObjectIndex> base;
  std::shared_ptr<const KeywordIndex> keywords;

  // Hot objects diverging from `base` (moved since the last merge, or
  // added with id >= base->NumObjects()). Sorted by id.
  std::vector<OverlayEntry> overlay;
  // The same entries as the kNN search scores them, each with its leaf
  // and access-door row, ordered by (leaf DFS index, id): a subtree's
  // entries are the run over its [leaf_begin, leaf_end).
  std::vector<OverlayObject> overlay_by_leaf;
  // Tombstoned ids, sorted. Disjoint from overlay ids.
  std::vector<ObjectId> removed;

  // Live objects: ids ever allocated minus removed.
  size_t num_live = 0;

  bool IsRemoved(ObjectId o) const;
  const OverlayEntry* FindOverlay(ObjectId o) const;
  // In the overlay or tombstoned — i.e. the packed base's copy of `o` must
  // not be reported.
  bool Diverged(ObjectId o) const {
    return IsRemoved(o) || FindOverlay(o) != nullptr;
  }
};

// Tuning knobs for LiveObjectIndex. Namespace-scope (not nested) so it is
// complete where the constructors' default arguments need it.
struct LiveObjectOptions {
  // Overlay size that triggers a merge (a rebuild of the leaves the
  // overlay's ids entered or left) on the next publish. An entry costs a
  // read what a packed object does (it is scored only when the search
  // scans its leaf), so the watermark bounds the overlay's copy-per-
  // publish, not the read cost.
  size_t merge_watermark = 64;
};

// The epoch-published object store of one venue. Thread-safe: any number
// of concurrent Acquire()/readers, writers serialized on an internal
// mutex (per-venue update serialization falls out of this).
class LiveObjectIndex {
 public:
  using Options = LiveObjectOptions;

  // Builds the initial packed index from scratch. `keywords` is either
  // empty (no keyword index) or aligned with `objects`.
  LiveObjectIndex(const IPTree& tree, std::vector<IndoorPoint> objects,
                  std::vector<std::vector<std::string>> keywords = {},
                  const Options& options = Options());

  // Adopts an already-built (e.g. snapshot-loaded, possibly arena-backed)
  // index pair as epoch 1. `keywords`, when non-null, must be built over
  // *base.
  LiveObjectIndex(const IPTree& tree,
                  std::shared_ptr<const ObjectIndex> base,
                  std::shared_ptr<const KeywordIndex> keywords,
                  const Options& options = Options());

  LiveObjectIndex(const LiveObjectIndex&) = delete;
  LiveObjectIndex& operator=(const LiveObjectIndex&) = delete;

  // The current published snapshot (wait-free for practical purposes: one
  // shared_ptr atomic load). The returned snapshot is immutable; hold it
  // for the duration of one query, re-Acquire for the next.
  std::shared_ptr<const ObjectSnapshot> Acquire() const;

  uint64_t epoch() const { return Acquire()->epoch; }
  bool has_keywords() const { return Acquire()->keywords != nullptr; }
  size_t NumLiveObjects() const { return Acquire()->num_live; }

  // Full replacement: rebuilds the packed base (and keyword index) from
  // scratch, clears overlay and tombstones, publishes one new epoch.
  void SetObjects(std::vector<IndoorPoint> objects,
                  std::vector<std::vector<std::string>> keywords = {});

  // Applies one delta and publishes one new epoch, or returns an error
  // and publishes nothing. Validated, never CHECKed: out-of-range ids or
  // partitions, double-removes, duplicate ids within the delta, and
  // keyworded adds on a keywordless venue all fail cleanly. Added objects
  // get ids in submission order starting at the current id count.
  std::optional<std::string> ApplyDelta(const ObjectDelta& delta);

  // Serialization view for VenueBundle::Save: the packed parts of the
  // *live* object set. When overlay and tombstones are empty this is the
  // current base verbatim; otherwise objects are compacted to dense ids
  // in ascending old-id order (a snapshot round-trip renumbers ids once
  // updates happened — documented in the save path).
  struct PackedState {
    ObjectIndex::Parts objects;
    std::optional<KeywordIndex::Parts> keywords;
  };
  PackedState PackedParts() const;

  // Inspection accessors for single-writer call sites (tools, tests,
  // stats): the references stay valid only until the next publish, so
  // concurrent mutators must be excluded by the caller. Query paths use
  // Acquire() instead.
  const ObjectIndex& current_base() const { return *Acquire()->base; }
  const KeywordIndex& current_keywords() const { return *Acquire()->keywords; }

  // The merge threshold ApplyDelta uses (exposed for tests and the
  // benchmarks).
  size_t EffectiveMergeWatermark() const { return options_.merge_watermark; }

  uint64_t MemoryBytes() const;

 private:
  // Builds base_ from scratch over positions_ (RebuildLocked) or from the
  // previous base_ and changed_ (MergeLocked), then AdoptBaseLocked. Caller
  // holds write_mu_.
  void RebuildLocked();
  void MergeLocked();
  // Rebuilds base_keywords_ over base_ and clears the overlay base_ has
  // absorbed. Caller holds write_mu_.
  void AdoptBaseLocked();
  std::vector<ObjectSnapshot::OverlayEntry>::iterator FindOverlayLocked(
      ObjectId id);
  // Inserts or refreshes id's overlay entry from the writer state (its
  // access-door row included), or drops it. Caller holds write_mu_.
  void UpsertOverlayLocked(ObjectId id);
  void EraseOverlayLocked(ObjectId id);
  // Publishes the canonical writer state as the next epoch. Caller holds
  // write_mu_.
  void PublishLocked();

  const IPTree& tree_;
  const Options options_;

  // Writer-side canonical state, guarded by write_mu_. positions_ and
  // keyword_strings_ cover every id ever allocated (tombstones included).
  mutable std::mutex write_mu_;
  uint64_t next_epoch_ = 1;
  std::vector<IndoorPoint> positions_;
  std::vector<std::vector<std::string>> keyword_strings_;
  std::vector<uint8_t> removed_flags_;
  std::vector<ObjectId> removed_ids_;  // sorted
  bool has_keywords_ = false;
  // The current packed pair (shared with published snapshots) and the
  // overlay entries diverging from it, in both published orders.
  std::shared_ptr<const ObjectIndex> base_;
  std::shared_ptr<const KeywordIndex> base_keywords_;
  std::vector<ObjectSnapshot::OverlayEntry> overlay_;
  std::vector<OverlayObject> overlay_by_leaf_;
  // Every id moved or added since base_ was built (each once, removed ones
  // included) with its leaf in base_: the next merge's arrivals.
  std::vector<ObjectIndex::Arrival> changed_;

  // The published snapshot; accessed only through std::atomic_load /
  // std::atomic_store (C++17 shared_ptr atomics).
  std::shared_ptr<const ObjectSnapshot> snapshot_;
};

// Read-side executor over one pinned ObjectSnapshot: the object-query
// surface of KnnQuery/KeywordIndex, answering against base + overlay -
// tombstones in one branch-and-bound search. One instance per thread; it
// owns the mutable Dijkstra scratch (same contract as the core engines)
// and keeps its snapshot alive. On an epoch change, Repin to the new
// snapshot: the scratch is kept, so only construction allocates it.
class SnapshotQuery {
 public:
  // `cache` as in KnnQuery: forwarded, but no search here reads it
  // (object positions are per-snapshot state and are never cached).
  SnapshotQuery(const IPTree& tree,
                std::shared_ptr<const ObjectSnapshot> snapshot,
                const DistanceQueryOptions& options = {},
                DistanceCache* cache = nullptr);

  // Answers against `snapshot` from now on (a snapshot of the same tree),
  // reusing every piece of scratch.
  void Repin(std::shared_ptr<const ObjectSnapshot> snapshot);

  // The k nearest live objects, ascending by (distance, id).
  std::vector<ObjectResult> Knn(const IndoorPoint& q, size_t k,
                                SearchStats* stats = nullptr) const;

  // The root ascent of q over the tree, shareable across several Knn
  // calls for the same point (it depends on the tree alone, not on the
  // snapshot's objects). Knn(q, k) == KnnWithAscent(q, k,
  // ComputeAscent(q)) bit-for-bit; the execution planner computes one
  // ascent per distinct source in a coalesced kNN group.
  AscentDistances ComputeAscent(const IndoorPoint& q) const {
    return knn_.ComputeAscent(q);
  }

  // Knn with the root ascent precomputed via ComputeAscent(q).
  std::vector<ObjectResult> KnnWithAscent(const IndoorPoint& q, size_t k,
                                          const AscentDistances& ascent,
                                          SearchStats* stats = nullptr) const;

  // All live objects within `radius`, ascending by (distance, id).
  std::vector<ObjectResult> Range(const IndoorPoint& q, double radius,
                                  SearchStats* stats = nullptr) const;

  // The k nearest live objects holding all query keywords, ascending by
  // (distance, id). Returns empty when the snapshot has no keyword index
  // (the serving layer rejects such requests earlier; this keeps the race
  // window between its check and execution benign instead of
  // CHECK-fatal).
  std::vector<ObjectResult> BooleanKnn(const IndoorPoint& q, size_t k,
                                       const std::vector<std::string>& query,
                                       SearchStats* stats = nullptr) const;

  const ObjectSnapshot& snapshot() const { return *snapshot_; }
  const std::shared_ptr<const ObjectSnapshot>& snapshot_ptr() const {
    return snapshot_;
  }

 private:
  // Packed copies of overlay or tombstoned ids are stale: skip them.
  KnnQuery::Filters LiveFilters() const;

  const IPTree& tree_;
  std::shared_ptr<const ObjectSnapshot> snapshot_;
  KnnQuery knn_;  // over snapshot_->base, scoring snapshot_'s overlay
};

}  // namespace viptree

#endif  // VIPTREE_CORE_LIVE_OBJECTS_H_
