#include "core/live_objects.h"

#include <algorithm>
#include <atomic>
#include <utility>

#include "common/check.h"

namespace viptree {

namespace {

bool HasAllStrings(const std::vector<std::string>& have,
                   const std::vector<std::string>& wanted) {
  for (const std::string& word : wanted) {
    if (std::find(have.begin(), have.end(), word) == have.end()) return false;
  }
  return true;
}

}  // namespace

bool ObjectSnapshot::IsRemoved(ObjectId o) const {
  return std::binary_search(removed.begin(), removed.end(), o);
}

const ObjectSnapshot::OverlayEntry* ObjectSnapshot::FindOverlay(
    ObjectId o) const {
  const auto it = std::lower_bound(
      overlay.begin(), overlay.end(), o,
      [](const OverlayEntry& e, ObjectId id) { return e.id < id; });
  return (it != overlay.end() && it->id == o) ? &*it : nullptr;
}

LiveObjectIndex::LiveObjectIndex(
    const IPTree& tree, std::vector<IndoorPoint> objects,
    std::vector<std::vector<std::string>> keywords, const Options& options)
    : tree_(tree), options_(options) {
  VIPTREE_CHECK_MSG(keywords.empty() || keywords.size() == objects.size(),
                    "object keywords must align with the object list");
  std::lock_guard<std::mutex> lock(write_mu_);
  positions_ = std::move(objects);
  has_keywords_ = !keywords.empty();
  keyword_strings_ = std::move(keywords);
  keyword_strings_.resize(positions_.size());
  removed_flags_.assign(positions_.size(), 0);
  RebuildLocked();
  PublishLocked();
}

LiveObjectIndex::LiveObjectIndex(const IPTree& tree,
                                 std::shared_ptr<const ObjectIndex> base,
                                 std::shared_ptr<const KeywordIndex> keywords,
                                 const Options& options)
    : tree_(tree), options_(options) {
  VIPTREE_CHECK_MSG(base != nullptr,
                    "LiveObjectIndex adopted a null ObjectIndex");
  std::lock_guard<std::mutex> lock(write_mu_);
  positions_ = base->objects();
  has_keywords_ = keywords != nullptr;
  keyword_strings_.assign(positions_.size(), {});
  if (keywords != nullptr) {
    // Recover the per-object keyword strings so later merges can rebuild
    // the keyword index from the canonical writer state.
    const KeywordIndex::Parts parts = keywords->ToParts();
    for (size_t o = 0; o < parts.object_keywords.size(); ++o) {
      for (const KeywordIndex::KeywordId id : parts.object_keywords[o]) {
        keyword_strings_[o].push_back(parts.keywords_by_id[id]);
      }
    }
  }
  removed_flags_.assign(positions_.size(), 0);
  base_ = std::move(base);
  base_keywords_ = std::move(keywords);
  PublishLocked();
}

std::shared_ptr<const ObjectSnapshot> LiveObjectIndex::Acquire() const {
  return std::atomic_load(&snapshot_);
}

void LiveObjectIndex::SetObjects(
    std::vector<IndoorPoint> objects,
    std::vector<std::vector<std::string>> keywords) {
  VIPTREE_CHECK_MSG(keywords.empty() || keywords.size() == objects.size(),
                    "object keywords must align with the object list");
  std::lock_guard<std::mutex> lock(write_mu_);
  positions_ = std::move(objects);
  has_keywords_ = !keywords.empty();
  keyword_strings_ = std::move(keywords);
  keyword_strings_.resize(positions_.size());
  removed_flags_.assign(positions_.size(), 0);
  removed_ids_.clear();
  RebuildLocked();
  PublishLocked();
}

std::optional<std::string> LiveObjectIndex::ApplyDelta(
    const ObjectDelta& delta) {
  std::lock_guard<std::mutex> lock(write_mu_);
  const size_t num_ids = positions_.size();
  const size_t num_partitions = tree_.venue().NumPartitions();

  // Validate everything before touching any state: a rejected delta must
  // leave the published snapshot (and the writer state) untouched.
  const auto valid_partition = [num_partitions](const IndoorPoint& p) {
    return p.partition >= 0 &&
           static_cast<size_t>(p.partition) < num_partitions;
  };
  std::vector<ObjectId> touched;
  touched.reserve(delta.moves.size() + delta.removes.size());
  for (const ObjectDelta::Move& move : delta.moves) {
    if (move.id < 0 || static_cast<size_t>(move.id) >= num_ids) {
      return "move targets unknown object id " + std::to_string(move.id);
    }
    if (removed_flags_[move.id] != 0) {
      return "move targets removed object id " + std::to_string(move.id);
    }
    if (!valid_partition(move.to)) {
      return "move of object " + std::to_string(move.id) +
             " targets out-of-range partition " +
             std::to_string(move.to.partition);
    }
    touched.push_back(move.id);
  }
  for (const ObjectId id : delta.removes) {
    if (id < 0 || static_cast<size_t>(id) >= num_ids) {
      return "remove targets unknown object id " + std::to_string(id);
    }
    if (removed_flags_[id] != 0) {
      return "remove targets already-removed object id " + std::to_string(id);
    }
    touched.push_back(id);
  }
  std::sort(touched.begin(), touched.end());
  if (std::adjacent_find(touched.begin(), touched.end()) != touched.end()) {
    return "delta touches one object id twice";
  }
  for (const ObjectDelta::Add& add : delta.adds) {
    if (!valid_partition(add.at)) {
      return "add targets out-of-range partition " +
             std::to_string(add.at.partition);
    }
    if (!has_keywords_ && !add.keywords.empty()) {
      return "venue has no keyword index; adds cannot carry keywords";
    }
  }

  // Apply to the canonical writer state and to the overlay. An id outside
  // the overlay (and not removed) still sits where base_ has it: record
  // that leaf on its first move, for the next merge to rebuild.
  for (const ObjectDelta::Move& move : delta.moves) {
    if (FindOverlayLocked(move.id) == overlay_.end()) {
      ObjectIndex::Arrival changed;
      changed.id = move.id;
      changed.from_leaf = tree_.LeafOfPartition(positions_[move.id].partition);
      changed_.push_back(changed);
    }
    positions_[move.id] = move.to;
    UpsertOverlayLocked(move.id);
  }
  for (const ObjectId id : delta.removes) {
    removed_flags_[id] = 1;
    removed_ids_.insert(
        std::lower_bound(removed_ids_.begin(), removed_ids_.end(), id), id);
    EraseOverlayLocked(id);
  }
  for (const ObjectDelta::Add& add : delta.adds) {
    const ObjectId id = static_cast<ObjectId>(positions_.size());
    positions_.push_back(add.at);
    keyword_strings_.push_back(add.keywords);
    removed_flags_.push_back(0);
    ObjectIndex::Arrival added;
    added.id = id;
    changed_.push_back(added);
    UpsertOverlayLocked(id);
  }

  // Velocity partitioning's cold path: once the hot overlay outgrows the
  // watermark, fold it back into the packed base, rebuilding only the
  // leaves it touched.
  if (overlay_.size() > options_.merge_watermark) MergeLocked();
  PublishLocked();
  return std::nullopt;
}

std::vector<ObjectSnapshot::OverlayEntry>::iterator
LiveObjectIndex::FindOverlayLocked(ObjectId id) {
  const auto it = std::lower_bound(
      overlay_.begin(), overlay_.end(), id,
      [](const ObjectSnapshot::OverlayEntry& e, ObjectId want) {
        return e.id < want;
      });
  return (it != overlay_.end() && it->id == id) ? it : overlay_.end();
}

void LiveObjectIndex::UpsertOverlayLocked(ObjectId id) {
  EraseOverlayLocked(id);
  const IndoorPoint& point = positions_[id];
  overlay_.insert(std::lower_bound(overlay_.begin(), overlay_.end(), id,
                                   [](const ObjectSnapshot::OverlayEntry& e,
                                      ObjectId want) { return e.id < want; }),
                  {id, point, keyword_strings_[id]});
  const TreeNode& leaf = tree_.node(tree_.LeafOfPartition(point.partition));
  OverlayObject scored{id, point, leaf.leaf_begin,
                       std::vector<double>(leaf.access_doors.size())};
  ObjectIndex::FillDoorRow(tree_, leaf, point, scored.row.data(), 1);
  const auto at = std::lower_bound(
      overlay_by_leaf_.begin(), overlay_by_leaf_.end(), scored,
      [](const OverlayObject& a, const OverlayObject& b) {
        return a.leaf_dfs != b.leaf_dfs ? a.leaf_dfs < b.leaf_dfs
                                        : a.id < b.id;
      });
  overlay_by_leaf_.insert(at, std::move(scored));
}

void LiveObjectIndex::EraseOverlayLocked(ObjectId id) {
  const auto it = FindOverlayLocked(id);
  if (it == overlay_.end()) return;
  overlay_.erase(it);
  overlay_by_leaf_.erase(
      std::find_if(overlay_by_leaf_.begin(), overlay_by_leaf_.end(),
                   [id](const OverlayObject& o) { return o.id == id; }));
}

void LiveObjectIndex::RebuildLocked() {
  base_ = std::make_shared<const ObjectIndex>(tree_, positions_);
  changed_.clear();
  AdoptBaseLocked();
}

void LiveObjectIndex::MergeLocked() {
  // Every changed id arrives at its current position; a live one brings
  // the row its overlay entry already holds (same bits as FillDoorRow).
  for (ObjectIndex::Arrival& arrival : changed_) {
    arrival.point = positions_[arrival.id];
    if (removed_flags_[arrival.id] != 0) continue;
    const uint32_t dfs =
        tree_.node(tree_.LeafOfPartition(arrival.point.partition)).leaf_begin;
    const auto it = std::lower_bound(
        overlay_by_leaf_.begin(), overlay_by_leaf_.end(),
        std::make_pair(dfs, arrival.id),
        [](const OverlayObject& o, const std::pair<uint32_t, ObjectId>& key) {
          return std::make_pair(o.leaf_dfs, o.id) < key;
        });
    VIPTREE_DCHECK(it != overlay_by_leaf_.end() && it->id == arrival.id);
    arrival.row = it->row.data();
  }
  base_ = std::make_shared<const ObjectIndex>(
      ObjectIndex::Merge(base_, std::move(changed_)));
  changed_.clear();
  AdoptBaseLocked();
}

void LiveObjectIndex::AdoptBaseLocked() {
  base_keywords_.reset();
  if (has_keywords_) {
    base_keywords_ = std::make_shared<const KeywordIndex>(tree_, *base_,
                                                          keyword_strings_);
  }
  overlay_.clear();
  overlay_by_leaf_.clear();
}

void LiveObjectIndex::PublishLocked() {
  auto next = std::make_shared<ObjectSnapshot>();
  next->epoch = next_epoch_++;
  next->base = base_;
  next->keywords = base_keywords_;
  next->overlay = overlay_;
  next->overlay_by_leaf = overlay_by_leaf_;
  next->removed = removed_ids_;
  next->num_live = positions_.size() - removed_ids_.size();
  std::atomic_store(&snapshot_,
                    std::shared_ptr<const ObjectSnapshot>(std::move(next)));
}

LiveObjectIndex::PackedState LiveObjectIndex::PackedParts() const {
  std::lock_guard<std::mutex> lock(write_mu_);
  PackedState state;
  if (overlay_.empty() && removed_ids_.empty()) {
    state.objects = base_->ToParts();
    if (base_keywords_ != nullptr) state.keywords = base_keywords_->ToParts();
    return state;
  }
  // Compact to the live objects with dense renumbered ids (ascending old
  // id order) so the on-disk format never sees overlays or tombstones.
  std::vector<IndoorPoint> live;
  std::vector<std::vector<std::string>> live_keywords;
  live.reserve(positions_.size() - removed_ids_.size());
  for (size_t id = 0; id < positions_.size(); ++id) {
    if (removed_flags_[id] != 0) continue;
    live.push_back(positions_[id]);
    live_keywords.push_back(keyword_strings_[id]);
  }
  const ObjectIndex packed(tree_, std::move(live));
  state.objects = packed.ToParts();
  if (has_keywords_) {
    state.keywords = KeywordIndex(tree_, packed, live_keywords).ToParts();
  }
  return state;
}

uint64_t LiveObjectIndex::MemoryBytes() const {
  std::lock_guard<std::mutex> lock(write_mu_);
  uint64_t bytes = base_->MemoryBytes();
  if (base_keywords_ != nullptr) bytes += base_keywords_->MemoryBytes();
  for (const ObjectSnapshot::OverlayEntry& entry : overlay_) {
    bytes += sizeof(entry);
    for (const std::string& word : entry.keywords) bytes += word.size();
  }
  for (const OverlayObject& scored : overlay_by_leaf_) {
    bytes += sizeof(scored) + scored.row.size() * sizeof(double);
  }
  bytes += removed_ids_.size() * sizeof(ObjectId);
  return bytes;
}

SnapshotQuery::SnapshotQuery(const IPTree& tree,
                             std::shared_ptr<const ObjectSnapshot> snapshot,
                             const DistanceQueryOptions& options,
                             DistanceCache* cache)
    : tree_(tree),
      snapshot_(std::move(snapshot)),
      knn_(tree, *snapshot_->base, options, cache) {
  VIPTREE_CHECK_MSG(snapshot_ != nullptr,
                    "SnapshotQuery over a null ObjectSnapshot");
}

void SnapshotQuery::Repin(std::shared_ptr<const ObjectSnapshot> snapshot) {
  VIPTREE_CHECK_MSG(snapshot != nullptr,
                    "SnapshotQuery repinned to a null ObjectSnapshot");
  snapshot_ = std::move(snapshot);
  knn_.Rebind(*snapshot_->base);
}

KnnQuery::Filters SnapshotQuery::LiveFilters() const {
  KnnQuery::Filters filters;
  const ObjectSnapshot* snap = snapshot_.get();
  filters.object = [snap](ObjectId o) { return !snap->Diverged(o); };
  return filters;
}

std::vector<ObjectResult> SnapshotQuery::Knn(const IndoorPoint& q, size_t k,
                                             SearchStats* stats) const {
  return knn_.KnnFiltered(q, k, LiveFilters(), stats,
                          snapshot_->overlay_by_leaf);
}

std::vector<ObjectResult> SnapshotQuery::KnnWithAscent(
    const IndoorPoint& q, size_t k, const AscentDistances& ascent,
    SearchStats* stats) const {
  return knn_.KnnFilteredWithAscent(q, k, LiveFilters(), ascent, stats,
                                    snapshot_->overlay_by_leaf);
}

std::vector<ObjectResult> SnapshotQuery::Range(const IndoorPoint& q,
                                               double radius,
                                               SearchStats* stats) const {
  return knn_.RangeFiltered(q, radius, LiveFilters(), stats,
                            snapshot_->overlay_by_leaf);
}

std::vector<ObjectResult> SnapshotQuery::BooleanKnn(
    const IndoorPoint& q, size_t k, const std::vector<std::string>& query,
    SearchStats* stats) const {
  if (stats != nullptr) *stats = SearchStats{};
  if (snapshot_->keywords == nullptr) return {};
  const ObjectSnapshot* snap = snapshot_.get();
  const KeywordIndex& kw = *snap->keywords;
  // A keyword missing from the base dictionary matches no *base* object,
  // but overlay adds may have introduced it, so overlay entries are
  // string-matched. The matching entries' leaf DFS indices (ascending, as
  // overlay_by_leaf is) admit the subtrees that hold them.
  const std::optional<std::vector<KeywordIndex::KeywordId>> wanted =
      kw.ResolveKeywords(query);
  std::vector<uint32_t> hot_dfs;
  std::vector<ObjectId> hot_ids;
  for (const OverlayObject& o : snap->overlay_by_leaf) {
    if (HasAllStrings(snap->FindOverlay(o.id)->keywords, query)) {
      hot_dfs.push_back(o.leaf_dfs);
      hot_ids.push_back(o.id);
    }
  }
  if (!wanted.has_value() && hot_ids.empty()) return {};
  std::sort(hot_ids.begin(), hot_ids.end());
  KnnQuery::Filters filters;
  filters.node = [&](NodeId n) {
    if (wanted.has_value() && kw.NodeHasAll(n, *wanted)) return true;
    const TreeNode& node = tree_.node(n);
    const auto it =
        std::lower_bound(hot_dfs.begin(), hot_dfs.end(), node.leaf_begin);
    return it != hot_dfs.end() && *it < node.leaf_end;
  };
  filters.object = [&](ObjectId o) {
    return wanted.has_value() && !snap->Diverged(o) &&
           kw.ObjectHasAll(o, *wanted);
  };
  filters.overlay = [&](ObjectId o) {
    return std::binary_search(hot_ids.begin(), hot_ids.end(), o);
  };
  return knn_.KnnFiltered(q, k, filters, stats, snap->overlay_by_leaf);
}

}  // namespace viptree
