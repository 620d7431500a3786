#include "core/distance_query.h"

#include <algorithm>
#include <utility>

#include "common/check.h"
#include "common/kernels.h"
#include "common/span.h"

namespace viptree {

namespace {

// A doors x access-doors distance matrix, the one shape Eq. (1) reads: the
// IP leaf matrix at a leaf, the VIP extended matrix above the leaves (§2.2).
struct AccessMatrix {
  Span<const DoorId> rows;  // sorted; holds every seed door of the source
  const FlatMatrix<float>& dist;
  Span<const DoorId> cols;  // the node's access doors

  // One binary search per seed door, then a contiguous row of |cols| cells.
  Span<const float> RowOf(DoorId d) const {
    const int row = IPTree::IndexOf(rows, d);
    VIPTREE_DCHECK(row >= 0);
    return dist.row(static_cast<size_t>(row));
  }
};

// Eq. (1)'s trivial case: every access door of the point's own partition
// is reached directly, so dist[c] = dist(p, cols[c]) for each such c.
// Other cells are left as is.
void DirectLegs(const Venue& venue, const IndoorPoint& p,
                Span<const DoorId> cols, double* dist) {
  const Span<const DoorId> partition_doors = venue.DoorsOf(p.partition);
  for (size_t c = 0; c < cols.size(); ++c) {
    if (std::find(partition_doors.begin(), partition_doors.end(), cols[c]) !=
        partition_doors.end()) {
      dist[c] = venue.DistanceToDoor(p, cols[c]);
    }
  }
}

// Eq. (1), the one descent: dist(source, a) and its PathBack for every
// access door a of `matrix`. A door source copies its row. A point source
// takes its direct legs, then folds one row per seed door u, in order,
// strict-<: each column sees the direct leg and then the seed doors in the
// order Eq. (1) lists them cell by cell, so ties keep the first.
void AccessDoorDistances(const IPTree& tree,
                         const DistanceQueryOptions& options,
                         const QuerySource& source, const AccessMatrix& matrix,
                         std::vector<double>& dist,
                         std::vector<PathBack>& back) {
  const size_t m = matrix.cols.size();
  dist.assign(m, kInfDistance);
  back.assign(m, PathBack{});  // pred kInvalidId: straight from the source
  if (source.door != kInvalidId) {
    const Span<const float> row = matrix.RowOf(source.door);
    std::copy(row.begin(), row.end(), dist.begin());
    return;
  }
  const Venue& venue = tree.venue();
  const IndoorPoint& s = *source.point;
  DirectLegs(venue, s, matrix.cols, dist.data());
  // The superior doors of s's partition (§3.1.1, Definition 2), or all of
  // its doors when those are turned off.
  const Span<const DoorId> seeds = options.use_superior_doors
                                       ? tree.SuperiorDoors(s.partition)
                                       : venue.DoorsOf(s.partition);
  for (DoorId u : seeds) {
    const double add = venue.DistanceToDoor(s, u);
    const Span<const float> row = matrix.RowOf(u);
    for (size_t c = 0; c < m; ++c) {
      const double cand = add + row[c];
      if (cand < dist[c]) {
        dist[c] = cand;
        back[c] = PathBack{u, -1};
      }
    }
  }
}

// Algorithm 3's join at the LCA of children ns and nt: min over (i, j) of
// (sd[i] + lca_cell) + td[j], one kernel join per finite source door.
double JoinAtLca(const IPTree& tree, NodeId lca, NodeId ns, NodeId nt,
                 const double* sd, const double* td) {
  const FlatMatrix<float>& dist = tree.node(lca).dist;
  const Span<const int32_t> rows = tree.ParentMatrixPositions(ns);
  const Span<const int32_t> cols = tree.ParentMatrixPositions(nt);
  double best = kInfDistance;
  for (size_t i = 0; i < rows.size(); ++i) {
    if (sd[i] == kInfDistance) continue;
    const double cand = kernels::JoinMinIndexedF32(
        sd[i], dist.row(static_cast<size_t>(rows[i])).data(), cols.data(), td,
        cols.size());
    if (cand < best) best = cand;
  }
  return best;
}

}  // namespace

IPDistanceQuery::IPDistanceQuery(const IPTree& tree,
                                 const DistanceQueryOptions& options,
                                 DistanceCache* cache)
    : tree_(tree), options_(options), cache_(cache), dijkstra_(tree.graph()) {}

void IPDistanceQuery::DoorAscent(DoorId door, NodeId target,
                                 std::vector<double>& out) const {
  if (cache_ != nullptr &&
      cache_->LookupDistVector(CacheKind::kIpDoorAscent, door, target, &out)) {
    return;
  }
  AscentDistances ascent = GetDistances(QuerySource::Door(door), target);
  out = std::move(ascent.ad_dist.back());
  if (cache_ != nullptr) {
    cache_->InsertDistVector(CacheKind::kIpDoorAscent, door, target, out);
  }
}

NodeId IPDistanceQuery::LeafOf(const QuerySource& source) const {
  if (source.point != nullptr) {
    return tree_.LeafOfPartition(source.point->partition);
  }
  return tree_.LeavesOfDoor(source.door)[0].leaf;
}

void IPDistanceQuery::SeedLeaf(const QuerySource& source, const TreeNode& leaf,
                               std::vector<double>& dist,
                               std::vector<PathBack>& back) const {
  AccessDoorDistances(tree_, options_, source,
                      {leaf.doors, leaf.dist, leaf.access_doors}, dist, back);
}

AscentDistances IPDistanceQuery::GetDistances(const QuerySource& source,
                                              NodeId target) const {
  AscentDistances out;
  const NodeId leaf_id = LeafOf(source);
  out.chain.push_back(leaf_id);
  out.ad_dist.emplace_back();
  out.back.emplace_back();
  SeedLeaf(source, tree_.node(leaf_id), out.ad_dist[0], out.back[0]);

  NodeId cur = leaf_id;
  while (cur != target) {
    const NodeId parent = tree_.node(cur).parent;
    VIPTREE_CHECK_MSG(parent != kInvalidId,
                      "target must be an ancestor of the source leaf");
    const TreeNode& pnode = tree_.node(parent);
    const TreeNode& cnode = tree_.node(cur);
    const std::vector<double>& cdist = out.ad_dist.back();
    const int child_chain_idx = static_cast<int>(out.chain.size()) - 1;

    const size_t nc = pnode.access_doors.size();
    const size_t nb = cnode.access_doors.size();
    std::vector<double> pdist(nc, kInfDistance);
    std::vector<PathBack> pback(nc);
    // rows: child access doors, cols: parent access doors, both positioned
    // in the parent matrix.
    const Span<const int32_t> rows = tree_.ParentMatrixPositions(cur);
    const Span<const int32_t> cols = tree_.OwnMatrixPositions(parent);
    // Row-outer kernel form of the min-plus step: one gather per child
    // door over its parent-matrix row, folded into per-column accumulators
    // with the source door recorded on strict improvement. Ascending-b
    // order preserves the historical column-outer loop's first-wins argmin
    // bit-for-bit (common/kernels.h).
    step_dist_.assign(nc, kInfDistance);
    step_src_.assign(nc, -1);
    for (size_t b = 0; b < nb; ++b) {
      if (cdist[b] == kInfDistance) continue;  // inf + cell never improves
      kernels::MinPlusGatherArgF32(
          step_dist_.data(), step_src_.data(), static_cast<int32_t>(b),
          pnode.dist.row(static_cast<size_t>(rows[b])).data(), cols.data(),
          cdist[b], nc);
    }
    // "Marked" doors of Algorithm 2, already computed at the child level:
    // both access-door lists are sorted, so one merge walk finds them.
    size_t in_child = 0;
    for (size_t c = 0; c < nc; ++c) {
      const DoorId a = pnode.access_doors[c];
      while (in_child < nb && cnode.access_doors[in_child] < a) ++in_child;
      if (in_child < nb && cnode.access_doors[in_child] == a) {
        pdist[c] = cdist[in_child];
        pback[c] = out.back.back()[in_child];
        continue;
      }
      pdist[c] = step_dist_[c];
      if (step_src_[c] >= 0) {
        pback[c] = PathBack{cnode.access_doors[step_src_[c]],
                            child_chain_idx};
      }
    }
    out.chain.push_back(parent);
    out.ad_dist.push_back(std::move(pdist));
    out.back.push_back(std::move(pback));
    cur = parent;
  }
  return out;
}

LeafSearch IPDistanceQuery::StartLeafSearch(
    const QuerySource& source, NodeId leaf,
    const std::vector<double>* access_dist) const {
  const TreeNode& node = tree_.node(leaf);
  if (access_dist == nullptr) {
    SeedLeaf(source, node, leaf_seed_dist_, leaf_seed_back_);
    access_dist = &leaf_seed_dist_;
  }
  VIPTREE_DCHECK(access_dist->size() == node.access_doors.size());
  const Venue& venue = tree_.venue();
  // The source's own doors first: an access-door seed replaces one only
  // when strictly shorter (LeafSearch::EnteredFromSeed relies on this). A
  // point's doors count as entered through its partition, whose run the
  // seeds already cover (file comment of distance_query.h).
  leaf_sources_.clear();
  if (source.door != kInvalidId) {
    leaf_sources_.push_back({source.door, 0.0});
  } else {
    const PartitionId p = source.point->partition;
    for (DoorId u : venue.DoorsOf(p)) {
      leaf_sources_.push_back({u, venue.DistanceToDoor(*source.point, u), p});
    }
  }
  for (size_t c = 0; c < node.access_doors.size(); ++c) {
    if ((*access_dist)[c] == kInfDistance) continue;
    leaf_sources_.push_back({node.access_doors[c], (*access_dist)[c]});
  }
  dijkstra_.Start(leaf_sources_);
  return LeafSearch(dijkstra_, tree_, leaf, source);
}

double LeafSearch::ToPoint(const IndoorPoint& t, DoorId* via) const {
  const Venue& venue = tree_->venue();
  double best = kInfDistance;
  if (source_.point != nullptr && source_.point->partition == t.partition) {
    best = venue.IntraPartitionDistance(t.partition, source_.point->position,
                                        t.position);
  }
  DoorId best_door = kInvalidId;
  for (DoorId d : venue.DoorsOf(t.partition)) {
    if (!engine_->Settled(d)) continue;
    const double cand = engine_->DistanceTo(d) + venue.DistanceToDoor(t, d);
    if (cand < best) {
      best = cand;
      best_door = d;
    }
  }
  if (via != nullptr) *via = best_door;
  return best;
}

bool LeafSearch::EnteredFromSeed(DoorId d) const {
  if (engine_->ParentOf(d) != kInvalidId) return false;
  const Venue& venue = tree_->venue();
  double own = kInfDistance;  // the offset StartLeafSearch gave d directly
  if (source_.door != kInvalidId) {
    if (d == source_.door) own = 0.0;
  } else if (venue.DoorTouches(d, source_.point->partition)) {
    own = venue.DistanceToDoor(*source_.point, d);
  }
  return engine_->DistanceTo(d) < own;
}

double IPDistanceQuery::LocalDistance(const IndoorPoint& s,
                                      const IndoorPoint& t) const {
  LeafSearch search = StartLeafSearch(QuerySource::Point(s),
                                      tree_.LeafOfPartition(s.partition));
  search.RunTo(tree_.venue().DoorsOf(t.partition));
  return search.ToPoint(t);
}

double IPDistanceQuery::Distance(const IndoorPoint& s,
                                 const IndoorPoint& t) const {
  const NodeId ls = tree_.LeafOfPartition(s.partition);
  const NodeId lt = tree_.LeafOfPartition(t.partition);
  if (ls == lt) return LocalDistance(s, t);

  const NodeId lca = tree_.Lca(ls, lt);
  const NodeId ns = tree_.ChildToward(lca, ls);
  const NodeId nt = tree_.ChildToward(lca, lt);
  const AscentDistances as = GetDistances(QuerySource::Point(s), ns);
  const AscentDistances at = GetDistances(QuerySource::Point(t), nt);
  return JoinAtLca(tree_, lca, ns, nt, as.ad_dist.back().data(),
                   at.ad_dist.back().data());
}

double IPDistanceQuery::DoorDistance(DoorId s, DoorId t) const {
  if (s == t) return 0.0;
  // The (s, t) key is kept ordered: the join sums associate differently for
  // (t, s), so a symmetry-normalized key could differ from the direct
  // computation in the last ulp and break cache-on/off bit-identity.
  if (cache_ != nullptr) {
    double cached;
    if (cache_->LookupScalar(CacheKind::kIpDoorPair, s, t, &cached)) {
      return cached;
    }
  }
  const double d = DoorDistanceUncached(s, t);
  if (cache_ != nullptr) {
    cache_->InsertScalar(CacheKind::kIpDoorPair, s, t, d);
  }
  return d;
}

double IPDistanceQuery::DoorDistanceUncached(DoorId s, DoorId t) const {
  const NodeId leaf = tree_.CommonLeaf(s, t);
  if (leaf != kInvalidId) {
    LeafSearch search = StartLeafSearch(QuerySource::Door(s), leaf);
    search.RunTo(Span<const DoorId>(&t, 1));
    return search.DistanceTo(t);
  }
  const NodeId ls = tree_.LeavesOfDoor(s)[0].leaf;
  const NodeId lt = tree_.LeavesOfDoor(t)[0].leaf;
  const NodeId lca = tree_.Lca(ls, lt);
  const NodeId ns = tree_.ChildToward(lca, ls);
  const NodeId nt = tree_.ChildToward(lca, lt);
  DoorAscent(s, ns, s_ascent_);
  DoorAscent(t, nt, t_ascent_);
  return JoinAtLca(tree_, lca, ns, nt, s_ascent_.data(), t_ascent_.data());
}

// ---------------------------------------------------------------------------
// VIP variant
// ---------------------------------------------------------------------------

VIPDistanceQuery::VIPDistanceQuery(const VIPTree& tree,
                                   const DistanceQueryOptions& options,
                                   DistanceCache* cache)
    : vip_(tree),
      options_(options),
      cache_(cache),
      ip_(tree.base(), options, cache) {}

void VIPDistanceQuery::DistancesToNodeAd(const QuerySource& source,
                                         NodeId node,
                                         std::vector<double>& dist,
                                         std::vector<PathBack>& back) const {
  AccessDoorDistances(vip_.base(), options_, source,
                      {vip_.ExtDoors(node), vip_.ExtDistMatrix(node),
                       vip_.base().node(node).access_doors},
                      dist, back);
}

double VIPDistanceQuery::Distance(const IndoorPoint& s,
                                  const IndoorPoint& t) const {
  const IPTree& tree = vip_.base();
  const NodeId ls = tree.LeafOfPartition(s.partition);
  const NodeId lt = tree.LeafOfPartition(t.partition);
  if (ls == lt) return ip_.LocalDistance(s, t);

  const NodeId lca = tree.Lca(ls, lt);
  const NodeId ns = tree.ChildToward(lca, ls);
  const NodeId nt = tree.ChildToward(lca, lt);
  DistancesToNodeAd(QuerySource::Point(s), ns, sdist_, sback_);
  DistancesToNodeAd(QuerySource::Point(t), nt, tdist_, tback_);
  return JoinAtLca(tree, lca, ns, nt, sdist_.data(), tdist_.data());
}

double VIPDistanceQuery::DoorDistance(DoorId s, DoorId t) const {
  if (s == t) return 0.0;
  // Separate kind from the IP pair cache: the VIP join reads float ExtDist
  // cells where the IP ascent sums doubles, so the two variants' results
  // may differ in the last ulp and must never share an entry.
  if (cache_ != nullptr) {
    double cached;
    if (cache_->LookupScalar(CacheKind::kVipDoorPair, s, t, &cached)) {
      return cached;
    }
  }
  const double d = DoorDistanceUncached(s, t);
  if (cache_ != nullptr) {
    cache_->InsertScalar(CacheKind::kVipDoorPair, s, t, d);
  }
  return d;
}

double VIPDistanceQuery::DoorDistanceUncached(DoorId s, DoorId t) const {
  const IPTree& tree = vip_.base();
  if (tree.CommonLeaf(s, t) != kInvalidId) return ip_.DoorDistance(s, t);
  const NodeId ls = tree.LeavesOfDoor(s)[0].leaf;
  const NodeId lt = tree.LeavesOfDoor(t)[0].leaf;
  const NodeId lca = tree.Lca(ls, lt);
  const NodeId ns = tree.ChildToward(lca, ls);
  const NodeId nt = tree.ChildToward(lca, lt);
  DistancesToNodeAd(QuerySource::Door(s), ns, sdist_, sback_);
  DistancesToNodeAd(QuerySource::Door(t), nt, tdist_, tback_);
  return JoinAtLca(tree, lca, ns, nt, sdist_.data(), tdist_.data());
}

}  // namespace viptree
