#include "core/distance_query.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <map>
#include <tuple>
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

AccessMatrix ExtAccessMatrix(const VIPTree& vip, NodeId node) {
  return {vip.ExtDoors(node), vip.ExtDistMatrix(node),
          vip.base().node(node).access_doors};
}

// The doors Eq. (1) seeds a point of partition p from: its superior doors
// (§3.1.1, Definition 2), or all of its doors when those are turned off.
Span<const DoorId> SeedDoors(const IPTree& tree,
                             const DistanceQueryOptions& options,
                             PartitionId p) {
  return options.use_superior_doors ? tree.SuperiorDoors(p)
                                    : tree.venue().DoorsOf(p);
}

// Eq. (1)'s trivial case for points sharing one partition: every access
// door of that partition is reached directly, so dist[k * |cols| + c] =
// dist(points[k], cols[c]) for each such c. Other cells are left as is.
void DirectLegs(const Venue& venue, Span<const IndoorPoint> points,
                Span<const DoorId> cols, double* dist) {
  const Span<const DoorId> partition_doors =
      venue.DoorsOf(points[0].partition);
  const size_t m = cols.size();
  for (size_t c = 0; c < m; ++c) {
    if (std::find(partition_doors.begin(), partition_doors.end(), cols[c]) ==
        partition_doors.end()) {
      continue;
    }
    for (size_t k = 0; k < points.size(); ++k) {
      VIPTREE_DCHECK(points[k].partition == points[0].partition);
      dist[k * m + c] = venue.DistanceToDoor(points[k], cols[c]);
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
  DirectLegs(venue, Span<const IndoorPoint>(&s, 1), matrix.cols, dist.data());
  for (DoorId u : SeedDoors(tree, options, s.partition)) {
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
  // when strictly shorter (LeafSearch::EnteredFromSeed relies on this).
  leaf_sources_.clear();
  if (source.door != kInvalidId) {
    leaf_sources_.push_back({source.door, 0.0});
  } else {
    for (DoorId u : venue.DoorsOf(source.point->partition)) {
      leaf_sources_.push_back({u, venue.DistanceToDoor(*source.point, u)});
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

void IPDistanceQuery::LocalDistanceMulti(const IndoorPoint& s,
                                         Span<const IndoorPoint> targets,
                                         double* out) const {
  LeafSearch search = StartLeafSearch(QuerySource::Point(s),
                                      tree_.LeafOfPartition(s.partition));
  for (size_t k = 0; k < targets.size(); ++k) {
    // Resume the shared search: each call extends the same deterministic
    // pop sequence, so a door settles at the bits a fresh search stopped
    // at this target would report.
    search.RunTo(tree_.venue().DoorsOf(targets[k].partition));
    out[k] = search.ToPoint(targets[k]);
  }
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
                      ExtAccessMatrix(vip_, node), dist, back);
}

void VIPDistanceQuery::DistancesToNodeAdMulti(Span<const IndoorPoint> points,
                                              NodeId node,
                                              std::vector<double>& dist) const {
  const AccessMatrix matrix = ExtAccessMatrix(vip_, node);
  const size_t m = matrix.cols.size();
  const size_t np = points.size();
  dist.assign(np * m, kInfDistance);
  if (np == 0) return;

  const Venue& venue = vip_.base().venue();
  DirectLegs(venue, points, matrix.cols, dist.data());
  // AccessDoorDistances with the points stacked: one row per seed door
  // feeds every point's accumulator row. Per (point, column) the
  // candidate sequence (direct leg, then the seed doors in order,
  // strict-<) is the single-point one, so every row is bit-identical to
  // DistancesToNodeAd.
  multi_adds_.resize(np);
  for (DoorId u : SeedDoors(vip_.base(), options_, points[0].partition)) {
    for (size_t k = 0; k < np; ++k) {
      multi_adds_[k] = venue.DistanceToDoor(points[k], u);
    }
    kernels::MinPlusRowMulti(dist.data(), matrix.RowOf(u).data(),
                             multi_adds_.data(), np, m);
  }
}

void VIPDistanceQuery::DistanceViaLcaMulti(const double* sdist, NodeId lca,
                                           NodeId ns, NodeId nt,
                                           Span<const IndoorPoint> targets,
                                           double* out) const {
  const IPTree& tree = vip_.base();
  const TreeNode& lca_node = tree.node(lca);
  const TreeNode& ns_node = tree.node(ns);
  const TreeNode& nt_node = tree.node(nt);
  const size_t ni = ns_node.access_doors.size();
  const size_t nj = nt_node.access_doors.size();
  const size_t num_targets = targets.size();
  const Span<const int32_t> rows = tree.ParentMatrixPositions(ns);
  const Span<const int32_t> cols = tree.ParentMatrixPositions(nt);

  // Source-side fold: joined_[j] = min over finite i of sdist[i] +
  // lca_cell(i, j), keeping the sequential join's sum association with the
  // target addend deferred. min commutes with the monotone x -> x + td[j],
  // so folding before the target add is bit-identical to the per-query
  // join (common/kernels.h, JoinMinRowsMulti).
  joined_.assign(nj, kInfDistance);
  for (size_t i = 0; i < ni; ++i) {
    if (sdist[i] == kInfDistance) continue;
    kernels::MinPlusGatherF32(
        joined_.data(),
        lca_node.dist.row(static_cast<size_t>(rows[i])).data(),
        cols.data(), sdist[i], nj);
  }

  // Per-target descents, stacked row-major for one batched reduce.
  stacked_tdist_.assign(num_targets * nj, kInfDistance);
  for (size_t k = 0; k < num_targets; ++k) {
    DistancesToNodeAd(QuerySource::Point(targets[k]), nt, tdist_, tback_);
    std::copy(tdist_.begin(), tdist_.end(),
              stacked_tdist_.begin() + static_cast<ptrdiff_t>(k * nj));
  }
  for (size_t k = 0; k < num_targets; ++k) out[k] = kInfDistance;
  kernels::JoinMinRowsMulti(joined_.data(), stacked_tdist_.data(), num_targets,
                            nj, out);
}

void VIPDistanceQuery::DistanceMulti(Span<const IndoorPoint> sources,
                                     Span<const IndoorPoint> targets,
                                     double* out,
                                     MultiDistanceStats* stats) const {
  const size_t n = sources.size();
  VIPTREE_DCHECK(targets.size() == n);
  if (n == 0) return;
  const IPTree& tree = vip_.base();
  const PartitionId sp = sources[0].partition;
  const NodeId ls = tree.LeafOfPartition(sp);

  // Source points compared by bit pattern: equal bits => identical descent
  // outputs, so the computation can be shared without any tolerance games.
  using SrcBits = std::array<uint64_t, 3>;
  const auto bits_of = [](const IndoorPoint& p) {
    SrcBits b{};
    static_assert(sizeof(b) == sizeof(p.position), "Point is 3 doubles");
    std::memcpy(b.data(), &p.position, sizeof(b));
    return b;
  };

  struct Cross {
    size_t query;
    NodeId lca, ns, nt;
    SrcBits src;
  };
  std::vector<Cross> cross;
  cross.reserve(n);
  std::map<SrcBits, std::vector<size_t>> local_groups;
  for (size_t k = 0; k < n; ++k) {
    VIPTREE_DCHECK(sources[k].partition == sp);
    const NodeId lt = tree.LeafOfPartition(targets[k].partition);
    if (lt == ls) {
      local_groups[bits_of(sources[k])].push_back(k);
      continue;
    }
    const NodeId lca = tree.Lca(ls, lt);
    cross.push_back({k, lca, tree.ChildToward(lca, ls),
                     tree.ChildToward(lca, lt), bits_of(sources[k])});
  }

  // Same-leaf pairs dominate skewed batches (each one is a leaf search,
  // dearer than a cross-leaf matrix walk), so queries sharing an exact
  // source point share one incremental leaf search.
  if (!local_groups.empty()) {
    std::vector<IndoorPoint> local_targets;
    std::vector<double> local_out;
    size_t local_queries = 0;
    for (const auto& [src, members] : local_groups) {
      (void)src;
      local_queries += members.size();
      local_targets.clear();
      for (size_t k : members) local_targets.push_back(targets[k]);
      local_out.assign(members.size(), kInfDistance);
      ip_.LocalDistanceMulti(
          sources[members[0]],
          Span<const IndoorPoint>(local_targets.data(), local_targets.size()),
          local_out.data());
      for (size_t j = 0; j < members.size(); ++j) {
        out[members[j]] = local_out[j];
      }
    }
    if (stats != nullptr) {
      stats->ascents_computed += local_groups.size();
      stats->ascents_reused += local_queries - local_groups.size();
    }
  }
  if (cross.empty()) return;

  // One multi-point descent per join child over its distinct source points.
  std::map<std::pair<NodeId, SrcBits>, size_t> slot_of;
  std::map<NodeId, std::vector<IndoorPoint>> points_of;
  for (const Cross& c : cross) {
    const auto key = std::make_pair(c.ns, c.src);
    if (slot_of.count(key) != 0) continue;
    std::vector<IndoorPoint>& pts = points_of[c.ns];
    slot_of[key] = pts.size();
    pts.push_back(sources[c.query]);
  }
  std::map<NodeId, std::vector<double>> sdist_of;
  for (auto& [ns, pts] : points_of) {
    DistancesToNodeAdMulti(Span<const IndoorPoint>(pts.data(), pts.size()), ns,
                           sdist_of[ns]);
  }
  if (stats != nullptr) {
    stats->ascents_computed += slot_of.size();
    stats->ascents_reused += cross.size() - slot_of.size();
  }

  // Queries sharing (source bits, lca, ns, nt) fold the LCA join once and
  // batch the target-side reduce.
  std::map<std::tuple<SrcBits, NodeId, NodeId, NodeId>, std::vector<size_t>>
      buckets;
  for (size_t ci = 0; ci < cross.size(); ++ci) {
    const Cross& c = cross[ci];
    buckets[std::make_tuple(c.src, c.lca, c.ns, c.nt)].push_back(ci);
  }
  std::vector<IndoorPoint> bucket_targets;
  std::vector<double> bucket_out;
  for (const auto& [key, members] : buckets) {
    const Cross& head = cross[members[0]];
    const size_t m = tree.node(head.ns).access_doors.size();
    const std::vector<double>& stack = sdist_of[head.ns];
    const double* sdist =
        stack.data() + slot_of[std::make_pair(head.ns, head.src)] * m;
    bucket_targets.clear();
    for (size_t ci : members) {
      bucket_targets.push_back(targets[cross[ci].query]);
    }
    bucket_out.assign(members.size(), kInfDistance);
    DistanceViaLcaMulti(
        sdist, head.lca, head.ns, head.nt,
        Span<const IndoorPoint>(bucket_targets.data(), bucket_targets.size()),
        bucket_out.data());
    for (size_t j = 0; j < members.size(); ++j) {
      out[cross[members[j]].query] = bucket_out[j];
    }
  }
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
