#include "core/path_query.h"

#include <algorithm>

#include "common/check.h"
#include "common/span.h"

namespace viptree {

namespace {

// Algorithm 3's join at the LCA of children ns and nt, keeping its argmin:
// the access-door pair (i of ns, j of nt) minimizing (sd[i] + lca_cell) +
// td[j], the first such pair on ties.
struct LcaJoin {
  double distance = kInfDistance;
  size_t i = 0;
  size_t j = 0;
};

LcaJoin ArgminJoinAtLca(const IPTree& tree, NodeId lca, NodeId ns, NodeId nt,
                        const double* sd, const double* td) {
  const FlatMatrix<float>& dist = tree.node(lca).dist;
  const Span<const int32_t> rows = tree.ParentMatrixPositions(ns);
  const Span<const int32_t> cols = tree.ParentMatrixPositions(nt);
  LcaJoin best;
  for (size_t i = 0; i < rows.size(); ++i) {
    for (size_t j = 0; j < cols.size(); ++j) {
      const double cand = sd[i] + dist.at(rows[i], cols[j]) + td[j];
      if (cand < best.distance) best = {cand, i, j};
    }
  }
  return best;
}

}  // namespace

IPPathQuery::IPPathQuery(const IPTree& tree,
                         const DistanceQueryOptions& options,
                         DistanceCache* cache)
    : tree_(tree), query_(tree, options, cache) {}

bool IPPathQuery::Represents(DoorId x, DoorId y, NodeId n) const {
  const TreeNode& node = tree_.node(n);
  if (node.is_leaf()) {
    return IPTree::IndexOf(node.doors, x) >= 0 &&
           IPTree::IndexOf(node.doors, y) >= 0 &&
           (IPTree::IndexOf(node.access_doors, x) >= 0 ||
            IPTree::IndexOf(node.access_doors, y) >= 0);
  }
  return IPTree::IndexOf(node.matrix_doors, x) >= 0 &&
         IPTree::IndexOf(node.matrix_doors, y) >= 0;
}

NodeId IPPathQuery::Descend(DoorId x, DoorId y, NodeId ctx) const {
  bool descended = true;
  while (descended && !tree_.node(ctx).is_leaf()) {
    descended = false;
    for (NodeId child : tree_.node(ctx).children) {
      if (Represents(x, y, child)) {
        ctx = child;
        descended = true;
        break;
      }
    }
  }
  return ctx;
}

void IPPathQuery::Expand(DoorId x, DoorId y, NodeId ctx,
                         std::vector<DoorId>& out) const {
  if (x == y) return;
  // Lemmas 4 and 6: an edge between two non-access doors is final.
  if (!tree_.IsAccessDoor(x) && !tree_.IsAccessDoor(y)) return;
  ctx = Descend(x, y, ctx);
  if (!Represents(x, y, ctx)) {
    // Shortest paths that leave a node and re-enter (Example 6's rare
    // scenario) can hand us a pair no matrix represents.
    AppendSearchedSegment(x, y, out);
    return;
  }
  const TreeNode& node = tree_.node(ctx);

  DoorId hop = kInvalidId;
  if (node.is_leaf()) {
    // The leaf matrix is doors x access-doors: orient the lookup so the
    // column is an access door of this leaf. Splitting at a door that lies
    // anywhere on the shortest path is valid in either orientation.
    if (IPTree::IndexOf(node.access_doors, y) >= 0) {
      hop = tree_.LeafMatrixNextHop(node, x, y);
    } else {
      VIPTREE_DCHECK(IPTree::IndexOf(node.access_doors, x) >= 0);
      hop = tree_.LeafMatrixNextHop(node, y, x);
    }
    if (hop == kInvalidId) return;  // final edge (Lemma 3)
  } else {
    const int row = IPTree::IndexOf(node.matrix_doors, x);
    const int col = IPTree::IndexOf(node.matrix_doors, y);
    VIPTREE_DCHECK(row >= 0 && col >= 0);
    hop = node.next_hop.at(row, col);
    if (hop == kInvalidId) {
      // NULL at a non-leaf means x and y are access doors of one node at
      // the level below (Lemma 3) — usually a common child, which Descend
      // entered. A door borders every node its two leaves chain through,
      // so the common node can live under a *different* parent; the
      // segment is then a single level-graph edge: recover it locally.
      AppendSearchedSegment(x, y, out);
      return;
    }
  }
  Expand(x, hop, ctx, out);
  out.push_back(hop);
  Expand(hop, y, ctx, out);
}

void IPPathQuery::AppendSearchedSegment(DoorId x, DoorId y,
                                        std::vector<DoorId>& out) const {
  DijkstraEngine& engine = query_.dijkstra_;
  engine.Start(x);
  engine.RunToTargets(Span<const DoorId>(&y, 1));
  const std::vector<DoorId> seg = engine.PathTo(y);
  for (size_t i = 1; i + 1 < seg.size(); ++i) out.push_back(seg[i]);
}

IPPathQuery::PartialPath IPPathQuery::Backtrack(const AscentDistances& ascent,
                                                size_t top_idx) const {
  PartialPath pp;
  int idx = static_cast<int>(ascent.chain.size()) - 1;
  size_t c = top_idx;
  pp.doors.push_back(
      tree_.node(ascent.chain[idx]).access_doors[c]);
  PathBack b = ascent.back[idx][c];
  while (b.pred != kInvalidId) {
    pp.edge_ctx.push_back(ascent.chain[b.pred_chain_idx + 1]);
    pp.doors.push_back(b.pred);
    if (b.pred_chain_idx < 0) break;  // seed superior door: next stop is s
    idx = b.pred_chain_idx;
    c = static_cast<size_t>(IPTree::IndexOf(
        tree_.node(ascent.chain[idx]).access_doors, b.pred));
    b = ascent.back[idx][c];
  }
  std::reverse(pp.doors.begin(), pp.doors.end());
  std::reverse(pp.edge_ctx.begin(), pp.edge_ctx.end());
  return pp;
}

IndoorPath IPPathQuery::LocalPath(const QuerySource& s, const QuerySource& t,
                                  NodeId leaf) const {
  query_.SeedLeaf(s, tree_.node(leaf), seed_dist_, seed_back_);
  LeafSearch search = query_.StartLeafSearch(s, leaf, &seed_dist_);
  IndoorPath path;
  DoorId last = kInvalidId;  // the door the route reaches t through
  if (t.door != kInvalidId) {
    search.RunTo(Span<const DoorId>(&t.door, 1));
    path.distance = search.DistanceTo(t.door);
    if (search.Settled(t.door)) last = t.door;
  } else {
    search.RunTo(tree_.venue().DoorsOf(t.point->partition));
    path.distance = search.ToPoint(*t.point, &last);
  }
  if (last == kInvalidId) return path;  // direct walk, or unreachable

  const std::vector<DoorId> chain = search.PathTo(last);
  const DoorId a = chain.front();
  if (search.EnteredFromSeed(a)) {
    // The route leaves the leaf before reaching access door a: expand it
    // from the source door, or from the point's superior door that the
    // seed went through.
    const int c = IPTree::IndexOf(tree_.node(leaf).access_doors, a);
    VIPTREE_DCHECK(c >= 0);
    const DoorId from =
        s.door != kInvalidId ? s.door : seed_back_[static_cast<size_t>(c)].pred;
    VIPTREE_DCHECK(from != kInvalidId);
    path.doors.push_back(from);
    Expand(from, a, leaf, path.doors);
  }
  path.doors.insert(path.doors.end(), chain.begin(), chain.end());
  return path;
}

IndoorPath IPPathQuery::CrossLeafPath(const QuerySource& s,
                                      const QuerySource& t) const {
  const NodeId ls = query_.LeafOf(s);
  const NodeId lt = query_.LeafOf(t);
  const NodeId lca = tree_.Lca(ls, lt);
  const NodeId ns = tree_.ChildToward(lca, ls);
  const NodeId nt = tree_.ChildToward(lca, lt);
  const AscentDistances as = query_.GetDistances(s, ns);
  const AscentDistances at = query_.GetDistances(t, nt);

  const LcaJoin join = ArgminJoinAtLca(tree_, lca, ns, nt,
                                       as.ad_dist.back().data(),
                                       at.ad_dist.back().data());
  IndoorPath path;
  path.distance = join.distance;
  if (path.distance == kInfDistance) return path;

  PartialPath ps = Backtrack(as, join.i);
  PartialPath pt = Backtrack(at, join.j);
  // Door-source seeds leave the source door implicit; prepend it.
  if (s.door != kInvalidId && ps.doors.front() != s.door) {
    ps.doors.insert(ps.doors.begin(), s.door);
    ps.edge_ctx.insert(ps.edge_ctx.begin(), as.chain[0]);
  }
  if (t.door != kInvalidId && pt.doors.front() != t.door) {
    pt.doors.insert(pt.doors.begin(), t.door);
    pt.edge_ctx.insert(pt.edge_ctx.begin(), at.chain[0]);
  }

  std::vector<DoorId>& out = path.doors;
  out.push_back(ps.doors[0]);
  for (size_t k = 0; k + 1 < ps.doors.size(); ++k) {
    Expand(ps.doors[k], ps.doors[k + 1], ps.edge_ctx[k], out);
    out.push_back(ps.doors[k + 1]);
  }
  const DoorId a_star = tree_.node(ns).access_doors[join.i];
  const DoorId b_star = tree_.node(nt).access_doors[join.j];
  if (a_star != b_star) {
    Expand(a_star, b_star, lca, out);
    out.push_back(b_star);
  }
  // t side, reversed (from b_star down to t's first door).
  for (size_t k = pt.doors.size(); k-- > 1;) {
    Expand(pt.doors[k], pt.doors[k - 1], pt.edge_ctx[k - 1], out);
    out.push_back(pt.doors[k - 1]);
  }
  return path;
}

IndoorPath IPPathQuery::Path(const IndoorPoint& s,
                             const IndoorPoint& t) const {
  const NodeId ls = tree_.LeafOfPartition(s.partition);
  const NodeId lt = tree_.LeafOfPartition(t.partition);
  if (ls == lt) {
    return LocalPath(QuerySource::Point(s), QuerySource::Point(t), ls);
  }
  return CrossLeafPath(QuerySource::Point(s), QuerySource::Point(t));
}

IndoorPath IPPathQuery::DoorPath(DoorId s, DoorId t) const {
  if (s == t) return IndoorPath{0.0, {s}};
  const NodeId leaf = tree_.CommonLeaf(s, t);
  if (leaf != kInvalidId) {
    return LocalPath(QuerySource::Door(s), QuerySource::Door(t), leaf);
  }
  return CrossLeafPath(QuerySource::Door(s), QuerySource::Door(t));
}

// ---------------------------------------------------------------------------
// VIP variant
// ---------------------------------------------------------------------------

VIPPathQuery::VIPPathQuery(const VIPTree& tree,
                           const DistanceQueryOptions& options,
                           DistanceCache* cache)
    : vip_(tree),
      query_(tree, options, cache),
      ip_path_(tree.base(), options, cache) {}

void VIPPathQuery::WalkToAncestorAd(DoorId x, NodeId ancestor, size_t col,
                                    std::vector<DoorId>& out) const {
  const IPTree& tree = vip_.base();
  const DoorId target = tree.node(ancestor).access_doors[col];
  while (x != target) {
    const int row = vip_.ExtRowOf(ancestor, x);
    if (row < 0) {
      // The path excursed outside the ancestor's subtree (§3.3's "very
      // rare" case): search the remaining segment.
      ip_path_.AppendSearchedSegment(x, target, out);
      return;
    }
    const DoorId hop =
        vip_.ExtNextHop(ancestor, static_cast<size_t>(row), col);
    if (hop == kInvalidId) return;  // direct final edge x -> target
    // x -> hop normally stays within one leaf (hop is either the immediate
    // next door or the first access door, with only non-access doors in
    // between).
    const NodeId leaf = tree.CommonLeaf(x, hop);
    if (leaf != kInvalidId) {
      ip_path_.Expand(x, hop, leaf, out);
    } else {
      ip_path_.Expand(x, hop, ancestor, out);  // guarded fallback
    }
    out.push_back(hop);
    x = hop;
  }
}

IndoorPath VIPPathQuery::CrossLeafPath(const QuerySource& s,
                                       const QuerySource& t) const {
  const IPTree& tree = vip_.base();
  const IPDistanceQuery& ip = ip_path_.query_;
  const NodeId ls = ip.LeafOf(s);
  const NodeId lt = ip.LeafOf(t);
  const NodeId lca = tree.Lca(ls, lt);
  const NodeId ns = tree.ChildToward(lca, ls);
  const NodeId nt = tree.ChildToward(lca, lt);

  std::vector<double> sdist, tdist;
  std::vector<PathBack> sback, tback;
  query_.DistancesToNodeAd(s, ns, sdist, sback);
  query_.DistancesToNodeAd(t, nt, tdist, tback);

  const LcaJoin join =
      ArgminJoinAtLca(tree, lca, ns, nt, sdist.data(), tdist.data());
  IndoorPath path;
  path.distance = join.distance;
  if (path.distance == kInfDistance) return path;

  const DoorId a_star = tree.node(ns).access_doors[join.i];
  const DoorId b_star = tree.node(nt).access_doors[join.j];
  std::vector<DoorId>& out = path.doors;

  // s -> first door -> a*.
  DoorId s_first = sback[join.i].pred;
  if (s_first == kInvalidId) s_first = s.door;  // door source or direct
  if (s_first != kInvalidId && s_first != a_star) {
    out.push_back(s_first);
    WalkToAncestorAd(s_first, ns, join.i, out);
  }
  out.push_back(a_star);

  if (a_star != b_star) {
    ip_path_.Expand(a_star, b_star, lca, out);
    out.push_back(b_star);
  }

  // b* -> ... -> t's first door, computed in t -> b* direction and reversed.
  DoorId t_first = tback[join.j].pred;
  if (t_first == kInvalidId) t_first = t.door;
  if (t_first != kInvalidId && t_first != b_star) {
    std::vector<DoorId> t_side;
    t_side.push_back(t_first);
    WalkToAncestorAd(t_first, nt, join.j, t_side);
    // t_side = t_first ... (doors approaching b*); reverse and append,
    // dropping b* which is already emitted.
    for (size_t k = t_side.size(); k-- > 0;) {
      if (t_side[k] == b_star) continue;
      out.push_back(t_side[k]);
    }
  }
  return path;
}

IndoorPath VIPPathQuery::Path(const IndoorPoint& s,
                              const IndoorPoint& t) const {
  const IPTree& tree = vip_.base();
  const NodeId ls = tree.LeafOfPartition(s.partition);
  const NodeId lt = tree.LeafOfPartition(t.partition);
  if (ls == lt) return ip_path_.Path(s, t);
  return CrossLeafPath(QuerySource::Point(s), QuerySource::Point(t));
}

IndoorPath VIPPathQuery::DoorPath(DoorId s, DoorId t) const {
  if (s == t) return IndoorPath{0.0, {s}};
  if (vip_.base().CommonLeaf(s, t) != kInvalidId) {
    return ip_path_.DoorPath(s, t);
  }
  return CrossLeafPath(QuerySource::Door(s), QuerySource::Door(t));
}

}  // namespace viptree
