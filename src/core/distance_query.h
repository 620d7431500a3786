// Part of the reproduction of "VIP-Tree: An Effective Index for Indoor
// Spatial Queries" (Shao, Cheema, Taniar, Lu — PVLDB 10(4), 2016); all
// section/algorithm references below point into that paper.
//
// Shortest distance queries (§3.1): Algorithm 2 (distances from a source to
// all access doors of an ancestor node) and Algorithm 3 (distance between
// two arbitrary indoor points), in the IP-Tree variant (iterative ascent,
// O(h*rho^2)) and the VIP-Tree variant (materialized lookups, O(rho^2)).
//
// Same-leaf queries (source and target in one leaf) run one Dijkstra
// confined to the leaf: it relaxes only edges walking through a partition
// of the leaf, and it is seeded with the source's own doors plus every
// access door a of the leaf at dist(source, a) — the seed of Algorithm 2
// (SeedLeaf), built from the leaf matrix's global distances. That is exact
// on the undirected D2D graph: a shortest path that leaves the leaf
// re-enters it through an access door, and the part after the last access
// door it crosses stays inside the leaf. On a geometric graph the search
// walks each settled door's edges by partition runs and skips the run
// through the partition the door was entered through (a point source's
// doors count as entered through its partition): for u -> y -> x inside
// one partition P, the metric clique gives w(u,x) <= w(u,y) + w(y,x), and
// y's P-parent u (or the point's seed) already reached x directly. An
// explicit graph need not be metric and is searched edge by edge.
//
// Thread-safety contract (shared by every query engine in core/): the
// indexes (IPTree / VIPTree / ObjectIndex / KeywordIndex) are immutable
// after construction and only ever read, so any number of engines on any
// number of threads may share them. Each engine instance holds reusable
// *mutable* scratch (a Dijkstra engine for same-leaf queries), so one engine
// instance must not be used from two threads at once — engines are cheap to
// construct: use one per thread. All query entry points are const, which
// makes the "reads only touch shared immutable state" half of the contract
// compiler-checked.

#ifndef VIPTREE_CORE_DISTANCE_QUERY_H_
#define VIPTREE_CORE_DISTANCE_QUERY_H_

#include <vector>

#include "core/distance_cache.h"
#include "core/ip_tree.h"
#include "core/vip_tree.h"
#include "graph/dijkstra.h"

namespace viptree {

// Where a door's best-known distance came from, for path recovery.
// pred == kInvalidId means "directly from the source point/door".
struct PathBack {
  DoorId pred = kInvalidId;
  int pred_chain_idx = -1;  // index into AscentDistances::chain, -1 = seed
};

// Output of Algorithm 2: distances from the source to the access doors of
// every node on the chain Leaf(source) = chain[0], ..., chain.back().
struct AscentDistances {
  std::vector<NodeId> chain;
  // ad_dist[i][j] = dist(source, node(chain[i]).access_doors[j]).
  std::vector<std::vector<double>> ad_dist;
  std::vector<std::vector<PathBack>> back;
};

// A query source: either an indoor point or a door.
struct QuerySource {
  // Exactly one of the two is set.
  const IndoorPoint* point = nullptr;
  DoorId door = kInvalidId;

  static QuerySource Point(const IndoorPoint& p) { return {&p, kInvalidId}; }
  static QuerySource Door(DoorId d) { return {nullptr, d}; }
};

// A same-leaf search in progress (IPDistanceQuery::StartLeafSearch): the
// confined Dijkstra of the file comment, reading the engine's Dijkstra
// scratch. It carries the leaf bound, so every resume confines alike; it
// is valid until the engine starts another search.
class LeafSearch {
 public:
  // Settles every door of `targets` reachable inside the leaf. Resuming
  // extends the same pop sequence, so a door's distance never depends on
  // the target sets it took to settle it.
  void RunTo(Span<const DoorId> targets) {
    if (by_runs_) {
      engine_->RunToTargets(targets, LeafRuns{tree_, leaf_});
    } else {
      engine_->RunToTargets(targets, InLeaf{tree_, leaf_});
    }
  }

  // dist(source, t) for a point t of the leaf once RunTo has covered the
  // doors of t's partition: the direct walk when a point source shares
  // t's partition, else the best settled door of that partition. `via`,
  // when set, receives that door (kInvalidId for the direct walk or when
  // t is unreachable).
  double ToPoint(const IndoorPoint& t, DoorId* via = nullptr) const;

  bool Settled(DoorId d) const { return engine_->Settled(d); }
  double DistanceTo(DoorId d) const { return engine_->DistanceTo(d); }
  // The settled door sequence ending at `d`; it starts at a seed.
  std::vector<DoorId> PathTo(DoorId d) const { return engine_->PathTo(d); }
  // True when `d` was settled straight from its access-door seed, i.e. the
  // route to it leaves the leaf (the path query then expands the seed).
  bool EnteredFromSeed(DoorId d) const;
  // Doors settled and edges relaxed so far (SearchStats).
  size_t doors_settled() const { return engine_->NumSettledInSearch(); }
  size_t edges_relaxed() const { return engine_->NumRelaxedInSearch(); }

 private:
  friend class IPDistanceQuery;

  // The confinement of an explicit graph: keep the edges walking through
  // a partition of `leaf`.
  struct InLeaf {
    const IPTree* tree;
    NodeId leaf;
    bool operator()(const D2DEdge& e) const {
      return tree->LeafOfPartition(e.via) == leaf;
    }
  };

  // The confinement of a geometric graph (file comment): relax the runs
  // through the leaf's partitions, except the one the door was entered
  // through.
  struct LeafRuns {
    const IPTree* tree;
    NodeId leaf;
    template <typename Relax>
    void operator()(DoorId u, PartitionId entered, Relax&& relax) const {
      tree->graph().ForEachRun(
          tree->venue(), u, [&](PartitionId p, Span<const D2DEdge> run) {
            if (p != entered && tree->LeafOfPartition(p) == leaf) relax(run);
          });
    }
  };

  LeafSearch(DijkstraEngine& engine, const IPTree& tree, NodeId leaf,
             const QuerySource& source)
      : engine_(&engine),
        tree_(&tree),
        leaf_(leaf),
        source_(source),
        by_runs_(tree.graph().kind() == D2DGraph::Kind::kGeometric) {}

  DijkstraEngine* engine_;
  const IPTree* tree_;
  NodeId leaf_;
  QuerySource source_;
  bool by_runs_;
};

struct DistanceQueryOptions {
  // Restrict Eq. (1) to the superior doors of the source partition
  // (§3.1.1, Definition 2). Disabling falls back to all partition doors —
  // used by tests to validate the superior-door lemma empirically.
  bool use_superior_doors = true;
};

class IPDistanceQuery {
 public:
  // `cache` (optional, may be shared across engines — it is internally
  // thread-safe) memoizes DoorDistance and its door ascents; no point
  // query reads it. It is a separate parameter rather than a
  // DistanceQueryOptions field because the options struct is serialized
  // into snapshots (VenueBundle::Save). Cache-on and cache-off answers are
  // bit-identical; see core/distance_cache.h.
  explicit IPDistanceQuery(const IPTree& tree,
                           const DistanceQueryOptions& options = {},
                           DistanceCache* cache = nullptr);

  // Algorithm 3.
  double Distance(const IndoorPoint& s, const IndoorPoint& t) const;
  double DoorDistance(DoorId s, DoorId t) const;

  // Algorithm 2: ascend from Leaf(source) up to `target` (inclusive),
  // which must be an ancestor of (or equal to) the source's leaf.
  AscentDistances GetDistances(const QuerySource& source, NodeId target) const;

  // Same-leaf distance: s and t lie in one leaf.
  double LocalDistance(const IndoorPoint& s, const IndoorPoint& t) const;

  // Seed of Algorithm 2: distances from the source to every access door of
  // `leaf` (the source's leaf, or for a door source any leaf holding it).
  // Eq. (1) over the leaf matrix; VIPDistanceQuery::DistancesToNodeAd runs
  // the same routine, so at a leaf the two agree bit for bit.
  void SeedLeaf(const QuerySource& source, const TreeNode& leaf,
                std::vector<double>& dist, std::vector<PathBack>& back) const;

  // Starts the one same-leaf search every same-leaf query goes through
  // (file comment). `leaf` must hold the source; `access_dist` is
  // SeedLeaf(source, leaf)'s dist — kNN passes its ascent's ad_dist[0] —
  // or nullptr to compute it here.
  LeafSearch StartLeafSearch(const QuerySource& source, NodeId leaf,
                             const std::vector<double>* access_dist =
                                 nullptr) const;

  // The leaf a query source belongs to.
  NodeId LeafOf(const QuerySource& source) const;

  const IPTree& tree() const { return tree_; }
  DistanceCache* distance_cache() const { return cache_; }

 private:
  friend class IPPathQuery;
  friend class VIPPathQuery;

  // dist(door -> each access door of `target`), i.e. the last row of
  // GetDistances(Door(door), target); memoized under kIpDoorAscent.
  void DoorAscent(DoorId door, NodeId target, std::vector<double>& out) const;
  double DoorDistanceUncached(DoorId s, DoorId t) const;

  const IPTree& tree_;
  DistanceQueryOptions options_;
  DistanceCache* cache_ = nullptr;
  // Per-engine scratch, never shared state: mutable so const query methods
  // stay const while reusing the arrays (see the thread-safety contract).
  mutable DijkstraEngine dijkstra_;
  mutable std::vector<DijkstraSource> leaf_sources_;  // StartLeafSearch
  mutable std::vector<double> leaf_seed_dist_;
  mutable std::vector<PathBack> leaf_seed_back_;
  mutable std::vector<double> s_ascent_, t_ascent_;  // DoorDistance
  // Kernel accumulators of the ascent step (common/kernels.h): per-column
  // best distance and the child door (index) that produced it.
  mutable std::vector<double> step_dist_;
  mutable std::vector<int32_t> step_src_;
};

class VIPDistanceQuery {
 public:
  // `cache` as in IPDistanceQuery (DoorDistance only); also forwarded to
  // the IP fallback engine. IP and VIP door-pair results use distinct
  // kinds (the float matrices can differ from the iterative ascent in the
  // last ulp), so one cache may safely serve both.
  explicit VIPDistanceQuery(const VIPTree& tree,
                            const DistanceQueryOptions& options = {},
                            DistanceCache* cache = nullptr);

  double Distance(const IndoorPoint& s, const IndoorPoint& t) const;
  double DoorDistance(DoorId s, DoorId t) const;

  // VIP variant of Algorithm 2's output at one node: distances from the
  // source to every access door of `node` (the source's leaf or an
  // ancestor of it). Eq. (1) over the node's extended matrix: one row per
  // seed door, read once and folded across every access door.
  void DistancesToNodeAd(const QuerySource& source, NodeId node,
                         std::vector<double>& dist,
                         std::vector<PathBack>& back) const;

  const VIPTree& tree() const { return vip_; }
  DistanceCache* distance_cache() const { return cache_; }

 private:
  friend class VIPPathQuery;

  double DoorDistanceUncached(DoorId s, DoorId t) const;

  const VIPTree& vip_;
  DistanceQueryOptions options_;
  DistanceCache* cache_ = nullptr;
  IPDistanceQuery ip_;  // same-leaf fallback + seeding helpers
  mutable std::vector<double> sdist_, tdist_;
  mutable std::vector<PathBack> sback_, tback_;
};

}  // namespace viptree

#endif  // VIPTREE_CORE_DISTANCE_QUERY_H_
