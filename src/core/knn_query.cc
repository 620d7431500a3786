#include "core/knn_query.h"

#include <algorithm>

#include "common/check.h"
#include "common/kernels.h"
#include "common/span.h"

namespace viptree {

namespace {

// The result order every search reports: ascending by (distance, id).
// A function object rather than a function pointer, so the heap and the
// sort can inline it.
struct Closer {
  bool operator()(const ObjectResult& a, const ObjectResult& b) const {
    return a.distance != b.distance ? a.distance < b.distance
                                    : a.object < b.object;
  }
};

// The run of `overlay` (ordered by leaf_dfs) whose leaves have DFS index
// in [begin, end): the overlay objects of one subtree.
Span<const OverlayObject> OverlayIn(Span<const OverlayObject> overlay,
                                    uint32_t begin, uint32_t end) {
  const auto before = [](const OverlayObject& o, uint32_t dfs) {
    return o.leaf_dfs < dfs;
  };
  const OverlayObject* first =
      std::lower_bound(overlay.begin(), overlay.end(), begin, before);
  return {first, std::lower_bound(first, overlay.end(), end, before)};
}

}  // namespace

KnnQuery::KnnQuery(const IPTree& tree, const ObjectIndex& objects,
                   const DistanceQueryOptions& options, DistanceCache* cache)
    : tree_(tree),
      objects_(&objects),
      query_(tree, options, cache),
      nodes_(tree.nodes().size()) {}

std::vector<ObjectResult> KnnQuery::Knn(const IndoorPoint& q, size_t k,
                                        SearchStats* stats) const {
  return Search(q, k, kInfDistance, nullptr, {}, stats);
}

AscentDistances KnnQuery::ComputeAscent(const IndoorPoint& q) const {
  return query_.GetDistances(QuerySource::Point(q), tree_.root());
}

std::vector<ObjectResult> KnnQuery::WithinRange(const IndoorPoint& q,
                                                double radius,
                                                SearchStats* stats) const {
  return Search(q, std::numeric_limits<size_t>::max(), radius, nullptr, {},
                stats);
}

void KnnQuery::LocalObjectDistances(const IndoorPoint& q,
                                    const AscentDistances& ascent,
                                    Span<const OverlayObject> hot,
                                    std::vector<double>& out,
                                    SearchStats* stats) const {
  const Venue& venue = tree_.venue();
  const NodeId leaf = ascent.chain[0];
  const size_t packed = objects_->ObjectsInLeaf(leaf).size();
  const auto point = [&](size_t i) -> const IndoorPoint& {
    return i < packed ? objects_->PointInLeaf(leaf, i) : hot[i - packed].point;
  };
  const size_t n = packed + hot.size();
  // One leaf search from q covers every object of the leaf, seeded with
  // the ascent's access-door distances (no second ascent). A settled
  // door's distance does not depend on the target set, so an object
  // scores the same bits whichever other objects share its leaf.
  LeafSearch search = query_.StartLeafSearch(QuerySource::Point(q), leaf,
                                             &ascent.ad_dist[0]);
  local_targets_.clear();
  for (size_t i = 0; i < n; ++i) {
    for (DoorId d : venue.DoorsOf(point(i).partition)) {
      local_targets_.push_back(d);
    }
  }
  std::sort(local_targets_.begin(), local_targets_.end());
  local_targets_.erase(
      std::unique(local_targets_.begin(), local_targets_.end()),
      local_targets_.end());
  search.RunTo(local_targets_);
  out.resize(n);
  for (size_t i = 0; i < n; ++i) out[i] = search.ToPoint(point(i));
  if (stats != nullptr) {
    stats->doors_settled = search.doors_settled();
    stats->edges_relaxed = search.edges_relaxed();
  }
}

std::vector<ObjectResult> KnnQuery::Search(
    const IndoorPoint& q, size_t k, double radius, const Filters* filters,
    Span<const OverlayObject> overlay, SearchStats* stats,
    const AscentDistances* precomputed) const {
  if (stats != nullptr) *stats = SearchStats{};
  std::vector<ObjectResult> results;
  if ((objects_->NumObjects() == 0 && overlay.empty()) || k == 0) {
    return results;
  }
  auto node_allowed = [filters](NodeId n) {
    return filters == nullptr || !filters->node || filters->node(n);
  };
  auto object_allowed = [filters](ObjectId o) {
    return filters == nullptr || !filters->object || filters->object(o);
  };
  auto overlay_allowed = [filters](ObjectId o) {
    return filters == nullptr || !filters->overlay || filters->overlay(o);
  };

  // Line 2 of Algorithm 5: distances from q to the access doors of every
  // ancestor of Leaf(q) — or the caller's precomputed copy of exactly
  // that (ComputeAscent), shared across a coalesced group.
  AscentDistances computed;
  if (precomputed == nullptr) {
    computed = query_.GetDistances(QuerySource::Point(q), tree_.root());
  }
  const AscentDistances& ascent =
      precomputed != nullptr ? *precomputed : computed;
  // dist(q, access doors of n) for each node the search reaches, in
  // ad_pool_ at nodes_[n].ad_off. A new stamp drops the last query's rows.
  if (++stamp_ == 0) {  // wrapped: stale stamps could alias
    std::fill(nodes_.begin(), nodes_.end(), NodeScratch{});
    stamp_ = 1;
  }
  ad_pool_.clear();
  // Appends n's row (all infinite) and returns it; valid until the next
  // append, which may move the pool.
  const auto add_row = [&](NodeId n) {
    NodeScratch& s = nodes_[n];
    s.ad_stamp = stamp_;
    s.ad_off = static_cast<uint32_t>(ad_pool_.size());
    ad_pool_.resize(ad_pool_.size() + tree_.node(n).access_doors.size(),
                    kInfDistance);
    return ad_pool_.data() + s.ad_off;
  };
  const auto row = [&](NodeId n) -> const double* {
    VIPTREE_DCHECK(nodes_[n].ad_stamp == stamp_);
    return ad_pool_.data() + nodes_[n].ad_off;
  };
  const auto contains_q = [&](NodeId n) {
    return nodes_[n].chain_stamp == stamp_;
  };
  for (size_t i = 0; i < ascent.chain.size(); ++i) {
    const NodeId c = ascent.chain[i];
    const std::vector<double>& d = ascent.ad_dist[i];
    std::copy(d.begin(), d.end(), add_row(c));
    nodes_[c].chain_stamp = stamp_;
    nodes_[c].chain_pos = static_cast<int32_t>(i);
  }
  const NodeId q_leaf = ascent.chain[0];

  // Range mode (k unbounded): every in-radius object is reported, so the
  // kth-NN heap can never prune — collect into a flat vector and sort
  // once at the end instead of paying O(log n) per insert.
  const bool collect_all = k == std::numeric_limits<size_t>::max();

  // The k best so far as a max-heap under (distance, id), so dk (distance
  // to the current kth NN) is O(1) and a tie at the kth place keeps the
  // smaller id. The heap operations are std::priority_queue's, step for
  // step, over storage kept across searches.
  std::vector<ObjectResult>& best = best_;
  best.clear();
  auto dk = [&]() {
    if (radius != kInfDistance) {
      return best.size() >= k ? std::min(radius, best.front().distance)
                              : radius;
    }
    return best.size() >= k ? best.front().distance : kInfDistance;
  };
  // `allowed` is the filter of the object's store (packed or overlay).
  auto offer = [&](ObjectId o, double dist, const auto& allowed) {
    if (stats != nullptr) ++stats->objects_considered;
    if (dist > radius) return;
    if (!allowed(o)) return;
    const ObjectResult candidate{o, dist};
    if (collect_all) {
      results.push_back(candidate);
    } else if (best.size() < k) {
      best.push_back(candidate);
      std::push_heap(best.begin(), best.end(), Closer{});
    } else if (Closer{}(candidate, best.front())) {
      std::pop_heap(best.begin(), best.end(), Closer{});
      best.back() = candidate;
      std::push_heap(best.begin(), best.end(), Closer{});
    }
  };

  // Distance from q to each access door of `n`, deriving missing vectors
  // from the parent (Lemma 9) or the sibling on q's chain (Lemma 8).
  auto ensure_ad_dist = [&](NodeId n) -> const double* {
    if (nodes_[n].ad_stamp == stamp_) return row(n);
    const TreeNode& node = tree_.node(n);
    const NodeId parent = node.parent;
    VIPTREE_DCHECK(parent != kInvalidId);
    const TreeNode& pnode = tree_.node(parent);

    // The source's access doors index rows of the parent matrix, n's its
    // columns.
    NodeId source = parent;
    Span<const int32_t> rows;
    if (contains_q(parent) && nodes_[parent].chain_pos > 0) {
      // Parent contains q: use the sibling on q's chain (Lemma 8).
      source = ascent.chain[nodes_[parent].chain_pos - 1];
      rows = tree_.ParentMatrixPositions(source);
    } else {
      // Parent does not contain q: use the parent itself (Lemma 9).
      rows = tree_.OwnMatrixPositions(parent);
    }
    const Span<const int32_t> cols = tree_.ParentMatrixPositions(n);
    const size_t nc = node.access_doors.size();
    const size_t nb = tree_.node(source).access_doors.size();
    double* const dist = add_row(n);
    const double* const source_dist = row(source);
    // Row-outer kernel form: one gather per source door over its parent-
    // matrix row (common/kernels.h); same candidate per output as the
    // historical column-outer loop, folded in the same b order.
    for (size_t b = 0; b < nb; ++b) {
      const double add = source_dist[b];
      if (add == kInfDistance) continue;  // inf + cell never improves
      if (b + 1 < nb) {
        kernels::PrefetchRead(
            pnode.dist.row(static_cast<size_t>(rows[b + 1])).data());
      }
      kernels::MinPlusGatherF32(
          dist, pnode.dist.row(static_cast<size_t>(rows[b])).data(),
          cols.data(), add, nc);
    }
    return dist;
  };

  auto mindist = [&](NodeId n) {
    if (contains_q(n)) return 0.0;
    return kernels::RowMin(ensure_ad_dist(n),
                           tree_.node(n).access_doors.size());
  };

  // Min-heap of (mindist, node), kept like `best`.
  std::vector<NodeBound>& heap = node_heap_;
  heap.clear();
  const auto push_node = [&heap](double bound, NodeId n) {
    heap.emplace_back(bound, n);
    std::push_heap(heap.begin(), heap.end(), std::greater<NodeBound>{});
  };
  push_node(0.0, tree_.root());

  // Per-leaf scratch (best distance per object, in-radius indices), reused
  // across leaf scans and searches so the hot loop stays allocation-free.
  std::vector<double>& leaf_best = leaf_best_;
  std::vector<int32_t>& in_radius = in_radius_;

  while (!heap.empty()) {
    const auto [bound, n] = heap.front();
    std::pop_heap(heap.begin(), heap.end(), std::greater<NodeBound>{});
    heap.pop_back();
    if (bound > dk()) break;  // line 6-7 of Algorithm 5
    const TreeNode& node = tree_.node(n);
    if (stats != nullptr) {
      ++stats->nodes_visited;
      if (node.is_leaf()) ++stats->leaves_scanned;
    }
    if (!node.is_leaf()) {
      // Pull the child nodes (and their subtree counts) toward the cache
      // before the mindist bound derivations walk them.
      for (NodeId child : node.children) {
        kernels::PrefetchRead(&tree_.node(child));
      }
      for (NodeId child : node.children) {
        const TreeNode& c = tree_.node(child);
        if (objects_->SubtreeCount(c) == 0 &&
            OverlayIn(overlay, c.leaf_begin, c.leaf_end).empty()) {
          continue;
        }
        if (!node_allowed(child)) continue;
        push_node(mindist(child), child);
      }
      continue;
    }
    // Leaf: exact object distances, packed objects first, then the overlay
    // objects of this leaf (scored alike, so a merge moves no bits).
    const Span<const ObjectId> objs = objects_->ObjectsInLeaf(n);
    const Span<const OverlayObject> hot =
        OverlayIn(overlay, node.leaf_begin, node.leaf_end);
    if (objs.empty() && hot.empty()) continue;
    if (n == q_leaf) {
      LocalObjectDistances(q, ascent, hot, local_dists_, stats);
      for (size_t i = 0; i < objs.size(); ++i) {
        offer(objs[i], local_dists_[i], object_allowed);
      }
      for (size_t j = 0; j < hot.size(); ++j) {
        offer(hot[j].id, local_dists_[objs.size() + j], overlay_allowed);
      }
      continue;
    }
    const double* const q_to_ad = ensure_ad_dist(n);
    const size_t num_cols = node.access_doors.size();
    // An overlay object's row folds exactly as a packed column does:
    // columns in order, infinite ones skipped (MinPlusRow's scalar form).
    for (const OverlayObject& o : hot) {
      double dist = kInfDistance;
      for (size_t col = 0; col < num_cols; ++col) {
        if (q_to_ad[col] == kInfDistance) continue;
        const double cand = q_to_ad[col] + o.row[col];
        if (cand < dist) dist = cand;
      }
      offer(o.id, dist, overlay_allowed);
    }
    if (objs.empty()) continue;
    // One contiguous distance row per access door (see ObjectIndex layout):
    // column-outer order keeps the kernel scanning sequential rows.
    leaf_best.assign(objs.size(), kInfDistance);
    for (size_t col = 0; col < num_cols; ++col) {
      const double q_to_door = q_to_ad[col];
      if (q_to_door == kInfDistance) continue;  // inf row never improves
      if (col + 1 < num_cols) {
        kernels::PrefetchRead(objects_->DoorDistances(n, col + 1).data());
      }
      kernels::MinPlusRow(leaf_best.data(),
                          objects_->DoorDistances(n, col).data(), q_to_door,
                          objs.size());
    }
    if (collect_all) {
      // Range mode: batch-filter the leaf against the radius instead of
      // offering objects one by one.
      if (stats != nullptr) stats->objects_considered += objs.size();
      in_radius.resize(objs.size());
      const size_t hits = kernels::FilterLeq(leaf_best.data(), objs.size(),
                                             radius, in_radius.data());
      for (size_t h = 0; h < hits; ++h) {
        const size_t i = static_cast<size_t>(in_radius[h]);
        if (!object_allowed(objs[i])) continue;
        results.push_back({objs[i], leaf_best[i]});
      }
      continue;
    }
    for (size_t i = 0; i < objs.size(); ++i) {
      offer(objs[i], leaf_best[i], object_allowed);
    }
  }

  if (collect_all) {
    std::sort(results.begin(), results.end(), Closer{});
    return results;
  }
  results.resize(best.size());
  for (size_t i = results.size(); i-- > 0;) {
    results[i] = best.front();
    std::pop_heap(best.begin(), best.end(), Closer{});
    best.pop_back();
  }
  return results;
}

}  // namespace viptree
