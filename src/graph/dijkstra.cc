#include "graph/dijkstra.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <functional>
#include <mutex>
#include <system_error>
#include <thread>

#include "common/check.h"
#include "common/span.h"

namespace viptree {

DijkstraEngine::DijkstraEngine(const D2DGraph& graph)
    : graph_(graph),
      dist_(graph.NumVertices(), kInfDistance),
      parent_(graph.NumVertices(), kInvalidId),
      parent_via_(graph.NumVertices(), kInvalidId),
      settled_(graph.NumVertices(), 0),
      epoch_mark_(graph.NumVertices(), 0),
      target_mark_(graph.NumVertices(), 0) {}

void DijkstraEngine::Reach(DoorId d, double dist, DoorId parent,
                           PartitionId via) {
  if (epoch_mark_[d] != epoch_) {
    epoch_mark_[d] = epoch_;
    settled_[d] = 0;
    dist_[d] = kInfDistance;
  }
  if (dist < dist_[d]) {
    dist_[d] = dist;
    parent_[d] = parent;
    parent_via_[d] = via;
    heap_.emplace_back(dist, d);
    std::push_heap(heap_.begin(), heap_.end(), std::greater<HeapEntry>());
  }
}

void DijkstraEngine::Start(Span<const DijkstraSource> sources) {
  ++epoch_;
  settled_count_ = 0;
  heap_.clear();
  for (const DijkstraSource& s : sources) {
    VIPTREE_DCHECK(s.door >= 0 &&
                   static_cast<size_t>(s.door) < graph_.NumVertices());
    Reach(s.door, s.offset, kInvalidId, kInvalidId);
  }
}

SettledDoor DijkstraEngine::SettleNext() {
  while (!heap_.empty()) {
    std::pop_heap(heap_.begin(), heap_.end(), std::greater<HeapEntry>());
    const auto [d, u] = heap_.back();
    heap_.pop_back();
    if (settled_[u] && epoch_mark_[u] == epoch_) continue;  // stale entry
    if (d > dist_[u]) continue;                             // stale entry
    settled_[u] = 1;
    ++settled_count_;
    for (const D2DEdge& e : graph_.EdgesOf(u)) {
      if (epoch_mark_[e.to] == epoch_ && settled_[e.to]) continue;
      Reach(e.to, d + e.weight, u, e.via);
    }
    return SettledDoor{u, d};
  }
  return SettledDoor{kInvalidId, kInfDistance};
}

size_t DijkstraEngine::RunToTargets(Span<const DoorId> targets) {
  if (++target_epoch_ == 0) {  // wrapped: stale marks could alias
    std::fill(target_mark_.begin(), target_mark_.end(), 0);
    target_epoch_ = 1;
  }
  size_t wanted = 0;
  size_t reached = 0;
  for (DoorId t : targets) {
    if (target_mark_[t] == target_epoch_) continue;  // repeated target
    target_mark_[t] = target_epoch_;
    if (Settled(t)) {
      ++reached;
    } else {
      ++wanted;
    }
  }
  while (wanted > 0) {
    const SettledDoor s = SettleNext();
    if (s.door == kInvalidId) break;
    if (target_mark_[s.door] == target_epoch_) {
      --wanted;
      ++reached;
    }
  }
  return reached;
}

void DijkstraEngine::RunWithin(double radius) {
  while (!heap_.empty()) {
    if (heap_.front().first > radius) return;
    SettleNext();
  }
}

void DijkstraEngine::RunAll() {
  while (SettleNext().door != kInvalidId) {
  }
}

std::vector<DoorId> DijkstraEngine::PathTo(DoorId d) const {
  VIPTREE_CHECK(Settled(d));
  std::vector<DoorId> path;
  for (DoorId cur = d; cur != kInvalidId; cur = parent_[cur]) {
    path.push_back(cur);
    VIPTREE_DCHECK(path.size() <= graph_.NumVertices());
  }
  std::reverse(path.begin(), path.end());
  return path;
}

unsigned ConstructionWorkers() {
  return std::max(1u, std::thread::hardware_concurrency());
}

void ForEachSource(const D2DGraph& graph, size_t num_sources, unsigned workers,
                   const std::function<void(size_t, DijkstraEngine&)>& search) {
  const size_t threads =
      std::max<size_t>(1, std::min<size_t>(workers, num_sources));
  std::atomic<size_t> cursor{0};
  std::mutex error_mu;
  std::exception_ptr error;  // the first failure, rethrown after the join
  const auto work = [&] {
    try {
      DijkstraEngine engine(graph);
      for (size_t i = cursor++; i < num_sources; i = cursor++) search(i, engine);
    } catch (...) {
      cursor = num_sources;  // hand out nothing more
      const std::lock_guard<std::mutex> lock(error_mu);
      if (error == nullptr) error = std::current_exception();
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(threads - 1);
  try {
    for (size_t w = 1; w < threads; ++w) pool.emplace_back(work);
  } catch (const std::system_error&) {
    // Out of threads: the ones started (and this one) take every source,
    // and the output does not depend on how many there are.
  }
  work();  // the calling thread is a worker too
  for (std::thread& t : pool) t.join();
  if (error != nullptr) std::rethrow_exception(error);
}

}  // namespace viptree
