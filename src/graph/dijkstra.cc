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

void DijkstraEngine::Start(Span<const DijkstraSource> sources) {
  ++epoch_;
  settled_count_ = 0;
  relaxed_count_ = 0;
  heap_.clear();
  for (const DijkstraSource& s : sources) {
    VIPTREE_DCHECK(s.door >= 0 &&
                   static_cast<size_t>(s.door) < graph_.NumVertices());
    Reach(s.door, s.offset, kInvalidId, s.via);
  }
}

template SettledDoor DijkstraEngine::SettleNext(AllEdges);
template size_t DijkstraEngine::RunToTargets(Span<const DoorId>, AllEdges);

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
