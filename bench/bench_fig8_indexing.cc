// Fig. 8: indexing cost — (a) construction time and (b) index size for
// every index across the six venues. The distance matrix is skipped beyond
// Men-2, exactly as in the paper ("The distance matrix ... cannot be built
// on the venues larger than Men-2").
//
//   VIPTREE_SCALE= shrinks or grows every venue (via bench_common's
//   ScaleFor). Construction-only, so VIPTREE_QUERIES has no effect here.
//
// The IP-/VIP-Tree builds fan their per-access-door Dijkstras over
// ConstructionWorkers() threads; G-tree, ROAD, DistAw and the distance
// matrix build on one thread. The header line states the worker count so
// the construction times are read with that difference in mind.

#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "common/stats.h"
#include "graph/dijkstra.h"

namespace viptree {
namespace bench {
namespace {

void BM_Construct(benchmark::State& state, synth::Dataset dataset,
                  EngineKind kind) {
  DatasetBundle& bundle = GetDataset(dataset);
  for (auto _ : state) {
    std::unique_ptr<QueryEngine> engine =
        MakeEngine(kind, bundle.venue, bundle.graph);
    state.counters["index_MB"] = benchmark::Counter(
        static_cast<double>(engine->IndexMemoryBytes()) / (1024.0 * 1024.0));
  }
}

}  // namespace
}  // namespace bench
}  // namespace viptree

int main(int argc, char** argv) {
  using namespace viptree;
  using namespace viptree::bench;
  std::printf("=== Fig. 8: index construction time (a) and size (b) ===\n");
  std::printf(
      "VIP-Tree / IP-Tree build: per-access-door Dijkstras on %u worker "
      "thread(s); G-tree, ROAD, DistAw and DistMx build single-threaded\n",
      ConstructionWorkers());
  const std::vector<EngineKind> kinds = {
      EngineKind::kVipTree, EngineKind::kIpTree, EngineKind::kDistAw,
      EngineKind::kGTree,   EngineKind::kRoad,   EngineKind::kDistMx};
  for (synth::Dataset d : AllBenchDatasets()) {
    for (EngineKind kind : kinds) {
      if (kind == EngineKind::kDistMx && !DistMxFeasible(d)) continue;
      benchmark::RegisterBenchmark(
          ("Fig8/Construct/" + synth::InfoFor(d).name + "/" +
           EngineName(kind))
              .c_str(),
          [d, kind](benchmark::State& state) { BM_Construct(state, d, kind); })
          ->Unit(benchmark::kMillisecond)
          ->Iterations(1);
    }
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
