// Cost of live object updates (core/live_objects.h) and their effect on
// query latency.
//
// Not a paper figure — VIP-Tree's object index is static in the paper;
// this measures the epoch-published mutable layer added on top. Three
// phases:
//
//   1. Publish cost: single-move ApplyDelta publishes on the Men-2
//      analogue, split into overlay patches (below the merge watermark)
//      and merge rebuilds (overlay folded into a fresh packed CSR), with
//      a SetObjects full replacement for comparison — the "patch vs
//      rebuild" gap is the point of the overlay.
//   2. Watermark sweep: mean publish cost at merge watermarks 8..256 —
//      small watermarks rebuild often, large ones tax every query with
//      more overlay distance evaluations.
//   3. Query p99 under churn: reader threads run a closed kNN loop over a
//      shared bundle, quiescent vs with a writer publishing moves at full
//      rate; reports reader p50/p99 both ways and the sustained update
//      rate.
//
//   VIPTREE_SCALE= / VIPTREE_QUERIES= shrink or grow the workload as with
//   the figure benchmarks.

#include <atomic>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "core/live_objects.h"
#include "engine/venue_bundle.h"

namespace viptree {
namespace bench {
namespace {

namespace eng = ::viptree::engine;

constexpr size_t kNumObjects = 200;

// One single-move delta against a random object.
ObjectDelta RandomMove(const Venue& venue, size_t num_objects, Rng& rng) {
  ObjectDelta delta;
  delta.moves.push_back(
      {static_cast<ObjectId>(rng.UniformIndex(num_objects)),
       synth::RandomIndoorPoint(venue, rng)});
  return delta;
}

struct PublishCosts {
  Summary patch;  // overlay-patch publishes
  Summary merge;  // watermark-triggered rebuild publishes
};

PublishCosts MeasurePublishes(LiveObjectIndex& live, const Venue& venue,
                              size_t publishes, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> patch_micros;
  std::vector<double> merge_micros;
  for (size_t i = 0; i < publishes; ++i) {
    const ObjectDelta delta = RandomMove(venue, kNumObjects, rng);
    const Timer timer;
    const std::optional<std::string> error = live.ApplyDelta(delta);
    const double micros = timer.ElapsedMicros();
    if (error.has_value()) {
      std::fprintf(stderr, "publish failed: %s\n", error->c_str());
      continue;
    }
    // A publish that left the overlay empty folded it into the CSR.
    if (live.Acquire()->overlay.empty()) {
      merge_micros.push_back(micros);
    } else {
      patch_micros.push_back(micros);
    }
  }
  return {Summarize(patch_micros), Summarize(merge_micros)};
}

int Main() {
  const synth::Dataset dataset = synth::Dataset::kMen2;
  DatasetBundle& data = GetDataset(dataset);
  std::printf("venue %s: %zu partitions, %zu doors, %zu objects\n",
              data.info.name.c_str(), data.venue.NumPartitions(),
              data.venue.NumDoors(), kNumObjects);

  const std::vector<IndoorPoint> objects = Objects(dataset, kNumObjects);

  // -------------------------------------------------------------------
  // Phase 1: patch vs merge vs full replacement, default watermark.
  // -------------------------------------------------------------------
  const auto bundle = std::make_shared<const eng::VenueBundle>(
      eng::VenueBundle::BuildFrom(data.venue, data.graph, objects));
  LiveObjectIndex& live = bundle->live_objects();

  const size_t publishes = 20 * NumQueries() / 5;
  const PublishCosts costs =
      MeasurePublishes(live, data.venue, publishes, 0xFADE);
  std::printf("\npublish cost over %zu single-move deltas (watermark %zu):\n",
              publishes, LiveObjectIndex::Options().merge_watermark);
  std::printf(
      "  overlay patch  %7zu publishes  mean %8.1f us  p99 %8.1f us\n",
      costs.patch.count, costs.patch.mean, costs.patch.p99);
  std::printf(
      "  merge rebuild  %7zu publishes  mean %8.1f us  p99 %8.1f us\n",
      costs.merge.count, costs.merge.mean, costs.merge.p99);

  {
    std::vector<double> replace_micros;
    Rng rng(0xF11);
    for (int i = 0; i < 20; ++i) {
      std::vector<IndoorPoint> replacement = objects;
      for (IndoorPoint& p : replacement) {
        p = synth::RandomIndoorPoint(data.venue, rng);
      }
      const Timer timer;
      live.SetObjects(std::move(replacement));
      replace_micros.push_back(timer.ElapsedMicros());
    }
    const Summary s = Summarize(replace_micros);
    std::printf(
        "  SetObjects     %7zu publishes  mean %8.1f us  p99 %8.1f us\n",
        s.count, s.mean, s.p99);
  }

  // -------------------------------------------------------------------
  // Phase 2: watermark sweep.
  // -------------------------------------------------------------------
  std::printf("\nwatermark sweep (%zu single-move publishes each):\n",
              publishes);
  for (const size_t watermark : {size_t{8}, size_t{32}, size_t{64},
                                 size_t{128}, size_t{256}}) {
    LiveObjectIndex::Options options;
    options.merge_watermark = watermark;
    LiveObjectIndex swept(bundle->tree().base(), objects, {}, options);
    const PublishCosts swept_costs =
        MeasurePublishes(swept, data.venue, publishes, 0xFADE);
    const size_t total = swept_costs.patch.count + swept_costs.merge.count;
    const double mean_all =
        total > 0 ? (swept_costs.patch.mean * swept_costs.patch.count +
                     swept_costs.merge.mean * swept_costs.merge.count) /
                        total
                  : 0.0;
    std::printf(
        "  watermark %4zu: mean %8.1f us/publish, %5zu merges, "
        "merge p99 %8.1f us\n",
        watermark, mean_all, swept_costs.merge.count,
        swept_costs.merge.p99);
  }

  // -------------------------------------------------------------------
  // Phase 3: reader latency, quiescent vs full-rate churn.
  // -------------------------------------------------------------------
  const size_t num_readers = 2;
  const size_t reads_per_thread = 4 * NumQueries();
  for (const bool churn : {false, true}) {
    std::atomic<bool> stop{false};
    std::atomic<uint64_t> published{0};
    std::thread writer;
    if (churn) {
      writer = std::thread([&] {
        Rng rng(0xC0FFEE);
        while (!stop.load(std::memory_order_acquire)) {
          if (!bundle->live_objects()
                   .ApplyDelta(RandomMove(data.venue, kNumObjects, rng))
                   .has_value()) {
            published.fetch_add(1, std::memory_order_relaxed);
          }
        }
      });
    }

    std::vector<std::vector<double>> latencies(num_readers);
    std::vector<std::thread> readers;
    const Timer wall;
    for (size_t r = 0; r < num_readers; ++r) {
      readers.emplace_back([&, r] {
        const eng::QueryEngine engine(bundle);
        Rng rng(0x5EED + r);
        latencies[r].reserve(reads_per_thread);
        for (size_t i = 0; i < reads_per_thread; ++i) {
          const eng::Query query = eng::Query::Knn(
              synth::RandomIndoorPoint(data.venue, rng), 5);
          const Timer timer;
          const eng::Result result = engine.Run(query);
          latencies[r].push_back(timer.ElapsedMicros());
          if (result.objects.empty()) std::abort();  // impossible
        }
      });
    }
    for (std::thread& t : readers) t.join();
    const double wall_s = wall.ElapsedSeconds();
    stop.store(true, std::memory_order_release);
    if (writer.joinable()) writer.join();

    std::vector<double> all;
    for (const std::vector<double>& per_thread : latencies) {
      all.insert(all.end(), per_thread.begin(), per_thread.end());
    }
    const Summary s = Summarize(all);
    std::printf("\nkNN x%zu readers, %s: p50 %7.1f us  p99 %7.1f us  "
                "(%.0f reads/s",
                num_readers, churn ? "writer at full rate" : "quiescent",
                s.p50, s.p99, wall_s > 0.0 ? all.size() / wall_s : 0.0);
    if (churn) {
      std::printf(", %.0f updates/s",
                  wall_s > 0.0 ? published.load() / wall_s : 0.0);
    }
    std::printf(")\n");
  }
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace viptree

int main() { return viptree::bench::Main(); }
