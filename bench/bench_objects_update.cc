// Cost of live object updates (core/live_objects.h) and their effect on
// query latency.
//
// Not a paper figure — VIP-Tree's object index is static in the paper;
// this measures the epoch-published mutable layer added on top. Four
// phases:
//
//   1. Publish cost: single-move ApplyDelta publishes on the Men-2
//      analogue, split into overlay patches (below the merge watermark)
//      and merges (the leaves the overlay's ids entered or left rebuilt,
//      every other leaf shared with the previous base), with a SetObjects
//      full replacement for comparison.
//   2. Watermark sweep: mean publish cost at merge watermarks 0..256 —
//      small watermarks merge often, large ones copy a larger overlay
//      into every published snapshot. Reads do not grow with it: the kNN
//      search scores an overlay entry only when it scans the entry's
//      leaf, exactly as it scores a packed object.
//   3. Query p99 under churn: reader threads run a closed kNN loop over a
//      shared bundle, quiescent with an empty overlay, quiescent with the
//      overlay filled to the merge watermark (no merge), and with a writer
//      publishing moves at full rate; reports reader p50/p99 each way and
//      the sustained update rate. The two quiescent lines should match.
//   4. City merge cost: the City analogue with 3 objects per partition
//      (the servebench City object count at scale 0.05). One merge timed
//      both ways — a full build (the ObjectIndex constructor) against the
//      leaf merge (ObjectIndex::Merge) over a chain of merges of
//      watermark + 1 moved objects, with arrival rows taken from the
//      overlay or filled by the merge — with leaves rebuilt and rows
//      filled per merge; then the publish costs and the watermark sweep
//      of phases 1-2 on City.
//
//   VIPTREE_SCALE= / VIPTREE_QUERIES= shrink or grow the workload as with
//   the figure benchmarks.

#include <algorithm>
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

// One single-move delta against a random object of the first
// `num_objects`.
ObjectDelta RandomMove(const Venue& venue, size_t num_objects, Rng& rng) {
  ObjectDelta delta;
  delta.moves.push_back(
      {static_cast<ObjectId>(rng.UniformIndex(num_objects)),
       synth::RandomIndoorPoint(venue, rng)});
  return delta;
}

struct PublishCosts {
  Summary patch;  // overlay-patch publishes
  Summary merge;  // watermark-triggered merge publishes
};

PublishCosts MeasurePublishes(LiveObjectIndex& live, const Venue& venue,
                              size_t num_objects, size_t publishes,
                              uint64_t seed) {
  Rng rng(seed);
  std::vector<double> patch_micros;
  std::vector<double> merge_micros;
  for (size_t i = 0; i < publishes; ++i) {
    const ObjectDelta delta = RandomMove(venue, num_objects, rng);
    const Timer timer;
    const std::optional<std::string> error = live.ApplyDelta(delta);
    const double micros = timer.ElapsedMicros();
    if (error.has_value()) {
      std::fprintf(stderr, "publish failed: %s\n", error->c_str());
      continue;
    }
    // A publish that left the overlay empty merged it into the base.
    if (live.Acquire()->overlay.empty()) {
      merge_micros.push_back(micros);
    } else {
      patch_micros.push_back(micros);
    }
  }
  return {Summarize(patch_micros), Summarize(merge_micros)};
}

void PrintPublishCosts(const PublishCosts& costs, size_t publishes) {
  std::printf("\npublish cost over %zu single-move deltas (watermark %zu):\n",
              publishes, LiveObjectIndex::Options().merge_watermark);
  std::printf(
      "  overlay patch  %7zu publishes  mean %8.1f us  p99 %8.1f us\n",
      costs.patch.count, costs.patch.mean, costs.patch.p99);
  std::printf(
      "  merge          %7zu publishes  mean %8.1f us  p99 %8.1f us\n",
      costs.merge.count, costs.merge.mean, costs.merge.p99);
}

// Mean publish cost at merge watermarks 0..256: small watermarks merge
// often (0 merges on every publish, as a store without an overlay would),
// large ones copy a larger overlay into every published snapshot.
void WatermarkSweep(const IPTree& tree, const Venue& venue,
                    const std::vector<IndoorPoint>& objects,
                    size_t publishes) {
  std::printf("\nwatermark sweep (%zu single-move publishes each):\n",
              publishes);
  for (const size_t watermark : {size_t{0}, size_t{8}, size_t{32},
                                 size_t{64}, size_t{128}, size_t{256}}) {
    LiveObjectIndex::Options options;
    options.merge_watermark = watermark;
    LiveObjectIndex swept(tree, objects, {}, options);
    const PublishCosts costs =
        MeasurePublishes(swept, venue, objects.size(), publishes, 0xFADE);
    const size_t total = costs.patch.count + costs.merge.count;
    const double mean_all =
        total > 0 ? (costs.patch.mean * costs.patch.count +
                     costs.merge.mean * costs.merge.count) /
                        total
                  : 0.0;
    std::printf(
        "  watermark %4zu: mean %8.1f us/publish, %5zu merges, "
        "merge p99 %8.1f us\n",
        watermark, mean_all, costs.merge.count, costs.merge.p99);
  }
}

// Phase 4: one City merge timed both ways. Returns false if a merged base
// differs from the full build of the same positions.
bool CityMergeCost(size_t publishes) {
  const synth::Dataset dataset = synth::Dataset::kCity;
  DatasetBundle& data = GetDataset(dataset);
  const size_t num_objects = 3 * data.venue.NumPartitions();
  const std::vector<IndoorPoint> positions = Objects(dataset, num_objects);
  std::printf(
      "\n=== City merge cost: %zu partitions, %zu doors, %zu objects ===\n",
      data.venue.NumPartitions(), data.venue.NumDoors(), num_objects);
  const eng::VenueBundle bundle =
      eng::VenueBundle::BuildFrom(data.venue, data.graph, positions);
  const IPTree& tree = bundle.tree().base();

  std::vector<double> full_micros;
  for (int i = 0; i < 5; ++i) {
    const Timer timer;
    const ObjectIndex full(tree, positions);
    full_micros.push_back(timer.ElapsedMicros());
  }
  const Summary full = Summarize(full_micros);
  std::printf("  full build (ObjectIndex constructor) %5zu builds   "
              "p50 %9.1f us  p99 %9.1f us\n",
              full.count, full.p50, full.p99);

  // Chains of merges of watermark + 1 distinct moved objects each (the
  // arrivals of one watermark-triggered merge), starting from a built base.
  const size_t batch = LiveObjectIndex::Options().merge_watermark + 1;
  const size_t merges = std::max<size_t>(8, NumQueries() / 4);
  bool identical = true;
  for (const bool overlay_rows : {true, false}) {
    Rng rng(0xC17E);
    std::vector<IndoorPoint> moved = positions;
    auto base = std::make_shared<const ObjectIndex>(tree, moved);
    std::vector<double> micros;
    ObjectIndex::MergeStats stats;
    std::vector<std::vector<double>> rows(batch);
    for (size_t m = 0; m < merges; ++m) {
      std::vector<ObjectIndex::Arrival> arrivals;
      for (size_t i = 0; i < batch; ++i) {
        ObjectIndex::Arrival arrival;
        arrival.id = static_cast<ObjectId>((m * batch + i) % num_objects);
        arrival.from_leaf = tree.LeafOfPartition(moved[arrival.id].partition);
        arrival.point = synth::RandomIndoorPoint(data.venue, rng);
        moved[arrival.id] = arrival.point;
        if (overlay_rows) {  // the row the overlay entry already holds
          const TreeNode& leaf =
              tree.node(tree.LeafOfPartition(arrival.point.partition));
          rows[i].assign(leaf.access_doors.size(), 0.0);
          ObjectIndex::FillDoorRow(tree, leaf, arrival.point, rows[i].data(),
                                   1);
          arrival.row = rows[i].data();
        }
        arrivals.push_back(arrival);
      }
      const Timer timer;
      base = std::make_shared<const ObjectIndex>(
          ObjectIndex::Merge(base, std::move(arrivals), &stats));
      micros.push_back(timer.ElapsedMicros());
    }
    const Summary s = Summarize(micros);
    std::printf("  leaf merge, rows %-8s %5zu merges   p50 %9.1f us  p99 "
                "%9.1f us  (%.1f leaves rebuilt, %.1f rows filled per "
                "merge)\n",
                overlay_rows ? "given" : "filled", s.count, s.p50, s.p99,
                static_cast<double>(stats.leaves_rebuilt) / merges,
                static_cast<double>(stats.rows_filled) / merges);
    const ObjectIndex::Parts merged = base->ToParts();
    const ObjectIndex::Parts fresh = ObjectIndex(tree, moved).ToParts();
    identical = identical &&
                std::equal(merged.door_dists.begin(), merged.door_dists.end(),
                           fresh.door_dists.begin(), fresh.door_dists.end()) &&
                std::equal(merged.leaf_objects.begin(),
                           merged.leaf_objects.end(),
                           fresh.leaf_objects.begin(),
                           fresh.leaf_objects.end());
  }
  if (!identical) {
    std::printf("  MISMATCH: a merged base differs from the full build\n");
    return false;
  }

  LiveObjectIndex live(tree, positions);
  PrintPublishCosts(
      MeasurePublishes(live, data.venue, num_objects, publishes, 0xFADE),
      publishes);
  WatermarkSweep(tree, data.venue, positions, publishes);
  return true;
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
  PrintPublishCosts(MeasurePublishes(live, data.venue, kNumObjects,
                                     publishes, 0xFADE),
                    publishes);

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
  WatermarkSweep(bundle->tree().base(), data.venue, objects, publishes);

  // -------------------------------------------------------------------
  // Phase 3: reader latency, quiescent vs full-rate churn.
  // -------------------------------------------------------------------
  const size_t num_readers = 2;
  const size_t reads_per_thread = 4 * NumQueries();
  const size_t watermark = live.EffectiveMergeWatermark();
  enum class Readers { kQuiescent, kFullOverlay, kChurn };
  for (const Readers mode :
       {Readers::kQuiescent, Readers::kFullOverlay, Readers::kChurn}) {
    // Start from the packed set (empty overlay); the full-overlay line
    // then moves `watermark` distinct objects, one publish each, which
    // fills the overlay without crossing the merge threshold.
    live.SetObjects(objects);
    if (mode == Readers::kFullOverlay) {
      Rng rng(0x0FE7);
      for (size_t i = 0; i < watermark; ++i) {
        ObjectDelta delta;
        delta.moves.push_back({static_cast<ObjectId>(i),
                               synth::RandomIndoorPoint(data.venue, rng)});
        if (live.ApplyDelta(delta).has_value()) std::abort();  // impossible
      }
    }
    const size_t overlay = live.Acquire()->overlay.size();
    const bool churn = mode == Readers::kChurn;
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
    if (churn) {
      std::printf("\nkNN x%zu readers, writer at full rate:", num_readers);
    } else {
      std::printf("%skNN x%zu readers, quiescent, overlay %3zu:",
                  mode == Readers::kQuiescent ? "\n" : "", num_readers,
                  overlay);
    }
    std::printf(" p50 %7.1f us  p99 %7.1f us  (%.0f reads/s", s.p50, s.p99,
                wall_s > 0.0 ? all.size() / wall_s : 0.0);
    if (churn) {
      std::printf(", %.0f updates/s",
                  wall_s > 0.0 ? published.load() / wall_s : 0.0);
    }
    std::printf(")\n");
  }

  // -------------------------------------------------------------------
  // Phase 4: City merge cost.
  // -------------------------------------------------------------------
  return CityMergeCost(publishes) ? 0 : 1;
}

}  // namespace
}  // namespace bench
}  // namespace viptree

int main() { return viptree::bench::Main(); }
