// Quickstart: build a small office building, stand up the QueryEngine
// façade over a VIP-Tree, and answer the four query types of the paper
// (shortest distance, shortest path, kNN, range) — single queries through
// Run() and a concurrent batch through a 4-worker engine::Service over the
// same shared bundle. Finishes with the snapshot workflow: Save() the
// engine's self-contained bundle, Load() it back (as a serving process
// would), and check both answer identically.
//
//   ./build/quickstart

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>

#include "engine/query_engine.h"
#include "engine/service.h"
#include "synth/building_generator.h"
#include "synth/objects.h"

using namespace viptree;

int main() {
  // 1. Model the venue: a 4-storey building with 30 rooms per floor.
  synth::BuildingConfig config;
  config.name = "demo-office";
  config.floors = 4;
  config.rooms_per_floor = 30;
  config.staircases = 2;
  config.lifts = 1;
  Venue built_venue = synth::GenerateStandaloneBuilding(config, /*seed=*/7);
  std::printf("venue: %zu partitions, %zu doors\n",
              built_venue.NumPartitions(), built_venue.NumDoors());

  // 2. Index some objects (printers, say) and build the serving bundle: it
  // takes ownership of the venue, derives the door-to-door graph, and owns
  // one VIP-Tree plus an object index. The engine puts a typed query API
  // over the shared, immutable bundle.
  Rng rng(42);
  const std::vector<IndoorPoint> printers =
      synth::PlaceObjects(built_venue, 8, rng);
  const auto bundle = std::make_shared<const engine::VenueBundle>(
      engine::VenueBundle::Build(std::move(built_venue), printers));
  const engine::QueryEngine engine(bundle);
  const Venue& venue = engine.venue();
  const IPTree::Stats stats = engine.tree().base().ComputeStats();
  std::printf(
      "VIP-Tree: %zu nodes, %zu leaves, height %d, avg access doors %.2f\n",
      stats.num_nodes, stats.num_leaves, stats.height,
      stats.avg_access_doors);

  // 3. Shortest distance and path between two points on different floors.
  const IndoorPoint a = synth::RandomIndoorPoint(venue, rng);
  const IndoorPoint b = synth::RandomIndoorPoint(venue, rng);
  const engine::Result dist = engine.Run(engine::Query::Distance(a, b));
  std::printf("dist(%s, %s) = %.2f m (%.1f us, %zu tree nodes)\n",
              venue.partition(a.partition).name.c_str(),
              venue.partition(b.partition).name.c_str(), dist.distance,
              dist.latency_micros, dist.visited_nodes);

  const engine::Result path = engine.Run(engine::Query::Path(a, b));
  std::printf("shortest path crosses %zu doors:", path.doors.size());
  for (DoorId d : path.doors) std::printf(" d%d", d);
  std::printf("\n");

  // 4. The 3 nearest printers plus everything within 50 metres.
  std::printf("3 nearest printers:\n");
  for (const ObjectResult& r : engine.Run(engine::Query::Knn(a, 3)).objects) {
    std::printf("  printer %d in %s at %.2f m\n", r.object,
                venue.partition(printers[r.object].partition).name.c_str(),
                r.distance);
  }
  const engine::Result in_range = engine.Run(engine::Query::Range(a, 50.0));
  std::printf("%zu printers within 50 m\n", in_range.objects.size());

  // 5. Concurrent serving: queue 400 mixed queries on a 4-worker Service
  // over the same shared, read-only bundle; tickets[i] answers requests[i].
  std::vector<engine::Request> requests(400);
  for (size_t i = 0; i < requests.size(); ++i) {
    const IndoorPoint s = synth::RandomIndoorPoint(venue, rng);
    const IndoorPoint t = synth::RandomIndoorPoint(venue, rng);
    requests[i].query = i % 2 == 0 ? engine::Query::Distance(s, t)
                                   : engine::Query::Knn(s, 3);
  }
  engine::ServiceOptions service_options;
  service_options.num_threads = 4;
  service_options.queue_capacity = requests.size();
  engine::Service service(bundle, service_options);
  const Timer wall;
  service.Start();
  for (engine::Ticket& ticket : service.SubmitBatch(std::move(requests))) {
    ticket.Take();
  }
  const double wall_ms = wall.ElapsedMillis();
  const engine::ServiceStats served = service.Stats();
  std::printf(
      "service: %zu queries on %zu workers in %.2f ms (%.0f queries/s, "
      "p95 %.1f us)\n",
      served.num_queries, service.num_threads(), wall_ms,
      served.num_queries / (wall_ms / 1000.0), served.latency_micros.p95);

  // 6. Snapshot persistence: save the whole serving state, load it back
  // the way a fresh serving process would, and answer the same query.
  const char* tmpdir = std::getenv("TMPDIR");
  const std::string snapshot_path =
      std::string(tmpdir != nullptr && tmpdir[0] != '\0' ? tmpdir : "/tmp") +
      "/quickstart.vipsnap";
  Timer snapshot_timer;
  const io::Status saved = engine.Save(snapshot_path);
  if (!saved.ok()) {
    std::fprintf(stderr, "save failed: %s\n", saved.error.c_str());
    return 1;
  }
  std::string error;
  const std::unique_ptr<engine::QueryEngine> loaded =
      engine::QueryEngine::TryLoad(snapshot_path, &error);
  const double snapshot_ms = snapshot_timer.ElapsedMillis();
  if (loaded == nullptr) {
    std::fprintf(stderr, "load failed: %s\n", error.c_str());
    return 1;
  }
  const double reload_dist =
      loaded->Run(engine::Query::Distance(a, b)).distance;
  std::printf(
      "snapshot: saved + reloaded in %.1f ms, reloaded engine agrees: %s\n",
      snapshot_ms, reload_dist == dist.distance ? "yes" : "NO");
  std::remove(snapshot_path.c_str());
  return reload_dist == dist.distance ? 0 : 1;
}
