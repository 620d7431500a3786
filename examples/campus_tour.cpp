// Campus-scale queries (§1.2.1: the Clayton campus motivates the paper's
// scalability claims): builds a multi-building campus connected by outdoor
// walkways, then answers cross-building queries — "a student may issue a
// query to find the nearest photocopier in a university campus" — comparing
// IP-Tree against the VIP-Tree engine façade on long-range shortest
// distances, sequentially and through a 4-worker engine::Service.

#include <cstdio>
#include <memory>

#include "common/stats.h"
#include "core/distance_query.h"
#include "core/ip_tree.h"
#include "engine/query_engine.h"
#include "engine/service.h"
#include "graph/d2d_graph.h"
#include "synth/campus_generator.h"
#include "synth/objects.h"

using namespace viptree;

int main() {
  // A 12-building campus (scaled-down Clayton analogue).
  const Venue venue =
      synth::GenerateCampus(synth::MixedCampusConfig(12, 0.4, /*seed=*/3));
  const D2DGraph graph(venue);
  std::printf("campus: %zu partitions, %zu doors, %zu D2D edges\n",
              venue.NumPartitions(), venue.NumDoors(), graph.NumEdges());

  Rng rng(17);
  const std::vector<IndoorPoint> copiers = synth::PlaceObjects(venue, 20, rng);

  Timer build_timer;
  const IPTree ip = IPTree::Build(venue, graph);
  const double ip_ms = build_timer.ElapsedMillis();
  build_timer.Reset();
  const auto bundle = std::make_shared<const engine::VenueBundle>(
      engine::VenueBundle::BuildFrom(venue, graph, copiers));
  const engine::QueryEngine engine(bundle);
  const double vip_ms = build_timer.ElapsedMillis();
  std::printf(
      "IP-Tree built in %.1f ms (%.1f MB), VIP engine in %.1f ms (%.1f MB)\n",
      ip_ms, ip.MemoryBytes() / 1048576.0, vip_ms,
      engine.tree().MemoryBytes() / 1048576.0);

  // Cross-building shortest distances: a student in building 0 heading to
  // rooms all over the campus.
  IndoorPoint student;
  for (PartitionId p = 0; p < (PartitionId)venue.NumPartitions(); ++p) {
    if (venue.partition(p).zone == 0 &&
        venue.partition(p).use == PartitionUse::kRoom) {
      student = IndoorPoint{p, venue.partition(p).centroid};
      break;
    }
  }
  const std::vector<IndoorPoint> targets =
      synth::RandomQueryPoints(venue, 2000, rng);
  std::vector<engine::Query> batch;
  batch.reserve(targets.size());
  for (const IndoorPoint& t : targets) {
    batch.push_back(engine::Query::Distance(student, t));
  }

  IPDistanceQuery ip_query(ip);
  Timer timer;
  double sum_ip = 0.0;
  for (const IndoorPoint& t : targets) sum_ip += ip_query.Distance(student, t);
  const double ip_query_us = timer.ElapsedMicros() / targets.size();

  std::vector<double> latencies;
  double sum_vip = 0.0;
  for (const engine::Result& r : engine.RunSequential(batch)) {
    latencies.push_back(r.latency_micros);
    sum_vip += r.distance;
  }
  std::printf(
      "avg SD query: IP-Tree %.2f us, VIP engine %.2f us (checksums %.0f / "
      "%.0f)\n",
      ip_query_us, Summarize(latencies).mean, sum_ip, sum_vip);

  // The same 2000 queries served by 4 resident workers.
  std::vector<engine::Request> requests(batch.size());
  for (size_t i = 0; i < batch.size(); ++i) requests[i].query = batch[i];
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
      "served %zu queries on %zu workers: %.1f ms wall, %.0f queries/s, "
      "p95 %.1f us\n",
      served.num_queries, service.num_threads(), wall_ms,
      served.num_queries / (wall_ms / 1000.0), served.latency_micros.p95);

  // Nearest photocopier across the campus.
  const auto nearest = engine.Run(engine::Query::Knn(student, 3)).objects;
  std::printf("3 nearest photocopiers from %s:\n",
              venue.partition(student.partition).name.c_str());
  for (const ObjectResult& r : nearest) {
    const Partition& p = venue.partition(copiers[r.object].partition);
    std::printf("  %s (building %d, level %d) at %.1f m\n", p.name.c_str(),
                p.zone, p.level, r.distance);
  }
  return 0;
}
