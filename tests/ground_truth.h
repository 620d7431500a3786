// Brute-force reference implementations used by property tests: exact
// point-to-point distances via multi-source Dijkstra on the D2D graph,
// brute-force kNN / range, door-path validation, the randomized synthetic
// venues the differential / invariant sweeps run against, the exact
// answer comparison every bit-identity sweep shares, and the in-order
// Service helper the batch sweeps compare against RunSequential.

#ifndef VIPTREE_TESTS_GROUND_TRUTH_H_
#define VIPTREE_TESTS_GROUND_TRUTH_H_

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "engine/service.h"
#include "graph/d2d_graph.h"
#include "graph/dijkstra.h"
#include "model/venue.h"
#include "synth/random_venue.h"

namespace viptree {
namespace testing {

inline double BruteDistance(const Venue& venue, const D2DGraph& graph,
                            const IndoorPoint& s, const IndoorPoint& t) {
  double best = kInfDistance;
  if (s.partition == t.partition) {
    best = venue.IntraPartitionDistance(s.partition, s.position, t.position);
  }
  std::vector<DijkstraSource> sources;
  for (DoorId u : venue.DoorsOf(s.partition)) {
    sources.push_back({u, venue.DistanceToDoor(s, u)});
  }
  DijkstraEngine engine(graph);
  engine.Start(sources);
  engine.RunAll();
  for (DoorId dt : venue.DoorsOf(t.partition)) {
    if (!engine.Settled(dt)) continue;
    best =
        std::min(best, engine.DistanceTo(dt) + venue.DistanceToDoor(t, dt));
  }
  return best;
}

struct BruteResult {
  ObjectId object;
  double distance;
};

inline std::vector<BruteResult> BruteAllObjectDistances(
    const Venue& venue, const D2DGraph& graph, const IndoorPoint& q,
    const std::vector<IndoorPoint>& objects) {
  std::vector<BruteResult> out;
  for (ObjectId o = 0; o < static_cast<ObjectId>(objects.size()); ++o) {
    out.push_back({o, BruteDistance(venue, graph, q, objects[o])});
  }
  // Ties break on the lower object id so the order is deterministic.
  std::sort(out.begin(), out.end(),
            [](const BruteResult& a, const BruteResult& b) {
              return a.distance != b.distance ? a.distance < b.distance
                                              : a.object < b.object;
            });
  return out;
}

// The k nearest objects by brute force (ascending by distance; ties keep
// the lower object id).
inline std::vector<BruteResult> BruteKnn(
    const Venue& venue, const D2DGraph& graph, const IndoorPoint& q,
    const std::vector<IndoorPoint>& objects, size_t k) {
  std::vector<BruteResult> all =
      BruteAllObjectDistances(venue, graph, q, objects);
  if (all.size() > k) all.resize(k);
  return all;
}

// All objects within `radius`, ascending by distance.
inline std::vector<BruteResult> BruteRange(
    const Venue& venue, const D2DGraph& graph, const IndoorPoint& q,
    const std::vector<IndoorPoint>& objects, double radius) {
  std::vector<BruteResult> all =
      BruteAllObjectDistances(venue, graph, q, objects);
  all.erase(std::remove_if(all.begin(), all.end(),
                           [radius](const BruteResult& r) {
                             return r.distance > radius;
                           }),
            all.end());
  return all;
}

// A randomized small venue for differential testing (now shared with the
// viptree_build CLI via synth::RandomVenue; kept as an alias so the test
// sweeps read naturally).
inline Venue RandomSynthVenue(uint64_t seed) {
  return synth::RandomVenue(seed);
}

// Sum of edge weights along a door path (using the cheapest parallel edge
// for each consecutive pair); kInfDistance if two consecutive doors are not
// connected. Endpoints' point legs are not included.
inline double DoorPathLength(const D2DGraph& graph,
                             const std::vector<DoorId>& doors) {
  double total = 0.0;
  for (size_t i = 0; i + 1 < doors.size(); ++i) {
    double best = kInfDistance;
    for (const D2DEdge& e : graph.EdgesOf(doors[i])) {
      if (e.to == doors[i + 1]) best = std::min(best, (double)e.weight);
    }
    if (best == kInfDistance) return kInfDistance;
    total += best;
  }
  return total;
}

// Full length of a point-to-point route through `doors`.
inline double PointPathLength(const Venue& venue, const D2DGraph& graph,
                              const IndoorPoint& s, const IndoorPoint& t,
                              const std::vector<DoorId>& doors) {
  if (doors.empty()) {
    return venue.IntraPartitionDistance(s.partition, s.position, t.position);
  }
  return venue.DistanceToDoor(s, doors.front()) +
         DoorPathLength(graph, doors) + venue.DistanceToDoor(t, doors.back());
}

// Exact equality on every answer field: identical deterministic code on
// identical inputs, so nothing weaker than == is acceptable. Latency is
// attribution, not an answer, and is never compared; visited_nodes only
// when `compare_visited`.
inline void ExpectSameResult(const engine::Result& want,
                             const engine::Result& got,
                             const std::string& where,
                             bool compare_visited = true) {
  EXPECT_EQ(want.type, got.type) << where;
  EXPECT_EQ(want.distance, got.distance) << where;
  EXPECT_EQ(want.doors, got.doors) << where;
  ASSERT_EQ(want.objects.size(), got.objects.size()) << where;
  for (size_t j = 0; j < want.objects.size(); ++j) {
    EXPECT_EQ(want.objects[j].object, got.objects[j].object)
        << where << " j=" << j;
    EXPECT_EQ(want.objects[j].distance, got.objects[j].distance)
        << where << " j=" << j;
  }
  if (compare_visited) {
    EXPECT_EQ(want.visited_nodes, got.visited_nodes) << where;
  }
}

// ExpectSameResult over two answer lists of equal length.
inline void ExpectSameResults(const std::vector<engine::Result>& want,
                              const std::vector<engine::Result>& got,
                              const std::string& where,
                              bool compare_visited = true) {
  ASSERT_EQ(want.size(), got.size()) << where;
  for (size_t i = 0; i < want.size(); ++i) {
    ExpectSameResult(want[i], got[i], where + " query " + std::to_string(i),
                     compare_visited);
  }
}

// Answers `queries` through a fresh Service over `bundle`: every request
// is queued before Start() (so workers pull full coalescing windows), then
// the tickets are taken in order, so results[i] answers queries[i]. Each
// response must be kOk. `stats`, when non-null, receives the service's
// Stats() once everything has completed.
inline std::vector<engine::Result> ServeInOrder(
    std::shared_ptr<const engine::VenueBundle> bundle,
    engine::ServiceOptions options,
    const std::vector<engine::Query>& queries,
    engine::ServiceStats* stats = nullptr) {
  options.queue_capacity = std::max<size_t>(1, queries.size());
  engine::Service service(std::move(bundle), options);
  std::vector<engine::Request> requests(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    requests[i].query = queries[i];
    requests[i].tag = i;
  }
  std::vector<engine::Ticket> tickets =
      service.SubmitBatch(std::move(requests));
  service.Start();
  std::vector<engine::Result> results;
  results.reserve(tickets.size());
  for (engine::Ticket& ticket : tickets) {
    engine::Response response = ticket.Take();
    EXPECT_TRUE(response.ok()) << engine::RequestStatusName(response.status)
                               << ": " << response.error;
    results.push_back(std::move(response.result));
  }
  if (stats != nullptr) *stats = service.Stats();
  return results;
}

}  // namespace testing
}  // namespace viptree

#endif  // VIPTREE_TESTS_GROUND_TRUTH_H_
