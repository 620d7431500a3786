// Workload generation for the serving benchmark. Everything a run feeds the
// serving side — the venue, its objects and the request stream with its
// arrival schedule — is a pure function of (workload, seed, length): two
// calls with the same arguments produce identical scenarios, and the
// stream's workload_text rendering is byte-identical.
//
// Three workloads (see workloads.json for why each exists):
//   men2-mixed    Men-2, 50 keyworded objects, the canonical 40/20/20/10/10
//                 distance/path/kNN/range/boolean-kNN mix from uniform
//                 sources, ~1 move per 100 requests, Poisson arrivals.
//   city-hotspot  City, ~3 objects per room, 60/30/10 distance/kNN/path from
//                 zipfian sources over a 16-point hot pool per venue, a move
//                 trickle, arrivals in fixed-schedule bursts.
//   city-churn    City, ~3 objects per room, one request in four a move
//                 (mostly of a small fast-mover set), the rest kNN and range
//                 from uniform sources, Poisson arrivals.

#ifndef SERVEBENCH_WORKLOAD_H_
#define SERVEBENCH_WORKLOAD_H_

#include <cstdint>
#include <string>
#include <vector>

#include "engine/service.h"
#include "model/venue.h"
#include "synth/presets.h"

namespace servebench {

using viptree::IndoorPoint;
using viptree::Venue;

// Static shape of one workload: which venue, how many objects, the stream
// mix. Rates and limits live in workloads.json and arrive as flags.
struct WorkloadShape {
  std::string name;
  viptree::synth::Dataset dataset = viptree::synth::Dataset::kMen2;
  double scale = 1.0;
  size_t fixed_objects = 0;        // when > 0, the object count
  size_t objects_per_partition = 0;  // otherwise this many per partition
  bool keywords = false;
  // Arrivals come in bursts of this many back-to-back sends; 1 = Poisson.
  size_t burst = 1;
};

// The known workloads, or false for an unknown name.
bool ShapeFor(const std::string& name, WorkloadShape* shape);
std::vector<std::string> WorkloadNames();

struct Scenario {
  WorkloadShape shape;
  std::vector<IndoorPoint> objects;
  std::vector<std::vector<std::string>> keywords;  // empty without keywords
  // Both served venue ids (one snapshot, two ids on different shards).
  std::vector<std::string> venue_ids;
  std::vector<viptree::engine::Request> stream;
  // Exponential(1) inter-arrival gaps aligned with `stream`: gap i precedes
  // request i at rate 1/s (Poisson workloads only).
  std::vector<double> unit_gaps;

  // Arrival offset (seconds after the step starts) of the j-th request of a
  // step that begins at stream index `first` and runs at `rate` req/s.
  // Poisson workloads sum the scaled unit gaps; burst workloads send
  // bursts of shape.burst requests every burst/rate seconds.
  std::vector<double> Offsets(size_t first, size_t count, double rate) const;
};

// The venue of a workload (deterministic, independent of the seed).
Venue MakeVenue(const WorkloadShape& shape);

// The two venue ids: fixed names whose rendezvous assignment over two
// shards differs.
std::vector<std::string> ServedVenueIds();

// Builds the scenario for `seed` with a `length`-request stream.
Scenario MakeScenario(const WorkloadShape& shape, const Venue& venue,
                      uint64_t seed, size_t length);

// The stream in engine/workload_text line format (registry grammar, one
// request per line, trailing newline) — replayable with
// `viptree_query --registry <manifest> --serve --input <file>`.
std::string StreamText(const Scenario& scenario);

}  // namespace servebench

#endif  // SERVEBENCH_WORKLOAD_H_
