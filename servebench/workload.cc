#include "workload.h"

#include <algorithm>
#include <cmath>
#include <deque>

#include "common/rng.h"
#include "engine/workload_text.h"
#include "net/router.h"
#include "synth/objects.h"

namespace servebench {

namespace eng = viptree::engine;
using viptree::ObjectDelta;
using viptree::ObjectId;
using viptree::Rng;

namespace {

// Hot source points per venue on city-hotspot (bench_coalesce's skew).
constexpr size_t kHotSources = 16;
// Fast movers per venue on city-churn.
constexpr size_t kFastMovers = 64;
// The objects per venue city-hotspot's move trickle draws from: fewer than
// the live index's merge watermark (64), so its overlay never merges and
// read cost stays level, more than kMoveSpacing.
constexpr size_t kTrickleMovers = 40;
// A move never targets an object moved by one of this venue's previous
// kMoveSpacing moves, so two moves of one object are never in flight at
// once and the answer checker's epochs stay well defined.
constexpr size_t kMoveSpacing = 32;

// Zipfian ranks 0..n-1 with P(r) proportional to 1/(r+1).
class Zipf {
 public:
  explicit Zipf(size_t n) {
    double total = 0.0;
    for (size_t r = 0; r < n; ++r) {
      total += 1.0 / static_cast<double>(r + 1);
      cumulative_.push_back(total);
    }
  }
  size_t Next(Rng& rng) const {
    const double u = rng.UniformReal(0.0, cumulative_.back());
    const auto it = std::upper_bound(cumulative_.begin(), cumulative_.end(), u);
    return std::min<size_t>(it - cumulative_.begin(), cumulative_.size() - 1);
  }

 private:
  std::vector<double> cumulative_;
};

// Per-venue move bookkeeping: picks the object of the next move.
class MovePicker {
 public:
  MovePicker(size_t num_objects, std::vector<ObjectId> fast)
      : num_objects_(num_objects), fast_(std::move(fast)) {}

  // With probability `fast_share` a fast mover, else any object; never one
  // of the last kMoveSpacing moved ids.
  ObjectId Next(Rng& rng, double fast_share) {
    const bool fast = !fast_.empty() && rng.Chance(fast_share);
    ObjectId id = 0;
    for (int attempt = 0;; ++attempt) {
      id = fast && attempt < 64
               ? fast_[rng.UniformIndex(fast_.size())]
               : static_cast<ObjectId>(rng.UniformIndex(num_objects_));
      if (std::find(recent_.begin(), recent_.end(), id) == recent_.end()) {
        break;
      }
    }
    recent_.push_back(id);
    if (recent_.size() > kMoveSpacing) recent_.pop_front();
    return id;
  }

 private:
  size_t num_objects_;
  std::vector<ObjectId> fast_;
  std::deque<ObjectId> recent_;
};

eng::Request MoveRequest(const std::string& venue, ObjectId id,
                         const IndoorPoint& to) {
  ObjectDelta delta;
  delta.moves.push_back({id, to});
  return eng::Request::Update(venue, std::move(delta));
}

eng::Request QueryRequest(const std::string& venue, eng::Query query) {
  eng::Request request;
  request.venue_id = venue;
  request.query = std::move(query);
  return request;
}

}  // namespace

bool ShapeFor(const std::string& name, WorkloadShape* shape) {
  WorkloadShape s;
  s.name = name;
  if (name == "men2-mixed") {
    s.dataset = viptree::synth::Dataset::kMen2;
    s.scale = 1.0;
    s.fixed_objects = 50;  // the paper's default object count
    s.keywords = true;
  } else if (name == "city-hotspot" || name == "city-churn") {
    s.dataset = viptree::synth::Dataset::kCity;
    s.scale = 0.05;  // the repository's default City tier
    s.objects_per_partition = 3;
    s.burst = name == "city-hotspot" ? 16 : 1;
  } else {
    return false;
  }
  *shape = s;
  return true;
}

std::vector<std::string> WorkloadNames() {
  return {"men2-mixed", "city-hotspot", "city-churn"};
}

Venue MakeVenue(const WorkloadShape& shape) {
  return viptree::synth::MakeDataset(shape.dataset, shape.scale);
}

std::vector<std::string> ServedVenueIds() {
  // The assignment depends only on the shard index, so placeholder
  // endpoints give the live router's partition.
  const viptree::net::Router probe({"127.0.0.1:1", "127.0.0.1:2"}, {});
  const std::string first = "hall-0";
  for (int i = 1;; ++i) {
    const std::string candidate = "hall-" + std::to_string(i);
    if (probe.ShardForVenue(candidate) != probe.ShardForVenue(first)) {
      return {first, candidate};
    }
  }
}

std::vector<double> Scenario::Offsets(size_t first, size_t count,
                                      double rate) const {
  std::vector<double> offsets(count);
  if (shape.burst > 1) {
    const double period = static_cast<double>(shape.burst) / rate;
    for (size_t j = 0; j < count; ++j) {
      offsets[j] = static_cast<double>(j / shape.burst) * period;
    }
    return offsets;
  }
  double t = 0.0;
  for (size_t j = 0; j < count; ++j) {
    if (j > 0) t += unit_gaps[first + j] / rate;
    offsets[j] = t;
  }
  return offsets;
}

Scenario MakeScenario(const WorkloadShape& shape, const Venue& venue,
                      uint64_t seed, size_t length) {
  Scenario sc;
  sc.shape = shape;
  sc.venue_ids = ServedVenueIds();

  Rng object_rng(seed * 0x9E3779B97F4A7C15ull + 1);
  const size_t num_objects =
      shape.fixed_objects > 0
          ? shape.fixed_objects
          : shape.objects_per_partition * venue.NumPartitions();
  sc.objects = viptree::synth::PlaceObjects(venue, num_objects, object_rng);
  if (shape.keywords) {
    sc.keywords.resize(num_objects);
    for (size_t i = 0; i < num_objects; ++i) {
      sc.keywords[i] = {"tag-" + std::to_string(i % 3)};
    }
  }

  Rng rng(seed * 0xD1B54A32D192ED03ull + 7);
  const size_t num_venues = sc.venue_ids.size();
  const auto random_point = [&]() {
    return viptree::synth::RandomIndoorPoint(venue, rng);
  };

  // Per-venue state: hot pools, fast movers, move pickers.
  std::vector<std::vector<IndoorPoint>> hot(num_venues);
  std::vector<MovePicker> movers;
  for (size_t v = 0; v < num_venues; ++v) {
    if (shape.name == "city-hotspot") {
      for (size_t i = 0; i < kHotSources; ++i) hot[v].push_back(random_point());
    }
    std::vector<ObjectId> fast;
    const size_t pool = shape.name == "city-churn"     ? kFastMovers
                        : shape.name == "city-hotspot" ? kTrickleMovers
                                                       : 0;
    for (size_t i = 0; i < pool; ++i) {
      fast.push_back(static_cast<ObjectId>(rng.UniformIndex(num_objects)));
    }
    movers.emplace_back(num_objects, std::move(fast));
  }
  const Zipf zipf(kHotSources);

  sc.stream.reserve(length);
  sc.unit_gaps.reserve(length);
  for (size_t i = 0; i < length; ++i) {
    const size_t v = rng.UniformIndex(num_venues);
    const std::string& id = sc.venue_ids[v];
    const double u = rng.UniformReal(0.0, 1.0);
    if (shape.name == "men2-mixed") {
      if (rng.Chance(0.01)) {
        sc.stream.push_back(MoveRequest(id, movers[v].Next(rng, 0.0),
                                        random_point()));
      } else {
        const IndoorPoint a = random_point();
        if (u < 0.4) {
          sc.stream.push_back(
              QueryRequest(id, eng::Query::Distance(a, random_point())));
        } else if (u < 0.6) {
          sc.stream.push_back(
              QueryRequest(id, eng::Query::Path(a, random_point())));
        } else if (u < 0.8) {
          sc.stream.push_back(QueryRequest(id, eng::Query::Knn(a, 5)));
        } else if (u < 0.9) {
          sc.stream.push_back(QueryRequest(id, eng::Query::Range(a, 100.0)));
        } else {
          const std::string tag = "tag-" + std::to_string(rng.UniformIndex(3));
          sc.stream.push_back(
              QueryRequest(id, eng::Query::BooleanKnn(a, 3, {tag})));
        }
      }
    } else if (shape.name == "city-hotspot") {
      if (rng.Chance(0.005)) {
        sc.stream.push_back(MoveRequest(id, movers[v].Next(rng, 1.0),
                                        random_point()));
      } else {
        const IndoorPoint& source = hot[v][zipf.Next(rng)];
        if (u < 0.6) {
          sc.stream.push_back(
              QueryRequest(id, eng::Query::Distance(source, random_point())));
        } else if (u < 0.9) {
          sc.stream.push_back(QueryRequest(id, eng::Query::Knn(source, 5)));
        } else {
          sc.stream.push_back(
              QueryRequest(id, eng::Query::Path(source, random_point())));
        }
      }
    } else {  // city-churn
      if (u < 0.25) {
        sc.stream.push_back(MoveRequest(id, movers[v].Next(rng, 0.9),
                                        random_point()));
      } else if (u < 0.75) {
        sc.stream.push_back(
            QueryRequest(id, eng::Query::Knn(random_point(), 5)));
      } else {
        sc.stream.push_back(
            QueryRequest(id, eng::Query::Range(random_point(), 30.0)));
      }
    }
    sc.unit_gaps.push_back(-std::log1p(-rng.UniformReal(0.0, 1.0)));
  }
  return sc;
}

std::string StreamText(const Scenario& scenario) {
  std::string text;
  for (const eng::Request& request : scenario.stream) {
    text += eng::workload::EmitLine(request);
    text += '\n';
  }
  return text;
}

}  // namespace servebench
