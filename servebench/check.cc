#include "check.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <thread>

namespace servebench {

namespace eng = viptree::engine;
using viptree::IndoorPoint;
using viptree::ObjectDelta;
using viptree::ObjectId;

namespace {

// Uncertain moves beyond this many are not enumerated (2^n combinations);
// the query then counts as wrong unless stream order matches.
constexpr size_t kMaxToggles = 10;

// Object distances agree to the live index's precision (the bound the
// repository's own update differential test uses).
constexpr double kDistanceAbsTol = 1e-2;
constexpr double kDistanceRelTol = 1e-4;

double Tolerance(double distance) {
  return kDistanceAbsTol + kDistanceRelTol * std::abs(distance);
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

// How far from the query's source an object can lie and still be in the
// served answer: the radius of a range query, the k-th distance of a full
// kNN answer (any distance when the answer is short), and nothing for
// distance and path queries, whose answers do not depend on objects.
double Reach(const eng::Query& query, const eng::Result& served) {
  switch (query.type) {
    case eng::QueryType::kDistance:
    case eng::QueryType::kPath:
      return -1.0;
    case eng::QueryType::kRange:
      return query.radius + Tolerance(query.radius);
    case eng::QueryType::kKnn:
    case eng::QueryType::kBooleanKnn:
      break;
  }
  if (served.objects.size() < query.k) {
    return std::numeric_limits<double>::infinity();
  }
  double kth = 0.0;
  for (const viptree::ObjectResult& o : served.objects) {
    kth = std::max(kth, o.distance);
  }
  return kth + Tolerance(kth);
}

// An answer as text, for the wrong-answer diagnostic.
std::string Describe(const eng::Result& r) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", r.distance);
  std::string out = buf;
  for (const viptree::ObjectResult& o : r.objects) {
    std::snprintf(buf, sizeof(buf), " %u@%.17g",
                  static_cast<unsigned>(o.object), o.distance);
    out += buf;
  }
  return out;
}

}  // namespace

bool Equivalent(const eng::Result& served, const eng::Result& reference) {
  if (served.type == eng::QueryType::kDistance ||
      served.type == eng::QueryType::kPath) {
    return SameAnswer(served, reference);
  }
  if (served.type != reference.type ||
      served.objects.size() != reference.objects.size()) {
    return false;
  }
  // Object answers: the same objects, each at the same distance to the
  // live index's precision (packed float rows vs the double overlay, so
  // an object's bits depend on whether it was merged when the query ran).
  const auto by_id = [](std::vector<viptree::ObjectResult> v) {
    std::sort(v.begin(), v.end(),
              [](const viptree::ObjectResult& x,
                 const viptree::ObjectResult& y) {
                return x.object < y.object;
              });
    return v;
  };
  const std::vector<viptree::ObjectResult> a = by_id(served.objects);
  const std::vector<viptree::ObjectResult> b = by_id(reference.objects);
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].object != b[i].object ||
        std::abs(a[i].distance - b[i].distance) > Tolerance(b[i].distance)) {
      return false;
    }
  }
  return true;
}

bool SameAnswer(const eng::Result& a, const eng::Result& b) {
  if (a.type != b.type || !SameBits(a.distance, b.distance) ||
      a.doors != b.doors || a.objects.size() != b.objects.size()) {
    return false;
  }
  for (size_t i = 0; i < a.objects.size(); ++i) {
    if (a.objects[i].object != b.objects[i].object ||
        !SameBits(a.objects[i].distance, b.objects[i].distance)) {
      return false;
    }
  }
  return true;
}

AnswerChecker::AnswerChecker(const std::string& snapshot_path,
                             std::vector<std::string> venue_ids)
    : venue_ids_(std::move(venue_ids)) {
  for (size_t v = 0; v < venue_ids_.size(); ++v) {
    std::string error;
    std::unique_ptr<eng::QueryEngine> engine =
        eng::QueryEngine::TryLoad(snapshot_path, &error);
    if (engine == nullptr) {
      std::fprintf(stderr, "checker: cannot load %s: %s\n",
                   snapshot_path.c_str(), error.c_str());
      std::exit(1);
    }
    engine->EnableDistanceCache();  // bit-identical to a recompute
    positions_.push_back(engine->objects().objects());
    engines_.push_back(std::move(engine));
  }
  before_.resize(venue_ids_.size());
}

void AnswerChecker::Move(size_t venue, ObjectId id, const IndoorPoint& to) {
  ObjectDelta delta;
  delta.moves.push_back({id, to});
  if (const auto error = engines_[venue]->ApplyObjectDelta(delta)) {
    std::fprintf(stderr, "checker: reference move failed: %s\n",
                 error->c_str());
    std::exit(1);
  }
  positions_[venue][id] = to;
}

bool AnswerChecker::MatchesWithToggles(
    size_t venue, const eng::Query& query, const eng::Result& served,
    const std::vector<size_t>& toggles,
    const std::vector<eng::Request>& stream, size_t query_index) {
  std::vector<std::pair<ObjectId, IndoorPoint>> undo;
  for (const size_t j : toggles) {
    const ObjectDelta::Move& move = stream[j].delta.moves.front();
    undo.emplace_back(move.id, positions_[venue][move.id]);
    Move(venue, move.id, j < query_index ? before_[venue].at(j) : move.to);
  }
  const bool match = Equivalent(served, engines_[venue]->Run(query));
  for (auto it = undo.rbegin(); it != undo.rend(); ++it) {
    Move(venue, it->first, it->second);
  }
  return match;
}

bool AnswerChecker::MatchesSomeSubset(
    size_t venue, const eng::Query& query, const eng::Result& served,
    const std::vector<size_t>& moves, const std::vector<eng::Request>& stream,
    size_t query_index) {
  if (moves.empty() || moves.size() > kMaxToggles) return false;
  for (size_t mask = 1; mask < (size_t{1} << moves.size()); ++mask) {
    std::vector<size_t> toggles;
    for (size_t b = 0; b < moves.size(); ++b) {
      if ((mask >> b) & 1) toggles.push_back(moves[b]);
    }
    if (MatchesWithToggles(venue, query, served, toggles, stream,
                           query_index)) {
      return true;
    }
  }
  return false;
}

CheckResult AnswerChecker::Check(const std::vector<eng::Request>& stream,
                                 size_t first,
                                 const std::vector<Record>& records) {
  double max_latency = 0.0;
  for (const Record& r : records) {
    if (r.answered()) max_latency = std::max(max_latency, r.recv_s - r.sent_s);
  }
  // Each venue has its own reference engine, and a venue's answers depend
  // only on its own moves, so the venues are checked in parallel.
  std::vector<CheckResult> parts(venue_ids_.size());
  std::vector<std::thread> threads;
  for (size_t v = 0; v < venue_ids_.size(); ++v) {
    threads.emplace_back([&, v] {
      parts[v] = CheckVenue(v, stream, first, records, max_latency);
    });
  }
  CheckResult out;
  for (size_t v = 0; v < venue_ids_.size(); ++v) {
    threads[v].join();
    out.Add(parts[v]);
  }
  return out;
}

CheckResult AnswerChecker::CheckVenue(size_t venue,
                                      const std::vector<eng::Request>& stream,
                                      size_t first,
                                      const std::vector<Record>& records,
                                      double max_latency) {
  CheckResult out;
  for (size_t i = 0; i < records.size(); ++i) {
    const size_t index = first + i;
    const eng::Request& request = stream[index];
    const Record& record = records[i];
    if (request.venue_id != venue_ids_[venue]) continue;
    if (request.kind == eng::RequestKind::kUpdateObjects) {
      ++out.updates;
      const ObjectDelta::Move& move = request.delta.moves.front();
      before_[venue][index] = positions_[venue][move.id];
      Move(venue, move.id, move.to);
      if (!record.answered()) {
        ++out.missing;
      } else if (!record.response.ok()) {
        ++out.bad_status;
        std::fprintf(stderr, "checker: move %zu failed: %s\n", index,
                     record.response.error.c_str());
      }
      continue;
    }
    ++out.queries;
    if (!record.answered()) {
      ++out.missing;
      continue;
    }
    if (!record.response.ok()) {
      ++out.bad_status;
      std::fprintf(stderr, "checker: request %zu failed: %s %s\n", index,
                   eng::RequestStatusName(record.response.status),
                   record.response.error.c_str());
      continue;
    }
    const eng::Result& served = record.response.result;
    const eng::Result reference = engines_[venue]->Run(request.query);
    if (Equivalent(served, reference)) continue;

    // Uncertain moves of this venue: earlier ones not yet answered when
    // the query was sent, later ones sent before the query was answered.
    std::vector<size_t> uncertain;
    for (size_t j = i; j-- > 0;) {
      if (records[j].sent_s < record.sent_s - max_latency) break;
      const eng::Request& other = stream[first + j];
      if (other.kind == eng::RequestKind::kUpdateObjects &&
          other.venue_id == request.venue_id &&
          (!records[j].answered() || records[j].recv_s > record.sent_s)) {
        uncertain.push_back(first + j);
      }
    }
    for (size_t j = i + 1; j < records.size(); ++j) {
      if (records[j].sent_s > record.recv_s) break;
      const eng::Request& other = stream[first + j];
      if (other.kind == eng::RequestKind::kUpdateObjects &&
          other.venue_id == request.venue_id) {
        uncertain.push_back(first + j);
      }
    }
    // Only a move whose object lies within the served answer's reach at
    // one of its two positions can take part in producing that answer.
    // (An object in neither answer still can: moving it back may be what
    // keeps it out once another toggled move has freed a place.)
    const double reach = Reach(request.query, served);
    const auto within = [&](const IndoorPoint& p) {
      return std::isinf(reach) ||
             engines_[venue]
                     ->Run(eng::Query::Distance(request.query.source, p))
                     .distance <= reach;
    };
    std::vector<size_t> relevant;
    for (const size_t j : uncertain) {
      const ObjectDelta::Move& move = stream[j].delta.moves.front();
      const IndoorPoint& other =
          j < index ? before_[venue].at(j) : positions_[venue][move.id];
      if (reach >= 0.0 && (within(move.to) || within(other))) {
        relevant.push_back(j);
      }
    }
    if (MatchesSomeSubset(venue, request.query, served, relevant, stream,
                          index)) {
      ++out.reordered;
    } else {
      ++out.wrong;
      std::fprintf(stderr,
                   "checker: wrong answer to request %zu (%s on %s, %zu "
                   "uncertain moves, %zu within reach)\n"
                   "  served:    %s\n  reference: %s\n",
                   index, eng::QueryTypeName(request.query.type),
                   request.venue_id.c_str(), uncertain.size(),
                   relevant.size(), Describe(served).c_str(),
                   Describe(reference).c_str());
    }
  }
  return out;
}

}  // namespace servebench
