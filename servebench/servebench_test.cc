// Self-tests of the serving benchmark:
//   1. Seeded inputs: one seed gives a byte-identical stream (and arrival
//      schedule) on every call; another seed gives a different one.
//   2. The answer checker passes a faithful replay, catches one flipped
//      distance bit, counts a missing response and a non-kOk status as
//      failures, and accepts a query/move reordering only when the two
//      were in flight together, also when the answer needs a move of an
//      object that is in neither answer.
//
// Usage: servebench_test SCRATCH_DIR   (exit 0 = all passed)

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "check.h"
#include "engine/venue_bundle.h"
#include "workload.h"

namespace servebench {
namespace {

namespace eng = viptree::engine;

int failures = 0;

void Expect(bool ok, const std::string& what) {
  std::printf("%s: %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++failures;
}

void TestSeededStreams() {
  for (const std::string& name : WorkloadNames()) {
    WorkloadShape shape;
    ShapeFor(name, &shape);
    const Venue venue = MakeVenue(shape);
    const Scenario a = MakeScenario(shape, venue, 7, 3000);
    const Scenario b = MakeScenario(shape, venue, 7, 3000);
    const Scenario c = MakeScenario(shape, venue, 8, 3000);
    Expect(StreamText(a) == StreamText(b),
           name + ": seed 7 twice gives byte-identical streams");
    Expect(a.Offsets(0, 3000, 1000.0) == b.Offsets(0, 3000, 1000.0),
           name + ": seed 7 twice gives identical arrival schedules");
    Expect(StreamText(a) != StreamText(c),
           name + ": seeds 7 and 8 give different streams");
    size_t moves = 0;
    for (const eng::Request& r : a.stream) {
      moves += r.kind == eng::RequestKind::kUpdateObjects;
    }
    Expect(moves > 0, name + ": the stream carries moves");
  }
}

// A faithful sequential replay: what a correct server answers when every
// request completes before the next is sent.
std::vector<Record> SequentialReplay(const std::string& snapshot,
                                     const Scenario& sc) {
  std::vector<std::unique_ptr<eng::QueryEngine>> engines;
  for (size_t v = 0; v < sc.venue_ids.size(); ++v) {
    std::string error;
    engines.push_back(eng::QueryEngine::TryLoad(snapshot, &error));
  }
  std::vector<Record> records(sc.stream.size());
  for (size_t i = 0; i < sc.stream.size(); ++i) {
    const eng::Request& r = sc.stream[i];
    const size_t v = r.venue_id == sc.venue_ids[0] ? 0 : 1;
    Record& rec = records[i];
    rec.due_s = rec.sent_s = static_cast<double>(i);
    rec.recv_s = static_cast<double>(i) + 0.5;
    rec.response.kind = r.kind;
    rec.response.venue_id = r.venue_id;
    if (r.kind == eng::RequestKind::kUpdateObjects) {
      engines[v]->ApplyObjectDelta(r.delta);
    } else {
      rec.response.result = engines[v]->Run(r.query);
    }
  }
  return records;
}

void TestChecker(const std::string& dir) {
  WorkloadShape shape;
  ShapeFor("men2-mixed", &shape);
  const Venue venue = MakeVenue(shape);
  const Scenario sc = MakeScenario(shape, venue, 3, 1500);
  eng::EngineOptions options;
  options.object_keywords = sc.keywords;
  const std::string snapshot = dir + "/checker_test.vipsnap";
  if (!eng::VenueBundle::Build(MakeVenue(shape), sc.objects, options)
           .Save(snapshot)
           .ok()) {
    Expect(false, "snapshot saved");
    return;
  }
  const std::vector<Record> faithful = SequentialReplay(snapshot, sc);

  {
    AnswerChecker checker(snapshot, sc.venue_ids);
    const CheckResult r = checker.Check(sc.stream, 0, faithful);
    Expect(r.failed() == 0 && r.queries + r.updates == sc.stream.size(),
           "a faithful replay passes the checker");
  }

  // Flip the lowest bit of one distance answer.
  size_t target = 0;
  while (sc.stream[target].kind != eng::RequestKind::kQuery ||
         sc.stream[target].query.type != eng::QueryType::kDistance) {
    ++target;
  }
  {
    std::vector<Record> flipped = faithful;
    uint64_t bits = 0;
    std::memcpy(&bits, &flipped[target].response.result.distance, 8);
    bits ^= 1;
    std::memcpy(&flipped[target].response.result.distance, &bits, 8);
    AnswerChecker checker(snapshot, sc.venue_ids);
    const CheckResult r = checker.Check(sc.stream, 0, flipped);
    Expect(r.wrong == 1 && r.failed() == 1,
           "one flipped distance bit is caught as exactly one wrong answer");
  }

  // A lost response and a rejected request fail the run as a wrong answer
  // does (the result's `correct` is failed() == 0).
  {
    std::vector<Record> lossy = faithful;
    lossy[target].recv_s = -1.0;
    lossy[target + 1].response.status = eng::RequestStatus::kRejected;
    AnswerChecker checker(snapshot, sc.venue_ids);
    const CheckResult r = checker.Check(sc.stream, 0, lossy);
    Expect(r.missing == 1 && r.bad_status == 1 && r.wrong == 0 &&
               r.failed() == 2,
           "a missing response and a non-kOk status count as failures");
  }

  // A query served at the epoch before the preceding move of its venue:
  // accepted only while that move was still in flight.
  size_t move = 0;
  while (sc.stream[move].kind != eng::RequestKind::kUpdateObjects) ++move;
  const eng::Request& moved = sc.stream[move];
  std::vector<viptree::IndoorPoint> positions = sc.objects;
  for (size_t j = 0; j < move; ++j) {
    const eng::Request& r = sc.stream[j];
    if (r.kind == eng::RequestKind::kUpdateObjects &&
        r.venue_id == moved.venue_id) {
      positions[r.delta.moves.front().id] = r.delta.moves.front().to;
    }
  }
  Scenario stale_sc = sc;  // the same stream without that move's effect
  stale_sc.stream[move].delta.moves.front().to =
      positions[moved.delta.moves.front().id];
  const std::vector<Record> stale = SequentialReplay(snapshot, stale_sc);
  size_t query = SIZE_MAX;
  for (size_t i = move + 1; i < sc.stream.size(); ++i) {
    const eng::Request& r = sc.stream[i];
    if (r.venue_id != moved.venue_id) continue;
    if (r.kind == eng::RequestKind::kUpdateObjects) break;
    if (!Equivalent(stale[i].response.result, faithful[i].response.result)) {
      query = i;
      break;
    }
  }
  if (query == SIZE_MAX) {
    Expect(false, "some query observes the first move");
    return;
  }
  std::vector<Record> served = faithful;
  served[query].response = stale[query].response;
  {
    AnswerChecker checker(snapshot, sc.venue_ids);
    Expect(checker.Check(sc.stream, 0, served).wrong == 1,
           "a stale answer with no move in flight is wrong");
  }
  served[move].recv_s = served[query].sent_s + 0.25;  // answered after
  AnswerChecker checker(snapshot, sc.venue_ids);
  const CheckResult r = checker.Check(sc.stream, 0, served);
  Expect(r.wrong == 0 && r.reordered == 1,
         "a stale answer while the move was in flight is accepted");
}

eng::Request MoveTo(const std::string& venue, viptree::ObjectId id,
                    const viptree::IndoorPoint& to) {
  viptree::ObjectDelta delta;
  delta.moves.push_back({id, to});
  return eng::Request::Update(venue, std::move(delta));
}

eng::Request KnnAt(const std::string& venue, const viptree::IndoorPoint& q) {
  eng::Request request;
  request.venue_id = venue;
  request.query = eng::Query::Knn(q, 5);
  return request;
}

// A kNN answer served before two in-flight moves: one brings back the
// stream-order answer's 5th object, the other the 6th, which is in neither
// answer. Accepted only while both moves were in flight.
void TestTwoMoveReorder(const std::string& dir) {
  WorkloadShape shape;
  ShapeFor("men2-mixed", &shape);
  const Scenario sc = MakeScenario(shape, MakeVenue(shape), 5, 200);
  eng::EngineOptions options;
  options.object_keywords = sc.keywords;
  const std::string snapshot = dir + "/reorder_test.vipsnap";
  if (!eng::VenueBundle::Build(MakeVenue(shape), sc.objects, options)
           .Save(snapshot)
           .ok()) {
    Expect(false, "snapshot saved");
    return;
  }
  std::string error;
  const std::unique_ptr<eng::QueryEngine> probe =
      eng::QueryEngine::TryLoad(snapshot, &error);
  viptree::IndoorPoint q;
  std::vector<viptree::ObjectResult> ranked;
  for (const eng::Request& r : sc.stream) {
    if (r.kind != eng::RequestKind::kQuery) continue;
    ranked = probe->Run(eng::Query::Knn(r.query.source, sc.objects.size()))
                 .objects;
    if (ranked.size() > 7 && std::isfinite(ranked[7].distance)) {
      q = r.query.source;
      break;
    }
  }
  if (ranked.size() <= 7) {
    Expect(false, "some query point has 8 reachable objects");
    return;
  }
  const std::string& venue = sc.venue_ids[0];
  const viptree::ObjectId fifth = ranked[4].object, sixth = ranked[5].object;
  const viptree::IndoorPoint far = sc.objects[ranked.back().object];
  // Both objects go far away, then come back; the query follows.
  const std::vector<eng::Request> stream = {
      MoveTo(venue, fifth, far), MoveTo(venue, sixth, far),
      MoveTo(venue, fifth, sc.objects[fifth]),
      MoveTo(venue, sixth, sc.objects[sixth]), KnnAt(venue, q)};
  // Served with only the first two moves applied.
  probe->ApplyObjectDelta(stream[0].delta);
  probe->ApplyObjectDelta(stream[1].delta);
  std::vector<Record> records(stream.size());
  for (size_t i = 0; i < stream.size(); ++i) {
    records[i].due_s = records[i].sent_s = static_cast<double>(i);
    records[i].recv_s = static_cast<double>(i) + 0.5;
    records[i].response.kind = stream[i].kind;
    records[i].response.venue_id = venue;
  }
  records[4].response.result = probe->Run(stream[4].query);
  records[2].recv_s = records[3].recv_s = 10.0;  // both in flight
  {
    AnswerChecker checker(snapshot, sc.venue_ids);
    const CheckResult r = checker.Check(stream, 0, records);
    Expect(r.wrong == 0 && r.reordered == 1,
           "a stale kNN answer needing two in-flight moves undone, one of an "
           "object in neither answer, is accepted");
  }
  records[3].recv_s = 3.5;  // the second return completed before the query
  AnswerChecker checker(snapshot, sc.venue_ids);
  Expect(checker.Check(stream, 0, records).wrong == 1,
         "the same answer with only one move in flight is wrong");
}

}  // namespace
}  // namespace servebench

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: %s SCRATCH_DIR\n", argv[0]);
    return 2;
  }
  servebench::TestSeededStreams();
  servebench::TestChecker(argv[1]);
  servebench::TestTwoMoveReorder(argv[1]);
  std::printf("%d failure(s)\n", servebench::failures);
  return servebench::failures == 0 ? 0 : 1;
}
