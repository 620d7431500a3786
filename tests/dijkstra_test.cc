#include "graph/dijkstra.h"

#include <gtest/gtest.h>

#include <vector>

#include "paper_example.h"
#include "common/span.h"

namespace viptree {
namespace {

using testing::D;

class DijkstraPaperTest : public ::testing::Test {
 protected:
  DijkstraPaperTest() : example_(testing::MakePaperExample()) {}
  testing::PaperExample example_;
};

TEST_F(DijkstraPaperTest, DistancesMatchPaperWorkedValues) {
  DijkstraEngine engine(example_.graph);
  engine.Start(D(2));
  engine.RunAll();
  // Example 4 of the paper: distances from d2.
  EXPECT_DOUBLE_EQ(engine.DistanceTo(D(1)), 2.0);
  EXPECT_DOUBLE_EQ(engine.DistanceTo(D(6)), 7.0);
  EXPECT_DOUBLE_EQ(engine.DistanceTo(D(7)), 11.0);
  EXPECT_DOUBLE_EQ(engine.DistanceTo(D(10)), 13.0);
  EXPECT_DOUBLE_EQ(engine.DistanceTo(D(20)), 23.0);
}

TEST_F(DijkstraPaperTest, FullPathFromD1ToD20) {
  DijkstraEngine engine(example_.graph);
  engine.Start(D(1));
  const DoorId target = D(20);
  engine.RunToTargets(viptree::Span<const DoorId>(&target, 1));
  EXPECT_DOUBLE_EQ(engine.DistanceTo(D(20)), 25.0);
  // §2.1.1: "the shortest path from d1 to d20 is
  //   d1 -> d2 -> d3 -> d5 -> d6 -> d10 -> d15 -> d20".
  const std::vector<DoorId> expected = {D(1), D(2), D(3),  D(5),
                                        D(6), D(10), D(15), D(20)};
  EXPECT_EQ(engine.PathTo(D(20)), expected);
}

TEST_F(DijkstraPaperTest, EarlyTerminationSettlesFewerDoors) {
  DijkstraEngine engine(example_.graph);
  engine.Start(D(1));
  const std::vector<DoorId> targets = {D(2), D(3)};
  const size_t reached = engine.RunToTargets(targets);
  EXPECT_EQ(reached, 2u);
  EXPECT_LT(engine.NumSettledInSearch(), example_.graph.NumVertices());
}

TEST_F(DijkstraPaperTest, MultiSourceUsesOffsets) {
  // A query point 1.0 from d2 and 5.0 from d4 inside P1.
  DijkstraEngine engine(example_.graph);
  const std::vector<DijkstraSource> sources = {{D(2), 1.0}, {D(4), 5.0}};
  engine.Start(sources);
  engine.RunAll();
  EXPECT_DOUBLE_EQ(engine.DistanceTo(D(2)), 1.0);
  EXPECT_DOUBLE_EQ(engine.DistanceTo(D(4)), 5.0);
  // d1 reached through d2: 1 + 2.
  EXPECT_DOUBLE_EQ(engine.DistanceTo(D(1)), 3.0);
  EXPECT_EQ(engine.ParentOf(D(2)), kInvalidId);  // a source
}

TEST_F(DijkstraPaperTest, EngineIsReusableAcrossSearches) {
  DijkstraEngine engine(example_.graph);
  engine.Start(D(1));
  engine.RunAll();
  const double first = engine.DistanceTo(D(20));

  engine.Start(D(20));
  engine.RunAll();
  EXPECT_DOUBLE_EQ(engine.DistanceTo(D(1)), first);  // symmetric graph
  // Distances from the previous epoch must not leak.
  engine.Start(D(16));
  EXPECT_EQ(engine.DistanceTo(D(1)), kInfDistance);
  engine.RunAll();
  EXPECT_NE(engine.DistanceTo(D(1)), kInfDistance);
}

TEST_F(DijkstraPaperTest, SettleNextYieldsNondecreasingDistances) {
  DijkstraEngine engine(example_.graph);
  engine.Start(D(11));
  double last = 0.0;
  size_t count = 0;
  while (true) {
    const SettledDoor s = engine.SettleNext();
    if (s.door == kInvalidId) break;
    EXPECT_GE(s.distance, last);
    last = s.distance;
    ++count;
  }
  EXPECT_EQ(count, example_.graph.NumVertices());  // connected graph
}

TEST_F(DijkstraPaperTest, ParentViaReportsTraversedPartition) {
  DijkstraEngine engine(example_.graph);
  engine.Start(D(15));
  const DoorId target = D(20);
  engine.RunToTargets(viptree::Span<const DoorId>(&target, 1));
  // d15 -> d20 is a direct edge through P13.
  EXPECT_DOUBLE_EQ(engine.DistanceTo(D(20)), 4.0);
  EXPECT_EQ(engine.ParentOf(D(20)), D(15));
  EXPECT_EQ(engine.ParentVia(D(20)), testing::P(13));
}

// Every observable of the current search: the settle count, then each
// door's distance, parent and via (the values index construction copies).
struct SearchState {
  size_t settled;
  std::vector<double> dist;
  std::vector<DoorId> parent;
  std::vector<PartitionId> via;

  explicit SearchState(const DijkstraEngine& engine, size_t num_doors)
      : settled(engine.NumSettledInSearch()) {
    for (DoorId d = 0; d < static_cast<DoorId>(num_doors); ++d) {
      dist.push_back(engine.DistanceTo(d));
      parent.push_back(engine.ParentOf(d));
      via.push_back(engine.ParentVia(d));
    }
  }
  bool operator==(const SearchState& o) const {
    return settled == o.settled && dist == o.dist && parent == o.parent &&
           via == o.via;
  }
};

TEST_F(DijkstraPaperTest, DuplicateTargetsStopAtTheSamePop) {
  const size_t n = example_.graph.NumVertices();
  DijkstraEngine deduped(example_.graph);
  deduped.Start(D(1));
  const std::vector<DoorId> targets = {D(3), D(6)};
  EXPECT_EQ(deduped.RunToTargets(targets), 2u);

  DijkstraEngine repeated(example_.graph);
  repeated.Start(D(1));
  const std::vector<DoorId> with_repeats = {D(6), D(3), D(6), D(3), D(6)};
  // Each distinct target counts once, and the search stops where the
  // deduplicated one does instead of exhausting the graph.
  EXPECT_EQ(repeated.RunToTargets(with_repeats), 2u);
  EXPECT_EQ(SearchState(repeated, n), SearchState(deduped, n));
  EXPECT_LT(repeated.NumSettledInSearch(), n);
}

TEST_F(DijkstraPaperTest, AlreadySettledTargetsCountAsReached) {
  DijkstraEngine engine(example_.graph);
  engine.Start(D(1));
  const DoorId far = D(10);
  EXPECT_EQ(engine.RunToTargets(Span<const DoorId>(&far, 1)), 1u);
  const size_t settled = engine.NumSettledInSearch();
  // D(2) and D(5) are closer than D(10), so they are already settled: the
  // call reaches all three without settling anything more.
  const std::vector<DoorId> targets = {D(2), D(5), D(10)};
  EXPECT_EQ(engine.RunToTargets(targets), 3u);
  EXPECT_EQ(engine.NumSettledInSearch(), settled);
}

TEST_F(DijkstraPaperTest, ResumedRunExtendsTheSamePopSequence) {
  // Index construction resumes one search target set by target set (one
  // search per access door, stopped at each node's doors in turn); every
  // stop must look exactly like a fresh search stopped at the same targets.
  const size_t n = example_.graph.NumVertices();
  DijkstraEngine resumed(example_.graph);
  resumed.Start(D(11));
  std::vector<DoorId> so_far;
  for (const DoorId t : {D(12), D(2), D(15), D(7), D(20)}) {
    so_far.push_back(t);
    EXPECT_EQ(resumed.RunToTargets(Span<const DoorId>(&t, 1)), 1u);
    DijkstraEngine fresh(example_.graph);
    fresh.Start(D(11));
    fresh.RunToTargets(so_far);
    EXPECT_EQ(SearchState(resumed, n), SearchState(fresh, n))
        << "after target " << t;
  }
}

TEST_F(DijkstraPaperTest, ReusedEngineAnswersLikeAFreshOne) {
  const size_t n = example_.graph.NumVertices();
  DijkstraEngine reused(example_.graph);
  // A large multi-source search first: it grows the heap and stamps every
  // door, which the next search must not see.
  const std::vector<DijkstraSource> sources = {{D(1), 0.0}, {D(20), 0.5}};
  reused.Start(sources);
  reused.RunAll();
  ASSERT_EQ(reused.NumSettledInSearch(), n);

  for (const DoorId source : {D(16), D(4), D(9)}) {
    DijkstraEngine fresh(example_.graph);
    reused.Start(source);
    fresh.Start(source);
    const DoorId target = D(13);
    reused.RunToTargets(Span<const DoorId>(&target, 1));
    fresh.RunToTargets(Span<const DoorId>(&target, 1));
    EXPECT_EQ(SearchState(reused, n), SearchState(fresh, n))
        << "stopped search from " << source;
    // The remaining pop sequence is identical too.
    while (true) {
      const SettledDoor a = reused.SettleNext();
      const SettledDoor b = fresh.SettleNext();
      ASSERT_EQ(a.door, b.door);
      ASSERT_EQ(a.distance, b.distance);
      if (a.door == kInvalidId) break;
    }
    EXPECT_EQ(SearchState(reused, n), SearchState(fresh, n))
        << "full search from " << source;
  }
}

// Keeps every edge except those walking through P5, the hallway between
// the paper's N1 = {P1..P4} and the rest of the venue.
struct AvoidP5 {
  bool operator()(const D2DEdge& e) const { return e.via != testing::P(5); }
};

TEST_F(DijkstraPaperTest, ConfinedRunSettlesOnlyWhatItsEdgesReach) {
  const size_t n = example_.graph.NumVertices();
  std::vector<DoorId> every_door;
  for (DoorId d = 0; d < static_cast<DoorId>(n); ++d) every_door.push_back(d);
  DijkstraEngine engine(example_.graph);
  engine.Start(D(1));
  // Without P5's edges, d1 reaches d1..d6 (d6 through P4); every other
  // door is reachable only through P5.
  EXPECT_EQ(engine.RunToTargets(every_door, AvoidP5{}), 6u);
  EXPECT_EQ(engine.NumSettledInSearch(), 6u);
  for (int i = 1; i <= 20; ++i) {
    EXPECT_EQ(engine.Settled(D(i)), i <= 6) << "d" << i;
  }
  // In-region distances are unchanged: d1 -> d6 never used P5.
  EXPECT_DOUBLE_EQ(engine.DistanceTo(D(6)), 9.0);
}

TEST_F(DijkstraPaperTest, UnconfinedRunAfterAConfinedOneMatchesAFreshEngine) {
  const size_t n = example_.graph.NumVertices();
  DijkstraEngine engine(example_.graph);
  engine.Start(D(2));
  const DoorId far = D(20);
  engine.RunToTargets(Span<const DoorId>(&far, 1), AvoidP5{});
  ASSERT_FALSE(engine.Settled(far));

  // The engine keeps no filter: the next search relaxes every edge.
  engine.Start(D(2));
  engine.RunAll();
  DijkstraEngine fresh(example_.graph);
  fresh.Start(D(2));
  fresh.RunAll();
  EXPECT_EQ(SearchState(engine, n), SearchState(fresh, n));
  EXPECT_DOUBLE_EQ(engine.DistanceTo(far), 23.0);  // Example 4
}

TEST(DijkstraTest, RunWithinStopsAtRadius) {
  const testing::PaperExample example = testing::MakePaperExample();
  DijkstraEngine engine(example.graph);
  engine.Start(D(2));
  engine.RunWithin(7.0);
  EXPECT_TRUE(engine.Settled(D(1)));   // dist 2
  EXPECT_TRUE(engine.Settled(D(6)));   // dist 7
  EXPECT_FALSE(engine.Settled(D(20)));  // dist 23
}

TEST(DijkstraTest, UnreachableVertexStaysInfinite) {
  // Two disconnected doors in an explicit graph.
  const std::vector<ExplicitD2DEdge> edges = {{0, 1, 1.0f, 0}};
  const D2DGraph graph(4, edges);  // doors 2 and 3 isolated
  DijkstraEngine engine(graph);
  engine.Start(0);
  engine.RunAll();
  EXPECT_EQ(engine.DistanceTo(2), kInfDistance);
  EXPECT_EQ(engine.DistanceTo(3), kInfDistance);
  EXPECT_DOUBLE_EQ(engine.DistanceTo(1), 1.0);
}

}  // namespace
}  // namespace viptree
