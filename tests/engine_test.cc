// Unit tests for the engine façade: typed Query/Result dispatch, engine
// ownership, and object-set swapping. Concurrent serving is tested through
// engine::Service (service_test).

#include "engine/query_engine.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "graph/d2d_graph.h"
#include "ground_truth.h"
#include "synth/building_generator.h"
#include "synth/objects.h"

namespace viptree {
namespace {

namespace eng = ::viptree::engine;

class EngineTest : public ::testing::Test {
 protected:
  EngineTest() : venue_(MakeVenue()), graph_(venue_) {}

  static Venue MakeVenue() {
    synth::BuildingConfig cfg;
    cfg.floors = 3;
    cfg.rooms_per_floor = 18;
    cfg.staircases = 2;
    return synth::GenerateStandaloneBuilding(cfg, /*seed=*/77);
  }

  eng::QueryEngine MakeEngine(size_t num_objects) {
    Rng rng(5);
    std::vector<IndoorPoint> objects =
        synth::PlaceObjects(venue_, num_objects, rng);
    eng::EngineOptions options;
    options.object_keywords.resize(objects.size());
    for (size_t i = 0; i < objects.size(); ++i) {
      options.object_keywords[i] = {i % 2 == 0 ? "even" : "odd"};
    }
    return eng::QueryEngine(venue_, graph_, std::move(objects), options);
  }

  Venue venue_;
  D2DGraph graph_;
};

TEST_F(EngineTest, TypedResultsCarryTheRightFields) {
  const eng::QueryEngine engine = MakeEngine(6);
  Rng rng(9);
  const IndoorPoint a = synth::RandomIndoorPoint(venue_, rng);
  const IndoorPoint b = synth::RandomIndoorPoint(venue_, rng);

  const eng::Result d = engine.Run(eng::Query::Distance(a, b));
  EXPECT_EQ(d.type, eng::QueryType::kDistance);
  EXPECT_LT(d.distance, kInfDistance);
  EXPECT_TRUE(d.doors.empty());
  EXPECT_TRUE(d.objects.empty());
  EXPECT_GT(d.visited_nodes, 0u);
  EXPECT_GE(d.latency_micros, 0.0);

  const eng::Result p = engine.Run(eng::Query::Path(a, b));
  EXPECT_EQ(p.type, eng::QueryType::kPath);
  EXPECT_DOUBLE_EQ(p.distance, d.distance);
  EXPECT_NEAR(testing::PointPathLength(venue_, graph_, a, b, p.doors),
              p.distance, 1e-2 + p.distance * 1e-4);

  const eng::Result knn = engine.Run(eng::Query::Knn(a, 3));
  EXPECT_EQ(knn.type, eng::QueryType::kKnn);
  ASSERT_EQ(knn.objects.size(), 3u);
  EXPECT_LE(knn.objects[0].distance, knn.objects[1].distance);
  EXPECT_LE(knn.objects[1].distance, knn.objects[2].distance);

  const eng::Result range = engine.Run(eng::Query::Range(a, 60.0));
  EXPECT_EQ(range.type, eng::QueryType::kRange);
  for (const ObjectResult& r : range.objects) {
    EXPECT_LE(r.distance, 60.0);
  }

  const eng::Result kw = engine.Run(eng::Query::BooleanKnn(a, 2, {"even"}));
  EXPECT_EQ(kw.type, eng::QueryType::kBooleanKnn);
  for (const ObjectResult& r : kw.objects) {
    EXPECT_EQ(r.object % 2, 0) << "only even-tagged objects may match";
  }
  // Unknown keyword: empty result, not an error.
  EXPECT_TRUE(
      engine.Run(eng::Query::BooleanKnn(a, 2, {"nonexistent"})).objects
          .empty());
}

TEST_F(EngineTest, SetObjectsSwapsTheWorkloadWithoutRebuildingTheTree) {
  eng::QueryEngine engine = MakeEngine(4);
  const VIPTree* tree_before = &engine.tree();
  Rng rng(31);
  const IndoorPoint q = synth::RandomIndoorPoint(venue_, rng);

  // Swap to a single object co-located with the query point: it must be the
  // unique kNN answer.
  engine.SetObjects({q});
  EXPECT_EQ(&engine.tree(), tree_before);
  const auto nearest = engine.Run(eng::Query::Knn(q, 3)).objects;
  ASSERT_EQ(nearest.size(), 1u);
  EXPECT_EQ(nearest[0].object, 0);
  EXPECT_NEAR(nearest[0].distance, 0.0, 1e-9);

  // Keywords are rebuilt with the objects.
  EXPECT_FALSE(engine.has_keywords());
  engine.SetObjects({q}, {{"tag"}});
  EXPECT_TRUE(engine.has_keywords());
  EXPECT_EQ(engine.Run(eng::Query::BooleanKnn(q, 1, {"tag"})).objects.size(),
            1u);
}

TEST_F(EngineTest, EngineIsSelfContainedAfterConstruction) {
  // The engine owns its bundle: the venue/graph/objects it was built from
  // may die first, and the engine keeps serving. (Under ASan this test
  // would catch any lingering reference into the caller's storage.)
  std::unique_ptr<eng::QueryEngine> engine;
  {
    Venue venue = MakeVenue();
    Rng rng(5);
    std::vector<IndoorPoint> objects = synth::PlaceObjects(venue, 6, rng);
    engine = std::make_unique<eng::QueryEngine>(std::move(venue),
                                                std::move(objects));
  }
  Rng rng(13);
  const IndoorPoint a = synth::RandomIndoorPoint(engine->venue(), rng);
  const IndoorPoint b = synth::RandomIndoorPoint(engine->venue(), rng);
  EXPECT_LT(engine->Run(eng::Query::Distance(a, b)).distance, kInfDistance);
  EXPECT_EQ(engine->Run(eng::Query::Knn(a, 3)).objects.size(), 3u);
}

TEST_F(EngineTest, ObjectReplacementThroughTheBundle) {
  // Build through an explicit VenueBundle, adopt it, and swap the object
  // set: the bundle the engine exposes must reflect the replacement while
  // the tree (and the venue behind it) stays the same instance.
  eng::VenueBundle bundle =
      eng::VenueBundle::BuildFrom(venue_, graph_, /*objects=*/{});
  EXPECT_EQ(bundle.objects().NumObjects(), 0u);
  eng::QueryEngine engine(std::move(bundle));

  const Venue* venue_before = &engine.venue();
  const VIPTree* tree_before = &engine.tree();
  Rng rng(23);
  const std::vector<IndoorPoint> objects =
      synth::PlaceObjects(engine.venue(), 5, rng);
  engine.SetObjects(objects, {{"a"}, {"b"}, {"a"}, {"b"}, {"a"}});

  EXPECT_EQ(&engine.venue(), venue_before);
  EXPECT_EQ(&engine.tree(), tree_before);
  EXPECT_EQ(engine.bundle().objects().NumObjects(), 5u);
  EXPECT_TRUE(engine.bundle().has_keywords());

  const IndoorPoint q = objects[0];
  const auto nearest = engine.Run(eng::Query::Knn(q, 1)).objects;
  ASSERT_EQ(nearest.size(), 1u);
  EXPECT_EQ(nearest[0].object, 0);
  EXPECT_NEAR(nearest[0].distance, 0.0, 1e-9);

  // Replacement also drops the keyword index when none is supplied.
  engine.SetObjects(objects);
  EXPECT_FALSE(engine.has_keywords());
}

TEST_F(EngineTest, QueryTypeNames) {
  EXPECT_STREQ(eng::QueryTypeName(eng::QueryType::kDistance), "distance");
  EXPECT_STREQ(eng::QueryTypeName(eng::QueryType::kPath), "path");
  EXPECT_STREQ(eng::QueryTypeName(eng::QueryType::kKnn), "knn");
  EXPECT_STREQ(eng::QueryTypeName(eng::QueryType::kRange), "range");
  EXPECT_STREQ(eng::QueryTypeName(eng::QueryType::kBooleanKnn),
               "boolean-knn");
}

}  // namespace
}  // namespace viptree
