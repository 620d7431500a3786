// Snapshot round-trip differential sweep: for every seeded random venue a
// freshly built engine and a Save->Load engine must answer every query type
// *bit-identically* — the invariant that makes "build once offline, load
// into each serving process" safe to roll out. Runs the same 24-seed sweep
// as differential_test so the venue topologies cover campuses, multi-floor
// buildings and irregular door patterns.

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "engine/query_engine.h"
#include "synth/objects.h"
#include "synth/random_venue.h"

namespace viptree {
namespace {

namespace eng = ::viptree::engine;

std::string TempSnapshotPath(uint64_t seed) {
  const char* dir = std::getenv("TMPDIR");
  if (dir == nullptr || dir[0] == '\0') dir = "/tmp";
  return std::string(dir) + "/viptree_snapshot_test_" +
         std::to_string(::getpid()) + "_" + std::to_string(seed) +
         ".vipsnap";
}

// A deterministic mixed workload over the venue (compared field-by-field,
// so it covers distance values, full door sequences, object ids and object
// distances).
std::vector<eng::Query> MixedWorkload(const Venue& venue, uint64_t seed,
                                      bool with_keywords) {
  Rng rng(seed ^ 0x51A95407);
  std::vector<eng::Query> queries;
  for (int i = 0; i < 40; ++i) {
    const IndoorPoint a = synth::RandomIndoorPoint(venue, rng);
    const IndoorPoint b = synth::RandomIndoorPoint(venue, rng);
    switch (i % 5) {
      case 0:
        queries.push_back(eng::Query::Distance(a, b));
        break;
      case 1:
        queries.push_back(eng::Query::Path(a, b));
        break;
      case 2:
        queries.push_back(eng::Query::Knn(a, 3));
        break;
      case 3:
        queries.push_back(eng::Query::Range(a, 120.0));
        break;
      default:
        if (with_keywords) {
          queries.push_back(eng::Query::BooleanKnn(
              a, 2, {i % 2 == 0 ? "even" : "odd"}));
        } else {
          queries.push_back(eng::Query::Knn(a, 1));
        }
        break;
    }
  }
  return queries;
}

void ExpectIdenticalResults(const std::vector<eng::Result>& built,
                            const std::vector<eng::Result>& loaded,
                            uint64_t seed) {
  ASSERT_EQ(built.size(), loaded.size());
  for (size_t i = 0; i < built.size(); ++i) {
    SCOPED_TRACE("seed " + std::to_string(seed) + " query " +
                 std::to_string(i));
    const eng::Result& b = built[i];
    const eng::Result& l = loaded[i];
    EXPECT_EQ(b.type, l.type);
    // Bit-identical distances: the snapshot stores the built index's
    // numbers verbatim and the same-leaf Dijkstra fallback runs on a
    // bit-identical graph, so EXPECT_EQ (not NEAR) is the contract.
    EXPECT_EQ(b.distance, l.distance);
    EXPECT_EQ(b.doors, l.doors);
    ASSERT_EQ(b.objects.size(), l.objects.size());
    for (size_t j = 0; j < b.objects.size(); ++j) {
      EXPECT_EQ(b.objects[j].object, l.objects[j].object);
      EXPECT_EQ(b.objects[j].distance, l.objects[j].distance);
    }
    EXPECT_EQ(b.visited_nodes, l.visited_nodes);
  }
}

class SnapshotRoundTripTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SnapshotRoundTripTest, LoadedEngineAnswersIdentically) {
  const uint64_t seed = GetParam();
  Venue venue = synth::RandomVenue(seed);
  Rng rng(seed ^ 0x0B1EC7);
  std::vector<IndoorPoint> objects = synth::PlaceObjects(venue, 8, rng);

  // Keywords on half the seeds, so both snapshot shapes (with and without
  // the KWIX section) stay covered.
  const bool with_keywords = seed % 2 == 0;
  eng::EngineOptions options;
  if (with_keywords) {
    options.object_keywords.resize(objects.size());
    for (size_t i = 0; i < objects.size(); ++i) {
      options.object_keywords[i] = {i % 2 == 0 ? "even" : "odd"};
    }
  }

  const eng::QueryEngine built(std::move(venue), std::move(objects),
                               std::move(options));

  const std::string path = TempSnapshotPath(seed);
  const io::Status saved = built.Save(path);
  ASSERT_TRUE(saved.ok()) << saved.error;

  std::string error;
  const std::unique_ptr<eng::QueryEngine> loaded =
      eng::QueryEngine::TryLoad(path, &error);
  std::remove(path.c_str());
  ASSERT_NE(loaded, nullptr) << error;
  // The default load maps the file and aliases the index into it.
  EXPECT_TRUE(loaded->bundle().zero_copy());

  // The read-into-heap load with the full per-cell validation sweep must
  // answer just as bit-identically.
  const std::string heap_path = TempSnapshotPath(seed + 5000);
  ASSERT_TRUE(built.bundle().Save(heap_path).ok());
  eng::VenueBundle::LoadOptions heap_options;
  heap_options.use_mmap = false;
  heap_options.deep_validate = true;
  std::optional<eng::VenueBundle> heap_bundle =
      eng::VenueBundle::TryLoad(heap_path, &error, heap_options);
  std::remove(heap_path.c_str());
  ASSERT_TRUE(heap_bundle.has_value()) << error;
  const eng::QueryEngine heap_loaded(std::move(*heap_bundle));

  // The loaded bundle mirrors the built one structurally...
  EXPECT_EQ(loaded->venue().NumPartitions(), built.venue().NumPartitions());
  EXPECT_EQ(loaded->venue().NumDoors(), built.venue().NumDoors());
  EXPECT_EQ(loaded->graph().NumDirectedEdges(),
            built.graph().NumDirectedEdges());
  EXPECT_EQ(loaded->tree().base().nodes().size(),
            built.tree().base().nodes().size());
  EXPECT_EQ(loaded->tree().base().height(), built.tree().base().height());
  EXPECT_EQ(loaded->objects().NumObjects(), built.objects().NumObjects());
  EXPECT_EQ(loaded->has_keywords(), with_keywords);

  // ...and answers the whole mixed workload bit-identically — through both
  // the mapped load and the heap-read, deep-validated load.
  const std::vector<eng::Query> queries =
      MixedWorkload(built.venue(), seed, with_keywords);
  const std::vector<eng::Result> built_results = built.RunSequential(queries);
  ExpectIdenticalResults(built_results, loaded->RunSequential(queries), seed);
  ExpectIdenticalResults(built_results, heap_loaded.RunSequential(queries),
                         seed);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SnapshotRoundTripTest,
                         ::testing::Range(uint64_t{0}, uint64_t{24}));

TEST(SnapshotTest, SetObjectsAfterLoadMatchesSetObjectsAfterBuild) {
  // Object replacement must behave identically on a loaded engine: swap the
  // object set on both twins, answers must still match bit-for-bit.
  Venue venue = synth::RandomVenue(3);
  eng::QueryEngine built(std::move(venue), /*objects=*/{});

  const std::string path = TempSnapshotPath(1000);
  ASSERT_TRUE(built.Save(path).ok());
  std::string error;
  const std::unique_ptr<eng::QueryEngine> loaded =
      eng::QueryEngine::TryLoad(path, &error);
  std::remove(path.c_str());
  ASSERT_NE(loaded, nullptr) << error;

  Rng rng(77);
  const std::vector<IndoorPoint> objects =
      synth::PlaceObjects(built.venue(), 10, rng);
  std::vector<std::vector<std::string>> keywords(objects.size(), {"cafe"});
  built.SetObjects(objects, keywords);
  loaded->SetObjects(objects, keywords);

  const std::vector<eng::Query> queries =
      MixedWorkload(built.venue(), 999, /*with_keywords=*/false);
  ExpectIdenticalResults(built.RunSequential(queries),
                         loaded->RunSequential(queries), 1000);
}

TEST(SnapshotTest, TamperedPartsAreRejectedByStructuralValidation) {
  // Direct ValidateParts coverage for inconsistencies a checksum cannot
  // catch (they would have to be *written* by a buggy or hostile producer,
  // not flipped in transit): cyclic parent links, doors with no leaf,
  // duplicate keyword dictionary entries.
  Venue venue = synth::RandomVenue(5);
  Rng rng(8);
  std::vector<IndoorPoint> objects = synth::PlaceObjects(venue, 4, rng);
  eng::EngineOptions options;
  options.object_keywords.assign(objects.size(), {"wifi"});
  const eng::QueryEngine engine(std::move(venue), std::move(objects),
                                std::move(options));
  const IPTree& tree = engine.tree().base();

  {
    IPTree::Parts parts = tree.ToParts();
    parts.nodes[tree.root()].parent = parts.nodes[0].id;  // cycle at root
    EXPECT_TRUE(IPTree::ValidateParts(engine.venue(), parts).has_value());
  }
  {
    IPTree::Parts parts = tree.ToParts();
    parts.door_leaves[0][0].leaf = kInvalidId;  // door with no leaf
    EXPECT_TRUE(IPTree::ValidateParts(engine.venue(), parts).has_value());
  }
  {
    KeywordIndex::Parts parts =
        engine.bundle().keyword_index().ToParts();
    parts.keywords_by_id.push_back(parts.keywords_by_id.front());
    const auto error =
        KeywordIndex::ValidateParts(tree, engine.objects(), parts);
    ASSERT_TRUE(error.has_value());
    EXPECT_NE(error->find("duplicate"), std::string::npos) << *error;
  }
  // And the untampered parts still validate.
  EXPECT_FALSE(
      IPTree::ValidateParts(engine.venue(), tree.ToParts()).has_value());
}

TEST(SnapshotTest, SaveLoadSaveIsByteStable) {
  // A loaded bundle re-saved must produce the identical byte stream — the
  // serialization covers the full state, nothing is re-derived differently.
  Venue venue = synth::RandomVenue(14);
  Rng rng(6);
  std::vector<IndoorPoint> objects = synth::PlaceObjects(venue, 5, rng);
  const eng::QueryEngine engine(std::move(venue), std::move(objects));

  const std::string path_a = TempSnapshotPath(2000);
  const std::string path_b = TempSnapshotPath(2001);
  ASSERT_TRUE(engine.Save(path_a).ok());
  std::string error;
  const std::unique_ptr<eng::QueryEngine> loaded =
      eng::QueryEngine::TryLoad(path_a, &error);
  ASSERT_NE(loaded, nullptr) << error;
  ASSERT_TRUE(loaded->Save(path_b).ok());

  std::vector<uint8_t> bytes_a;
  std::vector<uint8_t> bytes_b;
  ASSERT_TRUE(io::ReadFileBytes(path_a, &bytes_a).ok());
  ASSERT_TRUE(io::ReadFileBytes(path_b, &bytes_b).ok());
  std::remove(path_a.c_str());
  std::remove(path_b.c_str());
  EXPECT_EQ(bytes_a, bytes_b);
}

}  // namespace
}  // namespace viptree
