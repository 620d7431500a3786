// SIMD/scalar bit-identity sweep: the AVX2 kernels promise answers
// bit-identical to the scalar loops (common/kernels.h), so for 24 seeded
// random venues an interleaved stream of distance / path / kNN / range /
// boolean-kNN queries and live-object delta publishes must produce
// EXACTLY (==, not NEAR) the same distances, door sequences and object
// ids under forced-scalar and default dispatch. A second sweep saves the
// venue as a snapshot and replays it from the mmap'd load under both
// dispatch modes — the arena-aliased rows must be just as invisible in the
// output as the instruction set. On hosts without AVX2 both dispatch runs
// take the scalar path and the suite degenerates to a determinism check.

#include <gtest/gtest.h>

#include <cstdio>
#include <optional>
#include <string>
#include <unistd.h>
#include <vector>

#include "common/kernels.h"
#include "engine/query_engine.h"
#include "engine/venue_bundle.h"
#include "ground_truth.h"
#include "synth/objects.h"

namespace viptree {
namespace {

namespace eng = ::viptree::engine;

// Restores default dispatch even when an assertion fails mid-test.
struct ScalarGuard {
  explicit ScalarGuard(bool force) { kernels::ForceScalarForTest(force); }
  ~ScalarGuard() { kernels::ForceScalarForTest(false); }
};

std::string TempPath(uint64_t seed) {
  const char* dir = std::getenv("TMPDIR");
  if (dir == nullptr || dir[0] == '\0') dir = "/tmp";
  return std::string(dir) + "/viptree_kernel_diff_" + std::to_string(seed) +
         "_" + std::to_string(::getpid()) + ".snap";
}

struct Step {
  std::optional<eng::Query> query;  // exactly one of query/delta is set
  std::optional<ObjectDelta> delta;
};

std::vector<std::vector<std::string>> TagObjects(size_t n) {
  std::vector<std::vector<std::string>> keywords(n);
  for (size_t i = 0; i < n; ++i) {
    keywords[i] = {"facility"};
    if (i % 2 == 0) keywords[i].push_back("red");
  }
  return keywords;
}

// A deterministic interleaved workload: rotating query types with one
// delta publish per round, so the sweep covers the leaf object scans, the
// matrix ascent, the LCA joins and the range filter both before and after
// live epochs diverge from the build-time object set. Deltas are moves
// and adds only, so ids stay valid however many engines replay the
// stream.
std::vector<Step> MakeWorkload(const Venue& venue, uint64_t seed,
                               size_t initial_objects) {
  Rng rng(seed ^ 0x51D);
  std::vector<Step> steps;
  size_t num_objects = initial_objects;
  for (int round = 0; round < 5; ++round) {
    for (int q = 0; q < 5; ++q) {
      const IndoorPoint a = synth::RandomIndoorPoint(venue, rng);
      const IndoorPoint b = synth::RandomIndoorPoint(venue, rng);
      Step step;
      switch ((round * 5 + q) % 5) {
        case 0:
          step.query = eng::Query::Distance(a, b);
          break;
        case 1:
          step.query = eng::Query::Path(a, b);
          break;
        case 2:
          step.query = eng::Query::Knn(a, 4);
          break;
        case 3:
          step.query = eng::Query::Range(a, 70.0);
          break;
        default:
          step.query = eng::Query::BooleanKnn(a, 2, {"red"});
          break;
      }
      steps.push_back(std::move(step));
    }
    Step update;
    ObjectDelta delta;
    if (num_objects > 0 && rng.Chance(0.7)) {
      delta.moves.push_back(
          {static_cast<ObjectId>(rng.UniformIndex(num_objects)),
           synth::RandomIndoorPoint(venue, rng)});
    } else {
      ObjectDelta::Add add;
      add.at = synth::RandomIndoorPoint(venue, rng);
      add.keywords = {"facility"};
      delta.adds.push_back(std::move(add));
      ++num_objects;
    }
    update.delta = std::move(delta);
    steps.push_back(std::move(update));
  }
  return steps;
}

std::vector<eng::Result> Replay(eng::QueryEngine& engine,
                                const std::vector<Step>& steps) {
  std::vector<eng::Result> results;
  for (const Step& step : steps) {
    if (step.delta.has_value()) {
      const std::optional<std::string> error =
          engine.ApplyObjectDelta(*step.delta);
      EXPECT_FALSE(error.has_value()) << *error;
      continue;
    }
    results.push_back(engine.Run(*step.query));
  }
  return results;
}

class KernelDifferentialTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(KernelDifferentialTest, ScalarAndDispatchBitIdenticalWithUpdates) {
  const uint64_t seed = GetParam();
  const Venue venue = testing::RandomSynthVenue(seed);
  const D2DGraph graph(venue);
  Rng rng(seed ^ 0xAB5);
  const std::vector<IndoorPoint> objects =
      synth::PlaceObjects(venue, 8, rng);
  const std::vector<Step> steps = MakeWorkload(venue, seed, objects.size());

  eng::EngineOptions options;
  options.object_keywords = TagObjects(objects.size());

  std::vector<eng::Result> scalar_results;
  {
    ScalarGuard guard(true);
    eng::QueryEngine engine(venue, graph, objects, options);
    scalar_results = Replay(engine, steps);
  }
  std::vector<eng::Result> dispatch_results;
  {
    ScalarGuard guard(false);
    eng::QueryEngine engine(venue, graph, objects, options);
    dispatch_results = Replay(engine, steps);
  }
  testing::ExpectSameResults(scalar_results, dispatch_results,
                             "simd-vs-scalar seed " + std::to_string(seed),
                             /*compare_visited=*/false);
}

// Snapshot round trip replayed under both dispatch modes, compared against
// the in-memory scalar reference — the mmap'd (8-byte-aligned,
// arena-aliased) rows must feed the kernels exactly like the owning
// 64-byte buffers do.
TEST_P(KernelDifferentialTest, MmapReplayBitIdenticalUnderBothDispatchModes) {
  const uint64_t seed = GetParam();
  if (seed % 3 != 0) {
    GTEST_SKIP() << "snapshot sweep runs on every 3rd seed";
  }
  const Venue venue = testing::RandomSynthVenue(seed);
  const D2DGraph graph(venue);
  Rng rng(seed ^ 0xF11E);
  const std::vector<IndoorPoint> objects =
      synth::PlaceObjects(venue, 8, rng);
  const std::vector<Step> steps = MakeWorkload(venue, seed, objects.size());

  eng::EngineOptions options;
  options.object_keywords = TagObjects(objects.size());

  const std::string path = TempPath(seed);
  std::vector<eng::Result> reference;
  {
    ScalarGuard guard(true);
    eng::QueryEngine engine(venue, graph, objects, options);
    ASSERT_TRUE(engine.Save(path).ok());
    reference = Replay(engine, steps);
  }

  for (const bool force : {true, false}) {
    ScalarGuard guard(force);
    eng::QueryEngine engine(eng::VenueBundle::Load(path));
    const std::vector<eng::Result> results = Replay(engine, steps);
    testing::ExpectSameResults(
        reference, results,
        std::string(force ? "mmap-scalar" : "mmap-dispatch") + " seed " +
            std::to_string(seed),
        /*compare_visited=*/false);
  }
  std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(Seeds, KernelDifferentialTest,
                         ::testing::Range<uint64_t>(0, 24));

}  // namespace
}  // namespace viptree
