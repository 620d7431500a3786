// engine::VenueRegistry: manifest parsing, lazy zero-copy loading and
// bundle sharing — the multi-venue serving layer (one process, a fleet of
// venues, O(resident-pages) per venue until queried).

#include "engine/venue_registry.h"

#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "engine/query_engine.h"
#include "ground_truth.h"
#include "synth/objects.h"
#include "synth/random_venue.h"

namespace viptree {
namespace {

namespace eng = ::viptree::engine;

// A per-process scratch directory holding the manifest and snapshots, so
// relative-path resolution against the manifest directory is exercised.
class RegistryTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    const char* tmp = std::getenv("TMPDIR");
    if (tmp == nullptr || tmp[0] == '\0') tmp = "/tmp";
    dir_ = new std::string(std::string(tmp) + "/viptree_registry_test_" +
                           std::to_string(::getpid()));
    ::mkdir(dir_->c_str(), 0755);

    // Three venues, one with keywords, registered under relative paths.
    for (const uint64_t seed : {uint64_t{3}, uint64_t{8}, uint64_t{11}}) {
      Venue venue = synth::RandomVenue(seed);
      Rng rng(seed);
      std::vector<IndoorPoint> objects = synth::PlaceObjects(venue, 6, rng);
      eng::EngineOptions options;
      if (seed == 8) options.object_keywords.assign(objects.size(), {"cafe"});
      const eng::VenueBundle bundle = eng::VenueBundle::Build(
          std::move(venue), std::move(objects), std::move(options));
      const std::string name = "venue-" + std::to_string(seed) + ".vipsnap";
      ASSERT_TRUE(bundle.Save(*dir_ + "/" + name).ok());
      ASSERT_TRUE(eng::VenueRegistry::UpsertManifestEntry(
                      Manifest(), "venue-" + std::to_string(seed), name)
                      .ok());
    }
  }

  static void TearDownTestSuite() {
    for (const char* name :
         {"venue-3.vipsnap", "venue-8.vipsnap", "venue-11.vipsnap"}) {
      std::remove((*dir_ + "/" + name).c_str());
    }
    std::remove(Manifest().c_str());
    ::rmdir(dir_->c_str());
    delete dir_;
    dir_ = nullptr;
  }

  static std::string Manifest() { return *dir_ + "/registry.txt"; }

  static std::string* dir_;
};

std::string* RegistryTest::dir_ = nullptr;

TEST_F(RegistryTest, OpensManifestAndListsVenues) {
  std::string error;
  std::optional<eng::VenueRegistry> registry =
      eng::VenueRegistry::Open(Manifest(), &error);
  ASSERT_TRUE(registry.has_value()) << error;
  EXPECT_EQ(registry->NumVenues(), 3u);
  EXPECT_TRUE(registry->Contains("venue-3"));
  EXPECT_TRUE(registry->Contains("venue-8"));
  EXPECT_TRUE(registry->Contains("venue-11"));
  EXPECT_FALSE(registry->Contains("venue-404"));
  const std::vector<std::string> ids = registry->VenueIds();
  ASSERT_EQ(ids.size(), 3u);
  EXPECT_EQ(ids[0], "venue-3");
  EXPECT_EQ(ids[1], "venue-8");
  EXPECT_EQ(ids[2], "venue-11");
  // Nothing is loaded until Acquire.
  EXPECT_EQ(registry->NumResident(), 0u);
}

TEST_F(RegistryTest, AcquireLoadsLazilyAndShares) {
  std::string error;
  std::optional<eng::VenueRegistry> registry =
      eng::VenueRegistry::Open(Manifest(), &error);
  ASSERT_TRUE(registry.has_value()) << error;

  const std::shared_ptr<const eng::VenueBundle> a =
      registry->Acquire("venue-3", &error);
  ASSERT_NE(a, nullptr) << error;
  EXPECT_TRUE(a->zero_copy());  // v2 snapshot => mmap-backed
  EXPECT_EQ(registry->NumResident(), 1u);
  EXPECT_GT(a->IndexMemoryBytes(), 0u);

  // A second Acquire returns the *same* shared bundle, not a second copy.
  const std::shared_ptr<const eng::VenueBundle> b =
      registry->Acquire("venue-3", &error);
  EXPECT_EQ(a.get(), b.get());

  const std::shared_ptr<const eng::VenueBundle> other =
      registry->Acquire("venue-8", &error);
  ASSERT_NE(other, nullptr) << error;
  EXPECT_NE(other.get(), a.get());
  EXPECT_TRUE(other->has_keywords());
  EXPECT_EQ(registry->NumResident(), 2u);
}

TEST_F(RegistryTest, ConcurrentAcquiresShareOneLoadPerVenue) {
  std::string error;
  std::optional<eng::VenueRegistry> registry =
      eng::VenueRegistry::Open(Manifest(), &error);
  ASSERT_TRUE(registry.has_value()) << error;

  // Hammer all three venues from several threads at once: every thread
  // must observe the same bundle instance per venue (per-entry locking
  // collapses concurrent first-touch loads into one), and loads of
  // different venues proceed independently.
  const std::vector<std::string> ids = registry->VenueIds();
  std::vector<std::vector<std::shared_ptr<const eng::VenueBundle>>> seen(6);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < seen.size(); ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < 4; ++round) {
        for (const std::string& id : ids) {
          std::string thread_error;
          seen[t].push_back(registry->Acquire(id, &thread_error));
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  EXPECT_EQ(registry->NumResident(), ids.size());
  for (size_t v = 0; v < ids.size(); ++v) {
    const std::shared_ptr<const eng::VenueBundle> reference =
        registry->Acquire(ids[v], &error);
    ASSERT_NE(reference, nullptr) << error;
    for (const auto& per_thread : seen) {
      for (size_t i = v; i < per_thread.size(); i += ids.size()) {
        ASSERT_NE(per_thread[i], nullptr);
        EXPECT_EQ(per_thread[i].get(), reference.get());
      }
    }
  }
}

TEST_F(RegistryTest, RegistryBundleAnswersIdenticallyToDirectLoad) {
  std::string error;
  std::optional<eng::VenueRegistry> registry =
      eng::VenueRegistry::Open(Manifest(), &error);
  ASSERT_TRUE(registry.has_value()) << error;
  const std::shared_ptr<const eng::VenueBundle> shared =
      registry->Acquire("venue-8", &error);
  ASSERT_NE(shared, nullptr) << error;

  // Engine over the shared bundle vs engine over a direct load.
  const eng::QueryEngine via_registry(shared);
  const std::unique_ptr<eng::QueryEngine> direct =
      eng::QueryEngine::TryLoad(*dir_ + "/venue-8.vipsnap", &error);
  ASSERT_NE(direct, nullptr) << error;

  Rng rng(99);
  std::vector<eng::Query> queries;
  for (int i = 0; i < 24; ++i) {
    const IndoorPoint a = synth::RandomIndoorPoint(shared->venue(), rng);
    const IndoorPoint b = synth::RandomIndoorPoint(shared->venue(), rng);
    switch (i % 4) {
      case 0: queries.push_back(eng::Query::Distance(a, b)); break;
      case 1: queries.push_back(eng::Query::Path(a, b)); break;
      case 2: queries.push_back(eng::Query::Knn(a, 3)); break;
      default: queries.push_back(eng::Query::Range(a, 150.0)); break;
    }
  }
  const std::vector<eng::Result> lhs = via_registry.RunSequential(queries);
  const std::vector<eng::Result> rhs = direct->RunSequential(queries);
  testing::ExpectSameResults(rhs, lhs, "registry vs direct",
                             /*compare_visited=*/false);
}

TEST_F(RegistryTest, UnknownVenueAndBrokenSnapshotReportErrors) {
  std::string error;
  std::optional<eng::VenueRegistry> registry =
      eng::VenueRegistry::Open(Manifest(), &error);
  ASSERT_TRUE(registry.has_value()) << error;

  EXPECT_EQ(registry->Acquire("venue-404", &error), nullptr);
  EXPECT_NE(error.find("not in the registry"), std::string::npos) << error;

  // An entry whose snapshot is missing on disk: Open succeeds (lazy),
  // Acquire reports the underlying load error.
  ASSERT_TRUE(eng::VenueRegistry::UpsertManifestEntry(Manifest(), "ghost",
                                                      "missing.vipsnap")
                  .ok());
  std::optional<eng::VenueRegistry> reopened =
      eng::VenueRegistry::Open(Manifest(), &error);
  ASSERT_TRUE(reopened.has_value()) << error;
  EXPECT_EQ(reopened->Acquire("ghost", &error), nullptr);
  EXPECT_NE(error.find("ghost"), std::string::npos) << error;
}

TEST_F(RegistryTest, ManifestErrorsAreReported) {
  std::string error;
  EXPECT_FALSE(eng::VenueRegistry::Open(*dir_ + "/nope.txt", &error)
                   .has_value());
  EXPECT_NE(error.find("cannot open"), std::string::npos) << error;

  // A line with an id but no path.
  const std::string bad = *dir_ + "/bad.txt";
  const std::string contents = "venue-a a.vipsnap\nvenue-b\n";
  ASSERT_TRUE(io::WriteFileBytes(
                  bad, {reinterpret_cast<const uint8_t*>(contents.data()),
                        contents.size()})
                  .ok());
  EXPECT_FALSE(eng::VenueRegistry::Open(bad, &error).has_value());
  EXPECT_NE(error.find("no snapshot path"), std::string::npos) << error;

  // Duplicate ids.
  const std::string dup_contents = "v x.vipsnap\nv y.vipsnap\n";
  ASSERT_TRUE(
      io::WriteFileBytes(bad, {reinterpret_cast<const uint8_t*>(
                                   dup_contents.data()),
                               dup_contents.size()})
          .ok());
  EXPECT_FALSE(eng::VenueRegistry::Open(bad, &error).has_value());
  EXPECT_NE(error.find("twice"), std::string::npos) << error;
  std::remove(bad.c_str());

  // Invalid venue id for Upsert.
  EXPECT_FALSE(eng::VenueRegistry::UpsertManifestEntry(bad, "has space",
                                                       "x.vipsnap")
                   .ok());
}

TEST(ManifestRelativePathTest, StoresRelocatableOrAbsolutePaths) {
  using eng::VenueRegistry;
  // Snapshot under the manifest's directory: stored manifest-relative,
  // including when either path spells the directory with "./".
  EXPECT_EQ(VenueRegistry::ManifestRelativePath("fleet/registry.txt",
                                                "fleet/mc.vipsnap"),
            "mc.vipsnap");
  EXPECT_EQ(VenueRegistry::ManifestRelativePath("fleet/registry.txt",
                                                "./fleet/mc.vipsnap"),
            "mc.vipsnap");
  EXPECT_EQ(VenueRegistry::ManifestRelativePath("./fleet/registry.txt",
                                                "fleet/./mc.vipsnap"),
            "mc.vipsnap");
  EXPECT_EQ(VenueRegistry::ManifestRelativePath("fleet/registry.txt",
                                                "fleet/sub/mc.vipsnap"),
            "sub/mc.vipsnap");
  // Manifest in the current directory: a relative snapshot path is already
  // manifest-relative.
  EXPECT_EQ(VenueRegistry::ManifestRelativePath("registry.txt",
                                                "mc.vipsnap"),
            "mc.vipsnap");
  // Absolute snapshot paths are stored verbatim.
  EXPECT_EQ(VenueRegistry::ManifestRelativePath("fleet/registry.txt",
                                                "/data/mc.vipsnap"),
            "/data/mc.vipsnap");
}

TEST_F(RegistryTest, UpsertRefusesNothingButMissingManifestsStartEmpty) {
  // Upsert into a directory path must fail (unreadable manifest), never
  // silently rewrite it from scratch.
  EXPECT_FALSE(
      eng::VenueRegistry::UpsertManifestEntry(*dir_, "v", "x.vipsnap").ok());
}

TEST_F(RegistryTest, UpsertReplacesExistingEntries) {
  const std::string manifest = *dir_ + "/upsert.txt";
  ASSERT_TRUE(
      eng::VenueRegistry::UpsertManifestEntry(manifest, "a", "one.vipsnap")
          .ok());
  ASSERT_TRUE(
      eng::VenueRegistry::UpsertManifestEntry(manifest, "b", "two.vipsnap")
          .ok());
  ASSERT_TRUE(
      eng::VenueRegistry::UpsertManifestEntry(manifest, "a", "three.vipsnap")
          .ok());
  std::string error;
  std::optional<eng::VenueRegistry> registry =
      eng::VenueRegistry::Open(manifest, &error);
  ASSERT_TRUE(registry.has_value()) << error;
  EXPECT_EQ(registry->NumVenues(), 2u);
  // The replaced entry keeps its original position.
  const std::vector<std::string> ids = registry->VenueIds();
  EXPECT_EQ(ids[0], "a");
  EXPECT_EQ(ids[1], "b");
  std::remove(manifest.c_str());
}

}  // namespace
}  // namespace viptree
