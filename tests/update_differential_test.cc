// Live-object-update differential sweep: for every seeded random venue,
// interleave ApplyObjectDelta publishes (moves, adds, tombstone removes)
// with kNN / range / boolean-kNN queries, re-deriving brute-force Dijkstra
// ground truth from a shadow object list after EVERY publish. The epoch
// machinery (core/live_objects.h) must never change an answer: a query
// against epoch E must match brute force over exactly the objects live at
// E — overlay entries scored like packed ones, tombstoned ids never
// reported, base CSR entries only while undiverged. Also sweeps the merge
// watermark (overlay -> rebuilt CSR), SetObjects full replacement, the
// save path's dense renumbering, and delta validation atomicity.

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/live_objects.h"
#include "engine/query_engine.h"
#include "ground_truth.h"
#include "synth/building_generator.h"
#include "synth/objects.h"

namespace viptree {
namespace {

namespace eng = ::viptree::engine;

// Absolute + relative tolerance: the packed CSR and the overlay go through
// float leaf / extended matrices while brute force accumulates in double,
// so answers agree to matrix precision, not bit-exactly.
double Tol(double reference) {
  return 1e-2 + std::abs(reference) * 1e-4;
}

// The shadow object set the ground truth is re-derived from: position and
// keywords per ever-allocated id, nullopt once removed. This mirrors what
// LiveObjectIndex::ApplyDelta is specified to do, independently.
struct Shadow {
  struct Entry {
    IndoorPoint point;
    std::vector<std::string> keywords;
  };
  std::vector<std::optional<Entry>> slots;

  size_t NumLive() const {
    size_t n = 0;
    for (const auto& s : slots) n += s.has_value() ? 1 : 0;
    return n;
  }

  // Live objects in id order, with the id of each dense row — brute-force
  // helpers take a dense vector, the engine reports original ids.
  void Flatten(std::vector<IndoorPoint>* points, std::vector<ObjectId>* ids,
               std::vector<std::vector<std::string>>* keywords) const {
    points->clear();
    ids->clear();
    keywords->clear();
    for (ObjectId id = 0; id < static_cast<ObjectId>(slots.size()); ++id) {
      if (!slots[id].has_value()) continue;
      points->push_back(slots[id]->point);
      ids->push_back(id);
      keywords->push_back(slots[id]->keywords);
    }
  }

  std::vector<ObjectId> LiveIds() const {
    std::vector<IndoorPoint> points;
    std::vector<ObjectId> ids;
    std::vector<std::vector<std::string>> keywords;
    Flatten(&points, &ids, &keywords);
    return ids;
  }
};

bool HasAllKeywords(const std::vector<std::string>& have,
                    const std::vector<std::string>& want) {
  for (const std::string& w : want) {
    if (std::find(have.begin(), have.end(), w) == have.end()) return false;
  }
  return true;
}

std::vector<std::vector<std::string>> TagObjects(size_t n) {
  std::vector<std::vector<std::string>> keywords(n);
  for (size_t i = 0; i < n; ++i) {
    keywords[i] = {"facility"};
    if (i % 2 == 0) keywords[i].push_back("red");
  }
  return keywords;
}

class UpdateDifferentialTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  UpdateDifferentialTest()
      : venue_(testing::RandomSynthVenue(GetParam())), graph_(venue_) {}

  // A random valid delta against the shadow state: moves of live ids,
  // adds, and (sparingly) removes, never touching one id twice.
  ObjectDelta RandomDelta(const Shadow& shadow, Rng& rng,
                          bool with_keywords) {
    ObjectDelta delta;
    std::vector<ObjectId> live = shadow.LiveIds();
    const size_t ops = 1 + rng.UniformIndex(3);
    std::vector<ObjectId> touched;
    for (size_t i = 0; i < ops; ++i) {
      const double pick = rng.UniformReal(0.0, 1.0);
      if (pick < 0.55 && !live.empty()) {
        const ObjectId id = live[rng.UniformIndex(live.size())];
        if (std::find(touched.begin(), touched.end(), id) != touched.end()) {
          continue;
        }
        touched.push_back(id);
        delta.moves.push_back({id, synth::RandomIndoorPoint(venue_, rng)});
      } else if (pick < 0.85 || live.size() <= 2) {
        ObjectDelta::Add add;
        add.at = synth::RandomIndoorPoint(venue_, rng);
        if (with_keywords) {
          add.keywords = {"facility"};
          if (rng.Chance(0.5)) add.keywords.push_back("red");
        }
        delta.adds.push_back(add);
      } else {
        const ObjectId id = live[rng.UniformIndex(live.size())];
        if (std::find(touched.begin(), touched.end(), id) != touched.end()) {
          continue;
        }
        touched.push_back(id);
        delta.removes.push_back(id);
      }
    }
    return delta;
  }

  // Applies `delta` to the shadow exactly as ApplyDelta specifies: adds
  // allocate ids in submission order starting at the current slot count.
  static void ApplyToShadow(const ObjectDelta& delta, Shadow* shadow) {
    for (const auto& move : delta.moves) {
      ASSERT_TRUE(shadow->slots[move.id].has_value());
      shadow->slots[move.id]->point = move.to;
    }
    for (const ObjectId id : delta.removes) {
      ASSERT_TRUE(shadow->slots[id].has_value());
      shadow->slots[id].reset();
    }
    for (const auto& add : delta.adds) {
      shadow->slots.push_back(Shadow::Entry{add.at, add.keywords});
    }
  }

  Venue venue_;
  D2DGraph graph_;
};

// Checks one engine answer set against brute force over the shadow state:
// the distance sequence matches within Tol, every reported id is live, and
// ids diverge from brute force only under distance ties.
void ExpectMatchesBruteForce(const std::vector<ObjectResult>& actual,
                             const std::vector<testing::BruteResult>& brute,
                             const std::vector<ObjectId>& dense_to_id,
                             const Shadow& shadow, size_t expect_size,
                             const char* what, uint64_t seed, int round) {
  ASSERT_EQ(actual.size(), expect_size)
      << what << " seed " << seed << " round " << round;
  for (size_t j = 0; j < actual.size(); ++j) {
    EXPECT_NEAR(actual[j].distance, brute[j].distance,
                Tol(brute[j].distance))
        << what << " seed " << seed << " round " << round << " j=" << j;
    const ObjectId id = actual[j].object;
    ASSERT_LT(id, shadow.slots.size())
        << what << " seed " << seed << " round " << round;
    EXPECT_TRUE(shadow.slots[id].has_value())
        << what << " reported tombstoned id " << id << " seed " << seed
        << " round " << round;
    if (j > 0) {
      EXPECT_LE(actual[j - 1].distance, actual[j].distance + 1e-12)
          << what << " unsorted, seed " << seed << " round " << round;
    }
  }
  (void)dense_to_id;
}

TEST_P(UpdateDifferentialTest, InterleavedDeltasMatchBruteForce) {
  const uint64_t seed = GetParam();
  Rng rng(seed ^ 0x11FE0B1);
  const std::vector<IndoorPoint> initial =
      synth::PlaceObjects(venue_, 10, rng);
  eng::EngineOptions options;
  options.object_keywords = TagObjects(initial.size());
  eng::QueryEngine engine(venue_, graph_, initial, options);

  Shadow shadow;
  for (size_t i = 0; i < initial.size(); ++i) {
    shadow.slots.push_back(
        Shadow::Entry{initial[i], options.object_keywords[i]});
  }

  uint64_t last_epoch = engine.bundle().live_objects().epoch();
  for (int round = 0; round < 8; ++round) {
    const ObjectDelta delta = RandomDelta(shadow, rng, /*with_keywords=*/true);
    const std::optional<std::string> error = engine.ApplyObjectDelta(delta);
    ASSERT_FALSE(error.has_value())
        << "seed " << seed << " round " << round << ": " << *error;
    ApplyToShadow(delta, &shadow);

    // Epochs are strictly monotonic across publishes.
    const uint64_t epoch = engine.bundle().live_objects().epoch();
    EXPECT_GT(epoch, last_epoch) << "seed " << seed << " round " << round;
    last_epoch = epoch;
    EXPECT_EQ(engine.bundle().live_objects().NumLiveObjects(),
              shadow.NumLive())
        << "seed " << seed << " round " << round;

    // Ground truth is re-derived from scratch against the new epoch.
    std::vector<IndoorPoint> live_points;
    std::vector<ObjectId> live_ids;
    std::vector<std::vector<std::string>> live_keywords;
    shadow.Flatten(&live_points, &live_ids, &live_keywords);
    const IndoorPoint q = synth::RandomIndoorPoint(venue_, rng);
    const auto all =
        testing::BruteAllObjectDistances(venue_, graph_, q, live_points);

    for (const size_t k : {1u, 3u}) {
      auto brute = all;
      if (brute.size() > k) brute.resize(k);
      const auto actual = engine.Run(eng::Query::Knn(q, k)).objects;
      ExpectMatchesBruteForce(actual, brute, live_ids, shadow,
                              std::min(k, live_points.size()), "knn", seed,
                              round);
    }

    // Range probes the middle of the distance distribution; skip rounds
    // where the cut is unreachable. Boundary ties are compared leniently
    // (strict interior must be present, nothing beyond radius+Tol).
    if (!all.empty() && all[all.size() / 2].distance != kInfDistance) {
      const double radius = all[all.size() / 2].distance;
      const auto actual = engine.Run(eng::Query::Range(q, radius)).objects;
      size_t strict = 0;
      for (const auto& r : all) {
        if (r.distance < radius - Tol(radius)) ++strict;
      }
      ASSERT_GE(actual.size(), strict)
          << "range seed " << seed << " round " << round;
      for (size_t j = 0; j < actual.size(); ++j) {
        EXPECT_LE(actual[j].distance, radius + Tol(radius))
            << "range seed " << seed << " round " << round;
        ASSERT_LT(actual[j].object, shadow.slots.size());
        EXPECT_TRUE(shadow.slots[actual[j].object].has_value())
            << "range reported tombstoned id, seed " << seed << " round "
            << round;
      }
    }

    // Boolean kNN against the brute-force keyword filter.
    for (const char* tag : {"facility", "red"}) {
      // Brute results carry dense indexes into live_points/live_keywords.
      std::vector<testing::BruteResult> brute;
      for (const auto& r : all) {
        if (HasAllKeywords(live_keywords[r.object], {tag})) {
          brute.push_back(r);
        }
      }
      const size_t k = 3;
      const size_t expect = std::min<size_t>(k, brute.size());
      if (brute.size() > k) brute.resize(k);
      const auto actual =
          engine.Run(eng::Query::BooleanKnn(q, k, {tag})).objects;
      ASSERT_EQ(actual.size(), expect)
          << "bknn(" << tag << ") seed " << seed << " round " << round;
      for (size_t j = 0; j < actual.size(); ++j) {
        EXPECT_NEAR(actual[j].distance, brute[j].distance,
                    Tol(brute[j].distance))
            << "bknn(" << tag << ") seed " << seed << " round " << round;
        const ObjectId id = actual[j].object;
        ASSERT_LT(id, shadow.slots.size());
        ASSERT_TRUE(shadow.slots[id].has_value());
        EXPECT_TRUE(HasAllKeywords(shadow.slots[id]->keywords, {tag}))
            << "bknn(" << tag << ") reported unmatching id " << id
            << " seed " << seed << " round " << round;
      }
    }
  }
}

// Drives the overlay across the merge watermark with a tiny
// LiveObjectIndex directly (QueryEngine keeps the production default):
// answers must be identical before and after the rebuild, epochs keep
// climbing, and the overlay genuinely drains.
TEST_P(UpdateDifferentialTest, MergeWatermarkRebuildKeepsAnswers) {
  const uint64_t seed = GetParam();
  Rng rng(seed ^ 0x3E16E);
  const std::vector<IndoorPoint> initial =
      synth::PlaceObjects(venue_, 8, rng);
  const eng::QueryEngine engine(venue_, graph_, {});  // tree donor

  LiveObjectIndex::Options opts;
  opts.merge_watermark = 3;
  LiveObjectIndex live(engine.tree().base(), initial, {}, opts);

  Shadow shadow;
  for (const IndoorPoint& p : initial) {
    shadow.slots.push_back(Shadow::Entry{p, {}});
  }

  bool saw_merge = false;
  size_t max_overlay = 0;
  for (int round = 0; round < 12; ++round) {
    const ObjectDelta delta =
        RandomDelta(shadow, rng, /*with_keywords=*/false);
    ASSERT_FALSE(live.ApplyDelta(delta).has_value())
        << "seed " << seed << " round " << round;
    ApplyToShadow(delta, &shadow);

    const std::shared_ptr<const ObjectSnapshot> snap = live.Acquire();
    max_overlay = std::max(max_overlay, snap->overlay.size());
    if (snap->overlay.empty() && round > 0) saw_merge = true;
    // The merge triggers on the publish after the watermark is crossed,
    // so the overlay never exceeds watermark + max ops per delta.
    EXPECT_LE(snap->overlay.size(), opts.merge_watermark + 4)
        << "seed " << seed << " round " << round;
    EXPECT_EQ(snap->num_live, shadow.NumLive());

    std::vector<IndoorPoint> live_points;
    std::vector<ObjectId> live_ids;
    std::vector<std::vector<std::string>> live_keywords;
    shadow.Flatten(&live_points, &live_ids, &live_keywords);
    const IndoorPoint q = synth::RandomIndoorPoint(venue_, rng);
    const auto all =
        testing::BruteAllObjectDistances(venue_, graph_, q, live_points);

    const SnapshotQuery query(engine.tree().base(), snap);
    auto brute = all;
    if (brute.size() > 4) brute.resize(4);
    const auto actual = query.Knn(q, 4);
    ExpectMatchesBruteForce(actual, brute, live_ids, shadow,
                            std::min<size_t>(4, live_points.size()),
                            "merge-knn", seed, round);
  }
  // 12 rounds of 1-4 ops against watermark 3 must rebuild at least once.
  EXPECT_TRUE(saw_merge || max_overlay <= 3) << "seed " << seed;
}

// Exact equality of two answers: same ids, same order, same distance bits.
void ExpectIdentical(const std::vector<ObjectResult>& want,
                     const std::vector<ObjectResult>& got, const char* what,
                     uint64_t seed, int round) {
  ASSERT_EQ(got.size(), want.size())
      << what << " seed " << seed << " round " << round;
  for (size_t j = 0; j < want.size(); ++j) {
    EXPECT_EQ(got[j].object, want[j].object)
        << what << " seed " << seed << " round " << round << " j=" << j;
    EXPECT_EQ(got[j].distance, want[j].distance)
        << what << " seed " << seed << " round " << round << " j=" << j;
  }
}

// Whether an object is still in the overlay or already merged into the
// packed CSR must not show in any answer: one index merges on every
// publish (watermark 0), the other keeps the default overlay, and the same
// deltas must leave every kNN, range and boolean-kNN answer bit-identical,
// including from sources inside overlay entries' own partitions.
TEST_P(UpdateDifferentialTest, MergeStateIsInvisible) {
  const uint64_t seed = GetParam();
  Rng rng(seed ^ 0x1A71B1E);
  const std::vector<IndoorPoint> initial =
      synth::PlaceObjects(venue_, 12, rng);
  const std::vector<std::vector<std::string>> keywords =
      TagObjects(initial.size());
  const eng::QueryEngine engine(venue_, graph_, {});  // tree donor
  const IPTree& tree = engine.tree().base();

  LiveObjectIndex::Options eager;
  eager.merge_watermark = 0;
  LiveObjectIndex merged(tree, initial, keywords, eager);
  LiveObjectIndex overlaid(tree, initial, keywords);
  SnapshotQuery merged_reader(tree, merged.Acquire());
  SnapshotQuery overlaid_reader(tree, overlaid.Acquire());

  Shadow shadow;
  for (size_t i = 0; i < initial.size(); ++i) {
    shadow.slots.push_back(Shadow::Entry{initial[i], keywords[i]});
  }
  for (int round = 0; round < 12; ++round) {
    const ObjectDelta delta = RandomDelta(shadow, rng, /*with_keywords=*/true);
    ASSERT_FALSE(merged.ApplyDelta(delta).has_value()) << "seed " << seed;
    ASSERT_FALSE(overlaid.ApplyDelta(delta).has_value()) << "seed " << seed;
    ApplyToShadow(delta, &shadow);
    merged_reader.Repin(merged.Acquire());
    overlaid_reader.Repin(overlaid.Acquire());
    ASSERT_TRUE(merged_reader.snapshot().overlay.empty()) << "seed " << seed;
    // A freshly built reader answers like the repinned one.
    const SnapshotQuery fresh(tree, overlaid.Acquire());

    std::vector<IndoorPoint> sources;
    for (const auto& entry : overlaid_reader.snapshot().overlay) {
      if (sources.size() == 3) break;
      sources.push_back(entry.point);
    }
    for (int i = 0; i < 3; ++i) {
      sources.push_back(synth::RandomIndoorPoint(venue_, rng));
    }
    const size_t live = shadow.NumLive();
    for (const IndoorPoint& q : sources) {
      for (const size_t k : {size_t{1}, size_t{3}, live + 1}) {
        const std::vector<ObjectResult> want = merged_reader.Knn(q, k);
        ExpectIdentical(want, overlaid_reader.Knn(q, k), "knn", seed, round);
        ExpectIdentical(want, fresh.Knn(q, k), "fresh knn", seed, round);
        ExpectIdentical(
            want,
            overlaid_reader.KnnWithAscent(q, k,
                                          overlaid_reader.ComputeAscent(q)),
            "knn with ascent", seed, round);
        ExpectIdentical(
            want,
            merged_reader.KnnWithAscent(q, k, merged_reader.ComputeAscent(q)),
            "merged knn with ascent", seed, round);
      }
      // Radii at the middle and the far end of the ranking (ties at the
      // cut included).
      const std::vector<ObjectResult> all = merged_reader.Knn(q, live);
      for (const size_t cut : {all.size() / 2, all.size() - 1}) {
        if (all.empty() || all[cut].distance == kInfDistance) continue;
        ExpectIdentical(merged_reader.Range(q, all[cut].distance),
                        overlaid_reader.Range(q, all[cut].distance), "range",
                        seed, round);
      }
      for (const std::vector<std::string>& query :
           {std::vector<std::string>{"facility"},
            std::vector<std::string>{"red"},
            std::vector<std::string>{"red", "facility"},
            std::vector<std::string>{"absent"}}) {
        ExpectIdentical(merged_reader.BooleanKnn(q, 3, query),
                        overlaid_reader.BooleanKnn(q, 3, query), "bknn", seed,
                        round);
      }
    }
  }
}

// SetObjects replacement mid-stream: full rebuild, one epoch, overlay and
// tombstones gone, and answers match brute force over the new set only.
TEST_P(UpdateDifferentialTest, SetObjectsReplacesEverything) {
  const uint64_t seed = GetParam();
  Rng rng(seed ^ 0x5E70B);
  const std::vector<IndoorPoint> initial =
      synth::PlaceObjects(venue_, 6, rng);
  eng::QueryEngine engine(venue_, graph_, initial);

  // Dirty the epoch state first: move an object, remove another.
  ObjectDelta delta;
  delta.moves.push_back({0, synth::RandomIndoorPoint(venue_, rng)});
  delta.removes.push_back(1);
  ASSERT_FALSE(engine.ApplyObjectDelta(delta).has_value()) << "seed " << seed;
  const uint64_t dirty_epoch = engine.bundle().live_objects().epoch();

  const std::vector<IndoorPoint> replacement =
      synth::PlaceObjects(venue_, 9, rng);
  engine.SetObjects(replacement);

  const std::shared_ptr<const ObjectSnapshot> snap =
      engine.bundle().live_objects().Acquire();
  EXPECT_GT(snap->epoch, dirty_epoch) << "seed " << seed;
  EXPECT_TRUE(snap->overlay.empty()) << "seed " << seed;
  EXPECT_TRUE(snap->removed.empty()) << "seed " << seed;
  EXPECT_EQ(snap->num_live, replacement.size()) << "seed " << seed;

  const IndoorPoint q = synth::RandomIndoorPoint(venue_, rng);
  const auto brute =
      testing::BruteKnn(venue_, graph_, q, replacement, 3);
  const auto actual = engine.Run(eng::Query::Knn(q, 3)).objects;
  ASSERT_EQ(actual.size(), std::min<size_t>(3, replacement.size()));
  for (size_t j = 0; j < actual.size(); ++j) {
    EXPECT_NEAR(actual[j].distance, brute[j].distance,
                Tol(brute[j].distance))
        << "seed " << seed << " j=" << j;
    // Replacement ids are dense again: 0..n-1.
    EXPECT_LT(actual[j].object, replacement.size()) << "seed " << seed;
  }
}

// Save after updates compacts tombstones away and renumbers densely; the
// loaded engine must answer like the live one (same distances, and ids in
// the dense range), with the load adopted as a fresh epoch-1 store that
// accepts further deltas.
TEST_P(UpdateDifferentialTest, SnapshotRoundTripAfterUpdates) {
  const uint64_t seed = GetParam();
  Rng rng(seed ^ 0x54BE);
  const std::vector<IndoorPoint> initial =
      synth::PlaceObjects(venue_, 8, rng);
  eng::EngineOptions options;
  options.object_keywords = TagObjects(initial.size());
  eng::QueryEngine engine(venue_, graph_, initial, options);

  Shadow shadow;
  for (size_t i = 0; i < initial.size(); ++i) {
    shadow.slots.push_back(
        Shadow::Entry{initial[i], options.object_keywords[i]});
  }
  for (int round = 0; round < 4; ++round) {
    const ObjectDelta delta = RandomDelta(shadow, rng, /*with_keywords=*/true);
    ASSERT_FALSE(engine.ApplyObjectDelta(delta).has_value())
        << "seed " << seed << " round " << round;
    ApplyToShadow(delta, &shadow);
  }

  const char* dir = std::getenv("TMPDIR");
  if (dir == nullptr || dir[0] == '\0') dir = "/tmp";
  const std::string path = std::string(dir) + "/viptree_update_rt_" +
                           std::to_string(::getpid()) + "_" +
                           std::to_string(seed) + ".vipsnap";
  ASSERT_TRUE(engine.Save(path).ok()) << "seed " << seed;
  std::string error;
  std::unique_ptr<eng::QueryEngine> loaded =
      eng::QueryEngine::TryLoad(path, &error);
  ASSERT_NE(loaded, nullptr) << "seed " << seed << ": " << error;
  std::remove(path.c_str());

  const size_t live_count = shadow.NumLive();
  EXPECT_EQ(loaded->objects().NumObjects(), live_count) << "seed " << seed;
  EXPECT_EQ(loaded->bundle().live_objects().epoch(), 1u) << "seed " << seed;

  for (int i = 0; i < 4; ++i) {
    const IndoorPoint q = synth::RandomIndoorPoint(venue_, rng);
    const auto live_ans = engine.Run(eng::Query::Knn(q, 3)).objects;
    const auto loaded_ans = loaded->Run(eng::Query::Knn(q, 3)).objects;
    ASSERT_EQ(live_ans.size(), loaded_ans.size()) << "seed " << seed;
    for (size_t j = 0; j < live_ans.size(); ++j) {
      EXPECT_NEAR(loaded_ans[j].distance, live_ans[j].distance,
                  Tol(live_ans[j].distance))
          << "seed " << seed << " q" << i << " j=" << j;
      EXPECT_LT(loaded_ans[j].object, live_count)
          << "dense renumbering violated, seed " << seed;
    }
  }

  // The loaded store is live again: a further delta publishes epoch 2.
  ObjectDelta more;
  more.moves.push_back({0, synth::RandomIndoorPoint(venue_, rng)});
  EXPECT_FALSE(loaded->ApplyObjectDelta(more).has_value()) << "seed " << seed;
  EXPECT_EQ(loaded->bundle().live_objects().epoch(), 2u) << "seed " << seed;
}

// Invalid deltas are rejected atomically: an error back, no epoch bump, no
// partial application — even when the bad operation is last in the batch.
TEST_P(UpdateDifferentialTest, InvalidDeltasRejectedAtomically) {
  const uint64_t seed = GetParam();
  Rng rng(seed ^ 0xBAD);
  const std::vector<IndoorPoint> initial =
      synth::PlaceObjects(venue_, 5, rng);
  eng::QueryEngine engine(venue_, graph_, initial);  // keywordless
  const uint64_t epoch0 = engine.bundle().live_objects().epoch();
  const IndoorPoint q = synth::RandomIndoorPoint(venue_, rng);
  const auto before = engine.Run(eng::Query::Knn(q, 3)).objects;

  const IndoorPoint valid_to = synth::RandomIndoorPoint(venue_, rng);
  IndoorPoint bad_partition = valid_to;
  bad_partition.partition =
      static_cast<PartitionId>(venue_.NumPartitions() + 7);

  std::vector<ObjectDelta> bad;
  {  // unknown id
    ObjectDelta d;
    d.moves.push_back({static_cast<ObjectId>(initial.size() + 3), valid_to});
    bad.push_back(d);
  }
  {  // valid move first, then an out-of-range partition: nothing applies
    ObjectDelta d;
    d.moves.push_back({0, valid_to});
    d.moves.push_back({1, bad_partition});
    bad.push_back(d);
  }
  {  // same id removed twice in one delta
    ObjectDelta d;
    d.removes = {2, 2};
    bad.push_back(d);
  }
  {  // move + remove of the same id in one delta
    ObjectDelta d;
    d.moves.push_back({3, valid_to});
    d.removes.push_back(3);
    bad.push_back(d);
  }
  {  // keyworded add on a venue without a keyword index
    ObjectDelta d;
    ObjectDelta::Add add;
    add.at = valid_to;
    add.keywords = {"tag"};
    d.adds.push_back(add);
    bad.push_back(d);
  }
  {  // add placed in a nonexistent partition
    ObjectDelta d;
    ObjectDelta::Add add;
    add.at = bad_partition;
    d.adds.push_back(add);
    bad.push_back(d);
  }

  for (size_t i = 0; i < bad.size(); ++i) {
    const std::optional<std::string> error = engine.ApplyObjectDelta(bad[i]);
    EXPECT_TRUE(error.has_value()) << "bad delta " << i << " accepted, seed "
                                   << seed;
    EXPECT_EQ(engine.bundle().live_objects().epoch(), epoch0)
        << "bad delta " << i << " published, seed " << seed;
  }

  // Answers are bit-identical to before the rejected deltas: same epoch,
  // same snapshot, same code path.
  const auto after = engine.Run(eng::Query::Knn(q, 3)).objects;
  ASSERT_EQ(after.size(), before.size()) << "seed " << seed;
  for (size_t j = 0; j < after.size(); ++j) {
    EXPECT_EQ(after[j].object, before[j].object) << "seed " << seed;
    EXPECT_EQ(after[j].distance, before[j].distance) << "seed " << seed;
  }

  // Removing an already-tombstoned id fails on the second attempt.
  ObjectDelta remove4;
  remove4.removes = {4};
  ASSERT_FALSE(engine.ApplyObjectDelta(remove4).has_value()) << "seed " << seed;
  EXPECT_TRUE(engine.ApplyObjectDelta(remove4).has_value()) << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, UpdateDifferentialTest,
                         ::testing::Range<uint64_t>(0, 24));

// A four-floor building: large enough that a short kNN or range search
// from one corner leaves most leaves unvisited.
struct BuildingEnv {
  Venue venue;
  D2DGraph graph;
  IPTree tree;

  BuildingEnv()
      : venue([] {
          synth::BuildingConfig cfg;
          cfg.floors = 4;
          cfg.rooms_per_floor = 24;
          cfg.staircases = 2;
          cfg.lifts = 1;
          return synth::GenerateStandaloneBuilding(cfg, 200);
        }()),
        graph(venue),
        tree(IPTree::Build(venue, graph)) {}
};

// Overlay entries in leaves a search never scans cost it nothing: the
// answers of a fixed kNN and a fixed range query, and the objects they
// score, stay exactly as they were before 64 far-away adds.
TEST(LiveOverlayTest, EntriesOutsideTheSearchCostNothing) {
  const BuildingEnv env;
  Rng rng(0x0FF5EA);
  const std::vector<IndoorPoint> objects =
      synth::PlaceObjects(env.venue, 40, rng);
  LiveObjectIndex live(env.tree, objects);
  SnapshotQuery reader(env.tree, live.Acquire());

  const IndoorPoint q = objects[0];
  SearchStats knn_before, range_before;
  const std::vector<ObjectResult> knn = reader.Knn(q, 3, &knn_before);
  ASSERT_EQ(knn.size(), 3u);
  const double radius = knn[1].distance;
  const std::vector<ObjectResult> range =
      reader.Range(q, radius, &range_before);

  // A leaf is out of reach when every access door of it is farther from q
  // than the 3rd-NN distance (which bounds the range radius too), with a
  // margin for the float node matrices behind the search's bounds.
  DijkstraEngine dijkstra(env.graph);
  std::vector<DijkstraSource> from_q;
  for (DoorId u : env.venue.DoorsOf(q.partition)) {
    from_q.push_back({u, env.venue.DistanceToDoor(q, u)});
  }
  dijkstra.Start(from_q);
  dijkstra.RunAll();
  const double reach = knn[2].distance * 1.01 + 1.0;
  const auto out_of_reach = [&](PartitionId p) {
    const TreeNode& leaf = env.tree.node(env.tree.LeafOfPartition(p));
    for (DoorId a : leaf.access_doors) {
      if (dijkstra.Settled(a) && dijkstra.DistanceTo(a) <= reach) return false;
    }
    return true;
  };
  ObjectDelta adds;
  for (int tries = 0; adds.adds.size() < 64 && tries < 100000; ++tries) {
    const IndoorPoint p = synth::RandomIndoorPoint(env.venue, rng);
    if (out_of_reach(p.partition)) adds.adds.push_back({p, {}});
  }
  ASSERT_EQ(adds.adds.size(), 64u);
  ASSERT_FALSE(live.ApplyDelta(adds).has_value());
  reader.Repin(live.Acquire());
  ASSERT_EQ(reader.snapshot().overlay.size(), 64u);  // no merge

  SearchStats knn_after, range_after;
  ExpectIdentical(knn, reader.Knn(q, 3, &knn_after), "knn", 0, 0);
  ExpectIdentical(range, reader.Range(q, radius, &range_after), "range", 0,
                  0);
  EXPECT_EQ(knn_after.objects_considered, knn_before.objects_considered);
  EXPECT_EQ(range_after.objects_considered, range_before.objects_considered);

  // The adds are live: each is its own nearest neighbour.
  const std::vector<ObjectResult> self =
      reader.Knn(adds.adds.back().at, 1);
  ASSERT_EQ(self.size(), 1u);
  EXPECT_EQ(self[0].distance, 0.0);
}

// A store built over no objects must still answer its adds: the search's
// empty-index shortcuts may not skip the overlay.
TEST(LiveOverlayTest, EmptyBaseAnswersAdds) {
  const BuildingEnv env;
  const auto base = std::make_shared<const ObjectIndex>(
      env.tree, std::vector<IndoorPoint>{});
  const auto keywords = std::make_shared<const KeywordIndex>(
      env.tree, *base, std::vector<std::vector<std::string>>{});
  LiveObjectIndex live(env.tree, base, keywords);

  Rng rng(0xE3B7);
  ObjectDelta delta;
  const std::vector<std::vector<std::string>> tags = {
      {"cafe"}, {"cafe", "red"}, {"red"}};
  std::vector<IndoorPoint> points;
  for (const std::vector<std::string>& tag : tags) {
    points.push_back(synth::RandomIndoorPoint(env.venue, rng));
    delta.adds.push_back({points.back(), tag});
  }
  ASSERT_FALSE(live.ApplyDelta(delta).has_value());
  const SnapshotQuery reader(env.tree, live.Acquire());

  const IndoorPoint q = synth::RandomIndoorPoint(env.venue, rng);
  const auto brute =
      testing::BruteAllObjectDistances(env.venue, env.graph, q, points);
  const std::vector<ObjectResult> knn = reader.Knn(q, 5);
  ASSERT_EQ(knn.size(), 3u);
  for (size_t j = 0; j < knn.size(); ++j) {
    EXPECT_NEAR(knn[j].distance, brute[j].distance, Tol(brute[j].distance));
  }
  EXPECT_EQ(reader.Range(q, kInfDistance).size(), 3u);
  ExpectIdentical(knn, reader.Range(q, knn.back().distance), "range", 0, 0);

  const std::vector<ObjectResult> cafe = reader.BooleanKnn(q, 5, {"cafe"});
  ASSERT_EQ(cafe.size(), 2u);
  for (const ObjectResult& r : cafe) EXPECT_LT(r.object, 2);
  const std::vector<ObjectResult> both =
      reader.BooleanKnn(q, 5, {"red", "cafe"});
  ASSERT_EQ(both.size(), 1u);
  EXPECT_EQ(both[0].object, 1);
  EXPECT_TRUE(reader.BooleanKnn(q, 5, {"absent"}).empty());
}

}  // namespace
}  // namespace viptree
