// Leaf-merge byte identity: every packed base a LiveObjectIndex merges
// (ObjectIndex::Merge — untouched leaves shared with the previous base,
// touched ones rebuilt from stayers' cells and overlay rows) must equal,
// byte for byte, the ObjectIndex built from scratch over the same
// positions: ToParts(), every node's SubtreeCount and, on keyword venues,
// the keyword index. Tombstones stay at their last position in both.
//
// The churn covers moves within a leaf and across leaves, moves into an
// empty leaf and out of a leaf's last object, adds, removals of objects
// moved since the last merge, and chains of many merges; predecessors
// built in process or loaded through the mmap arena; SetObjects after
// merges; and a snapshot saved after merges against one saved from a
// fresh bundle.

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/live_objects.h"
#include "engine/venue_bundle.h"
#include "ground_truth.h"
#include "synth/objects.h"

namespace viptree {
namespace {

namespace eng = ::viptree::engine;

std::string TempPath(const std::string& tag, uint64_t seed) {
  const char* dir = std::getenv("TMPDIR");
  if (dir == nullptr || dir[0] == '\0') dir = "/tmp";
  return std::string(dir) + "/viptree_merge_" + tag + "_" +
         std::to_string(::getpid()) + "_" + std::to_string(seed) +
         ".vipsnap";
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

template <typename T>
bool SameBytes(const Storage<T>& a, const Storage<T>& b) {
  return a.size() == b.size() &&
         (a.size() == 0 ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0);
}

void ExpectSameParts(const ObjectIndex::Parts& merged,
                     const ObjectIndex::Parts& fresh,
                     const std::string& where) {
  ASSERT_EQ(merged.objects.size(), fresh.objects.size()) << where;
  for (size_t o = 0; o < fresh.objects.size(); ++o) {
    EXPECT_EQ(merged.objects[o].partition, fresh.objects[o].partition)
        << where << " object " << o;
    EXPECT_EQ(merged.objects[o].position.x, fresh.objects[o].position.x)
        << where << " object " << o;
    EXPECT_EQ(merged.objects[o].position.y, fresh.objects[o].position.y)
        << where << " object " << o;
  }
  EXPECT_TRUE(SameBytes(merged.leaf_object_offsets, fresh.leaf_object_offsets))
      << where;
  EXPECT_TRUE(SameBytes(merged.leaf_objects, fresh.leaf_objects)) << where;
  EXPECT_TRUE(SameBytes(merged.dist_offsets, fresh.dist_offsets)) << where;
  EXPECT_TRUE(SameBytes(merged.door_dists, fresh.door_dists)) << where;
  EXPECT_TRUE(SameBytes(merged.dfs_prefix, fresh.dfs_prefix)) << where;
}

// A point inside partition p (as synth places objects: jittered centroid).
IndoorPoint PointIn(const Venue& venue, PartitionId p, Rng& rng) {
  IndoorPoint point;
  point.partition = p;
  point.position = venue.partition(p).centroid;
  point.position.x += rng.UniformReal(-1.5, 1.5);
  point.position.y += rng.UniformReal(-1.5, 1.5);
  return point;
}

// Drives one LiveObjectIndex with random deltas that hit every merge case,
// mirrors each delta in a shadow of all allocated positions (tombstones
// at their last position) and checks the base after every merge.
class MergeChecker {
 public:
  MergeChecker(const IPTree& tree, LiveObjectIndex* live,
               std::vector<IndoorPoint> positions,
               std::vector<std::vector<std::string>> keywords, uint64_t seed)
      : tree_(tree),
        live_(live),
        positions_(std::move(positions)),
        keywords_(std::move(keywords)),
        removed_(positions_.size(), false),
        rng_(seed),
        last_base_(live->Acquire()->base) {}

  size_t merges() const { return merges_; }

  // One random delta, mirrored and, if it merged, checked.
  void Step() {
    const ObjectDelta delta = NextDelta();
    ASSERT_FALSE(live_->ApplyDelta(delta).has_value());
    for (const ObjectDelta::Move& move : delta.moves) {
      positions_[move.id] = move.to;
    }
    for (const ObjectId id : delta.removes) removed_[id] = true;
    for (const ObjectDelta::Add& add : delta.adds) {
      positions_.push_back(add.at);
      removed_.push_back(false);
      if (!keywords_.empty()) keywords_.push_back(add.keywords);
    }
    const std::shared_ptr<const ObjectSnapshot> snap = live_->Acquire();
    if (snap->base == last_base_) return;
    last_base_ = snap->base;
    ++merges_;
    Check("merge " + std::to_string(merges_));
  }

  // SetObjects on a keywordless venue, mirrored and checked.
  void Replace(std::vector<IndoorPoint> positions) {
    ASSERT_TRUE(keywords_.empty());
    positions_ = std::move(positions);
    removed_.assign(positions_.size(), false);
    live_->SetObjects(positions_);
    last_base_ = live_->Acquire()->base;
    Check("SetObjects");
  }

  void Check(const std::string& where) {
    const ObjectSnapshot& snap = *live_->Acquire();
    const ObjectIndex fresh(tree_, positions_);
    ExpectSameParts(snap.base->ToParts(), fresh.ToParts(), where);
    EXPECT_EQ(snap.base->NumObjects(), fresh.NumObjects()) << where;
    for (const TreeNode& node : tree_.nodes()) {
      ASSERT_EQ(snap.base->SubtreeCount(node), fresh.SubtreeCount(node))
          << where << " node " << node.id;
    }
    if (keywords_.empty()) return;
    ASSERT_NE(snap.keywords, nullptr) << where;
    const KeywordIndex::Parts merged = snap.keywords->ToParts();
    const KeywordIndex::Parts expected =
        KeywordIndex(tree_, fresh, keywords_).ToParts();
    EXPECT_EQ(merged.keywords_by_id, expected.keywords_by_id) << where;
    EXPECT_EQ(merged.object_keywords, expected.object_keywords) << where;
    EXPECT_EQ(merged.node_keywords, expected.node_keywords) << where;
  }

 private:
  NodeId LeafOf(const IndoorPoint& p) const {
    return tree_.LeafOfPartition(p.partition);
  }

  // A point in `leaf`, or nullopt when the leaf has no partition.
  std::optional<IndoorPoint> PointInLeaf(NodeId leaf) {
    std::vector<PartitionId> parts;
    const Venue& venue = tree_.venue();
    for (PartitionId p = 0; p < static_cast<PartitionId>(venue.NumPartitions());
         ++p) {
      if (tree_.LeafOfPartition(p) == leaf) parts.push_back(p);
    }
    if (parts.empty()) return std::nullopt;
    return PointIn(venue, parts[rng_.UniformIndex(parts.size())], rng_);
  }

  std::vector<ObjectId> LiveIds() const {
    std::vector<ObjectId> ids;
    for (size_t id = 0; id < positions_.size(); ++id) {
      if (!removed_[id]) ids.push_back(static_cast<ObjectId>(id));
    }
    return ids;
  }

  // Ids per leaf as the fresh build sees them (tombstones included).
  std::vector<std::vector<ObjectId>> Occupancy() const {
    std::vector<std::vector<ObjectId>> by_leaf(tree_.nodes().size());
    for (size_t id = 0; id < positions_.size(); ++id) {
      by_leaf[LeafOf(positions_[id])].push_back(static_cast<ObjectId>(id));
    }
    return by_leaf;
  }

  ObjectDelta NextDelta() {
    ObjectDelta delta;
    const Venue& venue = tree_.venue();
    const std::vector<ObjectId> live = LiveIds();
    const auto add = [&] {
      ObjectDelta::Add a;
      a.at = synth::RandomIndoorPoint(venue, rng_);
      if (!keywords_.empty()) a.keywords = {"facility", "new"};
      delta.adds.push_back(a);
    };
    if (live.size() < 3) {
      add();
      return delta;
    }
    const ObjectId any = live[rng_.UniformIndex(live.size())];
    switch (rng_.UniformIndex(7)) {
      case 0: {  // within its leaf
        const std::optional<IndoorPoint> to =
            PointInLeaf(LeafOf(positions_[any]));
        delta.moves.push_back({any, to.value_or(positions_[any])});
        break;
      }
      case 1:  // anywhere, usually across leaves
        delta.moves.push_back({any, synth::RandomIndoorPoint(venue, rng_)});
        break;
      case 2: {  // into an empty leaf
        const std::vector<std::vector<ObjectId>> by_leaf = Occupancy();
        for (const TreeNode& node : tree_.nodes()) {
          if (!node.is_leaf() || !by_leaf[node.id].empty()) continue;
          if (const std::optional<IndoorPoint> to = PointInLeaf(node.id)) {
            delta.moves.push_back({any, *to});
            break;
          }
        }
        break;
      }
      case 3: {  // out of a leaf whose last object it is
        const std::vector<std::vector<ObjectId>> by_leaf = Occupancy();
        for (const TreeNode& node : tree_.nodes()) {
          if (by_leaf[node.id].size() != 1) continue;
          const ObjectId only = by_leaf[node.id][0];
          if (removed_[only]) continue;
          delta.moves.push_back(
              {only, synth::RandomIndoorPoint(venue, rng_)});
          break;
        }
        break;
      }
      case 4:
        add();
        break;
      case 5: {  // remove an object moved (or added) since the last merge
        const std::vector<ObjectSnapshot::OverlayEntry>& hot =
            live_->Acquire()->overlay;
        delta.removes.push_back(
            hot.empty() ? any : hot[rng_.UniformIndex(hot.size())].id);
        break;
      }
      default: {  // a batch: two moves, an add and a remove, distinct ids
        const ObjectId a = live[0];
        const ObjectId b = live[live.size() / 2];
        const ObjectId c = live.back();
        delta.moves.push_back({a, synth::RandomIndoorPoint(venue, rng_)});
        delta.moves.push_back({b, synth::RandomIndoorPoint(venue, rng_)});
        delta.removes.push_back(c);
        add();
        break;
      }
    }
    if (delta.empty()) add();
    return delta;
  }

  const IPTree& tree_;
  LiveObjectIndex* live_;
  std::vector<IndoorPoint> positions_;
  std::vector<std::vector<std::string>> keywords_;
  std::vector<bool> removed_;
  Rng rng_;
  std::shared_ptr<const ObjectIndex> last_base_;
  size_t merges_ = 0;
};

class MergeIdentityTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  MergeIdentityTest()
      : venue_(testing::RandomSynthVenue(GetParam())), graph_(venue_) {}

  // Runs `checker` until it has merged at least `merges` times.
  static void Churn(MergeChecker& checker, size_t merges) {
    for (int step = 0; step < 4000 && checker.merges() < merges; ++step) {
      checker.Step();
      if (::testing::Test::HasFatalFailure()) return;
    }
    EXPECT_GE(checker.merges(), merges);
  }

  LiveObjectIndex::Options SmallWatermark() const {
    LiveObjectIndex::Options options;
    options.merge_watermark = GetParam() % 4;  // 0..3: merge every few moves
    return options;
  }

  Venue venue_;
  D2DGraph graph_;
};

TEST_P(MergeIdentityTest, MergedBasesEqualFreshBuilds) {
  const uint64_t seed = GetParam();
  Rng rng(seed ^ 0x3E76E);
  const std::vector<IndoorPoint> initial = synth::PlaceObjects(venue_, 12, rng);
  const eng::VenueBundle bundle =
      eng::VenueBundle::BuildFrom(venue_, graph_, initial);
  const IPTree& tree = bundle.tree().base();
  LiveObjectIndex live(tree, initial, {}, SmallWatermark());
  MergeChecker checker(tree, &live, initial, {}, seed);
  Churn(checker, 12);
}

TEST_P(MergeIdentityTest, KeywordVenueMergesEqualFreshBuilds) {
  const uint64_t seed = GetParam();
  Rng rng(seed ^ 0xEE1);
  const std::vector<IndoorPoint> initial = synth::PlaceObjects(venue_, 10, rng);
  std::vector<std::vector<std::string>> keywords(initial.size());
  for (size_t i = 0; i < keywords.size(); ++i) {
    keywords[i] = {"facility", i % 2 == 0 ? "red" : "blue"};
  }
  const eng::VenueBundle bundle =
      eng::VenueBundle::BuildFrom(venue_, graph_, initial);
  const IPTree& tree = bundle.tree().base();
  LiveObjectIndex live(tree, initial, keywords, SmallWatermark());
  MergeChecker checker(tree, &live, initial, keywords, seed);
  Churn(checker, 10);
}

// The first merge starts from a base whose buffers alias a mapped snapshot;
// later merges keep sharing its untouched leaves.
TEST_P(MergeIdentityTest, MmapLoadedPredecessorMergesEqualFreshBuilds) {
  const uint64_t seed = GetParam();
  Rng rng(seed ^ 0x3A9);
  const std::vector<IndoorPoint> initial = synth::PlaceObjects(venue_, 12, rng);
  const std::string path = TempPath("mmap", seed);
  ASSERT_TRUE(eng::VenueBundle::BuildFrom(venue_, graph_, initial)
                  .Save(path)
                  .ok());
  std::string error;
  std::optional<eng::VenueBundle> loaded =
      eng::VenueBundle::TryLoad(path, &error);
  std::remove(path.c_str());
  ASSERT_TRUE(loaded.has_value()) << error;
  ASSERT_TRUE(loaded->zero_copy());
  const IPTree& tree = loaded->tree().base();
  const std::shared_ptr<const ObjectSnapshot> first =
      loaded->live_objects().Acquire();
  LiveObjectIndex live(tree, first->base, first->keywords, SmallWatermark());
  MergeChecker checker(tree, &live, first->base->objects(), {}, seed);
  Churn(checker, 10);
}

TEST_P(MergeIdentityTest, SetObjectsAfterMergesRestartsTheChain) {
  const uint64_t seed = GetParam();
  Rng rng(seed ^ 0x5E7);
  const std::vector<IndoorPoint> initial = synth::PlaceObjects(venue_, 12, rng);
  const eng::VenueBundle bundle =
      eng::VenueBundle::BuildFrom(venue_, graph_, initial);
  const IPTree& tree = bundle.tree().base();
  LiveObjectIndex live(tree, initial, {}, SmallWatermark());
  MergeChecker checker(tree, &live, initial, {}, seed);
  Churn(checker, 4);
  checker.Replace(synth::PlaceObjects(venue_, 9, rng));
  Churn(checker, 14);
}

// Save after merges writes the same bytes as a fresh bundle of the same
// objects (the snapshot format never sees a merged base).
TEST_P(MergeIdentityTest, SnapshotAfterMergesEqualsFreshSnapshot) {
  const uint64_t seed = GetParam();
  Rng rng(seed ^ 0x5A7E);
  const size_t watermark = LiveObjectIndex::Options().merge_watermark;
  std::vector<IndoorPoint> positions =
      synth::PlaceObjects(venue_, watermark + 8, rng);
  const eng::VenueBundle bundle =
      eng::VenueBundle::BuildFrom(venue_, graph_, positions);
  LiveObjectIndex& live = bundle.live_objects();
  for (int round = 0; round < 3; ++round) {
    // One delta moving more ids than the watermark merges at once.
    ObjectDelta delta;
    for (size_t i = 0; i <= watermark; ++i) {
      const ObjectId id = static_cast<ObjectId>(
          (i + static_cast<size_t>(round)) % positions.size());
      delta.moves.push_back({id, synth::RandomIndoorPoint(venue_, rng)});
      positions[id] = delta.moves.back().to;
    }
    ASSERT_FALSE(live.ApplyDelta(delta).has_value());
    ASSERT_TRUE(live.Acquire()->overlay.empty()) << "round " << round;
  }
  const std::string merged_path = TempPath("merged", seed);
  const std::string fresh_path = TempPath("fresh", seed);
  ASSERT_TRUE(bundle.Save(merged_path).ok());
  ASSERT_TRUE(eng::VenueBundle::BuildFrom(venue_, graph_, positions)
                  .Save(fresh_path)
                  .ok());
  const std::string merged = ReadFile(merged_path);
  const std::string fresh = ReadFile(fresh_path);
  std::remove(merged_path.c_str());
  std::remove(fresh_path.c_str());
  EXPECT_FALSE(fresh.empty());
  EXPECT_TRUE(merged == fresh) << "snapshot bytes differ, seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, MergeIdentityTest,
                         ::testing::Range<uint64_t>(0, 24));

}  // namespace
}  // namespace viptree
