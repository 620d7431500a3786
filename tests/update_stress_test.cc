// Concurrency stress over the epoch-published object store: reader
// threads hammer kNN/range/boolean-kNN while a writer publishes deltas at
// full rate, asserting the RCU contract of core/live_objects.h — no torn
// reads (every answer is internally consistent and belongs to exactly one
// epoch), strictly monotonic epochs, snapshot invariants on every
// Acquire, serialized concurrent writers, and clean Service Drain/Stop
// with updates still in flight. Runs under the tsan preset (ctest -L
// update) — the assertions catch logic races, TSan catches data races.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/distance_cache.h"
#include "core/distance_query.h"
#include "core/live_objects.h"
#include "engine/query_engine.h"
#include "engine/service.h"
#include "ground_truth.h"
#include "synth/objects.h"

namespace viptree {
namespace {

namespace eng = ::viptree::engine;

constexpr size_t kInitialObjects = 12;

std::shared_ptr<const eng::VenueBundle> MakeBundle(uint64_t seed) {
  Venue venue = testing::RandomSynthVenue(seed);
  Rng rng(seed ^ 0xB0B);
  std::vector<IndoorPoint> objects =
      synth::PlaceObjects(venue, kInitialObjects, rng);
  return std::make_shared<const eng::VenueBundle>(
      eng::VenueBundle::Build(std::move(venue), std::move(objects)));
}

// A writer that publishes `publishes` single-move deltas over the initial
// id range as fast as it can. Moves only: the id set stays fixed, so
// readers can bound what they may legally observe without coordinating
// with the writer.
void MoveWriter(const eng::VenueBundle& bundle, uint64_t seed,
                int publishes, std::atomic<bool>* done) {
  Rng rng(seed ^ 0x33117E5);
  for (int i = 0; i < publishes; ++i) {
    ObjectDelta delta;
    delta.moves.push_back(
        {static_cast<ObjectId>(rng.UniformIndex(kInitialObjects)),
         synth::RandomIndoorPoint(bundle.venue(), rng)});
    const std::optional<std::string> error =
        bundle.live_objects().ApplyDelta(delta);
    ASSERT_FALSE(error.has_value()) << "publish " << i << ": " << *error;
  }
  done->store(true, std::memory_order_release);
}

// Readers (each with its own QueryEngine over the shared bundle) race the
// writer at full rate. Every answer must be internally consistent — sized,
// sorted, ids in the fixed range — and the epoch a reader observes must
// never go backwards.
TEST(UpdateStressTest, ReadersRaceWriterWithoutTornReads) {
  const std::shared_ptr<const eng::VenueBundle> bundle = MakeBundle(3);
  const size_t num_readers = 4;
  std::atomic<bool> done{false};

  std::vector<std::thread> readers;
  for (size_t r = 0; r < num_readers; ++r) {
    readers.emplace_back([bundle, r, &done] {
      const eng::QueryEngine engine(bundle);
      Rng rng(0xAB5EED ^ r);
      uint64_t last_epoch = 0;
      size_t iterations = 0;
      // Keep reading until the writer finishes, then once more so every
      // reader also queries the final epoch.
      bool final_pass = false;
      while (!final_pass) {
        final_pass = done.load(std::memory_order_acquire);
        const IndoorPoint q = synth::RandomIndoorPoint(bundle->venue(), rng);
        const uint64_t epoch_before = bundle->live_objects().epoch();
        ASSERT_GE(epoch_before, last_epoch) << "epoch went backwards";
        last_epoch = epoch_before;

        const auto knn = engine.Run(eng::Query::Knn(q, 5)).objects;
        ASSERT_EQ(knn.size(), std::min<size_t>(5, kInitialObjects));
        for (size_t j = 0; j < knn.size(); ++j) {
          ASSERT_LT(knn[j].object, kInitialObjects) << "unknown id";
          ASSERT_GE(knn[j].distance, 0.0);
          if (j > 0) {
            ASSERT_LE(knn[j - 1].distance, knn[j].distance)
                << "unsorted kNN under churn";
          }
        }

        const auto range = engine.Run(eng::Query::Range(q, 150.0)).objects;
        for (size_t j = 0; j < range.size(); ++j) {
          ASSERT_LT(range[j].object, kInitialObjects);
          ASSERT_LE(range[j].distance, 150.0 + 1e-9);
          if (j > 0) {
            ASSERT_LE(range[j - 1].distance, range[j].distance);
          }
        }
        ++iterations;
      }
      ASSERT_GT(iterations, 0u);
    });
  }

  std::thread writer(
      [&] { MoveWriter(*bundle, 3, /*publishes=*/300, &done); });
  writer.join();
  for (std::thread& t : readers) t.join();

  // 300 single-move publishes on top of the initial epoch.
  EXPECT_EQ(bundle->live_objects().epoch(), 301u);
  EXPECT_EQ(bundle->live_objects().NumLiveObjects(), kInitialObjects);
}

// Acquire() under full-rate churn (moves, adds and removes this time):
// every observed snapshot satisfies the structural invariants — overlay
// and tombstones sorted and disjoint, live count consistent with them,
// epochs strictly increasing across distinct snapshots.
TEST(UpdateStressTest, SnapshotInvariantsHoldUnderChurn) {
  const std::shared_ptr<const eng::VenueBundle> bundle = MakeBundle(7);
  LiveObjectIndex& live = bundle->live_objects();
  std::atomic<bool> done{false};

  std::vector<std::thread> checkers;
  for (size_t r = 0; r < 3; ++r) {
    checkers.emplace_back([&live, &done] {
      uint64_t last_epoch = 0;
      while (!done.load(std::memory_order_acquire)) {
        const std::shared_ptr<const ObjectSnapshot> snap = live.Acquire();
        ASSERT_GE(snap->epoch, last_epoch);
        if (snap->epoch == last_epoch && last_epoch != 0) continue;
        last_epoch = snap->epoch;

        ASSERT_TRUE(std::is_sorted(
            snap->overlay.begin(), snap->overlay.end(),
            [](const ObjectSnapshot::OverlayEntry& a,
               const ObjectSnapshot::OverlayEntry& b) { return a.id < b.id; }))
            << "overlay unsorted at epoch " << snap->epoch;
        ASSERT_TRUE(
            std::is_sorted(snap->removed.begin(), snap->removed.end()))
            << "tombstones unsorted at epoch " << snap->epoch;
        size_t added_beyond_base = 0;
        for (const auto& entry : snap->overlay) {
          ASSERT_FALSE(snap->IsRemoved(entry.id))
              << "id " << entry.id << " both overlaid and tombstoned";
          if (static_cast<size_t>(entry.id) >= snap->base->NumObjects()) {
            ++added_beyond_base;
          }
        }
        size_t removed_beyond_base = 0;
        for (const ObjectId id : snap->removed) {
          if (static_cast<size_t>(id) >= snap->base->NumObjects()) {
            ++removed_beyond_base;
          }
        }
        // Ever-allocated ids = packed base + overlay/tombstone ids beyond
        // it; live = allocated - tombstoned.
        const size_t allocated = snap->base->NumObjects() +
                                 added_beyond_base + removed_beyond_base;
        ASSERT_EQ(snap->num_live, allocated - snap->removed.size())
            << "live-count drift at epoch " << snap->epoch;
      }
    });
  }

  Rng rng(0xC0DE);
  std::vector<ObjectId> live_ids;
  for (size_t i = 0; i < kInitialObjects; ++i) {
    live_ids.push_back(static_cast<ObjectId>(i));
  }
  ObjectId next_id = static_cast<ObjectId>(kInitialObjects);
  for (int i = 0; i < 400; ++i) {
    ObjectDelta delta;
    const double pick = rng.UniformReal(0.0, 1.0);
    if (pick < 0.6 || live_ids.size() < 4) {
      delta.moves.push_back(
          {live_ids[rng.UniformIndex(live_ids.size())],
           synth::RandomIndoorPoint(bundle->venue(), rng)});
    } else if (pick < 0.8) {
      ObjectDelta::Add add;
      add.at = synth::RandomIndoorPoint(bundle->venue(), rng);
      delta.adds.push_back(add);
      live_ids.push_back(next_id++);
    } else {
      const size_t victim = rng.UniformIndex(live_ids.size());
      delta.removes.push_back(live_ids[victim]);
      live_ids.erase(live_ids.begin() + victim);
    }
    ASSERT_FALSE(live.ApplyDelta(delta).has_value()) << "publish " << i;
  }
  done.store(true, std::memory_order_release);
  for (std::thread& t : checkers) t.join();

  EXPECT_EQ(live.epoch(), 401u);
  EXPECT_EQ(live.NumLiveObjects(), live_ids.size());
}

// Two concurrent writers over disjoint id halves: ApplyDelta serializes
// them internally, every publish lands, and each id's final position is
// the last one its owning writer wrote.
TEST(UpdateStressTest, ConcurrentWritersSerializeCleanly) {
  const std::shared_ptr<const eng::VenueBundle> bundle = MakeBundle(11);
  LiveObjectIndex& live = bundle->live_objects();
  const int per_writer = 120;

  std::vector<IndoorPoint> final_position(kInitialObjects);
  std::vector<std::thread> writers;
  for (int half = 0; half < 2; ++half) {
    writers.emplace_back([&, half] {
      Rng rng(0x17E4 + half);
      for (int i = 0; i < per_writer; ++i) {
        const ObjectId id = static_cast<ObjectId>(
            2 * rng.UniformIndex(kInitialObjects / 2) + half);
        const IndoorPoint to =
            synth::RandomIndoorPoint(bundle->venue(), rng);
        ObjectDelta delta;
        delta.moves.push_back({id, to});
        ASSERT_FALSE(live.ApplyDelta(delta).has_value());
        final_position[id] = to;  // this thread alone writes even/odd ids
      }
    });
  }
  for (std::thread& t : writers) t.join();

  // Every publish produced exactly one epoch; none were lost or merged.
  EXPECT_EQ(live.epoch(), 1u + 2 * per_writer);

  // The final snapshot agrees with each writer's last move per id,
  // whether the id sits in the overlay or was merged into the base.
  const std::shared_ptr<const ObjectSnapshot> snap = live.Acquire();
  const std::vector<IndoorPoint> base_points = snap->base->objects();
  for (ObjectId id = 0; id < static_cast<ObjectId>(kInitialObjects); ++id) {
    if (final_position[id].partition == kInvalidId) continue;  // never moved
    const ObjectSnapshot::OverlayEntry* entry = snap->FindOverlay(id);
    const IndoorPoint& actual =
        entry != nullptr ? entry->point : base_points[id];
    EXPECT_EQ(actual.partition, final_position[id].partition) << "id " << id;
    EXPECT_EQ(actual.position.x, final_position[id].position.x)
        << "id " << id;
  }
}

// Readers keep up to eight old snapshots pinned while a writer merges on
// every publish (watermark 0), so the leaf blocks that merged bases share
// are released in every order, many while older pinned epochs still read
// them. A pinned snapshot must keep giving the answer it gave when it was
// pinned; ASan and TSan watch the block lifetimes and refcounts.
TEST(UpdateStressTest, PinnedSnapshotsOutliveLeafMerges) {
  const std::shared_ptr<const eng::VenueBundle> bundle = MakeBundle(17);
  const IPTree& tree = bundle->tree().base();
  LiveObjectIndex::Options options;
  options.merge_watermark = 0;
  LiveObjectIndex live(tree, bundle->objects().objects(), {}, options);
  std::atomic<bool> done{false};
  // The writer waits for the readers' progress, so the two interleave.
  std::atomic<size_t> reads{0};
  std::atomic<int> readers_running{3};

  struct Pinned {
    std::shared_ptr<const ObjectSnapshot> snap;
    IndoorPoint q;
    std::vector<ObjectResult> answer;
  };
  std::vector<std::thread> readers;
  for (size_t r = 0; r < 3; ++r) {
    readers.emplace_back([&, r] {
      struct Exit {
        std::atomic<int>* running;
        ~Exit() { running->fetch_sub(1); }
      } exit{&readers_running};
      Rng rng(0x919 + r);
      SnapshotQuery query(tree, live.Acquire());
      std::vector<Pinned> pinned;
      bool final_pass = false;
      while (!final_pass) {
        final_pass = done.load(std::memory_order_acquire);
        Pinned pin{live.Acquire(),
                   synth::RandomIndoorPoint(bundle->venue(), rng),
                   {}};
        query.Repin(pin.snap);
        pin.answer = query.Knn(pin.q, 3);
        pinned.push_back(std::move(pin));
        if (pinned.size() > 8) {
          pinned.erase(pinned.begin() + rng.UniformIndex(pinned.size()));
        }
        const Pinned& old = pinned[rng.UniformIndex(pinned.size())];
        query.Repin(old.snap);
        const std::vector<ObjectResult> again = query.Knn(old.q, 3);
        ASSERT_EQ(again.size(), old.answer.size())
            << "epoch " << old.snap->epoch;
        for (size_t j = 0; j < again.size(); ++j) {
          ASSERT_EQ(again[j].object, old.answer[j].object)
              << "epoch " << old.snap->epoch;
          ASSERT_EQ(again[j].distance, old.answer[j].distance)
              << "epoch " << old.snap->epoch;
        }
        reads.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  Rng rng(0x9E1);
  std::vector<ObjectId> live_ids;
  for (size_t i = 0; i < kInitialObjects; ++i) {
    live_ids.push_back(static_cast<ObjectId>(i));
  }
  ObjectId next_id = static_cast<ObjectId>(kInitialObjects);
  size_t merges = 0;
  std::shared_ptr<const ObjectIndex> last_base = live.Acquire()->base;
  for (int i = 0; i < 300; ++i) {
    while (reads.load(std::memory_order_relaxed) < static_cast<size_t>(i) &&
           readers_running.load() > 0) {
      std::this_thread::yield();
    }
    ObjectDelta delta;
    const double pick = rng.UniformReal(0.0, 1.0);
    if (pick < 0.8 || live_ids.size() < 4) {
      delta.moves.push_back(
          {live_ids[rng.UniformIndex(live_ids.size())],
           synth::RandomIndoorPoint(bundle->venue(), rng)});
    } else if (pick < 0.9) {
      ObjectDelta::Add add;
      add.at = synth::RandomIndoorPoint(bundle->venue(), rng);
      delta.adds.push_back(add);
      live_ids.push_back(next_id++);
    } else {
      const size_t victim = rng.UniformIndex(live_ids.size());
      delta.removes.push_back(live_ids[victim]);
      live_ids.erase(live_ids.begin() + victim);
    }
    ASSERT_FALSE(live.ApplyDelta(delta).has_value()) << "publish " << i;
    const std::shared_ptr<const ObjectIndex> base = live.Acquire()->base;
    if (base != last_base) ++merges;
    last_base = base;
  }
  done.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();
  EXPECT_GE(merges, 100u);
}

// Cache contention: every reader engine shares one DistanceCache (small
// capacity + few shards to maximize lock and eviction contention) while a
// writer churns object epochs at full rate. Point queries never reach the
// cache, so each reader also asks door-pair distances (DoorDistance, the
// calls that do) through the same cache. Distance answers are
// epoch-independent, so each reader can check its own distance queries
// for exact self-consistency while kNN churns the snapshot underneath;
// TSan (ctest -L update / -L cache) watches the shard locks and recency
// lists.
TEST(UpdateStressTest, ReadersShareCacheUnderWriterChurn) {
  DistanceCacheOptions cache_options;
  cache_options.capacity = 128;  // heavy eviction pressure
  cache_options.shards = 2;
  const auto cache = std::make_shared<DistanceCache>(cache_options);
  const std::shared_ptr<const eng::VenueBundle> bundle = MakeBundle(29);
  std::atomic<bool> done{false};

  std::vector<std::thread> readers;
  for (size_t r = 0; r < 4; ++r) {
    readers.emplace_back([bundle, cache, r, &done] {
      eng::QueryEngine engine(bundle);
      engine.SetDistanceCache(cache);
      ASSERT_EQ(engine.distance_cache(), cache);
      const VIPDistanceQuery doors(bundle->tree(), bundle->query_options(),
                                   cache.get());
      Rng rng(0xCAC4E ^ r);
      // A small pool of repeated endpoints so this reader both hits
      // entries other readers inserted and races them on inserts.
      std::vector<IndoorPoint> pool;
      for (int i = 0; i < 8; ++i) {
        pool.push_back(synth::RandomIndoorPoint(bundle->venue(), rng));
      }
      std::vector<DoorId> door_pool;
      for (size_t i = 0; i < pool.size(); ++i) {
        door_pool.push_back(static_cast<DoorId>(
            rng.UniformIndex(bundle->venue().NumDoors())));
      }
      std::vector<double> first_answer(pool.size() * pool.size(),
                                       kInfDistance);
      std::vector<double> first_door_answer(door_pool.size() * door_pool.size(),
                                            kInfDistance);
      bool final_pass = false;
      while (!final_pass) {
        final_pass = done.load(std::memory_order_acquire);
        const size_t i = rng.UniformIndex(pool.size());
        const size_t j = rng.UniformIndex(pool.size());
        const double d =
            engine.Run(eng::Query::Distance(pool[i], pool[j])).distance;
        // The tree is immutable, so repeats of the same pair must agree
        // exactly no matter which thread populated the cache entry or
        // whether it was evicted and recomputed in between.
        double& seen = first_answer[i * pool.size() + j];
        if (seen == kInfDistance) {
          seen = d;
        } else {
          ASSERT_EQ(d, seen) << "cached distance drifted under churn";
        }
        const double dd = doors.DoorDistance(door_pool[i], door_pool[j]);
        double& seen_door = first_door_answer[i * door_pool.size() + j];
        if (seen_door == kInfDistance) {
          seen_door = dd;
        } else {
          ASSERT_EQ(dd, seen_door) << "cached door distance drifted";
        }
        const auto knn =
            engine.Run(eng::Query::Knn(pool[i], 3)).objects;
        ASSERT_EQ(knn.size(), std::min<size_t>(3, kInitialObjects));
        for (size_t k = 1; k < knn.size(); ++k) {
          ASSERT_LE(knn[k - 1].distance, knn[k].distance);
        }
      }
    });
  }

  std::thread writer(
      [&] { MoveWriter(*bundle, 29, /*publishes=*/250, &done); });
  writer.join();
  for (std::thread& t : readers) t.join();

  const CacheCounters counters = cache->Counters();
  EXPECT_GT(counters.lookups(), 0u);
  EXPECT_EQ(counters.hits + counters.misses, counters.lookups());
  EXPECT_LE(cache->Size(), cache_options.capacity);
  EXPECT_EQ(bundle->live_objects().epoch(), 251u);
}

// Drain with a mixed query/update stream in flight: every ticket reaches
// kOk, the stats split queries from updates exactly, and the final epoch
// accounts for every update.
TEST(UpdateStressTest, ServiceDrainsMixedQueryUpdateStream) {
  const std::shared_ptr<const eng::VenueBundle> bundle = MakeBundle(17);
  eng::ServiceOptions options;
  options.num_threads = 4;
  options.queue_capacity = 4096;
  eng::Service service(bundle, options);
  service.Start();

  const uint64_t epoch_before = bundle->live_objects().epoch();
  Rng rng(0xD4A1);
  std::vector<eng::Ticket> tickets;
  size_t submitted_updates = 0;
  for (int i = 0; i < 600; ++i) {
    if (i % 3 == 0) {
      ObjectDelta delta;
      delta.moves.push_back(
          {static_cast<ObjectId>(rng.UniformIndex(kInitialObjects)),
           synth::RandomIndoorPoint(bundle->venue(), rng)});
      tickets.push_back(
          service.Submit(eng::Request::Update("", std::move(delta))));
      ++submitted_updates;
    } else {
      eng::Request request;
      request.query = eng::Query::Knn(
          synth::RandomIndoorPoint(bundle->venue(), rng), 3);
      tickets.push_back(service.Submit(std::move(request)));
    }
  }
  service.Drain();

  size_t ok_queries = 0;
  size_t ok_updates = 0;
  for (const eng::Ticket& ticket : tickets) {
    ASSERT_TRUE(ticket.Done()) << "non-terminal ticket after Drain";
    const eng::Response& response = ticket.Wait();
    ASSERT_EQ(response.status, eng::RequestStatus::kOk)
        << eng::RequestStatusName(response.status) << ": " << response.error;
    if (response.kind == eng::RequestKind::kUpdateObjects) {
      ++ok_updates;
    } else {
      ++ok_queries;
      ASSERT_EQ(response.result.objects.size(),
                std::min<size_t>(3, kInitialObjects));
    }
  }
  EXPECT_EQ(ok_updates, submitted_updates);
  EXPECT_EQ(ok_queries, tickets.size() - submitted_updates);

  const eng::ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.num_queries, ok_queries);
  EXPECT_EQ(stats.updates, submitted_updates);
  EXPECT_EQ(stats.update_micros.count, submitted_updates);
  // Each applied update published exactly one epoch.
  EXPECT_EQ(bundle->live_objects().epoch(),
            epoch_before + submitted_updates);
  service.Stop();
}

// Stop with updates still queued: every ticket is terminal (kOk or
// kCancelled — never lost), counters reconcile, and the bundle is left in
// a coherent epoch that serves new engines.
TEST(UpdateStressTest, StopWithUpdatesInFlightLeavesCoherentState) {
  const std::shared_ptr<const eng::VenueBundle> bundle = MakeBundle(23);
  eng::ServiceOptions options;
  options.num_threads = 2;
  options.queue_capacity = 4096;
  eng::Service service(bundle, options);
  service.Start();

  Rng rng(0x57CB);
  std::vector<eng::Ticket> tickets;
  for (int i = 0; i < 400; ++i) {
    if (i % 2 == 0) {
      ObjectDelta delta;
      delta.moves.push_back(
          {static_cast<ObjectId>(rng.UniformIndex(kInitialObjects)),
           synth::RandomIndoorPoint(bundle->venue(), rng)});
      tickets.push_back(
          service.Submit(eng::Request::Update("", std::move(delta))));
    } else {
      eng::Request request;
      request.query = eng::Query::Knn(
          synth::RandomIndoorPoint(bundle->venue(), rng), 2);
      tickets.push_back(service.Submit(std::move(request)));
    }
  }
  service.Stop();  // races the workers on purpose

  uint64_t ok_updates = 0;
  uint64_t ok = 0;
  uint64_t cancelled = 0;
  for (const eng::Ticket& ticket : tickets) {
    ASSERT_TRUE(ticket.Done()) << "non-terminal ticket after Stop";
    const eng::Response& response = ticket.Wait();
    if (response.status == eng::RequestStatus::kOk) {
      ++ok;
      if (response.kind == eng::RequestKind::kUpdateObjects) ++ok_updates;
    } else {
      ASSERT_EQ(response.status, eng::RequestStatus::kCancelled)
          << eng::RequestStatusName(response.status);
      ++cancelled;
    }
  }
  EXPECT_EQ(ok + cancelled, tickets.size());

  const eng::ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.updates, ok_updates);
  EXPECT_EQ(stats.cancelled, cancelled);

  // Exactly the applied updates advanced the epoch, and the store still
  // serves: a fresh engine answers on the final epoch.
  EXPECT_EQ(bundle->live_objects().epoch(), 1u + ok_updates);
  const eng::QueryEngine engine(bundle);
  Rng qrng(0xF00);
  const auto answer =
      engine
          .Run(eng::Query::Knn(
              synth::RandomIndoorPoint(bundle->venue(), qrng), 3))
          .objects;
  EXPECT_EQ(answer.size(), std::min<size_t>(3, kInitialObjects));
}

}  // namespace
}  // namespace viptree
