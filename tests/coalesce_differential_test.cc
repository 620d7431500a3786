// Execution-planner differential sweep (engine/exec_plan.h): coalesced
// execution must be bit-identical to the sequential reference across 24
// seeded random venues — the planner only ever *shares* work (one root
// ascent per distinct kNN source, one search per duplicated kNN), it
// never changes a single answer.
//
// Two layers are swept:
//   1. a coalescing Service with a whole-batch window, one and three
//      workers, against RunSequential;
//   2. a one-worker coalescing Service fed queries with interleaved live
//      object updates, against a twin engine applying the same stream
//      sequentially (updates are group barriers, so epoch visibility must
//      be exactly the submission order's).
//
// The whole suite also runs under VIPTREE_FORCE_SCALAR=1 in CI (label
// `coalesce`), pinning the kernels under the planner to the scalar twins.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "engine/exec_plan.h"
#include "engine/query_engine.h"
#include "engine/service.h"
#include "ground_truth.h"
#include "synth/objects.h"

namespace viptree {
namespace {

namespace eng = ::viptree::engine;

// Source-skewed workload over a hot pool of 3 points: the traffic shape
// the planner exists for. Heavy on kNN (the grouped type) with duplicated
// (source, k) pairs, plus distance/path/range so the fallback lane runs
// interleaved with groups.
std::vector<eng::Query> SkewedQueries(const Venue& venue, size_t n,
                                      Rng& rng) {
  std::vector<IndoorPoint> pool;
  for (int i = 0; i < 3; ++i) {
    pool.push_back(synth::RandomIndoorPoint(venue, rng));
  }
  std::vector<eng::Query> queries;
  queries.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const IndoorPoint& hot = pool[rng.UniformIndex(pool.size())];
    switch (i % 8) {
      case 0:
      case 1:
      case 2:
        queries.push_back(
            eng::Query::Distance(hot, synth::RandomIndoorPoint(venue, rng)));
        break;
      case 3:
        // Same-leaf distance: target drawn from the same hot pool, often
        // sharing the source's leaf (always when it *is* the source).
        queries.push_back(
            eng::Query::Distance(hot, pool[rng.UniformIndex(pool.size())]));
        break;
      case 4:
      case 5:
      case 6:
        queries.push_back(eng::Query::Knn(hot, 2 + rng.UniformIndex(2)));
        break;
      default:
        if (rng.Chance(0.5)) {
          queries.push_back(eng::Query::Path(
              hot, synth::RandomIndoorPoint(venue, rng)));
        } else {
          queries.push_back(eng::Query::Range(hot, 90.0));
        }
        break;
    }
  }
  return queries;
}

class CoalesceDifferentialTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CoalesceDifferentialTest, CoalescedServiceMatchesSequential) {
  const uint64_t seed = GetParam();
  Venue venue = testing::RandomSynthVenue(seed);
  Rng rng(seed ^ 0xC0A7E5CE);
  std::vector<IndoorPoint> objects = synth::PlaceObjects(venue, 8, rng);
  const auto bundle = std::make_shared<const eng::VenueBundle>(
      eng::VenueBundle::Build(std::move(venue), std::move(objects)));
  const eng::QueryEngine engine(bundle);

  const std::vector<eng::Query> queries =
      SkewedQueries(engine.venue(), 48, rng);
  const std::vector<eng::Result> expected = engine.RunSequential(
      Span<const eng::Query>(queries.data(), queries.size()));

  for (const size_t threads : {size_t{1}, size_t{3}}) {
    eng::ServiceOptions options;
    options.num_threads = threads;
    options.coalesce.enabled = true;
    options.coalesce.window = queries.size();  // whole-batch windows
    eng::ServiceStats stats;
    const std::vector<eng::Result> served =
        testing::ServeInOrder(bundle, options, queries, &stats);
    testing::ExpectSameResults(expected, served,
                               "seed " + std::to_string(seed));
    if (threads == 1) {
      // One worker pulled the whole batch, so the planner saw it as one
      // span: one group per kNN source point asked at least twice, and
      // one root ascent per group.
      std::map<std::tuple<PartitionId, double, double, double>, uint64_t>
          knn_sources;
      for (const eng::Query& q : queries) {
        if (q.type != eng::QueryType::kKnn) continue;
        const IndoorPoint& p = q.source;
        ++knn_sources[{p.partition, p.position.x, p.position.y,
                       p.position.z}];
      }
      uint64_t groups = 0, grouped = 0;
      for (const auto& [source, count] : knn_sources) {
        (void)source;
        if (count < 2) continue;
        ++groups;
        grouped += count;
      }
      const eng::PlanStats& plan = stats.plan;
      EXPECT_EQ(plan.groups, groups) << "seed " << seed;
      EXPECT_EQ(plan.coalesced_queries, grouped) << "seed " << seed;
      EXPECT_EQ(plan.ascents_reused, grouped - groups) << "seed " << seed;
      uint64_t histogram_total = 0;
      for (size_t b = 0; b < eng::PlanStats::kHistogramBuckets; ++b) {
        histogram_total += plan.groups_by_size[b];
      }
      EXPECT_EQ(histogram_total, plan.groups) << "seed " << seed;
    }
  }
}

TEST_P(CoalesceDifferentialTest, CoalescingServiceMatchesSequentialUpdates) {
  const uint64_t seed = GetParam();
  // Twin bundles built from the same seeds: the service mutates its own
  // live object store, the reference engine mutates the other.
  const auto build = [&] {
    Venue venue = testing::RandomSynthVenue(seed);
    Rng rng(seed ^ 0x5EB51CE);
    std::vector<IndoorPoint> objects = synth::PlaceObjects(venue, 8, rng);
    return std::make_shared<const eng::VenueBundle>(eng::VenueBundle::Build(
        std::move(venue), std::move(objects)));
  };
  const auto service_bundle = build();
  const auto reference_bundle = build();
  eng::QueryEngine reference(reference_bundle);

  // The request stream: skewed queries with a live-object move every 6th
  // slot. With one worker and coalescing on, updates must act as window
  // barriers — every query still sees exactly the epochs the submission
  // order implies.
  Rng rng(seed ^ 0xB1EED);
  const std::vector<eng::Query> queries =
      SkewedQueries(service_bundle->venue(), 36, rng);
  struct Step {
    bool is_update = false;
    eng::Query query;
    ObjectDelta delta;
  };
  std::vector<Step> steps;
  for (size_t i = 0; i < queries.size(); ++i) {
    if (i % 6 == 5) {
      Step update;
      update.is_update = true;
      update.delta.moves.push_back(
          {static_cast<ObjectId>(rng.UniformIndex(8)),
           synth::RandomIndoorPoint(service_bundle->venue(), rng)});
      steps.push_back(std::move(update));
    }
    Step step;
    step.query = queries[i];
    steps.push_back(std::move(step));
  }

  std::vector<eng::Result> expected(steps.size());
  for (size_t i = 0; i < steps.size(); ++i) {
    if (steps[i].is_update) {
      ASSERT_FALSE(reference.ApplyObjectDelta(steps[i].delta).has_value())
          << "seed " << seed << " step " << i;
    } else {
      expected[i] = reference.Run(steps[i].query);
    }
  }

  eng::ServiceOptions options;
  options.num_threads = 1;  // submission order IS execution order
  options.queue_capacity = steps.size();
  options.coalesce.enabled = true;
  options.coalesce.window = 8;
  eng::Service service(service_bundle, options);
  std::vector<eng::Ticket> tickets;
  for (const Step& step : steps) {
    if (step.is_update) {
      tickets.push_back(service.Submit(eng::Request::Update("", step.delta)));
    } else {
      eng::Request request;
      request.query = step.query;
      tickets.push_back(service.Submit(std::move(request)));
    }
  }
  service.Start();
  service.Drain();
  for (size_t i = 0; i < steps.size(); ++i) {
    const eng::Response& response = tickets[i].Wait();
    ASSERT_TRUE(response.ok())
        << "seed " << seed << " step " << i << ": " << response.error;
    if (!steps[i].is_update) {
      testing::ExpectSameResult(
          expected[i], response.result,
          "seed " + std::to_string(seed) + " step " + std::to_string(i));
    }
  }
  const eng::ServiceStats stats = service.Stats();
  EXPECT_GT(stats.plan.groups, 0u) << "seed " << seed;
  service.Stop();

  // Both stores saw the same deltas: epochs advanced in lockstep.
  EXPECT_EQ(service_bundle->live_objects().epoch(),
            reference_bundle->live_objects().epoch());
}

INSTANTIATE_TEST_SUITE_P(Seeds, CoalesceDifferentialTest,
                         ::testing::Range<uint64_t>(0, 24),
                         [](const ::testing::TestParamInfo<uint64_t>& info) {
                           return "seed" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace viptree
