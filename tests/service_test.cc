// engine::Service — the async request/response serving front-end: resident
// worker pool, bounded queue admission, deadline shedding, clean shutdown
// (Drain/Stop with queued and in-flight work), streaming callback delivery,
// multi-venue routing through a registry, and a 24-seed differential sweep
// asserting Submit answers bit-identically to QueryEngine::RunSequential.

#include "engine/service.h"

#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "graph/d2d_graph.h"
#include "ground_truth.h"
#include "synth/objects.h"

namespace viptree {
namespace {

namespace eng = ::viptree::engine;

// One shared single-venue bundle for the lifecycle tests (building a venue
// per test would dominate the suite's runtime).
class ServiceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    Venue venue = testing::RandomSynthVenue(7);
    Rng rng(7);
    std::vector<IndoorPoint> objects = synth::PlaceObjects(venue, 8, rng);
    eng::EngineOptions options;
    options.object_keywords.assign(objects.size(), {"poi"});
    bundle_ = new std::shared_ptr<const eng::VenueBundle>(
        std::make_shared<const eng::VenueBundle>(eng::VenueBundle::Build(
            std::move(venue), std::move(objects), std::move(options))));
  }

  static void TearDownTestSuite() {
    delete bundle_;
    bundle_ = nullptr;
  }

  static std::shared_ptr<const eng::VenueBundle> Bundle() { return *bundle_; }

  static std::vector<eng::Query> SomeQueries(size_t n, uint64_t seed) {
    const Venue& venue = Bundle()->venue();
    Rng rng(seed);
    std::vector<eng::Query> queries;
    for (size_t i = 0; i < n; ++i) {
      const IndoorPoint a = synth::RandomIndoorPoint(venue, rng);
      const IndoorPoint b = synth::RandomIndoorPoint(venue, rng);
      switch (i % 4) {
        case 0: queries.push_back(eng::Query::Distance(a, b)); break;
        case 1: queries.push_back(eng::Query::Path(a, b)); break;
        case 2: queries.push_back(eng::Query::Knn(a, 3)); break;
        default: queries.push_back(eng::Query::Range(a, 120.0)); break;
      }
    }
    return queries;
  }

  static std::shared_ptr<const eng::VenueBundle>* bundle_;
};

std::shared_ptr<const eng::VenueBundle>* ServiceTest::bundle_ = nullptr;

TEST_F(ServiceTest, TicketsCompleteAndCarryResults) {
  eng::ServiceOptions options;
  options.num_threads = 2;
  eng::Service service(Bundle(), options);
  service.Start();

  const std::vector<eng::Query> queries = SomeQueries(12, 1);
  std::vector<eng::Request> requests;
  for (size_t i = 0; i < queries.size(); ++i) {
    eng::Request request;
    request.query = queries[i];
    request.tag = 1000 + i;
    requests.push_back(std::move(request));
  }
  std::vector<eng::Ticket> tickets = service.SubmitBatch(std::move(requests));
  ASSERT_EQ(tickets.size(), queries.size());
  for (size_t i = 0; i < tickets.size(); ++i) {
    const eng::Response& response = tickets[i].Wait();
    EXPECT_TRUE(response.ok()) << response.error;
    EXPECT_EQ(response.tag, 1000 + i);
    EXPECT_EQ(response.result.type, queries[i].type);
    EXPECT_GE(response.queue_micros, 0.0);
    EXPECT_TRUE(tickets[i].Done());
    ASSERT_NE(tickets[i].TryGet(), nullptr);
  }
  service.Drain();
  const eng::ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.submitted, queries.size());
  EXPECT_EQ(stats.num_queries, queries.size());
  EXPECT_EQ(stats.queue_depth, 0u);
  EXPECT_EQ(stats.rejected + stats.expired + stats.cancelled + stats.failed,
            0u);
  EXPECT_EQ(stats.latency_micros.count, queries.size());
  EXPECT_GT(stats.visited_nodes, 0u);
  EXPECT_EQ(stats.queue_micros.count, queries.size());
  ASSERT_EQ(stats.per_venue.count(""), 1u);
  EXPECT_EQ(stats.per_venue.at("").completed, queries.size());
  service.Stop();
}

TEST_F(ServiceTest, ExpiredInQueueRequestsAreShedWithoutRunning) {
  eng::Service service(Bundle(), {});
  // Submit *before* Start so the requests provably sit in the queue while
  // their deadline passes.
  std::vector<eng::Ticket> expired;
  for (const eng::Query& query : SomeQueries(5, 2)) {
    eng::Request request;
    request.query = query;
    request.deadline = eng::ServiceClock::now() - std::chrono::milliseconds(1);
    expired.push_back(service.Submit(std::move(request)));
  }
  // Budgets too large for the clock's integer ticks (or infinite) mean no
  // deadline; they must never wrap into the past and be shed.
  const std::vector<double> budgets_ms{
      60'000.0, 1e13, std::numeric_limits<double>::infinity()};
  const std::vector<eng::Query> live_queries =
      SomeQueries(budgets_ms.size(), 3);
  std::vector<eng::Ticket> live;
  for (size_t i = 0; i < budgets_ms.size(); ++i) {
    eng::Request request;
    request.query = live_queries[i];
    request.deadline = eng::DeadlineAfterMillis(budgets_ms[i]);
    live.push_back(service.Submit(std::move(request)));
  }
  service.Start();
  service.Drain();

  for (eng::Ticket& ticket : expired) {
    const eng::Response& response = ticket.Wait();
    EXPECT_EQ(response.status, eng::RequestStatus::kDeadlineExceeded);
    // Shed, not run: no execution latency was ever recorded.
    EXPECT_EQ(response.result.latency_micros, 0.0);
    EXPECT_GT(response.queue_micros, 0.0);
    EXPECT_FALSE(response.error.empty());
  }
  for (eng::Ticket& ticket : live) {
    EXPECT_EQ(ticket.Wait().status, eng::RequestStatus::kOk)
        << ticket.Wait().error;
  }
  const eng::ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.expired, 5u);
  EXPECT_EQ(stats.num_queries, 3u);
  EXPECT_EQ(stats.per_venue.at("").expired, 5u);
  service.Stop();
}

TEST_F(ServiceTest, StopCancelsQueuedAndRejectsLateSubmissions) {
  eng::Service service(Bundle(), {});
  std::vector<eng::Ticket> tickets;
  for (const eng::Query& query : SomeQueries(10, 4)) {
    eng::Request request;
    request.query = query;
    tickets.push_back(service.Submit(std::move(request)));
  }
  service.Stop();  // never started: everything is still queued
  for (eng::Ticket& ticket : tickets) {
    EXPECT_EQ(ticket.Wait().status, eng::RequestStatus::kCancelled);
  }

  eng::Request late;
  late.query = SomeQueries(1, 5)[0];
  eng::Ticket rejected = service.Submit(std::move(late));
  EXPECT_EQ(rejected.Wait().status, eng::RequestStatus::kRejected);
  EXPECT_NE(rejected.Wait().error.find("stopped"), std::string::npos);

  const eng::ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.cancelled, 10u);
  EXPECT_EQ(stats.rejected, 1u);
  EXPECT_EQ(stats.num_queries, 0u);
}

TEST_F(ServiceTest, StopWithInFlightWorkLeavesEveryTicketTerminal) {
  eng::ServiceOptions options;
  options.num_threads = 2;
  options.queue_capacity = 1u << 12;
  eng::Service service(Bundle(), options);
  service.Start();

  std::vector<eng::Request> requests;
  for (const eng::Query& query : SomeQueries(300, 6)) {
    eng::Request request;
    request.query = query;
    requests.push_back(std::move(request));
  }
  std::vector<eng::Ticket> tickets = service.SubmitBatch(std::move(requests));
  service.Stop();  // races the workers on purpose

  size_t completed = 0;
  size_t cancelled = 0;
  for (eng::Ticket& ticket : tickets) {
    ASSERT_TRUE(ticket.Done());  // Stop leaves nothing undecided
    const eng::Response& response = ticket.Wait();
    if (response.ok()) {
      ++completed;
    } else {
      ASSERT_EQ(response.status, eng::RequestStatus::kCancelled);
      ++cancelled;
    }
  }
  EXPECT_EQ(completed + cancelled, tickets.size());
  const eng::ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.num_queries, completed);
  EXPECT_EQ(stats.cancelled, cancelled);
  // Drain after Stop must return immediately, not hang.
  service.Drain();
}

TEST_F(ServiceTest, CallbacksStreamOnWorkerThreadsInQueueOrder) {
  eng::Service service(Bundle(), {});  // one worker => FIFO delivery

  std::mutex mu;
  std::vector<uint64_t> delivered;
  std::vector<std::thread::id> delivery_threads;
  const std::vector<eng::Query> queries = SomeQueries(20, 8);
  for (size_t i = 0; i < queries.size(); ++i) {
    eng::Request request;
    request.query = queries[i];
    request.tag = i;
    service.Submit(std::move(request), [&](const eng::Response& response) {
      std::lock_guard<std::mutex> lock(mu);
      delivered.push_back(response.tag);
      delivery_threads.push_back(std::this_thread::get_id());
    });
  }
  service.Start();
  service.Drain();

  // Drain happens-after every callback, so no lock is needed below.
  ASSERT_EQ(delivered.size(), queries.size());
  for (size_t i = 0; i < delivered.size(); ++i) {
    EXPECT_EQ(delivered[i], i) << "single-worker delivery must be FIFO";
  }
  for (const std::thread::id& id : delivery_threads) {
    EXPECT_NE(id, std::this_thread::get_id())
        << "callbacks run on worker threads, not the submitter";
  }
  service.Stop();
}

TEST_F(ServiceTest, BoundedQueueRejectsOverflow) {
  eng::ServiceOptions options;
  options.queue_capacity = 4;
  eng::Service service(Bundle(), options);  // not started: nothing drains

  std::vector<eng::Request> requests;
  for (const eng::Query& query : SomeQueries(10, 9)) {
    eng::Request request;
    request.query = query;
    requests.push_back(std::move(request));
  }
  std::vector<eng::Ticket> tickets = service.SubmitBatch(std::move(requests));
  size_t rejected = 0;
  for (size_t i = 0; i < tickets.size(); ++i) {
    const eng::Response* response = tickets[i].TryGet();
    if (i < 4) {
      EXPECT_EQ(response, nullptr) << "accepted requests are still queued";
    } else {
      ASSERT_NE(response, nullptr);
      EXPECT_EQ(response->status, eng::RequestStatus::kRejected);
      EXPECT_NE(response->error.find("queue is full"), std::string::npos);
      ++rejected;
    }
  }
  EXPECT_EQ(rejected, 6u);
  eng::ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.queue_depth, 4u);
  EXPECT_EQ(stats.rejected, 6u);
  EXPECT_EQ(stats.submitted, 10u);

  service.Start();
  service.Drain();
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_TRUE(tickets[i].Wait().ok());
  }
  service.Stop();
}

TEST_F(ServiceTest, SingleVenueServiceRejectsVenueIds) {
  eng::Service service(Bundle(), {});
  service.Start();
  eng::Request request;
  request.venue_id = "somewhere-else";
  request.query = SomeQueries(1, 10)[0];
  eng::Ticket ticket = service.Submit(std::move(request));
  const eng::Response& response = ticket.Wait();
  EXPECT_EQ(response.status, eng::RequestStatus::kVenueNotFound);
  EXPECT_NE(response.error.find("single venue"), std::string::npos);
  EXPECT_EQ(service.Stats().failed, 1u);
  service.Stop();
}

TEST_F(ServiceTest, ZeroThreadsMeansHardwareConcurrencyClampedToOne) {
  const size_t resolved = eng::ResolveThreadCount(0);
  EXPECT_GE(resolved, 1u);
  EXPECT_EQ(resolved,
            std::max<size_t>(1, std::thread::hardware_concurrency()));
  EXPECT_EQ(eng::ResolveThreadCount(3), 3u);

  eng::ServiceOptions options;
  options.num_threads = 0;
  eng::Service service(Bundle(), options);
  EXPECT_EQ(service.num_threads(), resolved);
  service.Start();
  eng::Request request;
  request.query = SomeQueries(1, 11)[0];
  EXPECT_TRUE(service.Submit(std::move(request)).Wait().ok());
  service.Stop();
}

TEST_F(ServiceTest, BatchSchedulingIsIndependentOfThreadCount) {
  // Deliberately prime: uneven splits across the workers.
  const std::vector<eng::Query> batch = SomeQueries(37, 11);
  const std::vector<eng::Result> reference =
      eng::QueryEngine(Bundle()).RunSequential(batch);
  for (const size_t threads : {1u, 2u, 3u, 8u}) {
    eng::ServiceOptions options;
    options.num_threads = threads;
    testing::ExpectSameResults(reference,
                               testing::ServeInOrder(Bundle(), options, batch),
                               "threads=" + std::to_string(threads));
  }
}

TEST_F(ServiceTest, InvalidRequestsFailCleanlyInsteadOfAborting) {
  // A server fails the request, never the process: out-of-range partition
  // ids (unvalidated serve-mode input) must come back kInvalidRequest.
  eng::Service service(Bundle(), {});
  service.Start();

  eng::Request huge;
  huge.query = eng::Query::Knn(IndoorPoint{1 << 20, Point{}}, 2);
  // The ticket owns the response storage, so it must outlive the uses.
  eng::Ticket huge_ticket = service.Submit(std::move(huge));
  const eng::Response& out_of_range = huge_ticket.Wait();
  EXPECT_EQ(out_of_range.status, eng::RequestStatus::kInvalidRequest);
  EXPECT_NE(out_of_range.error.find("out of range"), std::string::npos);

  eng::Request negative;
  negative.query = SomeQueries(1, 12)[0];
  negative.query.target.partition = -5;
  EXPECT_EQ(service.Submit(std::move(negative)).Wait().status,
            eng::RequestStatus::kInvalidRequest);
  EXPECT_EQ(service.Stats().failed, 2u);
  service.Stop();
}

TEST_F(ServiceTest, NonFiniteCoordinatesAndBadRadiiAreRejected) {
  // A NaN radius never stops the kNN branch-and-bound and NaN coordinates
  // poison its heaps: each must fail the request at admission.
  eng::Service service(Bundle(), {});
  service.Start();
  const eng::Query base = SomeQueries(1, 13)[0];
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<eng::Query> bad;
  bad.push_back(eng::Query::Range(base.source, nan));
  bad.push_back(eng::Query::Range(base.source, -1.0));
  IndoorPoint nan_source = base.source;
  nan_source.position.y = nan;
  bad.push_back(eng::Query::Knn(nan_source, 3));
  IndoorPoint inf_target = base.source;
  inf_target.position.x = inf;
  bad.push_back(eng::Query::Distance(base.source, inf_target));
  bad.push_back(eng::Query::Path(inf_target, base.source));
  for (size_t i = 0; i < bad.size(); ++i) {
    eng::Request request;
    request.query = bad[i];
    eng::Ticket ticket = service.Submit(std::move(request));
    EXPECT_EQ(ticket.Wait().status, eng::RequestStatus::kInvalidRequest)
        << "query " << i;
  }
  // An unbounded radius is a valid (if expensive) range query.
  eng::Request all;
  all.query = eng::Query::Range(base.source, inf);
  EXPECT_TRUE(service.Submit(std::move(all)).Wait().ok());
  EXPECT_EQ(service.Stats().failed, bad.size());
  service.Stop();
}

TEST(ServiceValidationTest, KeywordQueryWithoutKeywordIndexIsRejected) {
  Venue venue = testing::RandomSynthVenue(5);
  Rng rng(5);
  std::vector<IndoorPoint> objects = synth::PlaceObjects(venue, 4, rng);
  const IndoorPoint q = objects[0];
  // No keywords: a kBooleanKnn submission must fail the request instead
  // of tripping the engine's CHECK on a worker thread.
  eng::Service service(
      std::make_shared<const eng::VenueBundle>(
          eng::VenueBundle::Build(std::move(venue), std::move(objects))),
      {});
  service.Start();
  eng::Request request;
  request.query = eng::Query::BooleanKnn(q, 2, {"cafe"});
  // The ticket owns the response storage, so it must outlive the uses.
  eng::Ticket ticket = service.Submit(std::move(request));
  const eng::Response& response = ticket.Wait();
  EXPECT_EQ(response.status, eng::RequestStatus::kInvalidRequest);
  EXPECT_NE(response.error.find("keyword"), std::string::npos);
  service.Stop();
}

TEST_F(ServiceTest, StatusNamesAreStable) {
  EXPECT_STREQ(eng::RequestStatusName(eng::RequestStatus::kOk), "ok");
  EXPECT_STREQ(eng::RequestStatusName(eng::RequestStatus::kDeadlineExceeded),
               "deadline-exceeded");
  EXPECT_STREQ(eng::RequestStatusName(eng::RequestStatus::kVenueNotFound),
               "venue-not-found");
  EXPECT_STREQ(eng::RequestStatusName(eng::RequestStatus::kInvalidRequest),
               "invalid-request");
  EXPECT_STREQ(eng::RequestStatusName(eng::RequestStatus::kRejected),
               "rejected");
  EXPECT_STREQ(eng::RequestStatusName(eng::RequestStatus::kCancelled),
               "cancelled");
}

// ---------------------------------------------------------------------------
// kUpdateObjects requests: object deltas riding the same queue, routing
// and deadline machinery as queries, applied through the venue bundle's
// LiveObjectIndex. These build private bundles — the shared fixture
// bundle must stay immutable for the other lifecycle tests.
// ---------------------------------------------------------------------------

std::shared_ptr<const eng::VenueBundle> FreshBundle(uint64_t seed,
                                                    size_t num_objects) {
  Venue venue = testing::RandomSynthVenue(seed);
  Rng rng(seed ^ 0xFEED);
  std::vector<IndoorPoint> objects =
      synth::PlaceObjects(venue, num_objects, rng);
  return std::make_shared<const eng::VenueBundle>(
      eng::VenueBundle::Build(std::move(venue), std::move(objects)));
}

TEST(ServiceUpdateTest, UpdatesRouteCountAndPublishEpochs) {
  const std::shared_ptr<const eng::VenueBundle> bundle = FreshBundle(19, 6);
  eng::Service service(bundle, {});
  service.Start();

  Rng rng(19);
  std::vector<eng::Ticket> tickets;
  for (int i = 0; i < 9; ++i) {
    if (i % 3 == 2) {
      ObjectDelta delta;
      delta.moves.push_back(
          {static_cast<ObjectId>(i % 6),
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
  service.Drain();

  for (size_t i = 0; i < tickets.size(); ++i) {
    const eng::Response& response = tickets[i].Wait();
    ASSERT_TRUE(response.ok()) << response.error;
    EXPECT_EQ(response.kind, i % 3 == 2 ? eng::RequestKind::kUpdateObjects
                                        : eng::RequestKind::kQuery);
    if (i % 3 == 2) {
      // A completed update reports its publish cost, not query results.
      EXPECT_TRUE(response.result.objects.empty());
      EXPECT_GE(response.result.latency_micros, 0.0);
    }
  }

  // Updates are counted apart from queries so query p50/p99 stay
  // comparable across update rates.
  const eng::ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.num_queries, 6u);
  EXPECT_EQ(stats.updates, 3u);
  EXPECT_EQ(stats.latency_micros.count, 6u);
  EXPECT_EQ(stats.update_micros.count, 3u);
  EXPECT_EQ(stats.per_venue.at("").completed, 6u);
  EXPECT_EQ(stats.per_venue.at("").updated, 3u);
  // Each applied update published exactly one epoch.
  EXPECT_EQ(bundle->live_objects().epoch(), 4u);
  service.Stop();
}

TEST(ServiceUpdateTest, InvalidDeltaFailsTheRequestNotTheProcess) {
  const std::shared_ptr<const eng::VenueBundle> bundle = FreshBundle(23, 4);
  eng::Service service(bundle, {});
  service.Start();

  // Unknown object id: validated by ApplyDelta, failed as a request.
  // (The ticket owns the response storage, so it must outlive the uses.)
  ObjectDelta bad;
  bad.moves.push_back({42, bundle->objects().objects()[0]});
  eng::Ticket bad_ticket =
      service.Submit(eng::Request::Update("", std::move(bad)));
  const eng::Response& failed = bad_ticket.Wait();
  EXPECT_EQ(failed.status, eng::RequestStatus::kInvalidRequest);
  EXPECT_FALSE(failed.error.empty());
  EXPECT_EQ(failed.kind, eng::RequestKind::kUpdateObjects);
  // Nothing was published.
  EXPECT_EQ(bundle->live_objects().epoch(), 1u);

  // The worker survived: a valid update and a query still complete.
  ObjectDelta good;
  good.moves.push_back({0, bundle->objects().objects()[1]});
  EXPECT_TRUE(
      service.Submit(eng::Request::Update("", std::move(good))).Wait().ok());
  eng::Request query;
  Rng rng(23);
  query.query =
      eng::Query::Knn(synth::RandomIndoorPoint(bundle->venue(), rng), 2);
  EXPECT_TRUE(service.Submit(std::move(query)).Wait().ok());

  const eng::ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.failed, 1u);
  EXPECT_EQ(stats.updates, 1u);
  EXPECT_EQ(stats.per_venue.at("").failed, 1u);
  EXPECT_EQ(bundle->live_objects().epoch(), 2u);
  service.Stop();
}

TEST(ServiceUpdateTest, UpdatesWithExpiredDeadlinesAreShedUnapplied) {
  const std::shared_ptr<const eng::VenueBundle> bundle = FreshBundle(29, 4);
  eng::Service service(bundle, {});
  // Submit before Start so the deadline provably passes while queued.
  ObjectDelta delta;
  delta.moves.push_back({0, bundle->objects().objects()[1]});
  eng::Request request = eng::Request::Update("", std::move(delta));
  request.deadline = eng::ServiceClock::now() - std::chrono::milliseconds(1);
  eng::Ticket ticket = service.Submit(std::move(request));
  service.Start();
  service.Drain();

  EXPECT_EQ(ticket.Wait().status, eng::RequestStatus::kDeadlineExceeded);
  // Shed means shed: the delta never reached the object store.
  EXPECT_EQ(bundle->live_objects().epoch(), 1u);
  EXPECT_EQ(service.Stats().updates, 0u);
  EXPECT_EQ(service.Stats().expired, 1u);
  service.Stop();
}

// ---------------------------------------------------------------------------
// Multi-venue routing through an owned registry.
// ---------------------------------------------------------------------------

TEST(ServiceRegistryTest, RoutesAcrossVenuesWithPerVenueStats) {
  const char* tmp = std::getenv("TMPDIR");
  if (tmp == nullptr || tmp[0] == '\0') tmp = "/tmp";
  const std::string dir = std::string(tmp) + "/viptree_service_test_" +
                          std::to_string(::getpid());
  ::mkdir(dir.c_str(), 0755);
  const std::string manifest = dir + "/registry.txt";

  // Two venues on disk, plus direct-load reference engines.
  std::vector<std::string> ids;
  std::vector<std::unique_ptr<eng::QueryEngine>> references;
  for (const uint64_t seed : {uint64_t{13}, uint64_t{17}}) {
    Venue venue = testing::RandomSynthVenue(seed);
    Rng rng(seed);
    std::vector<IndoorPoint> objects = synth::PlaceObjects(venue, 6, rng);
    const eng::VenueBundle bundle =
        eng::VenueBundle::Build(std::move(venue), std::move(objects));
    const std::string id = "venue-" + std::to_string(seed);
    const std::string snapshot = dir + "/" + id + ".vipsnap";
    ASSERT_TRUE(bundle.Save(snapshot).ok());
    ASSERT_TRUE(eng::VenueRegistry::UpsertManifestEntry(manifest, id,
                                                        id + ".vipsnap")
                    .ok());
    std::string error;
    references.push_back(eng::QueryEngine::TryLoad(snapshot, &error));
    ASSERT_NE(references.back(), nullptr) << error;
    ids.push_back(id);
  }

  // Answers must stay bit-identical to the direct loads.
  std::string error;
  std::optional<eng::VenueRegistry> registry =
      eng::VenueRegistry::Open(manifest, &error);
  ASSERT_TRUE(registry.has_value()) << error;

  eng::ServiceOptions options;
  options.num_threads = 2;
  eng::Service service(std::move(*registry), options);
  ASSERT_TRUE(service.multi_venue());
  service.Start();

  std::vector<eng::Ticket> tickets;
  std::vector<std::pair<size_t, eng::Query>> sent;  // (venue index, query)
  for (int round = 0; round < 8; ++round) {
    for (size_t v = 0; v < ids.size(); ++v) {
      const Venue& venue = references[v]->venue();
      Rng rng(100 + round * 2 + v);
      const IndoorPoint a = synth::RandomIndoorPoint(venue, rng);
      const IndoorPoint b = synth::RandomIndoorPoint(venue, rng);
      const eng::Query query = round % 2 == 0 ? eng::Query::Distance(a, b)
                                              : eng::Query::Knn(a, 2);
      eng::Request request;
      request.venue_id = ids[v];
      request.query = query;
      sent.emplace_back(v, query);
      tickets.push_back(service.Submit(std::move(request)));
    }
  }
  // An unknown venue fails cleanly without disturbing the stream.
  eng::Request unknown;
  unknown.venue_id = "venue-404";
  unknown.query = sent[0].second;
  eng::Ticket missing = service.Submit(std::move(unknown));

  service.Drain();
  for (size_t i = 0; i < tickets.size(); ++i) {
    const eng::Response& response = tickets[i].Wait();
    ASSERT_TRUE(response.ok()) << response.error;
    const eng::Result expected =
        references[sent[i].first]->Run(sent[i].second);
    EXPECT_EQ(response.result.distance, expected.distance) << "request " << i;
    ASSERT_EQ(response.result.objects.size(), expected.objects.size());
    for (size_t j = 0; j < expected.objects.size(); ++j) {
      EXPECT_EQ(response.result.objects[j].object, expected.objects[j].object);
      EXPECT_EQ(response.result.objects[j].distance,
                expected.objects[j].distance);
    }
  }
  EXPECT_EQ(missing.Wait().status, eng::RequestStatus::kVenueNotFound);

  const eng::ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.num_queries, tickets.size());
  EXPECT_EQ(stats.failed, 1u);
  ASSERT_EQ(stats.per_venue.size(), 3u);  // two venues + the unknown id
  EXPECT_EQ(stats.per_venue.at(ids[0]).completed, 8u);
  EXPECT_EQ(stats.per_venue.at(ids[1]).completed, 8u);
  EXPECT_EQ(stats.per_venue.at("venue-404").failed, 1u);
  service.Stop();

  for (const std::string& id : ids) {
    std::remove((dir + "/" + id + ".vipsnap").c_str());
  }
  std::remove(manifest.c_str());
  ::rmdir(dir.c_str());
}

// A venue keeps one bundle for the service's lifetime: an object moved on
// venue A stays where it was moved however much traffic venue B gets in
// between, and every Acquire of A hands out the same bundle.
TEST(ServiceRegistryTest, OneBundlePerVenueKeepsItsUpdatesAcrossTraffic) {
  const char* tmp = std::getenv("TMPDIR");
  if (tmp == nullptr || tmp[0] == '\0') tmp = "/tmp";
  const std::string dir = std::string(tmp) + "/viptree_service_keep_" +
                          std::to_string(::getpid());
  ::mkdir(dir.c_str(), 0755);
  const std::string manifest = dir + "/registry.txt";

  std::vector<std::string> ids;
  std::vector<Venue> venues;  // regenerated copies, for point sampling
  for (const uint64_t seed : {uint64_t{13}, uint64_t{17}}) {
    Venue venue = testing::RandomSynthVenue(seed);
    Rng rng(seed);
    std::vector<IndoorPoint> objects = synth::PlaceObjects(venue, 6, rng);
    const eng::VenueBundle bundle =
        eng::VenueBundle::Build(std::move(venue), std::move(objects));
    const std::string id = "venue-" + std::to_string(seed);
    ASSERT_TRUE(bundle.Save(dir + "/" + id + ".vipsnap").ok());
    ASSERT_TRUE(eng::VenueRegistry::UpsertManifestEntry(manifest, id,
                                                        id + ".vipsnap")
                    .ok());
    ids.push_back(id);
    venues.push_back(testing::RandomSynthVenue(seed));
  }

  std::string error;
  std::optional<eng::VenueRegistry> registry =
      eng::VenueRegistry::Open(manifest, &error);
  ASSERT_TRUE(registry.has_value()) << error;
  eng::ServiceOptions options;
  options.num_threads = 2;
  eng::Service service(std::move(*registry), options);
  service.Start();

  // Move object 0 of venue A onto the query point: the 1-NN of that point
  // is then object 0 at distance exactly 0.
  Rng rng(0x5A1E);
  const IndoorPoint probe = synth::RandomIndoorPoint(venues[0], rng);
  ObjectDelta move;
  move.moves.push_back({0, probe});
  const eng::Response moved =
      service.Submit(eng::Request::Update(ids[0], std::move(move))).Take();
  ASSERT_TRUE(moved.ok()) << moved.error;
  const std::shared_ptr<const eng::VenueBundle> a =
      service.registry().Acquire(ids[0], &error);
  ASSERT_NE(a, nullptr) << error;

  for (int round = 0; round < 6; ++round) {
    if (round > 0) {
      // Traffic to venue B between every query on A.
      std::vector<eng::Ticket> other;
      for (int i = 0; i < 4; ++i) {
        eng::Request request;
        request.venue_id = ids[1];
        request.query =
            eng::Query::Knn(synth::RandomIndoorPoint(venues[1], rng), 2);
        other.push_back(service.Submit(std::move(request)));
      }
      for (eng::Ticket& ticket : other) {
        ASSERT_TRUE(ticket.Wait().ok()) << ticket.Wait().error;
      }
    }
    eng::Request request;
    request.venue_id = ids[0];
    request.query = eng::Query::Knn(probe, 1);
    const eng::Response response = service.Submit(std::move(request)).Take();
    ASSERT_TRUE(response.ok()) << response.error;
    ASSERT_EQ(response.result.objects.size(), 1u);
    EXPECT_EQ(response.result.objects[0].object, 0u) << "round " << round;
    EXPECT_EQ(response.result.objects[0].distance, 0.0) << "round " << round;
    EXPECT_EQ(service.registry().Acquire(ids[0], &error).get(), a.get())
        << "round " << round;
  }
  EXPECT_EQ(service.registry().NumResident(), 2u);
  service.Stop();

  for (const std::string& id : ids) {
    std::remove((dir + "/" + id + ".vipsnap").c_str());
  }
  std::remove(manifest.c_str());
  ::rmdir(dir.c_str());
}

TEST(ServiceRegistryTest, UpdatesRouteToTheNamedVenueOnly) {
  const char* tmp = std::getenv("TMPDIR");
  if (tmp == nullptr || tmp[0] == '\0') tmp = "/tmp";
  const std::string dir = std::string(tmp) + "/viptree_service_upd_" +
                          std::to_string(::getpid());
  ::mkdir(dir.c_str(), 0755);
  const std::string manifest = dir + "/registry.txt";

  std::vector<std::string> ids;
  for (const uint64_t seed : {uint64_t{31}, uint64_t{37}}) {
    Venue venue = testing::RandomSynthVenue(seed);
    Rng rng(seed);
    std::vector<IndoorPoint> objects = synth::PlaceObjects(venue, 5, rng);
    const eng::VenueBundle bundle =
        eng::VenueBundle::Build(std::move(venue), std::move(objects));
    const std::string id = "venue-" + std::to_string(seed);
    ASSERT_TRUE(bundle.Save(dir + "/" + id + ".vipsnap").ok());
    ASSERT_TRUE(eng::VenueRegistry::UpsertManifestEntry(manifest, id,
                                                        id + ".vipsnap")
                    .ok());
    ids.push_back(id);
  }

  std::string error;
  std::optional<eng::VenueRegistry> registry =
      eng::VenueRegistry::Open(manifest, &error);
  ASSERT_TRUE(registry.has_value()) << error;
  eng::ServiceOptions options;
  options.num_threads = 2;
  eng::Service service(std::move(*registry), options);
  service.Start();

  // Three updates to venue 0, none to venue 1, one to a venue that does
  // not exist.
  std::vector<eng::Ticket> tickets;
  const std::shared_ptr<const eng::VenueBundle> target =
      service.registry().Acquire(ids[0], &error);
  ASSERT_NE(target, nullptr) << error;
  Rng rng(0x404);
  for (int i = 0; i < 3; ++i) {
    ObjectDelta delta;
    delta.moves.push_back(
        {static_cast<ObjectId>(i),
         synth::RandomIndoorPoint(target->venue(), rng)});
    tickets.push_back(
        service.Submit(eng::Request::Update(ids[0], std::move(delta))));
  }
  ObjectDelta stray;
  stray.moves.push_back({0, target->objects().objects()[0]});
  eng::Ticket missing =
      service.Submit(eng::Request::Update("venue-404", std::move(stray)));
  service.Drain();

  for (eng::Ticket& ticket : tickets) {
    ASSERT_TRUE(ticket.Wait().ok()) << ticket.Wait().error;
  }
  EXPECT_EQ(missing.Wait().status, eng::RequestStatus::kVenueNotFound);

  // The named venue advanced three epochs; the other stayed at 1.
  EXPECT_EQ(target->live_objects().epoch(), 4u);
  const std::shared_ptr<const eng::VenueBundle> untouched =
      service.registry().Acquire(ids[1], &error);
  ASSERT_NE(untouched, nullptr) << error;
  EXPECT_EQ(untouched->live_objects().epoch(), 1u);

  const eng::ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.updates, 3u);
  EXPECT_EQ(stats.per_venue.at(ids[0]).updated, 3u);
  EXPECT_EQ(stats.per_venue.count(ids[1]), 0u);
  EXPECT_EQ(stats.per_venue.at("venue-404").failed, 1u);
  service.Stop();

  for (const std::string& id : ids) {
    std::remove((dir + "/" + id + ".vipsnap").c_str());
  }
  std::remove(manifest.c_str());
  ::rmdir(dir.c_str());
}

// ---------------------------------------------------------------------------
// Differential sweep: Service answers must be bit-identical to the
// sequential reference across 24 seeded random venues.
// ---------------------------------------------------------------------------

class ServiceDifferentialTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ServiceDifferentialTest, SubmitMatchesRunSequential) {
  const uint64_t seed = GetParam();
  Venue venue = testing::RandomSynthVenue(seed);
  Rng rng(seed ^ 0x5E4C1CE);
  std::vector<IndoorPoint> objects = synth::PlaceObjects(venue, 8, rng);
  eng::EngineOptions options;
  options.object_keywords.resize(objects.size());
  for (size_t i = 0; i < objects.size(); ++i) {
    options.object_keywords[i] = {i % 2 == 0 ? "red" : "blue"};
  }
  const auto bundle = std::make_shared<const eng::VenueBundle>(
      eng::VenueBundle::Build(std::move(venue), std::move(objects),
                              std::move(options)));
  const eng::QueryEngine reference(bundle);

  std::vector<eng::Query> queries;
  for (int i = 0; i < 30; ++i) {
    const IndoorPoint a = synth::RandomIndoorPoint(bundle->venue(), rng);
    const IndoorPoint b = synth::RandomIndoorPoint(bundle->venue(), rng);
    switch (i % 5) {
      case 0: queries.push_back(eng::Query::Distance(a, b)); break;
      case 1: queries.push_back(eng::Query::Path(a, b)); break;
      case 2: queries.push_back(eng::Query::Knn(a, 3)); break;
      case 3: queries.push_back(eng::Query::Range(a, 90.0)); break;
      default:
        queries.push_back(eng::Query::BooleanKnn(a, 2, {"red"}));
        break;
    }
  }
  const std::vector<eng::Result> expected = reference.RunSequential(queries);

  eng::ServiceOptions service_options;
  service_options.num_threads = 3;
  // Identical deterministic code on identical inputs: exact equality,
  // regardless of which worker ran the query.
  testing::ExpectSameResults(
      expected, testing::ServeInOrder(bundle, service_options, queries),
      "seed " + std::to_string(seed));
}

INSTANTIATE_TEST_SUITE_P(Seeds, ServiceDifferentialTest,
                         ::testing::Range<uint64_t>(0, 24),
                         [](const ::testing::TestParamInfo<uint64_t>& info) {
                           return "seed" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace viptree
