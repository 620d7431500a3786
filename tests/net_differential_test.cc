// The network tier's end-to-end correctness sweep: the same mixed
// query/update workload run through (a) the in-process engine::Service,
// (b) a loopback net::ShardServer, and (c) a net::Router fronting two
// shards must answer bit-identically — the wire protocol, the shard
// server, and the router add transport, never semantics. Plus the
// operational paths: kill-a-shard failover re-routes to the surviving
// shard, a router with no healthy shard rejects cleanly, a draining router
// answers every request it forwarded before closing, and garbage on one
// router client connection poisons only that connection.

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/stat.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "engine/service.h"
#include "engine/venue_registry.h"
#include "ground_truth.h"
#include "net/client.h"
#include "net/router.h"
#include "net/shard_server.h"
#include "net/socket.h"
#include "synth/objects.h"

namespace viptree {
namespace {

namespace eng = ::viptree::engine;

// A comparable response: everything semantic, nothing temporal.
struct Outcome {
  eng::RequestStatus status = eng::RequestStatus::kOk;
  double distance = 0.0;
  std::vector<DoorId> doors;
  std::vector<ObjectResult> objects;
  uint64_t visited_nodes = 0;
};

Outcome OutcomeOf(const eng::Response& response) {
  return Outcome{response.status, response.result.distance,
                 response.result.doors, response.result.objects,
                 response.result.visited_nodes};
}

Outcome OutcomeOf(const net::WireResponse& response) {
  return Outcome{response.status, response.result.distance,
                 response.result.doors, response.result.objects,
                 response.result.visited_nodes};
}

void ExpectSameOutcome(const Outcome& a, const Outcome& b, uint64_t seed,
                       size_t i, const char* what) {
  EXPECT_EQ(a.status, b.status) << what << " seed " << seed << " req " << i;
  EXPECT_EQ(a.distance, b.distance) << what << " seed " << seed << " req "
                                    << i;
  EXPECT_EQ(a.doors, b.doors) << what << " seed " << seed << " req " << i;
  ASSERT_EQ(a.objects.size(), b.objects.size())
      << what << " seed " << seed << " req " << i;
  for (size_t j = 0; j < a.objects.size(); ++j) {
    EXPECT_EQ(a.objects[j].object, b.objects[j].object) << what;
    EXPECT_EQ(a.objects[j].distance, b.objects[j].distance) << what;
  }
  EXPECT_EQ(a.visited_nodes, b.visited_nodes)
      << what << " seed " << seed << " req " << i;
}

// Two venues on disk behind a manifest — the fixture every pass (and every
// shard) re-opens so each starts from identical pristine object state.
class NetDifferentialTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    const char* tmp = ::getenv("TMPDIR");
    if (tmp == nullptr || tmp[0] == '\0') tmp = "/tmp";
    dir_ = new std::string(std::string(tmp) + "/viptree_net_diff_" +
                           std::to_string(::getpid()));
    ::mkdir(dir_->c_str(), 0755);
    manifest_ = new std::string(*dir_ + "/registry.txt");
    ids_ = new std::vector<std::string>();
    venues_ = new std::vector<Venue>();
    object_counts_ = new std::vector<size_t>();

    // venue-40 and venue-42 rendezvous-hash to different shards in a
    // 2-shard fleet, so the router passes genuinely split the workload.
    for (const uint64_t seed : {uint64_t{40}, uint64_t{42}}) {
      Venue venue = testing::RandomSynthVenue(seed);
      Rng rng(seed);
      std::vector<IndoorPoint> objects = synth::PlaceObjects(venue, 10, rng);
      eng::EngineOptions options;
      options.object_keywords.assign(objects.size(), {"poi"});
      // Venue is move-only; regenerate (deterministic) for point sampling.
      venues_->push_back(testing::RandomSynthVenue(seed));
      object_counts_->push_back(objects.size());
      const eng::VenueBundle bundle = eng::VenueBundle::Build(
          std::move(venue), std::move(objects), std::move(options));
      const std::string id = "venue-" + std::to_string(seed);
      ASSERT_TRUE(bundle.Save(*dir_ + "/" + id + ".vipsnap").ok());
      ASSERT_TRUE(eng::VenueRegistry::UpsertManifestEntry(*manifest_, id,
                                                          id + ".vipsnap")
                      .ok());
      ids_->push_back(id);
    }
  }

  static void TearDownTestSuite() {
    for (const std::string& id : *ids_) {
      std::remove((*dir_ + "/" + id + ".vipsnap").c_str());
    }
    std::remove(manifest_->c_str());
    ::rmdir(dir_->c_str());
    delete dir_;
    delete manifest_;
    delete ids_;
    delete venues_;
    delete object_counts_;
  }

  static eng::VenueRegistry OpenRegistry() {
    std::string error;
    std::optional<eng::VenueRegistry> registry =
        eng::VenueRegistry::Open(*manifest_, &error);
    EXPECT_TRUE(registry.has_value()) << error;
    return std::move(*registry);
  }

  // A deterministic mixed workload across both venues: all five query
  // types plus interleaved live-object updates (moves and keyworded adds —
  // shapes that stay valid under any per-venue state).
  static std::vector<eng::Request> MakeWorkload(uint64_t seed, size_t count) {
    Rng rng(seed * 7919 + 1);
    std::vector<eng::Request> requests;
    requests.reserve(count);
    for (size_t i = 0; i < count; ++i) {
      const size_t v = rng.UniformIndex(ids_->size());
      const Venue& venue = (*venues_)[v];
      const IndoorPoint a = synth::RandomIndoorPoint(venue, rng);
      const IndoorPoint b = synth::RandomIndoorPoint(venue, rng);
      eng::Request request;
      request.venue_id = (*ids_)[v];
      switch (i % 7) {
        case 0: request.query = eng::Query::Distance(a, b); break;
        case 1: request.query = eng::Query::Path(a, b); break;
        case 2: request.query = eng::Query::Knn(a, 4); break;
        case 3: request.query = eng::Query::Range(a, 150.0); break;
        case 4: request.query = eng::Query::BooleanKnn(a, 3, {"poi"}); break;
        case 5: request.query = eng::Query::Distance(a, b); break;
        default: {
          ObjectDelta delta;
          if (rng.Chance(0.7)) {
            delta.moves.push_back(
                {static_cast<ObjectId>(rng.UniformIndex((*object_counts_)[v])),
                 synth::RandomIndoorPoint(venue, rng)});
          } else {
            ObjectDelta::Add add;
            add.at = synth::RandomIndoorPoint(venue, rng);
            add.keywords = {"poi"};
            delta.adds.push_back(std::move(add));
          }
          request = eng::Request::Update((*ids_)[v], std::move(delta));
          break;
        }
      }
      requests.push_back(std::move(request));
    }
    return requests;
  }

  // Pass (a): the in-process reference. One worker, serial submission —
  // the deterministic baseline the wire paths must reproduce exactly.
  static std::vector<Outcome> RunInProcess(
      const std::vector<eng::Request>& requests) {
    eng::ServiceOptions options;
    options.num_threads = 1;
    eng::Service service(OpenRegistry(), options);
    service.Start();
    std::vector<Outcome> outcomes;
    outcomes.reserve(requests.size());
    for (const eng::Request& request : requests) {
      eng::Request copy = request;
      eng::Ticket ticket = service.Submit(std::move(copy));
      outcomes.push_back(OutcomeOf(ticket.Wait()));
    }
    service.Drain();
    service.Stop();
    return outcomes;
  }

  // Serial request/response ping-pong through one client connection.
  static std::vector<Outcome> RunThroughEndpoint(
      const std::string& endpoint, const std::vector<eng::Request>& requests) {
    std::string error;
    std::unique_ptr<net::Client> client =
        net::Client::Connect(endpoint, &error);
    EXPECT_NE(client, nullptr) << error;
    std::vector<Outcome> outcomes;
    if (client == nullptr) return outcomes;
    outcomes.reserve(requests.size());
    for (const eng::Request& request : requests) {
      const net::WireRequest wire = net::WireRequest::FromRequest(request, 0.0);
      net::WireResponse response;
      const io::Status status = client->Call(wire, &response);
      EXPECT_TRUE(status.ok()) << status.error;
      outcomes.push_back(OutcomeOf(response));
    }
    return outcomes;
  }

  static std::string* dir_;
  static std::string* manifest_;
  static std::vector<std::string>* ids_;
  static std::vector<Venue>* venues_;
  static std::vector<size_t>* object_counts_;
};

std::string* NetDifferentialTest::dir_ = nullptr;
std::string* NetDifferentialTest::manifest_ = nullptr;
std::vector<std::string>* NetDifferentialTest::ids_ = nullptr;
std::vector<Venue>* NetDifferentialTest::venues_ = nullptr;
std::vector<size_t>* NetDifferentialTest::object_counts_ = nullptr;

TEST_F(NetDifferentialTest, LoopbackShardAndRouterMatchInProcessBitForBit) {
  for (uint64_t seed = 1; seed <= 24; ++seed) {
    const std::vector<eng::Request> requests = MakeWorkload(seed, 35);
    const std::vector<Outcome> baseline = RunInProcess(requests);
    ASSERT_EQ(baseline.size(), requests.size());

    // Pass (b): one loopback shard.
    {
      net::ShardServerOptions options;
      options.service.num_threads = 1;
      net::ShardServer shard(OpenRegistry(), options);
      ASSERT_TRUE(shard.Start().ok());
      const std::vector<Outcome> outcomes = RunThroughEndpoint(
          ":" + std::to_string(shard.port()), requests);
      ASSERT_EQ(outcomes.size(), requests.size());
      for (size_t i = 0; i < outcomes.size(); ++i) {
        ExpectSameOutcome(baseline[i], outcomes[i], seed, i, "shard");
      }
      shard.Stop();
    }

    // Pass (c): a router fronting two shards, each serving the full
    // manifest (assignment is locality, not correctness).
    {
      net::ShardServerOptions options;
      options.service.num_threads = 1;
      net::ShardServer shard_a(OpenRegistry(), options);
      net::ShardServer shard_b(OpenRegistry(), options);
      ASSERT_TRUE(shard_a.Start().ok());
      ASSERT_TRUE(shard_b.Start().ok());
      net::RouterOptions router_options;
      router_options.probe_interval_ms = 50.0;
      net::Router router(
          {"127.0.0.1:" + std::to_string(shard_a.port()),
           "127.0.0.1:" + std::to_string(shard_b.port())},
          *ids_, router_options);
      ASSERT_TRUE(router.Start().ok());
      const std::vector<Outcome> outcomes = RunThroughEndpoint(
          ":" + std::to_string(router.port()), requests);
      ASSERT_EQ(outcomes.size(), requests.size());
      for (size_t i = 0; i < outcomes.size(); ++i) {
        ExpectSameOutcome(baseline[i], outcomes[i], seed, i, "router");
      }
      // Both venues exist, so requests must actually have been split
      // across the fleet by the rendezvous assignment.
      EXPECT_NE(router.ShardForVenue((*ids_)[0]),
                router.ShardForVenue((*ids_)[1]))
          << "assignment degenerated to one shard; workload no longer "
             "exercises the fleet";
      router.Stop();
      shard_a.Stop();
      shard_b.Stop();
    }
  }
}

TEST_F(NetDifferentialTest, KilledShardFailsOverToTheSurvivor) {
  net::ShardServerOptions shard_options;
  shard_options.service.num_threads = 1;
  auto shard_a = std::make_unique<net::ShardServer>(OpenRegistry(),
                                                    shard_options);
  auto shard_b = std::make_unique<net::ShardServer>(OpenRegistry(),
                                                    shard_options);
  ASSERT_TRUE(shard_a->Start().ok());
  ASSERT_TRUE(shard_b->Start().ok());

  net::RouterOptions router_options;
  router_options.probe_interval_ms = 25.0;  // fast reconnect attempts
  net::Router router({"127.0.0.1:" + std::to_string(shard_a->port()),
                      "127.0.0.1:" + std::to_string(shard_b->port())},
                     *ids_, router_options);
  ASSERT_TRUE(router.Start().ok());

  std::string error;
  std::unique_ptr<net::Client> client = net::Client::Connect(
      ":" + std::to_string(router.port()), &error);
  ASSERT_NE(client, nullptr) << error;

  // Pick the venue owned by shard 0, verify it answers, then kill shard 0.
  const std::string victim_venue =
      router.ShardForVenue((*ids_)[0]) == 0 ? (*ids_)[0] : (*ids_)[1];
  Rng rng(99);
  const auto make_request = [&]() {
    eng::Request request;
    request.venue_id = victim_venue;
    request.query = eng::Query::Knn(
        synth::RandomIndoorPoint((*venues_)[victim_venue == (*ids_)[0] ? 0 : 1],
                                 rng),
        3);
    return net::WireRequest::FromRequest(request, 0.0);
  };

  net::WireResponse response;
  ASSERT_TRUE(client->Call(make_request(), &response).ok());
  EXPECT_TRUE(response.ok()) << response.error;

  // "SIGKILL": the shard process vanishes — sockets reset, listener gone.
  shard_a->Stop();
  shard_a.reset();

  // Every subsequent request must still be answered (re-routed to the
  // survivor), within the failover the router promises: TCP errors are
  // instant, so the very next call already works.
  for (int i = 0; i < 10; ++i) {
    net::WireResponse after;
    const io::Status status = client->Call(make_request(), &after);
    ASSERT_TRUE(status.ok()) << status.error;
    EXPECT_TRUE(after.ok()) << i << ": " << after.error;
  }
  EXPECT_GE(router.counters().shard_disconnects, 1u);

  // Health converges to one healthy shard (the probe tick notices).
  net::WireHealth health;
  ASSERT_TRUE(client->Health(&health).ok());
  EXPECT_EQ(health.ready, 1);

  router.Stop();
  shard_b->Stop();
}

TEST_F(NetDifferentialTest, NoHealthyShardRejectsCleanly) {
  // Nothing listens on the shard endpoint: every request is answered with
  // a clean kRejected, never a hang or a dropped connection.
  net::RouterOptions options;
  options.probe_interval_ms = 25.0;
  options.connect_timeout_ms = 100.0;
  net::Router router({"127.0.0.1:1"}, *ids_, options);
  ASSERT_TRUE(router.Start().ok());

  std::string error;
  std::unique_ptr<net::Client> client = net::Client::Connect(
      ":" + std::to_string(router.port()), &error);
  ASSERT_NE(client, nullptr) << error;

  Rng rng(7);
  eng::Request request;
  request.venue_id = (*ids_)[0];
  request.query =
      eng::Query::Knn(synth::RandomIndoorPoint((*venues_)[0], rng), 2);
  net::WireResponse response;
  ASSERT_TRUE(
      client->Call(net::WireRequest::FromRequest(request, 0.0), &response)
          .ok());
  EXPECT_EQ(response.status, eng::RequestStatus::kRejected);
  EXPECT_FALSE(response.error.empty());
  EXPECT_EQ(router.healthy_shards(), 0u);
  EXPECT_GE(router.counters().no_shard_rejections, 1u);

  router.Stop();
}

TEST_F(NetDifferentialTest, RouterDrainAnswersEveryForwardedRequest) {
  net::ShardServerOptions shard_options;
  shard_options.service.num_threads = 1;
  net::ShardServer shard(OpenRegistry(), shard_options);
  ASSERT_TRUE(shard.Start().ok());
  net::RouterOptions router_options;
  router_options.probe_interval_ms = 25.0;
  net::Router router({"127.0.0.1:" + std::to_string(shard.port())}, *ids_,
                     router_options);
  ASSERT_TRUE(router.Start().ok());
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (router.healthy_shards() < 1) {
    ASSERT_LT(std::chrono::steady_clock::now(), give_up);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  std::string error;
  std::unique_ptr<net::Client> client = net::Client::Connect(
      ":" + std::to_string(router.port()), &error);
  ASSERT_NE(client, nullptr) << error;

  // Path queries keep the one shard worker busy, so most of the pipeline
  // is still in flight behind the router when the drain starts.
  constexpr uint64_t kCount = 48;
  Rng rng(17);
  for (uint64_t i = 0; i < kCount; ++i) {
    eng::Request request;
    request.venue_id = (*ids_)[i % ids_->size()];
    const Venue& venue = (*venues_)[i % ids_->size()];
    request.query = eng::Query::Path(synth::RandomIndoorPoint(venue, rng),
                                     synth::RandomIndoorPoint(venue, rng));
    ASSERT_TRUE(
        client->Send(net::WireRequest::FromRequest(request, 0.0), i).ok());
  }
  // Drain only once the router has read and forwarded every request: a
  // draining router stops reading, so anything it had not read yet would
  // legitimately go unanswered.
  while (router.counters().requests_forwarded < kCount) {
    ASSERT_LT(std::chrono::steady_clock::now(), give_up);
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  router.RequestDrain();

  std::vector<bool> seen(kCount, false);
  for (uint64_t i = 0; i < kCount; ++i) {
    net::WireResponse response;
    uint64_t tag = 0;
    const io::Status status = client->Receive(&response, &tag, 30000.0);
    ASSERT_TRUE(status.ok()) << "answer " << i << ": " << status.error;
    ASSERT_LT(tag, kCount);
    EXPECT_FALSE(seen[tag]);
    seen[tag] = true;
    EXPECT_TRUE(response.ok()) << response.error;
  }
  // Everything answered: the router closes the connection and exits.
  net::WireResponse extra;
  uint64_t extra_tag = 0;
  EXPECT_FALSE(client->Receive(&extra, &extra_tag, 30000.0).ok());
  router.Wait();
  EXPECT_EQ(router.counters().responses_returned, kCount);
  router.Stop();
  shard.Stop();
}

TEST_F(NetDifferentialTest, RouterGarbageBytesPoisonOnlyThatClient) {
  net::ShardServerOptions shard_options;
  shard_options.service.num_threads = 1;
  net::ShardServer shard(OpenRegistry(), shard_options);
  ASSERT_TRUE(shard.Start().ok());
  net::RouterOptions router_options;
  router_options.probe_interval_ms = 25.0;
  net::Router router({"127.0.0.1:" + std::to_string(shard.port())}, *ids_,
                     router_options);
  ASSERT_TRUE(router.Start().ok());
  const std::string endpoint = ":" + std::to_string(router.port());

  Rng rng(23);
  const auto knn = [&]() {
    eng::Request request;
    request.venue_id = (*ids_)[0];
    request.query =
        eng::Query::Knn(synth::RandomIndoorPoint((*venues_)[0], rng), 3);
    return net::WireRequest::FromRequest(request, 0.0);
  };

  std::string error;
  std::unique_ptr<net::Client> good = net::Client::Connect(endpoint, &error);
  ASSERT_NE(good, nullptr) << error;
  net::WireResponse response;
  ASSERT_TRUE(good->Call(knn(), &response).ok());
  EXPECT_TRUE(response.ok()) << response.error;

  net::Socket bad;
  ASSERT_TRUE(net::ConnectTcp(endpoint, 5000.0, &bad).ok());
  std::vector<uint8_t> garbage(200);
  for (uint8_t& b : garbage) b = static_cast<uint8_t>(rng.UniformIndex(256));
  garbage[0] = 0x00;  // never the real magic
  ASSERT_EQ(::send(bad.fd(), garbage.data(), garbage.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(garbage.size()));

  // The router answers that connection with a kError frame, then closes it.
  net::FrameDecoder decoder;
  uint8_t chunk[1024];
  bool got_error_frame = false;
  while (true) {
    const ssize_t n = ::recv(bad.fd(), chunk, sizeof(chunk), 0);
    if (n <= 0) break;
    decoder.Feed(chunk, static_cast<size_t>(n));
    while (std::optional<net::Frame> frame = decoder.Next()) {
      if (frame->type == net::FrameType::kError) got_error_frame = true;
    }
  }
  EXPECT_TRUE(got_error_frame);
  EXPECT_GE(router.counters().protocol_errors, 1u);

  // The other client's connection keeps being served.
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(good->Call(knn(), &response).ok());
    EXPECT_TRUE(response.ok()) << response.error;
  }
  router.Stop();
  shard.Stop();
}

}  // namespace
}  // namespace viptree
