// What does the network tier cost? The same mixed workload is answered
// three ways — in-process engine::Service, a loopback net::ShardServer
// through net::Client, and a net::Router fronting two shards — and each
// tier reports:
//
//   1. Closed-loop serial round trips: per-request p50/p99 (the loopback
//      overhead, read directly against the in-process row) and the serial
//      request rate.
//   2. Closed-loop pipelined throughput: a 64-deep window of in-flight
//      requests (SubmitBatch+Drain for the in-process tier).
//   3. Open-loop sojourn: arrivals paced at ~70% of the tier's measured
//      pipelined capacity, independent of completions; sojourn latency
//      (send -> response) p50/p99 and the achieved rate.
//
// After the table, each wire tier's event loops report what the
// pipelined phase cost them: frames queued per socket write (a loop
// writes each connection once per pass, so a burst shares one send())
// and wake-pipe wakeups per frame (a shard worker wakes its loop only
// when an idle outbox turns busy).
//
// VIPTREE_SCALE= / VIPTREE_QUERIES= shrink or grow the workload as with
// the figure benchmarks.

#include <sys/stat.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "common/stats.h"
#include "engine/service.h"
#include "engine/venue_registry.h"
#include "net/client.h"
#include "net/router.h"
#include "net/shard_server.h"
#include "synth/random_venue.h"

namespace viptree {
namespace bench {
namespace {

namespace eng = ::viptree::engine;

constexpr size_t kPipelineWindow = 64;

struct TierReport {
  Summary serial_micros;    // closed-loop round-trip latency
  double serial_rps = 0.0;  // closed-loop serial request rate
  double pipelined_rps = 0.0;
  Summary sojourn_micros;  // open-loop send -> response latency
  double offered_rps = 0.0;
  double achieved_rps = 0.0;
  size_t answered = 0;
  // Per serving loop, what the pipelined phase added to its counters.
  std::vector<net::LoopCounters> pipelined_loops;
};

// Reads one serving process's loop counters (a shard or the router).
using LoopReader = std::function<net::LoopCounters()>;

std::vector<net::LoopCounters> ReadLoops(const std::vector<LoopReader>& loops) {
  std::vector<net::LoopCounters> out;
  for (const LoopReader& read : loops) out.push_back(read());
  return out;
}

// ---------------------------------------------------------------------------
// In-process tier: the engine::Service the network layers wrap.
// ---------------------------------------------------------------------------

TierReport RunInProcess(eng::Service& service,
                        const std::vector<eng::Request>& requests) {
  TierReport report;

  // Serial round trips.
  {
    std::vector<double> micros;
    micros.reserve(requests.size());
    const Timer wall;
    for (const eng::Request& request : requests) {
      eng::Request copy = request;
      const Timer one;
      eng::Ticket ticket = service.Submit(std::move(copy));
      ticket.Wait();
      micros.push_back(one.ElapsedMicros());
    }
    report.serial_micros = Summarize(micros);
    const double s = wall.ElapsedSeconds();
    report.serial_rps = s > 0.0 ? requests.size() / s : 0.0;
  }

  // Pipelined: the batch path.
  {
    std::vector<eng::Request> batch = requests;
    const Timer wall;
    service.SubmitBatch(std::move(batch));
    service.Drain();
    const double s = wall.ElapsedSeconds();
    report.pipelined_rps = s > 0.0 ? requests.size() / s : 0.0;
  }

  // Open loop at ~70% of pipelined capacity.
  {
    const double rate = std::max(500.0, report.pipelined_rps * 0.7);
    const auto gap = std::chrono::duration_cast<eng::ServiceClock::duration>(
        std::chrono::duration<double>(1.0 / rate));
    std::mutex mu;
    std::vector<double> sojourn;
    sojourn.reserve(requests.size());
    const Timer wall;
    eng::ServiceClock::time_point arrival = eng::ServiceClock::now();
    for (const eng::Request& request : requests) {
      std::this_thread::sleep_until(arrival);
      const eng::ServiceClock::time_point sent = eng::ServiceClock::now();
      eng::Request copy = request;
      service.Submit(std::move(copy), [&mu, &sojourn, sent](
                                          const eng::Response& response) {
        if (!response.ok()) return;
        const double micros = std::chrono::duration<double, std::micro>(
                                  eng::ServiceClock::now() - sent)
                                  .count();
        std::lock_guard<std::mutex> lock(mu);
        sojourn.push_back(micros);
      });
      arrival += gap;
    }
    service.Drain();
    const double s = wall.ElapsedSeconds();
    report.sojourn_micros = Summarize(sojourn);
    report.offered_rps = rate;
    report.achieved_rps = s > 0.0 ? requests.size() / s : 0.0;
    report.answered = sojourn.size();
  }
  return report;
}

// ---------------------------------------------------------------------------
// Wire tiers: one blocking client against a shard or router endpoint.
// ---------------------------------------------------------------------------

std::unique_ptr<net::Client> MustConnect(const std::string& endpoint) {
  std::string error;
  std::unique_ptr<net::Client> client = net::Client::Connect(endpoint, &error);
  if (client == nullptr) {
    std::fprintf(stderr, "connect %s: %s\n", endpoint.c_str(), error.c_str());
    std::exit(1);
  }
  return client;
}

TierReport RunOverWire(const std::string& endpoint,
                       const std::vector<eng::Request>& requests,
                       const std::vector<LoopReader>& loops) {
  TierReport report;
  std::vector<net::WireRequest> wire;
  wire.reserve(requests.size());
  for (const eng::Request& request : requests) {
    wire.push_back(net::WireRequest::FromRequest(request, 0.0));
  }

  // Serial round trips (Call = send + blocking receive).
  {
    std::unique_ptr<net::Client> client = MustConnect(endpoint);
    std::vector<double> micros;
    micros.reserve(wire.size());
    const Timer wall;
    for (const net::WireRequest& request : wire) {
      net::WireResponse response;
      const Timer one;
      if (!client->Call(request, &response).ok()) {
        std::fprintf(stderr, "round trip failed against %s\n",
                     endpoint.c_str());
        std::exit(1);
      }
      micros.push_back(one.ElapsedMicros());
    }
    report.serial_micros = Summarize(micros);
    const double s = wall.ElapsedSeconds();
    report.serial_rps = s > 0.0 ? wire.size() / s : 0.0;
  }

  // Pipelined: keep a 64-deep window in flight on one connection.
  {
    std::unique_ptr<net::Client> client = MustConnect(endpoint);
    size_t sent = 0, done = 0;
    const std::vector<net::LoopCounters> before = ReadLoops(loops);
    const Timer wall;
    while (done < wire.size()) {
      while (sent < wire.size() && sent - done < kPipelineWindow) {
        if (!client->Send(wire[sent], sent + 1).ok()) std::exit(1);
        ++sent;
      }
      net::WireResponse response;
      uint64_t tag = 0;
      if (!client->Receive(&response, &tag, 30000.0).ok()) {
        std::fprintf(stderr, "pipelined receive failed against %s\n",
                     endpoint.c_str());
        std::exit(1);
      }
      ++done;
    }
    const double s = wall.ElapsedSeconds();
    report.pipelined_rps = s > 0.0 ? wire.size() / s : 0.0;
    report.pipelined_loops = ReadLoops(loops);
    for (size_t i = 0; i < loops.size(); ++i) {
      net::LoopCounters& after = report.pipelined_loops[i];
      after.frames_queued -= before[i].frames_queued;
      after.accepted_writes -= before[i].accepted_writes;
      after.dialed_writes -= before[i].dialed_writes;
      after.wakeups -= before[i].wakeups;
    }
  }

  // Open loop: sends paced at ~70% of pipelined capacity; between
  // arrivals the driver drains whatever responses are ready (a blocking
  // client can still be an open-loop driver — the receive timeout is the
  // time until the next scheduled send).
  {
    std::unique_ptr<net::Client> client = MustConnect(endpoint);
    const double rate = std::max(500.0, report.pipelined_rps * 0.7);
    const auto gap = std::chrono::duration_cast<eng::ServiceClock::duration>(
        std::chrono::duration<double>(1.0 / rate));
    std::vector<eng::ServiceClock::time_point> sent_at(wire.size());
    std::vector<double> sojourn;
    sojourn.reserve(wire.size());
    const Timer wall;
    eng::ServiceClock::time_point arrival = eng::ServiceClock::now();
    size_t received = 0;
    const auto record = [&](uint64_t tag) {
      const double micros = std::chrono::duration<double, std::micro>(
                                eng::ServiceClock::now() - sent_at[tag - 1])
                                .count();
      sojourn.push_back(micros);
      ++received;
    };
    for (size_t i = 0; i < wire.size(); ++i) {
      std::this_thread::sleep_until(arrival);
      sent_at[i] = eng::ServiceClock::now();
      if (!client->Send(wire[i], i + 1).ok()) std::exit(1);
      arrival += gap;
      while (true) {
        const double left_ms =
            std::chrono::duration<double, std::milli>(
                arrival - eng::ServiceClock::now())
                .count();
        if (left_ms < 0.05) break;
        net::WireResponse response;
        uint64_t tag = 0;
        if (!client->Receive(&response, &tag, left_ms).ok()) break;
        record(tag);
      }
    }
    while (received < wire.size()) {
      net::WireResponse response;
      uint64_t tag = 0;
      if (!client->Receive(&response, &tag, 30000.0).ok()) break;
      record(tag);
    }
    const double s = wall.ElapsedSeconds();
    report.sojourn_micros = Summarize(sojourn);
    report.offered_rps = rate;
    report.achieved_rps = s > 0.0 ? received / s : 0.0;
    report.answered = received;
  }
  return report;
}

void PrintLoop(const char* name, const net::LoopCounters& c) {
  const uint64_t writes = c.accepted_writes + c.dialed_writes;
  std::printf("%-14s %8lu frames %7lu writes (%lu accepted, %lu dialed) "
              "%6.2f frames/write %6.3f wakeups/frame\n",
              name, static_cast<unsigned long>(c.frames_queued),
              static_cast<unsigned long>(writes),
              static_cast<unsigned long>(c.accepted_writes),
              static_cast<unsigned long>(c.dialed_writes),
              writes > 0 ? double(c.frames_queued) / writes : 0.0,
              c.frames_queued > 0 ? double(c.wakeups) / c.frames_queued
                                  : 0.0);
}

void PrintTier(const char* name, const TierReport& r) {
  std::printf("%-12s %10.1f %10.1f %9.0f %12.0f %10.1f %10.1f %10.0f\n",
              name, r.serial_micros.p50, r.serial_micros.p99, r.serial_rps,
              r.pipelined_rps, r.sojourn_micros.p50, r.sojourn_micros.p99,
              r.achieved_rps);
}

int Main() {
  // Stage two venues behind a manifest — every tier (and every shard)
  // opens its own registry, so each starts from identical state.
  const char* tmp = std::getenv("TMPDIR");
  if (tmp == nullptr || tmp[0] == '\0') tmp = "/tmp";
  const std::string dir = std::string(tmp) + "/viptree_bench_net_" +
                          std::to_string(::getpid());
  ::mkdir(dir.c_str(), 0755);
  const std::string manifest = dir + "/registry.txt";

  const size_t n = NumQueries() * 2;
  std::vector<std::string> venue_ids;
  std::vector<std::vector<eng::Query>> pools;
  for (const uint64_t seed : {uint64_t{40}, uint64_t{42}}) {
    Venue venue = synth::RandomVenue(seed);
    Rng rng(seed);
    std::vector<IndoorPoint> objects = synth::PlaceObjects(venue, 16, rng);
    pools.push_back(MixedEngineWorkload(venue, 0xBEEF0 + seed, n, false));
    const eng::VenueBundle bundle =
        eng::VenueBundle::Build(std::move(venue), std::move(objects));
    const std::string id = "venue-" + std::to_string(seed);
    if (!bundle.Save(dir + "/" + id + ".vipsnap").ok() ||
        !eng::VenueRegistry::UpsertManifestEntry(manifest, id,
                                                 id + ".vipsnap")
             .ok()) {
      std::fprintf(stderr, "cannot stage bench registry in %s\n", dir.c_str());
      return 1;
    }
    venue_ids.push_back(id);
  }

  // Round-robin the venues so the router tier genuinely splits the load
  // (venue-40 and venue-42 rendezvous-hash to different shards).
  std::vector<eng::Request> requests;
  requests.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    eng::Request request;
    request.venue_id = venue_ids[i % venue_ids.size()];
    request.query = pools[i % venue_ids.size()][i / venue_ids.size()];
    requests.push_back(std::move(request));
  }
  std::printf("workload: %zu mixed queries over %zu venues\n\n", n,
              venue_ids.size());

  const auto open_registry = [&]() {
    std::string error;
    std::optional<eng::VenueRegistry> registry =
        eng::VenueRegistry::Open(manifest, &error);
    if (!registry.has_value()) {
      std::fprintf(stderr, "error: %s\n", error.c_str());
      std::exit(1);
    }
    return std::move(*registry);
  };

  std::printf("%-12s %10s %10s %9s %12s %10s %10s %10s\n", "tier",
              "ser p50us", "ser p99us", "serial/s", "pipelined/s",
              "soj p50us", "soj p99us", "openloop/s");

  TierReport in_process;
  {
    eng::ServiceOptions options;
    options.num_threads = 2;
    options.queue_capacity = n;
    eng::Service service(open_registry(), options);
    service.Start();
    in_process = RunInProcess(service, requests);
    PrintTier("in-process", in_process);
    service.Stop();
  }

  TierReport direct;
  {
    net::ShardServerOptions options;
    options.service.num_threads = 2;
    options.service.queue_capacity = n;
    net::ShardServer shard(open_registry(), options);
    if (!shard.Start().ok()) {
      std::fprintf(stderr, "shard start failed\n");
      return 1;
    }
    direct = RunOverWire(":" + std::to_string(shard.port()), requests,
                         {[&] { return shard.loop_counters(); }});
    PrintTier("shard", direct);
    shard.Stop();
  }

  TierReport routed;
  {
    net::ShardServerOptions options;
    options.service.num_threads = 2;
    options.service.queue_capacity = n;
    net::ShardServer shard_a(open_registry(), options);
    net::ShardServer shard_b(open_registry(), options);
    if (!shard_a.Start().ok() || !shard_b.Start().ok()) {
      std::fprintf(stderr, "shard start failed\n");
      return 1;
    }
    net::Router router({"127.0.0.1:" + std::to_string(shard_a.port()),
                        "127.0.0.1:" + std::to_string(shard_b.port())},
                       venue_ids, {});
    if (!router.Start().ok()) {
      std::fprintf(stderr, "router start failed\n");
      return 1;
    }
    routed = RunOverWire(":" + std::to_string(router.port()), requests,
                         {[&] { return router.counters().loop; },
                          [&] { return shard_a.loop_counters(); },
                          [&] { return shard_b.loop_counters(); }});
    PrintTier("router", routed);
    router.Stop();
    shard_a.Stop();
    shard_b.Stop();
  }

  std::printf("\nloopback overhead (serial p50 vs in-process): shard +%.1f "
              "us, router +%.1f us\n",
              direct.serial_micros.p50 - in_process.serial_micros.p50,
              routed.serial_micros.p50 - in_process.serial_micros.p50);

  std::printf("\npipelined event-loop counters:\n");
  PrintLoop("shard tier", direct.pipelined_loops[0]);
  PrintLoop("router", routed.pipelined_loops[0]);
  PrintLoop("  its shard a", routed.pipelined_loops[1]);
  PrintLoop("  its shard b", routed.pipelined_loops[2]);

  for (const std::string& id : venue_ids) {
    std::remove((dir + "/" + id + ".vipsnap").c_str());
  }
  std::remove(manifest.c_str());
  ::rmdir(dir.c_str());
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace viptree

int main() { return viptree::bench::Main(); }
