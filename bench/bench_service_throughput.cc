// Throughput and latency of the async serving front-end (engine/service.h).
//
// Not a paper figure — this measures the serving layer. Two phases:
//
//   1. Closed-loop thread scaling, single venue: a mixed workload
//      (shortest distance / path / kNN / range / boolean keyword) over
//      Men-2, fed to a fresh resident Service at 1 / 2 / 4 / 8 workers
//      via SubmitBatch + Drain. Prints wall time, queries/sec, speedup
//      over one worker, and the per-query execution latency (p50/p95)
//      from Stats().
//
//   2. Open-loop arrival across 1 / 2 / 4 venues: snapshots are written to
//      a temp registry, a multi-venue Service routes a paced request
//      stream (arrivals at ~70% of measured capacity, independent of
//      completions — the "requests arrive whether you are ready or not"
//      regime), and the sojourn latency (arrival -> callback) p50/p99 is
//      reported along with sustained qps and the per-venue counters.
//
//   VIPTREE_SCALE= / VIPTREE_QUERIES= shrink or grow the workload as with
//   the figure benchmarks.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <sys/stat.h>
#include <unistd.h>

#include "bench_common.h"
#include "engine/service.h"
#include "synth/random_venue.h"

namespace viptree {
namespace bench {
namespace {

namespace eng = ::viptree::engine;

// Closed-loop qps of SubmitBatch + Drain on a resident service.
double ServiceClosedLoopQps(eng::Service& service,
                            const std::vector<eng::Query>& queries,
                            const std::vector<std::string>& venue_ids) {
  std::vector<eng::Request> requests;
  requests.reserve(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    eng::Request request;
    request.venue_id = venue_ids[i % venue_ids.size()];
    request.query = queries[i];
    request.tag = i;
    requests.push_back(std::move(request));
  }
  const Timer wall;
  service.SubmitBatch(std::move(requests));
  service.Drain();
  const double wall_s = wall.ElapsedSeconds();
  return wall_s > 0.0 ? queries.size() / wall_s : 0.0;
}

int Main() {
  // -------------------------------------------------------------------
  // Phase 1: closed-loop thread scaling on the Men-2 venue.
  // -------------------------------------------------------------------
  const synth::Dataset dataset = synth::Dataset::kMen2;
  DatasetBundle& data = GetDataset(dataset);
  const size_t cores = std::thread::hardware_concurrency();
  std::printf("venue %s: %zu partitions, %zu doors (%zu hardware threads)\n",
              data.info.name.c_str(), data.venue.NumPartitions(),
              data.venue.NumDoors(), cores);

  const std::vector<IndoorPoint> facilities = Objects(dataset, 50);
  std::vector<std::vector<std::string>> keywords(facilities.size());
  for (size_t i = 0; i < facilities.size(); ++i) {
    keywords[i] = {i % 2 == 0 ? std::string("atm") : std::string("kiosk")};
  }
  eng::EngineOptions options;
  options.object_keywords = keywords;
  const auto bundle = std::make_shared<const eng::VenueBundle>(
      eng::VenueBundle::BuildFrom(data.venue, data.graph, facilities,
                                  options));
  const std::vector<eng::Query> workload =
      MixedEngineWorkload(data.venue, 0xBA7C4, NumQueries() * 8, true);
  std::printf("workload: %zu mixed queries (40%% SD, 20%% SP, 20%% kNN, "
              "10%% range, 10%% boolean kNN)\n\n",
              workload.size());

  std::printf("%8s %12s %12s %9s %10s %10s\n", "workers", "wall ms",
              "queries/s", "speedup", "p50 us", "p95 us");
  const std::vector<std::string> single{std::string()};
  double base_qps = 0.0;
  double speedup4 = 0.0;
  for (const size_t threads : {1u, 2u, 4u, 8u}) {
    eng::ServiceOptions service_options;
    service_options.num_threads = threads;
    service_options.queue_capacity = workload.size();
    eng::Service service(bundle, service_options);
    service.Start();
    const double qps = ServiceClosedLoopQps(service, workload, single);
    const eng::ServiceStats stats = service.Stats();
    service.Stop();
    if (threads == 1) base_qps = qps;
    const double speedup = base_qps > 0.0 ? qps / base_qps : 0.0;
    if (threads == 4) speedup4 = speedup;
    std::printf("%8zu %12.2f %12.0f %8.2fx %10.2f %10.2f\n", threads,
                qps > 0.0 ? 1000.0 * workload.size() / qps : 0.0, qps,
                speedup, stats.latency_micros.p50, stats.latency_micros.p95);
  }
  // Wall-clock scaling needs more than one hardware thread; on a 1-core
  // host only the per-query overhead above is meaningful.
  std::printf("\n4-worker speedup: %.2fx on %zu hardware thread(s) %s\n\n",
              speedup4, cores,
              speedup4 > 1.5 ? "(>1.5x target met)" : "(below 1.5x target)");

  // -------------------------------------------------------------------
  // Phase 2: open-loop arrival across 1 / 2 / 4 venues via a registry.
  // -------------------------------------------------------------------
  const char* tmp = std::getenv("TMPDIR");
  if (tmp == nullptr || tmp[0] == '\0') tmp = "/tmp";
  const std::string dir = std::string(tmp) + "/viptree_bench_service_" +
                          std::to_string(::getpid());
  ::mkdir(dir.c_str(), 0755);
  const std::string manifest = dir + "/registry.txt";

  const size_t open_loop_n = NumQueries() * 4;
  std::vector<std::string> venue_ids;
  // Per-venue query pools, generated while the venue is still in hand
  // (Venue is move-only and Build consumes it).
  std::vector<std::vector<eng::Query>> pools;
  for (uint64_t seed = 21; seed < 25; ++seed) {
    Venue venue = synth::RandomVenue(seed);
    Rng rng(seed);
    std::vector<IndoorPoint> objects = synth::PlaceObjects(venue, 16, rng);
    pools.push_back(
        MixedEngineWorkload(venue, 0x0FEED + seed, open_loop_n + 1, false));
    const eng::VenueBundle built = eng::VenueBundle::Build(
        std::move(venue), std::move(objects));
    const std::string id = "venue-" + std::to_string(seed);
    const std::string snapshot = dir + "/" + id + ".vipsnap";
    if (!built.Save(snapshot).ok() ||
        !eng::VenueRegistry::UpsertManifestEntry(manifest, id,
                                                 id + ".vipsnap")
             .ok()) {
      std::fprintf(stderr, "cannot stage bench registry in %s\n",
                   dir.c_str());
      return 1;
    }
    venue_ids.push_back(id);
  }

  std::printf("open loop (arrivals at ~70%% of measured capacity):\n");
  std::printf("%8s %10s %12s %12s %10s %10s %9s\n", "venues", "workers",
              "offered/s", "achieved/s", "p50 us", "p99 us", "expired");
  for (const size_t num_venues : {size_t{1}, size_t{2}, size_t{4}}) {
    const std::vector<std::string> ids(venue_ids.begin(),
                                       venue_ids.begin() + num_venues);
    // Round-robin mixed workload over the participating venues.
    const size_t n = open_loop_n;
    std::vector<eng::Query> queries;
    queries.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      queries.push_back(pools[i % num_venues][i / num_venues]);
    }

    std::string error;
    std::optional<eng::VenueRegistry> registry =
        eng::VenueRegistry::Open(manifest, &error);
    if (!registry.has_value()) {
      std::fprintf(stderr, "error: %s\n", error.c_str());
      return 1;
    }
    eng::ServiceOptions service_options;
    service_options.num_threads = 2;
    service_options.queue_capacity = n;
    eng::Service service(std::move(*registry), service_options);
    service.Start();

    // Measure capacity closed-loop first, then pace arrivals at 70%.
    const double capacity = ServiceClosedLoopQps(service, queries, ids);
    const double rate = std::max(1000.0, capacity * 0.7);
    const auto gap = std::chrono::duration_cast<eng::ServiceClock::duration>(
        std::chrono::duration<double>(1.0 / rate));

    std::mutex mu;
    std::vector<double> sojourn_micros;
    sojourn_micros.reserve(n);
    const eng::ServiceClock::time_point t0 = eng::ServiceClock::now();
    eng::ServiceClock::time_point arrival = t0;
    for (size_t i = 0; i < n; ++i) {
      std::this_thread::sleep_until(arrival);
      const eng::ServiceClock::time_point sent = eng::ServiceClock::now();
      eng::Request request;
      request.venue_id = ids[i % ids.size()];
      request.query = queries[i];
      request.tag = i;
      service.Submit(std::move(request),
                     [&mu, &sojourn_micros, sent](const eng::Response& r) {
                       if (!r.ok()) return;
                       const double micros =
                           std::chrono::duration<double, std::micro>(
                               eng::ServiceClock::now() - sent)
                               .count();
                       std::lock_guard<std::mutex> lock(mu);
                       sojourn_micros.push_back(micros);
                     });
      arrival += gap;
    }
    service.Drain();
    const double elapsed_s =
        std::chrono::duration<double>(eng::ServiceClock::now() - t0).count();
    const eng::ServiceStats stats = service.Stats();
    const Summary sojourn = Summarize(sojourn_micros);
    std::printf("%8zu %10zu %12.0f %12.0f %10.1f %10.1f %9llu\n",
                num_venues, service.num_threads(), rate,
                elapsed_s > 0.0 ? n / elapsed_s : 0.0, sojourn.p50,
                sojourn.p99,
                static_cast<unsigned long long>(stats.expired));
    service.Stop();
  }

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
