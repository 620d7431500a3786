// viptree_query: load a snapshot written by viptree_build and serve queries
// against it — the "load anywhere" half of the build-once/load-anywhere
// workflow. Load failures (truncation, corruption, version skew) are
// reported with the decoder's message and a non-zero exit.
//
// Three modes:
//   * batch (default): generate a random workload and run it through
//     QueryEngine::RunBatch, printing the BatchStats;
//   * --serve: read queries one per line from stdin (or --input FILE) and
//     submit each through the async engine::Service front-end — resident
//     workers, multi-venue routing, optional per-request deadlines;
//   * --emit-workload: print the random workload in the --serve text
//     format instead of running it, so `viptree_query --emit-workload |
//     viptree_query --serve` pipes a reproducible request stream.
//
// Serve-mode line format (engine/workload_text.h is the single
// emitter/parser; blank lines and '#' comments ignored; the leading
// <venue> column exists only in --registry mode):
//
//   [<venue>] distance <p> <x> <y> <z>  <p> <x> <y> <z>
//   [<venue>] path     <p> <x> <y> <z>  <p> <x> <y> <z>
//   [<venue>] knn      <p> <x> <y> <z>  <k>
//   [<venue>] range    <p> <x> <y> <z>  <radius>
//   [<venue>] bknn     <p> <x> <y> <z>  <k> <kw1[,kw2,...] | ->
//   [<venue>] move     <id> <p> <x> <y> <z>       (live-object updates:
//   [<venue>] add      <p> <x> <y> <z> <kw...|->   each line publishes one
//   [<venue>] remove   <id>                        new object epoch)
//
// Examples:
//   viptree_query --snapshot mc.vipsnap --queries 1000 --threads 4
//   viptree_query --registry fleet/registry.txt --venue mc-hq --queries 500
//   viptree_query --registry fleet/registry.txt --list-venues
//   viptree_query --registry fleet/registry.txt --venue mc-hq
//       --queries 100 --updates 10 --emit-workload > w.txt
//   viptree_query --registry fleet/registry.txt --serve --threads 4
//       --deadline-ms 50 --input w.txt

#include <signal.h>

#include <atomic>
#include <csignal>
#include <cstdio>
#include <deque>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/stats.h"
#include "core/distance_cache.h"
#include "engine/query_engine.h"
#include "engine/service.h"
#include "engine/venue_registry.h"
#include "engine/workload_text.h"
#include "flags.h"
#include "net/client.h"
#include "net/shard_server.h"
#include "net/wire.h"
#include "synth/objects.h"

namespace {

using namespace viptree;
namespace eng = viptree::engine;

struct Args {
  std::string snapshot;
  std::string registry;  // manifest path (alternative to --snapshot)
  std::string venue;     // venue id within the registry
  bool list_venues = false;
  bool serve = false;
  bool emit_workload = false;
  int listen_port = -1;  // --listen PORT: shard-server mode (0 = ephemeral)
  std::string connect;   // --connect HOST:PORT: drive a remote shard/router
  std::string input;          // --serve source; empty = stdin
  double deadline_ms = 0.0;   // --serve per-request budget; 0 = none
  size_t queue_capacity = 1024;
  size_t queries = 500;
  size_t updates = 0;  // --emit-workload: update lines to interleave
  size_t threads = 1;
  uint64_t seed = 0xC0FFEE;
  std::string mix = "mixed";  // mixed | distance | path | knn | range
  // Cross-request distance cache (core/distance_cache.h). Off by default:
  // the cache only pays off on workloads that repeat door pairs.
  bool cache = false;
  size_t cache_capacity = DistanceCacheOptions{}.capacity;
  // Execution-planner coalescing (engine/exec_plan.h). Off by default:
  // batch mode forwards it to RunBatch, serve mode to the Service workers.
  bool coalesce = false;
  size_t coalesce_window = eng::CoalesceOptions{}.window;
};

void Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s (--snapshot PATH | --registry MANIFEST --venue ID)\n"
      "          [--queries N] [--threads T] [--seed S]\n"
      "          [--mix mixed|distance|path|knn|range]\n"
      "          [--cache] [--cache-capacity N]\n"
      "          [--coalesce] [--coalesce-window K]\n"
      "          [--emit-workload [--updates U]]\n"
      "       %s (--snapshot PATH | --registry MANIFEST) --serve\n"
      "          [--input FILE] [--threads T] [--deadline-ms D]\n"
      "          [--queue-capacity C] [--cache] [--cache-capacity N]\n"
      "          [--coalesce] [--coalesce-window K]\n"
      "       %s (--snapshot PATH | --registry MANIFEST) --listen PORT\n"
      "          [--threads T] [--queue-capacity C] [--cache] [--coalesce]\n"
      "       %s --connect HOST:PORT [--input FILE] [--deadline-ms D]\n"
      "       %s --registry MANIFEST --list-venues\n"
      "\n"
      "--listen runs this process as a network shard: the same Service as\n"
      "--serve behind the binary wire protocol (SIGTERM/SIGINT drain it\n"
      "gracefully and print the final stats). --connect reads the same\n"
      "workload lines but sends them to a remote shard or router instead\n"
      "of an in-process Service.\n"
      "\n"
      "Loads a VIP-Tree snapshot — directly, or by venue id through a\n"
      "multi-venue registry manifest (zero-copy mmap for v2 snapshots) —\n"
      "and runs a random query batch against it; --serve instead reads\n"
      "requests line-by-line (queries plus move/add/remove live-object\n"
      "update lines) and submits them through the async engine::Service\n"
      "front-end (--emit-workload prints the random workload in that\n"
      "line format; --updates U interleaves U update lines). The mixed\n"
      "workload is 40%% distance, 20%% path, 20%% kNN, 10%% range and\n"
      "10%% boolean keyword kNN (keyword queries fall back to kNN when\n"
      "the snapshot has no keyword index). --cache turns on the exact\n"
      "cross-request door-pair distance cache (results are bit-identical\n"
      "with and without it; LRU eviction); --cache-capacity 0 (default)\n"
      "sizes the cache from the venue's door count. --coalesce turns on\n"
      "the execution planner: workers pull up to --coalesce-window K\n"
      "(default %zu) queued same-venue queries into one group and share\n"
      "their source ascents through the multi-target kernels — results\n"
      "stay bit-identical to sequential execution.\n",
      argv0, argv0, argv0, argv0, argv0, eng::CoalesceOptions{}.window);
}

bool Parse(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s: missing value for %s\n", argv[0],
                     flag.c_str());
        return nullptr;
      }
      return argv[++i];
    };
    const char* v = nullptr;
    if (flag == "--snapshot") {
      if ((v = value()) == nullptr) return false;
      args->snapshot = v;
    } else if (flag == "--registry") {
      if ((v = value()) == nullptr) return false;
      args->registry = v;
    } else if (flag == "--venue") {
      if ((v = value()) == nullptr) return false;
      args->venue = v;
    } else if (flag == "--list-venues") {
      args->list_venues = true;
    } else if (flag == "--serve") {
      args->serve = true;
    } else if (flag == "--emit-workload") {
      args->emit_workload = true;
    } else if (flag == "--listen") {
      if ((v = value()) == nullptr) return false;
      if (!tools::ParseUnsignedFlag(argv[0], flag, v, &args->listen_port,
                                    65535)) {
        return false;
      }
    } else if (flag == "--connect") {
      if ((v = value()) == nullptr) return false;
      args->connect = v;
    } else if (flag == "--input") {
      if ((v = value()) == nullptr) return false;
      args->input = v;
    } else if (flag == "--deadline-ms") {
      if ((v = value()) == nullptr) return false;
      if (!tools::ParseNonNegativeFlag(argv[0], flag, v, &args->deadline_ms)) {
        return false;
      }
    } else if (flag == "--queue-capacity") {
      if ((v = value()) == nullptr) return false;
      if (!tools::ParseUnsignedFlag(argv[0], flag, v, &args->queue_capacity)) {
        return false;
      }
    } else if (flag == "--queries") {
      if ((v = value()) == nullptr) return false;
      if (!tools::ParseUnsignedFlag(argv[0], flag, v, &args->queries)) {
        return false;
      }
    } else if (flag == "--updates") {
      if ((v = value()) == nullptr) return false;
      if (!tools::ParseUnsignedFlag(argv[0], flag, v, &args->updates)) {
        return false;
      }
    } else if (flag == "--threads") {
      if ((v = value()) == nullptr) return false;
      if (!tools::ParseUnsignedFlag(argv[0], flag, v, &args->threads)) {
        return false;
      }
    } else if (flag == "--seed") {
      if ((v = value()) == nullptr) return false;
      if (!tools::ParseUnsignedFlag(argv[0], flag, v, &args->seed)) {
        return false;
      }
    } else if (flag == "--mix") {
      if ((v = value()) == nullptr) return false;
      args->mix = v;
    } else if (flag == "--cache") {
      args->cache = true;
    } else if (flag == "--cache-capacity") {
      if ((v = value()) == nullptr) return false;
      if (!tools::ParseUnsignedFlag(argv[0], flag, v, &args->cache_capacity)) {
        return false;
      }
      args->cache = true;
    } else if (flag == "--coalesce") {
      args->coalesce = true;
    } else if (flag == "--coalesce-window") {
      if ((v = value()) == nullptr) return false;
      if (!tools::ParseUnsignedFlag(argv[0], flag, v, &args->coalesce_window)) {
        return false;
      }
      args->coalesce = true;  // naming a window implies --coalesce
    } else if (flag == "--help" || flag == "-h") {
      Usage(argv[0]);
      return false;
    } else {
      std::fprintf(stderr, "%s: unknown flag %s\n", argv[0], flag.c_str());
      Usage(argv[0]);
      return false;
    }
  }
  if (args->list_venues) {
    if (args->registry.empty()) {
      std::fprintf(stderr, "%s: --list-venues needs --registry\n", argv[0]);
      return false;
    }
    return true;
  }
  const int modes = (args->serve ? 1 : 0) + (args->emit_workload ? 1 : 0) +
                    (args->listen_port >= 0 ? 1 : 0) +
                    (!args->connect.empty() ? 1 : 0);
  if (modes > 1) {
    std::fprintf(stderr,
                 "%s: --serve, --emit-workload, --listen and --connect are "
                 "mutually exclusive\n",
                 argv[0]);
    return false;
  }
  if (!args->connect.empty()) {
    // Connect mode drives a *remote* server: no local snapshot needed.
    if (!args->snapshot.empty() || !args->registry.empty()) {
      std::fprintf(stderr,
                   "%s: --connect takes no --snapshot/--registry (the "
                   "server owns the data)\n",
                   argv[0]);
      return false;
    }
    return true;
  }
  if (args->snapshot.empty() == args->registry.empty()) {
    std::fprintf(stderr,
                 "%s: pass exactly one of --snapshot / --registry\n",
                 argv[0]);
    Usage(argv[0]);
    return false;
  }
  // --serve and --listen route per request, so they do not need --venue;
  // the batch and emit-workload modes generate a per-venue workload and do.
  if (!args->serve && args->listen_port < 0 && !args->registry.empty() &&
      args->venue.empty()) {
    std::fprintf(stderr, "%s: --registry needs --venue (or --list-venues)\n",
                 argv[0]);
    return false;
  }
  if (args->serve && args->emit_workload) {
    std::fprintf(stderr, "%s: --serve and --emit-workload are exclusive\n",
                 argv[0]);
    return false;
  }
  if (args->updates > 0 && !args->emit_workload) {
    std::fprintf(stderr, "%s: --updates only applies to --emit-workload\n",
                 argv[0]);
    return false;
  }
  if (args->mix != "mixed" && args->mix != "distance" && args->mix != "path" &&
      args->mix != "knn" && args->mix != "range") {
    std::fprintf(stderr, "%s: unknown --mix '%s'\n", argv[0],
                 args->mix.c_str());
    return false;
  }
  return true;
}

DistanceCacheOptions CacheOptionsFrom(const Args& args) {
  DistanceCacheOptions options;
  options.enabled = args.cache;
  options.capacity = args.cache_capacity;
  return options;
}

eng::CoalesceOptions CoalesceOptionsFrom(const Args& args) {
  eng::CoalesceOptions options;
  options.enabled = args.coalesce;
  options.window = args.coalesce_window;
  return options;
}

// ---------------------------------------------------------------------------
// Signal handling (the --serve / --listen lifecycles). SIGINT/SIGTERM ask
// for a graceful drain: the serve loop stops reading and drains the
// Service; the shard server runs its two-phase drain. Handlers are
// installed without SA_RESTART so a blocked stdin read returns EINTR and
// the serve loop gets to notice the flag. SIGPIPE is ignored process-wide:
// a peer hanging up mid-write is a per-connection condition (EPIPE), not a
// process killer.
// ---------------------------------------------------------------------------

std::atomic<bool> g_interrupted{false};
net::ShardServer* g_shard = nullptr;  // set only in --listen mode

void OnTerminateSignal(int) {
  g_interrupted.store(true, std::memory_order_release);
  // RequestDrain is async-signal-safe (atomic store + pipe write).
  if (g_shard != nullptr) g_shard->RequestDrain();
}

void InstallDrainSignalHandlers() {
  struct sigaction action{};
  action.sa_handler = OnTerminateSignal;
  sigemptyset(&action.sa_mask);
  action.sa_flags = 0;  // no SA_RESTART: let blocked reads return EINTR
  ::sigaction(SIGINT, &action, nullptr);
  ::sigaction(SIGTERM, &action, nullptr);
}

void PrintPlanStats(const eng::PlanStats& plan) {
  std::printf("  coalesce      %10llu groups, %llu queries grouped, "
              "%llu ascents computed, %llu reused\n",
              static_cast<unsigned long long>(plan.groups),
              static_cast<unsigned long long>(plan.coalesced_queries),
              static_cast<unsigned long long>(plan.ascents_computed),
              static_cast<unsigned long long>(plan.ascents_reused));
  std::printf("  group sizes  ");
  for (size_t b = 1; b < eng::PlanStats::kHistogramBuckets; ++b) {
    const size_t lo = size_t{1} << b;
    if (b + 1 < eng::PlanStats::kHistogramBuckets) {
      std::printf(" [%zu,%zu):%llu", lo, lo * 2,
                  static_cast<unsigned long long>(plan.groups_by_size[b]));
    } else {
      std::printf(" [%zu,inf):%llu", lo,
                  static_cast<unsigned long long>(plan.groups_by_size[b]));
    }
  }
  std::printf("\n");
}

void PrintCacheStats(const CacheCounters& cache) {
  std::printf("  cache          %llu hits, %llu misses (%.1f%% hit rate), "
              "%llu evictions\n",
              static_cast<unsigned long long>(cache.hits),
              static_cast<unsigned long long>(cache.misses),
              100.0 * cache.hit_rate(),
              static_cast<unsigned long long>(cache.evictions));
}

std::vector<eng::Query> MakeWorkload(const eng::QueryEngine& engine,
                                     const Args& args) {
  const Venue& venue = engine.venue();
  Rng rng(args.seed);
  std::vector<eng::Query> queries;
  queries.reserve(args.queries);
  for (size_t i = 0; i < args.queries; ++i) {
    const IndoorPoint a = synth::RandomIndoorPoint(venue, rng);
    const IndoorPoint b = synth::RandomIndoorPoint(venue, rng);
    if (args.mix == "distance") {
      queries.push_back(eng::Query::Distance(a, b));
    } else if (args.mix == "path") {
      queries.push_back(eng::Query::Path(a, b));
    } else if (args.mix == "knn") {
      queries.push_back(eng::Query::Knn(a, 5));
    } else if (args.mix == "range") {
      queries.push_back(eng::Query::Range(a, 100.0));
    } else {
      switch (i % 10) {
        case 0: case 1: case 2: case 3:
          queries.push_back(eng::Query::Distance(a, b));
          break;
        case 4: case 5:
          queries.push_back(eng::Query::Path(a, b));
          break;
        case 6: case 7:
          queries.push_back(eng::Query::Knn(a, 5));
          break;
        case 8:
          queries.push_back(eng::Query::Range(a, 100.0));
          break;
        default:
          if (engine.has_keywords()) {
            queries.push_back(eng::Query::BooleanKnn(a, 3, {"tag-0"}));
          } else {
            queries.push_back(eng::Query::Knn(a, 3));
          }
          break;
      }
    }
  }
  return queries;
}

// ---------------------------------------------------------------------------
// Serve-mode text protocol (shared emitter/parser: engine/workload_text.h).
// ---------------------------------------------------------------------------

// The emitted request stream: `queries` in order, with `args.updates`
// live-object update lines interleaved at an even stride. Updates are
// moves of existing object ids (and, on keyword venues, adds) only:
// with >1 serve worker, updates to one venue may execute out of
// submission order, and moves/adds stay valid under any reordering —
// removes would invalidate later moves of the same id.
std::vector<eng::Request> MakeRequests(const eng::QueryEngine& engine,
                                       const Args& args,
                                       const std::string& venue) {
  const std::vector<eng::Query> queries = MakeWorkload(engine, args);
  Rng rng(args.seed ^ 0x0BDE17A);
  const size_t num_objects = engine.objects().NumObjects();
  std::vector<eng::Request> requests;
  requests.reserve(queries.size() + args.updates);
  const size_t stride =
      args.updates == 0 ? queries.size() + 1
                        : std::max<size_t>(1, queries.size() / args.updates);
  size_t emitted_updates = 0;
  for (size_t i = 0; i < queries.size(); ++i) {
    eng::Request request;
    request.venue_id = venue;
    request.query = queries[i];
    requests.push_back(std::move(request));
    if (emitted_updates < args.updates && (i + 1) % stride == 0) {
      ObjectDelta delta;
      if (num_objects > 0 && (!engine.has_keywords() || !rng.Chance(0.3))) {
        delta.moves.push_back(
            {static_cast<ObjectId>(rng.UniformIndex(num_objects)),
             synth::RandomIndoorPoint(engine.venue(), rng)});
      } else {
        ObjectDelta::Add add;
        add.at = synth::RandomIndoorPoint(engine.venue(), rng);
        if (engine.has_keywords()) add.keywords = {"tag-0"};
        delta.adds.push_back(std::move(add));
      }
      requests.push_back(eng::Request::Update(venue, std::move(delta)));
      ++emitted_updates;
    }
  }
  // A short query list can leave stride budget unused; top up at the end.
  for (; emitted_updates < args.updates && num_objects > 0;
       ++emitted_updates) {
    ObjectDelta delta;
    delta.moves.push_back(
        {static_cast<ObjectId>(rng.UniformIndex(num_objects)),
         synth::RandomIndoorPoint(engine.venue(), rng)});
    requests.push_back(eng::Request::Update(venue, std::move(delta)));
  }
  return requests;
}

// The --serve loop: submit every line through the service, drain, report.
int ServeMain(const Args& args, std::optional<eng::VenueRegistry> registry) {
  eng::ServiceOptions options;
  options.num_threads = args.threads;
  options.queue_capacity = args.queue_capacity;
  options.cache = CacheOptionsFrom(args);
  options.coalesce = CoalesceOptionsFrom(args);

  std::unique_ptr<eng::Service> service;
  const bool with_venue = registry.has_value();
  std::string error;
  if (with_venue) {
    service =
        std::make_unique<eng::Service>(std::move(*registry), options);
  } else {
    std::optional<eng::VenueBundle> bundle =
        eng::VenueBundle::TryLoad(args.snapshot, &error);
    if (!bundle.has_value()) {
      std::fprintf(stderr, "error: %s\n", error.c_str());
      return 1;
    }
    service = std::make_unique<eng::Service>(
        std::make_shared<const eng::VenueBundle>(std::move(*bundle)),
        options);
  }
  service->Start();

  std::ifstream file;
  if (!args.input.empty()) {
    file.open(args.input);
    if (!file) {
      std::fprintf(stderr, "error: cannot open workload file '%s'\n",
                   args.input.c_str());
      return 1;
    }
  }
  std::istream& in = args.input.empty() ? std::cin : file;

  // SIGINT/SIGTERM stop reading input; the drain below still runs, so
  // every request already submitted is answered and the summary prints.
  InstallDrainSignalHandlers();

  const Timer wall;
  size_t submitted = 0;
  size_t malformed = 0;
  size_t line_number = 0;
  // Backpressure: cap requests outstanding (queued + in-flight) below the
  // service's queue capacity by waiting on the oldest ticket before
  // submitting past the window — a fast producer blocks here instead of
  // overflowing the bounded queue into rejections.
  std::deque<eng::Ticket> window;
  const size_t max_outstanding = std::max<size_t>(1, args.queue_capacity);
  std::string line;
  while (!g_interrupted.load(std::memory_order_acquire) &&
         std::getline(in, line)) {
    ++line_number;
    const size_t start = line.find_first_not_of(" \t\r");
    if (start == std::string::npos || line[start] == '#') continue;
    eng::Request request;
    if (!eng::workload::ParseLine(line, with_venue, &request, &error)) {
      std::fprintf(stderr, "warning: skipping line %zu: %s\n", line_number,
                   error.c_str());
      ++malformed;
      continue;
    }
    request.tag = submitted;
    if (args.deadline_ms > 0.0) {
      request.deadline = eng::DeadlineAfterMillis(args.deadline_ms);
    }
    if (window.size() >= max_outstanding) {
      window.front().Wait();
      window.pop_front();
    }
    window.push_back(service->Submit(std::move(request)));
    ++submitted;
  }
  if (g_interrupted.load(std::memory_order_acquire)) {
    std::fprintf(stderr,
                 "signal received: draining %zu submitted request(s)\n",
                 submitted);
  }
  service->Drain();
  const double wall_ms = wall.ElapsedMillis();

  const eng::ServiceStats stats = service->Stats();
  std::printf(
      "served %zu requests (%llu ok, %llu updates, %llu expired, "
      "%llu rejected, %llu failed) in %.2f ms on %zu worker(s)\n",
      submitted, static_cast<unsigned long long>(stats.num_queries),
      static_cast<unsigned long long>(stats.updates),
      static_cast<unsigned long long>(stats.expired),
      static_cast<unsigned long long>(stats.rejected),
      static_cast<unsigned long long>(stats.failed), wall_ms,
      stats.num_threads);
  if (wall_ms > 0.0) {
    std::printf("  throughput    %10.0f queries/s\n",
                submitted / (wall_ms / 1000.0));
  }
  std::printf("  queue p50     %10.2f us\n", stats.queue_micros.p50);
  std::printf("  queue p99     %10.2f us\n", stats.queue_micros.p99);
  std::printf("  latency p50   %10.2f us\n", stats.latency_micros.p50);
  std::printf("  latency p99   %10.2f us\n", stats.latency_micros.p99);
  if (stats.updates > 0) {
    std::printf("  update p99    %10.2f us\n", stats.update_micros.p99);
  }
  if (args.cache) PrintCacheStats(stats.cache);
  if (args.coalesce) PrintPlanStats(stats.plan);
  for (const auto& [venue_id, counters] : stats.per_venue) {
    std::printf("  venue %-12s %llu ok, %llu updates, %llu expired, "
                "%llu failed\n",
                venue_id.empty() ? "(default)" : venue_id.c_str(),
                static_cast<unsigned long long>(counters.completed),
                static_cast<unsigned long long>(counters.updated),
                static_cast<unsigned long long>(counters.expired),
                static_cast<unsigned long long>(counters.failed));
  }
  service->Stop();
  // Exit status mirrors request outcomes so scripts can gate on it:
  // malformed input, venue failures and queue rejections are errors;
  // deadline expiry is the shedding the caller asked for and is not.
  if (malformed > 0) {
    std::fprintf(stderr, "error: %zu malformed workload line(s)\n",
                 malformed);
    return 1;
  }
  if (stats.failed > 0 || stats.rejected > 0) {
    std::fprintf(stderr,
                 "error: %llu request(s) failed, %llu rejected\n",
                 static_cast<unsigned long long>(stats.failed),
                 static_cast<unsigned long long>(stats.rejected));
    return 1;
  }
  return 0;
}

// The --listen loop: run this process as a network shard until a
// SIGTERM/SIGINT drains it, then report the final service stats.
int ListenMain(const Args& args, std::optional<eng::VenueRegistry> registry) {
  net::ShardServerOptions options;
  options.port = static_cast<uint16_t>(args.listen_port);
  options.service.num_threads = args.threads;
  options.service.queue_capacity = args.queue_capacity;
  options.service.cache = CacheOptionsFrom(args);
  options.service.coalesce = CoalesceOptionsFrom(args);

  std::unique_ptr<net::ShardServer> server;
  std::string error;
  if (registry.has_value()) {
    server = std::make_unique<net::ShardServer>(std::move(*registry),
                                                std::move(options));
  } else {
    std::optional<eng::VenueBundle> bundle =
        eng::VenueBundle::TryLoad(args.snapshot, &error);
    if (!bundle.has_value()) {
      std::fprintf(stderr, "error: %s\n", error.c_str());
      return 1;
    }
    server = std::make_unique<net::ShardServer>(
        std::make_shared<const eng::VenueBundle>(std::move(*bundle)),
        std::move(options));
  }
  if (io::Status status = server->Start(); !status.ok()) {
    std::fprintf(stderr, "error: %s\n", status.error.c_str());
    return 1;
  }
  g_shard = server.get();
  InstallDrainSignalHandlers();
  // The port line is machine-read by scripts launching ephemeral shards.
  std::printf("shard listening on 127.0.0.1:%u (%zu worker(s))\n",
              server->port(), args.threads);
  std::fflush(stdout);

  server->Wait();  // returns once a signal-triggered drain completes
  g_shard = nullptr;

  const eng::ServiceStats stats = server->ServiceStatsNow();
  std::printf(
      "shard drained: %llu ok, %llu updates, %llu expired, %llu rejected, "
      "%llu failed over %llu connection(s), %llu frame(s), "
      "%llu protocol error(s)\n",
      static_cast<unsigned long long>(stats.num_queries),
      static_cast<unsigned long long>(stats.updates),
      static_cast<unsigned long long>(stats.expired),
      static_cast<unsigned long long>(stats.rejected),
      static_cast<unsigned long long>(stats.failed),
      static_cast<unsigned long long>(server->connections_accepted()),
      static_cast<unsigned long long>(server->frames_received()),
      static_cast<unsigned long long>(server->protocol_errors()));
  std::printf("  latency p50   %10.2f us\n", stats.latency_micros.p50);
  std::printf("  latency p99   %10.2f us\n", stats.latency_micros.p99);
  return 0;
}

// Workload lines arrive in the registry (venue-column) or single-snapshot
// (bare) format; a remote driver accepts either. The venue column is tried
// first — its first token is a venue id, never a parsable operation — so
// the two formats cannot be confused.
bool ParseLineAnyFormat(const std::string& line, eng::Request* request,
                        std::string* error) {
  if (eng::workload::ParseLine(line, /*with_venue=*/true, request, error)) {
    return true;
  }
  std::string bare_error;
  if (eng::workload::ParseLine(line, /*with_venue=*/false, request,
                               &bare_error)) {
    error->clear();
    return true;
  }
  return false;  // report the venue-format error (the likelier intent)
}

// The --connect loop: same workload lines as --serve, but submitted to a
// remote shard or router through net::Client with a pipelined window.
int ConnectMain(const Args& args) {
  std::string error;
  std::unique_ptr<net::Client> client = net::Client::Connect(
      args.connect, &error);
  if (client == nullptr) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 1;
  }

  std::ifstream file;
  if (!args.input.empty()) {
    file.open(args.input);
    if (!file) {
      std::fprintf(stderr, "error: cannot open workload file '%s'\n",
                   args.input.c_str());
      return 1;
    }
  }
  std::istream& in = args.input.empty() ? std::cin : file;

  const Timer wall;
  size_t submitted = 0;
  size_t malformed = 0;
  size_t line_number = 0;
  size_t outstanding = 0;
  uint64_t ok = 0, updates = 0, expired = 0, rejected = 0, failed = 0;
  // Pipelining window: enough to keep the wire and the remote queue busy,
  // small enough never to overflow a default-capacity shard queue.
  const size_t window =
      std::max<size_t>(1, std::min<size_t>(args.queue_capacity, 128));

  auto receive_one = [&]() -> bool {
    net::WireResponse response;
    uint64_t tag = 0;
    if (io::Status status = client->Receive(&response, &tag, 30000.0);
        !status.ok()) {
      std::fprintf(stderr, "error: %s\n", status.error.c_str());
      return false;
    }
    --outstanding;
    switch (response.status) {
      case eng::RequestStatus::kOk:
        if (response.kind == eng::RequestKind::kUpdateObjects) {
          ++updates;
        } else {
          ++ok;
        }
        break;
      case eng::RequestStatus::kDeadlineExceeded:
        ++expired;
        break;
      case eng::RequestStatus::kRejected:
        ++rejected;
        break;
      default:
        ++failed;
        break;
    }
    return true;
  };

  std::string line;
  while (std::getline(in, line)) {
    ++line_number;
    const size_t start = line.find_first_not_of(" \t\r");
    if (start == std::string::npos || line[start] == '#') continue;
    eng::Request request;
    if (!ParseLineAnyFormat(line, &request, &error)) {
      std::fprintf(stderr, "warning: skipping line %zu: %s\n", line_number,
                   error.c_str());
      ++malformed;
      continue;
    }
    const net::WireRequest wire =
        net::WireRequest::FromRequest(request, args.deadline_ms);
    while (outstanding >= window) {
      if (!receive_one()) return 1;
    }
    ++submitted;
    if (io::Status status = client->Send(wire, submitted); !status.ok()) {
      std::fprintf(stderr, "error: %s\n", status.error.c_str());
      return 1;
    }
    ++outstanding;
  }
  while (outstanding > 0) {
    if (!receive_one()) return 1;
  }
  const double wall_ms = wall.ElapsedMillis();

  std::printf(
      "sent %zu requests to %s (%llu ok, %llu updates, %llu expired, "
      "%llu rejected, %llu failed) in %.2f ms\n",
      submitted, args.connect.c_str(), static_cast<unsigned long long>(ok),
      static_cast<unsigned long long>(updates),
      static_cast<unsigned long long>(expired),
      static_cast<unsigned long long>(rejected),
      static_cast<unsigned long long>(failed), wall_ms);
  if (wall_ms > 0.0 && submitted > 0) {
    std::printf("  throughput    %10.0f requests/s\n",
                submitted / (wall_ms / 1000.0));
  }
  net::WireStats stats;
  if (client->Stats(&stats).ok()) {
    std::printf("  server latency p50 %.2f us, p99 %.2f us "
                "(%llu submitted fleet-wide)\n",
                stats.latency_p50, stats.latency_p99,
                static_cast<unsigned long long>(stats.submitted));
  }
  if (malformed > 0) {
    std::fprintf(stderr, "error: %zu malformed workload line(s)\n",
                 malformed);
    return 1;
  }
  if (failed > 0 || rejected > 0) {
    std::fprintf(stderr, "error: %llu request(s) failed, %llu rejected\n",
                 static_cast<unsigned long long>(failed),
                 static_cast<unsigned long long>(rejected));
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!Parse(argc, argv, &args)) return 1;

  // A peer (or downstream pipe) hanging up mid-write is EPIPE on that
  // descriptor, not a reason to kill the process.
  std::signal(SIGPIPE, SIG_IGN);

  if (!args.connect.empty()) return ConnectMain(args);

  std::string error;
  std::optional<eng::VenueRegistry> registry;
  if (!args.registry.empty()) {
    registry = eng::VenueRegistry::Open(args.registry, &error);
    if (!registry.has_value()) {
      std::fprintf(stderr, "error: %s\n", error.c_str());
      return 1;
    }
    if (args.list_venues) {
      std::printf("%zu venue(s) in %s:\n", registry->NumVenues(),
                  args.registry.c_str());
      for (const std::string& id : registry->VenueIds()) {
        std::printf("  %s\n", id.c_str());
      }
      return 0;
    }
  }

  if (args.listen_port >= 0) return ListenMain(args, std::move(registry));
  if (args.serve) return ServeMain(args, std::move(registry));

  Timer load_timer;
  std::unique_ptr<eng::QueryEngine> engine;
  bool zero_copy = false;
  if (registry.has_value()) {
    const std::shared_ptr<const eng::VenueBundle> bundle =
        registry->Acquire(args.venue, &error);
    if (bundle == nullptr) {
      std::fprintf(stderr, "error: %s\n", error.c_str());
      return 1;
    }
    zero_copy = bundle->zero_copy();
    engine = std::make_unique<eng::QueryEngine>(bundle);
  } else {
    engine = eng::QueryEngine::TryLoad(args.snapshot, &error);
    if (engine == nullptr) {
      std::fprintf(stderr, "error: %s\n", error.c_str());
      return 1;
    }
    zero_copy = engine->bundle().zero_copy();
  }
  if (args.cache) engine->EnableDistanceCache(CacheOptionsFrom(args));

  if (args.emit_workload) {
    // Registry-mode lines carry the venue column --serve expects.
    const std::string venue_column =
        registry.has_value() ? args.venue : std::string();
    for (const eng::Request& request :
         MakeRequests(*engine, args, venue_column)) {
      std::printf("%s\n", eng::workload::EmitLine(request).c_str());
    }
    return 0;
  }

  std::printf(
      "snapshot loaded in %.1f ms (%s): %zu partitions, %zu doors, "
      "%zu objects, %s index%s\n",
      load_timer.ElapsedMillis(), zero_copy ? "zero-copy mmap" : "copied",
      engine->venue().NumPartitions(), engine->venue().NumDoors(),
      engine->objects().NumObjects(),
      HumanBytes(engine->IndexMemoryBytes()).c_str(),
      engine->has_keywords() ? " (with keywords)" : "");

  const std::vector<eng::Query> queries = MakeWorkload(*engine, args);
  eng::BatchOptions batch;
  batch.num_threads = args.threads;
  batch.coalesce = CoalesceOptionsFrom(args);
  const eng::BatchResult run = engine->RunBatch(queries, batch);

  const eng::BatchStats& stats = run.stats;
  std::printf("batch: %zu %s queries on %zu thread(s)\n", stats.num_queries,
              args.mix.c_str(), stats.num_threads);
  std::printf("  wall          %10.2f ms\n", stats.wall_millis);
  std::printf("  throughput    %10.0f queries/s\n",
              stats.queries_per_second);
  std::printf("  latency p50   %10.2f us\n", stats.latency_micros.p50);
  std::printf("  latency p95   %10.2f us\n", stats.latency_micros.p95);
  std::printf("  latency p99   %10.2f us\n", stats.latency_micros.p99);
  std::printf("  latency max   %10.2f us\n", stats.latency_micros.max);
  std::printf("  visited nodes %10llu\n",
              static_cast<unsigned long long>(stats.visited_nodes));
  if (args.coalesce) PrintPlanStats(stats.plan);
  if (args.cache) {
    PrintCacheStats(engine->distance_cache()->Counters());
  }
  return 0;
}
