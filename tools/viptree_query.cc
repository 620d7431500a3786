// viptree_query: load a snapshot written by viptree_build and serve queries
// against it — the "load anywhere" half of the build-once/load-anywhere
// workflow. Load failures (truncation, corruption, version skew) are
// reported with the decoder's message and a non-zero exit.
//
// One in-process driver, fed from one of two request sources:
//   * default: generate a random workload (queries, plus --updates U
//     live-object update lines) and submit it through the async
//     engine::Service front-end — resident workers, multi-venue routing,
//     optional per-request deadlines;
//   * --serve: read the same requests one per line from stdin (or --input
//     FILE) instead.
// --emit-workload prints the generated workload in the --serve text format
// instead of running it, so the default mode equals `viptree_query
// --emit-workload | viptree_query --serve`. --connect drives the same
// lines against a remote shard or router; --listen runs this process as
// that shard.
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

#include <algorithm>
#include <atomic>
#include <csignal>
#include <cstdio>
#include <deque>
#include <fstream>
#include <functional>
#include <iostream>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/stats.h"
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
  double deadline_ms = 0.0;   // per-request budget; 0 = none
  size_t queue_capacity = 1024;
  size_t queries = 500;
  size_t updates = 0;  // update lines interleaved into the generated workload
  size_t threads = 1;
  uint64_t seed = 0xC0FFEE;
  std::string mix = "mixed";  // mixed | distance | path | knn | range
  // Execution-planner coalescing (engine/exec_plan.h), forwarded to the
  // Service workers. Off by default.
  bool coalesce = false;
  size_t coalesce_window = eng::CoalesceOptions{}.window;
};

void Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s (--snapshot PATH | --registry MANIFEST --venue ID)\n"
      "          [--queries N] [--updates U] [--seed S]\n"
      "          [--mix mixed|distance|path|knn|range]\n"
      "          [--threads T] [--deadline-ms D] [--queue-capacity C]\n"
      "          [--coalesce] [--coalesce-window K] [--emit-workload]\n"
      "       %s (--snapshot PATH | --registry MANIFEST) --serve\n"
      "          [--input FILE] [--threads T] [--deadline-ms D]\n"
      "          [--queue-capacity C] [--coalesce] [--coalesce-window K]\n"
      "       %s (--snapshot PATH | --registry MANIFEST) --listen PORT\n"
      "          [--threads T] [--queue-capacity C] [--coalesce]\n"
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
      "multi-venue registry manifest (zero-copy mmap for v3 snapshots) —\n"
      "generates a random workload for it (--updates U interleaves U\n"
      "live-object update lines) and submits it through the async\n"
      "engine::Service front-end; --serve instead reads the requests\n"
      "line-by-line (queries plus move/add/remove update lines), and\n"
      "--emit-workload prints the generated workload in that line format\n"
      "instead of running it. The mixed workload is 40%% distance, 20%%\n"
      "path, 20%% kNN, 10%% range and 10%% boolean keyword kNN (keyword\n"
      "queries fall back to kNN when the snapshot has no keyword index).\n"
      "--coalesce turns on the execution planner: workers pull up\n"
      "to --coalesce-window K (default %zu) queued same-venue queries into\n"
      "one group; kNN queries from one source point share one root ascent\n"
      "and a repeated (source, k) runs once. Every other query runs as it\n"
      "would alone — results stay bit-identical to sequential execution.\n",
      argv0, argv0, argv0, argv0, argv0, eng::CoalesceOptions{}.window);
}

bool Parse(int argc, char** argv, Args* args) {
  const std::vector<tools::Flag> flags = {
      tools::StringFlag("--snapshot", &args->snapshot),
      tools::StringFlag("--registry", &args->registry),
      tools::StringFlag("--venue", &args->venue),
      tools::SwitchFlag("--list-venues", &args->list_venues),
      tools::SwitchFlag("--serve", &args->serve),
      tools::SwitchFlag("--emit-workload", &args->emit_workload),
      tools::UnsignedFlag("--listen", &args->listen_port, 65535),
      tools::StringFlag("--connect", &args->connect),
      tools::StringFlag("--input", &args->input),
      tools::NonNegativeFlag("--deadline-ms", &args->deadline_ms),
      tools::UnsignedFlag("--queue-capacity", &args->queue_capacity),
      tools::UnsignedFlag("--queries", &args->queries),
      tools::UnsignedFlag("--updates", &args->updates),
      tools::UnsignedFlag("--threads", &args->threads),
      tools::UnsignedFlag("--seed", &args->seed),
      tools::StringFlag("--mix", &args->mix),
      tools::SwitchFlag("--coalesce", &args->coalesce),
      tools::UnsignedFlag("--coalesce-window", &args->coalesce_window,
                          std::numeric_limits<size_t>::max(),
                          &args->coalesce),
  };
  if (!tools::ParseFlags(argc, argv, flags, Usage)) return false;
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
  // the generated workload is per venue and does.
  const bool generated = !args->serve && args->listen_port < 0;
  if (generated && !args->registry.empty() && args->venue.empty()) {
    std::fprintf(stderr, "%s: --registry needs --venue (or --list-venues)\n",
                 argv[0]);
    return false;
  }
  if (args->updates > 0 && !generated) {
    std::fprintf(stderr,
                 "%s: --updates only applies to the generated workload\n",
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

eng::ServiceOptions ServiceOptionsFrom(const Args& args) {
  eng::ServiceOptions options;
  options.num_threads = args.threads;
  options.queue_capacity = args.queue_capacity;
  options.coalesce.enabled = args.coalesce;
  options.coalesce.window = args.coalesce_window;
  return options;
}

std::shared_ptr<const eng::VenueBundle> LoadSnapshot(const std::string& path) {
  std::string error;
  std::optional<eng::VenueBundle> bundle =
      eng::VenueBundle::TryLoad(path, &error);
  if (!bundle.has_value()) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return nullptr;
  }
  return std::make_shared<const eng::VenueBundle>(std::move(*bundle));
}

// ---------------------------------------------------------------------------
// Signal handling (the in-process driver and --listen lifecycles).
// SIGINT/SIGTERM ask for a graceful drain: the driver stops submitting and
// waits for what it already submitted; the shard server runs its two-phase
// drain. Handlers are installed without SA_RESTART so a blocked stdin read
// returns EINTR and the driver gets to notice the flag. SIGPIPE is ignored
// process-wide: a peer hanging up mid-write is a per-connection condition
// (EPIPE), not a process killer.
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

// ---------------------------------------------------------------------------
// The generated workload: `args.queries` queries in the --mix, with
// `args.updates` live-object update lines interleaved at an even stride.
// Updates are moves of existing object ids (and, on keyword venues, adds)
// only: with >1 serve worker, updates to one venue may execute out of
// submission order, and moves/adds stay valid under any reordering —
// removes would invalidate later moves of the same id. Queries and updates
// draw from separate seeded streams, so adding updates leaves the queries
// unchanged.
// ---------------------------------------------------------------------------

eng::Query MakeQuery(const Args& args, size_t i, const IndoorPoint& a,
                     const IndoorPoint& b, bool has_keywords) {
  if (args.mix == "distance") return eng::Query::Distance(a, b);
  if (args.mix == "path") return eng::Query::Path(a, b);
  if (args.mix == "knn") return eng::Query::Knn(a, 5);
  if (args.mix == "range") return eng::Query::Range(a, 100.0);
  switch (i % 10) {
    case 0: case 1: case 2: case 3:
      return eng::Query::Distance(a, b);
    case 4: case 5:
      return eng::Query::Path(a, b);
    case 6: case 7:
      return eng::Query::Knn(a, 5);
    case 8:
      return eng::Query::Range(a, 100.0);
    default:
      return has_keywords ? eng::Query::BooleanKnn(a, 3, {"tag-0"})
                          : eng::Query::Knn(a, 3);
  }
}

std::vector<eng::Request> MakeRequests(const eng::VenueBundle& bundle,
                                       const Args& args,
                                       const std::string& venue_id) {
  const Venue& venue = bundle.venue();
  const bool has_keywords = bundle.has_keywords();
  const size_t num_objects = bundle.objects().NumObjects();
  Rng query_rng(args.seed);
  Rng update_rng(args.seed ^ 0x0BDE17A);
  const auto random_move = [&] {
    ObjectDelta delta;
    delta.moves.push_back(
        {static_cast<ObjectId>(update_rng.UniformIndex(num_objects)),
         synth::RandomIndoorPoint(venue, update_rng)});
    return eng::Request::Update(venue_id, std::move(delta));
  };

  std::vector<eng::Request> requests;
  requests.reserve(args.queries + args.updates);
  const size_t stride =
      args.updates == 0 ? args.queries + 1
                        : std::max<size_t>(1, args.queries / args.updates);
  size_t emitted_updates = 0;
  for (size_t i = 0; i < args.queries; ++i) {
    const IndoorPoint a = synth::RandomIndoorPoint(venue, query_rng);
    const IndoorPoint b = synth::RandomIndoorPoint(venue, query_rng);
    eng::Request request;
    request.venue_id = venue_id;
    request.query = MakeQuery(args, i, a, b, has_keywords);
    requests.push_back(std::move(request));
    if (emitted_updates < args.updates && (i + 1) % stride == 0) {
      if (num_objects > 0 && (!has_keywords || !update_rng.Chance(0.3))) {
        requests.push_back(random_move());
      } else {
        ObjectDelta delta;
        ObjectDelta::Add add;
        add.at = synth::RandomIndoorPoint(venue, update_rng);
        if (has_keywords) add.keywords = {"tag-0"};
        delta.adds.push_back(std::move(add));
        requests.push_back(eng::Request::Update(venue_id, std::move(delta)));
      }
      ++emitted_updates;
    }
  }
  // A short query list can leave stride budget unused; top up at the end.
  for (; emitted_updates < args.updates && num_objects > 0;
       ++emitted_updates) {
    requests.push_back(random_move());
  }
  return requests;
}

// ---------------------------------------------------------------------------
// One request stream, one tally, one summary — shared by the in-process
// driver and --connect.
// ---------------------------------------------------------------------------

// Where a driven stream's requests come from: workload lines, one request
// each — read from --input or stdin, or the generated workload's emitted
// text (so the default mode runs exactly what `--emit-workload | --serve`
// would).
class RequestSource {
 public:
  // kEither accepts the registry (venue-column) and the single-snapshot
  // (bare) format alike, for a remote driver.
  enum class Format { kBare, kVenue, kEither };

  // Reads `in`, or stdin when it is null.
  RequestSource(std::unique_ptr<std::istream> in, Format format)
      : in_(std::move(in)), format_(format) {}

  // The next request; false at the end of the stream. Blank lines and '#'
  // comments are skipped; malformed lines are reported and counted.
  bool Next(eng::Request* request) {
    std::istream& lines = in_ != nullptr ? *in_ : std::cin;
    std::string line;
    std::string error;
    while (std::getline(lines, line)) {
      ++line_number_;
      const size_t start = line.find_first_not_of(" \t\r");
      if (start == std::string::npos || line[start] == '#') continue;
      if (ParseLine(line, request, &error)) return true;
      std::fprintf(stderr, "warning: skipping line %zu: %s\n", line_number_,
                   error.c_str());
      ++malformed_;
    }
    return false;
  }

  size_t malformed() const { return malformed_; }

 private:
  // In kEither the venue column is tried first — its first token is a
  // venue id, never a parsable operation — so the two formats cannot be
  // confused, and its error is the one reported (the likelier intent).
  bool ParseLine(const std::string& line, eng::Request* request,
                 std::string* error) const {
    if (format_ != Format::kBare &&
        eng::workload::ParseLine(line, /*with_venue=*/true, request, error)) {
      return true;
    }
    std::string bare_error;
    return format_ != Format::kVenue &&
           eng::workload::ParseLine(
               line, /*with_venue=*/false, request,
               format_ == Format::kBare ? error : &bare_error);
  }

  std::unique_ptr<std::istream> in_;
  Format format_;
  size_t line_number_ = 0;
  size_t malformed_ = 0;
};

// The --input file as a line stream (null, meaning stdin, when no file is
// named); false after reporting a file that cannot be opened.
bool OpenInput(const std::string& input, std::unique_ptr<std::istream>* in) {
  if (input.empty()) return true;
  auto file = std::make_unique<std::ifstream>(input);
  if (!*file) {
    std::fprintf(stderr, "error: cannot open workload file '%s'\n",
                 input.c_str());
    return false;
  }
  *in = std::move(file);
  return true;
}

// Terminal outcomes of one driven stream.
struct Tally {
  size_t submitted = 0;
  uint64_t ok = 0, updates = 0, expired = 0, rejected = 0, failed = 0;

  void Count(eng::RequestStatus status, eng::RequestKind kind) {
    switch (status) {
      case eng::RequestStatus::kOk:
        ++(kind == eng::RequestKind::kUpdateObjects ? updates : ok);
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
  }
};

// Sends every request `source` yields, keeping at most `window` of them
// outstanding, and returns once all are answered. `send` submits one
// request; `receive` waits for one response and counts it. Either returns
// false on a fatal transport error, already reported, which ends the
// drive. SIGINT/SIGTERM stop the sending; what was sent is still awaited.
bool Drive(RequestSource* source, size_t window,
           const std::function<bool(eng::Request)>& send,
           const std::function<bool(Tally*)>& receive, Tally* tally) {
  size_t outstanding = 0;
  eng::Request request;
  while (!g_interrupted.load(std::memory_order_acquire) &&
         source->Next(&request)) {
    if (outstanding >= window) {
      if (!receive(tally)) return false;
      --outstanding;
    }
    request.tag = ++tally->submitted;
    if (!send(std::move(request))) return false;
    ++outstanding;
  }
  if (g_interrupted.load(std::memory_order_acquire)) {
    std::fprintf(stderr,
                 "signal received: draining %zu submitted request(s)\n",
                 tally->submitted);
  }
  for (; outstanding > 0; --outstanding) {
    if (!receive(tally)) return false;
  }
  return true;
}

// "<verb> N requests<where> (… ok, … failed) in T ms<suffix>" and the
// throughput line under it.
void PrintSummary(const char* verb, const std::string& where,
                  const std::string& suffix, const Tally& tally,
                  double wall_ms) {
  std::printf(
      "%s %zu requests%s (%llu ok, %llu updates, %llu expired, "
      "%llu rejected, %llu failed) in %.2f ms%s\n",
      verb, tally.submitted, where.c_str(),
      static_cast<unsigned long long>(tally.ok),
      static_cast<unsigned long long>(tally.updates),
      static_cast<unsigned long long>(tally.expired),
      static_cast<unsigned long long>(tally.rejected),
      static_cast<unsigned long long>(tally.failed), wall_ms, suffix.c_str());
  if (wall_ms > 0.0 && tally.submitted > 0) {
    std::printf("  throughput    %10.0f requests/s\n",
                tally.submitted / (wall_ms / 1000.0));
  }
}

// Exit status mirrors request outcomes so scripts can gate on it:
// malformed input, venue failures and queue rejections are errors;
// deadline expiry is the shedding the caller asked for and is not.
int ExitStatus(const RequestSource& source, const Tally& tally) {
  if (source.malformed() > 0) {
    std::fprintf(stderr, "error: %zu malformed workload line(s)\n",
                 source.malformed());
    return 1;
  }
  if (tally.failed > 0 || tally.rejected > 0) {
    std::fprintf(stderr, "error: %llu request(s) failed, %llu rejected\n",
                 static_cast<unsigned long long>(tally.failed),
                 static_cast<unsigned long long>(tally.rejected));
    return 1;
  }
  return 0;
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

// The in-process driver: submit every request `source` yields through
// `service`, drain, report.
int ServeMain(const Args& args, eng::Service* service,
              RequestSource* source) {
  service->Start();
  // SIGINT/SIGTERM stop the submitting; every request already submitted
  // is still answered and the summary prints.
  InstallDrainSignalHandlers();

  const Timer wall;
  // Backpressure: the window stays within the service's queue capacity,
  // so a fast producer waits on its oldest ticket instead of overflowing
  // the bounded queue into rejections.
  std::deque<eng::Ticket> tickets;
  Tally tally;
  // In-process sends and waits cannot fail, so neither can the drive.
  Drive(
      source, std::max<size_t>(1, args.queue_capacity),
      [&](eng::Request request) {
        if (args.deadline_ms > 0.0) {
          request.deadline = eng::DeadlineAfterMillis(args.deadline_ms);
        }
        tickets.push_back(service->Submit(std::move(request)));
        return true;
      },
      [&](Tally* counts) {
        const eng::Response& response = tickets.front().Wait();
        counts->Count(response.status, response.kind);
        tickets.pop_front();
        return true;
      },
      &tally);
  service->Drain();
  const double wall_ms = wall.ElapsedMillis();

  const eng::ServiceStats stats = service->Stats();
  PrintSummary("served", "",
               " on " + std::to_string(service->num_threads()) + " worker(s)",
               tally, wall_ms);
  std::printf("  queue p50     %10.2f us\n", stats.queue_micros.p50);
  std::printf("  queue p99     %10.2f us\n", stats.queue_micros.p99);
  std::printf("  latency p50   %10.2f us\n", stats.latency_micros.p50);
  std::printf("  latency p99   %10.2f us\n", stats.latency_micros.p99);
  if (stats.updates > 0) {
    std::printf("  update p99    %10.2f us\n", stats.update_micros.p99);
  }
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
  return ExitStatus(*source, tally);
}

// The --connect loop: the same workload lines as --serve, submitted to a
// remote shard or router through net::Client with a pipelined window.
int ConnectMain(const Args& args) {
  std::string error;
  std::unique_ptr<net::Client> client = net::Client::Connect(
      args.connect, &error);
  if (client == nullptr) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 1;
  }
  std::unique_ptr<std::istream> in;
  if (!OpenInput(args.input, &in)) return 1;
  RequestSource source(std::move(in), RequestSource::Format::kEither);

  const Timer wall;
  Tally tally;
  // Pipelining window: enough to keep the wire and the remote queue busy,
  // small enough never to overflow a default-capacity shard queue.
  const bool drove = Drive(
      &source,
      std::max<size_t>(1, std::min<size_t>(args.queue_capacity, 128)),
      [&](eng::Request request) {
        const io::Status status = client->Send(
            net::WireRequest::FromRequest(request, args.deadline_ms),
            request.tag);
        if (!status.ok()) {
          std::fprintf(stderr, "error: %s\n", status.error.c_str());
        }
        return status.ok();
      },
      [&](Tally* counts) {
        net::WireResponse response;
        uint64_t tag = 0;
        const io::Status status = client->Receive(&response, &tag, 30000.0);
        if (!status.ok()) {
          std::fprintf(stderr, "error: %s\n", status.error.c_str());
          return false;
        }
        counts->Count(response.status, response.kind);
        return true;
      },
      &tally);
  if (!drove) return 1;
  const double wall_ms = wall.ElapsedMillis();

  PrintSummary("sent", " to " + args.connect, "", tally, wall_ms);
  net::WireStats stats;
  if (client->Stats(&stats).ok()) {
    std::printf("  server latency p50 %.2f us, p99 %.2f us "
                "(%llu submitted fleet-wide)\n",
                stats.latency_p50, stats.latency_p99,
                static_cast<unsigned long long>(stats.submitted));
  }
  return ExitStatus(source, tally);
}

// The --listen loop: run this process as a network shard until a
// SIGTERM/SIGINT drains it, then report the final service stats.
int ListenMain(const Args& args, std::optional<eng::VenueRegistry> registry) {
  net::ShardServerOptions options;
  options.port = static_cast<uint16_t>(args.listen_port);
  options.service = ServiceOptionsFrom(args);

  std::unique_ptr<net::ShardServer> server;
  if (registry.has_value()) {
    server = std::make_unique<net::ShardServer>(std::move(*registry),
                                                std::move(options));
  } else {
    std::shared_ptr<const eng::VenueBundle> bundle =
        LoadSnapshot(args.snapshot);
    if (bundle == nullptr) return 1;
    server = std::make_unique<net::ShardServer>(std::move(bundle),
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

  // The single snapshot, or (for the generated workload) the --venue it
  // targets, loaded up front; a --serve registry loads venues lazily.
  const Timer load_timer;
  std::shared_ptr<const eng::VenueBundle> bundle;
  if (!registry.has_value()) {
    bundle = LoadSnapshot(args.snapshot);
    if (bundle == nullptr) return 1;
  } else if (!args.serve) {
    bundle = registry->Acquire(args.venue, &error);
    if (bundle == nullptr) {
      std::fprintf(stderr, "error: %s\n", error.c_str());
      return 1;
    }
  }

  std::unique_ptr<std::istream> in;
  if (args.serve) {
    if (!OpenInput(args.input, &in)) return 1;
  } else {
    if (!args.emit_workload) {
      std::printf(
          "snapshot loaded in %.1f ms (%s): %zu partitions, %zu doors, "
          "%zu objects, %s index%s\n",
          load_timer.ElapsedMillis(),
          bundle->zero_copy() ? "zero-copy mmap" : "copied",
          bundle->venue().NumPartitions(), bundle->venue().NumDoors(),
          bundle->objects().NumObjects(),
          HumanBytes(bundle->IndexMemoryBytes()).c_str(),
          bundle->has_keywords() ? " (with keywords)" : "");
    }
    // Registry-mode lines carry the venue column --serve expects.
    std::string text;
    for (const eng::Request& request : MakeRequests(
             *bundle, args, registry.has_value() ? args.venue : "")) {
      text += eng::workload::EmitLine(request) + "\n";
    }
    if (args.emit_workload) {
      std::fputs(text.c_str(), stdout);
      return 0;
    }
    in = std::make_unique<std::istringstream>(std::move(text));
  }
  RequestSource source(std::move(in), registry.has_value()
                                          ? RequestSource::Format::kVenue
                                          : RequestSource::Format::kBare);

  const eng::ServiceOptions options = ServiceOptionsFrom(args);
  std::unique_ptr<eng::Service> service =
      registry.has_value()
          ? std::make_unique<eng::Service>(std::move(*registry), options)
          : std::make_unique<eng::Service>(std::move(bundle), options);
  return ServeMain(args, service.get(), &source);
}
