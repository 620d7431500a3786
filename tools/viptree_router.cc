// viptree_router: the front process of a sharded deployment. Clients speak
// the same binary wire protocol to the router as to a shard
// (`viptree_query --listen`); the router forwards each request to the
// owning shard by consistent (rendezvous) assignment, fails over to the
// next healthy shard when one dies, and answers health/stats probes with
// the fleet-wide aggregate.
//
// Example (2 shards + router, all on loopback):
//   viptree_query --registry fleet/registry.txt --listen 7401 &
//   viptree_query --registry fleet/registry.txt --listen 7402 &
//   viptree_router --shards 127.0.0.1:7401,127.0.0.1:7402
//       --manifest fleet/registry.txt --listen 7400 &
//   viptree_query --connect 127.0.0.1:7400 --input workload.txt
//
// SIGTERM/SIGINT drain gracefully: stop accepting, answer everything in
// flight, flush, exit with a forwarding summary.

#include <signal.h>

#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "engine/venue_registry.h"
#include "flags.h"
#include "net/router.h"

namespace {

using namespace viptree;

struct Args {
  std::vector<std::string> shards;
  std::string manifest;  // optional: venue ids for the assignment banner
  int listen_port = 0;   // 0 = ephemeral (the bound port is printed)
  net::RouterOptions options;
  bool print_assignments = false;
};

void Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s --shards HOST:PORT[,HOST:PORT...] [--manifest PATH]\n"
      "          [--listen PORT] [--pool N] [--probe-interval-ms D]\n"
      "          [--probe-miss-limit N] [--max-attempts N]\n"
      "          [--print-assignments]\n"
      "\n"
      "Routes wire-protocol requests across a fixed shard fleet by\n"
      "consistent venue assignment, with health probing and failover.\n"
      "--manifest names the registry manifest whose venue ids the\n"
      "assignment banner reports (routing itself hashes whatever venue a\n"
      "request carries, manifest or not).\n",
      argv0);
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
    if (flag == "--shards") {
      if ((v = value()) == nullptr) return false;
      std::string list = v;
      size_t start = 0;
      while (start <= list.size()) {
        const size_t comma = list.find(',', start);
        const std::string endpoint =
            list.substr(start, comma == std::string::npos ? std::string::npos
                                                          : comma - start);
        if (!endpoint.empty()) args->shards.push_back(endpoint);
        if (comma == std::string::npos) break;
        start = comma + 1;
      }
    } else if (flag == "--manifest") {
      if ((v = value()) == nullptr) return false;
      args->manifest = v;
    } else if (flag == "--listen") {
      if ((v = value()) == nullptr) return false;
      if (!tools::ParseUnsignedFlag(argv[0], flag, v, &args->listen_port,
                                    65535)) {
        return false;
      }
    } else if (flag == "--pool") {
      if ((v = value()) == nullptr) return false;
      if (!tools::ParseUnsignedFlag(argv[0], flag, v,
                                    &args->options.pool_size)) {
        return false;
      }
    } else if (flag == "--probe-interval-ms") {
      if ((v = value()) == nullptr) return false;
      if (!tools::ParseNonNegativeFlag(argv[0], flag, v,
                                       &args->options.probe_interval_ms)) {
        return false;
      }
    } else if (flag == "--probe-miss-limit") {
      if ((v = value()) == nullptr) return false;
      if (!tools::ParseUnsignedFlag(argv[0], flag, v,
                                    &args->options.probe_miss_limit)) {
        return false;
      }
    } else if (flag == "--max-attempts") {
      if ((v = value()) == nullptr) return false;
      if (!tools::ParseUnsignedFlag(argv[0], flag, v,
                                    &args->options.max_attempts)) {
        return false;
      }
    } else if (flag == "--print-assignments") {
      args->print_assignments = true;
    } else if (flag == "--help" || flag == "-h") {
      Usage(argv[0]);
      return false;
    } else {
      std::fprintf(stderr, "%s: unknown flag %s\n", argv[0], flag.c_str());
      Usage(argv[0]);
      return false;
    }
  }
  if (args->shards.empty()) {
    std::fprintf(stderr, "%s: --shards is required\n", argv[0]);
    Usage(argv[0]);
    return false;
  }
  return true;
}

net::Router* g_router = nullptr;

void OnTerminateSignal(int) {
  // Async-signal-safe: atomic store + self-pipe write.
  if (g_router != nullptr) g_router->RequestDrain();
}

void InstallDrainSignalHandlers() {
  struct sigaction action{};
  action.sa_handler = OnTerminateSignal;
  sigemptyset(&action.sa_mask);
  action.sa_flags = 0;
  ::sigaction(SIGINT, &action, nullptr);
  ::sigaction(SIGTERM, &action, nullptr);
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!Parse(argc, argv, &args)) return 1;

  std::signal(SIGPIPE, SIG_IGN);

  std::vector<std::string> venue_ids;
  if (!args.manifest.empty()) {
    std::string error;
    std::optional<engine::VenueRegistry> registry =
        engine::VenueRegistry::Open(args.manifest, &error);
    if (!registry.has_value()) {
      std::fprintf(stderr, "error: %s\n", error.c_str());
      return 1;
    }
    venue_ids = registry->VenueIds();
  }

  args.options.port = static_cast<uint16_t>(args.listen_port);
  net::Router router(args.shards, venue_ids, args.options);
  if (io::Status status = router.Start(); !status.ok()) {
    std::fprintf(stderr, "error: %s\n", status.error.c_str());
    return 1;
  }
  g_router = &router;
  InstallDrainSignalHandlers();

  std::printf("router listening on 127.0.0.1:%u over %zu shard(s)\n",
              router.port(), args.shards.size());
  if (args.print_assignments || !venue_ids.empty()) {
    for (const auto& [venue, shard] : router.Assignments()) {
      std::printf("  venue %-16s -> shard %zu (%s)\n", venue.c_str(), shard,
                  args.shards[shard].c_str());
    }
  }
  std::fflush(stdout);

  router.Wait();  // returns once a signal-triggered drain completes
  g_router = nullptr;

  const net::RouterCounters counters = router.counters();
  std::printf(
      "router drained: %llu forwarded, %llu returned, %llu failover(s), "
      "%llu rejection(s), %llu protocol error(s), %llu shard "
      "disconnect(s)\n",
      static_cast<unsigned long long>(counters.requests_forwarded),
      static_cast<unsigned long long>(counters.responses_returned),
      static_cast<unsigned long long>(counters.failovers),
      static_cast<unsigned long long>(counters.no_shard_rejections),
      static_cast<unsigned long long>(counters.protocol_errors),
      static_cast<unsigned long long>(counters.shard_disconnects));
  return 0;
}
