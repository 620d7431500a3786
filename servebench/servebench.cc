// servebench: the repository's serving benchmark. One process stands up
// the real serving path — a net::Router in front of two loopback
// net::ShardServers, each wrapping a one-worker engine::Service with the
// shared per-venue distance cache and coalescing on — and drives one named
// workload through it from a single generator thread over four client
// connections.
//
//   --trace 0  end-to-end run: set-up (several times, median), a warm-up,
//              then a closed-loop step that keeps kCapacityWindow
//              requests in flight to measure sustained throughput. Prints
//              the end-to-end metrics.
//   --trace 1  per-layer run: one set-up, open-loop steps at the nominal
//              and the peak rate (latency percentiles plus the counters
//              the program returns), then a serial replay of the
//              same stream at each layer's public entry point (core
//              engines -> QueryEngine::Run -> Service Submit+Wait ->
//              Client::Call to a shard -> Client::Call via the router),
//              plus kernel and wire-codec timings on the workload's own
//              rows and frames. Prints the per-layer metrics.
//
// Every answer of every step is checked against an in-process reference.
// The last stdout line is one JSON object: {"correct", "attempted",
// "failed", "metrics"}. Rates and set-up counts come from workloads.json
// through servebench/run.py, which also builds this binary.

#include <malloc.h>
#include <sys/prctl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "check.h"
#include "common/kernels.h"
#include "common/stats.h"
#include "core/distance_cache.h"
#include "core/distance_query.h"
#include "core/path_query.h"
#include "engine/service.h"
#include "engine/venue_bundle.h"
#include "engine/venue_registry.h"
#include "net/client.h"
#include "net/router.h"
#include "net/shard_server.h"
#include "net/socket.h"
#include "net/wire.h"
#include "workload.h"

#ifndef SERVEBENCH_BUILD_TYPE
#define SERVEBENCH_BUILD_TYPE "unknown"
#endif

namespace servebench {
namespace {

namespace eng = viptree::engine;
namespace net = viptree::net;
using Clock = std::chrono::steady_clock;
using viptree::Summarize;
using viptree::Summary;
using viptree::Timer;

constexpr size_t kClientConnections = 4;
// Requests the closed-loop capacity step keeps in flight.
constexpr size_t kCapacityWindow = 64;
// The capacity step is measured in time slices of this length.
constexpr double kCapacitySliceSeconds = 0.5;
constexpr double kWarmupSeconds = 1.0;
// The traced run's open-loop steps, as shares of --seconds.
constexpr double kNominalShare = 0.6;
constexpr double kPeakShare = 0.4;
// A step is invalid when the generator fell behind its schedule: send
// lateness p50 above the first bound (it could not keep up), or p99 above
// the second (stalls beyond the few-ms preemptions a shared host shows).
constexpr double kMaxLateP50Us = 200.0;
constexpr double kMaxLateP99Us = 10000.0;
// The driver busy-polls this close to a scheduled send.
constexpr Clock::duration kSpinWindow = std::chrono::microseconds(200);
// How long a step waits for stragglers after its last send.
constexpr double kDrainTimeoutSeconds = 30.0;

// ---------------------------------------------------------------------------
// Flags.
// ---------------------------------------------------------------------------

struct Flags {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  double nominal_qps = 0.0;
  double peak_qps = 0.0;
  double capacity_cap = 0.0;    // req/s the capacity stream is sized for
  int setups = 3;
  size_t trace_requests = 2000;
  std::string work_dir;
  std::string source_id = "unknown";
};

[[noreturn]] void Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload NAME --seed N --seconds S --trace 0|1\n"
               "          --nominal QPS --peak QPS\n"
               "          --capacity-cap QPS\n"
               "          [--setups N] [--trace-requests N]\n"
               "          --work-dir DIR [--source-id ID]\n",
               argv0);
  std::exit(2);
}

Flags ParseFlags(int argc, char** argv) {
  Flags f;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage(argv[0]);
    const std::string v = argv[++i];
    if (flag == "--workload") {
      f.workload = v;
    } else if (flag == "--seed") {
      f.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      f.seconds = std::atof(v.c_str());
    } else if (flag == "--trace") {
      f.trace = v == "1";
    } else if (flag == "--nominal") {
      f.nominal_qps = std::atof(v.c_str());
    } else if (flag == "--peak") {
      f.peak_qps = std::atof(v.c_str());
    } else if (flag == "--capacity-cap") {
      f.capacity_cap = std::atof(v.c_str());
    } else if (flag == "--setups") {
      f.setups = std::atoi(v.c_str());
    } else if (flag == "--trace-requests") {
      f.trace_requests = std::strtoull(v.c_str(), nullptr, 10);
    } else if (flag == "--work-dir") {
      f.work_dir = v;
    } else if (flag == "--source-id") {
      f.source_id = v;
    } else {
      Usage(argv[0]);
    }
  }
  if (f.workload.empty() || f.work_dir.empty() || f.seconds <= 0.0 ||
      f.nominal_qps <= 0.0 || f.peak_qps <= 0.0 || f.capacity_cap <= 0.0 ||
      f.setups < 1) {
    Usage(argv[0]);
  }
  return f;
}

[[noreturn]] void Die(const std::string& message) {
  std::fprintf(stderr, "servebench: %s\n", message.c_str());
  std::exit(1);
}

// ---------------------------------------------------------------------------
// Environment stamp. Timings from a debug or sanitizer build are refused.
// ---------------------------------------------------------------------------

bool SanitizedBuild() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(undefined_behavior_sanitizer)
  return true;
#else
  return false;
#endif
#else
  return false;
#endif
}

bool AssertionsEnabled() {
#ifdef NDEBUG
  return false;
#else
  return true;
#endif
}

void PrintStamp(const Flags& f) {
  std::printf("# env {\"source\": \"%s\", \"nproc\": %u, \"kernels\": \"%s\", "
              "\"build_type\": \"%s\", \"workload\": \"%s\", \"seed\": %llu, "
              "\"trace\": %d}\n",
              f.source_id.c_str(), std::thread::hardware_concurrency(),
              viptree::kernels::ActivePathName(), SERVEBENCH_BUILD_TYPE,
              f.workload.c_str(), static_cast<unsigned long long>(f.seed),
              f.trace ? 1 : 0);
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::atof(line.c_str() + 6) / 1024.0;
    }
  }
  return 0.0;
}

double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

size_t Requests(double rate, double seconds) {
  return std::max<size_t>(1, static_cast<size_t>(rate * seconds));
}

// Requests the capacity step may send: capacity_cap for --seconds.
size_t CapacityRequests(const Flags& f) {
  return Requests(f.capacity_cap, f.seconds);
}

// ---------------------------------------------------------------------------
// Set-up: build the bundle, save the snapshot, start two shards over the
// registry and a router in front, wait until the router sees both shards
// healthy, and touch each venue once so the shards load it.
// ---------------------------------------------------------------------------

struct SetupTimes {
  double build_s = 0.0;
  double save_s = 0.0;
  double start_s = 0.0;
  double load_s = 0.0;
  double index_mb = 0.0;
  double snapshot_mb = 0.0;
  double total_s() const { return build_s + save_s + start_s + load_s; }
};

eng::ServiceOptions ShardServiceOptions() {
  eng::ServiceOptions options;
  options.num_threads = 1;
  options.cache.enabled = true;  // default capacity, shared per venue
  options.coalesce.enabled = true;  // default window
  return options;
}

class Stack {
 public:
  Stack(const std::string& manifest, const std::vector<std::string>& venues) {
    for (int i = 0; i < 2; ++i) {
      std::string error;
      std::optional<eng::VenueRegistry> registry =
          eng::VenueRegistry::Open(manifest, &error);
      if (!registry.has_value()) Die("registry: " + error);
      net::ShardServerOptions options;
      options.service = ShardServiceOptions();
      shards_[i] = std::make_unique<net::ShardServer>(std::move(*registry),
                                                      options);
      if (!shards_[i]->Start().ok()) Die("shard start failed");
    }
    router_ = std::make_unique<net::Router>(
        std::vector<std::string>{Endpoint(shards_[0]->port()),
                                 Endpoint(shards_[1]->port())},
        venues);
    if (!router_->Start().ok()) Die("router start failed");
    const Clock::time_point give_up = Clock::now() + std::chrono::seconds(10);
    while (router_->healthy_shards() < 2) {
      if (Clock::now() > give_up) Die("shards never became healthy");
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }
  ~Stack() {
    router_->Stop();
    for (auto& shard : shards_) shard->Stop();
  }
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  static std::string Endpoint(uint16_t port) {
    return "127.0.0.1:" + std::to_string(port);
  }
  uint16_t router_port() const { return router_->port(); }
  net::Router& router() { return *router_; }
  net::ShardServer& shard(size_t i) { return *shards_[i]; }

 private:
  std::unique_ptr<net::ShardServer> shards_[2];
  std::unique_ptr<net::Router> router_;
};

struct Served {
  std::unique_ptr<Stack> stack;
  SetupTimes times;
  std::string snapshot;
  std::string manifest;
};

Served SetUp(const Scenario& sc, const std::string& dir) {
  Served out;
  Venue venue = MakeVenue(sc.shape);
  eng::EngineOptions options;
  options.object_keywords = sc.keywords;
  std::vector<IndoorPoint> objects = sc.objects;

  Timer timer;
  const eng::VenueBundle bundle =
      eng::VenueBundle::Build(std::move(venue), std::move(objects), options);
  out.times.build_s = timer.ElapsedSeconds();
  out.times.index_mb = static_cast<double>(bundle.IndexMemoryBytes()) / 1e6;

  out.snapshot = dir + "/venue.vipsnap";
  out.manifest = dir + "/registry.txt";
  std::remove(out.manifest.c_str());
  timer.Reset();
  if (!bundle.Save(out.snapshot).ok()) Die("cannot save " + out.snapshot);
  for (const std::string& id : sc.venue_ids) {
    if (!eng::VenueRegistry::UpsertManifestEntry(out.manifest, id,
                                                 "venue.vipsnap")
             .ok()) {
      Die("cannot write " + out.manifest);
    }
  }
  out.times.save_s = timer.ElapsedSeconds();
  struct stat st {};
  if (::stat(out.snapshot.c_str(), &st) == 0) {
    out.times.snapshot_mb = static_cast<double>(st.st_size) / 1e6;
  }

  timer.Reset();
  out.stack = std::make_unique<Stack>(out.manifest, sc.venue_ids);
  out.times.start_s = timer.ElapsedSeconds();

  // First touch: one distance query per venue makes its shard load the
  // snapshot.
  timer.Reset();
  std::string error;
  std::unique_ptr<net::Client> client = net::Client::Connect(
      Stack::Endpoint(out.stack->router_port()), &error);
  if (client == nullptr) Die("connect: " + error);
  for (const std::string& id : sc.venue_ids) {
    eng::Request probe;
    probe.venue_id = id;
    probe.query = eng::Query::Distance(sc.objects.front(), sc.objects.back());
    net::WireResponse response;
    if (!client->Call(net::WireRequest::FromRequest(probe, 0.0), &response)
             .ok() ||
        !response.ok()) {
      Die("first-touch query failed on " + id);
    }
  }
  out.times.load_s = timer.ElapsedSeconds();
  return out;
}

// ---------------------------------------------------------------------------
// The open-loop driver: one thread, kClientConnections connections to the
// router, requests sent at their scheduled offsets regardless of
// completions, latency measured from the scheduled send.
// ---------------------------------------------------------------------------

struct StepHealth {
  double late_p99_us = 0.0;
  size_t backlog = 0;  // outstanding when the last request was sent
  bool valid = true;
};

class Driver {
 public:
  explicit Driver(uint16_t port) {
    for (size_t c = 0; c < kClientConnections; ++c) {
      Conn conn;
      if (!net::ConnectTcp(Stack::Endpoint(port), 5000.0, &conn.sock).ok()) {
        Die("driver connect failed");
      }
      conns_.push_back(std::move(conn));
    }
  }

  // Sends frames[j] (tagged j + 1) at offsets[j] seconds after the start.
  std::vector<Record> Run(const std::vector<std::vector<uint8_t>>& frames,
                          const std::vector<double>& offsets,
                          StepHealth* health) {
    const size_t n = frames.size();
    std::vector<Record> records(n);
    std::vector<std::vector<uint8_t>> outbox(conns_.size());
    std::vector<pollfd> fds;
    for (Conn& conn : conns_) fds.push_back({conn.sock.fd(), POLLIN, 0});

    const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(2);
    const auto due = [&](size_t j) {
      return t0 + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(offsets[j]));
    };
    size_t next = 0, received = 0;
    bool backlog_taken = false;
    Clock::time_point last_send = t0;
    while (received < n) {
      Clock::time_point now = Clock::now();
      if (next < n && due(next) <= now) {
        const size_t batch_begin = next;
        while (next < n && due(next) <= now) {
          std::vector<uint8_t>& out = outbox[next % conns_.size()];
          out.insert(out.end(), frames[next].begin(), frames[next].end());
          ++next;
        }
        for (size_t c = 0; c < conns_.size(); ++c) {
          if (!outbox[c].empty()) SendAll(conns_[c], &outbox[c]);
        }
        last_send = Clock::now();
        const double sent = Seconds(last_send - t0);
        for (size_t j = batch_begin; j < next; ++j) {
          records[j].due_s = offsets[j];
          records[j].sent_s = sent;
        }
      }
      if (next == n && !backlog_taken) {
        health->backlog = n - received;
        backlog_taken = true;
      }
      now = Clock::now();
      Clock::duration wait;
      if (next < n) {
        // Sleep only until kSpinWindow before the next send, then poll
        // without blocking: a sleeping vCPU wakes too late to keep an
        // open-loop schedule.
        wait = std::max(Clock::duration::zero(),
                        due(next) - now - kSpinWindow);
      } else {
        const Clock::time_point give_up =
            last_send + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(
                                kDrainTimeoutSeconds));
        if (now >= give_up) break;  // the rest count as missing
        wait = std::min<Clock::duration>(give_up - now,
                                         std::chrono::milliseconds(100));
      }
      const auto ns =
          std::chrono::duration_cast<std::chrono::nanoseconds>(wait).count();
      timespec ts{static_cast<time_t>(ns / 1000000000),
                  static_cast<long>(ns % 1000000000)};
      const int ready = ::ppoll(fds.data(), fds.size(), &ts, nullptr);
      if (ready <= 0) continue;
      for (size_t c = 0; c < conns_.size(); ++c) {
        if (fds[c].revents == 0) continue;
        received += Drain(conns_[c], t0, &records);
      }
    }
    std::vector<double> late;
    late.reserve(n);
    for (const Record& r : records) late.push_back((r.sent_s - r.due_s) * 1e6);
    const Summary late_us = Summarize(late);
    health->late_p99_us = late_us.p99;
    health->valid = late_us.p50 <= kMaxLateP50Us &&
                    late_us.p99 <= kMaxLateP99Us;
    return records;
  }

  // Closed loop: keeps kCapacityWindow requests in flight (each response
  // releases the next send) until `seconds` have passed or the frames run
  // out, then waits for the stragglers. Returns the records of the requests
  // sent.
  std::vector<Record> RunClosed(const std::vector<std::vector<uint8_t>>& frames,
                                double seconds) {
    std::vector<Record> records(frames.size());
    std::vector<std::vector<uint8_t>> outbox(conns_.size());
    std::vector<pollfd> fds;
    for (Conn& conn : conns_) fds.push_back({conn.sock.fd(), POLLIN, 0});
    const Clock::time_point t0 = Clock::now();
    const Clock::time_point stop =
        t0 + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(seconds));
    size_t sent = 0, received = 0;
    while (true) {
      const Clock::time_point now = Clock::now();
      const bool sending = now < stop && sent < frames.size();
      if (sending && sent - received < kCapacityWindow) {
        const double at = Seconds(now - t0);
        while (sent < frames.size() && sent - received < kCapacityWindow) {
          std::vector<uint8_t>& out = outbox[sent % conns_.size()];
          out.insert(out.end(), frames[sent].begin(), frames[sent].end());
          records[sent].due_s = records[sent].sent_s = at;
          ++sent;
        }
        for (size_t c = 0; c < conns_.size(); ++c) {
          if (!outbox[c].empty()) SendAll(conns_[c], &outbox[c]);
        }
      }
      if (!sending && received == sent) break;
      if (now > stop + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(
                               kDrainTimeoutSeconds))) {
        break;  // the rest count as missing
      }
      timespec ts{0, 100 * 1000 * 1000};
      if (::ppoll(fds.data(), fds.size(), &ts, nullptr) <= 0) continue;
      for (size_t c = 0; c < conns_.size(); ++c) {
        if (fds[c].revents != 0) received += Drain(conns_[c], t0, &records);
      }
    }
    records.resize(sent);
    return records;
  }

 private:
  struct Conn {
    net::Socket sock;
    net::FrameDecoder decoder;
  };

  static void SendAll(Conn& conn, std::vector<uint8_t>* bytes) {
    size_t sent = 0;
    while (sent < bytes->size()) {
      const ssize_t k = ::send(conn.sock.fd(), bytes->data() + sent,
                               bytes->size() - sent, MSG_NOSIGNAL);
      if (k < 0) {
        if (errno == EINTR) continue;
        Die(std::string("send: ") + std::strerror(errno));
      }
      sent += static_cast<size_t>(k);
    }
    bytes->clear();
  }

  // Reads everything available on `conn`; returns responses completed.
  static size_t Drain(Conn& conn, Clock::time_point t0,
                      std::vector<Record>* records) {
    size_t completed = 0;
    uint8_t chunk[64 * 1024];
    while (true) {
      const ssize_t k = ::recv(conn.sock.fd(), chunk, sizeof(chunk),
                               MSG_DONTWAIT);
      if (k < 0 && errno == EINTR) continue;
      if (k <= 0) {
        if (k == 0) Die("router closed a client connection");
        if (errno != EAGAIN && errno != EWOULDBLOCK) {
          Die(std::string("recv: ") + std::strerror(errno));
        }
        break;
      }
      const double at = Seconds(Clock::now() - t0);
      conn.decoder.Feed(chunk, static_cast<size_t>(k));
      while (std::optional<net::Frame> frame = conn.decoder.Next()) {
        if (frame->type != net::FrameType::kResponse || frame->tag == 0 ||
            frame->tag > records->size()) {
          Die("unexpected frame from the router");
        }
        Record& record = (*records)[frame->tag - 1];
        viptree::io::Reader reader(viptree::Span<const uint8_t>(
            frame->payload.data(), frame->payload.size()));
        std::string error;
        if (!net::DecodeResponsePayload(&reader, &record.response, &error)) {
          Die("response decode: " + error);
        }
        record.recv_s = at;
        ++completed;
      }
      if (conn.decoder.failed()) Die("wire: " + conn.decoder.error());
    }
    return completed;
  }

  std::vector<Conn> conns_;
};

// ---------------------------------------------------------------------------
// Steps.
// ---------------------------------------------------------------------------

struct StepResult {
  double rate = 0.0;
  size_t first = 0;
  size_t count = 0;
  std::vector<Record> records;
  StepHealth health;
  CheckResult check;
  Summary query_us;   // scheduled send -> response; missing = +inf
  Summary update_us;
  std::vector<double> exec_us, queue_us, residual_us;  // answered queries
};

struct Tally {
  size_t attempted = 0;
  size_t failed = 0;  // wrong answers, non-kOk statuses, missing responses
  size_t invalid_steps = 0;
  void Add(const StepResult& step) {
    attempted += step.count;
    failed += step.check.failed();
    if (!step.health.valid) ++invalid_steps;
  }
};

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v.empty() ? 0.0 : v[(v.size() - 1) / 2];
}

class Runner {
 public:
  Runner(const Scenario& sc, Driver* driver, AnswerChecker* checker)
      : sc_(sc), driver_(driver), checker_(checker) {}

  size_t consumed() const { return next_; }

  // Sustained throughput: the closed-loop driver keeps kCapacityWindow
  // requests in flight for `seconds` (or until the stream runs out). Cut
  // into slices of kCapacitySliceSeconds, the step's capacity is the median
  // of the slices' completion rates, so a host stall spoils one slice, not
  // the figure. Adds the step to *tally.
  double Capacity(double seconds, size_t max_requests, Tally* tally) {
    if (next_ + max_requests > sc_.stream.size()) {
      Die("stream too short for the configured steps");
    }
    std::vector<std::vector<uint8_t>> frames;
    frames.reserve(max_requests);
    for (size_t j = 0; j < max_requests; ++j) {
      frames.push_back(net::EncodeRequestFrame(
          net::WireRequest::FromRequest(sc_.stream[next_ + j], 0.0), j + 1));
    }
    const std::vector<Record> records =
        driver_->RunClosed(frames, seconds);
    const CheckResult check = checker_->Check(sc_.stream, next_, records);
    next_ += records.size();
    tally->attempted += records.size();
    tally->failed += check.failed();
    const double end = std::min(seconds, records.back().sent_s);
    const size_t slices = std::max<size_t>(
        1, static_cast<size_t>(end / kCapacitySliceSeconds));
    const double slice = end / static_cast<double>(slices);
    std::vector<double> rates(slices, 0.0);
    for (const Record& r : records) {
      if (!r.answered() || r.recv_s >= end) continue;
      const size_t k =
          std::min(slices - 1, static_cast<size_t>(r.recv_s / slice));
      rates[k] += 1.0 / slice;
    }
    const double qps = Median(rates);
    std::string series;
    for (const double rate : rates) {
      series += " " + std::to_string(std::lround(rate));
    }
    std::printf("# capacity window=%zu n=%zu %.1f req/s (slices%s) failed=%zu "
                "reordered=%zu\n",
                kCapacityWindow, records.size(), qps, series.c_str(),
                check.failed(), check.reordered);
    return qps;
  }

  StepResult Step(double rate, double seconds) {
    StepResult step;
    step.rate = rate;
    step.first = next_;
    step.count = Requests(rate, seconds);
    if (step.first + step.count > sc_.stream.size()) {
      Die("stream too short for the configured steps");
    }
    next_ += step.count;
    std::vector<std::vector<uint8_t>> frames;
    frames.reserve(step.count);
    for (size_t j = 0; j < step.count; ++j) {
      frames.push_back(net::EncodeRequestFrame(
          net::WireRequest::FromRequest(sc_.stream[step.first + j], 0.0),
          j + 1));
    }
    const std::vector<double> offsets =
        sc_.Offsets(step.first, step.count, rate);
    step.records = driver_->Run(frames, offsets, &step.health);
    step.check = checker_->Check(sc_.stream, step.first, step.records);

    std::vector<double> query, update;
    for (size_t j = 0; j < step.count; ++j) {
      const Record& r = step.records[j];
      const double us = r.answered() ? (r.recv_s - r.due_s) * 1e6
                                     : std::numeric_limits<double>::infinity();
      if (sc_.stream[step.first + j].kind == eng::RequestKind::kQuery) {
        query.push_back(us);
        if (r.answered() && r.response.ok()) {
          const double exec = r.response.result.latency_micros;
          const double queue = r.response.queue_micros;
          step.exec_us.push_back(exec);
          step.queue_us.push_back(queue);
          step.residual_us.push_back((r.recv_s - r.sent_s) * 1e6 - queue -
                                     exec);
        }
      } else {
        update.push_back(us);
      }
    }
    step.query_us = Summarize(query);
    step.update_us = Summarize(update);
    std::printf("# step rate=%.0f n=%zu q_p50=%.1fus q_p99=%.1fus "
                "u_p50=%.1fus late_p99=%.1fus backlog=%zu "
                "valid=%d failed=%zu reordered=%zu\n",
                rate, step.count, step.query_us.p50, step.query_us.p99,
                step.update_us.p50,
                step.health.late_p99_us, step.health.backlog,
                step.health.valid ? 1 : 0, step.check.failed(),
                step.check.reordered);
    // Let the stack go idle before the next step.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    return step;
  }

 private:
  const Scenario& sc_;
  Driver* driver_;
  AnswerChecker* checker_;
  size_t next_ = 0;
};

// ---------------------------------------------------------------------------
// Reporting.
// ---------------------------------------------------------------------------

class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    if (!std::isfinite(value)) value = 1e12;  // JSON has no infinity
    metrics_.emplace_back(name, std::make_pair(value, unit));
  }
  void Print(bool correct, size_t attempted, size_t failed) const {
    std::string out = "{\"correct\": ";
    out += correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"metrics\": {";
    char buf[128];
    for (size_t i = 0; i < metrics_.size(); ++i) {
      std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.12g, ",
                    i == 0 ? "" : ", ", metrics_[i].first.c_str(),
                    metrics_[i].second.first);
      out += buf;
      out += "\"unit\": \"" + metrics_[i].second.second + "\"}";
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
  }

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>>
      metrics_;
};


// ---------------------------------------------------------------------------
// Traced run: serial replays at each layer's entry point.
// ---------------------------------------------------------------------------

double Mean(const std::vector<double>& v) {
  double total = 0.0;
  for (double x : v) total += x;
  return v.empty() ? 0.0 : total / static_cast<double>(v.size());
}

std::shared_ptr<const eng::VenueBundle> LoadBundle(const std::string& path) {
  std::string error;
  std::optional<eng::VenueBundle> bundle =
      eng::VenueBundle::TryLoad(path, &error);
  if (!bundle.has_value()) Die("load " + path + ": " + error);
  return std::make_shared<const eng::VenueBundle>(std::move(*bundle));
}

std::shared_ptr<viptree::DistanceCache> MakeCache(const Venue& venue) {
  viptree::DistanceCacheOptions options;
  options.capacity = viptree::AdaptiveCacheCapacity(venue.NumDoors());
  return std::make_shared<viptree::DistanceCache>(options);
}

// The core layer: the §3 engines called directly over one loaded bundle.
class CoreLayer {
 public:
  explicit CoreLayer(std::shared_ptr<const eng::VenueBundle> bundle)
      : bundle_(std::move(bundle)),
        cache_(MakeCache(bundle_->venue())),
        distance_(bundle_->tree(), bundle_->query_options(), cache_.get()),
        path_(bundle_->tree(), bundle_->query_options(), cache_.get()) {
    Repin();
  }

  void Move(const viptree::ObjectDelta& delta) {
    if (bundle_->live_objects().ApplyDelta(delta).has_value()) {
      Die("core replay move failed");
    }
    Repin();
  }

  // Returns the work counters of object queries through *stats.
  void Run(const eng::Query& q, viptree::SearchStats* stats) {
    switch (q.type) {
      case eng::QueryType::kDistance:
        Keep(distance_.Distance(q.source, q.target));
        break;
      case eng::QueryType::kPath:
        Keep(path_.Path(q.source, q.target).distance);
        break;
      case eng::QueryType::kKnn:
        Keep(objects_->Knn(q.source, q.k, stats).size());
        break;
      case eng::QueryType::kRange:
        Keep(objects_->Range(q.source, q.radius, stats).size());
        break;
      case eng::QueryType::kBooleanKnn:
        Keep(objects_->BooleanKnn(q.source, q.k, q.keywords, stats).size());
        break;
    }
  }

 private:
  template <typename T>
  static void Keep(const T& value) {
    asm volatile("" : : "m"(value) : "memory");
  }
  void Repin() {
    objects_ = std::make_unique<viptree::SnapshotQuery>(
        bundle_->tree().base(), bundle_->live_objects().Acquire(),
        bundle_->query_options(), cache_.get());
  }

  std::shared_ptr<const eng::VenueBundle> bundle_;
  std::shared_ptr<viptree::DistanceCache> cache_;
  viptree::VIPDistanceQuery distance_;
  viptree::VIPPathQuery path_;
  std::unique_ptr<viptree::SnapshotQuery> objects_;
};

struct TraceSample {
  std::vector<size_t> indices;  // stream indices, in order
};

size_t VenueOf(const Scenario& sc, const eng::Request& r) {
  return static_cast<size_t>(
      std::find(sc.venue_ids.begin(), sc.venue_ids.end(), r.venue_id) -
      sc.venue_ids.begin());
}

// One layer of the traced replay: `call` answers (or applies) one request
// at the layer's entry point; `timed` is false on the warm-up pass.
struct TracedLayer {
  std::function<void(const eng::Request&, bool timed)> call;
  std::vector<double> us;  // per replayed query, in order
};

// Replays `sample` through every layer request by request, so all layers
// see the same moment of the host: one warm-up pass over the queries, then
// one timed pass over queries and moves in stream order, so every query
// sees the objects as the stream left them at its point.
void ReplayLayers(const Scenario& sc, const TraceSample& sample,
                  const std::vector<TracedLayer*>& layers) {
  for (const size_t i : sample.indices) {
    if (sc.stream[i].kind != eng::RequestKind::kQuery) continue;
    for (TracedLayer* layer : layers) layer->call(sc.stream[i], false);
  }
  for (const size_t i : sample.indices) {
    const bool query = sc.stream[i].kind == eng::RequestKind::kQuery;
    for (TracedLayer* layer : layers) {
      const Timer timer;
      layer->call(sc.stream[i], true);
      if (query) layer->us.push_back(timer.ElapsedMicros());
    }
  }
}

// Times `sweep` (which returns the elements it touched) repeatedly for
// about 50 ms; nanoseconds per element.
template <typename Sweep>
double NsPerElement(Sweep&& sweep) {
  size_t elements = 0;
  int reps = 0;
  const Timer timer;
  do {
    elements += sweep();
    ++reps;
  } while (timer.ElapsedMicros() < 50000.0 && reps < 1000);
  return elements == 0 ? 0.0 : timer.ElapsedMicros() * 1000.0 / elements;
}

// The kernels on the workload's own rows: object-index leaf rows (kNN
// min-plus scan, range filter) and node-matrix rows gathered through each
// node's access-door columns (ascent step, LCA join).
void TraceKernels(const eng::VenueBundle& bundle, Report* report) {
  namespace k = viptree::kernels;
  const viptree::IPTree& tree = bundle.tree().base();
  const viptree::ObjectIndex& objects = bundle.objects();
  std::vector<double> best;
  std::vector<int32_t> out;
  double sink = 0.0;

  std::vector<viptree::Span<const double>> leaf_rows;
  std::vector<std::pair<const viptree::TreeNode*, std::vector<int32_t>>>
      node_cols;
  size_t widest = 1;
  for (const viptree::TreeNode& node : tree.nodes()) {
    if (node.is_leaf()) {
      for (size_t col = 0; col < node.access_doors.size(); ++col) {
        const viptree::Span<const double> row =
            objects.DoorDistances(node.id, col);
        if (row.size() == 0) continue;
        leaf_rows.push_back(row);
        widest = std::max(widest, row.size());
      }
    } else if (!node.access_doors.empty()) {
      std::vector<int32_t> cols;
      for (const viptree::DoorId d : node.access_doors) {
        const auto it = std::lower_bound(node.matrix_doors.begin(),
                                         node.matrix_doors.end(), d);
        cols.push_back(static_cast<int32_t>(it - node.matrix_doors.begin()));
      }
      widest = std::max(widest, cols.size());
      node_cols.emplace_back(&node, std::move(cols));
    }
  }
  best.assign(widest, 1e9);
  out.assign(widest, 0);
  std::vector<double> addend(widest, 2.0);

  report->Add("kernels.minplus_ns_el", NsPerElement([&] {
                size_t n = 0;
                for (const auto& row : leaf_rows) {
                  k::MinPlusRow(best.data(), row.data(), 1.5, row.size());
                  n += row.size();
                }
                return n;
              }),
              "ns/el");
  report->Add("kernels.filter_ns_el", NsPerElement([&] {
                size_t n = 0;
                for (const auto& row : leaf_rows) {
                  sink += static_cast<double>(k::FilterLeq(
                      row.data(), row.size(), 50.0, out.data()));
                  n += row.size();
                }
                return n;
              }),
              "ns/el");
  report->Add("kernels.gather_ns_el", NsPerElement([&] {
                size_t n = 0;
                for (const auto& [node, cols] : node_cols) {
                  for (size_t r = 0; r < node->dist.rows(); ++r) {
                    k::MinPlusGatherF32(best.data(), node->dist.row(r).data(),
                                        cols.data(), 0.5, cols.size());
                    n += cols.size();
                  }
                }
                return n;
              }),
              "ns/el");
  report->Add("kernels.join_ns_el", NsPerElement([&] {
                size_t n = 0;
                for (const auto& [node, cols] : node_cols) {
                  for (size_t r = 0; r < node->dist.rows(); ++r) {
                    sink += k::JoinMinIndexedF32(0.5, node->dist.row(r).data(),
                                                 cols.data(), addend.data(),
                                                 cols.size());
                    n += cols.size();
                  }
                }
                return n;
              }),
              "ns/el");
  asm volatile("" : : "m"(sink) : "memory");
}

// The wire codec on the workload's own request and response frames.
void TraceWire(const Scenario& sc, const TraceSample& sample,
               const std::vector<net::WireResponse>& responses,
               Report* report) {
  std::vector<net::WireRequest> requests;
  for (const size_t i : sample.indices) {
    requests.push_back(net::WireRequest::FromRequest(sc.stream[i], 0.0));
  }
  double encode_us = 0.0, decode_us = 0.0, req_bytes = 0.0, resp_bytes = 0.0;
  size_t frames = 0;
  constexpr int kReps = 5;
  for (int rep = 0; rep < kReps; ++rep) {
    std::vector<std::vector<uint8_t>> encoded;
    Timer timer;
    for (size_t j = 0; j < requests.size(); ++j) {
      encoded.push_back(net::EncodeRequestFrame(requests[j], j + 1));
    }
    for (size_t j = 0; j < responses.size(); ++j) {
      encoded.push_back(net::EncodeResponseFrame(responses[j], j + 1));
    }
    encode_us += timer.ElapsedMicros();
    timer.Reset();
    for (size_t j = 0; j < encoded.size(); ++j) {
      net::FrameDecoder decoder;
      decoder.Feed(encoded[j].data(), encoded[j].size());
      std::optional<net::Frame> frame = decoder.Next();
      if (!frame.has_value()) Die("wire trace: frame did not decode");
      viptree::io::Reader reader(viptree::Span<const uint8_t>(
          frame->payload.data(), frame->payload.size()));
      std::string error;
      bool ok = false;
      if (j < requests.size()) {
        net::WireRequest request;
        ok = net::DecodeRequestPayload(&reader, &request, &error);
      } else {
        net::WireResponse response;
        ok = net::DecodeResponsePayload(&reader, &response, &error);
      }
      if (!ok) Die("wire trace: " + error);
    }
    decode_us += timer.ElapsedMicros();
    frames += encoded.size();
    if (rep == 0) {
      for (size_t j = 0; j < encoded.size(); ++j) {
        (j < requests.size() ? req_bytes : resp_bytes) +=
            static_cast<double>(encoded[j].size());
      }
    }
  }
  report->Add("wire.encode_ns", encode_us * 1000.0 / frames, "ns");
  report->Add("wire.decode_ns", decode_us * 1000.0 / frames, "ns");
  report->Add("wire.req_bytes", req_bytes / requests.size(), "bytes");
  report->Add("wire.resp_bytes",
              responses.empty() ? 0.0 : resp_bytes / responses.size(),
              "bytes");
}

// Sums the counters of both shards' services.
eng::ServiceStats FleetServiceStats(Stack& stack) {
  eng::ServiceStats total;
  for (size_t i = 0; i < 2; ++i) {
    const eng::ServiceStats s = stack.shard(i).ServiceStatsNow();
    total.num_queries += s.num_queries;
    total.updates += s.updates;
    total.rejected += s.rejected;
    total.expired += s.expired;
    total.cache += s.cache;
    total.plan.Merge(s.plan);
  }
  return total;
}

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  return v[static_cast<size_t>(p * static_cast<double>(v.size() - 1))];
}

void PrintSetup(const SetupTimes& t) {
  std::printf("# setup build=%.3fs save=%.3fs start=%.3fs load=%.3fs "
              "total=%.3fs index=%.2fMB snapshot=%.2fMB\n",
              t.build_s, t.save_s, t.start_s, t.load_s, t.total_s(),
              t.index_mb, t.snapshot_mb);
}

int RunEndToEnd(const Flags& f, const Scenario& sc) {
  Served served;
  std::vector<double> setup_s;
  double rss_mb = 0.0;
  for (int k = 0; k < f.setups; ++k) {
    served.stack.reset();  // one serving stack at a time
    served = SetUp(sc, f.work_dir);
    PrintSetup(served.times);
    setup_s.push_back(served.times.total_s());
    // Peak memory of one set-up (index construction dominates it); later
    // set-ups reuse freed memory unpredictably.
    if (k == 0) rss_mb = PeakRssMb();
  }
  AnswerChecker checker(served.snapshot, sc.venue_ids);
  Driver driver(served.stack->router_port());
  Runner runner(sc, &driver, &checker);
  Tally tally;
  tally.Add(runner.Step(f.nominal_qps, kWarmupSeconds));
  const double capacity =
      runner.Capacity(f.seconds, CapacityRequests(f), &tally);

  Report report;
  report.Add("capacity_qps", capacity, "req/s");
  report.Add("setup_s", Median(setup_s), "s");
  report.Add("index_mb", served.times.index_mb, "MB");
  report.Add("rss_mb", rss_mb, "MB");
  served.stack.reset();
  report.Print(tally.failed == 0, tally.attempted, tally.failed);
  return 0;
}

int RunTrace(const Flags& f, const Scenario& sc) {
  Report report;
  Served served = SetUp(sc, f.work_dir);
  PrintSetup(served.times);
  Stack& stack = *served.stack;
  AnswerChecker checker(served.snapshot, sc.venue_ids);
  Driver driver(stack.router_port());
  Runner runner(sc, &driver, &checker);
  Tally tally;
  tally.Add(runner.Step(f.nominal_qps, kWarmupSeconds));
  const eng::ServiceStats before = FleetServiceStats(stack);
  const net::RouterCounters router_before = stack.router().counters();
  const uint64_t frames_before =
      stack.shard(0).frames_received() + stack.shard(1).frames_received();
  const StepResult nominal =
      runner.Step(f.nominal_qps, f.seconds * kNominalShare);
  tally.Add(nominal);
  const eng::ServiceStats after = FleetServiceStats(stack);
  const net::RouterCounters router_after = stack.router().counters();
  const uint64_t frames_after =
      stack.shard(0).frames_received() + stack.shard(1).frames_received();
  const StepResult peak = runner.Step(f.peak_qps, f.seconds * kPeakShare);
  tally.Add(peak);
  report.Add("query_p50_us", nominal.query_us.p50, "us");
  report.Add("query_p99_us", nominal.query_us.p99, "us");
  report.Add("query_p99_us_peak", peak.query_us.p99, "us");
  report.Add("update_p50_us", nominal.update_us.p50, "us");

  // The replay sample: the stream right after the timed steps.
  TraceSample sample;
  for (size_t i = 0; i < f.trace_requests; ++i) {
    sample.indices.push_back(runner.consumed() + i);
  }

  // core: the §3 engines called directly, per venue.
  std::vector<std::unique_ptr<CoreLayer>> core;
  // engine: QueryEngine::Run over its own loaded bundle and cache.
  std::vector<std::unique_ptr<eng::QueryEngine>> engines;
  for (size_t v = 0; v < sc.venue_ids.size(); ++v) {
    core.push_back(std::make_unique<CoreLayer>(LoadBundle(served.snapshot)));
    engines.push_back(
        std::make_unique<eng::QueryEngine>(LoadBundle(served.snapshot)));
    engines.back()->EnableDistanceCache();
  }
  // service: Submit + Wait on an in-process Service over the registry.
  std::string error;
  std::optional<eng::VenueRegistry> registry =
      eng::VenueRegistry::Open(served.manifest, &error);
  if (!registry.has_value()) Die("registry: " + error);
  eng::Service service(std::move(*registry), ShardServiceOptions());
  service.Start();
  // shard: Client::Call straight to the venue's shard; router: via the
  // router.
  std::vector<std::unique_ptr<net::Client>> shard_clients;
  for (size_t i = 0; i < 2; ++i) {
    shard_clients.push_back(net::Client::Connect(
        Stack::Endpoint(stack.shard(i).port()), &error));
    if (shard_clients.back() == nullptr) Die("connect: " + error);
  }
  std::unique_ptr<net::Client> router_client =
      net::Client::Connect(Stack::Endpoint(stack.router_port()), &error);
  if (router_client == nullptr) Die("connect: " + error);
  const auto call = [](net::Client& client, const eng::Request& r) {
    net::WireResponse response;
    if (!client.Call(net::WireRequest::FromRequest(r, 0.0), &response).ok() ||
        !response.ok()) {
      Die("traced replay call failed");
    }
    return response;
  };

  std::vector<viptree::SearchStats> search;
  std::map<eng::QueryType, std::vector<double>> core_by_type;
  std::vector<double> publish_us, overlay, visited;
  std::vector<net::WireResponse> responses;
  TracedLayer core_layer{[&](const eng::Request& r, bool timed) {
    CoreLayer& layer = *core[VenueOf(sc, r)];
    if (r.kind == eng::RequestKind::kUpdateObjects) {
      layer.Move(r.delta);
      return;
    }
    viptree::SearchStats stats;
    const Timer timer;
    layer.Run(r.query, &stats);
    if (!timed) return;
    core_by_type[r.query.type].push_back(timer.ElapsedMicros());
    if (r.query.type != eng::QueryType::kDistance &&
        r.query.type != eng::QueryType::kPath) {
      search.push_back(stats);
    }
  }};
  TracedLayer engine_layer{[&](const eng::Request& r, bool timed) {
    eng::QueryEngine& engine = *engines[VenueOf(sc, r)];
    if (r.kind == eng::RequestKind::kUpdateObjects) {
      const Timer timer;
      if (engine.ApplyObjectDelta(r.delta).has_value()) {
        Die("engine replay move failed");
      }
      publish_us.push_back(timer.ElapsedMicros());
      return;
    }
    const size_t overlay_size =
        engine.bundle().live_objects().Acquire()->overlay.size();
    const size_t nodes = engine.Run(r.query).visited_nodes;
    if (!timed) return;
    overlay.push_back(static_cast<double>(overlay_size));
    visited.push_back(static_cast<double>(nodes));
  }};
  TracedLayer service_layer{[&](const eng::Request& r, bool) {
    if (!service.Submit(r).Wait().ok()) Die("service replay failed");
  }};
  // Both network layers reach the same served shard; only the router
  // layer forwards moves, so each move is applied there once.
  TracedLayer shard_layer{[&](const eng::Request& r, bool) {
    if (r.kind == eng::RequestKind::kUpdateObjects) return;
    call(*shard_clients[stack.router().ShardForVenue(r.venue_id)], r);
  }};
  TracedLayer router_layer{[&](const eng::Request& r, bool timed) {
    net::WireResponse response = call(*router_client, r);
    if (timed) responses.push_back(std::move(response));
  }};
  ReplayLayers(sc, sample, {&core_layer, &engine_layer, &service_layer,
                            &shard_layer, &router_layer});
  service.Stop();
  const double watermark = static_cast<double>(
      engines.front()->bundle().live_objects().EffectiveMergeWatermark());
  TraceKernels(engines.front()->bundle(), &report);
  TraceWire(sc, sample, responses, &report);

  // Per-layer report. Self time = the layer's mean minus the next-inner
  // layer's mean over the same replayed queries.
  const double core_mean = Mean(core_layer.us),
               engine_mean = Mean(engine_layer.us),
               service_mean = Mean(service_layer.us),
               shard_mean = Mean(shard_layer.us),
               router_mean = Mean(router_layer.us);
  const auto type_p50 = [&](eng::QueryType t) {
    return Percentile(core_by_type[t], 0.5);
  };
  report.Add("core.distance_us", type_p50(eng::QueryType::kDistance), "us");
  report.Add("core.path_us", type_p50(eng::QueryType::kPath), "us");
  report.Add("core.knn_us", type_p50(eng::QueryType::kKnn), "us");
  report.Add("core.range_us", type_p50(eng::QueryType::kRange), "us");
  report.Add("core.bknn_us", type_p50(eng::QueryType::kBooleanKnn), "us");
  report.Add("core.mean_us", core_mean, "us");
  report.Add("core.visited_nodes", Mean(visited), "count");
  std::vector<double> nodes, leaves, considered;
  for (const viptree::SearchStats& s : search) {
    nodes.push_back(static_cast<double>(s.nodes_visited));
    leaves.push_back(static_cast<double>(s.leaves_scanned));
    considered.push_back(static_cast<double>(s.objects_considered));
  }
  report.Add("core.knn_nodes", Mean(nodes), "count");
  report.Add("core.knn_leaves", Mean(leaves), "count");
  report.Add("core.knn_objects", Mean(considered), "count");

  viptree::CacheCounters cache = after.cache;
  cache.hits -= before.cache.hits;
  cache.misses -= before.cache.misses;
  cache.evictions -= before.cache.evictions;
  report.Add("cache.hit_rate", cache.hit_rate(), "ratio");
  report.Add("cache.evictions", static_cast<double>(cache.evictions), "count");

  const double answered =
      static_cast<double>(after.num_queries - before.num_queries);
  const double coalesced = static_cast<double>(
      after.plan.coalesced_queries - before.plan.coalesced_queries);
  const double reused = static_cast<double>(after.plan.ascents_reused -
                                            before.plan.ascents_reused);
  report.Add("plan.coalesced_frac", answered > 0 ? coalesced / answered : 0.0,
             "ratio");
  report.Add("plan.ascent_reuse", answered > 0 ? reused / answered : 0.0,
             "ratio");
  report.Add("plan.groups",
             static_cast<double>(after.plan.groups - before.plan.groups),
             "count");

  report.Add("live.publish_p50_us", Percentile(publish_us, 0.5), "us");
  report.Add("live.publish_p99_us", Percentile(publish_us, 0.99), "us");
  report.Add("live.epochs", static_cast<double>(after.updates - before.updates),
             "count");
  report.Add("live.overlay_mean", Mean(overlay), "count");
  report.Add("live.watermark", watermark, "count");

  report.Add("engine.self_us", engine_mean - core_mean, "us");
  report.Add("engine.exec_p50_us", Percentile(nominal.exec_us, 0.5), "us");
  report.Add("engine.exec_p99_us", Percentile(nominal.exec_us, 0.99), "us");

  report.Add("service.self_us", service_mean - engine_mean, "us");
  report.Add("service.queue_p50_us", Percentile(nominal.queue_us, 0.5), "us");
  report.Add("service.queue_p99_us", Percentile(nominal.queue_us, 0.99),
             "us");
  report.Add("service.rejected",
             static_cast<double>(after.rejected - before.rejected), "count");
  report.Add("service.expired",
             static_cast<double>(after.expired - before.expired), "count");

  report.Add("shard.self_us", shard_mean - service_mean, "us");
  report.Add("shard.frames", static_cast<double>(frames_after - frames_before),
             "count");
  report.Add("shard.protocol_errors",
             static_cast<double>(stack.shard(0).protocol_errors() +
                                 stack.shard(1).protocol_errors()),
             "count");

  report.Add("router.self_us", router_mean - shard_mean, "us");
  report.Add("router.failovers",
             static_cast<double>(router_after.failovers -
                                 router_before.failovers),
             "count");
  report.Add("router.rejections",
             static_cast<double>(router_after.no_shard_rejections -
                                 router_before.no_shard_rejections),
             "count");
  report.Add("net.residual_p50_us", Percentile(nominal.residual_us, 0.5),
             "us");

  report.Add("build.index_s", served.times.build_s, "s");
  report.Add("io.save_s", served.times.save_s, "s");
  report.Add("io.load_s", served.times.load_s, "s");
  report.Add("io.snapshot_mb", served.times.snapshot_mb, "MB");
  report.Add("net.start_s", served.times.start_s, "s");

  report.Add("update_p99_us", nominal.update_us.p99, "us");
  report.Add("update_samples", static_cast<double>(nominal.update_us.count),
             "count");
  report.Add("driver.late_p99_us", nominal.health.late_p99_us, "us");
  report.Add("driver.backlog", static_cast<double>(nominal.health.backlog),
             "count");
  report.Add("driver.invalid_steps", static_cast<double>(tally.invalid_steps),
             "count");

  // The layers' self times telescope to the router-level serial mean; the
  // gap to the untraced open-loop mean at the nominal rate is tracing
  // overhead plus queueing.
  report.Add("trace.layers_sum_us", router_mean, "us");
  report.Add("trace.nominal_mean_us", nominal.query_us.mean, "us");
  report.Add("trace.gap_frac",
             nominal.query_us.mean > 0.0
                 ? (nominal.query_us.mean - router_mean) /
                       nominal.query_us.mean
                 : 0.0,
             "ratio");
  std::printf("# layers mean us: core=%.2f engine=%.2f service=%.2f "
              "shard=%.2f router=%.2f | cache capacity=%zu insertions=%llu\n",
              core_mean, engine_mean, service_mean, shard_mean, router_mean,
              viptree::AdaptiveCacheCapacity(
                  MakeVenue(sc.shape).NumDoors()),
              static_cast<unsigned long long>(after.cache.insertions));

  router_client.reset();
  shard_clients.clear();
  served.stack.reset();
  report.Print(tally.failed == 0, tally.attempted, tally.failed);
  return 0;
}

size_t StreamLength(const Flags& f) {
  size_t length = Requests(f.nominal_qps, kWarmupSeconds) + 64;
  if (f.trace) {
    length += Requests(f.nominal_qps, f.seconds * kNominalShare) +
              Requests(f.peak_qps, f.seconds * kPeakShare) + f.trace_requests;
  } else {
    length += CapacityRequests(f);
  }
  return length;
}

int Main(int argc, char** argv) {
  const Flags f = ParseFlags(argc, argv);
  const std::string build_type = SERVEBENCH_BUILD_TYPE;
  if (AssertionsEnabled() || SanitizedBuild() ||
      (build_type != "Release" && build_type != "RelWithDebInfo")) {
    Die("refusing to report from a " + build_type +
        " build with assertions or sanitizers; build Release");
  }
  // Sub-microsecond timer slack so the driver's sleeps end on schedule.
  ::prctl(PR_SET_TIMERSLACK, 1000UL, 0, 0, 0);
  // Hold glibc's mmap threshold at its initial 128 KiB. Left dynamic, it
  // rises when the stream's large buffers are freed, and whether the
  // build's big arrays then land on the heap or in mmaps depends on the
  // seed, which moved rss_mb by 10 MB between seeds.
  ::mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  PrintStamp(f);

  WorkloadShape shape;
  if (!ShapeFor(f.workload, &shape)) Die("unknown workload " + f.workload);
  const Venue venue = MakeVenue(shape);
  const Scenario sc = MakeScenario(shape, venue, f.seed, StreamLength(f));
  std::printf("# venue partitions=%zu doors=%zu objects=%zu requests=%zu\n",
              venue.NumPartitions(), venue.NumDoors(), sc.objects.size(),
              sc.stream.size());
  {
    std::ofstream out(f.work_dir + "/stream.txt", std::ios::binary);
    out << StreamText(sc);
    if (!out) Die("cannot write " + f.work_dir + "/stream.txt");
  }
  return f.trace ? RunTrace(f, sc) : RunEndToEnd(f, sc);
}

}  // namespace
}  // namespace servebench

int main(int argc, char** argv) { return servebench::Main(argc, argv); }
