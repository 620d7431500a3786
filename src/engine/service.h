// The async request/response serving front-end: the one way to answer
// queries concurrently. engine::Service admits work the way a real indoor
// LBS receives it — one request at a time (or a SubmitBatch of them),
// tagged with a venue id and a latency budget, answered whenever a worker
// gets to it. QueryEngine below it answers on the calling thread only.
//
// Lifecycle:
//
//           Submit(Request) ──► bounded MPMC queue ──► resident workers
//                │ rejected                                │
//                │ (queue full /                           │ deadline past?
//                │  stopped)                               ▼
//                ▼                                  Run on the worker's
//          Ticket completes                         per-venue QueryEngine
//          immediately                                     │
//                                                          ▼
//                                    Ticket (Wait / TryGet / Take) or the
//                                    streaming ResultCallback, invoked on
//                                    the worker thread as each completes
//
// Threads are created once at Start() and stay resident — no per-call
// spawn. Each worker keeps its own per-venue QueryEngine (the mutable
// Dijkstra scratch), all serving shared immutable VenueBundles, so one
// process serves a whole fleet concurrently:
//
//   * single-venue service: constructed over one shared bundle; requests
//     leave `venue_id` empty;
//   * multi-venue service: constructed over a VenueRegistry; every request
//     names a venue, resolved through Acquire (lazy first-touch load,
//     per-entry locking — see venue_registry.h). A venue has one bundle
//     for the service's lifetime, so a worker resolves it through the
//     registry once and then answers from its own engine map.
//
// Deadlines: a request whose deadline has passed when a worker picks it up
// is completed with kDeadlineExceeded *without running* — under overload
// the queue sheds exactly the work whose answer nobody is waiting for.
//
// Shutdown: Drain() blocks until every accepted request has completed
// (including callback delivery); Stop() stops accepting, completes still-
// queued requests with kCancelled, lets in-flight work finish, and joins
// the workers. The destructor calls Stop().
//
// Callback contract: callbacks run on worker threads and must not call
// Drain()/Stop() (deadlock); Submit from a callback is allowed.

#ifndef VIPTREE_ENGINE_SERVICE_H_
#define VIPTREE_ENGINE_SERVICE_H_

#include <chrono>
#include <condition_variable>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/stats.h"
#include "engine/query_engine.h"
#include "engine/venue_registry.h"

namespace viptree {
namespace engine {

// Deadlines are absolute points on the steady clock, so a request's budget
// keeps counting down while it sits in the queue.
using ServiceClock = std::chrono::steady_clock;
using RequestDeadline = ServiceClock::time_point;

// RequestDeadline::max() means "no deadline".
inline constexpr RequestDeadline kNoDeadline = RequestDeadline::max();

// The deadline `millis` from now (what a "50 ms budget" request passes).
// A budget that is not finite, or reaches past RequestDeadline::max(),
// saturates to kNoDeadline; a budget <= 0 is already due.
RequestDeadline DeadlineAfterMillis(double millis);

// How many worker threads `requested` resolves to: 0 means
// std::thread::hardware_concurrency(), clamped to at least 1 (some
// CI hosts report 0 or 1 cores).
size_t ResolveThreadCount(size_t requested);

// Terminal state of a submitted request.
enum class RequestStatus : uint8_t {
  kOk,                // ran to completion; Response::result is valid
  kDeadlineExceeded,  // deadline passed while queued; never ran
  kVenueNotFound,     // unknown venue id or snapshot load failure
  kInvalidRequest,    // query the venue cannot answer (bad partition id,
                      // keyword query without a keyword index) — a server
                      // fails the request, never the process
  kRejected,          // queue full, or submitted after Stop()
  kCancelled,         // still queued when Stop() was called
};

const char* RequestStatusName(RequestStatus status);

// What a Request asks the service to do.
enum class RequestKind : uint8_t {
  kQuery,          // answer `query`
  kUpdateObjects,  // apply `delta` to the venue's live object set
};

// One unit of admitted work: a typed query — or an object-set update —
// bound for a venue, with an optional latency budget and a caller-chosen
// correlation tag. Updates ride the same queue and routing as queries;
// they publish a new object epoch through the venue bundle's
// LiveObjectIndex (core/live_objects.h), whose internal write mutex
// serializes updates per venue while queries stay lock-free on their
// pinned snapshots.
struct Request {
  RequestKind kind = RequestKind::kQuery;
  // Venue to route to. Empty on a single-venue service; required (and
  // resolved through the registry) on a multi-venue service.
  std::string venue_id;
  Query query;               // kQuery
  ObjectDelta delta;         // kUpdateObjects
  RequestDeadline deadline = kNoDeadline;
  // Echoed verbatim in the Response; lets streaming callers correlate
  // out-of-order completions (e.g. an index into their own array).
  uint64_t tag = 0;

  static Request Update(std::string venue, ObjectDelta object_delta) {
    Request request;
    request.kind = RequestKind::kUpdateObjects;
    request.venue_id = std::move(venue);
    request.delta = std::move(object_delta);
    return request;
  }
};

struct Response {
  RequestStatus status = RequestStatus::kOk;
  RequestKind kind = RequestKind::kQuery;
  uint64_t tag = 0;
  std::string venue_id;
  // Valid only when status == kOk and kind == kQuery. For a completed
  // update, only result.latency_micros is meaningful (the publish cost).
  Result result;
  // Human-readable detail for non-kOk statuses (load error, shutdown, …).
  std::string error;
  // Time from Submit to the moment a worker picked the request up (or to
  // its terminal rejection/cancellation) — the queueing component of the
  // end-to-end latency; Result::latency_micros is the execution component.
  double queue_micros = 0.0;

  bool ok() const { return status == RequestStatus::kOk; }
};

// Future-style handle to one submitted request. Cheap to copy (shared
// state); default-constructed tickets are invalid.
class Ticket {
 public:
  Ticket() = default;

  bool valid() const { return state_ != nullptr; }
  // Non-blocking: has the request reached a terminal state?
  bool Done() const;
  // Blocks until terminal, then returns the response (stable reference —
  // responses are written exactly once).
  const Response& Wait() const;
  // Non-blocking: the response if terminal, nullptr otherwise.
  const Response* TryGet() const;
  // Wait(), then move the response out (single-consumer; the ticket's
  // stored response is left moved-from).
  Response Take();

 private:
  friend class Service;
  struct State;
  std::shared_ptr<State> state_;
};

// Streaming delivery: invoked exactly once per request as it reaches its
// terminal state — on a worker thread, except for admission rejections,
// which are delivered synchronously from Submit itself.
using ResultCallback = std::function<void(const Response&)>;

struct ServiceOptions {
  // Resident worker threads; 0 means hardware_concurrency(), clamped ≥ 1
  // (see ResolveThreadCount).
  size_t num_threads = 1;
  // Bound of the MPMC request queue: submissions beyond it complete
  // immediately with kRejected instead of growing memory without limit.
  size_t queue_capacity = 1024;

  // Cross-request distance caching (core/distance_cache.h). With
  // cache.enabled the service creates one cache per venue, shared by every
  // worker serving it; Stats() aggregates their hit/miss/evict counters.
  DistanceCacheOptions cache;

  // Execution-planner coalescing (engine/exec_plan.h): with
  // coalesce.enabled a worker pulls up to coalesce.window contiguous
  // same-venue queries from the queue front in one lock hold and answers
  // them as one planned group. Grouping only takes already-queued work —
  // a group never waits for more arrivals, so no request is delayed past
  // its deadline by coalescing, and each pulled member whose deadline has
  // already passed is still shed individually. An update request (or a
  // request for another venue) ends the pull, so per-venue query/update
  // ordering is exactly the sequential worker's. Off by default.
  CoalesceOptions coalesce;
};

struct VenueCounters {
  uint64_t completed = 0;  // queries answered (kOk)
  uint64_t updated = 0;    // object updates applied (kOk)
  uint64_t expired = 0;    // shed by deadline
  uint64_t failed = 0;     // venue resolution / validation failures
};

// What the service has done since construction: the queries it answered
// with their execution cost, the planner's accounting, and the queueing
// picture.
struct ServiceStats {
  size_t num_queries = 0;      // queries answered (kOk)
  Summary latency_micros;      // their execution latencies
  uint64_t visited_nodes = 0;  // summed across them
  // Execution-planner accounting, aggregated across every coalesced group
  // any worker ran (all zero when coalescing is off).
  PlanStats plan;
  size_t queue_depth = 0;  // requests waiting right now
  uint64_t submitted = 0;  // every Submit/SubmitBatch call, any outcome
  uint64_t rejected = 0;
  uint64_t expired = 0;
  uint64_t cancelled = 0;
  uint64_t failed = 0;
  // Object updates applied (kOk). Updates are deliberately kept out of
  // num_queries and latency_micros so query p50/p99 stay comparable
  // across update rates; their publish cost is in update_micros.
  uint64_t updates = 0;
  Summary update_micros;
  // Distribution of Response::queue_micros over accepted requests.
  Summary queue_micros;
  std::map<std::string, VenueCounters> per_venue;
  // Distance-cache counters summed over every cache this service created
  // (all zero when ServiceOptions::cache is off).
  CacheCounters cache;
};

class Service {
 public:
  // Single-venue service over a shared immutable bundle (requests leave
  // venue_id empty).
  explicit Service(std::shared_ptr<const VenueBundle> bundle,
                   ServiceOptions options = {});
  // Multi-venue service; takes ownership of the registry and routes every
  // request through Acquire.
  explicit Service(VenueRegistry registry, ServiceOptions options = {});

  ~Service();  // Stop()

  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  // Spawns the resident workers. Requests may be submitted before Start
  // (they queue); call exactly once, and never after Stop.
  void Start();

  // Admits one request. Returns a completed kRejected ticket when the
  // queue is full or the service has stopped.
  Ticket Submit(Request request);
  // Streaming overload: no ticket; `callback` is invoked exactly once
  // with the terminal Response — on a worker thread for accepted
  // requests, or synchronously on the *calling* thread when the request
  // is rejected at admission (queue full / stopped), so callbacks must
  // not assume they never run under the submitter's locks.
  void Submit(Request request, ResultCallback callback);
  // Bulk admission under one queue lock; tickets[i] answers requests[i].
  std::vector<Ticket> SubmitBatch(std::vector<Request> requests);

  // Blocks until every accepted request has reached a terminal state and
  // its callback (if any) has returned. Requires Start() when work is
  // queued (otherwise nothing would ever drain it).
  void Drain();
  // Stops accepting, completes still-queued requests with kCancelled,
  // waits for in-flight work, joins the workers. Idempotent.
  void Stop();

  ServiceStats Stats() const;
  // Requests waiting right now (ServiceStats::queue_depth without the
  // latency summaries): cheap enough for a health probe.
  size_t QueueDepth() const;

  size_t num_threads() const { return num_threads_; }
  bool multi_venue() const { return registry_.has_value(); }
  // The owned registry (multi-venue services only; CHECK-aborts otherwise).
  VenueRegistry& registry();
  const VenueRegistry& registry() const;

 private:
  struct Item {
    Request request;
    ServiceClock::time_point enqueued;
    std::shared_ptr<Ticket::State> state;
  };

  Ticket SubmitInternal(Request request, ResultCallback callback);
  // Queues the longest prefix of `items` the queue has room for (all of
  // them unless it fills up or the service has stopped) under one lock
  // hold, and completes the rest with kRejected.
  void Admit(Span<Item> items);
  void WorkerLoop();
  // Answers one pulled run: a single update, or one or more same-venue
  // queries through QueryEngine::RunCoalesced. Each member is shed or
  // validated on its own; responses finalize in queue order.
  void ProcessRun(
      Span<Item> run,
      std::map<std::string, std::unique_ptr<QueryEngine>>* engines);
  // Worker-local venue resolution: the worker's engine for the venue,
  // built over the venue's one bundle on the worker's first request for
  // it (nullptr + *error when the venue cannot be resolved).
  QueryEngine* ResolveEngine(
      const std::string& venue_id,
      std::map<std::string, std::unique_ptr<QueryEngine>>* engines,
      std::string* error);
  // The venue's shared distance cache, created on first use per options_
  // (nullptr = caching off). Thread-safe.
  std::shared_ptr<DistanceCache> CacheFor(const std::string& venue_id,
                                          const VenueBundle& bundle);
  // Admission-side input validation: everything the engine would CHECK or
  // index with must be range-checked here, and every number it searches
  // with must be finite (a non-negative radius), so untrusted requests
  // fail with kInvalidRequest instead of aborting or stalling a worker.
  static bool ValidateQuery(const Query& query, const QueryEngine& engine,
                            std::string* error);
  // Publishes the terminal response: records stats, completes the ticket
  // state, runs the callback. Does NOT touch pending_ (call sites do).
  void Finalize(const std::shared_ptr<Ticket::State>& state,
                Response response);
  void RecordStats(const Response& response);
  // Executes one kUpdateObjects request on a resolved engine, filling
  // status/error/latency into *response.
  static void RunUpdate(const ObjectDelta& delta, QueryEngine* engine,
                        Response* response);

  // Exactly one of the two is the routing target.
  std::shared_ptr<const VenueBundle> bundle_;
  std::optional<VenueRegistry> registry_;
  ServiceOptions options_;
  size_t num_threads_ = 1;

  mutable std::mutex mu_;  // guards everything down to workers_
  std::condition_variable queue_cv_;          // workers wait for work
  mutable std::condition_variable drain_cv_;  // Drain waits for pending_==0
  std::deque<Item> queue_;
  size_t pending_ = 0;  // accepted but not yet terminal
  bool accepting_ = true;
  bool stopping_ = false;
  bool started_ = false;
  bool stopped_ = false;
  std::vector<std::thread> workers_;

  // Aggregate counters and latency samples, off the queue lock so stats
  // recording never blocks admission.
  mutable std::mutex stats_mu_;
  uint64_t submitted_ = 0;
  uint64_t completed_ = 0;
  uint64_t rejected_ = 0;
  uint64_t expired_ = 0;
  uint64_t cancelled_ = 0;
  uint64_t failed_ = 0;
  uint64_t updates_ = 0;
  uint64_t visited_nodes_ = 0;
  std::vector<double> latency_samples_;
  std::vector<double> queue_samples_;
  std::vector<double> update_samples_;
  std::map<std::string, VenueCounters> per_venue_;
  PlanStats plan_stats_;

  // Distance caches handed to worker engines, one per venue.
  mutable std::mutex cache_mu_;
  std::map<std::string, std::shared_ptr<DistanceCache>> venue_caches_;
};

}  // namespace engine
}  // namespace viptree

#endif  // VIPTREE_ENGINE_SERVICE_H_
