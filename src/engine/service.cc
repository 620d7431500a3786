#include "engine/service.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/check.h"

namespace viptree {
namespace engine {

namespace {

// Latency/queue-time sample vectors stop growing here; counters keep
// counting. Far above any test or bench workload, and it bounds a
// long-lived service's stats memory at ~16 MB.
constexpr size_t kMaxStatSamples = size_t{1} << 20;

double MicrosBetween(ServiceClock::time_point from,
                     ServiceClock::time_point to) {
  return std::chrono::duration<double, std::micro>(to - from).count();
}

}  // namespace

RequestDeadline DeadlineAfterMillis(double millis) {
  const RequestDeadline now = ServiceClock::now();
  // The budget in fractional clock ticks. Converting a double that does
  // not fit the integer tick count is undefined, so saturate first.
  const std::chrono::duration<double, ServiceClock::period> budget =
      std::chrono::duration<double, std::milli>(millis);
  if (!std::isfinite(budget.count()) ||
      budget.count() >= static_cast<double>((kNoDeadline - now).count())) {
    return kNoDeadline;
  }
  if (budget.count() <= 0.0) return now;
  return now + std::chrono::duration_cast<ServiceClock::duration>(budget);
}

size_t ResolveThreadCount(size_t requested) {
  if (requested != 0) return requested;
  return std::max<size_t>(1, std::thread::hardware_concurrency());
}

const char* RequestStatusName(RequestStatus status) {
  switch (status) {
    case RequestStatus::kOk:
      return "ok";
    case RequestStatus::kDeadlineExceeded:
      return "deadline-exceeded";
    case RequestStatus::kVenueNotFound:
      return "venue-not-found";
    case RequestStatus::kInvalidRequest:
      return "invalid-request";
    case RequestStatus::kRejected:
      return "rejected";
    case RequestStatus::kCancelled:
      return "cancelled";
  }
  return "?";
}

// Shared completion state behind a Ticket (and behind every callback
// submission, so Drain accounting is uniform). Written exactly once, by
// the thread that reaches the request's terminal state.
struct Ticket::State {
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  Response response;
  ResultCallback callback;  // null for ticket-style submissions
};

bool Ticket::Done() const {
  VIPTREE_CHECK_MSG(state_ != nullptr, "Done() on an invalid Ticket");
  std::lock_guard<std::mutex> lock(state_->mu);
  return state_->done;
}

const Response& Ticket::Wait() const {
  VIPTREE_CHECK_MSG(state_ != nullptr, "Wait() on an invalid Ticket");
  std::unique_lock<std::mutex> lock(state_->mu);
  state_->cv.wait(lock, [this] { return state_->done; });
  // `done` is terminal and the response is never rewritten, so the
  // reference stays valid after the lock is released.
  return state_->response;
}

const Response* Ticket::TryGet() const {
  VIPTREE_CHECK_MSG(state_ != nullptr, "TryGet() on an invalid Ticket");
  std::lock_guard<std::mutex> lock(state_->mu);
  return state_->done ? &state_->response : nullptr;
}

Response Ticket::Take() {
  Wait();
  return std::move(state_->response);
}

Service::Service(std::shared_ptr<const VenueBundle> bundle,
                 ServiceOptions options)
    : bundle_(std::move(bundle)),
      options_(options),
      num_threads_(ResolveThreadCount(options.num_threads)) {
  VIPTREE_CHECK_MSG(bundle_ != nullptr,
                    "Service constructed over a null bundle");
  options_.queue_capacity = std::max<size_t>(1, options_.queue_capacity);
}

Service::Service(VenueRegistry registry, ServiceOptions options)
    : registry_(std::move(registry)),
      options_(options),
      num_threads_(ResolveThreadCount(options.num_threads)) {
  options_.queue_capacity = std::max<size_t>(1, options_.queue_capacity);
}

Service::~Service() { Stop(); }

VenueRegistry& Service::registry() {
  VIPTREE_CHECK_MSG(registry_.has_value(),
                    "registry() on a single-venue Service");
  return *registry_;
}

const VenueRegistry& Service::registry() const {
  VIPTREE_CHECK_MSG(registry_.has_value(),
                    "registry() on a single-venue Service");
  return *registry_;
}

void Service::Start() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    VIPTREE_CHECK_MSG(!started_, "Service::Start() called twice");
    VIPTREE_CHECK_MSG(!stopped_, "Service::Start() after Stop()");
    started_ = true;
  }
  workers_.reserve(num_threads_);
  for (size_t i = 0; i < num_threads_; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

Ticket Service::Submit(Request request) {
  return SubmitInternal(std::move(request), nullptr);
}

void Service::Submit(Request request, ResultCallback callback) {
  VIPTREE_CHECK_MSG(callback != nullptr,
                    "streaming Submit needs a non-null callback");
  SubmitInternal(std::move(request), std::move(callback));
}

Ticket Service::SubmitInternal(Request request, ResultCallback callback) {
  Ticket ticket;
  ticket.state_ = std::make_shared<Ticket::State>();
  ticket.state_->callback = std::move(callback);
  Item item{std::move(request), ServiceClock::now(), ticket.state_};
  Admit(Span<Item>(&item, 1));
  return ticket;
}

std::vector<Ticket> Service::SubmitBatch(std::vector<Request> requests) {
  const ServiceClock::time_point now = ServiceClock::now();
  std::vector<Ticket> tickets(requests.size());
  std::vector<Item> items;
  items.reserve(requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    tickets[i].state_ = std::make_shared<Ticket::State>();
    items.push_back(Item{std::move(requests[i]), now, tickets[i].state_});
  }
  Admit(Span<Item>(items));
  return tickets;
}

void Service::Admit(Span<Item> items) {
  size_t accepted = 0;
  bool was_accepting = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    was_accepting = accepting_;
    while (accepted < items.size() && accepting_ &&
           queue_.size() < options_.queue_capacity) {
      queue_.push_back(std::move(items[accepted++]));
    }
    pending_ += accepted;
  }
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    submitted_ += items.size();
  }
  if (accepted == 1) queue_cv_.notify_one();
  if (accepted > 1) queue_cv_.notify_all();
  for (size_t i = accepted; i < items.size(); ++i) {
    Response response;
    response.status = RequestStatus::kRejected;
    response.tag = items[i].request.tag;
    response.venue_id = items[i].request.venue_id;
    response.error = was_accepting
                         ? "request queue is full (capacity " +
                               std::to_string(options_.queue_capacity) + ")"
                         : "service is stopped";
    Finalize(items[i].state, std::move(response));
  }
}

void Service::Drain() {
  std::unique_lock<std::mutex> lock(mu_);
  VIPTREE_CHECK_MSG(started_ || stopped_ || pending_ == 0,
                    "Service::Drain() with queued work before Start(): "
                    "nothing would ever drain it");
  drain_cv_.wait(lock, [this] { return pending_ == 0; });
}

void Service::Stop() {
  std::deque<Item> orphaned;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopped_) return;
    stopped_ = true;
    accepting_ = false;
    stopping_ = true;
    orphaned.swap(queue_);
  }
  queue_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
  workers_.clear();

  const ServiceClock::time_point now = ServiceClock::now();
  for (Item& item : orphaned) {
    Response response;
    response.status = RequestStatus::kCancelled;
    response.tag = item.request.tag;
    response.venue_id = item.request.venue_id;
    response.queue_micros = MicrosBetween(item.enqueued, now);
    response.error = "service stopped before the request ran";
    Finalize(item.state, std::move(response));
  }
  if (!orphaned.empty()) {
    std::lock_guard<std::mutex> lock(mu_);
    pending_ -= orphaned.size();
    if (pending_ == 0) drain_cv_.notify_all();
  }
}

void Service::WorkerLoop() {
  // This worker's engines, one per venue it has served: the shared
  // immutable bundle plus this thread's private query scratch.
  std::map<std::string, std::unique_ptr<QueryEngine>> engines;
  const size_t window = std::max<size_t>(1, options_.coalesce.window);
  std::vector<Item> batch;
  for (;;) {
    batch.clear();
    {
      std::unique_lock<std::mutex> lock(mu_);
      queue_cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) break;  // stopping_, and nothing left to do
      batch.push_back(std::move(queue_.front()));
      queue_.pop_front();
      // Coalescing pull: extend with the contiguous run of already-queued
      // queries for the same venue, under the same lock hold. An update
      // (or another venue's request) ends the run, so the per-venue
      // query/update order a sequential worker would execute is preserved
      // exactly — queries queued before an update still see the old object
      // epoch, queries after it the new one.
      if (options_.coalesce.enabled &&
          batch.front().request.kind == RequestKind::kQuery) {
        while (batch.size() < window && !queue_.empty() &&
               queue_.front().request.kind == RequestKind::kQuery &&
               queue_.front().request.venue_id ==
                   batch.front().request.venue_id) {
          batch.push_back(std::move(queue_.front()));
          queue_.pop_front();
        }
      }
    }
    const size_t count = batch.size();
    ProcessRun(Span<Item>(batch), &engines);
    {
      std::lock_guard<std::mutex> lock(mu_);
      pending_ -= count;
      if (pending_ == 0) drain_cv_.notify_all();
    }
  }
}

void Service::ProcessRun(
    Span<Item> run,
    std::map<std::string, std::unique_ptr<QueryEngine>>* engines) {
  const ServiceClock::time_point start = ServiceClock::now();
  const size_t n = run.size();
  std::vector<Response> responses(n);
  // The pull guaranteed one venue: resolve it once, when the first member
  // that is not shed needs it.
  QueryEngine* engine = nullptr;
  bool resolved = false;
  std::string resolve_error;
  std::vector<size_t> runnable;
  std::vector<Query> queries;

  // Per-item admission: deadline shed at pickup (sharing one `start` —
  // exactly the moment a sequential worker would have reached the earliest
  // of them, and never later for the rest), then venue resolution and
  // validation. Only the runnable queries are planned.
  for (size_t i = 0; i < n; ++i) {
    Request& request = run[i].request;
    Response& response = responses[i];
    response.kind = request.kind;
    response.tag = request.tag;
    response.venue_id = request.venue_id;
    response.queue_micros = MicrosBetween(run[i].enqueued, start);
    if (start >= request.deadline) {
      // Shed without running: the answer is already too late to matter.
      response.status = RequestStatus::kDeadlineExceeded;
      response.error = "deadline passed after " +
                       std::to_string(response.queue_micros) +
                       " us in the queue";
      continue;
    }
    if (!resolved) {
      engine = ResolveEngine(request.venue_id, engines, &resolve_error);
      resolved = true;
    }
    std::string error;
    if (engine == nullptr) {
      response.status = RequestStatus::kVenueNotFound;
      response.error = resolve_error;
    } else if (request.kind == RequestKind::kUpdateObjects) {
      // An update is always a run of one. The venue's LiveObjectIndex
      // serializes concurrent updates internally and queries keep reading
      // their pinned snapshots, so nothing here needs the queue lock.
      RunUpdate(request.delta, engine, &response);
    } else if (!ValidateQuery(request.query, *engine, &error)) {
      // A server fails the request, never the process: unvalidated input
      // (serve-mode lines, remote clients) must not reach the engine's
      // CHECKs or index arrays.
      response.status = RequestStatus::kInvalidRequest;
      response.error = std::move(error);
    } else {
      runnable.push_back(i);
      queries.push_back(std::move(request.query));
    }
  }

  if (!runnable.empty()) {
    PlanStats plan;
    std::vector<Result> results =
        engine->RunCoalesced(Span<const Query>(queries), &plan);
    for (size_t j = 0; j < runnable.size(); ++j) {
      responses[runnable[j]].result = std::move(results[j]);
      responses[runnable[j]].status = RequestStatus::kOk;
    }
    if (!plan.empty()) {
      std::lock_guard<std::mutex> lock(stats_mu_);
      plan_stats_.Merge(plan);
    }
  }

  // Finalize in queue order: streaming callbacks observe the same
  // delivery order a sequential worker would produce.
  for (size_t i = 0; i < n; ++i) {
    Finalize(run[i].state, std::move(responses[i]));
  }
}

void Service::RunUpdate(const ObjectDelta& delta, QueryEngine* engine,
                        Response* response) {
  const Timer timer;
  // ApplyObjectDelta validates before mutating (unknown ids, out-of-range
  // partitions, double-removes, …): a rejected delta publishes nothing,
  // so it maps to kInvalidRequest just like a malformed query.
  std::optional<std::string> error = engine->ApplyObjectDelta(delta);
  response->result.latency_micros = timer.ElapsedMicros();
  if (error.has_value()) {
    response->status = RequestStatus::kInvalidRequest;
    response->error = std::move(*error);
  } else {
    response->status = RequestStatus::kOk;
  }
}

bool Service::ValidateQuery(const Query& query, const QueryEngine& engine,
                            std::string* error) {
  const size_t num_partitions = engine.venue().NumPartitions();
  const auto valid_point = [num_partitions](const IndoorPoint& point) {
    return point.partition >= 0 &&
           static_cast<size_t>(point.partition) < num_partitions;
  };
  if (!valid_point(query.source)) {
    *error = "source partition " + std::to_string(query.source.partition) +
             " is out of range (venue has " +
             std::to_string(num_partitions) + " partitions)";
    return false;
  }
  const bool has_target = query.type == QueryType::kDistance ||
                          query.type == QueryType::kPath;
  if (has_target && !valid_point(query.target)) {
    *error = "target partition " + std::to_string(query.target.partition) +
             " is out of range (venue has " +
             std::to_string(num_partitions) + " partitions)";
    return false;
  }
  // Non-finite coordinates would feed NaN into every heap of the search.
  const auto finite = [](const IndoorPoint& point) {
    return std::isfinite(point.position.x) && std::isfinite(point.position.y) &&
           std::isfinite(point.position.z);
  };
  if (!finite(query.source) || (has_target && !finite(query.target))) {
    *error = "query coordinates must be finite";
    return false;
  }
  // A NaN radius never stops the branch-and-bound (no bound compares
  // greater), so one request would walk the whole tree.
  if (query.type == QueryType::kRange && !(query.radius >= 0.0)) {
    *error = "range radius must be a non-negative number";
    return false;
  }
  if (query.type == QueryType::kBooleanKnn && !engine.has_keywords()) {
    *error = "venue has no keyword index; boolean-knn queries need a "
             "snapshot built with object keywords";
    return false;
  }
  return true;
}

QueryEngine* Service::ResolveEngine(
    const std::string& venue_id,
    std::map<std::string, std::unique_ptr<QueryEngine>>* engines,
    std::string* error) {
  const auto it = engines->find(venue_id);
  if (it != engines->end()) return it->second.get();
  std::shared_ptr<const VenueBundle> bundle;
  if (!registry_.has_value()) {
    if (!venue_id.empty()) {
      *error = "this service serves a single venue; request names '" +
               venue_id + "'";
      return nullptr;
    }
    bundle = bundle_;
  } else {
    bundle = registry_->Acquire(venue_id, error);
    if (bundle == nullptr) return nullptr;
  }
  auto engine = std::make_unique<QueryEngine>(std::move(bundle));
  if (std::shared_ptr<DistanceCache> cache =
          CacheFor(venue_id, engine->bundle())) {
    engine->SetDistanceCache(std::move(cache));
  }
  return engines->emplace(venue_id, std::move(engine)).first->second.get();
}

std::shared_ptr<DistanceCache> Service::CacheFor(const std::string& venue_id,
                                                 const VenueBundle& bundle) {
  if (!options_.cache.enabled) return nullptr;
  std::lock_guard<std::mutex> lock(cache_mu_);
  std::shared_ptr<DistanceCache>& cache = venue_caches_[venue_id];
  if (cache == nullptr) {
    DistanceCacheOptions resolved = options_.cache;
    if (resolved.capacity == 0) {
      resolved.capacity = AdaptiveCacheCapacity(bundle.venue().NumDoors());
    }
    cache = std::make_shared<DistanceCache>(resolved);
  }
  return cache;
}

void Service::Finalize(const std::shared_ptr<Ticket::State>& state,
                       Response response) {
  RecordStats(response);
  ResultCallback callback;
  {
    std::lock_guard<std::mutex> lock(state->mu);
    state->response = std::move(response);
    state->done = true;
    callback = std::move(state->callback);
  }
  state->cv.notify_all();
  // Outside the state lock: callbacks may Submit, allocate, block.
  // Callback-style submissions expose no Ticket, so reading the stored
  // response unlocked is safe (done is terminal, nobody else writes).
  if (callback) callback(state->response);
}

void Service::RecordStats(const Response& response) {
  std::lock_guard<std::mutex> lock(stats_mu_);
  switch (response.status) {
    case RequestStatus::kOk:
      if (response.kind == RequestKind::kUpdateObjects) {
        ++updates_;
        ++per_venue_[response.venue_id].updated;
        if (update_samples_.size() < kMaxStatSamples) {
          update_samples_.push_back(response.result.latency_micros);
        }
        break;
      }
      ++completed_;
      ++per_venue_[response.venue_id].completed;
      visited_nodes_ += response.result.visited_nodes;
      if (latency_samples_.size() < kMaxStatSamples) {
        latency_samples_.push_back(response.result.latency_micros);
      }
      break;
    case RequestStatus::kDeadlineExceeded:
      ++expired_;
      ++per_venue_[response.venue_id].expired;
      break;
    case RequestStatus::kVenueNotFound:
    case RequestStatus::kInvalidRequest:
      ++failed_;
      ++per_venue_[response.venue_id].failed;
      break;
    case RequestStatus::kRejected:
      ++rejected_;
      return;  // never queued: no queue-time sample
    case RequestStatus::kCancelled:
      ++cancelled_;
      break;
  }
  if (queue_samples_.size() < kMaxStatSamples) {
    queue_samples_.push_back(response.queue_micros);
  }
}

size_t Service::QueueDepth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_.size();
}

ServiceStats Service::Stats() const {
  ServiceStats stats;
  stats.queue_depth = QueueDepth();
  // Copy under the lock, summarize (sort) after releasing it: workers
  // record every response under stats_mu_.
  std::vector<double> latency_samples, update_samples, queue_samples;
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    stats.num_queries = completed_;
    stats.visited_nodes = visited_nodes_;
    stats.submitted = submitted_;
    stats.rejected = rejected_;
    stats.expired = expired_;
    stats.cancelled = cancelled_;
    stats.failed = failed_;
    stats.updates = updates_;
    stats.per_venue = per_venue_;
    stats.plan = plan_stats_;
    latency_samples = latency_samples_;
    update_samples = update_samples_;
    queue_samples = queue_samples_;
  }
  stats.latency_micros = Summarize(latency_samples);
  stats.update_micros = Summarize(update_samples);
  stats.queue_micros = Summarize(queue_samples);
  {
    std::lock_guard<std::mutex> cache_lock(cache_mu_);
    for (const auto& [venue, cache] : venue_caches_) {
      (void)venue;
      stats.cache += cache->Counters();
    }
  }
  return stats;
}

}  // namespace engine
}  // namespace viptree
