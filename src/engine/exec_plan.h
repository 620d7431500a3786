// The execution planner of the coalesced batch path: takes one span of
// same-venue queries, groups its kNN queries by exact source point, and
// runs each group's root ascent (KnnQuery::ComputeAscent) exactly once,
// independent of k. Members that also share k are the same deterministic
// search, so it runs once per distinct (source, k) and the duplicates copy
// its answer.
//
// Where a sequential batch runs the ascent once per query, a source-skewed
// batch (many queries leaving the same point — the "everyone routes from
// the entrance" pattern) repeats it. Every other query kind, and every
// singleton group, passes through the sequential executor unchanged: a
// VIP distance query is O(rho^2) matrix reads (§3.1), too cheap for a
// shared descent to pay for its bookkeeping.
//
// Bit-identity contract: every grouped answer equals the sequential
// per-query answer bit for bit. Grouping changes only the work shared,
// never the result — enforced by tests/coalesce_differential_test.
//
// Wiring: QueryEngine::RunCoalesced executes one planned span on the
// resident worker; engine::Service workers pull up to
// CoalesceOptions::window contiguous same-venue queries from the queue
// into one group (deadline-aware: grouping only takes already-queued
// work, so a group never waits for more arrivals, and each member is
// still shed individually if its deadline passed at pickup).

#ifndef VIPTREE_ENGINE_EXEC_PLAN_H_
#define VIPTREE_ENGINE_EXEC_PLAN_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/span.h"
#include "core/live_objects.h"

namespace viptree {
namespace engine {

struct Query;
struct Result;

// Tuning of the coalesced execution path. Off by default: coalescing is
// opt-in at every layer (ServiceOptions, --coalesce).
struct CoalesceOptions {
  bool enabled = false;
  // Most queue entries a Service worker pulls into one group (clamped to
  // at least 1). The planner itself never splits a span it is handed, so
  // direct RunCoalesced callers control group size by span size.
  size_t window = 64;
};

// What the planner did with a batch: kNN groups formed, root ascents
// shared, and a power-of-two histogram of group sizes. Aggregated into
// ServiceStats and printed by the serve summary.
struct PlanStats {
  static constexpr size_t kHistogramBuckets = 8;

  uint64_t groups = 0;             // multi-query groups formed (size >= 2)
  uint64_t coalesced_queries = 0;  // queries answered through a group
  uint64_t ascents_computed = 0;   // root ascents actually run
  uint64_t ascents_reused = 0;     // per-query runs avoided by sharing
  // groups_by_size[b] counts groups whose size lies in [2^b, 2^(b+1));
  // the last bucket is open-ended. b = 0 stays empty (singletons are not
  // groups).
  uint64_t groups_by_size[kHistogramBuckets] = {};

  void RecordGroup(size_t size);
  void Merge(const PlanStats& other);
  bool empty() const { return groups == 0; }
};

// Plans and executes one span of same-venue queries: results[i] answers
// queries[i], bit-identical to running each query alone. `objects` is the
// group's pinned snapshot reader for kNN coalescing (may be null when the
// span has no kNN queries — they then fall back). `fallback` must answer
// one query exactly as the sequential executor would; it runs for every
// non-coalescible query and every singleton group. `results` must already
// be sized to queries.size().
PlanStats ExecutePlan(Span<const Query> queries,
                      const SnapshotQuery* objects,
                      const std::function<Result(const Query&)>& fallback,
                      std::vector<Result>& results);

}  // namespace engine
}  // namespace viptree

#endif  // VIPTREE_ENGINE_EXEC_PLAN_H_
