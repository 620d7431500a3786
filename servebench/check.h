// The answer checker: every response the serving path returned is compared
// with an in-process reference — one engine::QueryEngine per served venue
// id over the same snapshot, replaying the stream's moves in stream order.
// Distance and path answers must match bit for bit; object answers (kNN,
// range, boolean kNN) must name the same objects at the same distances to
// the live object index's precision, because an object's distance bits
// depend on whether the index had merged it into its packed rows.
//
// Ordering. The router round-robins requests over its pool connections and
// the driver over its client connections, so a query may overtake an
// earlier move of its venue, or be overtaken by a later one. A move is
// *uncertain* for a query when neither completed (response received)
// before the other was sent. For exactly those pairs the checker accepts
// the answer at any combination of the uncertain moves applied or not;
// every other mismatch is a wrong answer. Only uncertain moves whose object
// lies, before or after the move, within the served answer's reach (range
// radius, k-th distance) are tried: no other move can change whether the
// reference produces that answer.

#ifndef SERVEBENCH_CHECK_H_
#define SERVEBENCH_CHECK_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "engine/query_engine.h"
#include "net/wire.h"

namespace servebench {

// What the driver observed for one sent request (stream order).
struct Record {
  double due_s = 0.0;    // scheduled send, seconds on the run clock
  double sent_s = 0.0;   // actual send
  double recv_s = -1.0;  // response received; < 0 when none arrived
  viptree::net::WireResponse response;

  bool answered() const { return recv_s >= 0.0; }
};

struct CheckResult {
  size_t queries = 0;
  size_t updates = 0;
  size_t wrong = 0;       // answered kOk but matching no allowed epoch
  size_t bad_status = 0;  // non-kOk status
  size_t missing = 0;     // no response (transport error or timeout)
  size_t reordered = 0;   // matched only an alternative epoch

  size_t failed() const { return wrong + bad_status + missing; }
  void Add(const CheckResult& other) {
    queries += other.queries;
    updates += other.updates;
    wrong += other.wrong;
    bad_status += other.bad_status;
    missing += other.missing;
    reordered += other.reordered;
  }
};

// Bit-identical comparison of two query answers.
bool SameAnswer(const viptree::engine::Result& a,
                const viptree::engine::Result& b);

// The checker's acceptance test (see the file comment).
bool Equivalent(const viptree::engine::Result& served,
                const viptree::engine::Result& reference);

class AnswerChecker {
 public:
  // Loads one reference engine per venue id from `snapshot_path`; aborts
  // with a message if the snapshot cannot be loaded.
  AnswerChecker(const std::string& snapshot_path,
                std::vector<std::string> venue_ids);

  // Checks records[i] against stream[first + i] for every record, in
  // order. Successive calls must cover consecutive stream ranges: the
  // reference state carries over.
  CheckResult Check(const std::vector<viptree::engine::Request>& stream,
                    size_t first, const std::vector<Record>& records);

 private:
  // Check over the records of one venue; `max_latency` is the step's
  // longest round trip.
  CheckResult CheckVenue(size_t venue,
                         const std::vector<viptree::engine::Request>& stream,
                         size_t first, const std::vector<Record>& records,
                         double max_latency);
  // The reference answer with the uncertain moves in `toggles` flipped
  // relative to stream order.
  bool MatchesWithToggles(size_t venue, const viptree::engine::Query& query,
                          const viptree::engine::Result& served,
                          const std::vector<size_t>& toggles,
                          const std::vector<viptree::engine::Request>& stream,
                          size_t query_index);
  // Whether some non-empty subset of `moves` (stream indices, at most
  // kMaxToggles of them) flipped makes the reference answer `served`.
  bool MatchesSomeSubset(size_t venue, const viptree::engine::Query& query,
                         const viptree::engine::Result& served,
                         const std::vector<size_t>& moves,
                         const std::vector<viptree::engine::Request>& stream,
                         size_t query_index);
  void Move(size_t venue, viptree::ObjectId id,
            const viptree::IndoorPoint& to);

  std::vector<std::string> venue_ids_;
  std::vector<std::unique_ptr<viptree::engine::QueryEngine>> engines_;
  // Current reference position of every object, per venue.
  std::vector<std::vector<viptree::IndoorPoint>> positions_;
  // Per venue: position of the moved object before the move at each
  // stream index, for undoing an uncertain move.
  std::vector<std::unordered_map<size_t, viptree::IndoorPoint>> before_;
};

}  // namespace servebench

#endif  // SERVEBENCH_CHECK_H_
