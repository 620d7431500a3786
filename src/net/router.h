// net::Router: the thin front process of the sharded deployment. Clients
// speak the same wire protocol to the router as to a shard. The router
// fully decodes each request frame — the fleet's first line of input
// validation, so garbage never reaches a shard — but keeps only its venue
// and kind. It picks the owning shard by consistent (rendezvous)
// assignment over the healthy shard set, forwards the *unmodified
// payload* under a fresh router tag, and restores the caller's tag on the
// way back.
//
// Failover: every forwarded request keeps its encoded payload in the
// pending table until its response arrives. When a shard connection dies
// (SIGKILLed process, reset, refused reconnect), the router immediately
// re-routes that connection's pending requests — first to the shard's
// surviving pool connections, else to the next healthy shard by the same
// rendezvous order — up to three attempts in all, after which the client
// gets a clean kRejected response. Because every shard serves the same
// registry manifest (venues load lazily), any healthy shard can answer any
// venue; assignment exists for cache locality, not correctness, which is
// what makes failover safe.
//
// Health: a periodic probe tick sends kHealthProbe / kStatsProbe on each
// shard's first pooled connection and re-dials dead connections. TCP
// errors mark a shard down instantly (well under one probe interval); a
// shard that answers probes with ready=0 (draining) stops receiving *new*
// assignments but keeps its in-flight work; a shard that leaves ten probes
// in a row unanswered (hung, not dead) has its connections failed over.
//
// Stats: a client's kStatsProbe is sent on to every shard with a ready
// connection, and the client gets the fleet-wide WireStats sum once each
// of them has replied, so a run that finished inside one probe interval
// is counted. A shard that fails in the meantime, or has no ready
// connection, counts with the stats of its last reply.
//
// Threading: the router's policy runs on one EventLoop thread
// (net/event_loop.h), which owns every socket, the pending table and the
// shard pools. The accessors read relaxed atomic counters, so the
// forwarding path takes no lock of its own (each Conn's outbox lock is
// uncontended here). RequestDrain()/Stop() are the only cross-thread
// controls, and RequestDrain() is safe from a signal handler.

#ifndef VIPTREE_NET_ROUTER_H_
#define VIPTREE_NET_ROUTER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "net/event_loop.h"
#include "net/wire.h"

namespace viptree {
namespace net {

struct RouterOptions {
  std::string bind_address = "127.0.0.1";
  uint16_t port = 0;  // 0 = ephemeral; port() reports the bound one
  // Cadence of the health/stats probe tick (also the reconnect cadence
  // for dead shard connections).
  double probe_interval_ms = 200.0;
  double connect_timeout_ms = 1000.0;
};

// The router's own forwarding counters (the shards' ServiceStats are
// aggregated separately via WireStats).
struct RouterCounters {
  uint64_t requests_forwarded = 0;  // client frames sent to a shard
  uint64_t responses_returned = 0;
  uint64_t failovers = 0;          // re-routes after a connection failure
  uint64_t no_shard_rejections = 0;  // kRejected: no healthy shard/attempts
  uint64_t protocol_errors = 0;    // poisoned client connections
  uint64_t shard_disconnects = 0;  // shard sockets that died
  // Frames queued and socket writes: accepted = toward clients, dialed =
  // toward shards.
  LoopCounters loop;
};

class Router {
 public:
  // `shard_endpoints`: host:port per shard, fixed for the router's
  // lifetime (the rendezvous domain). `venue_ids` (typically the registry
  // manifest's ids) is informational — Assignments() reports the planned
  // partition — routing itself hashes any venue id a request carries.
  Router(std::vector<std::string> shard_endpoints,
         std::vector<std::string> venue_ids, RouterOptions options = {});
  ~Router();  // Stop()

  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  io::Status Start();
  uint16_t port() const { return loop_.port(); }

  // Async-signal-safe graceful drain: stop accepting, answer everything
  // in flight, flush, exit. Wait() joins the loop.
  void RequestDrain() { loop_.RequestDrain(); }
  void Wait() { loop_.Wait(); }
  void Stop() { loop_.Stop(); }

  // Stable venue -> shard-index assignment over *all* configured shards
  // (health aside) — the planned partition. Exposed for tests and the
  // CLI's startup banner.
  size_t ShardForVenue(const std::string& venue_id) const;
  // (venue id, planned shard index) for every manifest venue.
  std::vector<std::pair<std::string, size_t>> Assignments() const;

  RouterCounters counters() const;
  // Shards currently considered healthy (ready connection + ready flag).
  size_t healthy_shards() const;

 private:
  // One pooled connection to a shard; `conn` is null while down.
  struct ShardConn {
    size_t shard = 0;
    enum class State { kDown, kConnecting, kReady };
    State state = State::kDown;
    std::shared_ptr<Conn> conn;
    // Probe ticks spent in kConnecting; bounded by connect_timeout_ms.
    size_t connect_ticks = 0;
  };

  struct Shard {
    std::string endpoint;
    std::vector<std::unique_ptr<ShardConn>> pool;
    bool ready_flag = true;  // last health reply's ready bit
    size_t unanswered_probes = 0;
    size_t next_conn = 0;  // round-robin cursor over ready pool conns
    WireStats last_stats;
    bool have_stats = false;
  };

  // A client's kStatsProbe waiting on fresh shard replies.
  struct StatsWait {
    std::shared_ptr<Conn> client;
    uint64_t client_tag = 0;
    // Per shard: the connection still owing a reply, or null.
    std::vector<ShardConn*> awaiting;
  };

  struct Pending {
    std::shared_ptr<Conn> client;
    uint64_t client_tag = 0;
    std::vector<uint8_t> payload;  // re-sent verbatim on failover
    std::string venue_id;
    engine::RequestKind kind = engine::RequestKind::kQuery;
    size_t attempts = 0;
    ShardConn* conn = nullptr;  // where it is currently outstanding
  };

  void HandleClientFrame(const std::shared_ptr<Conn>& conn, Frame frame);
  // False when the shard spoke nonsense and the connection must be failed.
  bool HandleShardFrame(ShardConn* conn, Frame frame);
  // Marks the connection down, closes it, and re-routes its pendings.
  void FailShardConn(ShardConn* conn);
  // Routes one pending entry (initial send or failover). On exhaustion,
  // answers the client with kRejected.
  void RoutePending(uint64_t router_tag);
  // The healthy shard rendezvous assignment for `venue_id`; SIZE_MAX when
  // no shard is healthy.
  size_t HealthyShardForVenue(const std::string& venue_id) const;
  // A ready pool connection on `shard` (round-robin), or nullptr.
  ShardConn* ReadyConn(size_t shard);
  bool ShardHealthy(const Shard& shard) const;
  // Recounts healthy_shards_ after a connection or ready-bit change.
  void UpdateHealthy();
  void StartConnect(ShardConn* conn);
  // Runs the probe tick when it is due; returns the ms until the next.
  int BeforePoll();
  void ProbeTick();
  void RejectPending(Pending pending, const std::string& reason);
  // Probes every shard with a ready connection on behalf of a client's
  // kStatsProbe; answers at once when there is none.
  void StartStatsWait(const std::shared_ptr<Conn>& client, uint64_t tag);
  // `conn` has replied (or failed) for the wait at `it` (null: nothing
  // new, just check); answers the client once no shard is owed.
  void SettleStatsWait(std::map<uint64_t, StatsWait>::iterator it,
                       ShardConn* conn);
  // The first ready pool connection of `shard` (the probe connection), or
  // nullptr.
  ShardConn* ProbeConn(Shard& shard);

  std::vector<std::string> venue_ids_;
  RouterOptions options_;
  std::vector<Shard> shards_;

  // Loop-thread-owned.
  std::map<uint64_t, Pending> pending_;
  std::map<uint64_t, StatsWait> stats_waits_;  // by router probe tag
  uint64_t next_router_tag_ = 1;
  uint64_t probe_tag_ = 0;
  std::chrono::steady_clock::time_point next_probe_{};  // first tick at once

  // Written by the loop, read by the accessors from any thread.
  std::atomic<uint64_t> requests_forwarded_{0};
  std::atomic<uint64_t> responses_returned_{0};
  std::atomic<uint64_t> failovers_{0};
  std::atomic<uint64_t> no_shard_rejections_{0};
  std::atomic<uint64_t> shard_disconnects_{0};
  std::atomic<size_t> healthy_shards_{0};

  EventLoop loop_;  // last: its thread uses everything above
};

}  // namespace net
}  // namespace viptree

#endif  // VIPTREE_NET_ROUTER_H_
