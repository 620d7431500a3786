// net::Router: the thin front process of the sharded deployment. Clients
// speak the same wire protocol to the router as to a shard; the router
// decodes only enough of each request frame to learn its venue, picks the
// owning shard by consistent (rendezvous) assignment over the healthy
// shard set, forwards the *unmodified payload* under a fresh router tag,
// and restores the caller's tag on the way back — so the router scales
// with frame bytes, not with query complexity.
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
// The cached per-shard stats replies are summed into the fleet-wide
// WireStats the router answers kStatsProbe with.
//
// Threading: strictly single-threaded — one poll() loop owns every socket
// and all state, so there are no locks on the forwarding path. The only
// cross-thread surface is RequestDrain()/Stop() (atomic flag + self-pipe),
// safe from signal handlers.

#ifndef VIPTREE_NET_ROUTER_H_
#define VIPTREE_NET_ROUTER_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "net/socket.h"
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
  uint16_t port() const { return port_; }

  // Async-signal-safe graceful drain: stop accepting, answer everything
  // in flight, flush, exit. Wait() joins the loop.
  void RequestDrain();
  void Wait();
  void Stop();

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
  struct ClientConn {
    Socket sock;
    FrameDecoder decoder;
    std::vector<uint8_t> outbox;
    size_t out_pos = 0;
    bool poisoned = false;  // flush the kError frame, then close
    bool closed = false;    // late responses to this client are dropped
  };

  struct ShardConn {
    size_t shard = 0;
    Socket sock;
    enum class State { kDown, kConnecting, kReady };
    State state = State::kDown;
    FrameDecoder decoder;
    std::vector<uint8_t> outbox;
    size_t out_pos = 0;
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

  struct Pending {
    std::shared_ptr<ClientConn> client;
    uint64_t client_tag = 0;
    std::vector<uint8_t> payload;  // re-sent verbatim on failover
    std::string venue_id;
    engine::RequestKind kind = engine::RequestKind::kQuery;
    size_t attempts = 0;
    ShardConn* conn = nullptr;  // where it is currently outstanding
  };

  void Loop();
  void AcceptAll();
  bool ServiceClientReadable(const std::shared_ptr<ClientConn>& conn);
  void HandleClientFrame(const std::shared_ptr<ClientConn>& conn,
                         Frame frame);
  bool ServiceShardReadable(ShardConn* conn);
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
  void StartConnect(ShardConn* conn);
  void FinishConnect(ShardConn* conn);
  void ProbeTick();
  void RejectPending(Pending pending, const std::string& reason);
  void AppendToClient(const std::shared_ptr<ClientConn>& conn,
                      const std::vector<uint8_t>& bytes);
  static bool FlushOutbox(int fd, std::vector<uint8_t>* outbox,
                          size_t* out_pos);

  std::vector<std::string> venue_ids_;
  RouterOptions options_;
  std::vector<Shard> shards_;
  Socket listener_;
  uint16_t port_ = 0;
  WakePipe wake_;
  std::thread loop_thread_;
  bool started_ = false;
  std::mutex lifecycle_mu_;
  std::atomic<bool> drain_requested_{false};
  std::atomic<bool> stop_requested_{false};

  // Everything below is loop-thread-owned, except the two mutable
  // snapshots guarded by stats_mu_ for the in-process accessors.
  std::map<int, std::shared_ptr<ClientConn>> clients_;
  std::map<uint64_t, Pending> pending_;
  uint64_t next_router_tag_ = 1;
  uint64_t probe_tag_ = 0;

  mutable std::mutex stats_mu_;
  RouterCounters counters_;
  std::vector<bool> shard_healthy_snapshot_;
};

}  // namespace net
}  // namespace viptree

#endif  // VIPTREE_NET_ROUTER_H_
