// net::ShardServer: one serving process of the sharded deployment. A TCP
// listener whose poll() event loop decodes wire frames (net/wire.h) into
// engine::Service submissions and streams each response back over the
// connection it arrived on — the socket face of the Submit -> queue ->
// worker -> callback lifecycle engine/service.h documents.
//
// Threading model. One event-loop thread owns every socket: it accepts,
// reads, decodes, submits, and writes. Service worker threads never touch
// a socket — a completion callback only encodes the response frame,
// appends it to the connection's locked outbox, and wakes the loop through
// a self-pipe, so all socket syscalls stay on the loop thread and a slow
// peer can never block a query worker.
//
// Error containment (the network tier's core promise): a malformed,
// truncated, or bit-flipped frame — untrusted input — fails *that
// connection* with a kError frame and a close; the process, the Service,
// and every other connection keep serving. Request-level problems the
// engine can name (unknown venue, invalid partition id) come back as
// normal kResponse frames with a non-kOk status, exactly like the
// in-process API.
//
// Drain lifecycle (SIGTERM path): RequestDrain() is async-signal-safe
// (atomic flag + self-pipe write). The loop then stops accepting, stops
// reading new frames, runs Service::Drain() — every accepted request
// completes and its response lands in an outbox — flushes every outbox,
// closes, and exits; Wait() returns once the loop is done. Stop() is the
// impatient sibling: queued requests complete kCancelled and the loop
// exits without flushing stragglers.

#ifndef VIPTREE_NET_SHARD_SERVER_H_
#define VIPTREE_NET_SHARD_SERVER_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "engine/service.h"
#include "net/socket.h"
#include "net/wire.h"

namespace viptree {
namespace net {

struct ShardServerOptions {
  // IPv4 literal to bind. Loopback by default: exposing a shard beyond the
  // host is a deployment decision, not a default.
  std::string bind_address = "127.0.0.1";
  // 0 picks an ephemeral port; port() reports the actual one (what the
  // in-process tests use to avoid fixed-port collisions).
  uint16_t port = 0;
  // Forwarded to the owned engine::Service (workers, queue bound, caching,
  // coalescing — everything downstream composes with the wire for free).
  engine::ServiceOptions service;
};

class ShardServer {
 public:
  // Single-venue shard over a shared bundle (requests leave venue_id
  // empty), or a multi-venue shard owning a registry — the same two
  // shapes as engine::Service.
  ShardServer(std::shared_ptr<const engine::VenueBundle> bundle,
              ShardServerOptions options = {});
  ShardServer(engine::VenueRegistry registry, ShardServerOptions options = {});
  ~ShardServer();  // Stop()

  ShardServer(const ShardServer&) = delete;
  ShardServer& operator=(const ShardServer&) = delete;

  // Binds, starts the Service workers, and spawns the event loop. Returns
  // a Status instead of aborting: a taken port is an operational error.
  io::Status Start();

  // The bound port (valid after a successful Start).
  uint16_t port() const { return port_; }

  // Async-signal-safe graceful-drain trigger; see the drain lifecycle
  // above. Safe to call from a SIGTERM handler or any thread.
  void RequestDrain();

  // Blocks until the event loop exits (i.e. a drain or stop completed).
  void Wait();

  // Immediate shutdown: queued requests finish kCancelled, sockets close,
  // the loop joins. Idempotent; the destructor calls it.
  void Stop();

  // The owned service's statistics (the per-shard half of the fleet-wide
  // aggregation the router performs).
  engine::ServiceStats ServiceStatsNow() const { return service_->Stats(); }

  // Observability counters for tests and logs.
  uint64_t connections_accepted() const { return connections_accepted_; }
  uint64_t frames_received() const { return frames_received_; }
  uint64_t protocol_errors() const { return protocol_errors_; }

 private:
  // One accepted connection. Owned by the loop thread except `mu`-guarded
  // outbox state, which response callbacks append to from worker threads.
  struct Connection {
    Socket sock;
    FrameDecoder decoder;

    std::mutex mu;
    std::vector<uint8_t> outbox;  // encoded frames awaiting write
    size_t out_pos = 0;           // flushed prefix of outbox
    bool closed = false;          // loop closed the socket; appends drop
    // After a protocol error: flush the kError frame, then close (no
    // further reads).
    bool poisoned = false;
  };

  void Loop();
  void AcceptAll();
  // Reads, decodes, and dispatches every complete frame; returns false if
  // the connection should be closed (EOF, error, poison without output).
  bool ServiceReadable(const std::shared_ptr<Connection>& conn);
  bool FlushWrites(const std::shared_ptr<Connection>& conn);
  void HandleFrame(const std::shared_ptr<Connection>& conn, Frame frame);
  void SendOnLoop(const std::shared_ptr<Connection>& conn,
                  std::vector<uint8_t> bytes);
  void CloseConnection(int fd);

  std::unique_ptr<engine::Service> service_;
  ShardServerOptions options_;
  Socket listener_;
  uint16_t port_ = 0;
  WakePipe wake_;
  std::thread loop_thread_;
  bool started_ = false;
  bool joined_ = false;
  std::mutex lifecycle_mu_;  // serializes Start/Stop/Wait bookkeeping

  std::atomic<bool> drain_requested_{false};
  std::atomic<bool> stop_requested_{false};
  std::atomic<bool> draining_{false};

  // Loop-thread-owned; callbacks never touch the map (they hold their own
  // shared_ptr<Connection>).
  std::map<int, std::shared_ptr<Connection>> connections_;

  std::atomic<uint64_t> connections_accepted_{0};
  std::atomic<uint64_t> frames_received_{0};
  std::atomic<uint64_t> protocol_errors_{0};
};

}  // namespace net
}  // namespace viptree

#endif  // VIPTREE_NET_SHARD_SERVER_H_
