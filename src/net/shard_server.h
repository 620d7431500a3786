// net::ShardServer: one serving process of the sharded deployment. An
// EventLoop (net/event_loop.h) whose frames become engine::Service
// submissions, each response streamed back over the connection it arrived
// on — the socket face of the Submit -> queue -> worker -> callback
// lifecycle engine/service.h documents.
//
// Threading model. The loop thread owns every socket. Service worker
// threads never touch one: a completion callback only encodes the
// response, appends the frame to the connection's locked outbox
// (Conn::Send), and wakes the loop, so a slow peer can never block a
// query worker.
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
#include <memory>
#include <string>

#include "engine/service.h"
#include "net/event_loop.h"
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

  // Starts the Service workers, binds, and spawns the event loop. Returns
  // a Status instead of aborting: a taken port is an operational error.
  io::Status Start();

  // The bound port (valid after a successful Start).
  uint16_t port() const { return loop_.port(); }

  // Async-signal-safe graceful-drain trigger; see the drain lifecycle
  // above. Safe to call from a SIGTERM handler or any thread.
  void RequestDrain() { loop_.RequestDrain(); }

  // Blocks until the event loop exits (i.e. a drain or stop completed).
  void Wait() { loop_.Wait(); }

  // Immediate shutdown: queued requests finish kCancelled, sockets close,
  // the loop joins. Idempotent; the destructor calls it.
  void Stop();

  // The owned service's statistics (the per-shard half of the fleet-wide
  // aggregation the router performs).
  engine::ServiceStats ServiceStatsNow() const { return service_->Stats(); }

  // Observability counters for tests and logs.
  uint64_t connections_accepted() const {
    return loop_.connections_accepted();
  }
  uint64_t frames_received() const { return frames_received_; }
  uint64_t protocol_errors() const { return loop_.protocol_errors(); }

 private:
  ShardServer(std::unique_ptr<engine::Service> service,
              ShardServerOptions options);
  void HandleFrame(const std::shared_ptr<Conn>& conn, Frame frame);

  std::unique_ptr<engine::Service> service_;
  ShardServerOptions options_;
  std::atomic<uint64_t> frames_received_{0};
  EventLoop loop_;  // last: its thread uses everything above
};

}  // namespace net
}  // namespace viptree

#endif  // VIPTREE_NET_SHARD_SERVER_H_
