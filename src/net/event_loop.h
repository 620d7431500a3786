// net::EventLoop + net::Conn: the one poll() loop under both network
// servers. The loop owns a listener, every connection it accepts, and the
// connections its server dials; it accepts, reads into each connection's
// FrameDecoder, flushes outboxes, and runs the start / drain / stop
// lifecycle. A server adds only its policy, as plain callbacks: what a
// frame means (ShardServer submits to engine::Service, Router forwards to
// a shard), a timed step before each poll (the router's probe tick), and
// when a drain has nothing left to answer.
//
// Threading: one loop thread owns every socket. The only cross-thread
// surfaces are RequestDrain() / Stop() / Wake() (atomic flag + self-pipe,
// RequestDrain safe from a signal handler) and Conn::Send, which another
// thread may call to queue a frame before it calls Wake().
//
// Error containment: a connection the loop accepted that sends a bad frame
// is poisoned — answered with a kError frame, never read again, and closed
// once that frame is flushed. Every other connection keeps serving.

#ifndef VIPTREE_NET_EVENT_LOOP_H_
#define VIPTREE_NET_EVENT_LOOP_H_

#include <atomic>
#include <cstdint>
#include <functional>
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

// One TCP connection of an EventLoop: the socket, the decoder its bytes
// feed, and the outbox of encoded frames not yet written. The loop thread
// owns the socket, the decoder and `poisoned_`; the outbox and `closed_`
// sit under a mutex, so a Service worker's completion callback may
// append. Reading and flushing are the loop's (one path each).
class Conn {
 public:
  explicit Conn(Socket sock) : sock_(std::move(sock)) {}
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  // Appends one frame (header, then payload) straight into the outbox.
  // Thread-safe. Once the connection is closed the frame is dropped and
  // this returns false.
  bool Send(FrameType type, uint64_t tag, Span<const uint8_t> payload);
  // Loop thread: Send, then write what the socket takes right away. False
  // when the frame was dropped or the peer is gone.
  bool SendNow(FrameType type, uint64_t tag, Span<const uint8_t> payload) {
    return Send(type, tag, payload) && Flush();
  }
  // Loop thread: closes the socket; later Sends are dropped. Idempotent.
  void Close();

 private:
  friend class EventLoop;

  // Writes as much of the outbox as the socket takes. False when the peer
  // is gone or the connection is closed.
  bool Flush();
  // Feeds every byte the socket has to the decoder. False on EOF or a
  // socket error.
  bool Read();
  bool HasOutput() const;
  bool closed() const;

  Socket sock_;
  FrameDecoder decoder_;
  // Set by EventLoop::Poison: a kError frame is queued, reads have stopped.
  bool poisoned_ = false;

  mutable std::mutex mu_;
  std::vector<uint8_t> outbox_;
  size_t out_pos_ = 0;  // flushed prefix of outbox_
  bool closed_ = false;
};

class EventLoop {
 public:
  // A server's policy. Every callback runs on the loop thread.
  struct Callbacks {
    // A complete frame arrived on an accepted connection.
    std::function<void(const std::shared_ptr<Conn>&, Frame)> on_frame;
    // Optional: runs before every poll and returns the longest that poll
    // may wait, in ms (clamped to [1, 100]; 100 when absent).
    std::function<int()> before_poll;
    // While draining: true once no further reply can reach an accepted
    // connection (it may block until then). The loop exits when this
    // holds and every accepted connection's outbox is flushed.
    std::function<bool()> drained;
  };

  // A connection the server dialed (Dial). Every callback runs on the
  // loop thread.
  struct PeerCallbacks {
    std::function<void()> on_connect;
    // False fails the connection.
    std::function<bool(Frame)> on_frame;
    // The loop closed the connection: the connect failed, the peer hung
    // up or errored, or it sent a frame on_frame or the decoder rejected.
    // Not called when the server closed it (Conn::Close).
    std::function<void()> on_close;
  };

  explicit EventLoop(Callbacks callbacks) : callbacks_(std::move(callbacks)) {}
  ~EventLoop() { Stop(); }

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  // Listens on `bind_address:port` (0 = ephemeral) and spawns the loop.
  // A taken port is a Status, not an abort.
  io::Status Start(const std::string& bind_address, uint16_t port);
  // The bound port (valid after a successful Start).
  uint16_t port() const { return port_; }

  // Async-signal-safe graceful drain: close the listener, stop reading
  // accepted connections, wait for Callbacks::drained, flush, exit.
  void RequestDrain();
  // Blocks until the loop exits.
  void Wait();
  // Immediate exit; every connection closes unflushed. Idempotent.
  void Stop();
  // Wakes the loop from any thread (after a cross-thread Conn::Send).
  void Wake() const { wake_.Wake(); }

  // Loop thread: a drain has started.
  bool draining() const { return draining_; }
  // Loop thread: answers `conn` with a kError frame carrying `message`
  // and `tag`, stops reading it, and counts a protocol error. The loop
  // closes it once the frame is flushed.
  void Poison(Conn& conn, const std::string& message, uint64_t tag);
  // Loop thread: starts a non-blocking connect to `endpoint`. The
  // connection is polled before every accepted one until it closes.
  // nullptr when the connect could not even start (retry later).
  std::shared_ptr<Conn> Dial(const std::string& endpoint,
                             PeerCallbacks callbacks);

  uint64_t connections_accepted() const {
    return connections_accepted_.load(std::memory_order_relaxed);
  }
  uint64_t protocol_errors() const {
    return protocol_errors_.load(std::memory_order_relaxed);
  }

 private:
  struct Peer {
    std::shared_ptr<Conn> conn;
    bool connecting = true;
    PeerCallbacks callbacks;
  };

  void Run();
  void AcceptAll();
  // Each returns false when the connection must close.
  bool ServiceAccepted(const std::shared_ptr<Conn>& conn, short revents);
  bool ServicePeer(Peer& peer, short revents);

  Callbacks callbacks_;
  Socket listener_;
  uint16_t port_ = 0;
  WakePipe wake_;
  std::mutex lifecycle_mu_;  // serializes Start/Wait/Stop bookkeeping
  bool started_ = false;
  std::atomic<bool> drain_requested_{false};
  std::atomic<bool> stop_requested_{false};

  // Loop-thread-owned.
  bool draining_ = false;
  std::map<int, std::shared_ptr<Conn>> accepted_;
  std::vector<std::unique_ptr<Peer>> peers_;

  std::atomic<uint64_t> connections_accepted_{0};
  std::atomic<uint64_t> protocol_errors_{0};
  std::thread thread_;
};

}  // namespace net
}  // namespace viptree

#endif  // VIPTREE_NET_EVENT_LOOP_H_
