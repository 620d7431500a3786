// net::Client: a small blocking client over one wire-protocol connection,
// used by tests, benches, the `viptree_query --connect` CLI mode, and CI
// smokes. Send/Receive are decoupled so callers can pipeline a window of
// requests (responses come back in submission order only on a one-worker
// shard — correlate by tag, exactly like the in-process streaming API).
//
// Not thread-safe: one Client per thread. For a fleet of connections, hold
// a Client per endpoint (what bench_net_throughput's open-loop driver
// does; the router's shard pools are non-blocking EventLoop connections).

#ifndef VIPTREE_NET_CLIENT_H_
#define VIPTREE_NET_CLIENT_H_

#include <cstdint>
#include <memory>
#include <string>

#include "net/socket.h"
#include "net/wire.h"

namespace viptree {
namespace net {

class Client {
 public:
  // Connects (blocking, bounded by timeout_ms; <= 0 = OS default) or
  // returns nullptr with a human-readable *error.
  static std::unique_ptr<Client> Connect(const std::string& endpoint,
                                         std::string* error,
                                         double timeout_ms = 5000.0);

  const std::string& endpoint() const { return endpoint_; }

  // Fire-and-forget send of one request frame (the pipelining half).
  io::Status Send(const WireRequest& request, uint64_t tag);

  // Blocks until the next complete frame arrives. Only kResponse frames
  // are expected here; a kError frame (the server poisoned this
  // connection) or an unexpected type is reported as a Status error.
  // `timeout_ms` bounds the wait; <= 0 waits forever.
  io::Status Receive(WireResponse* response, uint64_t* tag,
                     double timeout_ms = 0.0);

  // One full round trip (tag managed internally).
  io::Status Call(const WireRequest& request, WireResponse* response);

  // Health / stats round trips (the probe frames the router also uses).
  io::Status Health(WireHealth* health, double timeout_ms = 5000.0);
  io::Status Stats(WireStats* stats, double timeout_ms = 5000.0);

 private:
  Client(Socket sock, std::string endpoint)
      : sock_(std::move(sock)), endpoint_(std::move(endpoint)) {}

  // Sends raw bytes, looping over partial writes.
  io::Status SendBytes(const std::vector<uint8_t>& bytes);
  // Blocks for the next frame of any type.
  io::Status NextFrame(Frame* frame, double timeout_ms);

  Socket sock_;
  std::string endpoint_;
  FrameDecoder decoder_;
  uint64_t next_tag_ = 1;
};

}  // namespace net
}  // namespace viptree

#endif  // VIPTREE_NET_CLIENT_H_
