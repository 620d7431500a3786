#include "net/shard_server.h"

#include <errno.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <utility>

#include "common/check.h"

namespace viptree {
namespace net {

namespace {

// Level-triggered poll ticks over at most this often even with no events:
// cheap insurance against a lost wakeup, and the cadence at which the
// drain flag is re-checked.
constexpr int kPollTimeoutMs = 250;

constexpr size_t kReadChunk = 64 * 1024;

constexpr int kListenBacklog = 64;
// Connections beyond this are accepted and immediately closed, bounding
// the poll set and per-connection buffer memory.
constexpr size_t kMaxConnections = 256;

}  // namespace

ShardServer::ShardServer(std::shared_ptr<const engine::VenueBundle> bundle,
                         ShardServerOptions options)
    : service_(std::make_unique<engine::Service>(std::move(bundle),
                                                 options.service)),
      options_(std::move(options)) {}

ShardServer::ShardServer(engine::VenueRegistry registry,
                         ShardServerOptions options)
    : service_(std::make_unique<engine::Service>(std::move(registry),
                                                 options.service)),
      options_(std::move(options)) {}

ShardServer::~ShardServer() { Stop(); }

io::Status ShardServer::Start() {
  std::lock_guard<std::mutex> lock(lifecycle_mu_);
  VIPTREE_CHECK_MSG(!started_, "ShardServer::Start called twice");
  if (io::Status status = WakePipe::Create(&wake_); !status.ok()) {
    return status;
  }
  if (io::Status status = ListenTcp(options_.bind_address, options_.port,
                                    kListenBacklog, &listener_, &port_);
      !status.ok()) {
    return status;
  }
  service_->Start();
  loop_thread_ = std::thread([this] { Loop(); });
  started_ = true;
  return io::Status::Ok();
}

void ShardServer::RequestDrain() {
  drain_requested_.store(true, std::memory_order_release);
  wake_.Wake();
}

void ShardServer::Wait() {
  std::lock_guard<std::mutex> lock(lifecycle_mu_);
  if (loop_thread_.joinable()) loop_thread_.join();
  joined_ = true;
}

void ShardServer::Stop() {
  stop_requested_.store(true, std::memory_order_release);
  {
    std::lock_guard<std::mutex> lock(lifecycle_mu_);
    if (started_ && loop_thread_.joinable()) {
      wake_.Wake();
      loop_thread_.join();
    }
    joined_ = true;
  }
  service_->Stop();
}

void ShardServer::Loop() {
  std::vector<pollfd> pollfds;
  std::vector<std::shared_ptr<Connection>> polled;
  bool drained = false;

  while (!stop_requested_.load(std::memory_order_acquire)) {
    const bool draining = draining_.load(std::memory_order_acquire);

    if (!draining && drain_requested_.load(std::memory_order_acquire)) {
      // Drain, phase 1: stop admitting bytes. Close the listener, stop
      // reading request frames, then block until every accepted request
      // has completed — the callbacks only append to outboxes, so they
      // never need this thread. Phase 2 (below) flushes those outboxes.
      draining_.store(true, std::memory_order_release);
      listener_.Close();
      service_->Drain();
      drained = true;
      continue;
    }

    if (drained) {
      // Drain, phase 2: exit once every response byte is on the wire (or
      // its peer is gone).
      bool any_pending = false;
      for (auto& [fd, conn] : connections_) {
        std::lock_guard<std::mutex> lock(conn->mu);
        if (conn->out_pos < conn->outbox.size()) {
          any_pending = true;
          break;
        }
      }
      if (!any_pending) break;
    }

    pollfds.clear();
    polled.clear();
    pollfds.push_back({wake_.read_end.fd(), POLLIN, 0});
    if (listener_.valid()) pollfds.push_back({listener_.fd(), POLLIN, 0});
    for (auto& [fd, conn] : connections_) {
      short events = 0;
      if (!draining && !conn->poisoned) events |= POLLIN;
      {
        std::lock_guard<std::mutex> lock(conn->mu);
        if (conn->out_pos < conn->outbox.size()) events |= POLLOUT;
      }
      pollfds.push_back({fd, events, 0});
      polled.push_back(conn);
    }

    const int ready = ::poll(pollfds.data(),
                             static_cast<nfds_t>(pollfds.size()),
                             kPollTimeoutMs);
    if (ready < 0 && errno != EINTR) break;
    if (stop_requested_.load(std::memory_order_acquire)) break;

    size_t index = 0;
    if (pollfds[index].revents & POLLIN) wake_.Clear();
    ++index;
    if (listener_.valid()) {
      if (pollfds[index].revents & POLLIN) AcceptAll();
      ++index;
    }

    for (size_t c = 0; c < polled.size(); ++c, ++index) {
      const pollfd& pfd = pollfds[index];
      const std::shared_ptr<Connection>& conn = polled[c];
      bool alive = true;
      if (pfd.revents & (POLLERR | POLLNVAL)) alive = false;
      if (alive && (pfd.revents & POLLOUT)) alive = FlushWrites(conn);
      if (alive && (pfd.revents & (POLLIN | POLLHUP))) {
        alive = ServiceReadable(conn);
      }
      // A poisoned connection lingers only to flush its kError frame.
      if (alive && conn->poisoned) {
        std::lock_guard<std::mutex> lock(conn->mu);
        if (conn->out_pos >= conn->outbox.size()) alive = false;
      }
      if (!alive) CloseConnection(pfd.fd);
    }
  }

  // Loop exit: close every socket under its lock so a late response
  // callback sees `closed` and drops its bytes instead of growing a dead
  // outbox forever.
  for (auto& [fd, conn] : connections_) {
    std::lock_guard<std::mutex> lock(conn->mu);
    conn->closed = true;
    conn->sock.Close();
  }
  connections_.clear();
  listener_.Close();
}

void ShardServer::AcceptAll() {
  while (true) {
    const int fd = ::accept(listener_.fd(), nullptr, nullptr);
    if (fd < 0) return;  // EAGAIN (or a transient error): try next tick
    if (connections_.size() >= kMaxConnections) {
      ::close(fd);
      continue;
    }
    if (!SetNonBlocking(fd).ok()) {
      ::close(fd);
      continue;
    }
    // Response frames are small and latency-bound; without this, Nagle
    // against the peer's delayed ACKs stalls pipelined streams.
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto conn = std::make_shared<Connection>();
    conn->sock = Socket(fd);
    connections_.emplace(fd, std::move(conn));
    connections_accepted_.fetch_add(1, std::memory_order_relaxed);
  }
}

bool ShardServer::ServiceReadable(const std::shared_ptr<Connection>& conn) {
  uint8_t chunk[kReadChunk];
  while (true) {
    const ssize_t n = ::recv(conn->sock.fd(), chunk, sizeof(chunk), 0);
    if (n == 0) return false;  // orderly EOF
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      return false;
    }
    conn->decoder.Feed(chunk, static_cast<size_t>(n));
    if (static_cast<size_t>(n) < sizeof(chunk)) break;
  }

  while (std::optional<Frame> frame = conn->decoder.Next()) {
    frames_received_.fetch_add(1, std::memory_order_relaxed);
    HandleFrame(conn, std::move(*frame));
    if (conn->poisoned) break;
  }
  if (conn->decoder.failed() && !conn->poisoned) {
    // Framing-level violation (bad magic/version/CRC/length): report it on
    // this connection, then close. Nothing else is affected.
    protocol_errors_.fetch_add(1, std::memory_order_relaxed);
    conn->poisoned = true;
    SendOnLoop(conn, EncodeErrorFrame(conn->decoder.error(), 0));
  }
  return true;
}

void ShardServer::HandleFrame(const std::shared_ptr<Connection>& conn,
                              Frame frame) {
  switch (frame.type) {
    case FrameType::kRequest: {
      WireRequest request;
      io::Reader reader(
          Span<const uint8_t>(frame.payload.data(), frame.payload.size()));
      std::string error;
      if (!DecodeRequestPayload(&reader, &request, &error)) {
        protocol_errors_.fetch_add(1, std::memory_order_relaxed);
        conn->poisoned = true;
        SendOnLoop(conn,
                   EncodeErrorFrame("request decode: " + error, frame.tag));
        return;
      }
      engine::Request engine_request = request.ToRequest();
      engine_request.tag = frame.tag;
      // The callback runs on a Service worker (or synchronously right here
      // for admission rejections); either way it only appends bytes.
      service_->Submit(
          std::move(engine_request),
          [this, conn](const engine::Response& response) {
            std::vector<uint8_t> bytes = EncodeResponseFrame(
                WireResponse::FromResponse(response), response.tag);
            bool appended = false;
            {
              std::lock_guard<std::mutex> lock(conn->mu);
              if (!conn->closed) {
                conn->outbox.insert(conn->outbox.end(), bytes.begin(),
                                    bytes.end());
                appended = true;
              }
            }
            if (appended) wake_.Wake();
          });
      return;
    }
    case FrameType::kHealthProbe: {
      WireHealth health;
      health.ready = draining_.load(std::memory_order_acquire) ? 0 : 1;
      health.queue_depth = service_->QueueDepth();
      SendOnLoop(conn, EncodeHealthReplyFrame(health, frame.tag));
      return;
    }
    case FrameType::kStatsProbe: {
      SendOnLoop(conn,
                 EncodeStatsReplyFrame(
                     WireStats::FromServiceStats(service_->Stats()),
                     frame.tag));
      return;
    }
    default:
      // Reply frames have no business arriving at a server.
      protocol_errors_.fetch_add(1, std::memory_order_relaxed);
      conn->poisoned = true;
      SendOnLoop(conn,
                 EncodeErrorFrame(std::string("unexpected ") +
                                      FrameTypeName(frame.type) +
                                      " frame at a shard server",
                                  frame.tag));
      return;
  }
}

void ShardServer::SendOnLoop(const std::shared_ptr<Connection>& conn,
                             std::vector<uint8_t> bytes) {
  {
    std::lock_guard<std::mutex> lock(conn->mu);
    if (conn->closed) return;
    conn->outbox.insert(conn->outbox.end(), bytes.begin(), bytes.end());
  }
  FlushWrites(conn);
}

bool ShardServer::FlushWrites(const std::shared_ptr<Connection>& conn) {
  std::lock_guard<std::mutex> lock(conn->mu);
  while (conn->out_pos < conn->outbox.size()) {
    const ssize_t n =
        ::send(conn->sock.fd(), conn->outbox.data() + conn->out_pos,
               conn->outbox.size() - conn->out_pos, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      return false;  // peer gone: close (their responses die with them)
    }
    conn->out_pos += static_cast<size_t>(n);
  }
  if (conn->out_pos == conn->outbox.size() && conn->out_pos > 0) {
    conn->outbox.clear();
    conn->out_pos = 0;
  }
  return true;
}

void ShardServer::CloseConnection(int fd) {
  auto it = connections_.find(fd);
  if (it == connections_.end()) return;
  {
    std::lock_guard<std::mutex> lock(it->second->mu);
    it->second->closed = true;
    it->second->sock.Close();
  }
  connections_.erase(it);
}

}  // namespace net
}  // namespace viptree
