#include "net/event_loop.h"

#include <errno.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>

#include <algorithm>
#include <optional>
#include <utility>

#include "common/check.h"

namespace viptree {
namespace net {

namespace {

// Level-triggered poll ticks over at least this often even with no
// events: cheap insurance against a lost wakeup, and the longest a
// server's before_poll step can be late.
constexpr int kPollTimeoutMs = 100;

constexpr size_t kReadChunk = 64 * 1024;

constexpr int kListenBacklog = 64;
// Connections beyond this are accepted and immediately closed, bounding
// the poll set and per-connection buffer memory.
constexpr size_t kMaxConnections = 256;

}  // namespace

bool Conn::Send(FrameType type, uint64_t tag, Span<const uint8_t> payload) {
  // The header (and its payload CRC) is built before the lock, so the loop
  // thread's flush waits on a worker's append only for the two copies.
  uint8_t header[kHeaderBytes];
  EncodeFrameHeader(type, tag, payload, header);
  std::lock_guard<std::mutex> lock(mu_);
  if (closed_) return false;
  const bool was_idle = out_pos_ == outbox_.size();
  outbox_.insert(outbox_.end(), header, header + kHeaderBytes);
  outbox_.insert(outbox_.end(), payload.begin(), payload.end());
  frames_.fetch_add(1, std::memory_order_relaxed);
  return was_idle;
}

bool Conn::Flush() {
  std::lock_guard<std::mutex> lock(mu_);
  if (closed_) return false;
  while (out_pos_ < outbox_.size()) {
    const ssize_t n = ::send(sock_.fd(), outbox_.data() + out_pos_,
                             outbox_.size() - out_pos_, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      blocked_ = errno == EAGAIN || errno == EWOULDBLOCK;
      if (!blocked_) return false;  // peer gone: its replies die with it
      break;
    }
    writes_.fetch_add(1, std::memory_order_relaxed);
    out_pos_ += static_cast<size_t>(n);
  }
  if (out_pos_ == outbox_.size()) {
    outbox_.clear();
    out_pos_ = 0;
  }
  return true;
}

bool Conn::Read() {
  uint8_t chunk[kReadChunk];
  while (true) {
    const ssize_t n = ::recv(sock_.fd(), chunk, sizeof(chunk), 0);
    if (n == 0) return false;  // orderly EOF
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
      if (errno == EINTR) continue;
      return false;
    }
    decoder_.Feed(chunk, static_cast<size_t>(n));
    if (static_cast<size_t>(n) < sizeof(chunk)) return true;
  }
}

bool Conn::HasOutput() const {
  std::lock_guard<std::mutex> lock(mu_);
  return out_pos_ < outbox_.size();
}

bool Conn::closed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return closed_;
}

void Conn::Close() {
  std::lock_guard<std::mutex> lock(mu_);
  closed_ = true;
  sock_.Close();
}

io::Status EventLoop::Start(const std::string& bind_address, uint16_t port) {
  std::lock_guard<std::mutex> lock(lifecycle_mu_);
  VIPTREE_CHECK_MSG(!started_, "EventLoop::Start called twice");
  if (io::Status status = WakePipe::Create(&wake_); !status.ok()) {
    return status;
  }
  if (io::Status status =
          ListenTcp(bind_address, port, kListenBacklog, &listener_, &port_);
      !status.ok()) {
    return status;
  }
  thread_ = std::thread([this] { Run(); });
  started_ = true;
  return io::Status::Ok();
}

void EventLoop::RequestDrain() {
  drain_requested_.store(true, std::memory_order_release);
  wake_.Wake();
}

void EventLoop::Wait() {
  std::lock_guard<std::mutex> lock(lifecycle_mu_);
  if (thread_.joinable()) thread_.join();
}

void EventLoop::Stop() {
  stop_requested_.store(true, std::memory_order_release);
  // Wake before taking the lock: a concurrent Wait() holds it while it
  // joins, and only the wake ends that join before the poll timeout.
  wake_.Wake();
  std::lock_guard<std::mutex> lock(lifecycle_mu_);
  if (thread_.joinable()) thread_.join();
}

void EventLoop::Poison(Conn& conn, const std::string& message, uint64_t tag) {
  protocol_errors_.fetch_add(1, std::memory_order_relaxed);
  conn.poisoned_ = true;
  io::Writer payload;  // a kError payload is one string
  payload.String(message);
  conn.Send(FrameType::kError, tag, payload.buffer());
}

std::shared_ptr<Conn> EventLoop::Dial(const std::string& endpoint,
                                      PeerCallbacks callbacks) {
  Socket sock;
  if (!ConnectNonBlocking(endpoint, &sock).ok()) return nullptr;
  auto peer = std::make_unique<Peer>();
  peer->conn =
      std::make_shared<Conn>(std::move(sock), frames_queued_, dialed_writes_);
  peer->callbacks = std::move(callbacks);
  peers_.push_back(std::move(peer));
  return peers_.back()->conn;
}

void EventLoop::Run() {
  std::vector<pollfd> pollfds;
  std::vector<Peer*> polled_peers;
  std::vector<std::shared_ptr<Conn>> polled_conns;

  while (!stop_requested_.load(std::memory_order_acquire)) {
    if (!draining_ && drain_requested_.load(std::memory_order_acquire)) {
      // Stop admitting work: no new connections, no further reads from
      // accepted ones. Replies already owed still go out.
      draining_ = true;
      listener_.Close();
    }
    if (draining_ && callbacks_.drained()) {
      bool flushed = true;
      for (const auto& [fd, conn] : accepted_) {
        if (conn->HasOutput()) {
          flushed = false;
          break;
        }
      }
      if (flushed) break;
    }

    int timeout = kPollTimeoutMs;
    if (callbacks_.before_poll) {
      timeout = std::clamp(callbacks_.before_poll(), 1, kPollTimeoutMs);
    }

    pollfds.clear();
    polled_peers.clear();
    polled_conns.clear();
    // poll() skips a negative fd, so a closed listener keeps its slot.
    pollfds.push_back({wake_.read_end.fd(), POLLIN, 0});
    pollfds.push_back({listener_.fd(), POLLIN, 0});
    for (const auto& peer : peers_) {
      short events = POLLOUT;  // a connect completes by polling writable
      if (!peer->connecting) {
        events = POLLIN;
        if (peer->conn->HasOutput()) events |= POLLOUT;
      }
      pollfds.push_back({peer->conn->sock_.fd(), events, 0});
      polled_peers.push_back(peer.get());
    }
    for (const auto& [fd, conn] : accepted_) {
      short events = 0;
      if (!draining_ && !conn->poisoned_) events |= POLLIN;
      if (conn->HasOutput()) events |= POLLOUT;
      pollfds.push_back({fd, events, 0});
      polled_conns.push_back(conn);
    }

    const int ready = ::poll(pollfds.data(),
                             static_cast<nfds_t>(pollfds.size()), timeout);
    if (ready < 0 && errno != EINTR) break;
    if (stop_requested_.load(std::memory_order_acquire)) break;

    if (pollfds[0].revents & POLLIN) wake_.Clear();
    if (pollfds[1].revents & POLLIN) AcceptAll();

    // Dialed connections first: the router's shard replies free pending
    // slots before new client requests claim them.
    size_t index = 2;
    for (Peer* peer : polled_peers) {
      const short revents = pollfds[index++].revents;
      // The server may have closed it earlier in this pass.
      if (peer->conn->closed()) continue;
      if (!ServicePeer(*peer, revents)) {
        peer->conn->Close();
        peer->callbacks.on_close();
      }
    }
    for (const std::shared_ptr<Conn>& conn : polled_conns) {
      const pollfd& pfd = pollfds[index++];
      if (!ServiceAccepted(conn, pfd.revents)) {
        conn->Close();
        accepted_.erase(pfd.fd);
      }
    }
    FlushAll();
    peers_.erase(std::remove_if(peers_.begin(), peers_.end(),
                                [](const std::unique_ptr<Peer>& peer) {
                                  return peer->conn->closed();
                                }),
                 peers_.end());
  }

  // Exit: close every socket under its lock, so a late Send (a Service
  // worker's callback) is dropped instead of growing a dead outbox.
  for (auto& [fd, conn] : accepted_) conn->Close();
  accepted_.clear();
  for (const auto& peer : peers_) peer->conn->Close();
  peers_.clear();
  listener_.Close();
}

void EventLoop::AcceptAll() {
  while (true) {
    const int fd = ::accept(listener_.fd(), nullptr, nullptr);
    if (fd < 0) return;  // EAGAIN (or a transient error): try next pass
    Socket sock(fd);
    if (accepted_.size() >= kMaxConnections || !SetNonBlocking(fd).ok()) {
      continue;  // closed by ~Socket
    }
    // Frames are small and latency-bound; without this, Nagle against the
    // peer's delayed ACKs stalls pipelined streams.
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    accepted_.emplace(fd, std::make_shared<Conn>(std::move(sock),
                                                 frames_queued_,
                                                 accepted_writes_));
    connections_accepted_.fetch_add(1, std::memory_order_relaxed);
  }
}

bool EventLoop::ServiceAccepted(const std::shared_ptr<Conn>& conn,
                                short revents) {
  if (revents & (POLLERR | POLLNVAL)) return false;
  if (revents & POLLOUT) conn->blocked_ = false;
  if (revents & (POLLIN | POLLHUP)) {
    if (conn->poisoned_ || draining_) {
      if (revents & POLLHUP) return false;
    } else {
      if (!conn->Read()) return false;
      while (!conn->poisoned_) {
        std::optional<Frame> frame = conn->decoder_.Next();
        if (!frame.has_value()) break;
        callbacks_.on_frame(conn, std::move(*frame));
      }
      if (conn->decoder_.failed() && !conn->poisoned_) {
        // Framing-level violation (bad magic/version/CRC/length).
        Poison(*conn, conn->decoder_.error(), 0);
      }
    }
  }
  return true;
}

bool EventLoop::ServicePeer(Peer& peer, short revents) {
  Conn& conn = *peer.conn;
  if (peer.connecting) {
    if (!(revents & (POLLOUT | POLLERR | POLLHUP))) return true;
    if (!FinishConnect(conn.sock_.fd()).ok()) return false;
    peer.connecting = false;
    peer.callbacks.on_connect();
    return true;
  }
  if (revents & (POLLERR | POLLNVAL)) return false;
  if (revents & POLLOUT) conn.blocked_ = false;
  if (revents & (POLLIN | POLLHUP)) {
    if (!conn.Read()) return false;
    while (std::optional<Frame> frame = conn.decoder_.Next()) {
      if (!peer.callbacks.on_frame(std::move(*frame))) return false;
    }
    // A peer that sends garbage is as dead as one that hung up.
    return !conn.decoder_.failed();
  }
  return true;
}

void EventLoop::FlushAll() {
  // By index: an on_close may Dial, which appends to peers_.
  for (size_t i = 0; i < peers_.size(); ++i) {
    Conn& conn = *peers_[i]->conn;
    if (peers_[i]->connecting || conn.blocked_ || conn.closed()) continue;
    if (!conn.Flush()) {
      conn.Close();
      peers_[i]->callbacks.on_close();
    }
  }
  for (auto it = accepted_.begin(); it != accepted_.end();) {
    Conn& conn = *it->second;
    const bool ok = conn.blocked_ || conn.Flush();
    // A poisoned connection lingers only to flush its kError frame.
    if (ok && (!conn.poisoned_ || conn.HasOutput())) {
      ++it;
    } else {
      conn.Close();
      it = accepted_.erase(it);
    }
  }
}

}  // namespace net
}  // namespace viptree
