#include "net/router.h"

#include <errno.h>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <string.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <utility>

#include "common/check.h"

namespace viptree {
namespace net {

namespace {

constexpr int kPollTimeoutMs = 100;
constexpr size_t kReadChunk = 64 * 1024;
constexpr int kListenBacklog = 64;
// Client connections beyond this are accepted and immediately closed.
constexpr size_t kMaxClientConnections = 256;
// Connections kept open to each shard. More than one lets a shard ride out
// one dead socket without a re-route and spreads pipelined load.
constexpr size_t kShardPoolSize = 2;
// Consecutive unanswered probe ticks after which a shard's connections are
// failed over even without a TCP error (a hung, not dead, process).
constexpr size_t kProbeMissLimit = 10;
// Routing attempts per request (1 initial + failovers) before the client
// gets kRejected.
constexpr size_t kMaxAttempts = 3;

// FNV-1a over the venue id, then splitmix64-style avalanche mixed with the
// shard index: the per-(venue, shard) rendezvous score. Deterministic
// across processes and platforms, so every router instance over the same
// shard list computes the same partition.
uint64_t Fnv1a(const std::string& s) {
  uint64_t h = 1469598103934665603ull;
  for (const char c : s) {
    h ^= static_cast<uint8_t>(c);
    h *= 1099511628211ull;
  }
  return h;
}

uint64_t Mix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

uint64_t RendezvousScore(const std::string& venue_id, size_t shard) {
  return Mix64(Fnv1a(venue_id) ^ (0xA5A5A5A5A5A5A5A5ull +
                                  static_cast<uint64_t>(shard)));
}

}  // namespace

Router::Router(std::vector<std::string> shard_endpoints,
               std::vector<std::string> venue_ids, RouterOptions options)
    : venue_ids_(std::move(venue_ids)), options_(std::move(options)) {
  VIPTREE_CHECK_MSG(!shard_endpoints.empty(),
                    "a router needs at least one shard endpoint");
  shards_.resize(shard_endpoints.size());
  for (size_t i = 0; i < shard_endpoints.size(); ++i) {
    shards_[i].endpoint = std::move(shard_endpoints[i]);
    for (size_t p = 0; p < kShardPoolSize; ++p) {
      auto conn = std::make_unique<ShardConn>();
      conn->shard = i;
      shards_[i].pool.push_back(std::move(conn));
    }
  }
  shard_healthy_snapshot_.assign(shards_.size(), false);
}

Router::~Router() { Stop(); }

io::Status Router::Start() {
  std::lock_guard<std::mutex> lock(lifecycle_mu_);
  VIPTREE_CHECK_MSG(!started_, "Router::Start called twice");
  if (io::Status status = WakePipe::Create(&wake_); !status.ok()) {
    return status;
  }
  if (io::Status status = ListenTcp(options_.bind_address, options_.port,
                                    kListenBacklog, &listener_, &port_);
      !status.ok()) {
    return status;
  }
  loop_thread_ = std::thread([this] { Loop(); });
  started_ = true;
  return io::Status::Ok();
}

void Router::RequestDrain() {
  drain_requested_.store(true, std::memory_order_release);
  wake_.Wake();
}

void Router::Wait() {
  std::lock_guard<std::mutex> lock(lifecycle_mu_);
  if (loop_thread_.joinable()) loop_thread_.join();
}

void Router::Stop() {
  stop_requested_.store(true, std::memory_order_release);
  std::lock_guard<std::mutex> lock(lifecycle_mu_);
  if (started_ && loop_thread_.joinable()) {
    wake_.Wake();
    loop_thread_.join();
  }
}

size_t Router::ShardForVenue(const std::string& venue_id) const {
  size_t best = 0;
  uint64_t best_score = 0;
  for (size_t i = 0; i < shards_.size(); ++i) {
    const uint64_t score = RendezvousScore(venue_id, i);
    if (i == 0 || score > best_score) {
      best = i;
      best_score = score;
    }
  }
  return best;
}

std::vector<std::pair<std::string, size_t>> Router::Assignments() const {
  std::vector<std::pair<std::string, size_t>> out;
  out.reserve(venue_ids_.size());
  for (const std::string& venue : venue_ids_) {
    out.emplace_back(venue, ShardForVenue(venue));
  }
  return out;
}

RouterCounters Router::counters() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  return counters_;
}

size_t Router::healthy_shards() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  size_t healthy = 0;
  for (const bool h : shard_healthy_snapshot_) {
    if (h) ++healthy;
  }
  return healthy;
}

bool Router::ShardHealthy(const Shard& shard) const {
  if (!shard.ready_flag) return false;
  for (const auto& conn : shard.pool) {
    if (conn->state == ShardConn::State::kReady) return true;
  }
  return false;
}

size_t Router::HealthyShardForVenue(const std::string& venue_id) const {
  size_t best = SIZE_MAX;
  uint64_t best_score = 0;
  for (size_t i = 0; i < shards_.size(); ++i) {
    if (!ShardHealthy(shards_[i])) continue;
    const uint64_t score = RendezvousScore(venue_id, i);
    if (best == SIZE_MAX || score > best_score) {
      best = i;
      best_score = score;
    }
  }
  return best;
}

Router::ShardConn* Router::ReadyConn(size_t shard_index) {
  Shard& shard = shards_[shard_index];
  const size_t n = shard.pool.size();
  for (size_t step = 0; step < n; ++step) {
    ShardConn* conn = shard.pool[(shard.next_conn + step) % n].get();
    if (conn->state == ShardConn::State::kReady) {
      shard.next_conn = (shard.next_conn + step + 1) % n;
      return conn;
    }
  }
  return nullptr;
}

void Router::StartConnect(ShardConn* conn) {
  if (conn->state != ShardConn::State::kDown) return;
  const std::string& endpoint = shards_[conn->shard].endpoint;
  std::string host;
  uint16_t port = 0;
  if (!ParseHostPort(endpoint, &host, &port)) return;

  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* resolved = nullptr;
  if (::getaddrinfo(host.c_str(), std::to_string(port).c_str(), &hints,
                    &resolved) != 0) {
    return;  // retried next probe tick
  }
  Socket sock(::socket(resolved->ai_family, resolved->ai_socktype,
                       resolved->ai_protocol));
  if (sock.valid() && SetNonBlocking(sock.fd()).ok()) {
    const int rc =
        ::connect(sock.fd(), resolved->ai_addr, resolved->ai_addrlen);
    if (rc == 0 || errno == EINPROGRESS) {
      conn->sock = std::move(sock);
      conn->state = ShardConn::State::kConnecting;
      conn->decoder = FrameDecoder();
      conn->outbox.clear();
      conn->out_pos = 0;
      conn->connect_ticks = 0;
      if (rc == 0) FinishConnect(conn);
    }
  }
  ::freeaddrinfo(resolved);
}

void Router::FinishConnect(ShardConn* conn) {
  int so_error = 0;
  socklen_t len = sizeof(so_error);
  ::getsockopt(conn->sock.fd(), SOL_SOCKET, SO_ERROR, &so_error, &len);
  if (so_error != 0) {
    conn->sock.Close();
    conn->state = ShardConn::State::kDown;
    return;
  }
  const int one = 1;
  ::setsockopt(conn->sock.fd(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  conn->state = ShardConn::State::kReady;
  shards_[conn->shard].unanswered_probes = 0;
  // A reconnected shard is optimistically ready until a probe says
  // otherwise — it just accepted our TCP handshake.
  shards_[conn->shard].ready_flag = true;
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    shard_healthy_snapshot_[conn->shard] = true;
  }
}

void Router::Loop() {
  using Clock = std::chrono::steady_clock;
  const auto probe_interval = std::chrono::microseconds(
      static_cast<int64_t>(options_.probe_interval_ms * 1000.0));
  auto next_probe = Clock::now();  // first tick fires immediately

  std::vector<pollfd> pollfds;
  std::vector<std::shared_ptr<ClientConn>> polled_clients;
  std::vector<ShardConn*> polled_shards;
  bool draining = false;

  while (!stop_requested_.load(std::memory_order_acquire)) {
    if (!draining && drain_requested_.load(std::memory_order_acquire)) {
      draining = true;
      listener_.Close();
    }
    if (draining && pending_.empty()) {
      bool flushed = true;
      for (auto& [fd, client] : clients_) {
        if (client->out_pos < client->outbox.size()) {
          flushed = false;
          break;
        }
      }
      if (flushed) break;
    }

    const auto now = Clock::now();
    if (now >= next_probe) {
      ProbeTick();
      next_probe = now + probe_interval;
    }

    pollfds.clear();
    polled_clients.clear();
    polled_shards.clear();
    pollfds.push_back({wake_.read_end.fd(), POLLIN, 0});
    if (listener_.valid()) pollfds.push_back({listener_.fd(), POLLIN, 0});
    const size_t clients_at = pollfds.size();
    for (auto& [fd, client] : clients_) {
      short events = 0;
      if (!draining && !client->poisoned) events |= POLLIN;
      if (client->out_pos < client->outbox.size()) events |= POLLOUT;
      pollfds.push_back({fd, events, 0});
      polled_clients.push_back(client);
    }
    const size_t shards_at = pollfds.size();
    for (Shard& shard : shards_) {
      for (const auto& conn : shard.pool) {
        if (conn->state == ShardConn::State::kDown) continue;
        short events = 0;
        if (conn->state == ShardConn::State::kConnecting) {
          events = POLLOUT;
        } else {
          events = POLLIN;
          if (conn->out_pos < conn->outbox.size()) events |= POLLOUT;
        }
        pollfds.push_back({conn->sock.fd(), events, 0});
        polled_shards.push_back(conn.get());
      }
    }

    const auto until_probe = std::chrono::duration_cast<
        std::chrono::milliseconds>(next_probe - Clock::now()).count();
    const int timeout = static_cast<int>(
        std::max<int64_t>(1, std::min<int64_t>(kPollTimeoutMs, until_probe)));
    const int ready = ::poll(pollfds.data(),
                             static_cast<nfds_t>(pollfds.size()), timeout);
    if (ready < 0 && errno != EINTR) break;
    if (stop_requested_.load(std::memory_order_acquire)) break;

    if (pollfds[0].revents & POLLIN) wake_.Clear();
    if (listener_.valid() && (pollfds[1].revents & POLLIN)) AcceptAll();

    // Shard connections first: responses free pending slots before new
    // client frames claim them.
    for (size_t i = 0; i < polled_shards.size(); ++i) {
      const pollfd& pfd = pollfds[shards_at + i];
      ShardConn* conn = polled_shards[i];
      if (conn->state == ShardConn::State::kConnecting) {
        if (pfd.revents & (POLLOUT | POLLERR | POLLHUP)) FinishConnect(conn);
        continue;
      }
      bool alive = true;
      if (pfd.revents & (POLLERR | POLLNVAL)) alive = false;
      if (alive && (pfd.revents & POLLOUT)) {
        alive = FlushOutbox(conn->sock.fd(), &conn->outbox, &conn->out_pos);
      }
      if (alive && (pfd.revents & (POLLIN | POLLHUP))) {
        alive = ServiceShardReadable(conn);
      }
      if (!alive) FailShardConn(conn);
    }

    for (size_t i = 0; i < polled_clients.size(); ++i) {
      const pollfd& pfd = pollfds[clients_at + i];
      const std::shared_ptr<ClientConn>& client = polled_clients[i];
      bool alive = true;
      if (pfd.revents & (POLLERR | POLLNVAL)) alive = false;
      if (alive && (pfd.revents & POLLOUT)) {
        alive =
            FlushOutbox(client->sock.fd(), &client->outbox, &client->out_pos);
      }
      if (alive && (pfd.revents & (POLLIN | POLLHUP)) && !client->poisoned &&
          !draining) {
        alive = ServiceClientReadable(client);
      } else if (alive && (pfd.revents & POLLHUP)) {
        alive = false;
      }
      if (alive && client->poisoned &&
          client->out_pos >= client->outbox.size()) {
        alive = false;
      }
      if (!alive) {
        client->closed = true;
        client->sock.Close();
        clients_.erase(pfd.fd);
      }
    }
  }

  for (auto& [fd, client] : clients_) {
    client->closed = true;
    client->sock.Close();
  }
  clients_.clear();
  pending_.clear();
  listener_.Close();
}

void Router::AcceptAll() {
  while (true) {
    const int fd = ::accept(listener_.fd(), nullptr, nullptr);
    if (fd < 0) return;
    if (clients_.size() >= kMaxClientConnections ||
        !SetNonBlocking(fd).ok()) {
      ::close(fd);
      continue;
    }
    // Same rationale as the shard server: small latency-bound frames,
    // so disable Nagle on the accepted side too.
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto client = std::make_shared<ClientConn>();
    client->sock = Socket(fd);
    clients_.emplace(fd, std::move(client));
  }
}

bool Router::ServiceClientReadable(const std::shared_ptr<ClientConn>& conn) {
  uint8_t chunk[kReadChunk];
  while (true) {
    const ssize_t n = ::recv(conn->sock.fd(), chunk, sizeof(chunk), 0);
    if (n == 0) return false;
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      return false;
    }
    conn->decoder.Feed(chunk, static_cast<size_t>(n));
    if (static_cast<size_t>(n) < sizeof(chunk)) break;
  }
  while (std::optional<Frame> frame = conn->decoder.Next()) {
    HandleClientFrame(conn, std::move(*frame));
    if (conn->poisoned) break;
  }
  if (conn->decoder.failed() && !conn->poisoned) {
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++counters_.protocol_errors;
    }
    conn->poisoned = true;
    AppendToClient(conn, EncodeErrorFrame(conn->decoder.error(), 0));
  }
  return true;
}

void Router::HandleClientFrame(const std::shared_ptr<ClientConn>& conn,
                               Frame frame) {
  switch (frame.type) {
    case FrameType::kRequest: {
      // Full decode (not just the venue column): the router is the fleet's
      // first line of input validation, so garbage never reaches a shard.
      WireRequest request;
      io::Reader reader(
          Span<const uint8_t>(frame.payload.data(), frame.payload.size()));
      std::string error;
      if (!DecodeRequestPayload(&reader, &request, &error)) {
        {
          std::lock_guard<std::mutex> lock(stats_mu_);
          ++counters_.protocol_errors;
        }
        conn->poisoned = true;
        AppendToClient(
            conn, EncodeErrorFrame("request decode: " + error, frame.tag));
        return;
      }
      const uint64_t router_tag = next_router_tag_++;
      Pending pending;
      pending.client = conn;
      pending.client_tag = frame.tag;
      pending.payload = std::move(frame.payload);
      pending.venue_id = request.venue_id;
      pending.kind = request.kind;
      pending.attempts = 0;
      pending_.emplace(router_tag, std::move(pending));
      RoutePending(router_tag);
      return;
    }
    case FrameType::kHealthProbe: {
      WireHealth health;
      size_t healthy = 0;
      for (const Shard& shard : shards_) {
        if (ShardHealthy(shard)) ++healthy;
      }
      health.ready = healthy > 0 ? 1 : 0;
      health.queue_depth = pending_.size();
      AppendToClient(conn, EncodeHealthReplyFrame(health, frame.tag));
      return;
    }
    case FrameType::kStatsProbe: {
      WireStats total;
      for (const Shard& shard : shards_) {
        if (shard.have_stats) total += shard.last_stats;
      }
      AppendToClient(conn, EncodeStatsReplyFrame(total, frame.tag));
      return;
    }
    default: {
      {
        std::lock_guard<std::mutex> lock(stats_mu_);
        ++counters_.protocol_errors;
      }
      conn->poisoned = true;
      AppendToClient(conn, EncodeErrorFrame(
                               std::string("unexpected ") +
                                   FrameTypeName(frame.type) +
                                   " frame at a router",
                               frame.tag));
      return;
    }
  }
}

void Router::RoutePending(uint64_t router_tag) {
  auto it = pending_.find(router_tag);
  if (it == pending_.end()) return;
  Pending& pending = it->second;
  ++pending.attempts;
  if (pending.attempts > kMaxAttempts) {
    Pending finished = std::move(pending);
    pending_.erase(it);
    RejectPending(std::move(finished),
                  "no shard answered after " +
                      std::to_string(kMaxAttempts) + " attempts");
    return;
  }
  const size_t shard = HealthyShardForVenue(pending.venue_id);
  ShardConn* conn = shard == SIZE_MAX ? nullptr : ReadyConn(shard);
  if (conn == nullptr) {
    Pending finished = std::move(pending);
    pending_.erase(it);
    RejectPending(std::move(finished), "no healthy shard");
    return;
  }
  pending.conn = conn;
  AppendFrame(FrameType::kRequest, router_tag,
              Span<const uint8_t>(pending.payload.data(),
                                  pending.payload.size()),
              &conn->outbox);
  if (!FlushOutbox(conn->sock.fd(), &conn->outbox, &conn->out_pos)) {
    FailShardConn(conn);  // re-routes this pending (attempts already counted)
    return;
  }
  std::lock_guard<std::mutex> lock(stats_mu_);
  ++counters_.requests_forwarded;
  if (pending.attempts > 1) ++counters_.failovers;
}

void Router::RejectPending(Pending pending, const std::string& reason) {
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++counters_.no_shard_rejections;
  }
  if (pending.client == nullptr || pending.client->closed) return;
  WireResponse response;
  response.status = engine::RequestStatus::kRejected;
  response.kind = pending.kind;
  response.venue_id = pending.venue_id;
  response.error = "router: " + reason;
  AppendToClient(pending.client,
                 EncodeResponseFrame(response, pending.client_tag));
}

bool Router::ServiceShardReadable(ShardConn* conn) {
  uint8_t chunk[kReadChunk];
  while (true) {
    const ssize_t n = ::recv(conn->sock.fd(), chunk, sizeof(chunk), 0);
    if (n == 0) return false;
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      return false;
    }
    conn->decoder.Feed(chunk, static_cast<size_t>(n));
    if (static_cast<size_t>(n) < sizeof(chunk)) break;
  }
  while (std::optional<Frame> frame = conn->decoder.Next()) {
    if (!HandleShardFrame(conn, std::move(*frame))) return false;
  }
  // A shard that sends us garbage is as dead as one that hung up.
  return !conn->decoder.failed();
}

bool Router::HandleShardFrame(ShardConn* conn, Frame frame) {
  Shard& shard = shards_[conn->shard];
  switch (frame.type) {
    case FrameType::kResponse: {
      auto it = pending_.find(frame.tag);
      if (it == pending_.end()) return true;  // duplicate post-failover: drop
      Pending pending = std::move(it->second);
      pending_.erase(it);
      {
        std::lock_guard<std::mutex> lock(stats_mu_);
        ++counters_.responses_returned;
      }
      if (pending.client == nullptr || pending.client->closed) return true;
      std::vector<uint8_t> out;
      out.reserve(kHeaderBytes + frame.payload.size());
      AppendFrame(FrameType::kResponse, pending.client_tag,
                  Span<const uint8_t>(frame.payload.data(),
                                      frame.payload.size()),
                  &out);
      AppendToClient(pending.client, out);
      return true;
    }
    case FrameType::kHealthReply: {
      WireHealth health;
      io::Reader reader(
          Span<const uint8_t>(frame.payload.data(), frame.payload.size()));
      std::string error;
      if (DecodeHealthPayload(&reader, &health, &error)) {
        shard.unanswered_probes = 0;
        shard.ready_flag = health.ready != 0;
        std::lock_guard<std::mutex> lock(stats_mu_);
        shard_healthy_snapshot_[conn->shard] = ShardHealthy(shard);
      }
      return true;
    }
    case FrameType::kStatsReply: {
      WireStats stats;
      io::Reader reader(
          Span<const uint8_t>(frame.payload.data(), frame.payload.size()));
      std::string error;
      if (DecodeStatsPayload(&reader, &stats, &error)) {
        shard.last_stats = stats;
        shard.have_stats = true;
      }
      return true;
    }
    case FrameType::kError:
    default:
      // The shard poisoned this connection (or spoke nonsense): fail it so
      // its pendings re-route.
      return false;
  }
}

void Router::FailShardConn(ShardConn* conn) {
  if (conn->state == ShardConn::State::kDown) return;
  conn->sock.Close();
  conn->state = ShardConn::State::kDown;
  conn->outbox.clear();
  conn->out_pos = 0;
  conn->decoder = FrameDecoder();
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++counters_.shard_disconnects;
    shard_healthy_snapshot_[conn->shard] = ShardHealthy(shards_[conn->shard]);
  }

  // Re-route everything outstanding on this connection. Collect tags
  // first: RoutePending mutates pending_.
  std::vector<uint64_t> stranded;
  for (const auto& [tag, pending] : pending_) {
    if (pending.conn == conn) stranded.push_back(tag);
  }
  for (const uint64_t tag : stranded) RoutePending(tag);
}

void Router::ProbeTick() {
  const size_t max_connect_ticks = static_cast<size_t>(
      options_.connect_timeout_ms / std::max(options_.probe_interval_ms, 1.0))
      + 1;
  for (size_t i = 0; i < shards_.size(); ++i) {
    Shard& shard = shards_[i];
    for (const auto& conn : shard.pool) {
      if (conn->state == ShardConn::State::kConnecting &&
          ++conn->connect_ticks > max_connect_ticks) {
        // A connect that neither completed nor errored within the timeout
        // (packets silently dropped): give up and re-dial next tick.
        conn->sock.Close();
        conn->state = ShardConn::State::kDown;
      }
      if (conn->state == ShardConn::State::kDown) StartConnect(conn.get());
    }
    ShardConn* probe_conn = nullptr;
    for (const auto& conn : shard.pool) {
      if (conn->state == ShardConn::State::kReady) {
        probe_conn = conn.get();
        break;
      }
    }
    if (probe_conn == nullptr) continue;
    if (shard.unanswered_probes >= kProbeMissLimit) {
      // Hung shard (accepting bytes, answering nothing): fail its
      // connections so pendings move on; reconnects resume next tick.
      for (const auto& conn : shard.pool) {
        if (conn->state != ShardConn::State::kDown) FailShardConn(conn.get());
      }
      shard.unanswered_probes = 0;
      continue;
    }
    ++shard.unanswered_probes;
    ++probe_tag_;
    AppendFrame(FrameType::kHealthProbe, probe_tag_, {}, &probe_conn->outbox);
    AppendFrame(FrameType::kStatsProbe, probe_tag_, {}, &probe_conn->outbox);
    if (!FlushOutbox(probe_conn->sock.fd(), &probe_conn->outbox,
                     &probe_conn->out_pos)) {
      FailShardConn(probe_conn);
    }
  }
}

void Router::AppendToClient(const std::shared_ptr<ClientConn>& conn,
                            const std::vector<uint8_t>& bytes) {
  if (conn->closed) return;
  conn->outbox.insert(conn->outbox.end(), bytes.begin(), bytes.end());
  FlushOutbox(conn->sock.fd(), &conn->outbox, &conn->out_pos);
}

bool Router::FlushOutbox(int fd, std::vector<uint8_t>* outbox,
                         size_t* out_pos) {
  if (fd < 0) return false;
  while (*out_pos < outbox->size()) {
    const ssize_t n = ::send(fd, outbox->data() + *out_pos,
                             outbox->size() - *out_pos, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
      if (errno == EINTR) continue;
      return false;
    }
    *out_pos += static_cast<size_t>(n);
  }
  if (*out_pos == outbox->size() && *out_pos > 0) {
    outbox->clear();
    *out_pos = 0;
  }
  return true;
}

}  // namespace net
}  // namespace viptree
