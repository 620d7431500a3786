#include "net/router.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "common/check.h"

namespace viptree {
namespace net {

namespace {

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
    : venue_ids_(std::move(venue_ids)),
      options_(std::move(options)),
      loop_(EventLoop::Callbacks{
          [this](const std::shared_ptr<Conn>& conn, Frame frame) {
            HandleClientFrame(conn, std::move(frame));
          },
          [this] { return BeforePoll(); },
          [this] { return pending_.empty(); }}) {
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
}

Router::~Router() { Stop(); }

io::Status Router::Start() {
  return loop_.Start(options_.bind_address, options_.port);
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
  RouterCounters counters;
  counters.requests_forwarded =
      requests_forwarded_.load(std::memory_order_relaxed);
  counters.responses_returned =
      responses_returned_.load(std::memory_order_relaxed);
  counters.failovers = failovers_.load(std::memory_order_relaxed);
  counters.no_shard_rejections =
      no_shard_rejections_.load(std::memory_order_relaxed);
  counters.protocol_errors = loop_.protocol_errors();
  counters.shard_disconnects =
      shard_disconnects_.load(std::memory_order_relaxed);
  return counters;
}

size_t Router::healthy_shards() const {
  return healthy_shards_.load(std::memory_order_relaxed);
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

void Router::UpdateHealthy() {
  size_t healthy = 0;
  for (const Shard& shard : shards_) {
    if (ShardHealthy(shard)) ++healthy;
  }
  healthy_shards_.store(healthy, std::memory_order_relaxed);
}

void Router::StartConnect(ShardConn* conn) {
  EventLoop::PeerCallbacks callbacks;
  callbacks.on_connect = [this, conn] {
    conn->state = ShardConn::State::kReady;
    Shard& shard = shards_[conn->shard];
    shard.unanswered_probes = 0;
    // A reconnected shard is optimistically ready until a probe says
    // otherwise — it just accepted our TCP handshake.
    shard.ready_flag = true;
    UpdateHealthy();
  };
  callbacks.on_frame = [this, conn](Frame frame) {
    return HandleShardFrame(conn, std::move(frame));
  };
  callbacks.on_close = [this, conn] {
    if (conn->state == ShardConn::State::kConnecting) {
      conn->conn = nullptr;  // refused: redialed next probe tick
      conn->state = ShardConn::State::kDown;
    } else {
      FailShardConn(conn);
    }
  };
  conn->conn = loop_.Dial(shards_[conn->shard].endpoint, std::move(callbacks));
  if (conn->conn == nullptr) return;  // retried next probe tick
  conn->state = ShardConn::State::kConnecting;
  conn->connect_ticks = 0;
}

int Router::BeforePoll() {
  using Clock = std::chrono::steady_clock;
  const auto now = Clock::now();
  if (now >= next_probe_) {
    ProbeTick();
    next_probe_ = now + std::chrono::microseconds(static_cast<int64_t>(
                            options_.probe_interval_ms * 1000.0));
  }
  const auto until_probe = std::chrono::duration_cast<
      std::chrono::milliseconds>(next_probe_ - Clock::now()).count();
  return static_cast<int>(std::min<int64_t>(
      until_probe, std::numeric_limits<int>::max()));
}

void Router::HandleClientFrame(const std::shared_ptr<Conn>& conn,
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
        loop_.Poison(*conn, "request decode: " + error, frame.tag);
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
      health.ready = healthy_shards() > 0 ? 1 : 0;
      health.queue_depth = pending_.size();
      io::Writer payload;
      EncodeHealthPayload(health, &payload);
      conn->SendNow(FrameType::kHealthReply, frame.tag, payload.buffer());
      return;
    }
    case FrameType::kStatsProbe: {
      WireStats total;
      for (const Shard& shard : shards_) {
        if (shard.have_stats) total += shard.last_stats;
      }
      io::Writer payload;
      EncodeStatsPayload(total, &payload);
      conn->SendNow(FrameType::kStatsReply, frame.tag, payload.buffer());
      return;
    }
    default:
      loop_.Poison(*conn,
                   std::string("unexpected ") + FrameTypeName(frame.type) +
                       " frame at a router",
                   frame.tag);
      return;
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
  if (!conn->conn->SendNow(FrameType::kRequest, router_tag, pending.payload)) {
    FailShardConn(conn);  // re-routes this pending (attempts already counted)
    return;
  }
  requests_forwarded_.fetch_add(1, std::memory_order_relaxed);
  if (pending.attempts > 1) failovers_.fetch_add(1, std::memory_order_relaxed);
}

void Router::RejectPending(Pending pending, const std::string& reason) {
  no_shard_rejections_.fetch_add(1, std::memory_order_relaxed);
  WireResponse response;
  response.status = engine::RequestStatus::kRejected;
  response.kind = pending.kind;
  response.venue_id = pending.venue_id;
  response.error = "router: " + reason;
  io::Writer payload;
  EncodeResponsePayload(response, &payload);
  pending.client->SendNow(FrameType::kResponse, pending.client_tag,
                          payload.buffer());
}

bool Router::HandleShardFrame(ShardConn* conn, Frame frame) {
  Shard& shard = shards_[conn->shard];
  switch (frame.type) {
    case FrameType::kResponse: {
      auto it = pending_.find(frame.tag);
      if (it == pending_.end()) return true;  // duplicate post-failover: drop
      Pending pending = std::move(it->second);
      pending_.erase(it);
      responses_returned_.fetch_add(1, std::memory_order_relaxed);
      pending.client->SendNow(FrameType::kResponse, pending.client_tag,
                              frame.payload);
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
        UpdateHealthy();
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
  conn->conn->Close();
  conn->conn = nullptr;
  conn->state = ShardConn::State::kDown;
  shard_disconnects_.fetch_add(1, std::memory_order_relaxed);
  UpdateHealthy();

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
        conn->conn->Close();
        conn->conn = nullptr;
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
    Conn& probe = *probe_conn->conn;
    probe.Send(FrameType::kHealthProbe, probe_tag_, {});
    if (!probe.SendNow(FrameType::kStatsProbe, probe_tag_, {})) {
      FailShardConn(probe_conn);
    }
  }
}

}  // namespace net
}  // namespace viptree
