#include "net/wire.h"

#include <cstring>
#include <utility>

#include "common/check.h"

namespace viptree {
namespace net {

namespace {

// Shared by every Decode*: fold the reader's sticky error (or a validation
// message) into the caller's error slot.
bool FinishDecode(const io::Reader& reader, std::string* error) {
  if (!reader.ok()) {
    if (error != nullptr) *error = reader.error();
    return false;
  }
  return true;
}

bool DecodeFail(std::string message, std::string* error) {
  if (error != nullptr) *error = std::move(message);
  return false;
}

void EncodePoint(const IndoorPoint& point, io::Writer* writer) {
  writer->I32(point.partition);
  writer->F64(point.position.x);
  writer->F64(point.position.y);
  writer->F64(point.position.z);
}

void DecodePoint(io::Reader* reader, IndoorPoint* point) {
  point->partition = reader->I32();
  point->position.x = reader->F64();
  point->position.y = reader->F64();
  point->position.z = reader->F64();
}

void EncodeKeywords(const std::vector<std::string>& keywords,
                    io::Writer* writer) {
  writer->U64(keywords.size());
  for (const std::string& kw : keywords) writer->String(kw);
}

bool DecodeKeywords(io::Reader* reader, std::vector<std::string>* keywords,
                    std::string* error) {
  // Each keyword costs at least its 8-byte length prefix.
  const uint64_t count = reader->ArraySize(sizeof(uint64_t), "keyword list");
  keywords->clear();
  keywords->reserve(count);
  for (uint64_t i = 0; reader->ok() && i < count; ++i) {
    keywords->push_back(reader->String());
  }
  return FinishDecode(*reader, error);
}

}  // namespace

const char* FrameTypeName(FrameType type) {
  switch (type) {
    case FrameType::kRequest:
      return "request";
    case FrameType::kResponse:
      return "response";
    case FrameType::kHealthProbe:
      return "health-probe";
    case FrameType::kHealthReply:
      return "health-reply";
    case FrameType::kStatsProbe:
      return "stats-probe";
    case FrameType::kStatsReply:
      return "stats-reply";
    case FrameType::kError:
      return "error";
  }
  return "unknown";
}

engine::Request WireRequest::ToRequest() const {
  engine::Request request;
  request.kind = kind;
  request.venue_id = venue_id;
  request.query = query;
  request.delta = delta;
  if (deadline_ms > 0.0) {
    request.deadline = engine::DeadlineAfterMillis(deadline_ms);
  }
  return request;
}

WireRequest WireRequest::FromRequest(const engine::Request& request,
                                     double deadline_ms) {
  WireRequest wire;
  wire.kind = request.kind;
  wire.venue_id = request.venue_id;
  wire.query = request.query;
  wire.delta = request.delta;
  wire.deadline_ms = deadline_ms;
  return wire;
}

WireResponse WireResponse::FromResponse(const engine::Response& response) {
  WireResponse wire;
  wire.status = response.status;
  wire.kind = response.kind;
  wire.venue_id = response.venue_id;
  wire.result = response.result;
  wire.error = response.error;
  wire.queue_micros = response.queue_micros;
  return wire;
}

WireStats WireStats::FromServiceStats(const engine::ServiceStats& stats) {
  WireStats wire;
  wire.submitted = stats.submitted;
  wire.completed = stats.num_queries;
  wire.updates = stats.updates;
  wire.rejected = stats.rejected;
  wire.expired = stats.expired;
  wire.cancelled = stats.cancelled;
  wire.failed = stats.failed;
  wire.queue_depth = stats.queue_depth;
  wire.visited_nodes = stats.visited_nodes;
  wire.latency_p50 = stats.latency_micros.p50;
  wire.latency_p99 = stats.latency_micros.p99;
  wire.queue_p50 = stats.queue_micros.p50;
  wire.queue_p99 = stats.queue_micros.p99;
  return wire;
}

WireStats& WireStats::operator+=(const WireStats& other) {
  submitted += other.submitted;
  completed += other.completed;
  updates += other.updates;
  rejected += other.rejected;
  expired += other.expired;
  cancelled += other.cancelled;
  failed += other.failed;
  queue_depth += other.queue_depth;
  visited_nodes += other.visited_nodes;
  latency_p50 = latency_p50 > other.latency_p50 ? latency_p50
                                                : other.latency_p50;
  latency_p99 = latency_p99 > other.latency_p99 ? latency_p99
                                                : other.latency_p99;
  queue_p50 = queue_p50 > other.queue_p50 ? queue_p50 : other.queue_p50;
  queue_p99 = queue_p99 > other.queue_p99 ? queue_p99 : other.queue_p99;
  return *this;
}

void EncodeRequestPayload(const WireRequest& request, io::Writer* writer) {
  writer->U8(static_cast<uint8_t>(request.kind));
  writer->String(request.venue_id);
  writer->F64(request.deadline_ms);
  if (request.kind == engine::RequestKind::kQuery) {
    const engine::Query& q = request.query;
    writer->U8(static_cast<uint8_t>(q.type));
    EncodePoint(q.source, writer);
    EncodePoint(q.target, writer);
    writer->U64(q.k);
    writer->F64(q.radius);
    EncodeKeywords(q.keywords, writer);
    return;
  }
  const ObjectDelta& delta = request.delta;
  writer->U64(delta.moves.size());
  for (const ObjectDelta::Move& move : delta.moves) {
    writer->I32(move.id);
    EncodePoint(move.to, writer);
  }
  writer->U64(delta.adds.size());
  for (const ObjectDelta::Add& add : delta.adds) {
    EncodePoint(add.at, writer);
    EncodeKeywords(add.keywords, writer);
  }
  writer->U64(delta.removes.size());
  for (const ObjectId id : delta.removes) writer->I32(id);
}

bool DecodeRequestPayload(io::Reader* reader, WireRequest* request,
                          std::string* error) {
  *request = WireRequest{};
  const uint8_t kind = reader->U8();
  request->venue_id = reader->String();
  request->deadline_ms = reader->F64();
  if (!reader->ok()) return FinishDecode(*reader, error);
  if (kind > static_cast<uint8_t>(engine::RequestKind::kUpdateObjects)) {
    return DecodeFail(
        "request frame: unknown request kind " + std::to_string(kind), error);
  }
  request->kind = static_cast<engine::RequestKind>(kind);

  if (request->kind == engine::RequestKind::kQuery) {
    engine::Query& q = request->query;
    const uint8_t type = reader->U8();
    if (reader->ok() &&
        type > static_cast<uint8_t>(engine::QueryType::kBooleanKnn)) {
      return DecodeFail(
          "request frame: unknown query type " + std::to_string(type), error);
    }
    q.type = static_cast<engine::QueryType>(type);
    DecodePoint(reader, &q.source);
    DecodePoint(reader, &q.target);
    q.k = reader->U64();
    q.radius = reader->F64();
    return DecodeKeywords(reader, &q.keywords, error);
  }

  ObjectDelta& delta = request->delta;
  const uint64_t num_moves =
      reader->ArraySize(sizeof(int32_t) + 4 * sizeof(double), "delta moves");
  delta.moves.resize(reader->ok() ? num_moves : 0);
  for (ObjectDelta::Move& move : delta.moves) {
    move.id = reader->I32();
    DecodePoint(reader, &move.to);
  }
  const uint64_t num_adds =
      reader->ArraySize(4 * sizeof(double) + sizeof(uint64_t), "delta adds");
  delta.adds.resize(reader->ok() ? num_adds : 0);
  for (ObjectDelta::Add& add : delta.adds) {
    DecodePoint(reader, &add.at);
    if (!DecodeKeywords(reader, &add.keywords, error)) return false;
  }
  const uint64_t num_removes =
      reader->ArraySize(sizeof(int32_t), "delta removes");
  delta.removes.resize(reader->ok() ? num_removes : 0);
  if (!delta.removes.empty()) {
    reader->I32Array(delta.removes.data(), delta.removes.size());
  }
  return FinishDecode(*reader, error);
}

void EncodeResponsePayload(const WireResponse& response, io::Writer* writer) {
  writer->U8(static_cast<uint8_t>(response.status));
  writer->U8(static_cast<uint8_t>(response.kind));
  writer->String(response.venue_id);
  writer->String(response.error);
  writer->F64(response.queue_micros);
  const engine::Result& r = response.result;
  writer->U8(static_cast<uint8_t>(r.type));
  writer->F64(r.distance);
  writer->U64(r.doors.size());
  writer->I32Array(Span<const DoorId>(r.doors.data(), r.doors.size()));
  writer->U64(r.objects.size());
  for (const ObjectResult& object : r.objects) {
    writer->I32(object.object);
    writer->F64(object.distance);
  }
  writer->F64(r.latency_micros);
  writer->U64(r.visited_nodes);
}

bool DecodeResponsePayload(io::Reader* reader, WireResponse* response,
                           std::string* error) {
  *response = WireResponse{};
  const uint8_t status = reader->U8();
  const uint8_t kind = reader->U8();
  response->venue_id = reader->String();
  response->error = reader->String();
  response->queue_micros = reader->F64();
  if (!reader->ok()) return FinishDecode(*reader, error);
  if (status > static_cast<uint8_t>(engine::RequestStatus::kCancelled)) {
    return DecodeFail(
        "response frame: unknown status " + std::to_string(status), error);
  }
  if (kind > static_cast<uint8_t>(engine::RequestKind::kUpdateObjects)) {
    return DecodeFail(
        "response frame: unknown request kind " + std::to_string(kind), error);
  }
  response->status = static_cast<engine::RequestStatus>(status);
  response->kind = static_cast<engine::RequestKind>(kind);

  engine::Result& r = response->result;
  const uint8_t type = reader->U8();
  if (reader->ok() &&
      type > static_cast<uint8_t>(engine::QueryType::kBooleanKnn)) {
    return DecodeFail(
        "response frame: unknown result type " + std::to_string(type), error);
  }
  r.type = static_cast<engine::QueryType>(type);
  r.distance = reader->F64();
  const uint64_t num_doors = reader->ArraySize(sizeof(int32_t), "door list");
  r.doors.resize(reader->ok() ? num_doors : 0);
  if (!r.doors.empty()) reader->I32Array(r.doors.data(), r.doors.size());
  const uint64_t num_objects =
      reader->ArraySize(sizeof(int32_t) + sizeof(double), "object list");
  r.objects.resize(reader->ok() ? num_objects : 0);
  for (ObjectResult& object : r.objects) {
    object.object = reader->I32();
    object.distance = reader->F64();
  }
  r.latency_micros = reader->F64();
  r.visited_nodes = reader->U64();
  return FinishDecode(*reader, error);
}

void EncodeHealthPayload(const WireHealth& health, io::Writer* writer) {
  writer->U8(health.ready);
  writer->U64(health.queue_depth);
}

bool DecodeHealthPayload(io::Reader* reader, WireHealth* health,
                         std::string* error) {
  *health = WireHealth{};
  health->ready = reader->U8();
  health->queue_depth = reader->U64();
  return FinishDecode(*reader, error);
}

void EncodeStatsPayload(const WireStats& stats, io::Writer* writer) {
  writer->U64(stats.submitted);
  writer->U64(stats.completed);
  writer->U64(stats.updates);
  writer->U64(stats.rejected);
  writer->U64(stats.expired);
  writer->U64(stats.cancelled);
  writer->U64(stats.failed);
  writer->U64(stats.queue_depth);
  writer->U64(stats.visited_nodes);
  writer->F64(stats.latency_p50);
  writer->F64(stats.latency_p99);
  writer->F64(stats.queue_p50);
  writer->F64(stats.queue_p99);
}

bool DecodeStatsPayload(io::Reader* reader, WireStats* stats,
                        std::string* error) {
  *stats = WireStats{};
  stats->submitted = reader->U64();
  stats->completed = reader->U64();
  stats->updates = reader->U64();
  stats->rejected = reader->U64();
  stats->expired = reader->U64();
  stats->cancelled = reader->U64();
  stats->failed = reader->U64();
  stats->queue_depth = reader->U64();
  stats->visited_nodes = reader->U64();
  stats->latency_p50 = reader->F64();
  stats->latency_p99 = reader->F64();
  stats->queue_p50 = reader->F64();
  stats->queue_p99 = reader->F64();
  return FinishDecode(*reader, error);
}

void EncodeFrameHeader(FrameType type, uint64_t tag,
                       Span<const uint8_t> payload, uint8_t* header) {
  VIPTREE_CHECK_MSG(payload.size() <= kMaxPayloadBytes,
                    "frame payload exceeds kMaxPayloadBytes");
  const uint32_t magic = io::detail::ToLittle(kWireMagic);
  const uint64_t tag_le = io::detail::ToLittle(tag);
  const uint32_t size =
      io::detail::ToLittle(static_cast<uint32_t>(payload.size()));
  const uint32_t crc =
      io::detail::ToLittle(io::Crc32(payload.data(), payload.size()));
  std::memcpy(header, &magic, sizeof(magic));
  header[4] = kWireVersion;
  header[5] = static_cast<uint8_t>(type);
  header[6] = 0;  // flags (reserved, two bytes)
  header[7] = 0;
  std::memcpy(header + 8, &tag_le, sizeof(tag_le));
  std::memcpy(header + 16, &size, sizeof(size));
  std::memcpy(header + 20, &crc, sizeof(crc));
}

namespace {

template <typename EncodeFn>
std::vector<uint8_t> FrameOf(FrameType type, uint64_t tag, EncodeFn encode) {
  io::Writer payload;
  encode(&payload);
  std::vector<uint8_t> out;
  out.reserve(kHeaderBytes + payload.size());
  out.resize(kHeaderBytes);
  EncodeFrameHeader(type, tag, payload.buffer(), out.data());
  out.insert(out.end(), payload.buffer().begin(), payload.buffer().end());
  return out;
}

}  // namespace

std::vector<uint8_t> EncodeRequestFrame(const WireRequest& request,
                                        uint64_t tag) {
  return FrameOf(FrameType::kRequest, tag, [&](io::Writer* w) {
    EncodeRequestPayload(request, w);
  });
}

std::vector<uint8_t> EncodeResponseFrame(const WireResponse& response,
                                         uint64_t tag) {
  return FrameOf(FrameType::kResponse, tag, [&](io::Writer* w) {
    EncodeResponsePayload(response, w);
  });
}

std::vector<uint8_t> EncodeEmptyFrame(FrameType type, uint64_t tag) {
  return FrameOf(type, tag, [](io::Writer*) {});
}

void RetagFrame(uint64_t tag, uint8_t* frame) {
  const uint64_t little = io::detail::ToLittle(tag);
  std::memcpy(frame + 8, &little, sizeof(little));
}

void FrameDecoder::Feed(const uint8_t* data, size_t size) {
  if (failed()) return;  // poisoned streams stop buffering
  // Reclaim consumed prefix before growing, so long-lived connections do
  // not accumulate every frame they ever received.
  if (consumed_ > 0 && consumed_ == buffer_.size()) {
    buffer_.clear();
    consumed_ = 0;
  } else if (consumed_ > 4096 && consumed_ > buffer_.size() / 2) {
    buffer_.erase(buffer_.begin(),
                  buffer_.begin() + static_cast<ptrdiff_t>(consumed_));
    consumed_ = 0;
  }
  buffer_.insert(buffer_.end(), data, data + size);
}

std::optional<Frame> FrameDecoder::Next() {
  if (failed()) return std::nullopt;
  const size_t available = buffer_.size() - consumed_;
  if (available < kHeaderBytes) return std::nullopt;

  io::Reader header(
      Span<const uint8_t>(buffer_.data() + consumed_, kHeaderBytes));
  const uint32_t magic = header.U32();
  const uint8_t version = header.U8();
  const uint8_t type = header.U8();
  const uint8_t flags_lo = header.U8();
  const uint8_t flags_hi = header.U8();
  const uint64_t tag = header.U64();
  const uint32_t payload_size = header.U32();
  const uint32_t payload_crc = header.U32();
  VIPTREE_DCHECK(header.ok());

  if (magic != kWireMagic) {
    Fail("bad frame magic (not a VIP-Tree wire stream?)");
    return std::nullopt;
  }
  if (version != kWireVersion) {
    Fail("unsupported wire version " + std::to_string(version) +
         " (this build speaks " + std::to_string(kWireVersion) + ")");
    return std::nullopt;
  }
  if (flags_lo != 0 || flags_hi != 0) {
    Fail("nonzero reserved frame flags");
    return std::nullopt;
  }
  if (type < static_cast<uint8_t>(FrameType::kRequest) ||
      type > static_cast<uint8_t>(FrameType::kError)) {
    Fail("unknown frame type " + std::to_string(type));
    return std::nullopt;
  }
  if (payload_size > kMaxPayloadBytes) {
    Fail("frame payload of " + std::to_string(payload_size) +
         " bytes exceeds the " + std::to_string(kMaxPayloadBytes) +
         "-byte limit");
    return std::nullopt;
  }
  if (available < kHeaderBytes + payload_size) return std::nullopt;

  const uint8_t* payload = buffer_.data() + consumed_ + kHeaderBytes;
  if (io::Crc32(payload, payload_size) != payload_crc) {
    Fail("frame payload CRC mismatch (corrupted in transit?)");
    return std::nullopt;
  }

  Frame frame;
  frame.type = static_cast<FrameType>(type);
  frame.tag = tag;
  frame.payload.assign(payload, payload + payload_size);
  consumed_ += kHeaderBytes + payload_size;
  return frame;
}

}  // namespace net
}  // namespace viptree
