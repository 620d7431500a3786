// The binary wire protocol of the network serving tier: compact
// length-prefixed frames carrying the engine::Service request/response
// vocabulary (every Query/Result kind plus kUpdateObjects deltas) between
// untrusting processes. The encode/decode layer is io::Writer / io::Reader
// (io/binary_io.h), so byte order, bounds checking and the sticky error
// model are exactly the snapshot format's — a malformed or truncated frame
// is a reportable per-connection condition, never a crash.
//
// Frame layout (all little-endian, kHeaderBytes fixed bytes then payload):
//
//   offset  size  field
//   0       4     magic            'VIPW' (0x57504956)
//   4       1     version          kWireVersion (1)
//   5       1     type             FrameType
//   6       2     flags            must be 0 (reserved)
//   8       8     tag              echoed verbatim in the matching reply
//   16      4     payload_size     <= kMaxPayloadBytes
//   20      4     payload_crc      Crc32 over the payload bytes
//   24      ...   payload          FrameType-specific body
//
// The tag lives in the *header*, not the payload, so a router can re-tag a
// frame in flight (its pending-table key) and restore the caller's tag on
// the way back without touching — or even understanding — the payload.
//
// Deadlines cross the wire as relative budgets (milliseconds from receipt;
// 0 = none), not absolute time points: steady-clock readings are
// meaningless on another host. The shard re-anchors the budget when it
// decodes the frame, so queueing inside the shard counts against it but
// network transit does not.
//
// Versioning policy mirrors io/snapshot.h: a decoder rejects frames whose
// version it does not know with a clean error; kWireVersion bumps on any
// layout change.

#ifndef VIPTREE_NET_WIRE_H_
#define VIPTREE_NET_WIRE_H_

#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <vector>

#include "engine/service.h"
#include "io/binary_io.h"

namespace viptree {
namespace net {

inline constexpr uint32_t kWireMagic = 0x57504956;  // 'VIPW' little-endian
inline constexpr uint8_t kWireVersion = 1;
inline constexpr size_t kHeaderBytes = 24;
// Ceiling on a single frame's payload: large enough for any realistic
// response (a range query over a whole city venue), small enough that a
// corrupted length field can never drive a giant allocation.
inline constexpr uint32_t kMaxPayloadBytes = 16u << 20;

enum class FrameType : uint8_t {
  kRequest = 1,      // WireRequest payload; answered by exactly one kResponse
  kResponse = 2,     // WireResponse payload
  kHealthProbe = 3,  // empty payload; answered by kHealthReply
  kHealthReply = 4,  // WireHealth payload
  kStatsProbe = 5,   // empty payload; answered by kStatsReply
  kStatsReply = 6,   // WireStats payload
  kError = 7,        // string payload: a protocol-level failure (malformed
                     // frame, bad CRC); the sender closes after flushing it
};

const char* FrameTypeName(FrameType type);

struct Frame {
  FrameType type = FrameType::kError;
  uint64_t tag = 0;
  std::vector<uint8_t> payload;
};

// engine::Request with the deadline as a wire-safe relative budget.
struct WireRequest {
  engine::RequestKind kind = engine::RequestKind::kQuery;
  std::string venue_id;
  engine::Query query;
  ObjectDelta delta;
  double deadline_ms = 0.0;  // 0 = no deadline

  // The engine-side request (re-anchoring the budget on the local steady
  // clock). The tag travels in the frame header, not here.
  engine::Request ToRequest() const;
  static WireRequest FromRequest(const engine::Request& request,
                                 double deadline_ms);
};

// engine::Response minus the queue-side bookkeeping a remote caller cannot
// interpret anyway; per-request stats (latency, visited nodes) ride along
// inside `result` exactly as the in-process API reports them.
struct WireResponse {
  engine::RequestStatus status = engine::RequestStatus::kOk;
  engine::RequestKind kind = engine::RequestKind::kQuery;
  std::string venue_id;
  engine::Result result;
  std::string error;
  double queue_micros = 0.0;

  bool ok() const { return status == engine::RequestStatus::kOk; }

  static WireResponse FromResponse(const engine::Response& response);
};

// Readiness snapshot answered to a kHealthProbe.
struct WireHealth {
  uint8_t ready = 0;  // 1 = accepting requests (not draining)
  uint64_t queue_depth = 0;
};

// The portable core of engine::ServiceStats: every counter (summable
// across shards) plus the latency/queue percentiles of this process.
// Percentile summaries do not merge exactly, so a fleet aggregator sums
// the counters and reports the per-shard summaries side by side.
struct WireStats {
  uint64_t submitted = 0;
  uint64_t completed = 0;  // queries answered kOk
  uint64_t updates = 0;
  uint64_t rejected = 0;
  uint64_t expired = 0;
  uint64_t cancelled = 0;
  uint64_t failed = 0;
  uint64_t queue_depth = 0;
  uint64_t visited_nodes = 0;
  double latency_p50 = 0.0;
  double latency_p99 = 0.0;
  double queue_p50 = 0.0;
  double queue_p99 = 0.0;

  static WireStats FromServiceStats(const engine::ServiceStats& stats);
  // Sums the counters (percentiles keep the *max* across shards — the
  // conservative fleet-wide tail bound a router reports).
  WireStats& operator+=(const WireStats& other);
};

// --- Payload codecs (io::Writer / io::Reader straight-line style) --------

void EncodeRequestPayload(const WireRequest& request, io::Writer* writer);
bool DecodeRequestPayload(io::Reader* reader, WireRequest* request,
                          std::string* error);

void EncodeResponsePayload(const WireResponse& response, io::Writer* writer);
bool DecodeResponsePayload(io::Reader* reader, WireResponse* response,
                           std::string* error);

void EncodeHealthPayload(const WireHealth& health, io::Writer* writer);
bool DecodeHealthPayload(io::Reader* reader, WireHealth* health,
                         std::string* error);

void EncodeStatsPayload(const WireStats& stats, io::Writer* writer);
bool DecodeStatsPayload(io::Reader* reader, WireStats* stats,
                        std::string* error);

// --- Frame assembly ------------------------------------------------------

// Writes the kHeaderBytes header of a frame carrying `payload` (its size
// and CRC included) to `header`.
void EncodeFrameHeader(FrameType type, uint64_t tag,
                       Span<const uint8_t> payload, uint8_t* header);

// Convenience wrappers that encode the payload and frame it in one step.
std::vector<uint8_t> EncodeRequestFrame(const WireRequest& request,
                                        uint64_t tag);
std::vector<uint8_t> EncodeResponseFrame(const WireResponse& response,
                                         uint64_t tag);
std::vector<uint8_t> EncodeEmptyFrame(FrameType type, uint64_t tag);

// Rewrites the tag field of an already-encoded frame in place (the router's
// re-tag path). `frame` must hold at least kHeaderBytes.
void RetagFrame(uint64_t tag, uint8_t* frame);

// --- Incremental decoding ------------------------------------------------

// Accumulates a connection's received bytes and yields complete frames.
// Validation order: magic -> version -> flags -> size bound -> CRC. The
// first violation makes the decoder sticky-fail (error()), after which
// Next() always returns nullopt — the connection is poisoned and should be
// closed after reporting the error, exactly the per-connection error
// containment the server promises for untrusted input.
class FrameDecoder {
 public:
  void Feed(const uint8_t* data, size_t size);

  // The next complete frame, or nullopt when more bytes are needed or the
  // stream is poisoned.
  std::optional<Frame> Next();

  bool failed() const { return !error_.empty(); }
  const std::string& error() const { return error_; }
  // Bytes buffered but not yet consumed by Next().
  size_t buffered() const { return buffer_.size() - consumed_; }

 private:
  void Fail(std::string message) {
    if (error_.empty()) error_ = std::move(message);
  }

  std::vector<uint8_t> buffer_;
  size_t consumed_ = 0;
  std::string error_;
};

}  // namespace net
}  // namespace viptree

#endif  // VIPTREE_NET_WIRE_H_
