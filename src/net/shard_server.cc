#include "net/shard_server.h"

#include <string>
#include <utility>

namespace viptree {
namespace net {

ShardServer::ShardServer(std::shared_ptr<const engine::VenueBundle> bundle,
                         ShardServerOptions options)
    : ShardServer(std::make_unique<engine::Service>(std::move(bundle),
                                                    options.service),
                  std::move(options)) {}

ShardServer::ShardServer(engine::VenueRegistry registry,
                         ShardServerOptions options)
    : ShardServer(std::make_unique<engine::Service>(std::move(registry),
                                                    options.service),
                  std::move(options)) {}

ShardServer::ShardServer(std::unique_ptr<engine::Service> service,
                         ShardServerOptions options)
    : service_(std::move(service)),
      options_(std::move(options)),
      loop_(EventLoop::Callbacks{
          [this](const std::shared_ptr<Conn>& conn, Frame frame) {
            HandleFrame(conn, std::move(frame));
          },
          nullptr,
          // Drain: every accepted request completes. The response
          // callbacks only append to outboxes, so they never need the loop
          // thread this blocks.
          [this] {
            service_->Drain();
            return true;
          }}) {}

ShardServer::~ShardServer() { Stop(); }

io::Status ShardServer::Start() {
  service_->Start();
  return loop_.Start(options_.bind_address, options_.port);
}

void ShardServer::Stop() {
  loop_.Stop();
  service_->Stop();
}

void ShardServer::HandleFrame(const std::shared_ptr<Conn>& conn,
                              Frame frame) {
  frames_received_.fetch_add(1, std::memory_order_relaxed);
  switch (frame.type) {
    case FrameType::kRequest: {
      WireRequest request;
      io::Reader reader(
          Span<const uint8_t>(frame.payload.data(), frame.payload.size()));
      std::string error;
      if (!DecodeRequestPayload(&reader, &request, &error)) {
        loop_.Poison(*conn, "request decode: " + error, frame.tag);
        return;
      }
      engine::Request engine_request = request.ToRequest();
      engine_request.tag = frame.tag;
      // The callback runs on a Service worker (or synchronously right here
      // for admission rejections); either way it only appends bytes.
      service_->Submit(
          std::move(engine_request),
          [this, conn](const engine::Response& response) {
            io::Writer payload;
            EncodeResponsePayload(WireResponse::FromResponse(response),
                                  &payload);
            if (conn->Send(FrameType::kResponse, response.tag,
                           payload.buffer())) {
              loop_.Wake();
            }
          });
      return;
    }
    case FrameType::kHealthProbe: {
      WireHealth health;
      health.ready = loop_.draining() ? 0 : 1;
      health.queue_depth = service_->QueueDepth();
      io::Writer payload;
      EncodeHealthPayload(health, &payload);
      conn->SendNow(FrameType::kHealthReply, frame.tag, payload.buffer());
      return;
    }
    case FrameType::kStatsProbe: {
      io::Writer payload;
      EncodeStatsPayload(WireStats::FromServiceStats(service_->Stats()),
                         &payload);
      conn->SendNow(FrameType::kStatsReply, frame.tag, payload.buffer());
      return;
    }
    default:
      // Reply frames have no business arriving at a server.
      loop_.Poison(*conn,
                   std::string("unexpected ") + FrameTypeName(frame.type) +
                       " frame at a shard server",
                   frame.tag);
      return;
  }
}

}  // namespace net
}  // namespace viptree
