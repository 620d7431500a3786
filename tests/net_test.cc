// The network serving tier's wire layer: payload codec round-trips for
// every request/response kind, incremental frame decoding (byte-at-a-time
// and split at every offset), header validation (magic / version / flags /
// type / size / CRC) with sticky per-connection failure, re-tagging,
// randomized bit-flip and truncation fuzz (clean error, never a crash),
// and a live ShardServer fed garbage over real sockets — the per-
// connection error containment the tier promises for untrusted input.
// Also the worker -> loop handoff: serial round trips never wait out the
// loop's poll timeout (a lost wakeup), and pipelined bursts sent from
// several threads onto one connection are all answered.

#include "net/wire.h"

#include <gtest/gtest.h>

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "ground_truth.h"
#include "net/client.h"
#include "net/shard_server.h"
#include "net/socket.h"
#include "synth/objects.h"

namespace viptree {
namespace {

namespace eng = ::viptree::engine;

eng::Query SampleQuery(eng::QueryType type) {
  const IndoorPoint a{3, {1.5, -2.25, 4.0}};
  const IndoorPoint b{7, {-0.5, 8.125, 0.0}};
  switch (type) {
    case eng::QueryType::kDistance: return eng::Query::Distance(a, b);
    case eng::QueryType::kPath: return eng::Query::Path(a, b);
    case eng::QueryType::kKnn: return eng::Query::Knn(a, 5);
    case eng::QueryType::kRange: return eng::Query::Range(a, 123.5);
    case eng::QueryType::kBooleanKnn:
      return eng::Query::BooleanKnn(a, 3, {"cafe", "atm"});
  }
  return eng::Query::Knn(a, 1);
}

net::WireRequest RoundTripRequest(const net::WireRequest& request,
                                  bool* ok_out = nullptr) {
  io::Writer writer;
  net::EncodeRequestPayload(request, &writer);
  const std::vector<uint8_t> bytes = writer.buffer();
  io::Reader reader(Span<const uint8_t>(bytes.data(), bytes.size()));
  net::WireRequest decoded;
  std::string error;
  const bool ok = net::DecodeRequestPayload(&reader, &decoded, &error);
  if (ok_out != nullptr) *ok_out = ok;
  EXPECT_TRUE(ok) << error;
  return decoded;
}

TEST(WireCodecTest, RequestRoundTripsEveryQueryType) {
  for (const eng::QueryType type :
       {eng::QueryType::kDistance, eng::QueryType::kPath,
        eng::QueryType::kKnn, eng::QueryType::kRange,
        eng::QueryType::kBooleanKnn}) {
    net::WireRequest request;
    request.kind = eng::RequestKind::kQuery;
    request.venue_id = "venue-42";
    request.query = SampleQuery(type);
    request.deadline_ms = 75.5;

    const net::WireRequest decoded = RoundTripRequest(request);
    EXPECT_EQ(decoded.kind, request.kind);
    EXPECT_EQ(decoded.venue_id, request.venue_id);
    EXPECT_EQ(decoded.query.type, request.query.type);
    EXPECT_EQ(decoded.query.source.partition, request.query.source.partition);
    EXPECT_EQ(decoded.query.source.position.x, request.query.source.position.x);
    EXPECT_EQ(decoded.query.source.position.y, request.query.source.position.y);
    EXPECT_EQ(decoded.query.source.position.z, request.query.source.position.z);
    EXPECT_EQ(decoded.query.target.partition, request.query.target.partition);
    EXPECT_EQ(decoded.query.k, request.query.k);
    EXPECT_EQ(decoded.query.radius, request.query.radius);
    EXPECT_EQ(decoded.query.keywords, request.query.keywords);
    EXPECT_EQ(decoded.deadline_ms, request.deadline_ms);
  }
}

TEST(WireCodecTest, UpdateRequestRoundTripsEveryDeltaKind) {
  net::WireRequest request;
  request.kind = eng::RequestKind::kUpdateObjects;
  request.venue_id = "venue-7";
  request.delta.moves.push_back({ObjectId{11}, {2, {0.5, 1.5, 2.5}}});
  request.delta.moves.push_back({ObjectId{13}, {4, {-3.0, 0.0, 9.0}}});
  ObjectDelta::Add add;
  add.at = {6, {7.0, 8.0, 0.0}};
  add.keywords = {"poi", "exit"};
  request.delta.adds.push_back(std::move(add));
  request.delta.removes.push_back(ObjectId{3});

  const net::WireRequest decoded = RoundTripRequest(request);
  EXPECT_EQ(decoded.kind, eng::RequestKind::kUpdateObjects);
  ASSERT_EQ(decoded.delta.moves.size(), 2u);
  EXPECT_EQ(decoded.delta.moves[0].id, ObjectId{11});
  EXPECT_EQ(decoded.delta.moves[0].to.partition, 2);
  EXPECT_EQ(decoded.delta.moves[1].to.position.z, 9.0);
  ASSERT_EQ(decoded.delta.adds.size(), 1u);
  EXPECT_EQ(decoded.delta.adds[0].keywords,
            (std::vector<std::string>{"poi", "exit"}));
  ASSERT_EQ(decoded.delta.removes.size(), 1u);
  EXPECT_EQ(decoded.delta.removes[0], ObjectId{3});
}

TEST(WireCodecTest, ToRequestReanchorsTheDeadlineLocally) {
  net::WireRequest wire;
  wire.deadline_ms = 50.0;
  const eng::Request with = wire.ToRequest();
  EXPECT_NE(with.deadline, eng::kNoDeadline);
  EXPECT_GT(with.deadline, eng::ServiceClock::now());

  wire.deadline_ms = 0.0;
  EXPECT_EQ(wire.ToRequest().deadline, eng::kNoDeadline);
}

TEST(WireCodecTest, UnboundedDeadlineBudgetMeansNoDeadline) {
  // A peer may send any double: an infinite or clock-overflowing budget
  // must saturate to "no deadline", never wrap into the past.
  net::WireRequest wire;
  wire.deadline_ms = std::numeric_limits<double>::infinity();
  EXPECT_EQ(wire.ToRequest().deadline, eng::kNoDeadline);
  wire.deadline_ms = 1e300;
  EXPECT_EQ(wire.ToRequest().deadline, eng::kNoDeadline);
}

TEST(WireCodecTest, ResponseRoundTripsResultsAndStatuses) {
  for (const eng::RequestStatus status :
       {eng::RequestStatus::kOk, eng::RequestStatus::kDeadlineExceeded,
        eng::RequestStatus::kVenueNotFound, eng::RequestStatus::kRejected}) {
    net::WireResponse response;
    response.status = status;
    response.kind = eng::RequestKind::kQuery;
    response.venue_id = "venue-9";
    response.result.type = eng::QueryType::kPath;
    response.result.distance = 12345.6789;
    response.result.doors = {3, 1, 4, 1, 5};
    response.result.objects.push_back({ObjectId{8}, 2.5});
    response.result.latency_micros = 17.25;
    response.result.visited_nodes = 99;
    response.error = status == eng::RequestStatus::kOk ? "" : "some failure";
    response.queue_micros = 4.75;

    io::Writer writer;
    net::EncodeResponsePayload(response, &writer);
    const std::vector<uint8_t> bytes = writer.buffer();
    io::Reader reader(Span<const uint8_t>(bytes.data(), bytes.size()));
    net::WireResponse decoded;
    std::string error;
    ASSERT_TRUE(net::DecodeResponsePayload(&reader, &decoded, &error))
        << error;
    EXPECT_EQ(decoded.status, response.status);
    EXPECT_EQ(decoded.venue_id, response.venue_id);
    EXPECT_EQ(decoded.result.distance, response.result.distance);
    EXPECT_EQ(decoded.result.doors, response.result.doors);
    ASSERT_EQ(decoded.result.objects.size(), 1u);
    EXPECT_EQ(decoded.result.objects[0].object, ObjectId{8});
    EXPECT_EQ(decoded.result.objects[0].distance, 2.5);
    EXPECT_EQ(decoded.result.visited_nodes, 99u);
    EXPECT_EQ(decoded.error, response.error);
    EXPECT_EQ(decoded.queue_micros, response.queue_micros);
  }
}

TEST(WireCodecTest, HealthAndStatsRoundTrip) {
  net::WireHealth health;
  health.ready = 1;
  health.queue_depth = 42;
  io::Writer writer;
  net::EncodeHealthPayload(health, &writer);
  std::vector<uint8_t> bytes = writer.buffer();
  io::Reader reader(Span<const uint8_t>(bytes.data(), bytes.size()));
  net::WireHealth health_out;
  std::string error;
  ASSERT_TRUE(net::DecodeHealthPayload(&reader, &health_out, &error)) << error;
  EXPECT_EQ(health_out.ready, 1);
  EXPECT_EQ(health_out.queue_depth, 42u);

  net::WireStats stats;
  stats.submitted = 100;
  stats.completed = 90;
  stats.updates = 5;
  stats.rejected = 1;
  stats.latency_p50 = 12.5;
  stats.latency_p99 = 250.0;
  io::Writer stats_writer;
  net::EncodeStatsPayload(stats, &stats_writer);
  bytes = stats_writer.buffer();
  io::Reader stats_reader(Span<const uint8_t>(bytes.data(), bytes.size()));
  net::WireStats stats_out;
  ASSERT_TRUE(net::DecodeStatsPayload(&stats_reader, &stats_out, &error))
      << error;
  EXPECT_EQ(stats_out.submitted, 100u);
  EXPECT_EQ(stats_out.completed, 90u);
  EXPECT_EQ(stats_out.latency_p99, 250.0);
}

TEST(WireCodecTest, StatsAggregationSumsCountersAndMaxesPercentiles) {
  net::WireStats a, b;
  a.submitted = 10;
  a.latency_p99 = 100.0;
  b.submitted = 20;
  b.latency_p99 = 400.0;
  a += b;
  EXPECT_EQ(a.submitted, 30u);
  EXPECT_EQ(a.latency_p99, 400.0);
}

TEST(WireCodecTest, DecodeRejectsOutOfRangeEnums) {
  // A request whose kind byte is far beyond the enum: clean error.
  net::WireRequest request;
  request.kind = eng::RequestKind::kQuery;
  io::Writer writer;
  net::EncodeRequestPayload(request, &writer);
  std::vector<uint8_t> bytes = writer.buffer();
  bytes[0] = 0xEE;  // kind is the first byte of the payload
  io::Reader reader(Span<const uint8_t>(bytes.data(), bytes.size()));
  net::WireRequest decoded;
  std::string error;
  EXPECT_FALSE(net::DecodeRequestPayload(&reader, &decoded, &error));
  EXPECT_FALSE(error.empty());
}

// ---------------------------------------------------------------------------
// Frame assembly and incremental decoding.
// ---------------------------------------------------------------------------

net::WireRequest SomeRequest() {
  net::WireRequest request;
  request.venue_id = "venue-1";
  request.query = SampleQuery(eng::QueryType::kKnn);
  return request;
}

TEST(FrameDecoderTest, DecodesFramesFedByteAtATime) {
  const std::vector<uint8_t> frame1 =
      net::EncodeRequestFrame(SomeRequest(), 0xDEADBEEFCAFE);
  const std::vector<uint8_t> frame2 =
      net::EncodeEmptyFrame(net::FrameType::kHealthProbe, 7);
  std::vector<uint8_t> stream = frame1;
  stream.insert(stream.end(), frame2.begin(), frame2.end());

  net::FrameDecoder decoder;
  std::vector<net::Frame> frames;
  for (const uint8_t byte : stream) {
    decoder.Feed(&byte, 1);
    while (std::optional<net::Frame> frame = decoder.Next()) {
      frames.push_back(std::move(*frame));
    }
  }
  ASSERT_FALSE(decoder.failed()) << decoder.error();
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(frames[0].type, net::FrameType::kRequest);
  EXPECT_EQ(frames[0].tag, 0xDEADBEEFCAFEull);
  EXPECT_EQ(frames[1].type, net::FrameType::kHealthProbe);
  EXPECT_EQ(frames[1].tag, 7u);
  EXPECT_EQ(decoder.buffered(), 0u);
}

TEST(FrameDecoderTest, DecodesAcrossEverySplitPoint) {
  const std::vector<uint8_t> frame =
      net::EncodeRequestFrame(SomeRequest(), 99);
  for (size_t split = 0; split <= frame.size(); ++split) {
    net::FrameDecoder decoder;
    decoder.Feed(frame.data(), split);
    std::optional<net::Frame> decoded = decoder.Next();
    EXPECT_EQ(decoded.has_value(), split == frame.size()) << "split " << split;
    if (!decoded.has_value()) {
      decoder.Feed(frame.data() + split, frame.size() - split);
      decoded = decoder.Next();
    }
    ASSERT_TRUE(decoded.has_value()) << "split " << split;
    EXPECT_EQ(decoded->tag, 99u);
    ASSERT_FALSE(decoder.failed());
  }
}

TEST(FrameDecoderTest, RetagRewritesOnlyTheTag) {
  std::vector<uint8_t> frame = net::EncodeRequestFrame(SomeRequest(), 1);
  const std::vector<uint8_t> original = frame;
  net::RetagFrame(0xABCDEF0123456789ull, frame.data());

  net::FrameDecoder decoder;
  decoder.Feed(frame.data(), frame.size());
  std::optional<net::Frame> decoded = decoder.Next();
  ASSERT_TRUE(decoded.has_value()) << decoder.error();
  EXPECT_EQ(decoded->tag, 0xABCDEF0123456789ull);

  // Everything outside the 8 tag bytes is untouched.
  for (size_t i = 0; i < frame.size(); ++i) {
    if (i >= 8 && i < 16) continue;
    EXPECT_EQ(frame[i], original[i]) << "offset " << i;
  }
}

TEST(FrameDecoderTest, HeaderViolationsFailSticky) {
  struct Case {
    const char* name;
    size_t offset;
  };
  // Each case inverts one header byte of an otherwise valid frame: wrong
  // magic, unknown version, reserved flags set, invalid type, bad CRC.
  const Case cases[] = {
      {"magic", 0}, {"version", 4}, {"type", 5}, {"flags", 6}, {"crc", 20},
  };
  for (const Case& c : cases) {
    std::vector<uint8_t> frame = net::EncodeRequestFrame(SomeRequest(), 5);
    frame[c.offset] ^= 0xFF;
    net::FrameDecoder decoder;
    decoder.Feed(frame.data(), frame.size());
    EXPECT_FALSE(decoder.Next().has_value()) << c.name;
    EXPECT_TRUE(decoder.failed()) << c.name;
    EXPECT_FALSE(decoder.error().empty()) << c.name;

    // Sticky: a perfectly good frame after the poison yields nothing.
    const std::vector<uint8_t> good = net::EncodeRequestFrame(SomeRequest(), 6);
    decoder.Feed(good.data(), good.size());
    EXPECT_FALSE(decoder.Next().has_value()) << c.name;
  }
}

TEST(FrameDecoderTest, OversizePayloadLengthIsRejectedBeforeAllocation) {
  std::vector<uint8_t> frame = net::EncodeRequestFrame(SomeRequest(), 5);
  // payload_size lives at offset 16..19 (little-endian).
  frame[16] = 0xFF;
  frame[17] = 0xFF;
  frame[18] = 0xFF;
  frame[19] = 0x7F;
  net::FrameDecoder decoder;
  decoder.Feed(frame.data(), net::kHeaderBytes);
  EXPECT_FALSE(decoder.Next().has_value());
  EXPECT_TRUE(decoder.failed());
}

TEST(FrameDecoderTest, RandomBitFlipsNeverCrashAndNeverCorruptPayloads) {
  const std::vector<uint8_t> pristine =
      net::EncodeRequestFrame(SomeRequest(), 77);
  Rng rng(0xF1A9);
  size_t clean_decodes = 0;
  for (int iter = 0; iter < 2000; ++iter) {
    std::vector<uint8_t> frame = pristine;
    const size_t byte = rng.UniformIndex(frame.size());
    frame[byte] ^= static_cast<uint8_t>(1u << rng.UniformIndex(8));

    net::FrameDecoder decoder;
    decoder.Feed(frame.data(), frame.size());
    std::optional<net::Frame> decoded = decoder.Next();
    if (!decoded.has_value()) {
      // Either the header check or the CRC caught it — both are clean.
      continue;
    }
    // A flip that survives framing must be in a field the CRC deliberately
    // does not cover: the tag (the router rewrites it in flight), or the
    // type byte when the flip lands on another valid FrameType. The
    // payload itself is CRC-guarded, so it must still decode to exactly
    // the original.
    const bool in_tag = byte >= 8 && byte < 16;
    const bool valid_retype =
        byte == 5 && frame[5] >= 1 &&
        frame[5] <= static_cast<uint8_t>(net::FrameType::kError);
    EXPECT_TRUE(in_tag || valid_retype) << "byte " << byte;
    io::Reader reader(
        Span<const uint8_t>(decoded->payload.data(), decoded->payload.size()));
    net::WireRequest request;
    std::string error;
    ASSERT_TRUE(net::DecodeRequestPayload(&reader, &request, &error)) << error;
    EXPECT_EQ(request.venue_id, "venue-1");
    ++clean_decodes;
  }
  EXPECT_GT(clean_decodes, 0u);  // some flips do land in the tag
}

TEST(FrameDecoderTest, RandomTruncationsNeverCrash) {
  const std::vector<uint8_t> pristine =
      net::EncodeRequestFrame(SomeRequest(), 3);
  for (size_t keep = 0; keep < pristine.size(); ++keep) {
    net::FrameDecoder decoder;
    decoder.Feed(pristine.data(), keep);
    EXPECT_FALSE(decoder.Next().has_value()) << "keep " << keep;
    // A truncated prefix is not an error — more bytes may arrive.
    EXPECT_FALSE(decoder.failed()) << "keep " << keep;
    EXPECT_EQ(decoder.buffered(), keep);
  }
}

// ---------------------------------------------------------------------------
// A live ShardServer under hostile and well-formed traffic.
// ---------------------------------------------------------------------------

class NetServerTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    Venue venue = testing::RandomSynthVenue(11);
    Rng rng(11);
    std::vector<IndoorPoint> objects = synth::PlaceObjects(venue, 8, rng);
    eng::EngineOptions options;
    options.object_keywords.assign(objects.size(), {"poi"});
    bundle_ = new std::shared_ptr<const eng::VenueBundle>(
        std::make_shared<const eng::VenueBundle>(eng::VenueBundle::Build(
            std::move(venue), std::move(objects), std::move(options))));
  }

  static void TearDownTestSuite() {
    delete bundle_;
    bundle_ = nullptr;
  }

  static std::shared_ptr<const eng::VenueBundle> Bundle() { return *bundle_; }
  static std::shared_ptr<const eng::VenueBundle>* bundle_;

  static net::WireRequest KnnRequest(uint64_t seed) {
    Rng rng(seed);
    net::WireRequest request;
    request.query =
        eng::Query::Knn(synth::RandomIndoorPoint(Bundle()->venue(), rng), 3);
    return request;
  }
};

std::shared_ptr<const eng::VenueBundle>* NetServerTest::bundle_ = nullptr;

TEST_F(NetServerTest, AnswersRequestsHealthAndStats) {
  net::ShardServer server(Bundle());
  ASSERT_TRUE(server.Start().ok());

  std::string error;
  std::unique_ptr<net::Client> client = net::Client::Connect(
      ":" + std::to_string(server.port()), &error);
  ASSERT_NE(client, nullptr) << error;

  net::WireResponse response;
  ASSERT_TRUE(client->Call(KnnRequest(1), &response).ok());
  EXPECT_TRUE(response.ok()) << response.error;
  EXPECT_EQ(response.result.type, eng::QueryType::kKnn);
  EXPECT_EQ(response.result.objects.size(), 3u);

  net::WireHealth health;
  ASSERT_TRUE(client->Health(&health).ok());
  EXPECT_EQ(health.ready, 1);

  net::WireStats stats;
  ASSERT_TRUE(client->Stats(&stats).ok());
  EXPECT_EQ(stats.submitted, 1u);
  EXPECT_EQ(stats.completed, 1u);

  server.Stop();
}

TEST_F(NetServerTest, PipelinedRequestsAllComeBack) {
  net::ShardServerOptions options;
  options.service.num_threads = 2;
  net::ShardServer server(Bundle(), options);
  ASSERT_TRUE(server.Start().ok());

  std::string error;
  std::unique_ptr<net::Client> client = net::Client::Connect(
      ":" + std::to_string(server.port()), &error);
  ASSERT_NE(client, nullptr) << error;

  constexpr uint64_t kCount = 64;
  for (uint64_t i = 0; i < kCount; ++i) {
    ASSERT_TRUE(client->Send(KnnRequest(i), i).ok());
  }
  std::vector<bool> seen(kCount, false);
  for (uint64_t i = 0; i < kCount; ++i) {
    net::WireResponse response;
    uint64_t tag = 0;
    ASSERT_TRUE(client->Receive(&response, &tag, 30000.0).ok());
    ASSERT_LT(tag, kCount);
    EXPECT_FALSE(seen[tag]);  // exactly one response per tag
    seen[tag] = true;
    EXPECT_TRUE(response.ok()) << response.error;
  }
  server.Stop();
}

TEST_F(NetServerTest, SerialRoundTripsNeverWaitForThePollTimeout) {
  // A response whose worker does not wake the loop waits for the loop's
  // 100 ms poll tick, so 500 lost wakeups would take at least 50 s.
  net::ShardServerOptions options;
  options.service.num_threads = 2;
  net::ShardServer server(Bundle(), options);
  ASSERT_TRUE(server.Start().ok());
  std::string error;
  std::unique_ptr<net::Client> client = net::Client::Connect(
      ":" + std::to_string(server.port()), &error);
  ASSERT_NE(client, nullptr) << error;

  const auto start = std::chrono::steady_clock::now();
  for (uint64_t i = 0; i < 500; ++i) {
    net::WireResponse response;
    ASSERT_TRUE(client->Call(KnnRequest(i), &response).ok());
    EXPECT_TRUE(response.ok()) << response.error;
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start;
    ASSERT_LT(elapsed.count(), 5.0) << "s after " << i + 1 << " round trips";
  }
  const net::LoopCounters loop = server.loop_counters();
  EXPECT_EQ(loop.frames_queued, 500u);
  EXPECT_GE(loop.accepted_writes, 1u);
  EXPECT_LE(loop.wakeups, 500u);  // at most one per idle -> busy edge
  server.Stop();
}

TEST_F(NetServerTest, ThreadedPipelinedBurstsOnOneConnectionAllComeBack) {
  net::ShardServerOptions options;
  options.service.num_threads = 2;
  net::ShardServer server(Bundle(), options);
  ASSERT_TRUE(server.Start().ok());
  net::Socket sock;
  ASSERT_TRUE(
      net::ConnectTcp(":" + std::to_string(server.port()), 5000.0, &sock)
          .ok());

  // Each thread sends its bursts whole (one send() under the lock, so
  // frames never interleave mid-frame); the shard sees them mixed.
  constexpr uint64_t kThreads = 4, kBursts = 8, kBurst = 16;
  constexpr uint64_t kTotal = kThreads * kBursts * kBurst;
  std::mutex send_mu;
  std::vector<std::thread> senders;
  for (uint64_t t = 0; t < kThreads; ++t) {
    senders.emplace_back([&, t] {
      for (uint64_t b = 0; b < kBursts; ++b) {
        std::vector<uint8_t> burst;
        for (uint64_t i = 0; i < kBurst; ++i) {
          const uint64_t tag = (t * kBursts + b) * kBurst + i;
          const std::vector<uint8_t> frame =
              net::EncodeRequestFrame(KnnRequest(tag), tag);
          burst.insert(burst.end(), frame.begin(), frame.end());
        }
        std::lock_guard<std::mutex> lock(send_mu);
        size_t sent = 0;
        while (sent < burst.size()) {
          const ssize_t n = ::send(sock.fd(), burst.data() + sent,
                                   burst.size() - sent, MSG_NOSIGNAL);
          if (n <= 0) return;
          sent += static_cast<size_t>(n);
        }
      }
    });
  }

  std::vector<bool> seen(kTotal, false);
  size_t answered = 0;
  net::FrameDecoder decoder;
  uint8_t chunk[4096];
  while (answered < kTotal) {
    pollfd pfd{sock.fd(), POLLIN, 0};
    ASSERT_EQ(::poll(&pfd, 1, 30000), 1) << answered << " answered";
    const ssize_t n = ::recv(sock.fd(), chunk, sizeof(chunk), 0);
    ASSERT_GT(n, 0) << answered << " answered";
    decoder.Feed(chunk, static_cast<size_t>(n));
    while (std::optional<net::Frame> frame = decoder.Next()) {
      ASSERT_EQ(frame->type, net::FrameType::kResponse);
      ASSERT_LT(frame->tag, kTotal);
      EXPECT_FALSE(seen[frame->tag]);  // exactly one response per tag
      seen[frame->tag] = true;
      ++answered;
      io::Reader reader(Span<const uint8_t>(frame->payload.data(),
                                            frame->payload.size()));
      net::WireResponse response;
      std::string error;
      ASSERT_TRUE(net::DecodeResponsePayload(&reader, &response, &error))
          << error;
      EXPECT_TRUE(response.ok()) << response.error;
    }
  }
  for (std::thread& sender : senders) sender.join();
  EXPECT_EQ(server.loop_counters().frames_queued, kTotal);
  server.Stop();
}

TEST_F(NetServerTest, GarbageBytesPoisonOnlyThatConnection) {
  net::ShardServer server(Bundle());
  ASSERT_TRUE(server.Start().ok());
  const std::string endpoint = ":" + std::to_string(server.port());

  Rng rng(0xBAD);
  for (int round = 0; round < 8; ++round) {
    net::Socket sock;
    ASSERT_TRUE(net::ConnectTcp(endpoint, 5000.0, &sock).ok());
    std::vector<uint8_t> garbage(64 + rng.UniformIndex(512));
    for (uint8_t& b : garbage) {
      b = static_cast<uint8_t>(rng.UniformIndex(256));
    }
    // Don't accidentally open with the real magic.
    garbage[0] = 0x00;
    ASSERT_EQ(::send(sock.fd(), garbage.data(), garbage.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(garbage.size()));

    // The server answers with a kError frame, then closes.
    net::FrameDecoder decoder;
    uint8_t chunk[1024];
    bool got_error_frame = false;
    while (true) {
      const ssize_t n = ::recv(sock.fd(), chunk, sizeof(chunk), 0);
      if (n <= 0) break;  // EOF: server closed the poisoned connection
      decoder.Feed(chunk, static_cast<size_t>(n));
      while (std::optional<net::Frame> frame = decoder.Next()) {
        if (frame->type == net::FrameType::kError) got_error_frame = true;
      }
    }
    EXPECT_TRUE(got_error_frame) << "round " << round;
  }
  EXPECT_GE(server.protocol_errors(), 8u);

  // The process and the service survived: a fresh connection still works.
  std::string error;
  std::unique_ptr<net::Client> client = net::Client::Connect(endpoint, &error);
  ASSERT_NE(client, nullptr) << error;
  net::WireResponse response;
  ASSERT_TRUE(client->Call(KnnRequest(5), &response).ok());
  EXPECT_TRUE(response.ok()) << response.error;
  server.Stop();
}

TEST_F(NetServerTest, BitFlippedFramesFailCleanlyOverTheSocket) {
  net::ShardServer server(Bundle());
  ASSERT_TRUE(server.Start().ok());
  const std::string endpoint = ":" + std::to_string(server.port());

  Rng rng(0xF11F);
  for (int round = 0; round < 16; ++round) {
    std::vector<uint8_t> frame = net::EncodeRequestFrame(KnnRequest(round), 1);
    // Flip one bit outside the tag field (tag flips are legitimately
    // accepted — the tag is router-rewritable and not CRC-covered).
    size_t byte = rng.UniformIndex(frame.size());
    while (byte >= 8 && byte < 16) byte = rng.UniformIndex(frame.size());
    frame[byte] ^= static_cast<uint8_t>(1u << rng.UniformIndex(8));

    net::Socket sock;
    ASSERT_TRUE(net::ConnectTcp(endpoint, 5000.0, &sock).ok());
    ASSERT_EQ(::send(sock.fd(), frame.data(), frame.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(frame.size()));
    ::shutdown(sock.fd(), SHUT_WR);

    // Whatever the flip hit, the connection ends with either a clean
    // kError frame or an orderly close — never a hang or a crash.
    net::FrameDecoder decoder;
    uint8_t chunk[4096];
    while (true) {
      const ssize_t n = ::recv(sock.fd(), chunk, sizeof(chunk), 0);
      if (n <= 0) break;
      decoder.Feed(chunk, static_cast<size_t>(n));
      while (decoder.Next().has_value()) {
      }
    }
  }

  // Still serving.
  std::string error;
  std::unique_ptr<net::Client> client = net::Client::Connect(endpoint, &error);
  ASSERT_NE(client, nullptr) << error;
  net::WireResponse response;
  ASSERT_TRUE(client->Call(KnnRequest(3), &response).ok());
  EXPECT_TRUE(response.ok()) << response.error;
  server.Stop();
}

TEST_F(NetServerTest, NanRadiusAndCoordinatesFailAsInvalidRequests) {
  // Well-formed frames carrying numbers no search can use: the shard
  // answers each with kInvalidRequest instead of walking the whole tree.
  net::ShardServer server(Bundle());
  ASSERT_TRUE(server.Start().ok());
  std::string error;
  std::unique_ptr<net::Client> client = net::Client::Connect(
      ":" + std::to_string(server.port()), &error);
  ASSERT_NE(client, nullptr) << error;

  const double nan = std::numeric_limits<double>::quiet_NaN();
  net::WireRequest nan_radius = KnnRequest(4);
  nan_radius.query = eng::Query::Range(nan_radius.query.source, nan);
  net::WireRequest nan_point = KnnRequest(5);
  nan_point.query.source.position.x = nan;
  for (const net::WireRequest& request : {nan_radius, nan_point}) {
    net::WireResponse response;
    ASSERT_TRUE(client->Call(request, &response).ok());
    EXPECT_EQ(response.status, eng::RequestStatus::kInvalidRequest)
        << response.error;
  }
  net::WireResponse response;
  ASSERT_TRUE(client->Call(KnnRequest(6), &response).ok());
  EXPECT_TRUE(response.ok()) << response.error;
  server.Stop();
}

TEST_F(NetServerTest, TruncatedFrameThenCloseLeavesServerServing) {
  net::ShardServer server(Bundle());
  ASSERT_TRUE(server.Start().ok());
  const std::string endpoint = ":" + std::to_string(server.port());

  const std::vector<uint8_t> frame = net::EncodeRequestFrame(KnnRequest(9), 1);
  for (const size_t keep : {size_t{1}, net::kHeaderBytes - 1,
                            net::kHeaderBytes, frame.size() - 1}) {
    net::Socket sock;
    ASSERT_TRUE(net::ConnectTcp(endpoint, 5000.0, &sock).ok());
    ASSERT_EQ(::send(sock.fd(), frame.data(), keep, MSG_NOSIGNAL),
              static_cast<ssize_t>(keep));
    // Hang up mid-frame; the server just closes its side.
  }

  std::string error;
  std::unique_ptr<net::Client> client = net::Client::Connect(endpoint, &error);
  ASSERT_NE(client, nullptr) << error;
  net::WireResponse response;
  ASSERT_TRUE(client->Call(KnnRequest(9), &response).ok());
  EXPECT_TRUE(response.ok()) << response.error;
  server.Stop();
}

TEST_F(NetServerTest, DrainAnswersInFlightThenCloses) {
  net::ShardServer server(Bundle());
  ASSERT_TRUE(server.Start().ok());

  std::string error;
  std::unique_ptr<net::Client> client = net::Client::Connect(
      ":" + std::to_string(server.port()), &error);
  ASSERT_NE(client, nullptr) << error;

  constexpr uint64_t kCount = 32;
  for (uint64_t i = 0; i < kCount; ++i) {
    ASSERT_TRUE(client->Send(KnnRequest(i), i).ok());
  }
  server.RequestDrain();
  // Every request the server accepted before the drain must be answered;
  // the stream then ends with a clean close. (The drain races the reads,
  // so late requests may never have been admitted — but responses must be
  // a prefix-closed subset with no error frames.)
  size_t answered = 0;
  while (true) {
    net::WireResponse response;
    uint64_t tag = 0;
    if (!client->Receive(&response, &tag, 30000.0).ok()) break;
    EXPECT_TRUE(response.ok()) << response.error;
    ++answered;
  }
  EXPECT_LE(answered, kCount);
  server.Wait();
  server.Stop();
}

}  // namespace
}  // namespace viptree
