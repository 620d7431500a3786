// Unit tests for the io layer: little-endian primitive round-trips, CRC-32
// reference vectors, and — the part that guards production loads — snapshot
// rejection of truncated, corrupted, mis-versioned and structurally invalid
// files with clear error messages (never an abort).

#include "io/binary_io.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "common/aligned.h"
#include "engine/venue_bundle.h"
#include "io/snapshot.h"
#include "synth/objects.h"
#include "synth/random_venue.h"

namespace viptree {
namespace {

namespace eng = ::viptree::engine;

std::string TempPath(const char* name) {
  const char* dir = std::getenv("TMPDIR");
  if (dir == nullptr || dir[0] == '\0') dir = "/tmp";
  return std::string(dir) + "/viptree_io_test_" + name + "_" +
         std::to_string(::getpid());
}

TEST(BinaryIoTest, PrimitivesRoundTrip) {
  io::Writer w;
  w.U8(0xAB);
  w.U32(0xDEADBEEFu);
  w.U64(0x0123456789ABCDEFull);
  w.I32(-42);
  w.F32(3.5f);
  w.F64(-2.718281828459045);
  w.String("doors & partitions");
  w.String("");

  io::Reader r(w.buffer());
  EXPECT_EQ(r.U8(), 0xAB);
  EXPECT_EQ(r.U32(), 0xDEADBEEFu);
  EXPECT_EQ(r.U64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.I32(), -42);
  EXPECT_EQ(r.F32(), 3.5f);
  EXPECT_EQ(r.F64(), -2.718281828459045);
  EXPECT_EQ(r.String(), "doors & partitions");
  EXPECT_EQ(r.String(), "");
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(BinaryIoTest, ScalarsAreLittleEndianOnDisk) {
  io::Writer w;
  w.U32(0x01020304u);
  ASSERT_EQ(w.size(), 4u);
  EXPECT_EQ(w.buffer()[0], 0x04);
  EXPECT_EQ(w.buffer()[1], 0x03);
  EXPECT_EQ(w.buffer()[2], 0x02);
  EXPECT_EQ(w.buffer()[3], 0x01);
}

TEST(BinaryIoTest, ArraysRoundTrip) {
  const std::vector<int32_t> ints = {-1, 0, 1, kInvalidId, 1 << 30};
  const std::vector<double> doubles = {0.0, -1.5, kInfDistance, 1e300};
  io::Writer w;
  w.I32Array(ints);
  w.F64Array(doubles);

  io::Reader r(w.buffer());
  std::vector<int32_t> ints_back(ints.size());
  std::vector<double> doubles_back(doubles.size());
  r.I32Array(ints_back.data(), ints_back.size());
  r.F64Array(doubles_back.data(), doubles_back.size());
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(ints_back, ints);
  EXPECT_EQ(doubles_back, doubles);
}

TEST(BinaryIoTest, ReaderReportsTruncationAndStopsAtFirstError) {
  io::Writer w;
  w.U32(7);
  io::Reader r(w.buffer());
  EXPECT_EQ(r.U32(), 7u);
  EXPECT_EQ(r.U64(), 0u);  // only 0 bytes left
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.error().find("truncated"), std::string::npos) << r.error();
  const std::string first_error = r.error();
  r.U32();  // further reads must not overwrite the first failure
  EXPECT_EQ(r.error(), first_error);
}

TEST(BinaryIoTest, ArraySizeGuardsAgainstGiantCounts) {
  io::Writer w;
  w.U64(uint64_t{1} << 60);  // a count no buffer can satisfy
  io::Reader r(w.buffer());
  r.ArraySize(8, "test array");
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.error().find("test array"), std::string::npos) << r.error();
}

TEST(BinaryIoTest, RemainingBoundsSweepAtBufferEdges) {
  // The contract the frame decoder leans on: remaining() tracks every
  // consuming read exactly, zero-length slices succeed anywhere (including
  // at the very end), maximum-length slices consume everything, and any
  // slice one past the edge fails — after which remaining() reports 0 no
  // matter how many bytes were physically left.
  for (const size_t size : {size_t{0}, size_t{1}, size_t{7}, size_t{64}}) {
    std::vector<uint8_t> bytes(size);
    for (size_t i = 0; i < size; ++i) bytes[i] = static_cast<uint8_t>(i);

    // Zero-length reads at every position: no consumption, no failure.
    for (size_t at = 0; at <= size; ++at) {
      io::Reader r(Span<const uint8_t>(bytes.data(), bytes.size()));
      if (at > 0) r.Raw(at);
      ASSERT_TRUE(r.ok()) << "size " << size << " at " << at;
      EXPECT_EQ(r.remaining(), size - at);
      const Span<const uint8_t> empty = r.Raw(0);
      EXPECT_TRUE(r.ok());
      EXPECT_EQ(empty.size(), 0u);
      EXPECT_EQ(r.remaining(), size - at) << "Raw(0) must not consume";
    }

    // Maximum-length read from every position: drains to exactly zero.
    for (size_t at = 0; at <= size; ++at) {
      io::Reader r(Span<const uint8_t>(bytes.data(), bytes.size()));
      if (at > 0) r.Raw(at);
      const Span<const uint8_t> rest = r.Raw(size - at);
      ASSERT_TRUE(r.ok()) << "size " << size << " at " << at;
      ASSERT_EQ(rest.size(), size - at);
      for (size_t i = 0; i < rest.size(); ++i) {
        EXPECT_EQ(rest[i], bytes[at + i]);
      }
      EXPECT_EQ(r.remaining(), 0u);
      // One more zero-length read at the exhausted edge still succeeds...
      r.Raw(0);
      EXPECT_TRUE(r.ok());
      // ...but one byte past the edge fails, and remaining() snaps to 0.
      r.Raw(1);
      EXPECT_FALSE(r.ok());
      EXPECT_EQ(r.remaining(), 0u);
    }

    // One-past-the-end from every position, including a request so large
    // it would wrap if the bound check subtracted naively.
    for (size_t at = 0; at <= size; ++at) {
      io::Reader r(Span<const uint8_t>(bytes.data(), bytes.size()));
      if (at > 0) r.Raw(at);
      const size_t left = size - at;
      r.Raw(left + 1);
      EXPECT_FALSE(r.ok()) << "size " << size << " at " << at;
      EXPECT_EQ(r.remaining(), 0u) << "failed readers report nothing left";
    }
    {
      io::Reader r(Span<const uint8_t>(bytes.data(), bytes.size()));
      r.Raw(~uint64_t{0});  // must not overflow the bounds arithmetic
      EXPECT_FALSE(r.ok());
      EXPECT_EQ(r.remaining(), 0u);
    }
  }
}

TEST(BinaryIoTest, Crc32MatchesReferenceVectors) {
  // The classic IEEE 802.3 check value.
  EXPECT_EQ(io::Crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(io::Crc32("", 0), 0x00000000u);
  // Longer than one slice-by-8 block, odd tail.
  const std::string s(1023, 'x');
  uint32_t bytewise = 0xFFFFFFFFu;
  for (char c : s) {
    bytewise ^= static_cast<uint8_t>(c);
    for (int bit = 0; bit < 8; ++bit) {
      bytewise = (bytewise & 1) ? 0xEDB88320u ^ (bytewise >> 1)
                                : bytewise >> 1;
    }
  }
  EXPECT_EQ(io::Crc32(s.data(), s.size()), bytewise ^ 0xFFFFFFFFu);
}

TEST(BinaryIoTest, FileHelpersRoundTripAndReportMissingFiles) {
  const std::string path = TempPath("bytes");
  const std::vector<uint8_t> payload = {1, 2, 3, 254, 255};
  ASSERT_TRUE(io::WriteFileBytes(path, payload).ok());
  std::vector<uint8_t> back;
  ASSERT_TRUE(io::ReadFileBytes(path, &back).ok());
  EXPECT_EQ(back, payload);
  std::remove(path.c_str());

  const io::Status missing = io::ReadFileBytes(path, &back);
  EXPECT_FALSE(missing.ok());
  EXPECT_NE(missing.error.find("cannot open"), std::string::npos)
      << missing.error;
}

// ---------------------------------------------------------------------------
// Snapshot rejection. One small bundle, saved once, then damaged in every
// way a real deployment can encounter.
// ---------------------------------------------------------------------------

class SnapshotRejectionTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    Venue venue = synth::RandomVenue(11);
    Rng rng(5);
    std::vector<IndoorPoint> objects = synth::PlaceObjects(venue, 6, rng);
    eng::EngineOptions options;
    options.object_keywords.assign(objects.size(), {"tag"});
    const eng::VenueBundle bundle = eng::VenueBundle::Build(
        std::move(venue), std::move(objects), std::move(options));
    bytes_ = new std::vector<uint8_t>();
    const std::string path = TempPath("rejection");
    ASSERT_TRUE(bundle.Save(path).ok());
    ASSERT_TRUE(io::ReadFileBytes(path, bytes_).ok());
    std::remove(path.c_str());
  }

  static void TearDownTestSuite() {
    delete bytes_;
    bytes_ = nullptr;
  }

  static std::vector<uint8_t>* bytes_;
};

// Writes `bytes` to a temp file and expects TryLoad to fail with a message
// containing `expect_substring`.
void ExpectRejected(const std::vector<uint8_t>& bytes,
                    const std::string& expect_substring) {
  const std::string path = TempPath("damaged");
  ASSERT_TRUE(io::WriteFileBytes(path, bytes).ok());
  std::string error;
  const std::optional<eng::VenueBundle> loaded =
      eng::VenueBundle::TryLoad(path, &error);
  std::remove(path.c_str());
  EXPECT_FALSE(loaded.has_value());
  EXPECT_FALSE(error.empty());
  EXPECT_NE(error.find(expect_substring), std::string::npos)
      << "error was: " << error;
}

std::vector<uint8_t>* SnapshotRejectionTest::bytes_ = nullptr;

TEST_F(SnapshotRejectionTest, IntactSnapshotLoads) {
  const std::string path = TempPath("intact");
  ASSERT_TRUE(io::WriteFileBytes(path, *bytes_).ok());
  std::string error;
  EXPECT_TRUE(eng::VenueBundle::TryLoad(path, &error).has_value()) << error;
  std::remove(path.c_str());
}

TEST_F(SnapshotRejectionTest, MissingFile) {
  std::string error;
  EXPECT_FALSE(
      eng::VenueBundle::TryLoad(TempPath("never_written"), &error)
          .has_value());
  EXPECT_NE(error.find("cannot open"), std::string::npos) << error;
}

TEST_F(SnapshotRejectionTest, BadMagic) {
  std::vector<uint8_t> bytes = *bytes_;
  bytes[0] ^= 0xFF;
  ExpectRejected(bytes, "bad magic");
}

TEST_F(SnapshotRejectionTest, EmptyAndTinyFiles) {
  ExpectRejected({}, "file too small");
  ExpectRejected({'V', 'I', 'P', 'T'}, "file too small");
}

TEST_F(SnapshotRejectionTest, WrongVersion) {
  // 1 is the retired pre-TOC layout, 2 the retired layout without a graph
  // kind, 4 and 99 are from the future; all are rejected up front by both
  // the loader and the install-time verifier.
  for (const uint8_t version : {1, 2, 4, 99}) {
    std::vector<uint8_t> bytes = *bytes_;
    bytes[8] = version;  // version u32 follows the 8-byte magic
    const std::string expect = "unsupported snapshot format version " +
                               std::to_string(version) +
                               " (this build reads version 3)";
    ExpectRejected(bytes, expect);

    const std::string path = TempPath("wrong_version");
    ASSERT_TRUE(io::WriteFileBytes(path, bytes).ok());
    io::SnapshotVerifyReport report;
    const io::Status status = io::VerifySnapshotFile(path, &report);
    std::remove(path.c_str());
    EXPECT_FALSE(status.ok());
    EXPECT_NE(status.error.find(expect), std::string::npos) << status.error;
    EXPECT_TRUE(report.sections.empty());
  }
}

TEST_F(SnapshotRejectionTest, TruncationAtEveryRegionIsRejected) {
  // Chop the file at a spread of lengths: inside the header, inside section
  // headers, mid-payload, just before the end.
  const size_t n = bytes_->size();
  for (const size_t keep :
       {size_t{9}, size_t{17}, size_t{40}, n / 4, n / 2, n - 1}) {
    ASSERT_LT(keep, n);
    std::vector<uint8_t> bytes(bytes_->begin(),
                               bytes_->begin() + static_cast<long>(keep));
    const std::string path = TempPath("truncated");
    ASSERT_TRUE(io::WriteFileBytes(path, bytes).ok());
    std::string error;
    const std::optional<eng::VenueBundle> loaded =
        eng::VenueBundle::TryLoad(path, &error);
    std::remove(path.c_str());
    EXPECT_FALSE(loaded.has_value()) << "kept " << keep << " of " << n;
    EXPECT_FALSE(error.empty()) << "kept " << keep << " of " << n;
  }
}

TEST_F(SnapshotRejectionTest, PayloadCorruptionFailsTheChecksum) {
  // Flip one byte deep inside the tree section's payload (past the header
  // and section frame); the CRC must catch it before any decode runs.
  std::vector<uint8_t> bytes = *bytes_;
  bytes[bytes.size() / 2] ^= 0x40;
  ExpectRejected(bytes, "checksum mismatch");
}

TEST_F(SnapshotRejectionTest, CorruptByteSweepIsAlwaysCleanlyRejected) {
  // Sweep a corruption through the file body at a stride; every position
  // must produce a clean rejection (checksum mismatch, truncation, unknown
  // section, structural validation) — never a crash, never an abort. The
  // sweep starts after the 16-byte header: flips in magic/version are
  // covered above, and the reserved field is legitimately ignored.
  const size_t stride = (bytes_->size() - 16) / 23 + 1;
  for (size_t at = 16; at < bytes_->size(); at += stride) {
    std::vector<uint8_t> bytes = *bytes_;
    bytes[at] ^= 0x01;
    const std::string path = TempPath("sweep");
    ASSERT_TRUE(io::WriteFileBytes(path, bytes).ok());
    std::string error;
    const std::optional<eng::VenueBundle> loaded =
        eng::VenueBundle::TryLoad(path, &error);
    std::remove(path.c_str());
    EXPECT_FALSE(loaded.has_value()) << "flip at byte " << at;
    EXPECT_FALSE(error.empty()) << "flip at byte " << at;
  }
}

// --- TOC manipulation helpers (header: 8 B magic, u32 version, u32
// section count; 24-byte TOC entries: u32 tag, u32 crc, u64 offset,
// u64 size). -----------------------------------------------------------------

uint32_t ReadU32At(const std::vector<uint8_t>& bytes, size_t at) {
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= uint32_t{bytes[at + i]} << (8 * i);
  return v;
}

void WriteU64At(std::vector<uint8_t>* bytes, size_t at, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    (*bytes)[at + i] = static_cast<uint8_t>((v >> (8 * i)) & 0xFF);
  }
}

uint64_t ReadU64At(const std::vector<uint8_t>& bytes, size_t at) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= uint64_t{bytes[at + i]} << (8 * i);
  return v;
}

TEST_F(SnapshotRejectionTest, MissingSectionIsRejected) {
  // Decrement the section count so the decoder never sees the final TOC
  // entry (ENGO). Its entry and payload become unreferenced bytes, which
  // the TOC-based decoder legitimately ignores — the missing-section check
  // must fire. (Erasing the entry outright would shift every payload and
  // trip the CRC check first.)
  std::vector<uint8_t> bytes = *bytes_;
  const uint32_t count = ReadU32At(bytes, 12);
  ASSERT_GE(count, 2u);
  bytes[12] = static_cast<uint8_t>(count - 1);
  ExpectRejected(bytes, "missing section 'ENGO'");
}

TEST_F(SnapshotRejectionTest, MisalignedSectionOffsetIsRejected) {
  // Nudge the second section's offset off the 8-byte grid; the decoder
  // must refuse before attempting to alias anything at that address.
  std::vector<uint8_t> bytes = *bytes_;
  const size_t offset_at = 16 + 24 + 8;  // entry 1, offset field
  WriteU64At(&bytes, offset_at, ReadU64At(bytes, offset_at) + 4);
  ExpectRejected(bytes, "misaligned section offset");
}

TEST_F(SnapshotRejectionTest, SectionBeyondFileIsRejected) {
  // An offset pointing (aligned) past the end of the file.
  std::vector<uint8_t> bytes = *bytes_;
  const size_t offset_at = 16 + 24 + 8;
  WriteU64At(&bytes, offset_at, (bytes.size() + 1024) & ~uint64_t{7});
  ExpectRejected(bytes, "truncated");
}

TEST_F(SnapshotRejectionTest, TruncationBelowTheTocIsRejected) {
  // Keep the magic/version/count but none of the TOC entries.
  std::vector<uint8_t> bytes(bytes_->begin(), bytes_->begin() + 20);
  ExpectRejected(bytes, "truncated below the TOC");
}

TEST_F(SnapshotRejectionTest, UnreadableFileIsRejected) {
  // A directory is the portable "exists but cannot be read as a file"
  // case (the tests may run as root, where permission bits do not bite).
  std::string error;
  EXPECT_FALSE(eng::VenueBundle::TryLoad("/tmp", &error).has_value());
  EXPECT_NE(error.find("directory"), std::string::npos) << error;
}

TEST_F(SnapshotRejectionTest, ImplausibleSectionCountIsRejected) {
  std::vector<uint8_t> bytes = *bytes_;
  bytes[12] = 0xFF;
  bytes[13] = 0xFF;
  ExpectRejected(bytes, "section count");
}

// --- Graph kind (GRPH: u64 vertex count, u8 kind, offsets, edges). A
// geometric graph's door edges are read by run lengths taken from the
// venue, so a load must reject one whose runs do not fit. ---------------

// The fixture snapshot decoded, changed by `edit` and encoded again with
// fresh checksums, so only the edit can make a load fail.
template <typename Edit>
std::vector<uint8_t> Reencoded(const std::vector<uint8_t>& bytes, Edit edit) {
  io::Snapshot snapshot;
  const io::Status status = io::DecodeSnapshot(bytes, &snapshot);
  EXPECT_TRUE(status.ok()) << status.error;
  edit(snapshot);
  return io::EncodeSnapshot(snapshot);
}

TEST_F(SnapshotRejectionTest, LoadedGraphKeepsItsKind) {
  const std::string path = TempPath("kind");
  ASSERT_TRUE(io::WriteFileBytes(path, *bytes_).ok());
  std::string error;
  const std::optional<eng::VenueBundle> loaded =
      eng::VenueBundle::TryLoad(path, &error);
  std::remove(path.c_str());
  ASSERT_TRUE(loaded.has_value()) << error;
  EXPECT_EQ(loaded->graph().kind(), D2DGraph::Kind::kGeometric);
}

TEST_F(SnapshotRejectionTest, UnknownGraphKindIsRejected) {
  ExpectRejected(Reencoded(*bytes_,
                           [](io::Snapshot& s) {
                             s.graph.kind = static_cast<D2DGraph::Kind>(2);
                           }),
                 "graph has unknown kind 2");
}

TEST_F(SnapshotRejectionTest, GeometricGraphWithWrongDoorDegreeIsRejected) {
  // The first door with an edge loses its last one. The CSR stays well
  // formed, so only the run check can tell; without it a same-leaf search
  // would read one edge past that door's list.
  const std::vector<uint8_t> bytes = Reencoded(*bytes_, [](io::Snapshot& s) {
    D2DGraph::Parts& g = s.graph;
    ASSERT_EQ(g.kind, D2DGraph::Kind::kGeometric);
    std::vector<uint64_t> offsets(g.offsets.begin(), g.offsets.end());
    std::vector<D2DEdge> edges(g.edges.begin(), g.edges.end());
    size_t door = 0;
    while (offsets[door + 1] == offsets[door]) ++door;
    edges.erase(edges.begin() + static_cast<ptrdiff_t>(offsets[door + 1] - 1));
    for (size_t v = door + 1; v < offsets.size(); ++v) --offsets[v];
    g.offsets = std::move(offsets);
    g.edges = std::move(edges);
  });
  ExpectRejected(bytes, "geometric graph gives door");
  // The trusted load (no checksums, no deep sweep) runs the check too.
  const std::string path = TempPath("degree");
  ASSERT_TRUE(io::WriteFileBytes(path, bytes).ok());
  std::string error;
  eng::VenueBundle::LoadOptions trusted;
  trusted.verify_checksums = false;
  EXPECT_FALSE(eng::VenueBundle::TryLoad(path, &error, trusted).has_value());
  std::remove(path.c_str());
  EXPECT_NE(error.find("geometric graph gives door"), std::string::npos)
      << error;
}

// ---------------------------------------------------------------------------
// Randomized region-targeted fuzz. The deterministic sweeps above probe
// fixed offsets; this parses the TOC of the saved snapshot and, per
// seed, aims random bit flips and random truncations at every structural
// region — header, TOC entries, each section payload, and the alignment
// padding between sections. Every mutation must be handled cleanly: a
// rejection with a human-readable error, or (for flips confined to dead
// padding the checksums never covered) a successful load. Never a crash,
// never an abort, never an empty error message.
// ---------------------------------------------------------------------------

struct FuzzRegion {
  std::string name;
  size_t begin = 0;  // inclusive
  size_t end = 0;    // exclusive
  bool padding = false;  // bytes no checksum covers: a flip may load fine
};

// Region map derived from the TOC (header: 8 B magic, u32 version, u32
// section count at 12; 24-byte entries from 16: u32 tag, u32 crc,
// u64 offset, u64 size). Bytes inside no header/TOC/section range are the
// 8-byte-alignment padding.
std::vector<FuzzRegion> MapRegions(const std::vector<uint8_t>& bytes) {
  std::vector<FuzzRegion> regions;
  regions.push_back({"header", 0, 16, false});
  const uint32_t count = ReadU32At(bytes, 12);
  const size_t toc_end = 16 + size_t{count} * 24;
  regions.push_back({"toc", 16, toc_end, false});
  std::vector<uint8_t> covered(bytes.size(), 0);
  std::fill(covered.begin(), covered.begin() + static_cast<long>(toc_end),
            1);
  for (uint32_t i = 0; i < count; ++i) {
    const size_t entry = 16 + size_t{i} * 24;
    const size_t offset = ReadU64At(bytes, entry + 8);
    const size_t size = ReadU64At(bytes, entry + 16);
    std::string tag;
    for (int c = 0; c < 4; ++c) {
      tag += static_cast<char>(bytes[entry + c]);
    }
    regions.push_back({"section " + tag, offset, offset + size, false});
    for (size_t b = offset; b < offset + size && b < covered.size(); ++b) {
      covered[b] = 1;
    }
  }
  // Whatever is left over is alignment padding.
  size_t run_start = bytes.size();
  for (size_t b = toc_end; b <= bytes.size(); ++b) {
    const bool pad = b < bytes.size() && covered[b] == 0;
    if (pad && run_start == bytes.size()) run_start = b;
    if (!pad && run_start != bytes.size()) {
      regions.push_back({"padding", run_start, b, true});
      run_start = bytes.size();
    }
  }
  return regions;
}

TEST_F(SnapshotRejectionTest, RandomizedRegionFuzzIsAlwaysClean) {
  const std::vector<uint8_t>& base = *bytes_;
  const std::vector<FuzzRegion> regions = MapRegions(base);
  // The map must cover what the format promises: header, TOC, at least
  // four sections — otherwise the fuzz is aiming at nothing.
  ASSERT_GE(regions.size(), 6u);

  for (uint64_t seed = 0; seed < 24; ++seed) {
    Rng rng(seed ^ 0xF022);
    for (const FuzzRegion& region : regions) {
      if (region.begin >= region.end) continue;

      // One random single-bit flip inside the region.
      std::vector<uint8_t> flipped = base;
      const size_t at =
          region.begin + rng.UniformIndex(region.end - region.begin);
      flipped[at] ^= static_cast<uint8_t>(1u << rng.UniformIndex(8));
      {
        const std::string path = TempPath("fuzz_flip");
        ASSERT_TRUE(io::WriteFileBytes(path, flipped).ok());
        std::string error;
        const std::optional<eng::VenueBundle> loaded =
            eng::VenueBundle::TryLoad(path, &error);
        std::remove(path.c_str());
        if (region.padding) {
          // Dead bytes: loading may succeed, but a failure must still be
          // clean and explained.
          EXPECT_TRUE(loaded.has_value() || !error.empty())
              << region.name << " flip at " << at << " seed " << seed;
        } else {
          EXPECT_FALSE(loaded.has_value())
              << region.name << " flip at byte " << at << " bit accepted, "
              << "seed " << seed;
          EXPECT_FALSE(error.empty())
              << region.name << " flip at " << at << " seed " << seed;
        }
      }

      // One random truncation ending inside the region: always a clean
      // rejection (some section loses bytes, or the header/TOC itself
      // is cut short).
      const size_t keep =
          region.begin + rng.UniformIndex(region.end - region.begin);
      if (keep >= base.size()) continue;
      std::vector<uint8_t> truncated(base.begin(),
                                     base.begin() + static_cast<long>(keep));
      const std::string path = TempPath("fuzz_trunc");
      ASSERT_TRUE(io::WriteFileBytes(path, truncated).ok());
      std::string error;
      const std::optional<eng::VenueBundle> loaded =
          eng::VenueBundle::TryLoad(path, &error);
      std::remove(path.c_str());
      EXPECT_FALSE(loaded.has_value())
          << region.name << " truncated to " << keep << " bytes accepted, "
          << "seed " << seed;
      EXPECT_FALSE(error.empty())
          << region.name << " truncation to " << keep << " seed " << seed;
    }
  }
}

// ---------------------------------------------------------------------------
// Install-time checksum verification (`viptree_build --verify`): every
// section CRC re-checked without decoding, per-section report.
// ---------------------------------------------------------------------------

TEST_F(SnapshotRejectionTest, VerifySnapshotFileChecksEverySection) {
  const std::string path = TempPath("verify_ok");
  ASSERT_TRUE(io::WriteFileBytes(path, *bytes_).ok());
  io::SnapshotVerifyReport report;
  const io::Status status = io::VerifySnapshotFile(path, &report);
  std::remove(path.c_str());
  EXPECT_TRUE(status.ok()) << status.error;
  EXPECT_EQ(report.format_version, io::kFormatVersion);
  EXPECT_EQ(report.file_bytes, bytes_->size());
  // VENU/GRPH/TREE/VIPX/OBJX/ENGO plus KWIX (the fixture has keywords).
  EXPECT_EQ(report.sections.size(), 7u);
  for (const io::SnapshotSectionCheck& section : report.sections) {
    EXPECT_TRUE(section.ok) << section.name;
    EXPECT_GT(section.bytes, 0u) << section.name;
  }
}

TEST_F(SnapshotRejectionTest, VerifySnapshotFileFlagsCorruptedSections) {
  // One payload byte flipped: verification fails naming the section, and
  // the report shows exactly one damaged section among intact ones.
  std::vector<uint8_t> bytes = *bytes_;
  bytes[bytes.size() / 2] ^= 0x40;
  const std::string path = TempPath("verify_bad");
  ASSERT_TRUE(io::WriteFileBytes(path, bytes).ok());
  io::SnapshotVerifyReport report;
  const io::Status status = io::VerifySnapshotFile(path, &report);
  std::remove(path.c_str());
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.error.find("checksum mismatch"), std::string::npos)
      << status.error;
  size_t damaged = 0;
  for (const io::SnapshotSectionCheck& section : report.sections) {
    if (!section.ok) ++damaged;
  }
  EXPECT_EQ(damaged, 1u);

  // Missing and truncated files are clean errors, not crashes.
  EXPECT_FALSE(io::VerifySnapshotFile(TempPath("verify_missing")).ok());
  std::vector<uint8_t> truncated(bytes_->begin(), bytes_->begin() + 40);
  const std::string tpath = TempPath("verify_trunc");
  ASSERT_TRUE(io::WriteFileBytes(tpath, truncated).ok());
  EXPECT_FALSE(io::VerifySnapshotFile(tpath).ok());
  std::remove(tpath.c_str());
}

TEST_F(SnapshotRejectionTest, DefaultSaveLoadsZeroCopy) {
  const std::string path = TempPath("zero_copy");
  ASSERT_TRUE(io::WriteFileBytes(path, *bytes_).ok());
  std::string error;
  const std::optional<eng::VenueBundle> loaded =
      eng::VenueBundle::TryLoad(path, &error);
  std::remove(path.c_str());
  ASSERT_TRUE(loaded.has_value()) << error;
  EXPECT_TRUE(loaded->zero_copy());

  // Forcing the copying read path must still work (and still zero-copy the
  // *decode* — the arena is just heap-backed instead of mapped).
  const std::string path2 = TempPath("no_mmap");
  ASSERT_TRUE(io::WriteFileBytes(path2, *bytes_).ok());
  eng::VenueBundle::LoadOptions no_mmap;
  no_mmap.use_mmap = false;
  const std::optional<eng::VenueBundle> heap_loaded =
      eng::VenueBundle::TryLoad(path2, &error, no_mmap);
  std::remove(path2.c_str());
  ASSERT_TRUE(heap_loaded.has_value()) << error;
}

// ---------------------------------------------------------------------------
// MmapArena: mapped and heap-backed arenas.
// ---------------------------------------------------------------------------

TEST(MmapArenaPolicyTest, EveryPolicyMapsAndReadsIdenticalBytes) {
  // Both ways the arena can hold a file — mapped, or read into the heap —
  // must expose the same bytes.
  const std::string path = TempPath("arena_policy");
  std::vector<uint8_t> payload(4096 * 3 + 17);
  for (size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<uint8_t>(i * 31 + 7);
  }
  ASSERT_TRUE(io::WriteFileBytes(path, payload).ok());
  for (const bool allow_mmap : {true, false}) {
    io::MmapArena arena;
    ASSERT_TRUE(io::MmapArena::Map(path, &arena, allow_mmap).ok());
    if (!allow_mmap) {
      EXPECT_FALSE(arena.mapped());
    }
    ASSERT_EQ(arena.size(), payload.size());
    EXPECT_TRUE(std::equal(payload.begin(), payload.end(),
                           arena.bytes().begin()));
  }
  std::remove(path.c_str());
}

TEST(MmapArenaPolicyTest, HeapFallbackIsAlignedAndDropIsANoop) {
  const std::string path = TempPath("arena_heap");
  const std::vector<uint8_t> payload(1000, 0xAB);
  ASSERT_TRUE(io::WriteFileBytes(path, payload).ok());
  io::MmapArena arena;
  ASSERT_TRUE(io::MmapArena::Map(path, &arena, /*allow_mmap=*/false).ok());
  EXPECT_FALSE(arena.mapped());
  EXPECT_EQ(reinterpret_cast<uintptr_t>(arena.bytes().data()) %
                kIndexBufferAlign,
            0u);
  EXPECT_TRUE(std::equal(payload.begin(), payload.end(),
                         arena.bytes().begin()));
  std::remove(path.c_str());
}

}  // namespace
}  // namespace viptree
