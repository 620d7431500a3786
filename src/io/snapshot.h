// The VIP-Tree snapshot format: a versioned little-endian container that
// persists one venue's complete serving state — venue, D2D graph, IP-/VIP-
// Tree (nodes, matrices, extended matrices), object index and optional
// keyword index — so an index built once offline can be loaded into any
// process without re-running construction (the paper's §4/Fig. 8 point that
// indexing time is paid separately from query time, made operational).
//
// Format version 3 (zero-copy layout; all integers little-endian):
//
//   8 B   magic "VIPTSNAP"
//   u32   format version (3)
//   u32   section count
//   then one 24-byte TOC entry per section:
//     u32   tag (four ASCII chars, e.g. 'VENU')
//     u32   CRC-32 of the payload
//     u64   payload offset from the start of the file
//     u64   payload size in bytes
//   then the payloads.
//
//   Alignment rules: every payload offset is a multiple of 8; inside a
//   payload, every bulk array (u64 count, then raw element bytes) is
//   preceded by zero-padding up to the next multiple of 8 *relative to the
//   payload start*, and every payload is zero-padded at the end to a
//   multiple of 8. Together these guarantee each array's file offset — and
//   therefore its address inside an 8-aligned arena (io/mmap_arena.h) — is
//   aligned for its element type, so the decoder can hand out Storage<T>
//   views straight into the mapped file instead of copying. Struct element
//   types (D2DEdge, IPTree::DoorLeafPair) are static_asserted padding-free.
//
// Sections VENU, GRPH, TREE, VIPX, OBJX and ENGO are mandatory; KWIX is
// present only when the engine was built with object keywords. Unknown
// sections, duplicate sections, truncation, misaligned TOC offsets,
// checksum mismatches and version skew are all reported as distinct,
// human-readable errors.
//
// The GRPH section is u64 vertex count, u8 graph kind (D2DGraph::Kind:
// 0 explicit, 1 geometric), then the offsets and edges arrays.
//
// Versioning policy: the format version is bumped on any incompatible
// change. This build reads version 3 only; anything else is rejected
// outright with no in-place migration. Versions 1 and 2 (v2 had no graph
// kind) are no longer read: rebuild such snapshots from the venue with
// viptree_build.

#ifndef VIPTREE_IO_SNAPSHOT_H_
#define VIPTREE_IO_SNAPSHOT_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/distance_query.h"
#include "core/keyword_query.h"
#include "core/object_index.h"
#include "core/vip_tree.h"
#include "graph/d2d_graph.h"
#include "io/binary_io.h"
#include "model/venue.h"

namespace viptree {
namespace io {

inline constexpr uint32_t kFormatVersion = 3;

// The fully deserialized (but not yet assembled) contents of a snapshot:
// plain part-structs with no cross-references, ready for the FromParts
// factories. After an aliased decode the Storage members are *views*
// into the decoded byte range — see DecodeSnapshot.
struct Snapshot {
  Venue::Parts venue;
  D2DGraph::Parts graph;
  IPTree::Parts tree;
  VIPTree::Parts vip;
  ObjectIndex::Parts objects;
  std::optional<KeywordIndex::Parts> keywords;
  DistanceQueryOptions query_options;

  // Filled in by DecodeSnapshot: true when any Storage member aliases the
  // input bytes (zero-copy). The byte buffer must then outlive this
  // Snapshot and everything built from its parts.
  bool aliased = false;
};

struct SnapshotReadOptions {
  // Verify each section's CRC-32 before decoding it. Turning this off
  // makes a load touch only the pages the decoder reads — for snapshots
  // whose integrity is guaranteed elsewhere (verified at install time,
  // content-addressed storage).
  bool verify_checksums = true;
};

// In-memory encode/decode (DecodeSnapshot performs framing, checksum and
// per-field bounds validation; structural validation against the assembled
// venue/tree happens in the FromParts factories). DecodeSnapshot lets bulk
// arrays alias `bytes` (zero-copy) instead of copying, so the caller must
// keep the buffer alive and 8-aligned (MmapArena guarantees both); where
// the buffer or host does not qualify the decoder silently copies instead.
std::vector<uint8_t> EncodeSnapshot(const Snapshot& snapshot);
Status DecodeSnapshot(Span<const uint8_t> bytes, Snapshot* out,
                      const SnapshotReadOptions& options = {});

// File write; loads go through MmapArena + DecodeSnapshot (see
// engine::VenueBundle::TryLoad).
Status WriteSnapshotFile(const std::string& path, const Snapshot& snapshot);

// Install-time integrity check: one section of VerifySnapshotFile's
// per-section verdict.
struct SnapshotSectionCheck {
  std::string name;    // four-char section tag, e.g. "VENU"
  uint64_t bytes = 0;  // payload size
  uint32_t crc = 0;    // CRC-32 stored in the file
  bool ok = false;     // recomputed CRC matches
};

struct SnapshotVerifyReport {
  uint32_t format_version = 0;
  uint64_t file_bytes = 0;
  std::vector<SnapshotSectionCheck> sections;
};

// Re-checks every section's CRC-32 against its payload bytes without
// decoding anything — the `viptree_build --verify` path that makes the
// trusted load mode (verify_checksums = false, the fast fleet
// configuration bench_mmap_load measures) safe to run: verify each
// artifact once at install time, skip the per-load pass forever after.
// Returns an error on an unreadable/malformed file or any CRC mismatch;
// `report` (optional) is filled with whatever was checked either way.
Status VerifySnapshotFile(const std::string& path,
                          SnapshotVerifyReport* report = nullptr);

}  // namespace io
}  // namespace viptree

#endif  // VIPTREE_IO_SNAPSHOT_H_
