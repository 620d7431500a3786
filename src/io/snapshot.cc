#include "io/snapshot.h"

#include <cstring>
#include <utility>

#include "common/aligned.h"
#include "common/check.h"
#include "common/storage.h"

namespace viptree {
namespace io {

namespace {

// ---------------------------------------------------------------------------
// Section tags.
// ---------------------------------------------------------------------------

constexpr char kMagic[8] = {'V', 'I', 'P', 'T', 'S', 'N', 'A', 'P'};

constexpr uint32_t Tag(char a, char b, char c, char d) {
  return uint32_t(uint8_t(a)) | uint32_t(uint8_t(b)) << 8 |
         uint32_t(uint8_t(c)) << 16 | uint32_t(uint8_t(d)) << 24;
}

constexpr uint32_t kTagVenue = Tag('V', 'E', 'N', 'U');
constexpr uint32_t kTagGraph = Tag('G', 'R', 'P', 'H');
constexpr uint32_t kTagTree = Tag('T', 'R', 'E', 'E');
constexpr uint32_t kTagVip = Tag('V', 'I', 'P', 'X');
constexpr uint32_t kTagObjects = Tag('O', 'B', 'J', 'X');
constexpr uint32_t kTagKeywords = Tag('K', 'W', 'I', 'X');
constexpr uint32_t kTagEngineOptions = Tag('E', 'N', 'G', 'O');

std::string TagName(uint32_t tag) {
  std::string name(4, '?');
  for (int i = 0; i < 4; ++i) {
    const char c = static_cast<char>((tag >> (8 * i)) & 0xFF);
    name[i] = (c >= 0x20 && c < 0x7F) ? c : '?';
  }
  return name;
}

// ---------------------------------------------------------------------------
// Field helpers.
// ---------------------------------------------------------------------------

void WritePoint(Writer& w, const Point& p) {
  w.F64(p.x);
  w.F64(p.y);
  w.F64(p.z);
}

Point ReadPoint(Reader& r) {
  Point p;
  p.x = r.F64();
  p.y = r.F64();
  p.z = r.F64();
  return p;
}

// Division-based bounds check so a corrupted rows*cols cannot overflow into
// a bogus small allocation.
bool MatrixShapeFits(Reader& r, uint64_t rows, uint64_t cols,
                     size_t element_size, const char* what) {
  if (!r.ok()) return false;
  if (rows != 0 && cols > (r.remaining() / element_size) / rows) {
    r.Fail(std::string("truncated: ") + what + " claims " +
           std::to_string(rows) + "x" + std::to_string(cols) +
           " cells but only " + std::to_string(r.remaining()) +
           " bytes remain");
    return false;
  }
  return true;
}

// Field-wise codecs of the small sections (VENU / KWIX / ENGO and the
// object list), which hold no bulk arrays worth aliasing.

void WriteI32Vec(Writer& w, Span<const int32_t> v) {
  w.U64(v.size());
  w.I32Array(v);
}

std::vector<int32_t> ReadI32Vec(Reader& r, const char* what) {
  const uint64_t n = r.ArraySize(4, what);
  std::vector<int32_t> v(n);
  r.I32Array(v.data(), n);
  return v;
}

void EncodeVenue(Writer& w, const Venue::Parts& parts) {
  w.I32(parts.beta);
  w.U64(parts.partitions.size());
  for (const Partition& p : parts.partitions) {
    w.I32(p.id);
    w.I32(p.level);
    w.I32(p.zone);
    w.U8(static_cast<uint8_t>(p.use));
    w.F64(p.cost_scale);
    WritePoint(w, p.centroid);
    w.String(p.name);
  }
  w.U64(parts.doors.size());
  for (const Door& d : parts.doors) {
    w.I32(d.id);
    w.I32(d.partition_a);
    w.I32(d.partition_b);
    WritePoint(w, d.position);
  }
}

void DecodeVenue(Reader& r, Venue::Parts* parts) {
  parts->beta = r.I32();
  const uint64_t num_partitions = r.ArraySize(41, "venue partitions");
  parts->partitions.resize(num_partitions);
  for (Partition& p : parts->partitions) {
    p.id = r.I32();
    p.level = r.I32();
    p.zone = r.I32();
    const uint8_t use = r.U8();
    if (use > static_cast<uint8_t>(PartitionUse::kOther)) {
      r.Fail("partition has unknown use tag " + std::to_string(use));
      return;
    }
    p.use = static_cast<PartitionUse>(use);
    p.cost_scale = r.F64();
    p.centroid = ReadPoint(r);
    p.name = r.String();
  }
  const uint64_t num_doors = r.ArraySize(36, "venue doors");
  parts->doors.resize(num_doors);
  for (Door& d : parts->doors) {
    d.id = r.I32();
    d.partition_a = r.I32();
    d.partition_b = r.I32();
    d.position = ReadPoint(r);
  }
}

void EncodeObjectList(Writer& w, const std::vector<IndoorPoint>& objects) {
  w.U64(objects.size());
  for (const IndoorPoint& obj : objects) {
    w.I32(obj.partition);
    WritePoint(w, obj.position);
  }
}

void DecodeObjectList(Reader& r, std::vector<IndoorPoint>* objects) {
  const uint64_t num_objects = r.ArraySize(28, "objects");
  objects->resize(num_objects);
  for (IndoorPoint& obj : *objects) {
    obj.partition = r.I32();
    obj.position = ReadPoint(r);
  }
}

void EncodeKeywords(Writer& w, const KeywordIndex::Parts& parts) {
  w.U64(parts.keywords_by_id.size());
  for (const std::string& word : parts.keywords_by_id) w.String(word);
  w.U64(parts.object_keywords.size());
  for (const auto& list : parts.object_keywords) WriteI32Vec(w, list);
  w.U64(parts.node_keywords.size());
  for (const auto& list : parts.node_keywords) WriteI32Vec(w, list);
}

void DecodeKeywords(Reader& r, KeywordIndex::Parts* parts) {
  const uint64_t num_words = r.ArraySize(8, "keyword dictionary");
  parts->keywords_by_id.resize(num_words);
  for (std::string& word : parts->keywords_by_id) word = r.String();
  const uint64_t num_objects = r.ArraySize(8, "object keyword lists");
  parts->object_keywords.resize(num_objects);
  for (auto& list : parts->object_keywords) {
    list = ReadI32Vec(r, "object keyword list");
  }
  const uint64_t num_nodes = r.ArraySize(8, "node keyword lists");
  parts->node_keywords.resize(num_nodes);
  for (auto& list : parts->node_keywords) {
    list = ReadI32Vec(r, "node keyword list");
  }
}

void EncodeEngineOptions(Writer& w, const DistanceQueryOptions& options) {
  w.U8(options.use_superior_doors ? 1 : 0);
}

void DecodeEngineOptions(Reader& r, DistanceQueryOptions* options) {
  options->use_superior_doors = r.U8() != 0;
}

// ---------------------------------------------------------------------------
// Bulk sections: 8-aligned arrays that can be aliased into the file.
// ---------------------------------------------------------------------------

void PadTo8(Writer& w) {
  while (w.size() % 8 != 0) w.U8(0);
}

// Per-element fallbacks, used only on big-endian hosts (and for the copy
// path there): the byte layout they produce is identical to the raw
// little-endian struct bytes.
void EncodeElement(Writer& w, uint8_t v) { w.U8(v); }
void EncodeElement(Writer& w, uint32_t v) { w.U32(v); }
void EncodeElement(Writer& w, int32_t v) { w.I32(v); }
void EncodeElement(Writer& w, uint64_t v) { w.U64(v); }
void EncodeElement(Writer& w, float v) { w.F32(v); }
void EncodeElement(Writer& w, double v) { w.F64(v); }
void EncodeElement(Writer& w, const D2DEdge& e) {
  w.I32(e.to);
  w.F32(e.weight);
  w.I32(e.via);
}
void EncodeElement(Writer& w, const IPTree::DoorLeafPair& pair) {
  for (const IPTree::DoorLeafEntry& e : pair) {
    w.I32(e.leaf);
    w.U32(e.row);
  }
}

void DecodeElement(Reader& r, uint8_t* v) { *v = r.U8(); }
void DecodeElement(Reader& r, uint32_t* v) { *v = r.U32(); }
void DecodeElement(Reader& r, int32_t* v) { *v = r.I32(); }
void DecodeElement(Reader& r, uint64_t* v) { *v = r.U64(); }
void DecodeElement(Reader& r, float* v) { *v = r.F32(); }
void DecodeElement(Reader& r, double* v) { *v = r.F64(); }
void DecodeElement(Reader& r, D2DEdge* e) {
  e->to = r.I32();
  e->weight = r.F32();
  e->via = r.I32();
}
void DecodeElement(Reader& r, IPTree::DoorLeafPair* pair) {
  for (IPTree::DoorLeafEntry& e : *pair) {
    e.leaf = r.I32();
    e.row = r.U32();
  }
}

// Raw element bytes, padded to an 8-aligned position relative to the
// payload start (== relative to the file, since payload offsets are
// 8-aligned).
template <typename T>
void WriteRawElems(Writer& w, Span<const T> v) {
  static_assert(std::is_trivially_copyable<T>::value, "raw array element");
  PadTo8(w);
  if (detail::kHostIsLittleEndian) {
    w.Bytes(v.data(), v.size() * sizeof(T));
  } else {
    for (const T& x : v) EncodeElement(w, x);
  }
}

template <typename T>
void WriteAlignedArray(Writer& w, Span<const T> v) {
  w.U64(v.size());
  WriteRawElems(w, v);
}

// Decodes section payloads; hands out views into the payload when aliasing is
// possible (little-endian host, suitably aligned pointer), owning copies
// otherwise. Records whether any view was handed out.
class SectionReader {
 public:
  SectionReader(Span<const uint8_t> payload, bool* aliased)
      : r_(payload), aliased_(aliased) {}

  Reader& r() { return r_; }

  template <typename T>
  Storage<T> Array(const char* what) {
    const uint64_t n = r_.ArraySize(sizeof(T), what);
    return RawElems<T>(n, what);
  }

  // Reads an array whose element count was decoded earlier (the split
  // hot-metadata / cold-blob layout of the TREE and VIPX sections).
  template <typename T>
  Storage<T> ShapedArray(uint64_t n, const char* what) {
    if (!r_.ok()) return {};
    if (n > r_.remaining() / sizeof(T)) {
      r_.Fail(std::string("truncated: ") + what + " claims " +
              std::to_string(n) + " elements but only " +
              std::to_string(r_.remaining()) + " bytes remain");
      return {};
    }
    return RawElems<T>(n, what);
  }

  template <typename T>
  FlatMatrix<T> ShapedMatrix(uint64_t rows, uint64_t cols, const char* what) {
    if (!MatrixShapeFits(r_, rows, cols, sizeof(T), what)) return {};
    Storage<T> data = RawElems<T>(rows * cols, what);
    if (!r_.ok()) return {};
    return FlatMatrix<T>(rows, cols, std::move(data));
  }

 private:
  template <typename T>
  Storage<T> RawElems(uint64_t n, const char* what) {
    SkipPad();
    const size_t start = r_.position();
    const Span<const uint8_t> raw = r_.Raw(n * sizeof(T));
    if (!r_.ok()) return {};
    if (detail::kHostIsLittleEndian &&
        reinterpret_cast<uintptr_t>(raw.data()) % alignof(T) == 0) {
      *aliased_ = true;
      return Storage<T>::View(
          {reinterpret_cast<const T*>(raw.data()), static_cast<size_t>(n)});
    }
    AlignedVector<T> v(n);
    if (detail::kHostIsLittleEndian) {
      if (n != 0) std::memcpy(v.data(), raw.data(), n * sizeof(T));
    } else {
      Reader elems(raw);
      for (T& x : v) DecodeElement(elems, &x);
      if (!elems.ok()) {
        r_.Fail(std::string("malformed ") + what + " at offset " +
                std::to_string(start));
        return {};
      }
    }
    return Storage<T>(std::move(v));
  }

  void SkipPad() {
    const size_t pad = (8 - r_.position() % 8) % 8;
    if (pad != 0) r_.Raw(pad);
  }

  Reader r_;
  bool* aliased_;
};

void EncodeGraph(Writer& w, const D2DGraph::Parts& parts) {
  w.U64(parts.num_vertices);
  WriteAlignedArray<uint64_t>(w, parts.offsets);
  WriteAlignedArray<D2DEdge>(w, parts.edges);
}

void DecodeGraph(SectionReader& s, D2DGraph::Parts* parts) {
  parts->num_vertices = s.r().U64();
  parts->offsets = s.Array<uint64_t>("graph offsets");
  parts->edges = s.Array<D2DEdge>("graph edges");
}

// Layout note: the TREE and VIPX sections segregate hot bytes from cold
// bytes. Everything the decoder must *read* (node scalars, the small
// per-node door lists it copies into TreeNode vectors, matrix shapes)
// comes first; the matrix payloads — the bulk of the snapshot, aliased
// and never read at load time — sit in one contiguous blob at the end of
// the section. Interleaving them per node would drag the cold matrix
// pages into memory alongside the hot metadata that shares their 4 KiB
// pages, destroying the O(touched-pages) property of the mmap load.

void EncodeTree(Writer& w, const IPTree::Parts& parts) {
  w.U64(parts.nodes.size());
  for (const TreeNode& node : parts.nodes) {
    w.I32(node.id);
    w.I32(node.parent);
    w.I32(node.level);
    w.U32(node.leaf_begin);
    w.U32(node.leaf_end);
    WriteAlignedArray<int32_t>(w, node.children);
    WriteAlignedArray<int32_t>(w, node.partitions);
    WriteAlignedArray<int32_t>(w, node.doors);
    WriteAlignedArray<int32_t>(w, node.access_doors);
    WriteAlignedArray<int32_t>(w, node.matrix_doors);
    w.U64(node.dist.rows());
    w.U64(node.dist.cols());
    w.U64(node.next_hop.rows());
    w.U64(node.next_hop.cols());
  }
  w.I32(parts.root);
  w.U64(parts.num_leaves);
  WriteAlignedArray<int32_t>(w, parts.leaf_of_partition);
  WriteAlignedArray<IPTree::DoorLeafPair>(w, parts.door_leaves);
  WriteAlignedArray<uint8_t>(w, parts.is_access_door);
  WriteAlignedArray<uint32_t>(w, parts.superior_offsets);
  WriteAlignedArray<int32_t>(w, parts.superior_doors);
  // Cold matrix blob.
  for (const TreeNode& node : parts.nodes) {
    WriteRawElems<float>(w, node.dist.raw());
    WriteRawElems<int32_t>(w, node.next_hop.raw());
  }
}

std::vector<int32_t> ToVector(Storage<int32_t> s) {
  return std::vector<int32_t>(s.begin(), s.end());
}

void DecodeTree(SectionReader& s, IPTree::Parts* parts) {
  Reader& r = s.r();
  const uint64_t num_nodes = r.ArraySize(60, "tree nodes");
  parts->nodes.resize(num_nodes);
  std::vector<std::array<uint64_t, 4>> shapes(num_nodes);
  for (uint64_t i = 0; i < num_nodes; ++i) {
    TreeNode& node = parts->nodes[i];
    node.id = r.I32();
    node.parent = r.I32();
    node.level = r.I32();
    node.leaf_begin = r.U32();
    node.leaf_end = r.U32();
    // The per-node door lists stay owned vectors in TreeNode (they are
    // small and heavily iterated); only the matrices alias the arena.
    node.children = ToVector(s.Array<int32_t>("node children"));
    node.partitions = ToVector(s.Array<int32_t>("node partitions"));
    node.doors = ToVector(s.Array<int32_t>("node doors"));
    node.access_doors = ToVector(s.Array<int32_t>("node access doors"));
    node.matrix_doors = ToVector(s.Array<int32_t>("node matrix doors"));
    shapes[i] = {r.U64(), r.U64(), r.U64(), r.U64()};
    if (!r.ok()) return;
  }
  parts->root = r.I32();
  parts->num_leaves = r.U64();
  parts->leaf_of_partition = s.Array<int32_t>("leaf_of_partition");
  parts->door_leaves = s.Array<IPTree::DoorLeafPair>("door_leaves");
  parts->is_access_door = s.Array<uint8_t>("is_access_door");
  parts->superior_offsets = s.Array<uint32_t>("superior offsets");
  parts->superior_doors = s.Array<int32_t>("superior doors");
  for (uint64_t i = 0; i < num_nodes; ++i) {
    parts->nodes[i].dist =
        s.ShapedMatrix<float>(shapes[i][0], shapes[i][1],
                              "node distance matrix");
    parts->nodes[i].next_hop = s.ShapedMatrix<int32_t>(
        shapes[i][2], shapes[i][3], "node next-hop matrix");
    if (!r.ok()) return;
  }
}

void EncodeVip(Writer& w, const VIPTree::Parts& parts) {
  w.U64(parts.ext.size());
  for (const VIPTree::ExtMatrix& ext : parts.ext) {
    w.U64(ext.doors.size());
    w.U64(ext.dist.rows());
    w.U64(ext.dist.cols());
    w.U64(ext.next_hop.rows());
    w.U64(ext.next_hop.cols());
  }
  // Cold blob: the row-door lists and matrices, all aliased on load.
  for (const VIPTree::ExtMatrix& ext : parts.ext) {
    WriteRawElems<int32_t>(w, ext.doors.span());
    WriteRawElems<float>(w, ext.dist.raw());
    WriteRawElems<int32_t>(w, ext.next_hop.raw());
  }
}

void DecodeVip(SectionReader& s, VIPTree::Parts* parts) {
  Reader& r = s.r();
  const uint64_t num_nodes = r.ArraySize(40, "extended matrices");
  parts->ext.resize(num_nodes);
  std::vector<std::array<uint64_t, 5>> shapes(num_nodes);
  for (uint64_t i = 0; i < num_nodes; ++i) {
    shapes[i] = {r.U64(), r.U64(), r.U64(), r.U64(), r.U64()};
  }
  for (uint64_t i = 0; i < num_nodes; ++i) {
    VIPTree::ExtMatrix& ext = parts->ext[i];
    ext.doors = s.ShapedArray<int32_t>(shapes[i][0], "extended matrix doors");
    ext.dist = s.ShapedMatrix<float>(shapes[i][1], shapes[i][2],
                                     "extended distance matrix");
    ext.next_hop = s.ShapedMatrix<int32_t>(shapes[i][3], shapes[i][4],
                                           "extended next-hop matrix");
    if (!r.ok()) return;
  }
}

void EncodeObjects(Writer& w, const ObjectIndex::Parts& parts) {
  EncodeObjectList(w, parts.objects);
  WriteAlignedArray<uint32_t>(w, parts.leaf_object_offsets);
  WriteAlignedArray<int32_t>(w, parts.leaf_objects);
  WriteAlignedArray<uint64_t>(w, parts.dist_offsets);
  WriteAlignedArray<double>(w, parts.door_dists);
  WriteAlignedArray<uint32_t>(w, parts.dfs_prefix);
}

void DecodeObjects(SectionReader& s, ObjectIndex::Parts* parts) {
  DecodeObjectList(s.r(), &parts->objects);
  parts->leaf_object_offsets = s.Array<uint32_t>("leaf object offsets");
  parts->leaf_objects = s.Array<int32_t>("leaf objects");
  parts->dist_offsets = s.Array<uint64_t>("distance offsets");
  parts->door_dists = s.Array<double>("door-object distances");
  parts->dfs_prefix = s.Array<uint32_t>("dfs prefix sums");
}

struct SeenSections {
  bool venue = false, graph = false, tree = false;
  bool vip = false, objects = false, options = false;

  Status CheckComplete() const {
    const struct {
      bool seen;
      const char* name;
    } required[] = {{venue, "VENU"},     {graph, "GRPH"}, {tree, "TREE"},
                    {vip, "VIPX"},       {objects, "OBJX"},
                    {options, "ENGO"}};
    for (const auto& section : required) {
      if (!section.seen) {
        return Status::Error(std::string("snapshot is missing section '") +
                             section.name + "'");
      }
    }
    return Status::Ok();
  }
};

// ---------------------------------------------------------------------------
// Container: header, TOC, payloads.
// ---------------------------------------------------------------------------

constexpr size_t kHeaderBytes = 16;    // magic + version + section count
constexpr size_t kTocEntryBytes = 24;  // tag + crc + offset + size
// Far above the 7 defined sections; a larger count means a damaged header.
constexpr uint32_t kMaxSections = 64;

// One TOC entry, bounds-checked against the file.
struct TocEntry {
  uint32_t tag = 0;
  uint32_t crc = 0;  // as stored; not yet checked against the payload
  Span<const uint8_t> payload;
};

// Validates the header (magic, version, section count) and every TOC
// entry's offset alignment and bounds, without reading any payload. The
// one parser behind both DecodeSnapshot and VerifySnapshotFile.
Status ParseToc(Span<const uint8_t> bytes, std::vector<TocEntry>* toc) {
  if (bytes.size() < kHeaderBytes) {
    return Status::Error("not a VIP-Tree snapshot (file too small)");
  }
  Reader header(bytes);
  const Span<const uint8_t> magic = header.Raw(sizeof(kMagic));
  if (std::memcmp(magic.data(), kMagic, sizeof(kMagic)) != 0) {
    return Status::Error("not a VIP-Tree snapshot (bad magic)");
  }
  const uint32_t version = header.U32();
  if (version != kFormatVersion) {
    return Status::Error("unsupported snapshot format version " +
                         std::to_string(version) +
                         " (this build reads version " +
                         std::to_string(kFormatVersion) + ")");
  }
  const uint32_t num_sections = header.U32();
  if (num_sections > kMaxSections) {
    return Status::Error("implausible section count " +
                         std::to_string(num_sections) +
                         " (corrupted snapshot header)");
  }
  const size_t toc_end = kHeaderBytes + kTocEntryBytes * size_t{num_sections};
  if (bytes.size() < toc_end) {
    return Status::Error(
        "file truncated below the TOC (" + std::to_string(bytes.size()) +
        " bytes, TOC needs " + std::to_string(toc_end) + ")");
  }

  toc->clear();
  for (uint32_t i = 0; i < num_sections; ++i) {
    TocEntry entry;
    entry.tag = header.U32();
    entry.crc = header.U32();
    const uint64_t offset = header.U64();
    const uint64_t size = header.U64();
    const std::string name = TagName(entry.tag);
    if (offset % 8 != 0) {
      return Status::Error("misaligned section offset " +
                           std::to_string(offset) + " for '" + name + "'");
    }
    if (offset < toc_end || offset > bytes.size() ||
        size > bytes.size() - offset) {
      return Status::Error("truncated: section '" + name + "' claims bytes [" +
                           std::to_string(offset) + ", " +
                           std::to_string(offset + size) + ") of a " +
                           std::to_string(bytes.size()) + "-byte file");
    }
    entry.payload = {bytes.data() + offset, static_cast<size_t>(size)};
    toc->push_back(entry);
  }
  return Status::Ok();
}

bool CrcMatches(const TocEntry& entry) {
  return Crc32(entry.payload.data(), entry.payload.size()) == entry.crc;
}

std::string ChecksumMismatch(uint32_t tag) {
  return "checksum mismatch in section '" + TagName(tag) +
         "' (corrupted snapshot)";
}

}  // namespace

std::vector<uint8_t> EncodeSnapshot(const Snapshot& snapshot) {
  struct Section {
    uint32_t tag;
    Writer payload;
  };
  std::vector<Section> sections;
  const auto add = [&sections](uint32_t tag) -> Writer& {
    sections.push_back(Section{tag, Writer()});
    return sections.back().payload;
  };

  EncodeVenue(add(kTagVenue), snapshot.venue);
  EncodeGraph(add(kTagGraph), snapshot.graph);
  EncodeTree(add(kTagTree), snapshot.tree);
  EncodeVip(add(kTagVip), snapshot.vip);
  EncodeObjects(add(kTagObjects), snapshot.objects);
  if (snapshot.keywords.has_value()) {
    EncodeKeywords(add(kTagKeywords), *snapshot.keywords);
  }
  EncodeEngineOptions(add(kTagEngineOptions), snapshot.query_options);

  // Pad every payload to a multiple of 8 so the sequentially packed
  // payload offsets all stay 8-aligned (the pad is part of the payload and
  // therefore CRC-covered).
  for (Section& s : sections) PadTo8(s.payload);

  Writer out;
  out.Bytes(kMagic, sizeof(kMagic));
  out.U32(kFormatVersion);
  out.U32(static_cast<uint32_t>(sections.size()));
  uint64_t offset = kHeaderBytes + kTocEntryBytes * sections.size();
  VIPTREE_CHECK(offset % 8 == 0);
  for (const Section& s : sections) {
    out.U32(s.tag);
    out.U32(Crc32(s.payload.buffer().data(), s.payload.size()));
    out.U64(offset);
    out.U64(s.payload.size());
    offset += s.payload.size();
  }
  for (const Section& s : sections) {
    out.Bytes(s.payload.buffer().data(), s.payload.size());
  }
  return out.TakeBuffer();
}

Status DecodeSnapshot(Span<const uint8_t> bytes, Snapshot* out,
                      const SnapshotReadOptions& options) {
  out->aliased = false;
  std::vector<TocEntry> toc;
  Status status = ParseToc(bytes, &toc);
  if (!status.ok()) return status;

  SeenSections seen;
  for (const TocEntry& entry : toc) {
    const std::string name = TagName(entry.tag);
    if (options.verify_checksums && !CrcMatches(entry)) {
      return Status::Error(ChecksumMismatch(entry.tag));
    }

    SectionReader s(entry.payload, &out->aliased);
    bool* seen_flag = nullptr;
    switch (entry.tag) {
      case kTagVenue:
        seen_flag = &seen.venue;
        DecodeVenue(s.r(), &out->venue);
        break;
      case kTagGraph:
        seen_flag = &seen.graph;
        DecodeGraph(s, &out->graph);
        break;
      case kTagTree:
        seen_flag = &seen.tree;
        DecodeTree(s, &out->tree);
        break;
      case kTagVip:
        seen_flag = &seen.vip;
        DecodeVip(s, &out->vip);
        break;
      case kTagObjects:
        seen_flag = &seen.objects;
        DecodeObjects(s, &out->objects);
        break;
      case kTagKeywords:
        if (out->keywords.has_value()) {
          return Status::Error("duplicate section 'KWIX'");
        }
        out->keywords.emplace();
        DecodeKeywords(s.r(), &*out->keywords);
        break;
      case kTagEngineOptions:
        seen_flag = &seen.options;
        DecodeEngineOptions(s.r(), &out->query_options);
        break;
      default:
        return Status::Error("unknown section '" + name + "' in snapshot");
    }
    if (seen_flag != nullptr) {
      if (*seen_flag) {
        return Status::Error("duplicate section '" + name + "'");
      }
      *seen_flag = true;
    }
    if (!s.r().ok()) {
      return Status::Error("section '" + name + "': " + s.r().error());
    }
    // Up to 7 bytes of CRC-covered end padding are part of the format;
    // anything more is a framing error.
    if (s.r().remaining() >= 8) {
      return Status::Error("section '" + name + "' has " +
                           std::to_string(s.r().remaining()) +
                           " trailing bytes");
    }
  }

  return seen.CheckComplete();
}

Status WriteSnapshotFile(const std::string& path, const Snapshot& snapshot) {
  return WriteFileBytes(path, EncodeSnapshot(snapshot));
}

Status VerifySnapshotFile(const std::string& path,
                          SnapshotVerifyReport* report) {
  std::vector<uint8_t> bytes;
  Status status = ReadFileBytes(path, &bytes);
  if (!status.ok()) return status;
  std::vector<TocEntry> toc;
  status = ParseToc(bytes, &toc);
  if (!status.ok()) return status;
  if (report != nullptr) {
    report->format_version = kFormatVersion;
    report->file_bytes = bytes.size();
    report->sections.clear();
  }

  // Recompute each payload checksum; nothing is decoded. This reproduces
  // exactly the per-section validation verify_checksums=true would run at
  // load time, made a one-time install step instead.
  std::string first_mismatch;
  for (const TocEntry& entry : toc) {
    const bool ok = CrcMatches(entry);
    if (!ok && first_mismatch.empty()) {
      first_mismatch = ChecksumMismatch(entry.tag);
    }
    if (report != nullptr) {
      report->sections.push_back(SnapshotSectionCheck{
          TagName(entry.tag), entry.payload.size(), entry.crc, ok});
    }
  }
  if (!first_mismatch.empty()) return Status::Error(first_mismatch);
  return Status::Ok();
}

}  // namespace io
}  // namespace viptree
