#include "graph/snapshot.h"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <memory>
#include <string_view>
#include <type_traits>
#include <vector>

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include "graph/varint_codec.h"

namespace fairbc {

// Named (not anonymous) so SnapshotReader::Impl — an externally visible
// class — can hold these without tripping -Wsubobject-linkage.
namespace snapshot_detail {

struct SnapshotCounts {
  std::uint32_t num_upper = 0;
  std::uint32_t num_lower = 0;
  std::uint64_t num_edges = 0;
  std::uint16_t num_upper_attrs = 0;
  std::uint16_t num_lower_attrs = 0;
  std::uint32_t reserved = 0;
};
static_assert(sizeof(SnapshotCounts) == 24, "packed count block");

struct V3Header {
  std::uint64_t index_checksum = 0;
  std::uint32_t block_edges = 0;
  std::uint32_t num_upper_blocks = 0;
  std::uint32_t num_lower_blocks = 0;
  std::uint32_t reserved = 0;
  std::uint64_t upper_offsets_bytes = 0;
  std::uint64_t lower_offsets_bytes = 0;
  std::uint64_t upper_attrs_bytes = 0;
  std::uint64_t lower_attrs_bytes = 0;
  std::uint64_t blocks_bytes = 0;
};
static_assert(sizeof(V3Header) == 64, "packed v3 header");

struct BlockIndexEntry {
  std::uint64_t offset = 0;    ///< from the start of the blocks region.
  std::uint32_t bytes = 0;     ///< encoded size of this block.
  std::uint32_t checksum = 0;  ///< Fold32(Fnv1a64(block bytes)).
  std::uint16_t codec = 0;     ///< BlockCodec.
  std::uint16_t rice_k = 0;    ///< Rice parameter when codec == kRice.
  std::uint32_t reserved = 0;
};
static_assert(sizeof(BlockIndexEntry) == 24, "packed block index entry");

}  // namespace snapshot_detail

namespace {

using snapshot_detail::BlockIndexEntry;
using snapshot_detail::SnapshotCounts;
using snapshot_detail::V3Header;

/// Array sections are zero-padded to this alignment in version-2 files so
/// mmap'd u64 spans never do misaligned loads.
constexpr std::uint64_t kSectionAlign = 8;

/// Templated so the 128-bit size pre-check shares the exact same padding
/// rule as the u64 writer/reader paths.
template <typename T>
constexpr T PadTo8(T bytes) {
  return (T{kSectionAlign} - bytes % T{kSectionAlign}) % T{kSectionAlign};
}

SnapshotCounts CountsOf(const BipartiteGraph& g) {
  SnapshotCounts c;
  c.num_upper = g.NumUpper();
  c.num_lower = g.NumLower();
  c.num_edges = g.NumEdges();
  c.num_upper_attrs = g.NumAttrs(Side::kUpper);
  c.num_lower_attrs = g.NumAttrs(Side::kLower);
  return c;
}

template <typename T>
std::uint64_t FoldSpan(std::uint64_t state, std::span<const T> data) {
  return Fnv1a64(data.data(), data.size() * sizeof(T), state);
}

/// Checksum over the count block and the six arrays, in file order.
std::uint64_t ChecksumOf(const SnapshotCounts& counts,
                         const BipartiteGraph& g) {
  std::uint64_t state = Fnv1a64(&counts, sizeof(counts));
  state = FoldSpan(state, g.Offsets(Side::kUpper));
  state = FoldSpan(state, g.NeighborArray(Side::kUpper));
  state = FoldSpan(state, g.Offsets(Side::kLower));
  state = FoldSpan(state, g.NeighborArray(Side::kLower));
  state = FoldSpan(state, g.AttrArray(Side::kUpper));
  state = FoldSpan(state, g.AttrArray(Side::kLower));
  return state;
}

template <typename T>
void WriteArray(std::ofstream& out, std::span<const T> data) {
  out.write(reinterpret_cast<const char*>(data.data()),
            static_cast<std::streamsize>(data.size() * sizeof(T)));
  static constexpr char kZeros[kSectionAlign] = {};
  out.write(kZeros,
            static_cast<std::streamsize>(PadTo8(data.size() * sizeof(T))));
}

template <typename T>
bool ReadPod(std::ifstream& in, T* value) {
  in.read(reinterpret_cast<char*>(value), sizeof(T));
  return in.gcount() == sizeof(T);
}

template <typename T>
bool ReadArray(std::ifstream& in, std::size_t count, bool padded,
               std::vector<T>* out) {
  out->resize(count);
  const auto bytes = static_cast<std::streamsize>(count * sizeof(T));
  in.read(reinterpret_cast<char*>(out->data()), bytes);
  if (in.gcount() != bytes) return false;
  if (padded) {
    // Padding must be zero: the checksum excludes it, so this is the
    // only thing standing between a flipped pad byte and a clean load.
    char pad[kSectionAlign] = {};
    const auto pad_bytes =
        static_cast<std::streamsize>(PadTo8(count * sizeof(T)));
    in.read(pad, pad_bytes);
    if (in.gcount() != pad_bytes) return false;
    for (std::streamsize i = 0; i < pad_bytes; ++i) {
      if (pad[i] != 0) return false;
    }
  }
  return static_cast<bool>(in);
}

/// Payload size implied by the count fields: the six raw arrays, plus the
/// per-section alignment padding for version-2 files. 128-bit because a
/// corrupt num_edges alone can overflow a u64 byte count.
unsigned __int128 ExpectedPayloadBytes(const SnapshotCounts& counts,
                                       std::uint32_t version) {
  const unsigned __int128 sections[6] = {
      (static_cast<unsigned __int128>(counts.num_upper) + 1) *
          sizeof(EdgeIndex),
      static_cast<unsigned __int128>(counts.num_edges) * sizeof(VertexId),
      (static_cast<unsigned __int128>(counts.num_lower) + 1) *
          sizeof(EdgeIndex),
      static_cast<unsigned __int128>(counts.num_edges) * sizeof(VertexId),
      static_cast<unsigned __int128>(counts.num_upper) * sizeof(AttrId),
      static_cast<unsigned __int128>(counts.num_lower) * sizeof(AttrId)};
  unsigned __int128 total = 0;
  for (unsigned __int128 bytes : sections) {
    total += bytes;
    if (version >= 2) total += PadTo8(bytes);
  }
  return total;
}

// ---------------------------------------------------------------------------
// Version 3: compressed sections. Layout after the common 48-byte header:
//
//   V3Header            64 bytes
//   block index         2 * num_blocks x BlockIndexEntry (upper, then lower)
//   upper_offsets_c     varints: first absolute, then deltas
//   lower_offsets_c     "
//   upper_attrs_c       varints, one per vertex
//   lower_attrs_c       "
//   blocks region       concatenated neighbor blocks (upper, then lower)
//
// `index_checksum` covers the count block, the v3 header remainder, the
// block index and the four eager sections — everything a reader must
// trust before sizing an allocation — and is verified first. Each
// neighbor block carries its own folded-FNV checksum in the index so
// lazy per-range decodes stay self-verifying.

constexpr std::uint64_t kCommonHeaderBytes = 48;

std::uint32_t Fold32(std::uint64_t h) {
  return static_cast<std::uint32_t>(h ^ (h >> 32));
}

/// Offsets section: first value absolute, then consecutive differences
/// (non-negative because offsets are monotone).
std::string EncodeOffsetsSection(std::span<const EdgeIndex> offsets) {
  std::string out;
  for (std::size_t i = 0; i < offsets.size(); ++i) {
    AppendVarint(&out, i == 0 ? offsets[0] : offsets[i] - offsets[i - 1]);
  }
  return out;
}

Status DecodeOffsetsSection(const unsigned char* data, std::size_t size,
                            std::size_t count, std::uint64_t num_edges,
                            std::vector<EdgeIndex>* out) {
  out->clear();
  out->reserve(count);
  const unsigned char* p = data;
  const unsigned char* end = data + size;
  std::uint64_t acc = 0;
  for (std::size_t i = 0; i < count; ++i) {
    std::uint64_t v = 0;
    if (!ReadVarint(&p, end, &v)) {
      return Status::CorruptInput("truncated offsets section");
    }
    // Overflow-safe monotone accumulation bounded by the edge count.
    if (i == 0) {
      acc = v;
    } else if (v > num_edges - acc) {
      return Status::CorruptInput("offsets section exceeds edge count");
    } else {
      acc += v;
    }
    if (acc > num_edges) {
      return Status::CorruptInput("offsets section exceeds edge count");
    }
    out->push_back(acc);
  }
  if (p != end) {
    return Status::CorruptInput("trailing bytes in offsets section");
  }
  if (out->empty() || out->front() != 0 || out->back() != num_edges) {
    return Status::CorruptInput("offsets section endpoints mismatch");
  }
  return Status::OK();
}

std::string EncodeAttrsSection(std::span<const AttrId> attrs) {
  std::string out;
  for (AttrId a : attrs) AppendVarint(&out, a);
  return out;
}

Status DecodeAttrsSection(const unsigned char* data, std::size_t size,
                          std::size_t count, std::uint16_t num_attrs,
                          std::vector<AttrId>* out) {
  out->clear();
  out->reserve(count);
  const unsigned char* p = data;
  const unsigned char* end = data + size;
  for (std::size_t i = 0; i < count; ++i) {
    std::uint64_t v = 0;
    if (!ReadVarint(&p, end, &v)) {
      return Status::CorruptInput("truncated attrs section");
    }
    if (v >= num_attrs) {
      return Status::CorruptInput("attr id out of domain");
    }
    out->push_back(static_cast<AttrId>(v));
  }
  if (p != end) {
    return Status::CorruptInput("trailing bytes in attrs section");
  }
  return Status::OK();
}

/// Splits one direction's neighbor array into blocks of `block_edges`
/// entries, delta-maps each (absolute value at a block start or a list
/// start, gap-minus-one otherwise — lists are strictly increasing) and
/// appends the per-block encodings to `blocks` / their descriptors to
/// `index`. Offsets in the emitted entries are relative to the start of
/// the whole blocks region, so calling this for upper then lower onto
/// the same string yields the final region verbatim.
Status EncodeNeighborBlocks(std::span<const EdgeIndex> offsets,
                            std::span<const VertexId> neighbors,
                            std::uint32_t block_edges,
                            std::vector<BlockIndexEntry>* index,
                            std::string* blocks) {
  const std::size_t num_edges = neighbors.size();
  std::vector<std::uint64_t> mapped;
  mapped.reserve(std::min<std::size_t>(block_edges, num_edges));
  std::size_t vp = 0;  // current vertex: offsets[vp] <= e < offsets[vp+1].
  for (std::size_t start = 0; start < num_edges; start += block_edges) {
    const std::size_t count =
        std::min<std::size_t>(block_edges, num_edges - start);
    mapped.clear();
    for (std::size_t e = start; e < start + count; ++e) {
      while (vp + 1 < offsets.size() && offsets[vp + 1] <= e) ++vp;
      const bool restart = e == start || offsets[vp] == e;
      mapped.push_back(restart
                           ? std::uint64_t{neighbors[e]}
                           : std::uint64_t{neighbors[e]} - neighbors[e - 1] - 1);
    }
    BlockIndexEntry entry;
    BlockCodec codec = BlockCodec::kVarint;
    std::uint16_t rice_k = 0;
    const std::string bytes = EncodeBlock(mapped, &codec, &rice_k);
    if (bytes.size() > 0xFFFFFFFFull) {
      return Status::InvalidArgument(
          "snapshot block_edges too large: one encoded block exceeds 4 GiB");
    }
    entry.offset = blocks->size();
    entry.bytes = static_cast<std::uint32_t>(bytes.size());
    entry.checksum = Fold32(Fnv1a64(bytes.data(), bytes.size()));
    entry.codec = static_cast<std::uint16_t>(codec);
    entry.rice_k = rice_k;
    index->push_back(entry);
    blocks->append(bytes);
  }
  return Status::OK();
}

Status WriteSnapshotV3(const BipartiteGraph& g, const std::string& path,
                       std::uint32_t block_edges) {
  if (block_edges == 0) {
    return Status::InvalidArgument("snapshot block_edges must be >= 1");
  }
  const SnapshotCounts counts = CountsOf(g);
  const std::uint64_t checksum = ChecksumOf(counts, g);

  const std::string upper_offsets_c =
      EncodeOffsetsSection(g.Offsets(Side::kUpper));
  const std::string lower_offsets_c =
      EncodeOffsetsSection(g.Offsets(Side::kLower));
  const std::string upper_attrs_c = EncodeAttrsSection(g.AttrArray(Side::kUpper));
  const std::string lower_attrs_c = EncodeAttrsSection(g.AttrArray(Side::kLower));

  std::vector<BlockIndexEntry> index;
  std::string blocks;
  FAIRBC_RETURN_IF_ERROR(EncodeNeighborBlocks(g.Offsets(Side::kUpper),
                                              g.NeighborArray(Side::kUpper),
                                              block_edges, &index, &blocks));
  const std::size_t num_upper_blocks = index.size();
  FAIRBC_RETURN_IF_ERROR(EncodeNeighborBlocks(g.Offsets(Side::kLower),
                                              g.NeighborArray(Side::kLower),
                                              block_edges, &index, &blocks));
  const std::size_t num_lower_blocks = index.size() - num_upper_blocks;
  if (num_upper_blocks > 0xFFFFFFFFull || num_lower_blocks > 0xFFFFFFFFull) {
    return Status::InvalidArgument(
        "snapshot block_edges too small for this edge count");
  }

  V3Header header;
  header.block_edges = block_edges;
  header.num_upper_blocks = static_cast<std::uint32_t>(num_upper_blocks);
  header.num_lower_blocks = static_cast<std::uint32_t>(num_lower_blocks);
  header.upper_offsets_bytes = upper_offsets_c.size();
  header.lower_offsets_bytes = lower_offsets_c.size();
  header.upper_attrs_bytes = upper_attrs_c.size();
  header.lower_attrs_bytes = lower_attrs_c.size();
  header.blocks_bytes = blocks.size();

  std::uint64_t state = Fnv1a64(&counts, sizeof(counts));
  const auto* header_bytes = reinterpret_cast<const unsigned char*>(&header);
  state = Fnv1a64(header_bytes + sizeof(header.index_checksum),
                  sizeof(header) - sizeof(header.index_checksum), state);
  state = Fnv1a64(index.data(), index.size() * sizeof(BlockIndexEntry), state);
  state = Fnv1a64(upper_offsets_c.data(), upper_offsets_c.size(), state);
  state = Fnv1a64(lower_offsets_c.data(), lower_offsets_c.size(), state);
  state = Fnv1a64(upper_attrs_c.data(), upper_attrs_c.size(), state);
  state = Fnv1a64(lower_attrs_c.data(), lower_attrs_c.size(), state);
  header.index_checksum = state;

  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    return Status::NotFound("cannot open for writing: " + path);
  }
  out.write(kSnapshotMagic, sizeof(kSnapshotMagic));
  const std::uint32_t version = kSnapshotVersionCompressed;
  const std::uint32_t reserved = 0;
  out.write(reinterpret_cast<const char*>(&version), sizeof(version));
  out.write(reinterpret_cast<const char*>(&reserved), sizeof(reserved));
  out.write(reinterpret_cast<const char*>(&checksum), sizeof(checksum));
  out.write(reinterpret_cast<const char*>(&counts), sizeof(counts));
  out.write(reinterpret_cast<const char*>(&header), sizeof(header));
  out.write(reinterpret_cast<const char*>(index.data()),
            static_cast<std::streamsize>(index.size() *
                                         sizeof(BlockIndexEntry)));
  out.write(upper_offsets_c.data(),
            static_cast<std::streamsize>(upper_offsets_c.size()));
  out.write(lower_offsets_c.data(),
            static_cast<std::streamsize>(lower_offsets_c.size()));
  out.write(upper_attrs_c.data(),
            static_cast<std::streamsize>(upper_attrs_c.size()));
  out.write(lower_attrs_c.data(),
            static_cast<std::streamsize>(lower_attrs_c.size()));
  out.write(blocks.data(), static_cast<std::streamsize>(blocks.size()));
  out.flush();
  if (!out) {
    return Status::Internal("short write to " + path);
  }
  return Status::OK();
}

}  // namespace

std::uint64_t Fnv1a64(const void* data, std::size_t size, std::uint64_t state) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    state ^= bytes[i];
    state *= kFnvPrime;
  }
  return state;
}

std::uint64_t GraphFingerprint(const BipartiteGraph& g) {
  const SnapshotCounts counts = CountsOf(g);
  return ChecksumOf(counts, g);
}

Status WriteSnapshot(const BipartiteGraph& g, const std::string& path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    return Status::NotFound("cannot open for writing: " + path);
  }
  const SnapshotCounts counts = CountsOf(g);
  const std::uint64_t checksum = ChecksumOf(counts, g);

  out.write(kSnapshotMagic, sizeof(kSnapshotMagic));
  const std::uint32_t version = kSnapshotVersion;
  const std::uint32_t reserved = 0;
  out.write(reinterpret_cast<const char*>(&version), sizeof(version));
  out.write(reinterpret_cast<const char*>(&reserved), sizeof(reserved));
  out.write(reinterpret_cast<const char*>(&checksum), sizeof(checksum));
  out.write(reinterpret_cast<const char*>(&counts), sizeof(counts));
  WriteArray(out, g.Offsets(Side::kUpper));
  WriteArray(out, g.NeighborArray(Side::kUpper));
  WriteArray(out, g.Offsets(Side::kLower));
  WriteArray(out, g.NeighborArray(Side::kLower));
  WriteArray(out, g.AttrArray(Side::kUpper));
  WriteArray(out, g.AttrArray(Side::kLower));
  out.flush();
  if (!out) {
    return Status::Internal("short write to " + path);
  }
  return Status::OK();
}

Status WriteSnapshot(const BipartiteGraph& g, const std::string& path,
                     const SnapshotWriteOptions& options) {
  if (options.version == kSnapshotVersion) {
    return WriteSnapshot(g, path);
  }
  if (options.version == kSnapshotVersionCompressed) {
    return WriteSnapshotV3(g, path, options.block_edges);
  }
  return Status::InvalidArgument("unsupported snapshot write version " +
                                 std::to_string(options.version));
}

Result<BipartiteGraph> ReadSnapshot(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::NotFound("cannot open: " + path);
  }

  char magic[sizeof(kSnapshotMagic)];
  in.read(magic, sizeof(magic));
  if (in.gcount() != sizeof(magic) ||
      std::memcmp(magic, kSnapshotMagic, sizeof(magic)) != 0) {
    return Status::CorruptInput("not a fairbc snapshot: " + path);
  }
  std::uint32_t version = 0;
  std::uint32_t reserved = 0;
  std::uint64_t checksum = 0;
  SnapshotCounts counts;
  if (!ReadPod(in, &version) || !ReadPod(in, &reserved) ||
      !ReadPod(in, &checksum) || !ReadPod(in, &counts)) {
    return Status::CorruptInput("truncated snapshot header: " + path);
  }
  if (version == kSnapshotVersionCompressed) {
    in.close();
    Result<SnapshotReader> reader = SnapshotReader::Open(path);
    if (!reader.ok()) return reader.status();
    return reader.value().DecodeGraph();
  }
  if (version != 1 && version != kSnapshotVersion) {
    return Status::CorruptInput("unsupported snapshot version " +
                                std::to_string(version) + ": " + path);
  }

  // Bound the payload by the actual file size *before* sizing any
  // vector from the (as yet unauthenticated) count fields: a corrupt
  // num_edges must come back as a Status, not a length_error/OOM. The
  // exact-size check also rejects trailing garbage.
  const std::streampos payload_start = in.tellg();
  in.seekg(0, std::ios::end);
  const auto file_size = static_cast<std::uint64_t>(in.tellg());
  in.seekg(payload_start);
  if (ExpectedPayloadBytes(counts, version) !=
      file_size - static_cast<std::uint64_t>(payload_start)) {
    return Status::CorruptInput(
        "snapshot payload size does not match its header counts: " + path);
  }

  const bool padded = version >= 2;
  std::vector<EdgeIndex> upper_offsets;
  std::vector<VertexId> upper_neighbors;
  std::vector<EdgeIndex> lower_offsets;
  std::vector<VertexId> lower_neighbors;
  std::vector<AttrId> upper_attrs;
  std::vector<AttrId> lower_attrs;
  if (!ReadArray(in, counts.num_upper + std::size_t{1}, padded,
                 &upper_offsets) ||
      !ReadArray(in, counts.num_edges, padded, &upper_neighbors) ||
      !ReadArray(in, counts.num_lower + std::size_t{1}, padded,
                 &lower_offsets) ||
      !ReadArray(in, counts.num_edges, padded, &lower_neighbors) ||
      !ReadArray(in, counts.num_upper, padded, &upper_attrs) ||
      !ReadArray(in, counts.num_lower, padded, &lower_attrs)) {
    return Status::CorruptInput("truncated snapshot payload: " + path);
  }
  std::uint64_t state = Fnv1a64(&counts, sizeof(counts));
  state = FoldSpan(state, std::span<const EdgeIndex>(upper_offsets));
  state = FoldSpan(state, std::span<const VertexId>(upper_neighbors));
  state = FoldSpan(state, std::span<const EdgeIndex>(lower_offsets));
  state = FoldSpan(state, std::span<const VertexId>(lower_neighbors));
  state = FoldSpan(state, std::span<const AttrId>(upper_attrs));
  state = FoldSpan(state, std::span<const AttrId>(lower_attrs));
  if (state != checksum) {
    return Status::CorruptInput("snapshot checksum mismatch: " + path);
  }

  BipartiteGraph g(std::move(upper_offsets), std::move(upper_neighbors),
                   std::move(lower_offsets), std::move(lower_neighbors),
                   std::move(upper_attrs), std::move(lower_attrs),
                   static_cast<AttrId>(counts.num_upper_attrs),
                   static_cast<AttrId>(counts.num_lower_attrs));
  Status valid = g.Validate();
  if (!valid.ok()) {
    return Status::CorruptInput("snapshot fails graph validation (" +
                                valid.message() + "): " + path);
  }
  return g;
}

Result<BipartiteGraph> ReadSnapshotView(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    return Status::NotFound("cannot open: " + path);
  }
  struct stat st{};
  if (::fstat(fd, &st) != 0 || st.st_size < 0) {
    ::close(fd);
    return Status::CorruptInput("cannot stat: " + path);
  }
  const auto file_size = static_cast<std::uint64_t>(st.st_size);
  constexpr std::uint64_t kHeaderBytes =
      sizeof(kSnapshotMagic) + 2 * sizeof(std::uint32_t) +
      sizeof(std::uint64_t) + sizeof(SnapshotCounts);
  static_assert(kHeaderBytes == 48 && kHeaderBytes % kSectionAlign == 0);
  if (file_size < kHeaderBytes) {
    return (::close(fd),
            Status::CorruptInput("truncated snapshot header: " + path));
  }
  void* mapped = ::mmap(nullptr, file_size, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);  // the mapping keeps its own reference.
  if (mapped == MAP_FAILED) {
    return Status::Internal("mmap failed: " + path);
  }
  std::shared_ptr<const void> backing(
      mapped, [file_size](const void* p) {
        ::munmap(const_cast<void*>(p), file_size);
      });
  const auto* base = static_cast<const unsigned char*>(mapped);

  if (std::memcmp(base, kSnapshotMagic, sizeof(kSnapshotMagic)) != 0) {
    return Status::CorruptInput("not a fairbc snapshot: " + path);
  }
  std::uint32_t version = 0;
  std::uint64_t checksum = 0;
  SnapshotCounts counts;
  std::memcpy(&version, base + 8, sizeof(version));
  std::memcpy(&checksum, base + 16, sizeof(checksum));
  std::memcpy(&counts, base + 24, sizeof(counts));
  if (version == 1 || version == kSnapshotVersionCompressed) {
    // Version 1 has no alignment padding, so its u64 sections may start
    // misaligned in the mapping; version 3 sections are compressed and
    // cannot be viewed in place at all. Both fall back to the copying
    // (for v3: eager-decoding) loader — same bytes, IsView() false.
    backing.reset();
    return ReadSnapshot(path);
  }
  if (version != kSnapshotVersion) {
    return Status::CorruptInput("unsupported snapshot version " +
                                std::to_string(version) + ": " + path);
  }
  if (ExpectedPayloadBytes(counts, version) != file_size - kHeaderBytes) {
    return Status::CorruptInput(
        "snapshot payload size does not match its header counts: " + path);
  }

  // Slice the six sections out of the mapping; every section start is
  // 8-byte aligned by the v2 padding (and mmap bases are page-aligned).
  // Padding bytes must be zero — the checksum excludes them.
  std::uint64_t pos = kHeaderBytes;
  bool padding_clean = true;
  auto take = [&](std::uint64_t count, auto* span_out) {
    using T = typename std::remove_reference_t<decltype(*span_out)>::value_type;
    const std::uint64_t bytes = count * sizeof(T);
    *span_out = std::span<const T>(reinterpret_cast<const T*>(base + pos),
                                   static_cast<std::size_t>(count));
    pos += bytes;
    for (std::uint64_t i = 0; i < PadTo8(bytes); ++i) {
      padding_clean = padding_clean && base[pos + i] == 0;
    }
    pos += PadTo8(bytes);
  };
  std::span<const EdgeIndex> upper_offsets, lower_offsets;
  std::span<const VertexId> upper_neighbors, lower_neighbors;
  std::span<const AttrId> upper_attrs, lower_attrs;
  take(counts.num_upper + std::uint64_t{1}, &upper_offsets);
  take(counts.num_edges, &upper_neighbors);
  take(counts.num_lower + std::uint64_t{1}, &lower_offsets);
  take(counts.num_edges, &lower_neighbors);
  take(counts.num_upper, &upper_attrs);
  take(counts.num_lower, &lower_attrs);
  if (!padding_clean) {
    return Status::CorruptInput("snapshot padding bytes corrupted: " + path);
  }

  std::uint64_t state = Fnv1a64(&counts, sizeof(counts));
  state = FoldSpan(state, upper_offsets);
  state = FoldSpan(state, upper_neighbors);
  state = FoldSpan(state, lower_offsets);
  state = FoldSpan(state, lower_neighbors);
  state = FoldSpan(state, upper_attrs);
  state = FoldSpan(state, lower_attrs);
  if (state != checksum) {
    return Status::CorruptInput("snapshot checksum mismatch: " + path);
  }

  BipartiteGraph g = BipartiteGraph::MakeView(
      upper_offsets, upper_neighbors, lower_offsets, lower_neighbors,
      upper_attrs, lower_attrs, static_cast<AttrId>(counts.num_upper_attrs),
      static_cast<AttrId>(counts.num_lower_attrs), std::move(backing));
  Status valid = g.Validate();
  if (!valid.ok()) {
    return Status::CorruptInput("snapshot fails graph validation (" +
                                valid.message() + "): " + path);
  }
  return g;
}

struct SnapshotReader::Impl {
  std::shared_ptr<const void> backing;
  const unsigned char* base = nullptr;
  std::uint64_t file_size = 0;
  std::string path;
  SnapshotCounts counts;
  std::uint64_t checksum = 0;
  V3Header header;
  std::vector<BlockIndexEntry> index;  ///< upper blocks, then lower blocks.
  std::uint64_t blocks_region = 0;     ///< file offset of the blocks region.
  std::vector<EdgeIndex> upper_offsets;
  std::vector<EdgeIndex> lower_offsets;
  std::vector<AttrId> upper_attrs;
  std::vector<AttrId> lower_attrs;
};

Result<SnapshotReader> SnapshotReader::Open(const std::string& path) {
  auto impl = std::make_shared<Impl>();
  impl->path = path;

  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    return Status::NotFound("cannot open: " + path);
  }
  struct stat st{};
  if (::fstat(fd, &st) != 0 || st.st_size < 0) {
    ::close(fd);
    return Status::CorruptInput("cannot stat: " + path);
  }
  impl->file_size = static_cast<std::uint64_t>(st.st_size);
  if (impl->file_size < kCommonHeaderBytes + sizeof(V3Header)) {
    ::close(fd);
    return Status::CorruptInput("truncated snapshot header: " + path);
  }
  void* mapped =
      ::mmap(nullptr, impl->file_size, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);
  if (mapped == MAP_FAILED) {
    return Status::Internal("mmap failed: " + path);
  }
  const std::uint64_t file_size = impl->file_size;
  impl->backing = std::shared_ptr<const void>(
      mapped, [file_size](const void* p) {
        ::munmap(const_cast<void*>(p), file_size);
      });
  const auto* base = static_cast<const unsigned char*>(mapped);
  impl->base = base;

  if (std::memcmp(base, kSnapshotMagic, sizeof(kSnapshotMagic)) != 0) {
    return Status::CorruptInput("not a fairbc snapshot: " + path);
  }
  std::uint32_t version = 0;
  std::memcpy(&version, base + 8, sizeof(version));
  if (version != kSnapshotVersionCompressed) {
    return Status::CorruptInput("not a compressed (v3) snapshot, version " +
                                std::to_string(version) + ": " + path);
  }
  std::memcpy(&impl->checksum, base + 16, sizeof(impl->checksum));
  std::memcpy(&impl->counts, base + 24, sizeof(impl->counts));
  std::memcpy(&impl->header, base + kCommonHeaderBytes, sizeof(V3Header));
  const SnapshotCounts& counts = impl->counts;
  const V3Header& header = impl->header;

  if (header.block_edges == 0) {
    return Status::CorruptInput("snapshot block_edges is zero: " + path);
  }
  const std::uint64_t expect_blocks =
      counts.num_edges == 0
          ? 0
          : (counts.num_edges - 1) / header.block_edges + 1;
  if (header.num_upper_blocks != expect_blocks ||
      header.num_lower_blocks != expect_blocks) {
    return Status::CorruptInput(
        "snapshot block count does not match its edge count: " + path);
  }
  const std::uint64_t num_blocks = 2 * expect_blocks;
  const unsigned __int128 index_bytes =
      static_cast<unsigned __int128>(num_blocks) * sizeof(BlockIndexEntry);
  // Exact-size check before trusting any of the section lengths: a
  // corrupt header must come back as a Status, not a wild read.
  unsigned __int128 total = kCommonHeaderBytes + sizeof(V3Header);
  total += index_bytes;
  total += header.upper_offsets_bytes;
  total += header.lower_offsets_bytes;
  total += header.upper_attrs_bytes;
  total += header.lower_attrs_bytes;
  total += header.blocks_bytes;
  if (total != impl->file_size) {
    return Status::CorruptInput(
        "snapshot payload size does not match its header counts: " + path);
  }

  // Metadata checksum — verified before any count-derived allocation, so
  // a flipped num_upper/num_edges cannot cause OOM. The block index and
  // the four eager sections are contiguous in the file, hence one pass.
  const std::uint64_t index_off = kCommonHeaderBytes + sizeof(V3Header);
  const std::uint64_t eager_bytes =
      header.upper_offsets_bytes + header.lower_offsets_bytes +
      header.upper_attrs_bytes + header.lower_attrs_bytes;
  std::uint64_t state = Fnv1a64(base + 24, sizeof(SnapshotCounts));
  state = Fnv1a64(base + kCommonHeaderBytes + sizeof(header.index_checksum),
                  sizeof(V3Header) - sizeof(header.index_checksum), state);
  state = Fnv1a64(base + index_off,
                  static_cast<std::size_t>(index_bytes) + eager_bytes, state);
  if (state != header.index_checksum) {
    return Status::CorruptInput("snapshot index checksum mismatch: " + path);
  }

  impl->index.resize(num_blocks);
  if (num_blocks != 0) {
    std::memcpy(impl->index.data(), base + index_off,
                static_cast<std::size_t>(index_bytes));
  }
  // Entries must tile the blocks region exactly in order — this is what
  // makes `base + blocks_region + entry.offset .. + entry.bytes` safe to
  // read for every entry without per-access bounds math.
  std::uint64_t running = 0;
  for (const BlockIndexEntry& entry : impl->index) {
    if (entry.offset != running ||
        entry.bytes > header.blocks_bytes - running ||
        entry.codec > static_cast<std::uint16_t>(BlockCodec::kRice) ||
        entry.rice_k > 63 || entry.reserved != 0) {
      return Status::CorruptInput("snapshot block index invalid: " + path);
    }
    running += entry.bytes;
  }
  if (running != header.blocks_bytes) {
    return Status::CorruptInput("snapshot block index invalid: " + path);
  }
  impl->blocks_region = index_off + static_cast<std::uint64_t>(index_bytes) +
                        eager_bytes;

  // Eagerly decode the O(vertices) sections; neighbor blocks stay cold.
  std::uint64_t pos = index_off + static_cast<std::uint64_t>(index_bytes);
  auto decode_section = [&](std::uint64_t bytes, auto&& fn) -> Status {
    Status s = fn(base + pos, static_cast<std::size_t>(bytes));
    pos += bytes;
    return s;
  };
  auto wrap = [&path](Status s) {
    return s.ok() ? s : Status::CorruptInput(s.message() + ": " + path);
  };
  Status s = wrap(decode_section(
      header.upper_offsets_bytes, [&](const unsigned char* d, std::size_t n) {
        return DecodeOffsetsSection(d, n, counts.num_upper + std::size_t{1},
                                    counts.num_edges, &impl->upper_offsets);
      }));
  if (!s.ok()) return s;
  s = wrap(decode_section(
      header.lower_offsets_bytes, [&](const unsigned char* d, std::size_t n) {
        return DecodeOffsetsSection(d, n, counts.num_lower + std::size_t{1},
                                    counts.num_edges, &impl->lower_offsets);
      }));
  if (!s.ok()) return s;
  s = wrap(decode_section(
      header.upper_attrs_bytes, [&](const unsigned char* d, std::size_t n) {
        return DecodeAttrsSection(d, n, counts.num_upper,
                                  counts.num_upper_attrs, &impl->upper_attrs);
      }));
  if (!s.ok()) return s;
  s = wrap(decode_section(
      header.lower_attrs_bytes, [&](const unsigned char* d, std::size_t n) {
        return DecodeAttrsSection(d, n, counts.num_lower,
                                  counts.num_lower_attrs, &impl->lower_attrs);
      }));
  if (!s.ok()) return s;

  SnapshotReader reader;
  reader.impl_ = std::move(impl);
  return reader;
}

std::uint32_t SnapshotReader::NumUpper() const { return impl_->counts.num_upper; }
std::uint32_t SnapshotReader::NumLower() const { return impl_->counts.num_lower; }
std::uint64_t SnapshotReader::NumEdges() const { return impl_->counts.num_edges; }
std::uint16_t SnapshotReader::NumAttrs(Side side) const {
  return side == Side::kUpper ? impl_->counts.num_upper_attrs
                              : impl_->counts.num_lower_attrs;
}
std::uint32_t SnapshotReader::BlockEdges() const {
  return impl_->header.block_edges;
}
std::uint64_t SnapshotReader::NumBlocks() const {
  return impl_->header.num_upper_blocks;
}
std::uint64_t SnapshotReader::Checksum() const { return impl_->checksum; }
std::uint64_t SnapshotReader::FileBytes() const { return impl_->file_size; }

const std::vector<EdgeIndex>& SnapshotReader::Offsets(Side side) const {
  return side == Side::kUpper ? impl_->upper_offsets : impl_->lower_offsets;
}
const std::vector<AttrId>& SnapshotReader::Attrs(Side side) const {
  return side == Side::kUpper ? impl_->upper_attrs : impl_->lower_attrs;
}

Status SnapshotReader::DecodeEdgeRange(Side side, std::uint64_t first,
                                       std::uint64_t count,
                                       std::vector<VertexId>* out) const {
  FAIRBC_CHECK(impl_ != nullptr);
  const Impl& im = *impl_;
  const std::uint64_t num_edges = im.counts.num_edges;
  if (first > num_edges || count > num_edges - first) {
    return Status::InvalidArgument("snapshot edge range out of bounds");
  }
  out->clear();
  out->resize(static_cast<std::size_t>(count));
  if (count == 0) return Status::OK();

  const std::vector<EdgeIndex>& offsets =
      side == Side::kUpper ? im.upper_offsets : im.lower_offsets;
  const std::uint64_t block = im.header.block_edges;
  const std::uint64_t side_base =
      side == Side::kUpper ? 0 : im.header.num_upper_blocks;
  // Decoded ids index the *opposite* side.
  const std::uint64_t opposite =
      side == Side::kUpper ? im.counts.num_lower : im.counts.num_upper;

  const std::uint64_t b0 = first / block;
  const std::uint64_t b1 = (first + count - 1) / block;
  std::vector<std::uint64_t> vals(
      static_cast<std::size_t>(std::min<std::uint64_t>(block, num_edges)));
  for (std::uint64_t b = b0; b <= b1; ++b) {
    const BlockIndexEntry& entry = im.index[static_cast<std::size_t>(
        side_base + b)];
    const std::uint64_t block_start = b * block;
    const std::size_t n = static_cast<std::size_t>(
        std::min<std::uint64_t>(block, num_edges - block_start));
    const unsigned char* data = im.base + im.blocks_region + entry.offset;
    if (Fold32(Fnv1a64(data, entry.bytes)) != entry.checksum) {
      return Status::CorruptInput("snapshot block checksum mismatch: " +
                                  im.path);
    }
    Status s = DecodeBlock(
        std::string_view(reinterpret_cast<const char*>(data), entry.bytes),
        static_cast<BlockCodec>(entry.codec), entry.rice_k, n, vals.data());
    if (!s.ok()) {
      return Status::CorruptInput(s.message() + ": " + im.path);
    }
    // Un-delta with the same vertex-pointer walk the encoder used: the
    // value is absolute at a block start or a list start, gap-minus-one
    // otherwise.
    std::size_t vp = static_cast<std::size_t>(
        std::upper_bound(offsets.begin(), offsets.end(), block_start) -
        offsets.begin() - 1);
    std::uint64_t prev = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t e = block_start + i;
      while (vp + 1 < offsets.size() && offsets[vp + 1] <= e) ++vp;
      const bool restart = i == 0 || offsets[vp] == e;
      // Bound the raw value first so prev + vals[i] + 1 cannot wrap.
      if (vals[i] >= opposite) {
        return Status::CorruptInput("snapshot neighbor id out of range: " +
                                    im.path);
      }
      const std::uint64_t value = restart ? vals[i] : prev + vals[i] + 1;
      if (value >= opposite) {
        return Status::CorruptInput("snapshot neighbor id out of range: " +
                                    im.path);
      }
      prev = value;
      // Only the requested slice lands in `out`: the last block can run
      // past `first + count`, and those tail entries must not be stored.
      if (e >= first && e - first < count) {
        (*out)[static_cast<std::size_t>(e - first)] =
            static_cast<VertexId>(value);
      }
    }
  }
  return Status::OK();
}

Status SnapshotReader::DecodeNeighbors(Side side, VertexId v,
                                       std::vector<VertexId>* out) const {
  FAIRBC_CHECK(impl_ != nullptr);
  const std::vector<EdgeIndex>& offsets = Offsets(side);
  if (static_cast<std::size_t>(v) + 1 >= offsets.size()) {
    return Status::InvalidArgument("snapshot vertex id out of bounds");
  }
  return DecodeEdgeRange(side, offsets[v], offsets[v + 1] - offsets[v], out);
}

Result<BipartiteGraph> SnapshotReader::DecodeGraph() const {
  FAIRBC_CHECK(impl_ != nullptr);
  const Impl& im = *impl_;
  std::vector<VertexId> upper_neighbors;
  std::vector<VertexId> lower_neighbors;
  Status s = DecodeEdgeRange(Side::kUpper, 0, im.counts.num_edges,
                             &upper_neighbors);
  if (!s.ok()) return s;
  s = DecodeEdgeRange(Side::kLower, 0, im.counts.num_edges, &lower_neighbors);
  if (!s.ok()) return s;

  BipartiteGraph g(im.upper_offsets, std::move(upper_neighbors),
                   im.lower_offsets, std::move(lower_neighbors),
                   im.upper_attrs, im.lower_attrs,
                   static_cast<AttrId>(im.counts.num_upper_attrs),
                   static_cast<AttrId>(im.counts.num_lower_attrs));
  // The per-block checksums already authenticated each section, but the
  // header fingerprint is the cross-format contract (it is what v2 files
  // carry and what GraphCatalog/ResultCache key on) — verify it too.
  if (GraphFingerprint(g) != im.checksum) {
    return Status::CorruptInput("snapshot checksum mismatch: " + im.path);
  }
  Status valid = g.Validate();
  if (!valid.ok()) {
    return Status::CorruptInput("snapshot fails graph validation (" +
                                valid.message() + "): " + im.path);
  }
  return g;
}

Result<SnapshotInfo> ProbeSnapshot(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::NotFound("cannot open: " + path);
  }
  char magic[sizeof(kSnapshotMagic)];
  in.read(magic, sizeof(magic));
  if (in.gcount() != sizeof(magic) ||
      std::memcmp(magic, kSnapshotMagic, sizeof(magic)) != 0) {
    return Status::CorruptInput("not a fairbc snapshot: " + path);
  }
  SnapshotInfo info;
  std::uint32_t reserved = 0;
  SnapshotCounts counts;
  if (!ReadPod(in, &info.version) || !ReadPod(in, &reserved) ||
      !ReadPod(in, &info.checksum) || !ReadPod(in, &counts)) {
    return Status::CorruptInput("truncated snapshot header: " + path);
  }
  info.num_upper = counts.num_upper;
  info.num_lower = counts.num_lower;
  info.num_edges = counts.num_edges;
  info.num_upper_attrs = counts.num_upper_attrs;
  info.num_lower_attrs = counts.num_lower_attrs;

  const std::streampos here = in.tellg();
  in.seekg(0, std::ios::end);
  info.file_bytes = static_cast<std::uint64_t>(in.tellg());
  in.seekg(here);

  const unsigned __int128 v2_payload = ExpectedPayloadBytes(counts, 2);
  if (v2_payload >
      ~std::uint64_t{0} - kCommonHeaderBytes) {  // corrupt counts.
    return Status::CorruptInput(
        "snapshot counts imply an impossible payload size: " + path);
  }
  info.uncompressed_bytes =
      kCommonHeaderBytes + static_cast<std::uint64_t>(v2_payload);

  if (info.version == 1 || info.version == kSnapshotVersion) {
    if (ExpectedPayloadBytes(counts, info.version) !=
        info.file_bytes - kCommonHeaderBytes) {
      return Status::CorruptInput(
          "snapshot payload size does not match its header counts: " + path);
    }
    return info;
  }
  if (info.version != kSnapshotVersionCompressed) {
    return Status::CorruptInput("unsupported snapshot version " +
                                std::to_string(info.version) + ": " + path);
  }
  V3Header header;
  if (!ReadPod(in, &header)) {
    return Status::CorruptInput("truncated snapshot header: " + path);
  }
  if (header.block_edges == 0) {
    return Status::CorruptInput("snapshot block_edges is zero: " + path);
  }
  const std::uint64_t expect_blocks =
      counts.num_edges == 0
          ? 0
          : (counts.num_edges - 1) / header.block_edges + 1;
  if (header.num_upper_blocks != expect_blocks ||
      header.num_lower_blocks != expect_blocks) {
    return Status::CorruptInput(
        "snapshot block count does not match its edge count: " + path);
  }
  unsigned __int128 total = kCommonHeaderBytes + sizeof(V3Header);
  total += static_cast<unsigned __int128>(2 * expect_blocks) *
           sizeof(BlockIndexEntry);
  total += header.upper_offsets_bytes;
  total += header.lower_offsets_bytes;
  total += header.upper_attrs_bytes;
  total += header.lower_attrs_bytes;
  total += header.blocks_bytes;
  if (total != info.file_bytes) {
    return Status::CorruptInput(
        "snapshot payload size does not match its header counts: " + path);
  }
  info.block_edges = header.block_edges;
  info.num_blocks = expect_blocks;
  return info;
}

}  // namespace fairbc
