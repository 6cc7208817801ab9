#ifndef FAIRBC_GRAPH_SNAPSHOT_H_
#define FAIRBC_GRAPH_SNAPSHOT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "graph/bipartite_graph.h"

namespace fairbc {

/// Versioned binary snapshot of an attributed bipartite graph. Loading a
/// snapshot is a handful of bulk reads straight into the CSR vectors — no
/// text parsing — which is what makes GraphCatalog preloading cheap. The
/// mmap loader (ReadSnapshotView) skips even those reads and maps the CSR
/// sections in place.
///
/// Layout (native-endian; the checksum catches cross-endian loads too,
/// since the payload bytes differ):
///
///   magic              8 bytes   "FBCSNAP1"
///   version            u32       kSnapshotVersion
///   reserved           u32       0
///   checksum           u64       FNV-1a over the count fields + payload
///   num_upper          u32
///   num_lower          u32
///   num_edges          u64
///   num_upper_attrs    u16
///   num_lower_attrs    u16
///   reserved           u32       0
///   upper_offsets      (num_upper + 1) x u64
///   upper_neighbors    num_edges x u32
///   lower_offsets      (num_lower + 1) x u64
///   lower_neighbors    num_edges x u32
///   upper_attrs        num_upper x u16
///   lower_attrs        num_lower x u16
///
/// Version 2 (current) zero-pads every array section to the next 8-byte
/// boundary so each section starts 8-byte aligned relative to the file —
/// the 48-byte header is itself 8-aligned, which is what lets an mmap'd
/// file be read through typed u64 spans without misaligned loads. The
/// padding bytes are *excluded* from the checksum, so a graph's
/// GraphFingerprint still equals its snapshot header checksum in both
/// versions. Version-1 files (unpadded) remain readable by both loaders;
/// ReadSnapshotView falls back to a copying load for them.
///
/// Version 3 (optional, written on request) compresses every array
/// section. After the same 48-byte common header — whose checksum field
/// still holds the *decoded-content* fingerprint, so
/// `GraphFingerprint(g) == header.checksum` across all three versions —
/// comes a 64-byte v3 header, a block index, four eagerly-decoded varint
/// sections (offsets as first-absolute + deltas, attrs as raw varints),
/// and a region of independently decodable neighbor blocks of
/// `block_edges` edges each (delta-coded with absolute restarts at block
/// and list starts, per block either LEB128 varint or Golomb–Rice —
/// whichever is smaller). The v3 header's `index_checksum` covers the
/// count block, the v3 header remainder, the block index and the four
/// eager sections, and is verified *before any allocation*, so corrupt
/// counts still cannot cause OOM; each neighbor block carries its own
/// folded-FNV checksum, verified on (lazy) decode. See
/// docs/SNAPSHOT_FORMAT.md for the byte-level spec.
///
/// ReadSnapshot validates magic, version, checksum, exact file length and
/// the full BipartiteGraph::Validate() invariants; every failure is a
/// Status (kCorruptInput / kNotFound), never a crash.

inline constexpr char kSnapshotMagic[8] = {'F', 'B', 'C', 'S', 'N', 'A', 'P', '1'};
inline constexpr std::uint32_t kSnapshotVersion = 2;
inline constexpr std::uint32_t kSnapshotVersionCompressed = 3;

/// Default v3 neighbor-block granularity: small enough that a point
/// lookup decodes a few KiB, large enough that the 24-byte index entry
/// is amortized to well under 1% of a typical block.
inline constexpr std::uint32_t kDefaultSnapshotBlockEdges = 4096;

/// FNV-1a (64-bit) parameters.
inline constexpr std::uint64_t kFnvOffsetBasis = 14695981039346656037ULL;
inline constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

/// Incremental FNV-1a (64-bit) over a byte range.
std::uint64_t Fnv1a64(const void* data, std::size_t size,
                      std::uint64_t state = kFnvOffsetBasis);

/// One FNV-1a step over a 32-bit word: its four bytes, least significant
/// first, so on a little-endian host it equals Fnv1a64 over the word's
/// bytes. Inline for per-result hot paths (service/query.h digests).
inline std::uint64_t Fnv1a64Word(std::uint64_t state, std::uint32_t word) {
  for (int shift = 0; shift < 32; shift += 8) {
    state ^= (word >> shift) & 0xffu;
    state *= kFnvPrime;
  }
  return state;
}

/// Content fingerprint of a graph: FNV-1a over the vertex/edge/attr-domain
/// counts followed by the six CSR arrays — exactly the bytes a snapshot's
/// checksum covers, so `GraphFingerprint(g) == header.checksum` for a
/// snapshot of `g`. GraphCatalog versions and ResultCache keys use this;
/// two graphs with equal fingerprints are treated as identical content.
std::uint64_t GraphFingerprint(const BipartiteGraph& g);

struct SnapshotWriteOptions {
  /// kSnapshotVersion (2, raw + mmap-aligned) or
  /// kSnapshotVersionCompressed (3). Version 1 is read-only legacy.
  std::uint32_t version = kSnapshotVersion;
  /// Edges per compressed neighbor block (v3 only). Must be >= 1.
  std::uint32_t block_edges = kDefaultSnapshotBlockEdges;
};

/// Writes `g` to `path` in the current default (v2) format. Overwrites
/// existing files.
Status WriteSnapshot(const BipartiteGraph& g, const std::string& path);

/// Writes `g` to `path` in the requested format version.
Status WriteSnapshot(const BipartiteGraph& g, const std::string& path,
                     const SnapshotWriteOptions& options);

/// Reads a snapshot written by WriteSnapshot. The returned graph is
/// byte-identical to the one written (same CSR arrays, same fingerprint).
Result<BipartiteGraph> ReadSnapshot(const std::string& path);

/// Maps `path` read-only and returns a BipartiteGraph *view* whose CSR
/// spans point straight into the mapped pages (BipartiteGraph::IsView()),
/// making the load allocation-free: the only O(n) work is the checksum
/// verification, which doubles as page warm-up. The mapping is owned by
/// the returned graph (and any copies) and unmapped with the last one.
/// Version-1 snapshots lack the alignment padding, so they fall back to
/// the copying ReadSnapshot — same bytes, IsView() false. All validation
/// (magic, version, checksum, exact length, graph invariants) matches
/// ReadSnapshot; the file must stay unmodified while mapped.
Result<BipartiteGraph> ReadSnapshotView(const std::string& path);

/// Cheap header-only inspection of a snapshot file: version, counts,
/// content fingerprint and (v3) compression geometry, without decoding
/// any payload. Sizes are cross-checked against the actual file length;
/// checksums are *not* verified (that happens on load).
struct SnapshotInfo {
  std::uint32_t version = 0;
  std::uint64_t file_bytes = 0;
  std::uint64_t checksum = 0;  ///< content fingerprint (GraphFingerprint).
  std::uint32_t num_upper = 0;
  std::uint32_t num_lower = 0;
  std::uint64_t num_edges = 0;
  std::uint16_t num_upper_attrs = 0;
  std::uint16_t num_lower_attrs = 0;
  /// Size the same graph takes as a v2 snapshot (header + raw aligned
  /// sections) — the denominator-free way to report compression ratio.
  std::uint64_t uncompressed_bytes = 0;
  /// v3 only; zero for v1/v2.
  std::uint32_t block_edges = 0;
  std::uint64_t num_blocks = 0;  ///< per direction.
};

Result<SnapshotInfo> ProbeSnapshot(const std::string& path);

/// Lazy reader for v3 (compressed) snapshots. Open() mmaps the file,
/// verifies the metadata checksum (count block + v3 header + block index
/// + offsets/attrs sections) and eagerly decodes the O(vertices)
/// offsets/attrs — but touches *no* neighbor blocks. Neighbor data is
/// then decoded per request, one block (`block_edges` edges) at a time,
/// with the block's own checksum verified first — this is the hot-graph
/// path that serves point lookups from a compressed file without paying
/// a full decompression. DecodeGraph() is the cold-load path: it decodes
/// everything, re-verifies the content fingerprint against the header
/// checksum and runs BipartiteGraph::Validate().
///
/// Readers are cheap to copy (shared immutable state); a
/// default-constructed reader is only a placeholder and must not be
/// used. All methods are const and thread-safe on an opened reader.
class SnapshotReader {
 public:
  SnapshotReader() = default;

  static Result<SnapshotReader> Open(const std::string& path);

  std::uint32_t NumUpper() const;
  std::uint32_t NumLower() const;
  std::uint64_t NumEdges() const;
  std::uint16_t NumAttrs(Side side) const;
  std::uint32_t BlockEdges() const;
  std::uint64_t NumBlocks() const;  ///< per direction.
  std::uint64_t Checksum() const;   ///< content fingerprint from header.
  std::uint64_t FileBytes() const;

  /// Eagerly decoded CSR offsets / attribute arrays for `side`.
  const std::vector<EdgeIndex>& Offsets(Side side) const;
  const std::vector<AttrId>& Attrs(Side side) const;

  /// Decodes neighbor-array entries [first, first + count) of `side`
  /// into `out` (resized to `count`). Touches only the blocks covering
  /// the range; InvalidArgument on an out-of-bounds range, CorruptInput
  /// on a bad block (checksum, truncation, trailing data, id overflow).
  Status DecodeEdgeRange(Side side, std::uint64_t first, std::uint64_t count,
                         std::vector<VertexId>* out) const;

  /// Decodes the adjacency list of vertex `v` on `side`.
  Status DecodeNeighbors(Side side, VertexId v,
                         std::vector<VertexId>* out) const;

  /// Full eager decode: owned BipartiteGraph, fingerprint-verified
  /// against the header checksum and Validate()d — the same guarantees
  /// ReadSnapshot gives for v1/v2 files.
  Result<BipartiteGraph> DecodeGraph() const;

 private:
  struct Impl;
  std::shared_ptr<const Impl> impl_;
};

}  // namespace fairbc

#endif  // FAIRBC_GRAPH_SNAPSHOT_H_
