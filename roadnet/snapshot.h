// Binary graph snapshot persistence: serialize a frozen RoadNetwork plus
// its hub-label arena into one
// versioned, checksummed container, and load it back — by reading into a
// heap buffer or by zero-copy mmap — without rebuilding anything.
//
// Container layout (little-endian, the only byte order we target):
//
//   [ 64-byte header ]
//   [ num_sections x 24-byte section entries ]
//   [ zero padding to the next 4096-byte boundary ]
//   [ section 0 bytes ][ padding ][ section 1 bytes ][ padding ] ...
//
// Header: magic "SRSNAP1\0", u32 version (2 is written; 1 still loads),
// u32 num_sections, a u64 checksum over every byte after the header, u64
// file size, the u64 shape counts (num_nodes, num_edges, hl_total_entries)
// that the section sizes are validated against, and a reserved u64 written
// as 0. The checksum is FNV-1a64's step folded over little-endian u64 words
// in version 2 (a tail under 8 bytes folds byte by byte) and byte-wise
// FNV-1a64 in version 1. The word fold takes an eighth of the steps; the
// byte-wise fold was most of a heap load's time.
//
// Sections are raw arrays in the exact in-memory layout the query paths
// read (struct padding zeroed at write time so files are byte-reproducible)
// and are page-aligned so an mmap-ed load hands out naturally aligned
// views with no copy. Known section ids:
//
//   1 positions      Point[num_nodes]
//   2 csr_offsets    u32[num_nodes + 1]
//   3 csr_arcs       RoadNetwork::Arc[2 * num_edges]
//   4 hl_offsets     u32[num_nodes]                     (optional)
//   5 hl_ranks       i32[hl_total_entries + num_nodes]  (optional)
//   6 hl_dists       f64[hl_total_entries + num_nodes]  (optional)
//
// Ids 7-9 held a contraction-hierarchy index that is no longer built. Like
// any unknown id they are bounds-checked and then skipped, so older files
// that carry them still load (graph and hub labels only).
//
// The loader trusts nothing: magic/version/size/checksum first, then every
// section offset and size (overflow-safe), then the structural invariants
// the borrow-based classes assume — CSR offsets monotone with in-range
// targets, label runs sentinel-terminated with every rank in [0, n) (the
// pinned-source scratch is indexed by rank, so this is a memory-safety
// boundary, not a style check). Every failure is an error-string return,
// never a crash, never an out-of-bounds read.

#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

#include "roadnet/hub_labeling.h"
#include "roadnet/road_network.h"

namespace structride {

/// A loaded (or built) graph together with its optional hub-label index.
/// Snapshot loads borrow every buffer from the backing GraphSource; built
/// bundles own theirs.
struct GraphBundle {
  RoadNetwork network;
  std::unique_ptr<HubLabeling> hub_labels;  ///< may be null
};

/// The bytes backing a loaded snapshot: either a heap buffer the file was
/// read into, or a read-only private mmap of it. Borrowing classes keep it
/// alive through a type-erased shared_ptr.
class GraphSource {
 public:
  ~GraphSource();
  GraphSource(const GraphSource&) = delete;
  GraphSource& operator=(const GraphSource&) = delete;

  /// Reads the whole file into a heap buffer.
  static std::shared_ptr<GraphSource> ReadFile(const std::string& path,
                                               std::string* error);
  /// Maps the file read-only (MAP_PRIVATE); zero-copy load path.
  static std::shared_ptr<GraphSource> MmapFile(const std::string& path,
                                               std::string* error);

  const uint8_t* data() const { return data_; }
  size_t size() const { return size_; }
  bool mmapped() const { return mmapped_; }

 private:
  GraphSource() = default;
  uint8_t* data_ = nullptr;
  size_t size_ = 0;
  bool mmapped_ = false;
};

struct SnapshotWriteOptions {
  /// Serialize the hub-label arena when non-null.
  const HubLabeling* hub_labels = nullptr;
};

struct SnapshotLoadOptions {
  /// Map the file instead of reading it (zero-copy; pages fault in lazily).
  bool use_mmap = false;
};

/// Serializes \p net (frozen first if needed) plus the optional index in
/// \p options into the container described above. Returns false with
/// \p error set on I/O failure.
bool WriteGraphSnapshot(const RoadNetwork& net,
                        const SnapshotWriteOptions& options,
                        const std::string& path, std::string* error);

/// Loads a snapshot, validating everything (see file comment). On success
/// \p out holds a frozen borrowed network plus the hub labels if the file
/// carries them; both keep the GraphSource alive. Returns false with a
/// descriptive \p error on any malformed input.
bool LoadGraphSnapshot(const std::string& path,
                       const SnapshotLoadOptions& options, GraphBundle* out,
                       std::string* error);

/// True when the file starts with the snapshot magic (cheap sniff; does not
/// validate anything else).
bool IsSnapshotFile(const std::string& path);

/// Test helper: recomputes and rewrites the header checksum of an existing
/// snapshot file, with the fold its header's version names. Lets the
/// adversarial tests corrupt section *contents* and still get past the
/// checksum gate to exercise structural validation.
bool RewriteSnapshotChecksum(const std::string& path, std::string* error);

}  // namespace structride
