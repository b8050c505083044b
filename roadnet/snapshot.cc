#include "roadnet/snapshot.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <vector>

namespace structride {

namespace {

constexpr char kMagic[8] = {'S', 'R', 'S', 'N', 'A', 'P', '1', '\0'};
constexpr uint32_t kVersion = 2;          ///< written; word-wise checksum
constexpr uint32_t kByteWiseVersion = 1;  ///< still loads; byte-wise checksum
constexpr size_t kHeaderBytes = 64;
constexpr size_t kSectionAlign = 4096;
constexpr uint32_t kMaxSections = 64;

// Section ids (see snapshot.h). Ids 7-9 held the retired CH index; the
// loader now skips them like any other unknown id.
enum SectionId : uint32_t {
  kPositions = 1,
  kCsrOffsets = 2,
  kCsrArcs = 3,
  kHlOffsets = 4,
  kHlRanks = 5,
  kHlDists = 6,
  kNumSectionIds = 7,  ///< one past the last known id
};

struct Header {
  char magic[8];
  uint32_t version;
  uint32_t num_sections;
  uint64_t checksum;   ///< over bytes [kHeaderBytes, file_size); see Checksum
  uint64_t file_size;
  uint64_t num_nodes;
  uint64_t num_edges;
  uint64_t hl_total_entries;
  uint64_t reserved;   ///< was the CH shortcut count; written as 0
};
static_assert(sizeof(Header) == kHeaderBytes, "header must be 64 bytes");

struct SectionEntry {
  uint32_t id;
  uint32_t reserved;
  uint64_t offset;  ///< absolute file offset, kSectionAlign-aligned
  uint64_t size;    ///< payload bytes (padding after it is not counted)
};
static_assert(sizeof(SectionEntry) == 24, "section entry must be 24 bytes");

// An arc serializes as 16 raw bytes with the 4 padding bytes zeroed by the
// writer, so files are byte-reproducible.
static_assert(sizeof(RoadNetwork::Arc) == 16, "arc layout changed");
static_assert(offsetof(RoadNetwork::Arc, to) == 0, "arc layout changed");
static_assert(offsetof(RoadNetwork::Arc, cost) == 8, "arc layout changed");
static_assert(sizeof(Point) == 16, "point layout changed");

constexpr uint64_t kFnvOffset = 14695981039346656037ULL;
constexpr uint64_t kFnvPrime = 1099511628211ULL;

// Version 1's checksum: FNV-1a64, one multiply per byte.
uint64_t Fnv1a(uint64_t state, const uint8_t* data, size_t size) {
  for (size_t i = 0; i < size; ++i) {
    state ^= data[i];
    state *= kFnvPrime;
  }
  return state;
}

// Version 2's checksum: the FNV-1a step applied to little-endian u64 words,
// one multiply per 8 bytes; a tail shorter than a word folds byte-wise.
// Each step is a bijection of the state, so any single changed word changes
// the result. Streams: bytes that do not yet fill a word wait in carry_.
class WordFold {
 public:
  void Update(const uint8_t* data, size_t size) {
    if (carried_ != 0) {
      const size_t take = std::min(sizeof(carry_) - carried_, size);
      std::memcpy(carry_ + carried_, data, take);
      carried_ += take;
      data += take;
      size -= take;
      if (carried_ < sizeof(carry_)) return;
      Word(carry_);
      carried_ = 0;
    }
    for (; size >= sizeof(uint64_t); data += sizeof(uint64_t),
                                     size -= sizeof(uint64_t)) {
      Word(data);
    }
    std::memcpy(carry_, data, size);
    carried_ = size;
  }

  uint64_t Finish() const { return Fnv1a(state_, carry_, carried_); }

 private:
  void Word(const uint8_t* p) {
    uint64_t w;
    std::memcpy(&w, p, sizeof(w));  // little-endian hosts only (see header)
    state_ ^= w;
    state_ *= kFnvPrime;
  }

  uint64_t state_ = kFnvOffset;
  uint8_t carry_[sizeof(uint64_t)] = {};
  size_t carried_ = 0;
};

// The checksum a file of \p version carries over its post-header bytes.
uint64_t Checksum(uint32_t version, const uint8_t* data, size_t size) {
  if (version == kByteWiseVersion) return Fnv1a(kFnvOffset, data, size);
  WordFold fold;
  fold.Update(data, size);
  return fold.Finish();
}

size_t AlignUp(size_t v, size_t a) { return (v + a - 1) / a * a; }

// ------------------------------------------------------------- writing ----

// Streams bytes to a FILE while folding everything after the header into
// the running checksum, so the writer never holds the whole file in memory.
struct ChecksummedWriter {
  FILE* f;
  WordFold checksum{};
  size_t written = 0;
  bool failed = false;

  void Write(const void* data, size_t size) {
    if (failed || size == 0) return;
    if (std::fwrite(data, 1, size, f) != size) {
      failed = true;
      return;
    }
    if (written + size > kHeaderBytes) {
      size_t skip = written < kHeaderBytes ? kHeaderBytes - written : 0;
      checksum.Update(static_cast<const uint8_t*>(data) + skip, size - skip);
    }
    written += size;
  }

  void PadTo(size_t offset) {
    static const uint8_t zeros[4096] = {0};
    while (!failed && written < offset) {
      size_t chunk = offset - written;
      if (chunk > sizeof(zeros)) chunk = sizeof(zeros);
      Write(zeros, chunk);
    }
  }
};

// Re-packs an arc array with the struct padding bytes zeroed.
std::vector<uint8_t> PackArcs(Span<const RoadNetwork::Arc> arcs) {
  constexpr size_t kArcBytes = sizeof(RoadNetwork::Arc);
  std::vector<uint8_t> bytes(arcs.size() * kArcBytes, 0);
  for (size_t i = 0; i < arcs.size(); ++i) {
    std::memcpy(bytes.data() + i * kArcBytes, &arcs[i].to,
                sizeof(arcs[i].to));
    std::memcpy(bytes.data() + i * kArcBytes + 8, &arcs[i].cost,
                sizeof(arcs[i].cost));
  }
  return bytes;
}

}  // namespace

// --------------------------------------------------------- GraphSource ----

GraphSource::~GraphSource() {
  if (data_ == nullptr) return;
  if (mmapped_) {
    ::munmap(data_, size_);
  } else {
    delete[] data_;
  }
}

std::shared_ptr<GraphSource> GraphSource::ReadFile(const std::string& path,
                                                   std::string* error) {
  FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    *error = "cannot open " + path;
    return nullptr;
  }
  std::fseek(f, 0, SEEK_END);
  long size = std::ftell(f);
  std::fseek(f, 0, SEEK_SET);
  if (size < 0) {
    std::fclose(f);
    *error = "cannot stat " + path;
    return nullptr;
  }
  auto src = std::shared_ptr<GraphSource>(new GraphSource());
  src->size_ = static_cast<size_t>(size);
  src->data_ = new uint8_t[src->size_ > 0 ? src->size_ : 1];
  size_t got = std::fread(src->data_, 1, src->size_, f);
  std::fclose(f);
  if (got != src->size_) {
    *error = "short read on " + path;
    return nullptr;
  }
  return src;
}

std::shared_ptr<GraphSource> GraphSource::MmapFile(const std::string& path,
                                                   std::string* error) {
  int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    *error = "cannot open " + path;
    return nullptr;
  }
  struct stat st;
  if (::fstat(fd, &st) != 0 || st.st_size < 0) {
    ::close(fd);
    *error = "cannot stat " + path;
    return nullptr;
  }
  auto src = std::shared_ptr<GraphSource>(new GraphSource());
  src->size_ = static_cast<size_t>(st.st_size);
  src->mmapped_ = true;
  if (src->size_ == 0) {
    src->data_ = nullptr;
    src->mmapped_ = false;
    ::close(fd);
    return src;
  }
  void* map = ::mmap(nullptr, src->size_, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);
  if (map == MAP_FAILED) {
    *error = "mmap failed on " + path;
    return nullptr;
  }
  src->data_ = static_cast<uint8_t*>(map);
  return src;
}

// -------------------------------------------------------------- writer ----

bool WriteGraphSnapshot(const RoadNetwork& net,
                        const SnapshotWriteOptions& options,
                        const std::string& path, std::string* error) {
  Span<const Point> positions = net.positions();
  Span<const uint32_t> csr_offsets = net.csr_offsets();  // freezes if needed
  Span<const RoadNetwork::Arc> csr_arcs = net.csr_arcs();

  struct PlannedSection {
    uint32_t id;
    const void* data;
    size_t size;
  };
  std::vector<PlannedSection> sections;
  std::vector<uint8_t> packed_csr_arcs = PackArcs(csr_arcs);
  sections.push_back({kPositions, positions.data(),
                      positions.size() * sizeof(Point)});
  sections.push_back({kCsrOffsets, csr_offsets.data(),
                      csr_offsets.size() * sizeof(uint32_t)});
  sections.push_back(
      {kCsrArcs, packed_csr_arcs.data(), packed_csr_arcs.size()});

  if (options.hub_labels != nullptr) {
    const HubLabeling& hl = *options.hub_labels;
    sections.push_back({kHlOffsets, hl.label_offsets().data(),
                        hl.label_offsets().size() * sizeof(uint32_t)});
    sections.push_back({kHlRanks, hl.rank_plane().data(),
                        hl.rank_plane().size() * sizeof(int32_t)});
    sections.push_back({kHlDists, hl.dist_plane().data(),
                        hl.dist_plane().size() * sizeof(double)});
  }

  // Lay out: header, table, then page-aligned sections.
  std::vector<SectionEntry> table(sections.size());
  size_t cursor = kHeaderBytes + sections.size() * sizeof(SectionEntry);
  for (size_t i = 0; i < sections.size(); ++i) {
    cursor = AlignUp(cursor, kSectionAlign);
    table[i] = {sections[i].id, 0, cursor, sections[i].size};
    cursor += sections[i].size;
  }
  const size_t file_size = cursor;

  FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    *error = "cannot open " + path + " for writing";
    return false;
  }
  ChecksummedWriter w{f};
  Header header{};
  std::memcpy(header.magic, kMagic, sizeof(kMagic));
  header.version = kVersion;
  header.num_sections = static_cast<uint32_t>(sections.size());
  header.checksum = 0;  // patched below
  header.file_size = file_size;
  header.num_nodes = net.num_nodes();
  header.num_edges = net.num_edges();
  header.hl_total_entries = options.hub_labels != nullptr
                                ? options.hub_labels->TotalLabelEntries()
                                : 0;
  w.Write(&header, sizeof(header));
  w.Write(table.data(), table.size() * sizeof(SectionEntry));
  for (size_t i = 0; i < sections.size(); ++i) {
    w.PadTo(table[i].offset);
    w.Write(sections[i].data, sections[i].size);
  }
  if (w.failed) {
    std::fclose(f);
    *error = "write failed on " + path;
    return false;
  }
  // Patch the checksum now that every post-header byte has been folded in.
  header.checksum = w.checksum.Finish();
  std::fseek(f, 0, SEEK_SET);
  bool ok = std::fwrite(&header, 1, sizeof(header), f) == sizeof(header);
  ok = std::fclose(f) == 0 && ok;
  if (!ok) {
    *error = "write failed on " + path;
    return false;
  }
  return true;
}

// -------------------------------------------------------------- loader ----

namespace {

// Typed view of one section, bounds-checked before construction.
struct SectionView {
  const uint8_t* data = nullptr;
  size_t size = 0;
  bool present = false;
};

bool FindSections(const uint8_t* base, size_t file_size, const Header& header,
                  SectionView out[kNumSectionIds], std::string* error) {
  const size_t table_off = kHeaderBytes;
  const size_t table_bytes = header.num_sections * sizeof(SectionEntry);
  for (uint32_t i = 0; i < header.num_sections; ++i) {
    SectionEntry entry;
    std::memcpy(&entry, base + table_off + i * sizeof(SectionEntry),
                sizeof(entry));
    // Overflow-safe bounds: offset and size each checked against file_size
    // before the sum is formed.
    if (entry.offset < table_off + table_bytes || entry.offset > file_size ||
        entry.size > file_size - entry.offset) {
      *error = "section " + std::to_string(entry.id) +
               " is out of bounds (offset " + std::to_string(entry.offset) +
               ", size " + std::to_string(entry.size) + ", file " +
               std::to_string(file_size) + ")";
      return false;
    }
    if (entry.offset % kSectionAlign != 0) {
      *error = "section " + std::to_string(entry.id) +
               " is not page-aligned (offset " +
               std::to_string(entry.offset) + ")";
      return false;
    }
    // Unknown (including the retired CH ids 7-9): skip, after the bounds
    // checks above.
    if (entry.id == 0 || entry.id >= kNumSectionIds) continue;
    if (out[entry.id].present) {
      *error = "duplicate section " + std::to_string(entry.id);
      return false;
    }
    out[entry.id] = {base + entry.offset, entry.size, true};
  }
  return true;
}

bool ExpectSize(const SectionView& s, uint32_t id, size_t expected,
                std::string* error) {
  if (s.size != expected) {
    *error = "section " + std::to_string(id) + " has " +
             std::to_string(s.size) + " bytes, expected " +
             std::to_string(expected);
    return false;
  }
  return true;
}

// Validates the graph's CSR offsets/arcs pair: offsets monotone, final
// offset equal to the arc count, every target in [0, n).
bool ValidateCsr(Span<const uint32_t> offsets,
                 Span<const RoadNetwork::Arc> arcs, size_t num_nodes,
                 std::string* error) {
  if (offsets.size() != num_nodes + 1 || offsets[0] != 0) {
    *error = "graph offsets malformed";
    return false;
  }
  for (size_t v = 0; v < num_nodes; ++v) {
    if (offsets[v + 1] < offsets[v]) {
      *error = "graph offsets not monotone at node " + std::to_string(v);
      return false;
    }
  }
  if (offsets[num_nodes] != arcs.size()) {
    *error = "graph offsets end at " +
             std::to_string(offsets[num_nodes]) + " but the arc array has " +
             std::to_string(arcs.size()) + " entries";
    return false;
  }
  for (size_t i = 0; i < arcs.size(); ++i) {
    if (arcs[i].to < 0 || static_cast<size_t>(arcs[i].to) >= num_nodes) {
      *error = "graph arc " + std::to_string(i) +
               " targets out-of-range node " + std::to_string(arcs[i].to);
      return false;
    }
  }
  return true;
}

}  // namespace

bool LoadGraphSnapshot(const std::string& path,
                       const SnapshotLoadOptions& options, GraphBundle* out,
                       std::string* error) {
  std::shared_ptr<GraphSource> src = options.use_mmap
                                         ? GraphSource::MmapFile(path, error)
                                         : GraphSource::ReadFile(path, error);
  if (src == nullptr) return false;
  const uint8_t* base = src->data();
  const size_t file_size = src->size();

  if (file_size < kHeaderBytes) {
    *error = path + ": too small to hold a snapshot header (" +
             std::to_string(file_size) + " bytes)";
    return false;
  }
  Header header;
  std::memcpy(&header, base, sizeof(header));
  if (std::memcmp(header.magic, kMagic, sizeof(kMagic)) != 0) {
    *error = path + ": not a structride snapshot (bad magic)";
    return false;
  }
  if (header.version != kVersion && header.version != kByteWiseVersion) {
    *error = path + ": unsupported snapshot version " +
             std::to_string(header.version);
    return false;
  }
  if (header.file_size != file_size) {
    *error = path + ": truncated or padded (header says " +
             std::to_string(header.file_size) + " bytes, file has " +
             std::to_string(file_size) + ")";
    return false;
  }
  if (header.num_sections > kMaxSections ||
      header.num_sections * sizeof(SectionEntry) >
          file_size - kHeaderBytes) {
    *error = path + ": section table does not fit (" +
             std::to_string(header.num_sections) + " sections)";
    return false;
  }
  const uint64_t checksum = Checksum(header.version, base + kHeaderBytes,
                                     file_size - kHeaderBytes);
  if (checksum != header.checksum) {
    *error = path + ": checksum mismatch (corrupt file)";
    return false;
  }

  SectionView sections[kNumSectionIds];
  if (!FindSections(base, file_size, header, sections, error)) {
    *error = path + ": " + *error;
    return false;
  }

  const size_t n = static_cast<size_t>(header.num_nodes);
  const size_t m = static_cast<size_t>(header.num_edges);
  // Shape sanity before any multiplication can overflow: the largest
  // per-node section is 16 bytes/entry, so n and m must fit the file.
  if (n > file_size || m > file_size) {
    *error = path + ": implausible node/edge counts";
    return false;
  }

  // Mandatory graph sections.
  if (!sections[kPositions].present || !sections[kCsrOffsets].present ||
      !sections[kCsrArcs].present) {
    *error = path + ": missing a mandatory graph section";
    return false;
  }
  if (!ExpectSize(sections[kPositions], kPositions, n * sizeof(Point),
                  error) ||
      !ExpectSize(sections[kCsrOffsets], kCsrOffsets,
                  (n + 1) * sizeof(uint32_t), error) ||
      !ExpectSize(sections[kCsrArcs], kCsrArcs,
                  2 * m * sizeof(RoadNetwork::Arc), error)) {
    *error = path + ": " + *error;
    return false;
  }
  Span<const Point> positions(
      reinterpret_cast<const Point*>(sections[kPositions].data), n);
  Span<const uint32_t> csr_offsets(
      reinterpret_cast<const uint32_t*>(sections[kCsrOffsets].data), n + 1);
  Span<const RoadNetwork::Arc> csr_arcs(
      reinterpret_cast<const RoadNetwork::Arc*>(sections[kCsrArcs].data),
      2 * m);
  if (!ValidateCsr(csr_offsets, csr_arcs, n, error)) {
    *error = path + ": " + *error;
    return false;
  }

  // Optional hub-label arena: all three sections or none.
  const bool has_hl = sections[kHlOffsets].present ||
                      sections[kHlRanks].present ||
                      sections[kHlDists].present;
  std::unique_ptr<HubLabeling> hub_labels;
  if (has_hl) {
    if (!sections[kHlOffsets].present || !sections[kHlRanks].present ||
        !sections[kHlDists].present) {
      *error = path + ": partial hub-label sections";
      return false;
    }
    const size_t total = static_cast<size_t>(header.hl_total_entries);
    if (total > file_size) {
      *error = path + ": implausible hub-label entry count";
      return false;
    }
    const size_t plane = total + n;  // one sentinel per node
    if (!ExpectSize(sections[kHlOffsets], kHlOffsets, n * sizeof(uint32_t),
                    error) ||
        !ExpectSize(sections[kHlRanks], kHlRanks, plane * sizeof(int32_t),
                    error) ||
        !ExpectSize(sections[kHlDists], kHlDists, plane * sizeof(double),
                    error)) {
      *error = path + ": " + *error;
      return false;
    }
    Span<const uint32_t> hl_offsets(
        reinterpret_cast<const uint32_t*>(sections[kHlOffsets].data), n);
    Span<const int32_t> hl_ranks(
        reinterpret_cast<const int32_t*>(sections[kHlRanks].data), plane);
    Span<const double> hl_dists(
        reinterpret_cast<const double*>(sections[kHlDists].data), plane);
    // Memory-safety boundary: every label walk runs to its sentinel, and
    // PinSource writes scratch[rank]. Every run start must be in range,
    // every rank in [0, n) or the sentinel, ranks ascending per run, and
    // the plane must end on a sentinel so no walk escapes it.
    if (plane == 0 || hl_ranks[plane - 1] != HubLabeling::kSentinelRank) {
      *error = path + ": hub-label plane does not end on a sentinel";
      return false;
    }
    for (size_t v = 0; v < n; ++v) {
      if (hl_offsets[v] >= plane) {
        *error = path + ": hub-label run start out of range at node " +
                 std::to_string(v);
        return false;
      }
    }
    size_t sentinels = 0;
    int32_t prev = -1;
    for (size_t k = 0; k < plane; ++k) {
      const int32_t r = hl_ranks[k];
      if (r == HubLabeling::kSentinelRank) {
        ++sentinels;
        prev = -1;
        continue;
      }
      if (r < 0 || static_cast<size_t>(r) >= n || r <= prev) {
        *error = path + ": hub-label rank plane malformed at entry " +
                 std::to_string(k);
        return false;
      }
      prev = r;
    }
    if (sentinels != n) {
      *error = path + ": hub-label plane has " + std::to_string(sentinels) +
               " sentinels for " + std::to_string(n) + " nodes";
      return false;
    }
    hub_labels = HubLabeling::FromFrozenSections(hl_offsets, hl_ranks,
                                                 hl_dists, total, src);
  }

  out->network =
      RoadNetwork::FromFrozenSections(positions, csr_offsets, csr_arcs, m, src);
  out->hub_labels = std::move(hub_labels);
  return true;
}

bool IsSnapshotFile(const std::string& path) {
  FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  char head[8] = {0};
  size_t got = std::fread(head, 1, sizeof(head), f);
  std::fclose(f);
  return got == sizeof(head) && std::memcmp(head, kMagic, sizeof(kMagic)) == 0;
}

bool RewriteSnapshotChecksum(const std::string& path, std::string* error) {
  std::string read_err;
  std::shared_ptr<GraphSource> src = GraphSource::ReadFile(path, &read_err);
  if (src == nullptr) {
    *error = read_err;
    return false;
  }
  if (src->size() < kHeaderBytes) {
    *error = path + ": too small to hold a snapshot header";
    return false;
  }
  Header header;
  std::memcpy(&header, src->data(), sizeof(header));
  const uint64_t checksum = Checksum(header.version,
                                     src->data() + kHeaderBytes,
                                     src->size() - kHeaderBytes);
  FILE* f = std::fopen(path.c_str(), "rb+");
  if (f == nullptr) {
    *error = "cannot open " + path + " for update";
    return false;
  }
  std::fseek(f, static_cast<long>(offsetof(Header, checksum)), SEEK_SET);
  bool ok = std::fwrite(&checksum, 1, sizeof(checksum), f) == sizeof(checksum);
  ok = std::fclose(f) == 0 && ok;
  if (!ok) {
    *error = "write failed on " + path;
    return false;
  }
  return true;
}

}  // namespace structride
