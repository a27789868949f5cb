// TraceStore — the serialized, versioned on-disk form of a binned trace.
//
// A sharded sweep bins the trace exactly once: the coordinator builds a
// core::BinnedTraceCache, writes it (packets + SoA arrays + prefix-sum
// tables + paper bin edges) into a TraceStore file, and every worker
// process opens that file read-only through a StoreBackend. The default
// backend mmaps the file, so N workers share ONE physical copy of the
// population zero-copy — the page cache holds the bytes once and each
// worker's BinnedTraceCache is just spans into the mapping (the cache's
// "mapped" constructor; netsample_trace_cache_builds_total stays 0 in
// workers, which the multiproc smoke test asserts).
//
// Format (docs/SHARDING.md has the normative description):
//
//   page 0        StoreHeader — magic "NSTORE1\n", format version,
//                 endianness tag, record ABI size, packet count, exact
//                 file size, population means, section table, FNV-1a
//                 header checksum
//   sections      each page-aligned (4096): PacketRecord[n], timestamps
//                 u64[n], size_bin u8[n], gap_bin u8[n], size_prefix
//                 u32[size_bins*(n+1)], gap_prefix u32[gap_bins*(n+1)],
//                 size_edges f64[], gap_edges f64[]
//
// Everything is written in host byte order; open() rejects (kDataLoss →
// exit 65 at the CLI) any store whose endianness tag, format version,
// record size, header checksum, section table, or total size does not
// match, and any whose size-bin or gap-bin section holds an id at or past
// its bin count — a truncated or foreign store never gets half-used, and
// no id can index past a histogram. The other sections are not checked.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <type_traits>

#include "core/trace_cache.h"
#include "trace/trace.h"
#include "util/status.h"

namespace netsample::shard {

inline constexpr char kStoreMagic[8] = {'N', 'S', 'T', 'O', 'R', 'E', '1', '\n'};
inline constexpr std::uint32_t kStoreFormatVersion = 1;
// Written as a native u32; a store produced on the other endianness reads
// back as 0x04030201 and is rejected instead of silently misparsed.
inline constexpr std::uint32_t kStoreEndianTag = 0x01020304;
inline constexpr std::uint64_t kStorePageBytes = 4096;

/// One contiguous region of the file; offset is from the file start and is
/// always a multiple of kStorePageBytes (so every element type is aligned).
struct StoreSection {
  std::uint64_t offset{0};
  std::uint64_t bytes{0};
};

enum StoreSectionId : std::uint32_t {
  kSecRecords = 0,   // trace::PacketRecord[packet_count]
  kSecTimestamps,    // std::uint64_t[packet_count]
  kSecSizeBins,      // std::uint8_t[packet_count]
  kSecGapBins,       // std::uint8_t[packet_count]
  kSecSizePrefix,    // std::uint32_t[size_bins * (packet_count + 1)]
  kSecGapPrefix,     // std::uint32_t[gap_bins * (packet_count + 1)]
  kSecSizeEdges,     // double[size_bins - 1]
  kSecGapEdges,      // double[gap_bins - 1]
  kStoreSectionCount
};

struct StoreHeader {
  char magic[8];
  std::uint32_t format_version;
  std::uint32_t endian_tag;
  std::uint32_t header_bytes;  // sizeof(StoreHeader) at write time
  std::uint32_t record_bytes;  // sizeof(trace::PacketRecord) ABI check
  std::uint64_t packet_count;
  std::uint64_t total_bytes;   // exact file size; truncation check
  double mean_interarrival_usec;  // population mean, for timer designs
  double mean_packet_size;
  StoreSection sections[kStoreSectionCount];
  std::uint64_t header_fnv1a;  // FNV-1a 64 of this struct with field zeroed
};
static_assert(std::is_trivially_copyable_v<StoreHeader>);
static_assert(sizeof(StoreHeader) <= kStorePageBytes);

/// FNV-1a 64 over a byte range (the header checksum primitive; exposed for
/// tests that corrupt stores deliberately).
[[nodiscard]] std::uint64_t fnv1a64(const void* data, std::size_t bytes);

// ---------------------------------------------------------------------------
// Pluggable read-only byte source. "How the bytes arrive" (file mmap today;
// a socket fetch or shared-memory kv server later) is separated from "what
// the bytes mean" (TraceStore::open validates and interprets them), so new
// transports never touch the format logic.

/// An open, immutable byte range. Freed (munmap / delete[]) on destruction.
class StoreMapping {
 public:
  virtual ~StoreMapping() = default;
  [[nodiscard]] virtual const std::byte* data() const = 0;
  [[nodiscard]] virtual std::size_t size() const = 0;
};

class StoreBackend {
 public:
  virtual ~StoreBackend() = default;
  [[nodiscard]] virtual const char* name() const = 0;
  /// Maps `source` (backend-defined; a path for the file backends) whole.
  [[nodiscard]] virtual StatusOr<std::unique_ptr<StoreMapping>> open_bytes(
      const std::string& source) = 0;
};

/// mmap(PROT_READ, MAP_SHARED) — the zero-copy default: every worker's
/// mapping aliases the same page-cache pages.
class MmapFileBackend final : public StoreBackend {
 public:
  [[nodiscard]] const char* name() const override { return "mmap"; }
  [[nodiscard]] StatusOr<std::unique_ptr<StoreMapping>> open_bytes(
      const std::string& source) override;
};

/// Plain buffered read into private heap memory. One copy per process —
/// the portability/diagnostic fallback, and proof the backend seam holds.
class ReadFileBackend final : public StoreBackend {
 public:
  [[nodiscard]] const char* name() const override { return "read"; }
  [[nodiscard]] StatusOr<std::unique_ptr<StoreMapping>> open_bytes(
      const std::string& source) override;
};

/// Shared backend instance by name ("mmap" | "read"); throws
/// std::invalid_argument for unknown names. CLI `--store-backend` goes
/// through here.
[[nodiscard]] StoreBackend& store_backend(std::string_view name);

// ---------------------------------------------------------------------------

/// Serializes `cache` (packets + every binned table) to `path`, atomically:
/// the bytes land in `path.tmp` first and rename into place after fsync, so
/// a crashed writer leaves no half-store behind. The means are population
/// statistics workers need without scanning packets.
[[nodiscard]] Status write_trace_store(const std::string& path,
                                       const core::BinnedTraceCache& cache,
                                       double mean_interarrival_usec,
                                       double mean_packet_size);

/// A validated, opened store: a TraceView over the mapped packet records
/// plus a BinnedTraceCache adopting the mapped tables. Move-only; the
/// mapping lives exactly as long as the store.
class TraceStore {
 public:
  static StatusOr<TraceStore> open(const std::string& source,
                                   StoreBackend& backend);

  TraceStore(TraceStore&&) = default;
  TraceStore& operator=(TraceStore&&) = default;

  /// The full population, backed by the mapped record section.
  [[nodiscard]] trace::TraceView view() const { return cache_->base(); }
  /// Mapped-mode cache (cache().mapped() == true); zero re-binning happened.
  [[nodiscard]] const core::BinnedTraceCache& cache() const { return *cache_; }
  [[nodiscard]] std::size_t packet_count() const { return cache_->size(); }
  [[nodiscard]] double mean_interarrival_usec() const {
    return mean_interarrival_usec_;
  }
  [[nodiscard]] double mean_packet_size() const { return mean_packet_size_; }

 private:
  TraceStore() = default;

  std::unique_ptr<StoreMapping> mapping_;
  std::unique_ptr<core::BinnedTraceCache> cache_;
  double mean_interarrival_usec_{0.0};
  double mean_packet_size_{0.0};
};

}  // namespace netsample::shard
