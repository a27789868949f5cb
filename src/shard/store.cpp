#include "shard/store.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "trace/packet_record.h"

namespace netsample::shard {

std::uint64_t fnv1a64(const void* data, std::size_t bytes) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

namespace {

std::uint64_t page_up(std::uint64_t bytes) {
  return (bytes + kStorePageBytes - 1) / kStorePageBytes * kStorePageBytes;
}

std::uint64_t header_checksum(StoreHeader h) {
  h.header_fnv1a = 0;
  return fnv1a64(&h, sizeof(h));
}

Status errno_status(StatusCode code, const std::string& what) {
  return Status{code, what + ": " + std::strerror(errno)};
}

Status data_loss(const std::string& source, const std::string& why) {
  return Status{StatusCode::kDataLoss, "trace store " + source + ": " + why};
}

}  // namespace

// ---------------------------------------------------------------------------
// Backends

namespace {

class MmapMapping final : public StoreMapping {
 public:
  MmapMapping(void* addr, std::size_t bytes) : addr_(addr), bytes_(bytes) {}
  ~MmapMapping() override {
    if (addr_ != nullptr && bytes_ > 0) ::munmap(addr_, bytes_);
  }
  [[nodiscard]] const std::byte* data() const override {
    return static_cast<const std::byte*>(addr_);
  }
  [[nodiscard]] std::size_t size() const override { return bytes_; }

 private:
  void* addr_;
  std::size_t bytes_;
};

class HeapMapping final : public StoreMapping {
 public:
  explicit HeapMapping(std::vector<std::byte> bytes) : bytes_(std::move(bytes)) {}
  [[nodiscard]] const std::byte* data() const override { return bytes_.data(); }
  [[nodiscard]] std::size_t size() const override { return bytes_.size(); }

 private:
  std::vector<std::byte> bytes_;
};

StatusOr<std::pair<int, std::uint64_t>> open_and_size(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    const StatusCode code =
        errno == ENOENT ? StatusCode::kNotFound : StatusCode::kDataLoss;
    return errno_status(code, "trace store " + path);
  }
  struct stat st {};
  if (::fstat(fd, &st) != 0) {
    const Status s = errno_status(StatusCode::kDataLoss, "trace store " + path);
    ::close(fd);
    return s;
  }
  return std::pair<int, std::uint64_t>{fd, static_cast<std::uint64_t>(st.st_size)};
}

}  // namespace

StatusOr<std::unique_ptr<StoreMapping>> MmapFileBackend::open_bytes(
    const std::string& source) {
  auto fd_size = open_and_size(source);
  if (!fd_size.has_value()) return fd_size.status();
  const auto [fd, bytes] = *fd_size;
  if (bytes == 0) {
    ::close(fd);
    return data_loss(source, "empty file");
  }
  void* addr = ::mmap(nullptr, bytes, PROT_READ, MAP_SHARED, fd, 0);
  ::close(fd);  // the mapping keeps its own reference
  if (addr == MAP_FAILED) {
    return errno_status(StatusCode::kDataLoss, "trace store mmap " + source);
  }
  return std::unique_ptr<StoreMapping>(std::make_unique<MmapMapping>(addr, bytes));
}

StatusOr<std::unique_ptr<StoreMapping>> ReadFileBackend::open_bytes(
    const std::string& source) {
  auto fd_size = open_and_size(source);
  if (!fd_size.has_value()) return fd_size.status();
  const auto [fd, bytes] = *fd_size;
  std::vector<std::byte> buf(bytes);
  std::size_t got = 0;
  while (got < bytes) {
    const ssize_t r = ::read(fd, buf.data() + got, bytes - got);
    if (r < 0) {
      if (errno == EINTR) continue;
      const Status s =
          errno_status(StatusCode::kDataLoss, "trace store read " + source);
      ::close(fd);
      return s;
    }
    if (r == 0) break;  // shorter than fstat said; total_bytes check catches it
    got += static_cast<std::size_t>(r);
  }
  ::close(fd);
  buf.resize(got);
  return std::unique_ptr<StoreMapping>(std::make_unique<HeapMapping>(std::move(buf)));
}

StoreBackend& store_backend(std::string_view name) {
  static MmapFileBackend mmap_backend;
  static ReadFileBackend read_backend;
  if (name == "mmap") return mmap_backend;
  if (name == "read") return read_backend;
  throw std::invalid_argument("unknown store backend '" + std::string(name) +
                              "' (expected mmap|read)");
}

// ---------------------------------------------------------------------------
// Writer

namespace {

Status write_all(std::FILE* f, const void* data, std::size_t bytes,
                 const std::string& path) {
  if (bytes == 0) return Status::ok();
  if (std::fwrite(data, 1, bytes, f) != bytes) {
    return errno_status(StatusCode::kInternal, "trace store write " + path);
  }
  return Status::ok();
}

Status pad_to_page(std::FILE* f, std::uint64_t written, const std::string& path) {
  static const std::vector<char> zeros(kStorePageBytes, 0);
  const std::uint64_t pad = page_up(written) - written;
  return write_all(f, zeros.data(), pad, path);
}

}  // namespace

Status write_trace_store(const std::string& path,
                         const core::BinnedTraceCache& cache,
                         double mean_interarrival_usec,
                         double mean_packet_size) {
  const core::BinnedTables t = cache.tables();
  const trace::TraceView base = cache.base();

  StoreHeader h{};
  std::memcpy(h.magic, kStoreMagic, sizeof(h.magic));
  h.format_version = kStoreFormatVersion;
  h.endian_tag = kStoreEndianTag;
  h.header_bytes = sizeof(StoreHeader);
  h.record_bytes = sizeof(trace::PacketRecord);
  h.packet_count = base.size();
  h.mean_interarrival_usec = mean_interarrival_usec;
  h.mean_packet_size = mean_packet_size;

  const std::pair<const void*, std::uint64_t> payloads[kStoreSectionCount] = {
      {base.packets().data(), base.size() * sizeof(trace::PacketRecord)},
      {t.timestamps.data(), t.timestamps.size_bytes()},
      {t.size_bins.data(), t.size_bins.size_bytes()},
      {t.gap_bins.data(), t.gap_bins.size_bytes()},
      {t.size_prefix.data(), t.size_prefix.size_bytes()},
      {t.gap_prefix.data(), t.gap_prefix.size_bytes()},
      {t.size_edges.data(), t.size_edges.size_bytes()},
      {t.gap_edges.data(), t.gap_edges.size_bytes()},
  };
  std::uint64_t offset = kStorePageBytes;  // header page
  for (std::size_t s = 0; s < kStoreSectionCount; ++s) {
    h.sections[s] = StoreSection{offset, payloads[s].second};
    offset = page_up(offset + payloads[s].second);
  }
  // The file ends page-aligned; total_bytes is the exact size an intact
  // store must have, which is what open() checks against the mapping.
  h.total_bytes = offset;
  h.header_fnv1a = header_checksum(h);

  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) {
    return errno_status(StatusCode::kInternal, "trace store create " + tmp);
  }
  Status st = write_all(f, &h, sizeof(h), tmp);
  if (st.is_ok()) st = pad_to_page(f, sizeof(h), tmp);
  for (std::size_t s = 0; st.is_ok() && s < kStoreSectionCount; ++s) {
    st = write_all(f, payloads[s].first, payloads[s].second, tmp);
    if (st.is_ok()) st = pad_to_page(f, payloads[s].second, tmp);
  }
  if (st.is_ok() && (std::fflush(f) != 0 || ::fsync(fileno(f)) != 0)) {
    st = errno_status(StatusCode::kInternal, "trace store sync " + tmp);
  }
  if (std::fclose(f) != 0 && st.is_ok()) {
    st = errno_status(StatusCode::kInternal, "trace store close " + tmp);
  }
  if (st.is_ok() && std::rename(tmp.c_str(), path.c_str()) != 0) {
    st = errno_status(StatusCode::kInternal, "trace store rename " + path);
  }
  if (!st.is_ok()) {
    std::remove(tmp.c_str());
    return st;
  }

  if (obs::enabled()) {
    auto& reg = obs::registry();
    static obs::Counter& writes =
        reg.counter("netsample_trace_store_writes_total");
    static obs::Counter& bytes =
        reg.counter("netsample_trace_store_bytes_written_total");
    writes.increment();
    bytes.add(h.total_bytes);
  }
  return Status::ok();
}

// ---------------------------------------------------------------------------
// Opener

namespace {

template <typename T>
std::span<const T> section_span(const std::byte* base, const StoreSection& s) {
  return {reinterpret_cast<const T*>(base + s.offset), s.bytes / sizeof(T)};
}

Status validate_header(const StoreHeader& h, std::uint64_t mapped_bytes,
                       const std::string& source) {
  if (std::memcmp(h.magic, kStoreMagic, sizeof(h.magic)) != 0) {
    return data_loss(source, "bad magic (not a trace store)");
  }
  if (h.endian_tag != kStoreEndianTag) {
    return data_loss(source, "endianness mismatch (store written on a "
                             "different byte order)");
  }
  if (h.format_version != kStoreFormatVersion) {
    return data_loss(source, "format version " +
                                 std::to_string(h.format_version) +
                                 " (this build reads version " +
                                 std::to_string(kStoreFormatVersion) + ")");
  }
  if (h.header_bytes != sizeof(StoreHeader)) {
    return data_loss(source, "header size mismatch");
  }
  if (h.record_bytes != sizeof(trace::PacketRecord)) {
    return data_loss(source, "packet record ABI mismatch");
  }
  if (h.total_bytes != mapped_bytes) {
    return data_loss(source, "truncated (header says " +
                                 std::to_string(h.total_bytes) + " bytes, " +
                                 "file has " + std::to_string(mapped_bytes) +
                                 ")");
  }
  if (h.header_fnv1a != header_checksum(h)) {
    return data_loss(source, "header checksum mismatch");
  }
  const std::uint64_t n = h.packet_count;
  const std::uint64_t size_bins = h.sections[kSecSizeEdges].bytes / 8 + 1;
  const std::uint64_t gap_bins = h.sections[kSecGapEdges].bytes / 8 + 1;
  const std::uint64_t expected[kStoreSectionCount] = {
      n * sizeof(trace::PacketRecord),
      n * sizeof(std::uint64_t),
      n,
      n,
      size_bins * (n + 1) * sizeof(std::uint32_t),
      gap_bins * (n + 1) * sizeof(std::uint32_t),
      h.sections[kSecSizeEdges].bytes,
      h.sections[kSecGapEdges].bytes,
  };
  for (std::size_t s = 0; s < kStoreSectionCount; ++s) {
    const StoreSection& sec = h.sections[s];
    if (sec.offset % kStorePageBytes != 0 || sec.offset < kStorePageBytes ||
        sec.offset > mapped_bytes || sec.bytes > mapped_bytes - sec.offset) {
      return data_loss(source, "section " + std::to_string(s) +
                                   " out of bounds");
    }
    if (sec.bytes != expected[s]) {
      return data_loss(source, "section " + std::to_string(s) +
                                   " length mismatch");
    }
  }
  return Status::ok();
}

/// The largest id in a bin-id section (0 when empty). The fixed 64-byte
/// block lets -O2 vectorize the reduction (pmaxub); a plain byte-at-a-time
/// max is not vectorized there and runs about ten times slower.
std::uint8_t max_bin_id(std::span<const std::uint8_t> ids) {
  std::uint8_t top = 0;
  std::size_t i = 0;
  for (; i + 64 <= ids.size(); i += 64) {
    std::uint8_t block = 0;
    for (std::size_t j = 0; j < 64; ++j) block = std::max(block, ids[i + j]);
    top = std::max(top, block);
  }
  for (; i < ids.size(); ++i) top = std::max(top, ids[i]);
  return top;
}

}  // namespace

StatusOr<TraceStore> TraceStore::open(const std::string& source,
                                      StoreBackend& backend) {
  auto mapped = backend.open_bytes(source);
  if (!mapped.has_value()) return mapped.status();
  std::unique_ptr<StoreMapping> mapping = std::move(*mapped);

  if (mapping->size() < sizeof(StoreHeader)) {
    return data_loss(source, "shorter than a store header");
  }
  // The mapping is at least page aligned for mmap and heap-allocation
  // aligned for the read backend; copy the header out so validation never
  // depends on mapping alignment.
  StoreHeader h{};
  std::memcpy(&h, mapping->data(), sizeof(h));
  if (Status st = validate_header(h, mapping->size(), source); !st.is_ok()) {
    return st;
  }

  const std::byte* base = mapping->data();
  const trace::TraceView view(
      section_span<trace::PacketRecord>(base, h.sections[kSecRecords]));
  core::BinnedTables tables{
      section_span<double>(base, h.sections[kSecSizeEdges]),
      section_span<double>(base, h.sections[kSecGapEdges]),
      section_span<std::uint64_t>(base, h.sections[kSecTimestamps]),
      section_span<std::uint8_t>(base, h.sections[kSecSizeBins]),
      section_span<std::uint8_t>(base, h.sections[kSecGapBins]),
      section_span<std::uint32_t>(base, h.sections[kSecSizePrefix]),
      section_span<std::uint32_t>(base, h.sections[kSecGapPrefix]),
  };
  // The scoring kernels count a sampled packet under its bin id with no
  // bound check, so an id at or past its bin count (one more than its
  // edges) is refused here, in both sections, before anything scores.
  if (max_bin_id(tables.size_bins) > tables.size_edges.size() ||
      max_bin_id(tables.gap_bins) > tables.gap_edges.size()) {
    return data_loss(source, "bin id out of range");
  }

  TraceStore store;
  store.mapping_ = std::move(mapping);
  store.cache_ = std::make_unique<core::BinnedTraceCache>(view, tables);
  store.mean_interarrival_usec_ = h.mean_interarrival_usec;
  store.mean_packet_size_ = h.mean_packet_size;

  if (obs::enabled()) {
    static obs::Counter& opens =
        obs::registry().counter("netsample_trace_store_opens_total");
    opens.increment();
  }
  return store;
}

}  // namespace netsample::shard
