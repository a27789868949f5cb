// shard::TraceStore — the on-disk binned-trace format and its backends:
// write/open round-trip preserves every record and every binned table
// bit-exactly (scoring over a mapped cache equals scoring over the built
// cache), both backends agree byte for byte, and every corruption class —
// wrong magic, wrong format version, wrong endianness tag, wrong record
// ABI, truncation, a flipped header byte, a bin id past its histogram — is
// refused with kDataLoss instead of half-read; the shared mutation loop
// runs over the header and both bin-id sections.
#include "shard/store.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstddef>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/trace_cache.h"
#include "exper/runner.h"
#include "mutation.h"
#include "shard/grid.h"
#include "synth/presets.h"
#include "trace/summary.h"

namespace netsample::shard {
namespace {

// PID-suffixed so parallel ctest processes (one per discovered test) never
// race on the same file — the store writer stages through "<path>.tmp".
std::string temp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() /
          (name + "." + std::to_string(::getpid())))
      .string();
}

const trace::Trace& shared_trace() {
  static const trace::Trace t =
      synth::TraceModel(synth::sdsc_minutes_config(0.5, 23)).generate();
  return t;
}

struct Population {
  core::BinnedTraceCache cache;
  double mean_iat;
  double mean_size;

  explicit Population(const trace::Trace& t)
      : cache(t.view()),
        mean_iat(trace::summarize_population(t.view()).interarrival.mean),
        mean_size(trace::summarize_population(t.view()).packet_size.mean) {}
};

const Population& shared_population() {
  static const Population p(shared_trace());
  return p;
}

/// Writes shared_population() to a fresh store file and returns its path.
std::string write_shared_store(const std::string& name) {
  const std::string path = temp_path(name);
  std::filesystem::remove(path);
  const auto& p = shared_population();
  const Status st = write_trace_store(path, p.cache, p.mean_iat, p.mean_size);
  EXPECT_TRUE(st.is_ok()) << st.to_string();
  return path;
}

/// Applies `mutate` to the store's header and re-stamps the checksum, so
/// the mutation (not the checksum) is what open() trips over.
template <typename Fn>
void rewrite_header(const std::string& path, Fn mutate) {
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.is_open());
  StoreHeader h{};
  f.read(reinterpret_cast<char*>(&h), sizeof h);
  ASSERT_TRUE(f.good());
  mutate(h);
  h.header_fnv1a = 0;
  h.header_fnv1a = fnv1a64(&h, sizeof h);
  f.seekp(0);
  f.write(reinterpret_cast<const char*>(&h), sizeof h);
}

void expect_metrics_exact(const core::DisparityMetrics& a,
                          const core::DisparityMetrics& b) {
  EXPECT_EQ(a.chi2, b.chi2);
  EXPECT_EQ(a.dof, b.dof);
  EXPECT_EQ(a.significance, b.significance);
  EXPECT_EQ(a.cost, b.cost);
  EXPECT_EQ(a.rcost, b.rcost);
  EXPECT_EQ(a.x2, b.x2);
  EXPECT_EQ(a.avg_norm_dev, b.avg_norm_dev);
  EXPECT_EQ(a.phi, b.phi);
  EXPECT_EQ(a.sample_n, b.sample_n);
  EXPECT_EQ(a.population_n, b.population_n);
}

TEST(TraceStore, RoundTripPreservesRecordsAndTables) {
  const std::string path = write_shared_store("netsample_store_rt.nstore");
  auto opened = TraceStore::open(path, store_backend("mmap"));
  ASSERT_TRUE(opened.has_value()) << opened.status().to_string();
  const TraceStore store = std::move(*opened);

  const auto& p = shared_population();
  const auto base = shared_trace().view();
  ASSERT_EQ(store.packet_count(), base.size());
  EXPECT_TRUE(store.cache().mapped());
  EXPECT_EQ(store.mean_interarrival_usec(), p.mean_iat);
  EXPECT_EQ(store.mean_packet_size(), p.mean_size);

  const auto view = store.view();
  for (std::size_t i = 0; i < base.size(); ++i) {
    ASSERT_EQ(view[i], base[i]) << "record " << i;
  }
  const auto got = store.cache().tables();
  const auto want = p.cache.tables();
  ASSERT_EQ(got.timestamps.size(), want.timestamps.size());
  for (std::size_t i = 0; i < want.timestamps.size(); ++i) {
    ASSERT_EQ(got.timestamps[i], want.timestamps[i]) << i;
    ASSERT_EQ(got.size_bins[i], want.size_bins[i]) << i;
    ASSERT_EQ(got.gap_bins[i], want.gap_bins[i]) << i;
  }
  ASSERT_EQ(got.size_prefix.size(), want.size_prefix.size());
  for (std::size_t i = 0; i < want.size_prefix.size(); ++i) {
    ASSERT_EQ(got.size_prefix[i], want.size_prefix[i]) << i;
  }
  ASSERT_EQ(got.gap_prefix.size(), want.gap_prefix.size());
  for (std::size_t i = 0; i < want.gap_prefix.size(); ++i) {
    ASSERT_EQ(got.gap_prefix[i], want.gap_prefix[i]) << i;
  }
}

TEST(TraceStore, ScoringOverMappedCacheIsBitIdenticalToBuiltCache) {
  const std::string path = write_shared_store("netsample_store_score.nstore");
  auto opened = TraceStore::open(path, store_backend("mmap"));
  ASSERT_TRUE(opened.has_value()) << opened.status().to_string();

  const auto& p = shared_population();
  for (const auto method :
       {core::Method::kSystematicCount, core::Method::kSimpleRandom,
        core::Method::kSystematicTimer}) {
    exper::CellConfig built;
    built.method = method;
    built.target = core::Target::kInterarrivalTime;
    built.granularity = 16;
    built.interval = shared_trace().view();
    built.mean_interarrival_usec = p.mean_iat;
    built.replications = 3;
    built.base_seed = 99;
    built.cache = &p.cache;

    exper::CellConfig mapped = built;
    mapped.interval = opened->view();
    mapped.mean_interarrival_usec = opened->mean_interarrival_usec();
    mapped.cache = &opened->cache();

    const auto a = exper::run_cell(built);
    const auto b = exper::run_cell(mapped);
    ASSERT_EQ(a.replications.size(), b.replications.size());
    for (std::size_t r = 0; r < a.replications.size(); ++r) {
      expect_metrics_exact(a.replications[r], b.replications[r]);
    }
  }
}

TEST(TraceStore, ReadBackendAgreesWithMmapBackend) {
  const std::string path = write_shared_store("netsample_store_read.nstore");
  auto via_mmap = TraceStore::open(path, store_backend("mmap"));
  auto via_read = TraceStore::open(path, store_backend("read"));
  ASSERT_TRUE(via_mmap.has_value());
  ASSERT_TRUE(via_read.has_value()) << via_read.status().to_string();
  ASSERT_EQ(via_read->packet_count(), via_mmap->packet_count());
  const auto a = via_mmap->view();
  const auto b = via_read->view();
  for (std::size_t i = 0; i < a.size(); ++i) ASSERT_EQ(a[i], b[i]);
}

TEST(TraceStore, UnknownBackendThrows) {
  EXPECT_THROW((void)store_backend("carrier-pigeon"), std::invalid_argument);
}

TEST(TraceStore, MissingFileIsNotFound) {
  auto opened = TraceStore::open(temp_path("netsample_store_nope.nstore"),
                                 store_backend("mmap"));
  ASSERT_FALSE(opened.has_value());
  EXPECT_EQ(opened.status().code(), StatusCode::kNotFound);
}

TEST(TraceStore, RejectsWrongMagic) {
  const std::string path = write_shared_store("netsample_store_magic.nstore");
  rewrite_header(path, [](StoreHeader& h) { h.magic[0] = 'X'; });
  auto opened = TraceStore::open(path, store_backend("mmap"));
  ASSERT_FALSE(opened.has_value());
  EXPECT_EQ(opened.status().code(), StatusCode::kDataLoss);
}

TEST(TraceStore, RejectsFutureFormatVersion) {
  const std::string path = write_shared_store("netsample_store_ver.nstore");
  rewrite_header(path,
                 [](StoreHeader& h) { h.format_version = kStoreFormatVersion + 1; });
  auto opened = TraceStore::open(path, store_backend("mmap"));
  ASSERT_FALSE(opened.has_value());
  EXPECT_EQ(opened.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(opened.status().message().find("version"), std::string::npos)
      << opened.status().to_string();
}

TEST(TraceStore, RejectsForeignEndianness) {
  const std::string path = write_shared_store("netsample_store_endian.nstore");
  rewrite_header(path, [](StoreHeader& h) { h.endian_tag = 0x04030201; });
  auto opened = TraceStore::open(path, store_backend("mmap"));
  ASSERT_FALSE(opened.has_value());
  EXPECT_EQ(opened.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(opened.status().message().find("endian"), std::string::npos)
      << opened.status().to_string();
}

TEST(TraceStore, RejectsRecordAbiMismatch) {
  const std::string path = write_shared_store("netsample_store_abi.nstore");
  rewrite_header(path, [](StoreHeader& h) { h.record_bytes += 8; });
  auto opened = TraceStore::open(path, store_backend("mmap"));
  ASSERT_FALSE(opened.has_value());
  EXPECT_EQ(opened.status().code(), StatusCode::kDataLoss);
}

TEST(TraceStore, RejectsTruncatedStore) {
  const std::string path = write_shared_store("netsample_store_trunc.nstore");
  const auto full = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, full - kStorePageBytes);
  auto opened = TraceStore::open(path, store_backend("mmap"));
  ASSERT_FALSE(opened.has_value());
  EXPECT_EQ(opened.status().code(), StatusCode::kDataLoss);
  // Both backends must refuse identically — truncation is not a
  // transport-level detail.
  auto via_read = TraceStore::open(path, store_backend("read"));
  ASSERT_FALSE(via_read.has_value());
  EXPECT_EQ(via_read.status().code(), StatusCode::kDataLoss);
}

TEST(TraceStore, RejectsFlippedHeaderByte) {
  const std::string path = write_shared_store("netsample_store_fnv.nstore");
  // Corrupt packet_count WITHOUT re-stamping the checksum: the FNV gate
  // catches it before any derived length math runs.
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  StoreHeader h{};
  f.read(reinterpret_cast<char*>(&h), sizeof h);
  h.packet_count += 1;
  f.seekp(0);
  f.write(reinterpret_cast<const char*>(&h), sizeof h);
  f.close();
  auto opened = TraceStore::open(path, store_backend("mmap"));
  ASSERT_FALSE(opened.has_value());
  EXPECT_EQ(opened.status().code(), StatusCode::kDataLoss);
}

/// Overwrites one byte of a section, leaving the header and its checksum
/// as written: only a scan of the section itself can notice.
void poke_section(const std::string& path, StoreSectionId id,
                  std::uint64_t at, std::uint8_t value) {
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.is_open());
  StoreHeader h{};
  f.read(reinterpret_cast<char*>(&h), sizeof h);
  ASSERT_LT(at, h.sections[id].bytes);
  f.seekp(static_cast<std::streamoff>(h.sections[id].offset + at));
  f.put(static_cast<char>(value));
}

// A bin id indexes its histogram's counters with no bound check, so a store
// holding an id at or past its bin count is refused whole, through either
// backend, wherever the id sits (a full block of the scan or its tail); the
// largest legal id still opens.
TEST(TraceStore, RejectsOutOfRangeBinIdsThroughBothBackends) {
  const auto& cache = shared_population().cache;
  const std::pair<StoreSectionId, std::size_t> sections[] = {
      {kSecSizeBins, cache.tables().size_edges.size() + 1},
      {kSecGapBins, cache.tables().gap_edges.size() + 1}};
  const std::uint64_t last = shared_trace().size() - 1;
  for (const auto& [id, bins] : sections) {
    for (const std::uint64_t at : {std::uint64_t{1000}, last}) {
      for (const std::size_t value : {bins - 1, bins, std::size_t{0xFE}}) {
        const std::string path =
            write_shared_store("netsample_store_binid.nstore");
        poke_section(path, id, at, static_cast<std::uint8_t>(value));
        for (const char* backend : {"mmap", "read"}) {
          auto opened = TraceStore::open(path, store_backend(backend));
          const std::string where =
              "section " + std::to_string(id) + ", byte " +
              std::to_string(at) + ", id " + std::to_string(value) + ", " +
              backend;
          if (value < bins) {
            EXPECT_TRUE(opened.has_value()) << where;
            continue;
          }
          ASSERT_FALSE(opened.has_value()) << where;
          EXPECT_EQ(opened.status().code(), StatusCode::kDataLoss) << where;
          EXPECT_NE(opened.status().message().find("bin id"),
                    std::string::npos)
              << opened.status().to_string();
        }
      }
    }
  }
}

/// Serves one in-memory image as the store, whatever the source.
class ImageBackend final : public StoreBackend {
 public:
  [[nodiscard]] const char* name() const override { return "image"; }
  [[nodiscard]] StatusOr<std::unique_ptr<StoreMapping>> open_bytes(
      const std::string&) override {
    return std::unique_ptr<StoreMapping>(std::make_unique<Image>(image));
  }

  std::vector<std::byte> image;

 private:
  class Image final : public StoreMapping {
   public:
    explicit Image(std::vector<std::byte> bytes) : bytes_(std::move(bytes)) {}
    [[nodiscard]] const std::byte* data() const override {
      return bytes_.data();
    }
    [[nodiscard]] std::size_t size() const override { return bytes_.size(); }

   private:
    std::vector<std::byte> bytes_;
  };
};

// The shared mutation loop over the header and both bin-id sections. Header
// stomps re-stamp the checksum, so they reach the section-table checks (a
// moved section can alias another); bin stomps write ids at and past the
// edge. Every mutant is refused with kDataLoss or opens with every id
// inside its histogram — and scoring every packet then stays in bounds,
// which ASan+UBSan checks.
TEST(TraceStoreMutation, HeaderAndBinSectionsAreRefusedOrInRange) {
  const std::string path = write_shared_store("netsample_store_mut.nstore");
  std::vector<std::byte> clean(std::filesystem::file_size(path));
  {
    std::ifstream f(path, std::ios::binary);
    f.read(reinterpret_cast<char*>(clean.data()),
           static_cast<std::streamsize>(clean.size()));
    ASSERT_TRUE(f.good());
  }
  StoreHeader h{};
  std::memcpy(&h, clean.data(), sizeof h);
  const std::size_t size_bins = h.sections[kSecSizeEdges].bytes / 8 + 1;
  const std::size_t gap_bins = h.sections[kSecGapEdges].bytes / 8 + 1;
  struct Region {
    std::uint64_t offset, bytes;
    std::size_t bins;  // 0 for the header
  };
  const Region regions[] = {
      {0, sizeof(StoreHeader), 0},
      {h.sections[kSecSizeBins].offset, h.sections[kSecSizeBins].bytes,
       size_bins},
      {h.sections[kSecGapBins].offset, h.sections[kSecGapBins].bytes,
       gap_bins}};

  std::vector<std::size_t> every(shared_trace().size());
  for (std::size_t i = 0; i < every.size(); ++i) every[i] = i;

  Rng rng(0x5707e);
  ImageBackend backend;
  int opened = 0;
  int refused = 0;
  for (int m = 0; m < 2000; ++m) {
    const Region& region = regions[m % 3];
    const auto first = clean.begin() + static_cast<std::ptrdiff_t>(region.offset);
    const auto last = first + static_cast<std::ptrdiff_t>(region.bytes);
    std::vector<std::uint8_t> bytes(region.bytes);
    std::memcpy(bytes.data(), &*first, bytes.size());
    mutation::mutate(rng, bytes, [&](std::vector<std::uint8_t>& b,
                                     std::size_t pos) {
      if (region.bins == 0) {
        b[pos] = static_cast<std::uint8_t>(rng.uniform_below(256));
        if (b.size() < sizeof(StoreHeader)) return;
        StoreHeader stomped{};
        std::memcpy(&stomped, b.data(), sizeof stomped);
        stomped.header_fnv1a = 0;
        stomped.header_fnv1a = fnv1a64(&stomped, sizeof stomped);
        std::memcpy(b.data(), &stomped, sizeof stomped);
        return;
      }
      const std::size_t edge[] = {region.bins - 1, region.bins, 0xFF};
      b[pos] = static_cast<std::uint8_t>(edge[rng.uniform_below(3)]);
    });
    backend.image.assign(clean.begin(), first);
    for (const std::uint8_t x : bytes) backend.image.push_back(std::byte{x});
    backend.image.insert(backend.image.end(), last, clean.end());

    auto store = TraceStore::open("mutant " + std::to_string(m), backend);
    if (!store.has_value()) {
      EXPECT_EQ(store.status().code(), StatusCode::kDataLoss)
          << store.status().to_string();
      ++refused;
      continue;
    }
    ++opened;
    const core::BinnedTables t = store->cache().tables();
    for (const std::uint8_t id : t.size_bins) {
      ASSERT_LE(id, t.size_edges.size()) << "mutant " << m;
    }
    for (const std::uint8_t id : t.gap_bins) {
      ASSERT_LE(id, t.gap_edges.size()) << "mutant " << m;
    }
    for (const auto target :
         {core::Target::kPacketSize, core::Target::kInterarrivalTime}) {
      const std::span<const std::size_t> all(
          every.data(), std::min(every.size(), store->packet_count()));
      (void)store->cache().sample_histogram(target, all, 0);
    }
  }
  EXPECT_GT(opened, 0);
  EXPECT_GT(refused, 0);
}

TEST(TraceStore, WriteIsAtomicNoTmpLeftBehind) {
  const std::string path = write_shared_store("netsample_store_atomic.nstore");
  EXPECT_TRUE(std::filesystem::exists(path));
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
}

}  // namespace
}  // namespace netsample::shard
