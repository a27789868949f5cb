// Robustness property tests for the pcap readers: arbitrary truncation and
// byte corruption must never crash, and truncation must degrade gracefully
// to a clean prefix of the records.
//
// Every input here also runs through the differential check
// expect_paths_agree(): the file path (read_trace, read_file over the read
// window) must return exactly what the in-memory path (decode(parse(bytes)))
// returns under all three OnCorrupt policies, and StreamReader exactly
// parse(kTruncate)'s records.
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <thread>

#include "faultsim/faultsim.h"
#include "net/ipv4.h"
#include "pcap/framer.h"
#include "pcap/pcap.h"
#include "pcap/stream.h"
#include "synth/presets.h"
#include "util/byteorder.h"
#include "util/rng.h"

namespace netsample::pcap {
namespace {

std::vector<std::uint8_t> sample_capture_bytes() {
  synth::TraceModel model(synth::sdsc_minutes_config(0.05, 3));
  return serialize(encode(model.generate(), 96));
}

// ---------------------------------------------------------------------------
// Differential check: file path vs in-memory path
// ---------------------------------------------------------------------------

/// A temp file named after the running test (ctest runs tests in parallel
/// processes) and unique within it, removed on scope exit.
class ScopedFile {
 public:
  explicit ScopedFile(const std::vector<std::uint8_t>& bytes) {
    static int serial = 0;
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    std::string name = std::string("netsample_") + info->test_suite_name() +
                       "_" + info->name() + "_" + std::to_string(::getpid()) +
                       "_" + std::to_string(serial++) + ".pcap";
    for (char& c : name) {
      if (c == '/') c = '_';
    }
    path_ = (std::filesystem::temp_directory_path() / name).string();
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
  }
  ~ScopedFile() { std::remove(path_.c_str()); }
  ScopedFile(const ScopedFile&) = delete;
  ScopedFile& operator=(const ScopedFile&) = delete;

  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
};

const char* policy_name(OnCorrupt policy) {
  switch (policy) {
    case OnCorrupt::kTruncate: return "truncate";
    case OnCorrupt::kFail: return "fail";
    case OnCorrupt::kSalvage: return "salvage";
  }
  return "?";
}

void expect_same(const ParseStats& file, const ParseStats& mem) {
  EXPECT_EQ(file.records, mem.records);
  EXPECT_EQ(file.corrupt_records, mem.corrupt_records);
  EXPECT_EQ(file.skipped_bytes, mem.skipped_bytes);
  EXPECT_EQ(file.torn_tail_bytes, mem.torn_tail_bytes);
}

void expect_same(const DecodeStats& file, const DecodeStats& mem) {
  EXPECT_EQ(file.decoded, mem.decoded);
  EXPECT_EQ(file.non_ipv4, mem.non_ipv4);
  EXPECT_EQ(file.malformed, mem.malformed);
  EXPECT_EQ(file.out_of_order, mem.out_of_order);
}

void expect_same(const Status& file, const Status& mem) {
  EXPECT_EQ(file.code(), mem.code());
  EXPECT_EQ(file.message(), mem.message());
}

bool same_record(const RawPacket& a, const RawPacket& b) {
  return a.timestamp == b.timestamp && a.orig_len == b.orig_len &&
         a.data == b.data;
}

void expect_same(const CaptureFile& file, const CaptureFile& mem) {
  EXPECT_EQ(file.link_type, mem.link_type);
  EXPECT_EQ(file.snaplen, mem.snaplen);
  EXPECT_EQ(file.byte_swapped, mem.byte_swapped);
  ASSERT_EQ(file.records.size(), mem.records.size());
  for (std::size_t i = 0; i < mem.records.size(); ++i) {
    ASSERT_TRUE(same_record(file.records[i], mem.records[i])) << "record " << i;
  }
}

void expect_same(const trace::Trace& file, const trace::Trace& mem) {
  ASSERT_EQ(file.size(), mem.size());
  for (std::size_t i = 0; i < mem.size(); ++i) {
    ASSERT_EQ(file[i], mem[i]) << "packet " << i;
  }
}

/// StreamReader must yield exactly parse(kTruncate)'s records, or fail to
/// open exactly as parse() fails.
void expect_stream_matches(const std::string& path,
                           const StatusOr<CaptureFile>& parsed) {
  StreamReader reader(path);
  if (!parsed) {
    EXPECT_FALSE(reader.ok());
    expect_same(reader.status(), parsed.status());
    EXPECT_FALSE(reader.next().has_value());
    return;
  }
  ASSERT_TRUE(reader.ok()) << reader.status().to_string();
  EXPECT_EQ(reader.link_type(), parsed->link_type);
  EXPECT_EQ(reader.snaplen(), parsed->snaplen);
  EXPECT_EQ(reader.byte_swapped(), parsed->byte_swapped);
  std::size_t i = 0;
  while (auto rec = reader.next()) {
    ASSERT_LT(i, parsed->records.size());
    ASSERT_TRUE(same_record(*rec, parsed->records[i])) << "record " << i;
    ++i;
  }
  EXPECT_EQ(i, parsed->records.size());
  EXPECT_EQ(reader.records_read(), parsed->records.size());
  EXPECT_TRUE(reader.ok()) << reader.status().to_string();
}

/// The differential property, for one capture image under every policy.
void expect_paths_agree(const std::vector<std::uint8_t>& bytes) {
  const ScopedFile file(bytes);
  for (const OnCorrupt policy :
       {OnCorrupt::kTruncate, OnCorrupt::kFail, OnCorrupt::kSalvage}) {
    SCOPED_TRACE(policy_name(policy));
    ParseOptions options;
    options.on_corrupt = policy;

    ParseStats mem_ps;
    const auto parsed = parse(bytes, options, &mem_ps);

    ParseStats file_ps;
    DecodeStats file_ds;
    const auto traced = read_trace(file.path(), options, &file_ps, &file_ds);
    expect_same(file_ps, mem_ps);
    ASSERT_EQ(traced.has_value(), parsed.has_value());
    if (parsed) {
      DecodeStats mem_ds;
      const auto decoded = decode(*parsed, &mem_ds);
      expect_same(file_ds, mem_ds);
      expect_same(*traced, decoded);
    } else {
      expect_same(traced.status(), parsed.status());
    }

    ParseStats raw_ps;
    const auto raw = read_file(file.path(), options, &raw_ps);
    expect_same(raw_ps, mem_ps);
    ASSERT_EQ(raw.has_value(), parsed.has_value());
    if (parsed) {
      expect_same(*raw, *parsed);
    } else {
      expect_same(raw.status(), parsed.status());
    }

    if (policy == OnCorrupt::kTruncate) expect_stream_matches(file.path(), parsed);
  }
}

class TruncationTest : public ::testing::TestWithParam<int> {};

TEST_P(TruncationTest, TruncatedFilesParseToCleanPrefix) {
  static const std::vector<std::uint8_t> whole = sample_capture_bytes();
  const auto full = parse(whole);
  ASSERT_TRUE(full.has_value());
  const std::size_t full_records = full->records.size();
  ASSERT_GT(full_records, 10u);

  // Truncate at a pseudo-random point determined by the parameter.
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  const std::size_t cut = rng.uniform_below(whole.size());
  std::vector<std::uint8_t> torn(whole.begin(),
                                 whole.begin() + static_cast<long>(cut));
  const auto parsed = parse(torn);
  if (cut < 24) {
    EXPECT_FALSE(parsed.has_value());
    expect_paths_agree(torn);
    return;
  }
  ASSERT_TRUE(parsed.has_value());
  EXPECT_LE(parsed->records.size(), full_records);
  // Every surviving record must equal the corresponding full record.
  for (std::size_t i = 0; i < parsed->records.size(); ++i) {
    EXPECT_EQ(parsed->records[i].timestamp, full->records[i].timestamp);
    EXPECT_EQ(parsed->records[i].data, full->records[i].data);
  }
  // Decoding the prefix must also succeed without throwing.
  DecodeStats stats;
  EXPECT_NO_THROW((void)decode(*parsed, &stats));
  expect_paths_agree(torn);
}

INSTANTIATE_TEST_SUITE_P(Cuts, TruncationTest, ::testing::Range(0, 24));

class CorruptionTest : public ::testing::TestWithParam<int> {};

TEST_P(CorruptionTest, RandomByteFlipsNeverCrash) {
  static const std::vector<std::uint8_t> whole = sample_capture_bytes();
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 1);
  std::vector<std::uint8_t> corrupted = whole;
  // Flip up to 16 random bytes.
  const int flips = 1 + static_cast<int>(rng.uniform_below(16));
  for (int i = 0; i < flips; ++i) {
    const std::size_t pos = rng.uniform_below(corrupted.size());
    corrupted[pos] ^= static_cast<std::uint8_t>(1 + rng.uniform_below(255));
  }
  const auto parsed = parse(corrupted);
  if (parsed.has_value()) {
    DecodeStats stats;
    const auto t = decode(*parsed, &stats);
    // Whatever decodes must satisfy the trace invariant (time-ordered).
    for (std::size_t i = 1; i < t.size(); ++i) {
      EXPECT_LE(t[i - 1].timestamp.usec, t[i].timestamp.usec);
    }
  }
  // No value is fine too (corrupted magic/version); the property is no
  // crash, no exception from parse.
  expect_paths_agree(corrupted);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CorruptionTest, ::testing::Range(0, 16));

TEST(PcapRobustness, HeaderOnlyFileIsEmptyCapture) {
  const auto whole = sample_capture_bytes();
  std::vector<std::uint8_t> header_only(whole.begin(), whole.begin() + 24);
  const auto parsed = parse(header_only);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(parsed->records.empty());
  expect_paths_agree(header_only);
}

TEST(PcapRobustness, RecordClaimingHugeLengthStopsCleanly) {
  auto whole = sample_capture_bytes();
  // Overwrite the first record's incl_len with a huge value.
  whole[24 + 8] = 0xFF;
  whole[24 + 9] = 0xFF;
  whole[24 + 10] = 0xFF;
  whole[24 + 11] = 0x7F;
  const auto parsed = parse(whole);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(parsed->records.empty());  // torn at record 0, prefix is empty
  expect_paths_agree(whole);
}

// ---------------------------------------------------------------------------
// OnCorrupt policies: strict rejection vs salvage resync
// ---------------------------------------------------------------------------

/// Stomp record `n`'s incl_len with garbage (framing stays aligned because
/// the original length is remembered by the caller walking the clean file).
std::vector<std::uint8_t> with_stomped_record(std::size_t n) {
  auto bytes = sample_capture_bytes();
  std::size_t off = 24;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t incl = static_cast<std::uint32_t>(bytes[off + 8]) |
                               (static_cast<std::uint32_t>(bytes[off + 9]) << 8) |
                               (static_cast<std::uint32_t>(bytes[off + 10]) << 16) |
                               (static_cast<std::uint32_t>(bytes[off + 11]) << 24);
    off += 16 + incl;
  }
  bytes[off + 8] = 0xEF;
  bytes[off + 9] = 0xBE;
  bytes[off + 10] = 0xAD;
  bytes[off + 11] = 0xDE;
  return bytes;
}

TEST(PcapSalvage, StrictModeRejectsWithDataLoss) {
  const auto corrupted = with_stomped_record(5);
  ParseOptions options;
  options.on_corrupt = OnCorrupt::kFail;
  const auto parsed = parse(corrupted, options);
  ASSERT_FALSE(parsed.has_value());
  EXPECT_EQ(parsed.status().code(), StatusCode::kDataLoss);
  expect_paths_agree(corrupted);
}

TEST(PcapSalvage, StrictModeAcceptsCleanCapture) {
  const auto whole = sample_capture_bytes();
  ParseOptions options;
  options.on_corrupt = OnCorrupt::kFail;
  ParseStats stats;
  const auto parsed = parse(whole, options, &stats);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(stats.clean());
  EXPECT_EQ(stats.records, parsed->records.size());
}

TEST(PcapSalvage, SalvageResyncsPastCorruptHeader) {
  const auto full = parse(sample_capture_bytes());
  ASSERT_TRUE(full.has_value());
  const auto corrupted = with_stomped_record(5);

  // Default (truncate) keeps only the 5-record clean prefix...
  ParseStats tstats;
  const auto prefix = parse(corrupted, ParseOptions{}, &tstats);
  ASSERT_TRUE(prefix.has_value());
  EXPECT_EQ(prefix->records.size(), 5u);
  EXPECT_EQ(tstats.corrupt_records, 1u);

  // ...while salvage skips the damage and keeps reading. Resync may false-
  // sync inside the orphaned record's payload (packet bytes can look like a
  // plausible header), so the guarantee is recovery well beyond the prefix
  // with the damage accounted, not byte-exact record identity.
  ParseOptions options;
  options.on_corrupt = OnCorrupt::kSalvage;
  ParseStats sstats;
  const auto salvaged = parse(corrupted, options, &sstats);
  ASSERT_TRUE(salvaged.has_value());
  EXPECT_GE(sstats.corrupt_records, 1u);
  EXPECT_GT(sstats.skipped_bytes, 0u);
  EXPECT_GT(salvaged->records.size(), prefix->records.size());
  // False syncs can also split the orphaned payload into a few bogus
  // records, so the count may slightly exceed the clean total.
  EXPECT_LT(salvaged->records.size(), full->records.size() + 16);
  // The clean prefix is still read exactly.
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(salvaged->records[i].data, full->records[i].data);
  }
  EXPECT_NO_THROW((void)decode(*salvaged));
  expect_paths_agree(corrupted);
}

TEST(PcapSalvage, SalvageNeverThrowsOnArbitraryCorruption) {
  const auto whole = sample_capture_bytes();
  ParseOptions options;
  options.on_corrupt = OnCorrupt::kSalvage;
  for (int seed = 0; seed < 16; ++seed) {
    Rng rng(static_cast<std::uint64_t>(seed) * 104729 + 13);
    auto corrupted = whole;
    const int flips = 1 + static_cast<int>(rng.uniform_below(64));
    for (int i = 0; i < flips; ++i) {
      const std::size_t pos = rng.uniform_below(corrupted.size());
      corrupted[pos] ^= static_cast<std::uint8_t>(1 + rng.uniform_below(255));
    }
    EXPECT_NO_THROW({
      ParseStats stats;
      const auto parsed = parse(corrupted, options, &stats);
      if (parsed.has_value()) (void)decode(*parsed);
    });
    expect_paths_agree(corrupted);
  }
}

TEST(PcapSalvage, SalvageOnCleanCaptureIsExact) {
  const auto whole = sample_capture_bytes();
  const auto full = parse(whole);
  ASSERT_TRUE(full.has_value());
  ParseOptions options;
  options.on_corrupt = OnCorrupt::kSalvage;
  ParseStats stats;
  const auto salvaged = parse(whole, options, &stats);
  ASSERT_TRUE(salvaged.has_value());
  EXPECT_TRUE(stats.clean());
  ASSERT_EQ(salvaged->records.size(), full->records.size());
  for (std::size_t i = 0; i < full->records.size(); ++i) {
    EXPECT_EQ(salvaged->records[i].data, full->records[i].data);
  }
  expect_paths_agree(whole);
}

TEST(PcapSalvage, TornTailIsCountedSeparatelyFromCorruption) {
  const auto whole = sample_capture_bytes();
  // Chop mid-way through the last record's data.
  std::vector<std::uint8_t> torn(whole.begin(), whole.end() - 7);
  ParseOptions options;
  options.on_corrupt = OnCorrupt::kSalvage;
  ParseStats stats;
  const auto parsed = parse(torn, options, &stats);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(stats.corrupt_records, 0u);
  EXPECT_GT(stats.torn_tail_bytes, 0u);
  EXPECT_FALSE(stats.clean());
  expect_paths_agree(torn);
}

// ---------------------------------------------------------------------------
// Differential tier: windowed file path vs in-memory path
// ---------------------------------------------------------------------------

void put_u16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  std::uint8_t b[2];
  store_le16(b, v);
  out.insert(out.end(), b, b + 2);
}

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  std::uint8_t b[4];
  store_le32(b, v);
  out.insert(out.end(), b, b + 4);
}

/// A raw-IP global header with the given snaplen.
std::vector<std::uint8_t> global_header(std::uint32_t snaplen) {
  std::vector<std::uint8_t> out;
  put_u32(out, kMagicNative);
  put_u16(out, kVersionMajor);
  put_u16(out, kVersionMinor);
  put_u32(out, 0);
  put_u32(out, 0);
  put_u32(out, snaplen);
  put_u32(out, kLinkTypeRaw);
  return out;
}

void put_record_header(std::vector<std::uint8_t>& out, std::uint32_t ts_sec,
                       std::uint32_t incl_len, std::uint32_t orig_len) {
  put_u32(out, ts_sec);
  put_u32(out, 0);
  put_u32(out, incl_len);
  put_u32(out, orig_len);
}

/// A minimal IPv4 header (UDP, no payload) padded with zeros to `len`.
std::vector<std::uint8_t> ipv4_bytes(std::size_t len) {
  std::vector<std::uint8_t> ip = {0x45, 0,    0,    20,   0, 0, 0, 0, 64, 17,
                                  0,    0,    10,   0,    0, 1, 10, 0, 0, 2};
  ip.resize(std::max<std::size_t>(len, ip.size()), 0);
  return ip;
}

/// Offsets of every record header in a clean little-endian capture.
std::vector<std::size_t> record_offsets(const std::vector<std::uint8_t>& bytes) {
  std::vector<std::size_t> offsets;
  std::size_t off = detail::kGlobalHeaderSize;
  while (off + detail::kRecordHeaderSize <= bytes.size()) {
    const std::uint32_t incl = load_le32(bytes.data() + off + 8);
    if (off + detail::kRecordHeaderSize + incl > bytes.size()) break;
    offsets.push_back(off);
    off += detail::kRecordHeaderSize + incl;
  }
  return offsets;
}

std::vector<std::uint8_t> small_capture_bytes(std::uint64_t seed) {
  synth::TraceModel model(synth::sdsc_minutes_config(0.05, seed));
  const auto t = model.generate();
  const auto packets = t.packets();
  const std::size_t n = std::min<std::size_t>(packets.size(), 48);
  return serialize(encode(
      trace::Trace(std::vector<trace::PacketRecord>(packets.begin(),
                                                    packets.begin() + n)),
      96));
}

/// An Ethernet capture with IPv6 frames, a runt frame and a reordering, so
/// every DecodeStats counter is non-zero.
std::vector<std::uint8_t> ethernet_capture_bytes() {
  CaptureFile file = parse(small_capture_bytes(5)).value();
  file.link_type = kLinkTypeEthernet;
  file.snaplen += 14;
  for (std::size_t i = 0; i < file.records.size(); ++i) {
    auto& rec = file.records[i];
    const bool ipv6 = i % 7 == 3;
    std::vector<std::uint8_t> frame(14, 0xEE);
    frame[12] = ipv6 ? 0x86 : 0x08;
    frame[13] = ipv6 ? 0xDD : 0x00;
    frame.insert(frame.end(), rec.data.begin(), rec.data.end());
    rec.data = std::move(frame);
    rec.orig_len += 14;
  }
  file.records[9].data.resize(10);  // runt: shorter than a MAC header
  std::swap(file.records[5].timestamp, file.records[6].timestamp);
  return serialize(file);
}

/// The same capture as written by an opposite-endian host.
std::vector<std::uint8_t> byte_swapped(std::vector<std::uint8_t> bytes) {
  const auto offsets = record_offsets(bytes);
  const auto swap32 = [&](std::size_t at) {
    store_be32(bytes.data() + at, load_le32(bytes.data() + at));
  };
  const auto swap16 = [&](std::size_t at) {
    store_be16(bytes.data() + at, load_le16(bytes.data() + at));
  };
  for (const std::size_t at : {0, 8, 12, 16, 20}) swap32(at);
  swap16(4);
  swap16(6);
  for (const std::size_t off : offsets) {
    for (std::size_t f = 0; f < 16; f += 4) swap32(off + f);
  }
  return bytes;
}

TEST(PcapDifferential, EthernetCaptureAgreesOnEveryPath) {
  const auto bytes = ethernet_capture_bytes();
  DecodeStats ds;
  ASSERT_TRUE(read_trace(ScopedFile(bytes).path(), &ds).has_value());
  EXPECT_GT(ds.non_ipv4, 0u);
  EXPECT_EQ(ds.malformed, 1u);
  EXPECT_EQ(ds.out_of_order, 1u);
  expect_paths_agree(bytes);
}

TEST(PcapDifferential, ByteSwappedCaptureAgreesOnEveryPath) {
  const auto native = small_capture_bytes(9);
  const auto swapped = byte_swapped(native);
  const auto a = parse(native);
  const auto b = parse(swapped);
  ASSERT_TRUE(a.has_value() && b.has_value());
  EXPECT_TRUE(b->byte_swapped);
  EXPECT_EQ(decode(*a).size(), decode(*b).size());
  expect_paths_agree(swapped);
  expect_paths_agree(byte_swapped(ethernet_capture_bytes()));
}

// A capture several read windows long, with corrupt headers placed so that
// salvage resyncs run across window refills — including ones whose record
// starts in one window and ends in the next — and a first corrupt header
// past several refills, so kFail's byte offset counts the dropped windows.
TEST(PcapDifferential, MultiWindowCaptureWithResyncAcrossRefills) {
  synth::TraceModel model(synth::sdsc_minutes_config(1.5, 17));
  const auto clean = serialize(encode(model.generate(), 128));
  ASSERT_GT(clean.size(), 3 * detail::kWindowBytes);
  expect_paths_agree(clean);

  const auto offsets = record_offsets(clean);
  const auto last_header_before = [&](std::size_t edge) {
    std::size_t last = 0;
    for (const std::size_t off : offsets) {
      if (off + detail::kRecordHeaderSize > edge) break;
      last = off;
    }
    return last;
  };
  std::vector<std::size_t> edges;
  for (std::size_t w = 1; w <= 3; ++w) {
    edges.push_back(last_header_before(w * detail::kWindowBytes));
  }
  std::vector<std::size_t> periodic = edges;
  for (std::size_t i = 97; i < offsets.size(); i += 997) {
    periodic.push_back(offsets[i]);
  }
  std::vector<std::size_t> late = {
      last_header_before(detail::kWindowBytes * 5 / 2)};
  for (const auto* stomp : {&edges, &periodic, &late}) {
    auto bytes = clean;
    for (const std::size_t off : *stomp) {
      store_le32(bytes.data() + off + 8, 0xDEADBEEF);
    }
    ParseOptions salvage;
    salvage.on_corrupt = OnCorrupt::kSalvage;
    ParseStats stats;
    ASSERT_TRUE(parse(bytes, salvage, &stats).has_value());
    // False syncs inside orphaned payloads can add corrupt headers of their
    // own.
    EXPECT_GE(stats.corrupt_records, stomp->size());
    expect_paths_agree(bytes);
  }
}

// One record larger than the read window: the window grows to hold it (by
// bytes actually read) and the record decodes like any other.
TEST(PcapDifferential, RecordLargerThanTheWindowIsRead) {
  const std::uint32_t big = static_cast<std::uint32_t>(detail::kWindowBytes * 5 / 2);
  auto bytes = global_header(big);
  put_record_header(bytes, 1, 20, 20);
  const auto small = ipv4_bytes(20);
  bytes.insert(bytes.end(), small.begin(), small.end());
  put_record_header(bytes, 2, big, big);
  const auto large = ipv4_bytes(big);
  bytes.insert(bytes.end(), large.begin(), large.end());
  put_record_header(bytes, 3, 20, 20);
  bytes.insert(bytes.end(), small.begin(), small.end());
  const auto t = read_trace(ScopedFile(bytes).path());
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->size(), 3u);
  expect_paths_agree(bytes);
}

TEST(PcapDifferential, FaultsimByteImpairmentsAgreeOnEveryPath) {
  const auto clean = sample_capture_bytes();
  for (const auto fault :
       {faultsim::Fault::kTruncateRecords, faultsim::Fault::kBitFlips}) {
    for (const double intensity : {0.01, 0.1, 0.5}) {
      for (const std::uint64_t seed : {1, 2}) {
        SCOPED_TRACE(std::string(faultsim::fault_name(fault)) + " " +
                     std::to_string(intensity) + " seed " +
                     std::to_string(seed));
        auto bytes = clean;
        faultsim::ImpairmentSpec spec;
        spec.fault = fault;
        spec.intensity = intensity;
        spec.seed = seed;
        (void)faultsim::impair_pcap_bytes(bytes, spec);
        expect_paths_agree(bytes);
      }
    }
  }
}

// Deterministic mutation loop: a fixed seed and a fixed budget of mutants
// (8 shards x 250), each one to three flips, inserts, deletes or header-
// field stomps over a small raw, Ethernet or byte-swapped capture. Every
// mutant must agree across paths under every policy, and never crash.
class PcapMutationTest : public ::testing::TestWithParam<int> {};

TEST_P(PcapMutationTest, MutantsAgreeOnEveryPath) {
  const std::vector<std::vector<std::uint8_t>> bases = {
      small_capture_bytes(3), ethernet_capture_bytes(),
      byte_swapped(small_capture_bytes(4))};
  std::vector<std::vector<std::size_t>> fields(bases.size());
  for (std::size_t b = 0; b < bases.size(); ++b) {
    fields[b] = {0, 4, 16, 20};  // magic, version, snaplen, link type
    for (const std::size_t off : record_offsets(b == 2 ? small_capture_bytes(4)
                                                       : bases[b])) {
      for (std::size_t f = 0; f < 16; f += 4) fields[b].push_back(off + f);
    }
  }
  const std::uint32_t stomps[] = {0,          1,          20,         96,
                                  96 + 4096,  96 + 4097,  999999,     1000000,
                                  0x7FFFFFFF, 0xF0000000, 0xFFFF0000, 0xFFFFFFFF};

  Rng rng(0x5eed0000u + static_cast<std::uint64_t>(GetParam()));
  for (int m = 0; m < 250; ++m) {
    const std::size_t b = rng.uniform_below(bases.size());
    auto bytes = bases[b];
    const int edits = 1 + static_cast<int>(rng.uniform_below(3));
    for (int e = 0; e < edits && !bytes.empty(); ++e) {
      const std::size_t pos = rng.uniform_below(bytes.size());
      switch (rng.uniform_below(4)) {
        case 0:  // flip
          bytes[pos] ^= static_cast<std::uint8_t>(1 + rng.uniform_below(255));
          break;
        case 1: {  // insert
          const std::size_t n = 1 + rng.uniform_below(32);
          std::vector<std::uint8_t> junk(n);
          for (auto& x : junk) x = static_cast<std::uint8_t>(rng.uniform_below(256));
          bytes.insert(bytes.begin() + static_cast<std::ptrdiff_t>(pos),
                       junk.begin(), junk.end());
          break;
        }
        case 2: {  // delete
          const std::size_t n =
              std::min<std::size_t>(1 + rng.uniform_below(32), bytes.size() - pos);
          bytes.erase(bytes.begin() + static_cast<std::ptrdiff_t>(pos),
                      bytes.begin() + static_cast<std::ptrdiff_t>(pos + n));
          break;
        }
        default: {  // header-field stomp, in either byte order
          const std::size_t at = fields[b][rng.uniform_below(fields[b].size())];
          if (at + 4 > bytes.size()) break;
          const std::uint32_t v =
              rng.bernoulli(0.25)
                  ? static_cast<std::uint32_t>(rng.uniform_below(1ull << 32))
                  : stomps[rng.uniform_below(std::size(stomps))];
          if (rng.bernoulli(0.5)) {
            store_le32(bytes.data() + at, v);
          } else {
            store_be32(bytes.data() + at, v);
          }
          break;
        }
      }
    }
    SCOPED_TRACE("mutant " + std::to_string(m) + " of shard " +
                 std::to_string(GetParam()));
    expect_paths_agree(bytes);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

INSTANTIATE_TEST_SUITE_P(Shards, PcapMutationTest, ::testing::Range(0, 8));

// ---------------------------------------------------------------------------
// Hostile headers and unreadable paths
// ---------------------------------------------------------------------------

/// 140 bytes: snaplen 0xFFFF0000, one 20-byte IPv4 record, then a record
/// header claiming incl_len 0xF0000000 followed by only 64 bytes.
std::vector<std::uint8_t> hostile_snaplen_capture() {
  auto bytes = global_header(0xFFFF0000u);
  put_record_header(bytes, 1, 20, 20);
  const auto ip = ipv4_bytes(20);
  bytes.insert(bytes.end(), ip.begin(), ip.end());
  put_record_header(bytes, 2, 0xF0000000u, 0xF0000000u);
  bytes.resize(bytes.size() + 64, 0xAB);
  return bytes;
}

// No reader may size a buffer from incl_len: the claim is a torn tail, read
// with a window's worth of memory.
TEST(PcapHostileHeader, HugeInclLenUnderHugeSnaplenIsATornTail) {
  const auto bytes = hostile_snaplen_capture();
  ASSERT_EQ(bytes.size(), 140u);
  const ScopedFile file(bytes);
  ParseStats ps;
  DecodeStats ds;
  const auto t = read_trace(file.path(), ParseOptions{}, &ps, &ds);
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->size(), 1u);
  EXPECT_EQ(ps.records, 1u);
  EXPECT_EQ(ps.corrupt_records, 0u);
  EXPECT_EQ(ps.torn_tail_bytes, 80u);

  StreamReader reader(file.path());
  ASSERT_TRUE(reader.ok());
  EXPECT_TRUE(reader.next().has_value());
  EXPECT_FALSE(reader.next().has_value());
  EXPECT_TRUE(reader.ok());
  expect_paths_agree(bytes);
}

// snaplen + 4096 must be computed in 64 bits: with snaplen 0xFFFFFFFF a
// 32-bit sum wraps to 4095 and rejects an honest 5000-byte record.
TEST(PcapHostileHeader, SnaplenNearTwoToThe32DoesNotWrapTheBound) {
  auto bytes = global_header(0xFFFFFFFFu);
  put_record_header(bytes, 1, 5000, 5000);
  const auto ip = ipv4_bytes(5000);
  bytes.insert(bytes.end(), ip.begin(), ip.end());
  for (const OnCorrupt policy :
       {OnCorrupt::kTruncate, OnCorrupt::kFail, OnCorrupt::kSalvage}) {
    SCOPED_TRACE(policy_name(policy));
    ParseOptions options;
    options.on_corrupt = policy;
    ParseStats ps;
    const auto t = read_trace(ScopedFile(bytes).path(), options, &ps);
    ASSERT_TRUE(t.has_value()) << t.status().to_string();
    EXPECT_EQ(t->size(), 1u);
    EXPECT_TRUE(ps.clean());
  }
  expect_paths_agree(bytes);
}

// A path that opens but cannot be read (a directory) is a status naming the
// path and the errno text on every file path, never an exception or a
// silently empty capture.
TEST(PcapReader, UnreadablePathIsAStatus) {
  const std::string dir = std::filesystem::temp_directory_path().string();
  const std::string eisdir = std::strerror(EISDIR);
  const auto t = read_trace(dir);
  ASSERT_FALSE(t.has_value());
  EXPECT_EQ(t.status().code(), StatusCode::kNotFound);
  EXPECT_NE(t.status().message().find("'" + dir + "'"), std::string::npos);
  EXPECT_NE(t.status().message().find(eisdir), std::string::npos);
  const auto f = read_file(dir);
  ASSERT_FALSE(f.has_value());
  expect_same(f.status(), t.status());
  StreamReader reader(dir);
  EXPECT_FALSE(reader.ok());
  expect_same(reader.status(), t.status());
  EXPECT_FALSE(reader.next().has_value());

  const auto missing = read_trace(dir + "/netsample_no_such_capture.pcap");
  ASSERT_FALSE(missing.has_value());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
  EXPECT_NE(missing.status().message().find(std::strerror(ENOENT)),
            std::string::npos);
}

// st_size is only a capacity hint: a FIFO (no size, short reads) reads
// exactly like the file.
TEST(PcapReader, FifoReadsLikeAFile) {
  const auto bytes = sample_capture_bytes();
  const ScopedFile file(bytes);
  const std::string fifo = file.path() + ".fifo";
  ASSERT_EQ(::mkfifo(fifo.c_str(), 0600), 0) << std::strerror(errno);
  std::thread writer([&] {
    const int fd = ::open(fifo.c_str(), O_WRONLY);
    if (fd < 0) return;
    for (std::size_t off = 0; off < bytes.size();) {
      const std::size_t n = std::min<std::size_t>(4099, bytes.size() - off);
      const ssize_t w = ::write(fd, bytes.data() + off, n);
      if (w <= 0) break;
      off += static_cast<std::size_t>(w);
    }
    ::close(fd);
  });
  ParseStats ps;
  DecodeStats ds;
  const auto t = read_trace(fifo, ParseOptions{}, &ps, &ds);
  writer.join();
  std::remove(fifo.c_str());
  ASSERT_TRUE(t.has_value()) << t.status().to_string();
  ParseStats file_ps;
  DecodeStats file_ds;
  const auto expected = read_trace(file.path(), ParseOptions{}, &file_ps, &file_ds);
  ASSERT_TRUE(expected.has_value());
  expect_same(ps, file_ps);
  expect_same(ds, file_ds);
  expect_same(*t, *expected);
}

}  // namespace
}  // namespace netsample::pcap
