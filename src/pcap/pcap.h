// Classic libpcap capture file format, implemented from scratch.
//
// The paper's raw material is a packet-header trace; today such traces ship
// as pcap files. We implement the classic (non-ng) format: a 24-byte global
// header whose magic declares byte order, followed by 16-byte per-record
// headers. Both byte orders are read; files are written in host order with
// magic 0xa1b2c3d4, which any libpcap tool accepts.
//
// Supported link types: LINKTYPE_RAW (packets begin at the IP header) and
// LINKTYPE_ETHERNET (a 14-byte MAC header precedes IP). Decoding a file
// produces a trace::Trace of the IPv4 packets; non-IPv4 records are counted
// and skipped rather than failing the whole file.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "trace/trace.h"
#include "util/status.h"
#include "util/timeval.h"

namespace netsample::pcap {

inline constexpr std::uint32_t kMagicNative = 0xA1B2C3D4u;   // usec timestamps
inline constexpr std::uint32_t kMagicSwapped = 0xD4C3B2A1u;
inline constexpr std::uint16_t kVersionMajor = 2;
inline constexpr std::uint16_t kVersionMinor = 4;

inline constexpr std::uint32_t kLinkTypeEthernet = 1;
inline constexpr std::uint32_t kLinkTypeRaw = 101;  // packets start at the IP header

/// A captured record: timestamp plus the captured bytes (possibly truncated
/// to the file's snaplen; `orig_len` is the untruncated wire length).
struct RawPacket {
  MicroTime timestamp;
  std::uint32_t orig_len{0};
  std::vector<std::uint8_t> data;
};

/// A parsed capture file.
struct CaptureFile {
  std::uint32_t link_type{kLinkTypeRaw};
  std::uint32_t snaplen{65535};
  bool byte_swapped{false};  // file was written on an opposite-endian host
  std::vector<RawPacket> records;
};

/// What to do when a record header is implausible (incl_len far beyond the
/// snaplen — bit flips, mid-file truncation that desynced the framing):
enum class OnCorrupt {
  kTruncate,  // keep the clean prefix, drop the rest (historical default)
  kFail,      // strict: reject the whole capture with kDataLoss
  kSalvage,   // skip the corrupt region, resync on the next plausible
              // record header, and keep reading
};

struct ParseOptions {
  OnCorrupt on_corrupt{OnCorrupt::kTruncate};
};

/// Counters from one parse. `corrupt_records` > 0 means the capture was
/// impaired; in salvage mode `skipped_bytes` says how much of it was
/// discarded while resyncing. A torn trailing record (clean header, data
/// running past EOF) is counted separately — that is a short capture, not a
/// corrupt one.
struct ParseStats {
  std::size_t records{0};
  std::size_t corrupt_records{0};   // implausible headers encountered
  std::size_t skipped_bytes{0};     // bytes discarded while resyncing
  std::size_t torn_tail_bytes{0};   // incomplete trailing record dropped
  [[nodiscard]] bool clean() const {
    return corrupt_records == 0 && skipped_bytes == 0 && torn_tail_bytes == 0;
  }
};

/// Read a capture file from disk: exactly parse() of the file's bytes,
/// framed through a fixed-size read() window instead of a copy of the file.
/// A torn trailing record is dropped and counted (torn_tail_bytes) and the
/// complete prefix returned, so a file holding only a global header is an
/// empty capture, not an error (tools must survive torn captures). A path
/// that cannot be opened or read is kNotFound naming the path and the errno
/// text; a read() error mid-file is that status, never a shorter capture.
[[nodiscard]] StatusOr<CaptureFile> read_file(const std::string& path);
[[nodiscard]] StatusOr<CaptureFile> read_file(const std::string& path,
                                              const ParseOptions& options,
                                              ParseStats* stats = nullptr);

/// Parse a capture file from an in-memory buffer (same semantics). The
/// record-header bound is snaplen + 4096, computed in 64 bits.
[[nodiscard]] StatusOr<CaptureFile> parse(std::span<const std::uint8_t> bytes);
[[nodiscard]] StatusOr<CaptureFile> parse(std::span<const std::uint8_t> bytes,
                                          const ParseOptions& options,
                                          ParseStats* stats = nullptr);

/// Serialize a capture to bytes / write it to disk (host byte order).
[[nodiscard]] std::vector<std::uint8_t> serialize(const CaptureFile& file);
[[nodiscard]] Status write_file(const std::string& path, const CaptureFile& file);

/// Statistics from decoding raw records into PacketRecords.
struct DecodeStats {
  std::size_t decoded{0};
  std::size_t non_ipv4{0};
  std::size_t malformed{0};
  std::size_t out_of_order{0};  // records re-sorted into time order
};

/// Decode one captured record into an IPv4 PacketRecord, applying the same
/// link-type framing rules as decode(): Ethernet headers are stripped (and
/// non-IPv4 ether types rejected) when `link_type` is kLinkTypeEthernet.
/// Returns std::nullopt for non-IPv4 or malformed records, bumping the
/// matching DecodeStats counter when `stats` is given. This forwards to the
/// single decode truth that read_trace() runs on records in its read
/// window, so decode(), read_trace() and the streaming sources
/// (stream::PcapSource) cannot diverge.
[[nodiscard]] std::optional<trace::PacketRecord> decode_record(
    const RawPacket& raw, std::uint32_t link_type, DecodeStats* stats = nullptr);

/// Decode a capture into a Trace of IPv4 PacketRecords. Ethernet framing is
/// stripped when the link type requires it. Records are sorted into
/// timestamp order if needed (some capture stacks emit small reorderings).
[[nodiscard]] trace::Trace decode(const CaptureFile& file,
                                  DecodeStats* stats = nullptr);

/// Encode a Trace back to a capture file: each PacketRecord is synthesized
/// into a wire-format IPv4 packet (with correct checksums and a TCP/UDP/
/// ICMP header matching the record), truncated to `snaplen` captured bytes.
/// Round-tripping encode+decode preserves every PacketRecord field as long
/// as snaplen covers the headers (>= 40 bytes).
[[nodiscard]] CaptureFile encode(const trace::Trace& t,
                                 std::uint32_t snaplen = 65535);

/// Read and decode a capture file: the same Trace, ParseStats, DecodeStats
/// and status as decode(parse(bytes)) of the file, with each record decoded
/// where it lies in the read window. Memory is the window plus the decoded
/// trace; the file size is only a capacity hint, so pipes and FIFOs work.
/// `decode_stats` is written only on success, as decode() never runs on a
/// refused capture.
[[nodiscard]] StatusOr<trace::Trace> read_trace(const std::string& path,
                                                DecodeStats* stats = nullptr);
[[nodiscard]] StatusOr<trace::Trace> read_trace(const std::string& path,
                                                const ParseOptions& options,
                                                ParseStats* parse_stats = nullptr,
                                                DecodeStats* decode_stats = nullptr);
/// Encode a Trace and write it to disk.
[[nodiscard]] Status write_trace(const std::string& path, const trace::Trace& t,
                                 std::uint32_t snaplen = 65535);

}  // namespace netsample::pcap
