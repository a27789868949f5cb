// The one record framer behind every pcap reader (internal).
//
// parse() frames the caller's span; read_trace(), read_file() and
// StreamReader frame a fixed-size read() window over the file. All of them
// go through RecordFramer, so the three OnCorrupt policies, the torn-tail
// rule and ParseStats are one piece of code, and decoding goes through the
// span form of decode_record without copying a record out of the window.
//
// Memory: the window is kWindowBytes and grows only while one record (or,
// during a salvage resync, one candidate record) does not fit in it, by
// bytes actually read — never by a size taken from a header field.
//
// Not re-exported by netsample/netsample.h (docs/API.md, "internal").
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "pcap/pcap.h"

namespace netsample::pcap::detail {

inline constexpr std::size_t kGlobalHeaderSize = 24;
inline constexpr std::size_t kRecordHeaderSize = 16;

/// The read() window of the file readers. 256 KiB to 8 MiB all decode at
/// the same speed; 1 MiB keeps a refill rare next to a record.
inline constexpr std::size_t kWindowBytes = std::size_t{1} << 20;

/// The fields of a validated global header.
struct CaptureHeader {
  std::uint32_t link_type{kLinkTypeRaw};
  std::uint32_t snaplen{65535};
  bool swapped{false};
};

/// Validate the global header at the front of `bytes` (which may be shorter
/// than one: that is kDataLoss naming the length).
[[nodiscard]] StatusOr<CaptureHeader> parse_global_header(
    std::span<const std::uint8_t> bytes);

/// One framed record. `data` points into the framer's input and is valid
/// until the caller changes that input.
struct RecordView {
  MicroTime timestamp;
  std::uint32_t orig_len{0};
  std::span<const std::uint8_t> data;
};

/// A copy of a framed record that outlives the framer's input.
[[nodiscard]] RawPacket copy_record(const RecordView& rec);

/// decode_record over a framed record (the RawPacket overload forwards here).
[[nodiscard]] std::optional<trace::PacketRecord> decode_record(
    const RecordView& raw, std::uint32_t link_type, DecodeStats* stats);

/// Walks record headers with parse()'s rules over a buffer the caller may
/// refill: each call frames from pos(), and asks for more bytes rather than
/// decide on a record (or a resync candidate) that runs past the buffer
/// before the end of the capture.
class RecordFramer {
 public:
  enum class Step {
    kRecord,    // `out` holds the next record
    kNeedMore,  // call again with the same bytes plus more, or with eof
    kEnd,       // no more records; status() says if the capture was refused
  };

  RecordFramer() = default;
  RecordFramer(const CaptureHeader& header, OnCorrupt policy);

  /// `bytes` starts where the caller's buffer starts (pos() is an offset
  /// into it); `eof` says no bytes follow it.
  Step next(std::span<const std::uint8_t> bytes, bool eof, RecordView& out);

  /// Offset in the caller's buffer of the first byte still needed.
  [[nodiscard]] std::size_t pos() const { return pos_; }
  /// The caller dropped the first `n` <= pos() bytes of its buffer.
  void discard(std::size_t n) {
    pos_ -= n;
    base_ += n;
  }
  /// Capture bytes framed so far, counted from the start of the file.
  [[nodiscard]] std::uint64_t offset() const { return base_ + pos_; }

  [[nodiscard]] const ParseStats& stats() const { return stats_; }
  [[nodiscard]] const Status& status() const { return status_; }

 private:
  enum class Verdict { kNo, kYes, kNeedMore };
  Verdict plausible(std::span<const std::uint8_t> bytes, bool eof) const;
  Step end();

  bool swapped_{false};
  std::uint32_t snaplen_{65535};
  std::uint64_t max_incl_len_{0};
  OnCorrupt policy_{OnCorrupt::kTruncate};
  std::size_t pos_{kGlobalHeaderSize};
  std::uint64_t base_{0};
  std::uint32_t prev_ts_sec_{0};
  bool resyncing_{false};
  bool done_{false};
  ParseStats stats_;
  Status status_;
};

/// A capture file framed through the read() window. Opening, reading and
/// framing failures all end up in status(): an I/O error names the path
/// and the errno text and is never a silently shorter capture.
class CaptureReader {
 public:
  CaptureReader(const std::string& path, OnCorrupt policy);
  ~CaptureReader();
  CaptureReader(const CaptureReader&) = delete;
  CaptureReader& operator=(const CaptureReader&) = delete;

  [[nodiscard]] const Status& status() const { return status_; }
  [[nodiscard]] const CaptureHeader& header() const { return header_; }
  [[nodiscard]] const ParseStats& stats() const { return framer_.stats(); }

  /// Next record, or false at the end of the capture or on failure.
  bool next(RecordView& out);

  /// Capture bytes framed so far, and the file's size when it is a regular
  /// file (0 otherwise). The size is a capacity hint, nothing more.
  [[nodiscard]] std::uint64_t offset() const { return framer_.offset(); }
  [[nodiscard]] std::uint64_t size_hint() const { return size_hint_; }

 private:
  bool refill();
  bool read_some();

  std::string path_;
  int fd_{-1};
  std::uint64_t size_hint_{0};
  std::vector<std::uint8_t> window_;
  std::size_t end_{0};  // window_[0, end_) holds bytes read
  bool eof_{false};
  CaptureHeader header_;
  RecordFramer framer_;
  Status status_;
};

}  // namespace netsample::pcap::detail
