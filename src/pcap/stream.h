// Streaming pcap I/O: record-at-a-time reading and writing.
//
// The in-memory API (pcap.h) is convenient for experiments; operational
// tools cannot always afford to hold a multi-gigabyte capture. StreamReader
// yields one RawPacket at a time from disk, and StreamWriter appends records
// as they are produced (e.g. by a sampler in a filtering pipeline).
//
// StreamReader frames through the same record framer as parse() and
// read_trace(), under OnCorrupt::kTruncate: it yields exactly the records
// parse() returns for the same bytes. Its memory is one fixed 1 MiB read
// window plus the record being returned; the window grows past that only
// while a single record is larger than it, and then only by bytes actually
// read from the file — a header field never sizes a buffer.
#pragma once

#include <fstream>
#include <memory>
#include <optional>
#include <string>

#include "pcap/pcap.h"

namespace netsample::pcap {

namespace detail {
class CaptureReader;
}

class StreamReader {
 public:
  /// Opens and validates the global header; check ok() before reading.
  explicit StreamReader(const std::string& path);
  ~StreamReader();
  StreamReader(StreamReader&&) noexcept;
  StreamReader& operator=(StreamReader&&) noexcept;

  /// OK, or why the capture could not be opened or read: a failed open or
  /// read() names the path and the errno text (kNotFound), a bad global
  /// header is reported as parse() reports it.
  [[nodiscard]] const Status& status() const;
  [[nodiscard]] bool ok() const { return status().is_ok(); }

  [[nodiscard]] std::uint32_t link_type() const;
  [[nodiscard]] std::uint32_t snaplen() const;
  [[nodiscard]] bool byte_swapped() const;

  /// Next record, or nullopt at end of file / on a torn or implausible
  /// trailing record (parse()'s prefix semantics) / on a read error (then
  /// status() says so). Never throws.
  [[nodiscard]] std::optional<RawPacket> next();

  /// Records returned so far.
  [[nodiscard]] std::uint64_t records_read() const { return records_read_; }

 private:
  std::unique_ptr<detail::CaptureReader> reader_;
  std::uint64_t records_read_{0};
};

class StreamWriter {
 public:
  /// Creates/truncates the file and writes the global header immediately.
  StreamWriter(const std::string& path, std::uint32_t link_type = kLinkTypeRaw,
               std::uint32_t snaplen = 65535);

  [[nodiscard]] const Status& status() const { return status_; }
  [[nodiscard]] bool ok() const { return status_.is_ok(); }

  /// Append one record (data longer than snaplen is truncated; orig_len is
  /// preserved). Returns false once the stream has failed.
  bool write(const RawPacket& record);

  /// Convenience: encode and append a PacketRecord as a raw-IP record.
  bool write_packet(const trace::PacketRecord& packet);

  [[nodiscard]] std::uint64_t records_written() const {
    return records_written_;
  }

  /// Flush buffered output (also happens on destruction).
  void flush() { out_.flush(); }

 private:
  std::ofstream out_;
  Status status_;
  std::uint32_t snaplen_;
  std::uint64_t records_written_{0};
};

}  // namespace netsample::pcap
