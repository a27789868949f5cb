#include "pcap/stream.h"

#include <algorithm>
#include <array>

#include "pcap/framer.h"
#include "util/byteorder.h"

namespace netsample::pcap {

StreamReader::StreamReader(const std::string& path)
    : reader_(std::make_unique<detail::CaptureReader>(path,
                                                      OnCorrupt::kTruncate)) {}

StreamReader::~StreamReader() = default;
StreamReader::StreamReader(StreamReader&&) noexcept = default;
StreamReader& StreamReader::operator=(StreamReader&&) noexcept = default;

const Status& StreamReader::status() const { return reader_->status(); }
std::uint32_t StreamReader::link_type() const {
  return reader_->header().link_type;
}
std::uint32_t StreamReader::snaplen() const {
  return reader_->header().snaplen;
}
bool StreamReader::byte_swapped() const { return reader_->header().swapped; }

std::optional<RawPacket> StreamReader::next() {
  detail::RecordView rec;
  if (!reader_->next(rec)) return std::nullopt;
  ++records_read_;
  return detail::copy_record(rec);
}

StreamWriter::StreamWriter(const std::string& path, std::uint32_t link_type,
                           std::uint32_t snaplen)
    : out_(path, std::ios::binary | std::ios::trunc), snaplen_(snaplen) {
  if (!out_) {
    status_ = Status(StatusCode::kNotFound, "pcap: cannot create '" + path + "'");
    return;
  }
  CaptureFile empty;
  empty.link_type = link_type;
  empty.snaplen = snaplen;
  const auto header = serialize(empty);  // header of an empty capture
  out_.write(reinterpret_cast<const char*>(header.data()),
             static_cast<std::streamsize>(header.size()));
  if (!out_) {
    status_ = Status(StatusCode::kDataLoss, "pcap: header write failed");
  }
}

bool StreamWriter::write(const RawPacket& record) {
  if (!ok()) return false;
  std::array<std::uint8_t, 16> hdr{};
  store_le32(hdr.data(), static_cast<std::uint32_t>(record.timestamp.seconds()));
  store_le32(hdr.data() + 4,
             static_cast<std::uint32_t>(record.timestamp.subsec_usec()));
  const std::uint32_t incl =
      std::min<std::uint32_t>(static_cast<std::uint32_t>(record.data.size()),
                              snaplen_);
  store_le32(hdr.data() + 8, incl);
  store_le32(hdr.data() + 12, record.orig_len);
  out_.write(reinterpret_cast<const char*>(hdr.data()), hdr.size());
  out_.write(reinterpret_cast<const char*>(record.data.data()), incl);
  if (!out_) {
    status_ = Status(StatusCode::kDataLoss, "pcap: record write failed");
    return false;
  }
  ++records_written_;
  return true;
}

bool StreamWriter::write_packet(const trace::PacketRecord& packet) {
  // Reuse the in-memory encoder for a single packet.
  trace::Trace one(std::vector<trace::PacketRecord>{packet});
  const auto file = encode(one, snaplen_);
  return write(file.records.front());
}

}  // namespace netsample::pcap
