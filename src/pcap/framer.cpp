#include "pcap/framer.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "net/headers.h"
#include "util/byteorder.h"

namespace netsample::pcap::detail {

namespace {

constexpr std::size_t kEthernetHeaderSize = 14;
constexpr std::uint16_t kEtherTypeIpv4 = 0x0800;

// A record whose claimed capture length is this far past the snaplen is
// framing garbage (bit flip or desync), not a generous writer. The bound is
// computed in 64 bits: a snaplen near 2^32 must not wrap it to a few KiB.
constexpr std::uint64_t kInclLenSlack = 4096;

// Salvage resync: clock jumps this large between adjacent records mark a
// candidate header as implausible. Generous on purpose — the goal is to
// reject random garbage, not to police real monitor clocks (decode sorts
// small reorderings anyway).
constexpr std::uint32_t kMaxResyncClockJumpSec = 86400;

std::uint32_t read_u32(const std::uint8_t* p, bool swapped) {
  return swapped ? load_be32(p) : load_le32(p);
}

std::uint16_t read_u16(const std::uint8_t* p, bool swapped) {
  return swapped ? load_be16(p) : load_le16(p);
}

Status io_error(const char* what, const std::string& path, int err) {
  return Status(StatusCode::kNotFound, std::string("pcap: cannot ") + what +
                                           " '" + path +
                                           "': " + std::strerror(err));
}

}  // namespace

StatusOr<CaptureHeader> parse_global_header(
    std::span<const std::uint8_t> bytes) {
  if (bytes.size() < kGlobalHeaderSize) {
    return Status(StatusCode::kDataLoss,
                  "pcap: file shorter than global header (" +
                      std::to_string(bytes.size()) + " bytes)");
  }
  // The magic is stored in the writer's host order; reading it little-endian
  // and seeing the swapped constant means the writer was big-endian.
  const std::uint32_t magic_le = load_le32(bytes.data());
  CaptureHeader header;
  if (magic_le == kMagicNative) {
    header.swapped = false;
  } else if (magic_le == kMagicSwapped) {
    header.swapped = true;
  } else {
    return Status(StatusCode::kInvalidArgument,
                  "pcap: bad magic (not a classic pcap file)");
  }
  const std::uint16_t major = read_u16(bytes.data() + 4, header.swapped);
  if (major != kVersionMajor) {
    return Status(StatusCode::kUnimplemented,
                  "pcap: unsupported version " + std::to_string(major));
  }
  header.snaplen = read_u32(bytes.data() + 16, header.swapped);
  header.link_type = read_u32(bytes.data() + 20, header.swapped);
  return header;
}

RawPacket copy_record(const RecordView& rec) {
  return RawPacket{rec.timestamp, rec.orig_len,
                   std::vector<std::uint8_t>(rec.data.begin(), rec.data.end())};
}

std::optional<trace::PacketRecord> decode_record(const RecordView& raw,
                                                 std::uint32_t link_type,
                                                 DecodeStats* stats) {
  DecodeStats scratch;
  DecodeStats& s = stats != nullptr ? *stats : scratch;

  std::span<const std::uint8_t> ip_bytes = raw.data;
  if (link_type == kLinkTypeEthernet) {
    if (ip_bytes.size() < kEthernetHeaderSize) {
      ++s.malformed;
      return std::nullopt;
    }
    const std::uint16_t ether_type = load_be16(ip_bytes.data() + 12);
    if (ether_type != kEtherTypeIpv4) {
      ++s.non_ipv4;
      return std::nullopt;
    }
    ip_bytes = ip_bytes.subspan(kEthernetHeaderSize);
  }

  auto ip = net::parse_ipv4(ip_bytes);
  if (!ip) {
    if (ip.status().code() == StatusCode::kInvalidArgument) {
      ++s.non_ipv4;
    } else {
      ++s.malformed;
    }
    return std::nullopt;
  }

  trace::PacketRecord rec;
  rec.timestamp = raw.timestamp;
  rec.size = ip->total_length;
  rec.protocol = ip->protocol;
  rec.src = ip->src;
  rec.dst = ip->dst;

  const auto payload = ip_bytes.subspan(
      std::min(ip->header_bytes(), ip_bytes.size()));
  // Only unfragmented first fragments carry a transport header.
  if (ip->fragment_offset == 0) {
    if (ip->protocol == 6) {
      if (auto tcp = net::parse_tcp(payload)) {
        rec.src_port = tcp->src_port;
        rec.dst_port = tcp->dst_port;
        rec.tcp_flags = tcp->flags;
      }
    } else if (ip->protocol == 17) {
      if (auto udp = net::parse_udp(payload)) {
        rec.src_port = udp->src_port;
        rec.dst_port = udp->dst_port;
      }
    }
  }
  ++s.decoded;
  return rec;
}

RecordFramer::RecordFramer(const CaptureHeader& header, OnCorrupt policy)
    : swapped_(header.swapped),
      snaplen_(header.snaplen),
      max_incl_len_(std::uint64_t{header.snaplen} + kInclLenSlack),
      policy_(policy) {}

RecordFramer::Step RecordFramer::end() {
  done_ = true;
  return Step::kEnd;
}

// Does pos_ look like the start of an intact record header? Asked only
// while resyncing after corruption, where a false positive costs one
// garbage record and a false negative a little more skipped data. The
// header is in `bytes`; the record body may not be yet.
RecordFramer::Verdict RecordFramer::plausible(
    std::span<const std::uint8_t> bytes, bool eof) const {
  const std::uint8_t* h = bytes.data() + pos_;
  const std::uint32_t ts_sec = read_u32(h, swapped_);
  const std::uint32_t ts_usec = read_u32(h + 4, swapped_);
  const std::uint32_t incl_len = read_u32(h + 8, swapped_);
  if (incl_len > max_incl_len_) return Verdict::kNo;
  if (ts_usec >= 1000000) return Verdict::kNo;
  if (ts_sec < prev_ts_sec_) return Verdict::kNo;
  if (ts_sec - prev_ts_sec_ > kMaxResyncClockJumpSec) return Verdict::kNo;
  if (pos_ + kRecordHeaderSize + incl_len > bytes.size()) {
    return eof ? Verdict::kNo : Verdict::kNeedMore;
  }
  return Verdict::kYes;
}

RecordFramer::Step RecordFramer::next(std::span<const std::uint8_t> bytes,
                                      bool eof, RecordView& out) {
  if (done_) return Step::kEnd;
  for (;;) {
    if (pos_ + kRecordHeaderSize > bytes.size()) {
      return eof ? end() : Step::kNeedMore;
    }
    if (resyncing_) {
      // Salvage: slide forward one byte at a time until the stream looks
      // like a record header again, then resume normal framing there.
      const Verdict verdict = plausible(bytes, eof);
      if (verdict == Verdict::kNeedMore) return Step::kNeedMore;
      if (verdict == Verdict::kNo) {
        ++pos_;
        ++stats_.skipped_bytes;
        continue;
      }
      resyncing_ = false;
    }
    const std::uint8_t* h = bytes.data() + pos_;
    const std::uint32_t incl_len = read_u32(h + 8, swapped_);
    if (incl_len > max_incl_len_) {
      // Framing garbage: a record header no writer would produce.
      ++stats_.corrupt_records;
      if (policy_ == OnCorrupt::kFail) {
        status_ = Status(StatusCode::kDataLoss,
                         "pcap: corrupt record header at byte " +
                             std::to_string(offset()) + " (incl_len " +
                             std::to_string(incl_len) + " > snaplen " +
                             std::to_string(snaplen_) + ")");
        return end();
      }
      if (policy_ == OnCorrupt::kTruncate) return end();
      ++pos_;
      ++stats_.skipped_bytes;
      resyncing_ = true;
      continue;
    }
    if (pos_ + kRecordHeaderSize + incl_len > bytes.size()) {
      if (!eof) return Step::kNeedMore;
      // Torn trailing record: keep the complete prefix.
      stats_.torn_tail_bytes = bytes.size() - pos_;
      return end();
    }
    const std::uint32_t ts_sec = read_u32(h, swapped_);
    out.timestamp = MicroTime::from_sec_usec(ts_sec, read_u32(h + 4, swapped_));
    out.orig_len = read_u32(h + 12, swapped_);
    out.data = bytes.subspan(pos_ + kRecordHeaderSize, incl_len);
    pos_ += kRecordHeaderSize + incl_len;
    ++stats_.records;
    prev_ts_sec_ = ts_sec;
    return Step::kRecord;
  }
}

CaptureReader::CaptureReader(const std::string& path, OnCorrupt policy)
    : path_(path) {
  fd_ = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd_ < 0) {
    status_ = io_error("open", path, errno);
    return;
  }
  struct stat st {};
  if (::fstat(fd_, &st) == 0 && S_ISREG(st.st_mode)) {
    size_hint_ = static_cast<std::uint64_t>(st.st_size);
  }
  window_.resize(kWindowBytes);
  while (end_ < kGlobalHeaderSize && !eof_) {
    if (!read_some()) return;
  }
  auto header = parse_global_header({window_.data(), end_});
  if (!header) {
    status_ = header.status();
    return;
  }
  header_ = *header;
  framer_ = RecordFramer(header_, policy);
}

CaptureReader::~CaptureReader() {
  if (fd_ >= 0) ::close(fd_);
}

bool CaptureReader::next(RecordView& out) {
  if (!status_.is_ok()) return false;
  for (;;) {
    switch (framer_.next({window_.data(), end_}, eof_, out)) {
      case RecordFramer::Step::kRecord:
        return true;
      case RecordFramer::Step::kEnd:
        status_ = framer_.status();
        return false;
      case RecordFramer::Step::kNeedMore:
        if (!refill()) return false;
        break;
    }
  }
}

// Drop the bytes the framer is done with, then read into the free tail of
// the window. A window the framer still needs whole (one record larger than
// it) grows by one more window, which the read then fills.
bool CaptureReader::refill() {
  const std::size_t done_bytes = framer_.pos();
  if (done_bytes > 0) {
    std::memmove(window_.data(), window_.data() + done_bytes, end_ - done_bytes);
    end_ -= done_bytes;
    framer_.discard(done_bytes);
  }
  if (end_ == window_.size()) window_.resize(window_.size() + kWindowBytes);
  return read_some();
}

// One read() into window_[end_, size()): sets eof_ on end of file, and
// status_ on an error.
bool CaptureReader::read_some() {
  for (;;) {
    const ssize_t n = ::read(fd_, window_.data() + end_, window_.size() - end_);
    if (n > 0) {
      end_ += static_cast<std::size_t>(n);
      return true;
    }
    if (n == 0) {
      eof_ = true;
      return true;
    }
    if (errno != EINTR) {
      status_ = io_error("read", path_, errno);
      return false;
    }
  }
}

}  // namespace netsample::pcap::detail
