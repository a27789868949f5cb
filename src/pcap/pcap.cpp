#include "pcap/pcap.h"

#include <algorithm>
#include <fstream>

#include "net/headers.h"
#include "obs/metrics.h"
#include "pcap/framer.h"
#include "util/byteorder.h"

namespace netsample::pcap {

namespace {

using detail::kGlobalHeaderSize;
using detail::kRecordHeaderSize;

// Ingest counters are pure functions of the capture bytes, so they belong
// to the deterministic metrics section. Every read publishes its parse
// counters once, on every exit path, and every decode its decode counters.
void publish_parse_stats(const ParseStats& s) {
  if (!obs::enabled()) return;
  auto& reg = obs::registry();
  static obs::Counter& records = reg.counter("netsample_pcap_records_total");
  static obs::Counter& corrupt =
      reg.counter("netsample_pcap_corrupt_records_total");
  static obs::Counter& skipped =
      reg.counter("netsample_pcap_skipped_bytes_total");
  static obs::Counter& torn =
      reg.counter("netsample_pcap_torn_tail_bytes_total");
  records.add(s.records);
  corrupt.add(s.corrupt_records);
  skipped.add(s.skipped_bytes);
  torn.add(s.torn_tail_bytes);
}

void publish_decode_stats(const DecodeStats& s) {
  if (!obs::enabled()) return;
  auto& reg = obs::registry();
  static obs::Counter& decoded =
      reg.counter("netsample_pcap_packets_decoded_total");
  static obs::Counter& non_ipv4 = reg.counter("netsample_pcap_non_ipv4_total");
  static obs::Counter& malformed =
      reg.counter("netsample_pcap_malformed_total");
  static obs::Counter& out_of_order =
      reg.counter("netsample_pcap_out_of_order_total");
  decoded.add(s.decoded);
  non_ipv4.add(s.non_ipv4);
  malformed.add(s.malformed);
  out_of_order.add(s.out_of_order);
}

void report(const ParseStats& s, ParseStats* out) {
  publish_parse_stats(s);
  if (out != nullptr) *out = s;
}

CaptureFile empty_capture(const detail::CaptureHeader& header) {
  CaptureFile file;
  file.link_type = header.link_type;
  file.snaplen = header.snaplen;
  file.byte_swapped = header.swapped;
  return file;
}

// Sort the decoded records into time order if needed (some capture stacks
// emit small reorderings), then publish and hand out the decode counters.
trace::Trace finish_decode(std::vector<trace::PacketRecord> records,
                           DecodeStats& s, DecodeStats* out) {
  const auto by_time = [](const trace::PacketRecord& a,
                          const trace::PacketRecord& b) {
    return a.timestamp < b.timestamp;
  };
  if (!std::is_sorted(records.begin(), records.end(), by_time)) {
    std::stable_sort(records.begin(), records.end(), by_time);
    ++s.out_of_order;
  }
  publish_decode_stats(s);
  if (out != nullptr) *out = s;
  return trace::Trace(std::move(records));
}

// Capacity for a full decoded trace: project the final record count from
// the bytes framed so far, so a regular file is decoded into about the
// right size after a few small growths instead of doubling into a copy of
// the whole trace. The file size is a hint (pipes have none, a file may
// still be growing): a short projection just grows again, and a step is
// capped at 8x so a capture whose early records are unusually small
// cannot reserve many times the trace it holds.
std::size_t next_capacity(std::size_t have,
                          const detail::CaptureReader& reader) {
  constexpr std::size_t kFirst = 4096;
  const std::size_t grown = have + have / 2 + kFirst;
  const std::uint64_t framed = reader.offset();
  if (have < kFirst || reader.size_hint() <= framed) return grown;
  const double projected = static_cast<double>(have) *
                           static_cast<double>(reader.size_hint()) /
                           static_cast<double>(framed);
  return std::clamp(static_cast<std::size_t>(projected * 1.02), grown,
                    8 * have);
}

}  // namespace

StatusOr<CaptureFile> parse(std::span<const std::uint8_t> bytes,
                            const ParseOptions& options, ParseStats* stats) {
  auto header = detail::parse_global_header(bytes);
  if (!header) {
    report(ParseStats{}, stats);
    return header.status();
  }
  CaptureFile file = empty_capture(*header);
  detail::RecordFramer framer(*header, options.on_corrupt);
  detail::RecordView rec;
  while (framer.next(bytes, /*eof=*/true, rec) ==
         detail::RecordFramer::Step::kRecord) {
    file.records.push_back(detail::copy_record(rec));
  }
  report(framer.stats(), stats);
  if (!framer.status().is_ok()) return framer.status();
  return file;
}

StatusOr<CaptureFile> parse(std::span<const std::uint8_t> bytes) {
  return parse(bytes, ParseOptions{}, nullptr);
}

StatusOr<CaptureFile> read_file(const std::string& path,
                                const ParseOptions& options,
                                ParseStats* stats) {
  detail::CaptureReader reader(path, options.on_corrupt);
  CaptureFile file = empty_capture(reader.header());
  detail::RecordView rec;
  while (reader.next(rec)) file.records.push_back(detail::copy_record(rec));
  report(reader.stats(), stats);
  if (!reader.status().is_ok()) return reader.status();
  return file;
}

StatusOr<CaptureFile> read_file(const std::string& path) {
  return read_file(path, ParseOptions{}, nullptr);
}

std::vector<std::uint8_t> serialize(const CaptureFile& file) {
  std::vector<std::uint8_t> out;
  std::size_t total = kGlobalHeaderSize;
  for (const auto& r : file.records) total += kRecordHeaderSize + r.data.size();
  out.reserve(total);

  auto push_u16 = [&](std::uint16_t v) {
    std::uint8_t buf[2];
    store_le16(buf, v);
    out.insert(out.end(), buf, buf + 2);
  };
  auto push_u32 = [&](std::uint32_t v) {
    std::uint8_t buf[4];
    store_le32(buf, v);
    out.insert(out.end(), buf, buf + 4);
  };

  push_u32(kMagicNative);
  push_u16(kVersionMajor);
  push_u16(kVersionMinor);
  push_u32(0);  // thiszone
  push_u32(0);  // sigfigs
  push_u32(file.snaplen);
  push_u32(file.link_type);

  for (const auto& r : file.records) {
    push_u32(static_cast<std::uint32_t>(r.timestamp.seconds()));
    push_u32(static_cast<std::uint32_t>(r.timestamp.subsec_usec()));
    push_u32(static_cast<std::uint32_t>(r.data.size()));
    push_u32(r.orig_len);
    out.insert(out.end(), r.data.begin(), r.data.end());
  }
  return out;
}

Status write_file(const std::string& path, const CaptureFile& file) {
  std::ofstream outf(path, std::ios::binary | std::ios::trunc);
  if (!outf) {
    return Status(StatusCode::kNotFound, "pcap: cannot create '" + path + "'");
  }
  const auto bytes = serialize(file);
  outf.write(reinterpret_cast<const char*>(bytes.data()),
             static_cast<std::streamsize>(bytes.size()));
  if (!outf) {
    return Status(StatusCode::kDataLoss, "pcap: short write to '" + path + "'");
  }
  return Status::ok();
}

std::optional<trace::PacketRecord> decode_record(const RawPacket& raw,
                                                 std::uint32_t link_type,
                                                 DecodeStats* stats) {
  return detail::decode_record({raw.timestamp, raw.orig_len, raw.data},
                               link_type, stats);
}

trace::Trace decode(const CaptureFile& file, DecodeStats* stats) {
  DecodeStats local;
  std::vector<trace::PacketRecord> records;
  records.reserve(file.records.size());
  for (const auto& raw : file.records) {
    if (auto rec = decode_record(raw, file.link_type, &local)) {
      records.push_back(*rec);
    }
  }
  return finish_decode(std::move(records), local, stats);
}

CaptureFile encode(const trace::Trace& t, std::uint32_t snaplen) {
  CaptureFile file;
  file.link_type = kLinkTypeRaw;
  file.snaplen = snaplen;
  file.records.reserve(t.size());

  for (const auto& rec : t.packets()) {
    net::Ipv4Header ip;
    ip.protocol = rec.protocol;
    ip.src = rec.src;
    ip.dst = rec.dst;
    ip.ttl = 30;

    // Build a transport header matching the record, then pad the payload so
    // the IP total length equals rec.size.
    std::vector<std::uint8_t> transport;
    const std::size_t ip_hlen = 20;
    const std::size_t want_payload = rec.size > ip_hlen ? rec.size - ip_hlen : 0;
    if (rec.protocol == 6 && want_payload >= 20) {
      net::TcpHeader tcp;
      tcp.src_port = rec.src_port;
      tcp.dst_port = rec.dst_port;
      tcp.flags = rec.tcp_flags;
      tcp.window = 4096;
      std::vector<std::uint8_t> body(want_payload - 20, 0);
      transport = net::build_tcp_segment(tcp, rec.src, rec.dst, body);
    } else if (rec.protocol == 17 && want_payload >= 8) {
      net::UdpHeader udp;
      udp.src_port = rec.src_port;
      udp.dst_port = rec.dst_port;
      std::vector<std::uint8_t> body(want_payload - 8, 0);
      transport = net::build_udp_datagram(udp, rec.src, rec.dst, body);
    } else {
      transport.assign(want_payload, 0);
    }

    RawPacket raw;
    raw.timestamp = rec.timestamp;
    auto wire = net::build_ipv4_packet(ip, transport);
    raw.orig_len = static_cast<std::uint32_t>(wire.size());
    if (wire.size() > snaplen) wire.resize(snaplen);
    raw.data = std::move(wire);
    file.records.push_back(std::move(raw));
  }
  return file;
}

StatusOr<trace::Trace> read_trace(const std::string& path, DecodeStats* stats) {
  return read_trace(path, ParseOptions{}, nullptr, stats);
}

// Each record is decoded where it lies in the read window: no slurp of the
// file, no RawPacket per record.
StatusOr<trace::Trace> read_trace(const std::string& path,
                                  const ParseOptions& options,
                                  ParseStats* parse_stats,
                                  DecodeStats* decode_stats) {
  detail::CaptureReader reader(path, options.on_corrupt);
  const std::uint32_t link_type = reader.header().link_type;
  std::vector<trace::PacketRecord> records;
  DecodeStats decoded;
  detail::RecordView raw;
  while (reader.next(raw)) {
    if (records.size() == records.capacity()) {
      records.reserve(next_capacity(records.size(), reader));
    }
    if (auto rec = detail::decode_record(raw, link_type, &decoded)) {
      records.push_back(*rec);
    }
  }
  report(reader.stats(), parse_stats);
  if (!reader.status().is_ok()) return reader.status();
  return finish_decode(std::move(records), decoded, decode_stats);
}

Status write_trace(const std::string& path, const trace::Trace& t,
                   std::uint32_t snaplen) {
  return write_file(path, encode(t, snaplen));
}

}  // namespace netsample::pcap
