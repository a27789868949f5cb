// Microbenchmarks: the pcap decode stage, per path.
//
// Every subcommand, figure binary and benchmark set-up that reads a capture
// starts here, and the ingest layer frames every record through one record
// framer (src/pcap/framer.h). items/sec is decoded packets in all three:
//
//   BM_ReadTrace    pcap::read_trace over a file (the read() window path);
//   BM_ParseDecode  pcap::decode(pcap::parse(bytes)) over an in-memory image;
//   BM_PcapSource   stream::PcapSource, the record-at-a-time source behind
//                   `netsample watch`.
//
// The capture is two synthetic SDSC minutes at snaplen 128, written once to
// a temp file for the whole run.
#include <benchmark/benchmark.h>

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "pcap/pcap.h"
#include "stream/source.h"
#include "synth/presets.h"

namespace {

using namespace netsample;

struct BenchCapture {
  std::string path;
  std::vector<std::uint8_t> bytes;
  std::size_t packets{0};

  BenchCapture() {
    const auto t = synth::TraceModel(synth::sdsc_minutes_config(2.0, 23)).generate();
    packets = t.size();
    bytes = pcap::serialize(pcap::encode(t, 128));
    path = (std::filesystem::temp_directory_path() /
            ("netsample_micro_ingest_" + std::to_string(::getpid()) + ".pcap"))
               .string();
    if (!pcap::write_trace(path, t, 128).is_ok()) std::abort();
  }
  ~BenchCapture() { std::remove(path.c_str()); }
};

const BenchCapture& capture() {
  static const BenchCapture c;
  return c;
}

void BM_ReadTrace(benchmark::State& state) {
  const auto& c = capture();
  for (auto _ : state) {
    auto t = pcap::read_trace(c.path);
    if (!t || t->size() != c.packets) state.SkipWithError("read_trace failed");
    benchmark::DoNotOptimize(t);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(c.packets));
}
BENCHMARK(BM_ReadTrace)->Unit(benchmark::kMillisecond);

void BM_ParseDecode(benchmark::State& state) {
  const auto& c = capture();
  for (auto _ : state) {
    auto file = pcap::parse(c.bytes);
    if (!file) state.SkipWithError("parse failed");
    auto t = pcap::decode(*file);
    benchmark::DoNotOptimize(t);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(c.packets));
}
BENCHMARK(BM_ParseDecode)->Unit(benchmark::kMillisecond);

void BM_PcapSource(benchmark::State& state) {
  const auto& c = capture();
  std::vector<trace::PacketRecord> chunk;
  for (auto _ : state) {
    stream::PcapSource source(c.path);
    std::size_t n = 0;
    for (;;) {
      chunk.clear();
      if (!source.next_chunk(4096, chunk)) break;
      n += chunk.size();
    }
    if (n != c.packets) state.SkipWithError("PcapSource short");
    benchmark::DoNotOptimize(n);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(c.packets));
}
BENCHMARK(BM_PcapSource)->Unit(benchmark::kMillisecond);

}  // namespace
