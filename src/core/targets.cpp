#include "core/targets.h"

#include <algorithm>
#include <atomic>

#include "core/select_indices.h"

namespace netsample::core {

const char* target_name(Target t) {
  switch (t) {
    case Target::kPacketSize: return "packet size";
    case Target::kInterarrivalTime: return "interarrival time";
  }
  return "unknown";
}

std::vector<trace::PacketRecord> Sample::packets() const {
  std::vector<trace::PacketRecord> out;
  out.reserve(indices.size());
  for (std::size_t i : indices) out.push_back(parent[i]);
  return out;
}

double Sample::fraction() const {
  if (parent.empty()) return 0.0;
  return static_cast<double>(indices.size()) / static_cast<double>(parent.size());
}

Sample draw(trace::TraceView view, const SamplerSpec& spec,
            const util::CancelToken* cancel) {
  SelectCursor cursor(spec);
  Sample out{view, {}};
  if (view.empty()) return out;
  cursor.begin(view.start_time().usec);
  std::vector<std::uint64_t> ts;
  for (std::size_t b = 0; b < view.size(); b += util::kCancelPollStride) {
    util::throw_if_stopped(cancel);
    ts.resize(std::min(util::kCancelPollStride, view.size() - b));
    for (std::size_t i = 0; i < ts.size(); ++i) {
      ts[i] = view[b + i].timestamp.usec;
    }
    cursor.advance(ts, &out.indices);
  }
  return out;
}

std::string sampler_name(const SamplerSpec& spec) {
  const SelectCursor validated(spec);
  const std::string method = method_name(spec.method);
  switch (spec.method) {
    case Method::kSimpleRandom:
      return method + "(" + std::to_string(spec_simple_random_n(spec)) + "/" +
             std::to_string(spec.population) + ")";
    case Method::kSystematicTimer:
    case Method::kStratifiedTimer:
      return method + "(T=" + std::to_string(spec_timer_period(spec).usec) +
             "us)";
    default:
      return method + "(1/" + std::to_string(spec.granularity) + ")";
  }
}

Sample draw(trace::TraceView view, Sampler& sampler,
            const util::CancelToken* cancel) {
  return Sample{view, draw_sample_indices(view, sampler, cancel)};
}

std::vector<double> paper_bin_edges(Target t) {
  switch (t) {
    case Target::kPacketSize:
      // bins: <41, [41,181), >=181  == the paper's <41 / 41..180 / >180
      return {41.0, 181.0};
    case Target::kInterarrivalTime:
      // bins: <800, [800,1200), [1200,2400), [2400,3600), >=3600
      return {800.0, 1200.0, 2400.0, 3600.0};
  }
  return {};
}

stats::Histogram make_target_histogram(Target t) {
  return stats::Histogram(paper_bin_edges(t));
}

namespace {
std::atomic<std::uint64_t> g_population_values_calls{0};
}  // namespace

std::uint64_t population_values_call_count() {
  return g_population_values_calls.load(std::memory_order_relaxed);
}

std::vector<double> population_values(trace::TraceView view, Target t) {
  g_population_values_calls.fetch_add(1, std::memory_order_relaxed);
  switch (t) {
    case Target::kPacketSize:
      return view.sizes();
    case Target::kInterarrivalTime:
      return view.interarrivals();
  }
  return {};
}

std::vector<double> sample_values(const Sample& s, Target t) {
  std::vector<double> out;
  out.reserve(s.indices.size());
  switch (t) {
    case Target::kPacketSize:
      for (std::size_t i : s.indices) {
        out.push_back(static_cast<double>(s.parent[i].size));
      }
      break;
    case Target::kInterarrivalTime:
      for (std::size_t i : s.indices) {
        if (i == 0) continue;  // no predecessor in the stream
        out.push_back(static_cast<double>(
            (s.parent[i].timestamp - s.parent[i - 1].timestamp).usec));
      }
      break;
  }
  return out;
}

stats::Histogram bin_values(std::span<const double> values,
                            const stats::Histogram& layout) {
  stats::Histogram h(
      std::vector<double>(layout.edges().begin(), layout.edges().end()));
  for (double v : values) h.add(v);
  return h;
}

stats::Histogram bin_population(trace::TraceView view, Target t) {
  auto h = make_target_histogram(t);
  for (double v : population_values(view, t)) h.add(v);
  return h;
}

stats::Histogram bin_sample(const Sample& s, Target t) {
  auto h = make_target_histogram(t);
  for (double v : sample_values(s, t)) h.add(v);
  return h;
}

}  // namespace netsample::core
