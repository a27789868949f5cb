// Analysis targets and their bin specifications (Section 7.1 of the paper).
//
// A target maps a sample to a binned distribution that is then compared
// against the parent population's distribution. The paper studies two
// targets with hand-chosen, protocol-aware bins:
//
//   packet size (bytes):        < 41  |  41..180  |  > 180
//   interarrival time (usec):   < 800 | 800..1199 | 1200..2399 | 2400..3599 | >= 3600
//
// Our Histogram uses half-open lower-bound edges, so those are expressed as
// edge lists {41, 181} and {800, 1200, 2400, 3600}.
//
// Interarrival semantics. A sampled packet contributes the gap between
// itself and its immediate predecessor *in the full arrival stream* (the
// monitor timestamps every arrival; only selected packets export their
// delta). This is what makes the paper's timer-sampling result possible:
// timer methods preferentially select packets that follow long idle gaps
// (the waiting-time paradox), skewing the estimated distribution toward
// large values, while count-triggered methods select positions unbiasedly.
// Measuring gaps *between* selected packets instead would inflate every
// method's values by ~k and make the comparison meaningless.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/sampler.h"
#include "core/samplers.h"
#include "stats/histogram.h"
#include "trace/trace.h"

namespace netsample::core {

enum class Target {
  kPacketSize,
  kInterarrivalTime,
};

[[nodiscard]] const char* target_name(Target t);

/// A drawn sample: the selected positions within a parent view. Keeping the
/// parent reference lets targets be evaluated with full-stream context.
struct Sample {
  trace::TraceView parent;
  std::vector<std::size_t> indices;  // ascending positions within parent

  [[nodiscard]] std::size_t size() const { return indices.size(); }
  [[nodiscard]] bool empty() const { return indices.empty(); }

  /// The selected packets themselves.
  [[nodiscard]] std::vector<trace::PacketRecord> packets() const;

  /// Achieved sampling fraction |sample| / |parent| (0 for empty parent).
  [[nodiscard]] double fraction() const;
};

/// The sample `spec` selects from `view`, a run of packets in arrival
/// order (every Trace's view is one). One core::SelectCursor, begun at the
/// view's first packet, runs over the view's timestamps in blocks of
/// util::kCancelPollStride packets; `cancel`, when non-null, is polled
/// before each block and unwinds with util::StatusError. The indices are
/// exactly those draw_sample_indices(view, *make_sampler(spec)) returns.
/// Throws std::invalid_argument on an inconsistent spec, even for an empty
/// view.
[[nodiscard]] Sample draw(trace::TraceView view, const SamplerSpec& spec,
                          const util::CancelToken* cancel = nullptr);

/// The label of `spec`'s discipline, as `netsample sample` prints it:
/// "systematic/count(1/50)", "simple-random(n/N)",
/// "stratified/timer(T=118000us)". Validates like draw.
[[nodiscard]] std::string sampler_name(const SamplerSpec& spec);

/// Run a per-packet `sampler` (the extension API, core/sampler.h) over
/// `view` and collect the selected positions. `cancel` is forwarded to the
/// streaming loop (see draw_sample_indices).
[[nodiscard]] Sample draw(trace::TraceView view, Sampler& sampler,
                          const util::CancelToken* cancel = nullptr);

/// The paper's bin edges for a target (see header comment).
[[nodiscard]] std::vector<double> paper_bin_edges(Target t);

/// An empty histogram laid out with the paper's bins for `t`.
[[nodiscard]] stats::Histogram make_target_histogram(Target t);

/// Target observable for the *whole population* of a view: packet sizes, or
/// the N-1 consecutive interarrival gaps.
[[nodiscard]] std::vector<double> population_values(trace::TraceView view,
                                                    Target t);

/// Process-wide count of population_values() calls. Instrumentation for the
/// sweep regression test: a granularity ladder through run_cell never
/// materializes the population (only the streaming oracle does).
[[nodiscard]] std::uint64_t population_values_call_count();

/// Target observable for a sample: sizes of selected packets, or the
/// predecessor gap of each selected packet (first-of-stream packets, which
/// have no predecessor, contribute nothing).
[[nodiscard]] std::vector<double> sample_values(const Sample& s, Target t);

/// Bin population / sample observables with the given histogram layout
/// (pass make_target_histogram(t) for the paper's bins, or custom edges for
/// the bin-sensitivity ablation).
[[nodiscard]] stats::Histogram bin_values(std::span<const double> values,
                                          const stats::Histogram& layout);

/// One-call conveniences using the paper's bins.
[[nodiscard]] stats::Histogram bin_population(trace::TraceView view, Target t);
[[nodiscard]] stats::Histogram bin_sample(const Sample& s, Target t);

}  // namespace netsample::core
