// Replication runner and parameter sweeps (Section 7 of the paper).
//
// An experiment cell is (method, target, granularity, interval). We run R
// replications of the cell -- varying the start offset for deterministic
// methods and the RNG seed for random ones, exactly as the paper "varied
// the point within the data set at which to begin the sampling procedure"
// -- score each sample against the parent with the phi-family metrics, and
// aggregate.
#pragma once

#include <cstdint>
#include <vector>

#include "core/metrics.h"
#include "core/samplers.h"
#include "core/targets.h"
#include "core/trace_cache.h"
#include "stats/boxplot.h"
#include "trace/trace.h"
#include "util/cancel.h"

namespace netsample::exper {

struct CellConfig {
  core::Method method{core::Method::kSystematicCount};
  core::Target target{core::Target::kPacketSize};
  std::uint64_t granularity{50};
  trace::TraceView interval;
  /// Population mean interarrival (usec), needed by timer methods.
  double mean_interarrival_usec{0.0};
  int replications{5};
  std::uint64_t base_seed{1};
  /// Optional shared bin cache covering `interval` (usually the full
  /// trace's, from Experiment::binned_cache()). run_cell always selects
  /// through core::select_indices over a BinnedTraceCache; when this is null
  /// or does not contain `interval`, it bins a private cache over the
  /// interval for that one call. Attach a shared cache whenever several
  /// cells read the same trace. Not owned; must outlive the run.
  const core::BinnedTraceCache* cache{nullptr};
  /// Optional cancellation token / watchdog deadline. run_cell polls it at
  /// entry and between replications, unwinding with util::StatusError
  /// (kCancelled / kDeadlineExceeded); the private cache build of an
  /// uncached cell is not polled. Not owned; the parallel runner attaches a
  /// per-cell token carrying the cell's deadline. Does not affect results,
  /// so it is excluded from cell identity (checkpoint keys, seed
  /// derivation).
  const util::CancelToken* cancel{nullptr};
};

struct CellResult {
  CellConfig config;
  std::vector<core::DisparityMetrics> replications;

  /// phi scores across replications.
  [[nodiscard]] std::vector<double> phi_values() const;
  [[nodiscard]] double phi_mean() const;
  [[nodiscard]] stats::BoxplotSummary phi_boxplot() const;
  [[nodiscard]] double mean_sample_size() const;
  /// Replications whose chi-squared significance falls below `alpha`
  /// (the paper's "rejected by the chi-squared test" count).
  [[nodiscard]] int rejections_at(double alpha) const;
};

/// Run one experiment cell: each replication's index set comes from
/// core::select_indices, its histogram from the cache's bin ids, and the
/// population histogram from prefix-sum subtraction in O(bins). Throws
/// std::invalid_argument for an empty interval or bad config.
[[nodiscard]] CellResult run_cell(const CellConfig& config);

/// The streaming oracle: the same cell scored by driving each replication's
/// core::Sampler over the interval packet by packet, with the population
/// binned by one O(n) scan. Bit-identical to run_cell (tests/test_fastpath.cpp
/// pins this over the full figure grid); tests and the micro_sweep harness
/// compare against it. Ignores config.cache; polls config.cancel at entry,
/// between replications and inside the per-packet loop. Records no metrics.
[[nodiscard]] CellResult run_cell_reference(const CellConfig& config);

/// Always true since v1.2: every cell runs through the index kernels.
[[deprecated("run_cell has a single path; removed in the next release")]]
[[nodiscard]] bool cell_uses_fast_path(const CellConfig& config);

/// Sweep granularities for a fixed method/target/interval (Figures 6-9):
/// run_cell once per rung. The population histogram costs O(bins) per rung,
/// so nothing is hoisted out of the ladder.
[[nodiscard]] std::vector<CellResult> sweep_granularity(
    CellConfig base, const std::vector<std::uint64_t>& granularities);

/// Sweep interval lengths for fixed method/target/granularity (Figures
/// 10-11). `interval_seconds` values are prefixes of `full`.
[[nodiscard]] std::vector<CellResult> sweep_interval(
    CellConfig base, trace::TraceView full,
    const std::vector<double>& interval_seconds);

/// The paper's exponential granularity ladder 2, 4, ..., 32768.
[[nodiscard]] std::vector<std::uint64_t> granularity_ladder(
    std::uint64_t from = 2, std::uint64_t to = 32768);

/// Build the sampler spec for replication r of a cell (exposed for tests).
/// Throws std::invalid_argument for granularity 0, the same refusal every
/// kernel gives, so no caller divides by it.
[[nodiscard]] core::SamplerSpec replication_spec(const CellConfig& config, int r);

}  // namespace netsample::exper
