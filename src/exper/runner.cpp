#include "exper/runner.h"

#include <cmath>
#include <optional>
#include <stdexcept>

#include "core/select_indices.h"
#include "obs/metrics.h"

namespace netsample::exper {

std::vector<double> CellResult::phi_values() const {
  std::vector<double> out;
  out.reserve(replications.size());
  for (const auto& m : replications) out.push_back(m.phi);
  return out;
}

double CellResult::phi_mean() const {
  if (replications.empty()) return 0.0;
  double sum = 0.0;
  for (const auto& m : replications) sum += m.phi;
  return sum / static_cast<double>(replications.size());
}

stats::BoxplotSummary CellResult::phi_boxplot() const {
  return stats::boxplot(phi_values());
}

double CellResult::mean_sample_size() const {
  if (replications.empty()) return 0.0;
  double sum = 0.0;
  for (const auto& m : replications) {
    sum += static_cast<double>(m.sample_n);
  }
  return sum / static_cast<double>(replications.size());
}

int CellResult::rejections_at(double alpha) const {
  int n = 0;
  for (const auto& m : replications) {
    if (m.significance < alpha) ++n;
  }
  return n;
}

core::SamplerSpec replication_spec(const CellConfig& config, int r) {
  // Checked before the systematic offset below divides by it.
  if (config.granularity == 0) {
    throw std::invalid_argument("sampler spec: granularity must be >= 1");
  }
  core::SamplerSpec spec;
  spec.method = config.method;
  spec.granularity = config.granularity;
  spec.population = config.interval.size();
  spec.mean_interarrival_usec = config.mean_interarrival_usec;
  spec.seed = config.base_seed + static_cast<std::uint64_t>(r) * 0x9E3779B9ULL;

  const auto rep = static_cast<std::uint64_t>(r);
  const auto reps = static_cast<std::uint64_t>(std::max(1, config.replications));
  switch (config.method) {
    case core::Method::kSystematicCount:
      // Spread start offsets evenly over the bucket; with more replications
      // than k, fall back to cycling.
      if (reps <= config.granularity) {
        spec.offset = rep * config.granularity / reps;
      } else {
        spec.offset = rep % config.granularity;
      }
      break;
    case core::Method::kSystematicTimer: {
      const double period =
          config.mean_interarrival_usec * static_cast<double>(config.granularity);
      spec.timer_phase_usec = static_cast<std::uint64_t>(
          period * static_cast<double>(rep) / static_cast<double>(reps));
      break;
    }
    default:
      break;  // random methods replicate through the seed alone
  }
  return spec;
}

namespace {

void validate_cell(const CellConfig& config) {
  if (config.interval.empty()) {
    throw std::invalid_argument("run_cell: empty interval");
  }
  if (config.replications <= 0) {
    throw std::invalid_argument("run_cell: replications must be positive");
  }
}

/// One bulk registry update per completed cell (never per packet): how many
/// replications ran and the φ values they produced. Packet accounting
/// happens inside core::select_indices, which knows the per-kernel scan
/// shape. Everything here derives from seeds and packet counts, so it all
/// belongs to the deterministic export section.
void record_cell_run(const CellResult& result) {
  if (!obs::enabled()) return;
  auto& reg = obs::registry();
  static obs::Counter& cells = reg.counter("netsample_cell_fastpath_total");
  static obs::Counter& reps = reg.counter("netsample_cell_replications_total");
  static obs::Counter& samples =
      reg.counter("netsample_sample_packets_total");
  static obs::HistogramMetric& phi =
      reg.histogram("netsample_phi", obs::phi_bin_edges());
  cells.increment();
  reps.add(result.replications.size());
  for (const auto& m : result.replications) {
    phi.observe(m.phi);
    samples.add(m.sample_n);
  }
}

// Population from prefix-sum subtraction, replications via index-emitting
// kernels + bin-id accumulation. No per-packet work outside the kernels
// themselves. `begin` is the interval's offset within cache.base(). A
// member whose own scoring throws keeps that exception and sits out the
// remaining replications; selection stops once no member is left.
std::vector<TwinResult> score_twins(const CellConfig& config,
                                    std::span<const core::Target> targets,
                                    const core::BinnedTraceCache& cache,
                                    std::size_t begin) {
  const std::size_t end = begin + config.interval.size();
  const double fraction = 1.0 / static_cast<double>(config.granularity);
  std::vector<TwinResult> out(targets.size());
  std::vector<std::optional<stats::Histogram>> population(targets.size());
  std::size_t live = 0;
  for (std::size_t m = 0; m < targets.size(); ++m) {
    out[m].result.config = config;
    out[m].result.config.target = targets[m];
    out[m].result.replications.reserve(
        static_cast<std::size_t>(config.replications));
    try {
      population[m] = cache.population_histogram(targets[m], begin, end);
      ++live;
    } catch (const std::exception&) {
      out[m].error = std::current_exception();
    }
  }
  for (int r = 0; r < config.replications && live > 0; ++r) {
    util::throw_if_stopped(config.cancel);
    const auto indices =
        core::select_indices(replication_spec(config, r), cache, begin, end);
    for (std::size_t m = 0; m < targets.size(); ++m) {
      if (out[m].error) continue;
      try {
        const auto observed =
            cache.sample_histogram(targets[m], indices, begin);
        out[m].result.replications.push_back(
            core::score_sample(observed, *population[m], fraction));
      } catch (const std::exception&) {
        out[m].error = std::current_exception();
        --live;
      }
    }
  }
  for (const auto& member : out) {
    if (!member.error) record_cell_run(member.result);
  }
  return out;
}

}  // namespace

std::vector<TwinResult> run_twins(const CellConfig& config,
                                  std::span<const core::Target> targets) {
  validate_cell(config);
  util::throw_if_stopped(config.cancel);
  if (config.cache != nullptr && config.cache->contains(config.interval)) {
    return score_twins(config, targets, *config.cache,
                       config.cache->offset_of(config.interval));
  }
  // No attached cache covers the interval: bin one for this call.
  const core::BinnedTraceCache local(config.interval);
  return score_twins(config, targets, local, 0);
}

CellResult run_cell(const CellConfig& config) {
  auto scored = run_twins(config, {&config.target, 1});
  if (scored[0].error) std::rethrow_exception(scored[0].error);
  return std::move(scored[0].result);
}

// The oracle drives the deprecated per-packet classes through make_sampler.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wdeprecated-declarations"
CellResult run_cell_reference(const CellConfig& config) {
  validate_cell(config);
  util::throw_if_stopped(config.cancel);
  const auto layout = core::make_target_histogram(config.target);
  const auto population = core::bin_values(
      core::population_values(config.interval, config.target), layout);
  const double fraction = 1.0 / static_cast<double>(config.granularity);
  CellResult result;
  result.config = config;
  result.replications.reserve(static_cast<std::size_t>(config.replications));
  for (int r = 0; r < config.replications; ++r) {
    util::throw_if_stopped(config.cancel);
    auto sampler = core::make_sampler(replication_spec(config, r));
    const auto sample = core::draw(config.interval, *sampler, config.cancel);
    const auto observed =
        core::bin_values(core::sample_values(sample, config.target), layout);
    result.replications.push_back(
        core::score_sample(observed, population, fraction));
  }
  return result;
}
#pragma GCC diagnostic pop

std::vector<CellResult> sweep_granularity(
    CellConfig base, const std::vector<std::uint64_t>& granularities) {
  std::vector<CellResult> out;
  out.reserve(granularities.size());
  for (std::uint64_t k : granularities) {
    base.granularity = k;
    out.push_back(run_cell(base));
  }
  return out;
}

std::vector<CellResult> sweep_interval(CellConfig base, trace::TraceView full,
                                       const std::vector<double>& interval_seconds) {
  std::vector<CellResult> out;
  out.reserve(interval_seconds.size());
  for (double secs : interval_seconds) {
    base.interval = full.prefix_duration(MicroDuration::from_seconds(secs));
    out.push_back(run_cell(base));
  }
  return out;
}

std::vector<std::uint64_t> granularity_ladder(std::uint64_t from,
                                              std::uint64_t to) {
  std::vector<std::uint64_t> out;
  for (std::uint64_t k = from; k <= to; k *= 2) out.push_back(k);
  return out;
}

}  // namespace netsample::exper
