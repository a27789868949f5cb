#include "core/samplers.h"

#include <cmath>
#include <stdexcept>

namespace netsample::core {

const char* method_name(Method m) {
  switch (m) {
    case Method::kSystematicCount: return "systematic/count";
    case Method::kStratifiedCount: return "stratified/count";
    case Method::kSimpleRandom: return "simple-random";
    case Method::kSystematicTimer: return "systematic/timer";
    case Method::kStratifiedTimer: return "stratified/timer";
  }
  return "unknown";
}

bool method_is_timer_driven(Method m) {
  return m == Method::kSystematicTimer || m == Method::kStratifiedTimer;
}

std::uint64_t method_seed_tag(Method m) {
  switch (m) {
    case Method::kSystematicCount: return 0x5359434eULL;   // "SYCN"
    case Method::kStratifiedCount: return 0x5354434eULL;   // "STCN"
    case Method::kSimpleRandom: return 0x53524e44ULL;      // "SRND"
    case Method::kSystematicTimer: return 0x5359544dULL;   // "SYTM"
    case Method::kStratifiedTimer: return 0x5354544dULL;   // "STTM"
  }
  return 0;
}

std::vector<trace::PacketRecord> draw_sample(trace::TraceView view,
                                             Sampler& sampler,
                                             const util::CancelToken* cancel) {
  std::vector<trace::PacketRecord> out;
  for (std::size_t i : draw_sample_indices(view, sampler, cancel)) {
    out.push_back(view[i]);
  }
  return out;
}

std::vector<std::size_t> draw_sample_indices(trace::TraceView view,
                                             Sampler& sampler,
                                             const util::CancelToken* cancel) {
  std::vector<std::size_t> out;
  if (view.empty()) return out;
  sampler.begin(view.start_time());
  for (std::size_t i = 0; i < view.size(); ++i) {
    if (cancel != nullptr && i % util::kCancelPollStride == 0) {
      cancel->throw_if_stopped();
    }
    if (sampler.offer(view[i])) out.push_back(i);
  }
  return out;
}

// --------------------------------------------------------------------------
// SystematicCountSampler

SystematicCountSampler::SystematicCountSampler(std::uint64_t k,
                                               std::uint64_t offset)
    : k_(k), offset_(offset) {
  if (k_ == 0) throw std::invalid_argument("systematic: k must be >= 1");
  if (offset_ >= k_) throw std::invalid_argument("systematic: offset must be < k");
}

void SystematicCountSampler::begin(MicroTime /*interval_start*/) {
  position_ = 0;
}

bool SystematicCountSampler::offer(const trace::PacketRecord& /*p*/) {
  const bool take = (position_ % k_) == offset_;
  ++position_;
  return take;
}

std::string SystematicCountSampler::name() const {
  return "systematic/count(1/" + std::to_string(k_) + ")";
}

// --------------------------------------------------------------------------
// StratifiedCountSampler

StratifiedCountSampler::StratifiedCountSampler(std::uint64_t k, Rng rng)
    : k_(k), rng_(rng) {
  if (k_ == 0) throw std::invalid_argument("stratified: k must be >= 1");
}

void StratifiedCountSampler::begin(MicroTime /*interval_start*/) {
  pass_rng_ = rng_;  // identical passes replay the identical choice sequence
  position_in_bucket_ = 0;
  chosen_ = pass_rng_.uniform_below(k_);
}

bool StratifiedCountSampler::offer(const trace::PacketRecord& /*p*/) {
  const bool take = position_in_bucket_ == chosen_;
  ++position_in_bucket_;
  if (position_in_bucket_ == k_) {
    position_in_bucket_ = 0;
    chosen_ = pass_rng_.uniform_below(k_);
  }
  return take;
}

std::string StratifiedCountSampler::name() const {
  return "stratified/count(1/" + std::to_string(k_) + ")";
}

// --------------------------------------------------------------------------
// SimpleRandomSampler

SimpleRandomSampler::SimpleRandomSampler(std::uint64_t n, std::uint64_t population,
                                         Rng rng)
    : n_(n), population_(population), rng_(rng) {
  if (n_ > population_) {
    throw std::invalid_argument("simple random: n exceeds population");
  }
}

void SimpleRandomSampler::begin(MicroTime /*interval_start*/) {
  pass_rng_ = rng_;
  seen_ = 0;
  selected_ = 0;
}

bool SimpleRandomSampler::offer(const trace::PacketRecord& /*p*/) {
  if (seen_ >= population_) {
    // Packets beyond the declared population (operational N was an estimate):
    // never selected, keeping the sample size exact.
    ++seen_;
    return false;
  }
  const std::uint64_t remaining_to_see = population_ - seen_;
  const std::uint64_t remaining_to_pick = n_ - selected_;
  ++seen_;
  if (remaining_to_pick == 0) return false;
  // Select with probability remaining_to_pick / remaining_to_see: yields a
  // uniform n-subset of the N positions (Knuth TAOCP vol 2, Algorithm S).
  const bool take =
      pass_rng_.uniform_below(remaining_to_see) < remaining_to_pick;
  if (take) ++selected_;
  return take;
}

std::string SimpleRandomSampler::name() const {
  return "simple-random(" + std::to_string(n_) + "/" + std::to_string(population_) +
         ")";
}

// --------------------------------------------------------------------------
// ScheduledStratifiedSampler

ScheduledStratifiedSampler::ScheduledStratifiedSampler(
    std::vector<std::uint64_t> schedule, Rng rng)
    : schedule_(std::move(schedule)), rng_(rng) {
  if (schedule_.empty()) {
    throw std::invalid_argument("scheduled stratified: empty schedule");
  }
  for (auto s : schedule_) {
    if (s == 0) {
      throw std::invalid_argument("scheduled stratified: zero bucket size");
    }
  }
}

void ScheduledStratifiedSampler::begin(MicroTime /*interval_start*/) {
  pass_rng_ = rng_;
  schedule_pos_ = 0;
  arm_bucket();
}

void ScheduledStratifiedSampler::arm_bucket() {
  bucket_size_ = schedule_[schedule_pos_];
  schedule_pos_ = (schedule_pos_ + 1) % schedule_.size();
  position_in_bucket_ = 0;
  chosen_ = pass_rng_.uniform_below(bucket_size_);
}

bool ScheduledStratifiedSampler::offer(const trace::PacketRecord& /*p*/) {
  const bool take = position_in_bucket_ == chosen_;
  ++position_in_bucket_;
  if (position_in_bucket_ == bucket_size_) arm_bucket();
  return take;
}

std::string ScheduledStratifiedSampler::name() const {
  return "stratified/scheduled(" + std::to_string(schedule_.size()) +
         " bucket sizes)";
}

double ScheduledStratifiedSampler::mean_fraction() const {
  std::uint64_t total = 0;
  for (auto s : schedule_) total += s;
  return static_cast<double>(schedule_.size()) / static_cast<double>(total);
}

// --------------------------------------------------------------------------
// BernoulliSampler

BernoulliSampler::BernoulliSampler(double probability, Rng rng)
    : probability_(probability), rng_(rng) {
  if (!(probability_ > 0.0 && probability_ <= 1.0)) {
    throw std::invalid_argument("bernoulli: probability must be in (0,1]");
  }
}

void BernoulliSampler::begin(MicroTime /*interval_start*/) {
  pass_rng_ = rng_;
  skip_remaining_ =
      probability_ >= 1.0 ? 0 : pass_rng_.geometric(probability_);
}

bool BernoulliSampler::offer(const trace::PacketRecord& /*p*/) {
  if (skip_remaining_ > 0) {
    --skip_remaining_;
    return false;
  }
  skip_remaining_ =
      probability_ >= 1.0 ? 0 : pass_rng_.geometric(probability_);
  return true;
}

std::string BernoulliSampler::name() const {
  return "bernoulli(p=" + std::to_string(probability_) + ")";
}

// --------------------------------------------------------------------------
// SystematicTimerSampler

SystematicTimerSampler::SystematicTimerSampler(MicroDuration period,
                                               ExpiryPolicy policy,
                                               MicroDuration phase)
    : period_(period), policy_(policy), phase_(phase) {
  if (period_.usec <= 0) {
    throw std::invalid_argument("timer: period must be positive");
  }
  if (phase_.usec < 0 || phase_.usec >= period_.usec) {
    throw std::invalid_argument("timer: phase must be in [0, period)");
  }
}

void SystematicTimerSampler::begin(MicroTime interval_start) {
  interval_start_ = interval_start + phase_;
  expiries_consumed_ = 0;
}

bool SystematicTimerSampler::offer(const trace::PacketRecord& p) {
  if (p.timestamp < interval_start_) return false;  // before the phased grid
  // Number of deadlines (start + i*T, i >= 1) that have passed by p's arrival.
  const std::uint64_t elapsed = p.timestamp.usec - interval_start_.usec;
  const std::uint64_t expired = elapsed / static_cast<std::uint64_t>(period_.usec);
  if (expired <= expiries_consumed_) return false;
  if (policy_ == ExpiryPolicy::kCoalesce) {
    // All pending expiries collapse into this one selection.
    expiries_consumed_ = expired;
  } else {
    // Queue semantics: drain one expiry per packet.
    ++expiries_consumed_;
  }
  return true;
}

std::string SystematicTimerSampler::name() const {
  return "systematic/timer(T=" + std::to_string(period_.usec) + "us)";
}

// --------------------------------------------------------------------------
// StratifiedTimerSampler

StratifiedTimerSampler::StratifiedTimerSampler(MicroDuration period, Rng rng)
    : period_(period), rng_(rng) {
  if (period_.usec <= 0) {
    throw std::invalid_argument("timer: period must be positive");
  }
}

void StratifiedTimerSampler::begin(MicroTime interval_start) {
  interval_start_ = interval_start;
  pass_rng_ = rng_;
  window_ = 0;
  arm_window(0);
}

void StratifiedTimerSampler::arm_window(std::uint64_t window_index) {
  window_ = window_index;
  const std::uint64_t t = static_cast<std::uint64_t>(period_.usec);
  trigger_ = MicroTime{interval_start_.usec + window_index * t +
                       pass_rng_.uniform_below(t)};
  trigger_armed_ = true;
}

bool StratifiedTimerSampler::offer(const trace::PacketRecord& p) {
  if (!trigger_armed_) return false;
  if (p.timestamp < trigger_) return false;
  // Trigger fired at or before this packet: select it, then arm the first
  // window that begins after this packet (windows that already elapsed
  // during the wait coalesce, mirroring the systematic timer's policy).
  const std::uint64_t t = static_cast<std::uint64_t>(period_.usec);
  const std::uint64_t current_window =
      (p.timestamp.usec - interval_start_.usec) / t;
  arm_window(std::max(window_ + 1, current_window + 1));
  return true;
}

std::string StratifiedTimerSampler::name() const {
  return "stratified/timer(T=" + std::to_string(period_.usec) + "us)";
}

// --------------------------------------------------------------------------
// Factory

MicroDuration spec_timer_period(const SamplerSpec& spec) {
  if (spec.mean_interarrival_usec <= 0.0) {
    throw std::invalid_argument(
        "timer methods require the population mean interarrival time");
  }
  const auto period = MicroDuration{static_cast<std::int64_t>(
      std::llround(spec.mean_interarrival_usec *
                   static_cast<double>(spec.granularity)))};
  if (period.usec <= 0) {
    throw std::invalid_argument("timer: period must be positive");
  }
  return period;
}

std::uint64_t spec_timer_phase_usec(const SamplerSpec& spec) {
  const auto period = spec_timer_period(spec);
  return spec.timer_phase_usec % static_cast<std::uint64_t>(period.usec);
}

std::uint64_t spec_simple_random_n(const SamplerSpec& spec) {
  if (spec.population == 0) {
    throw std::invalid_argument("simple random requires a population size");
  }
  return std::max<std::uint64_t>(
      1, (spec.population + spec.granularity / 2) / spec.granularity);
}

// make_sampler is the deprecated oracle factory: it alone still builds the
// deprecated classes.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wdeprecated-declarations"
std::unique_ptr<Sampler> make_sampler(const SamplerSpec& spec) {
  if (spec.granularity == 0) {
    throw std::invalid_argument("sampler spec: granularity must be >= 1");
  }
  switch (spec.method) {
    case Method::kSystematicCount:
      return std::make_unique<SystematicCountSampler>(spec.granularity,
                                                      spec.offset);
    case Method::kStratifiedCount:
      return std::make_unique<StratifiedCountSampler>(spec.granularity,
                                                      Rng(spec.seed));
    case Method::kSimpleRandom:
      return std::make_unique<SimpleRandomSampler>(
          spec_simple_random_n(spec), spec.population, Rng(spec.seed));
    case Method::kSystematicTimer:
    case Method::kStratifiedTimer: {
      const auto period = spec_timer_period(spec);
      if (spec.method == Method::kSystematicTimer) {
        const auto phase = MicroDuration{
            static_cast<std::int64_t>(spec_timer_phase_usec(spec))};
        return std::make_unique<SystematicTimerSampler>(period,
                                                        spec.expiry_policy, phase);
      }
      return std::make_unique<StratifiedTimerSampler>(period, Rng(spec.seed));
    }
  }
  throw std::invalid_argument("sampler spec: unknown method");
}
#pragma GCC diagnostic pop

}  // namespace netsample::core
