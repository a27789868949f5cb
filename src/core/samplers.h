// The paper's sampling vocabulary (Section 4): the method taxonomy, the
// SamplerSpec every selection path reads, and the per-packet Samplers.
//
//   packet-count triggered:  systematic, stratified random, simple random
//   timer triggered:         systematic, stratified random
//
// Since v1.3 callers select a spec's sample with core::draw(view, spec)
// (core/targets.h), which runs the one implementation of the five methods,
// core::SelectCursor. The five streaming classes below and make_sampler
// are deprecated: they stay for one release as the correctness oracle the
// identity tests compare the cursor against, then move to a test-only
// target. BernoulliSampler and ScheduledStratifiedSampler are not paper
// methods and have no cursor: they stay, with Sampler, as the supported
// per-packet extension API (docs/API.md).
#pragma once

#include <cstdint>
#include <memory>

#include "core/sampler.h"
#include "util/rng.h"

namespace netsample::core {

/// The method taxonomy of the paper's Section 4.
enum class Method {
  kSystematicCount,   // every k-th packet (deterministic)
  kStratifiedCount,   // one uniform-random packet per k-packet bucket
  kSimpleRandom,      // n uniform-random packets out of N
  kSystematicTimer,   // first packet after each T-usec timer expiry
  kStratifiedTimer,   // first packet after a uniform instant in each T window
};

[[nodiscard]] const char* method_name(Method m);
[[nodiscard]] bool method_is_timer_driven(Method m);

/// Stable 64-bit tag for seed derivation. Unlike the raw enum value it
/// survives reorderings of Method, so per-task RNG streams (and therefore
/// archived experiment outputs) stay reproducible across refactors.
[[nodiscard]] std::uint64_t method_seed_tag(Method m);

// ---------------------------------------------------------------------------
// Packet-count triggered disciplines
// ---------------------------------------------------------------------------

/// Deterministic 1-in-k: selects packets at positions offset, offset+k, ...
/// (offset in [0,k)). This is the NSFNET operational discipline with k=50.
class [[deprecated(
    "use core::draw(view, spec); removed in the next release")]]
SystematicCountSampler final : public Sampler {
 public:
  /// Throws std::invalid_argument unless k >= 1 and offset < k.
  explicit SystematicCountSampler(std::uint64_t k, std::uint64_t offset = 0);

  void begin(MicroTime interval_start) override;
  [[nodiscard]] bool offer(const trace::PacketRecord& p) override;
  [[nodiscard]] std::string name() const override;

  [[nodiscard]] std::uint64_t granularity() const { return k_; }

 private:
  std::uint64_t k_;
  std::uint64_t offset_;
  std::uint64_t position_{0};
};

/// Stratified random 1-in-k: each consecutive bucket of k packets
/// contributes one packet, chosen uniformly at random within the bucket.
class [[deprecated(
    "use core::draw(view, spec); removed in the next release")]]
StratifiedCountSampler final : public Sampler {
 public:
  StratifiedCountSampler(std::uint64_t k, Rng rng);

  void begin(MicroTime interval_start) override;
  [[nodiscard]] bool offer(const trace::PacketRecord& p) override;
  [[nodiscard]] std::string name() const override;

 private:
  std::uint64_t k_;
  Rng rng_;
  Rng pass_rng_{0};     // re-seeded copy used within the current pass
  std::uint64_t position_in_bucket_{0};
  std::uint64_t chosen_{0};
};

/// Simple random sampling of exactly n out of a population of known size N,
/// via Fan/Muller/Rezucha selection sampling (Knuth's Algorithm S): packet i
/// is selected with probability (remaining to select)/(remaining to see).
/// Streaming, but requires N up front — in the operational setting N comes
/// from the previous collection cycle's packet count.
class [[deprecated(
    "use core::draw(view, spec); removed in the next release")]]
SimpleRandomSampler final : public Sampler {
 public:
  /// Throws std::invalid_argument if n > population.
  SimpleRandomSampler(std::uint64_t n, std::uint64_t population, Rng rng);

  void begin(MicroTime interval_start) override;
  [[nodiscard]] bool offer(const trace::PacketRecord& p) override;
  [[nodiscard]] std::string name() const override;

 private:
  std::uint64_t n_;
  std::uint64_t population_;
  Rng rng_;
  Rng pass_rng_{0};
  std::uint64_t seen_{0};
  std::uint64_t selected_{0};
};

/// Stratified random sampling with a *schedule* of bucket sizes (the paper:
/// "for both systematic and stratified random sampling the bucket sizes do
/// not necessarily have to be constant"). The schedule is cycled: buckets
/// of sizes schedule[0], schedule[1], ..., schedule[0], ... One uniform-
/// random packet is selected within each bucket. A single-entry schedule
/// reduces to StratifiedCountSampler.
class ScheduledStratifiedSampler final : public Sampler {
 public:
  /// Throws std::invalid_argument on an empty schedule or any zero bucket.
  ScheduledStratifiedSampler(std::vector<std::uint64_t> schedule, Rng rng);

  void begin(MicroTime interval_start) override;
  [[nodiscard]] bool offer(const trace::PacketRecord& p) override;
  [[nodiscard]] std::string name() const override;

  /// Mean sampling fraction implied by the schedule: (#buckets)/(sum sizes).
  [[nodiscard]] double mean_fraction() const;

 private:
  void arm_bucket();

  std::vector<std::uint64_t> schedule_;
  Rng rng_;
  Rng pass_rng_{0};
  std::size_t schedule_pos_{0};
  std::uint64_t bucket_size_{1};
  std::uint64_t position_in_bucket_{0};
  std::uint64_t chosen_{0};
};

/// Bernoulli sampling: each packet is selected independently with
/// probability 1/k. Implemented with geometric skip counts (draw how many
/// packets to pass over, then select), the trick sFlow standardized --
/// selection costs one RNG draw per *selected* packet, not per packet.
/// Sample size is random (binomial), unlike SimpleRandomSampler's exact n.
class BernoulliSampler final : public Sampler {
 public:
  /// Throws std::invalid_argument unless probability is in (0, 1].
  BernoulliSampler(double probability, Rng rng);

  void begin(MicroTime interval_start) override;
  [[nodiscard]] bool offer(const trace::PacketRecord& p) override;
  [[nodiscard]] std::string name() const override;

 private:
  double probability_;
  Rng rng_;
  Rng pass_rng_{0};
  std::uint64_t skip_remaining_{0};
};

// ---------------------------------------------------------------------------
// Timer triggered disciplines
// ---------------------------------------------------------------------------

/// What a timer sampler does when several expiries pass with no packet in
/// between (an idle gap longer than the period).
enum class ExpiryPolicy {
  /// Missed expiries coalesce: at most one selection is pending at a time.
  /// This is what a real interrupt-driven implementation does and the
  /// default everywhere.
  kCoalesce,
  /// Every expiry queues a selection; after an idle gap the next packets are
  /// selected back-to-back until the queue drains. Kept for the ablation on
  /// the paper's "necessary approximation" remark.
  kQueue,
};

/// Periodic timer: deadlines at start+phase+T, start+phase+2T, ...; when a
/// deadline has passed, the next arriving packet is selected. `phase`
/// shifts the deadline grid and is how replications of this deterministic
/// method are built (the analogue of the systematic/count start offset).
class [[deprecated(
    "use core::draw(view, spec); removed in the next release")]]
SystematicTimerSampler final : public Sampler {
 public:
  /// Throws std::invalid_argument unless period > 0 and 0 <= phase < period.
  explicit SystematicTimerSampler(MicroDuration period,
                                  ExpiryPolicy policy = ExpiryPolicy::kCoalesce,
                                  MicroDuration phase = MicroDuration{0});

  void begin(MicroTime interval_start) override;
  [[nodiscard]] bool offer(const trace::PacketRecord& p) override;
  [[nodiscard]] std::string name() const override;

 private:
  MicroDuration period_;
  ExpiryPolicy policy_;
  MicroDuration phase_;
  MicroTime interval_start_;
  std::uint64_t expiries_consumed_{0};  // deadlines already acted upon
};

/// Stratified-random timer: within each window [start+iT, start+(i+1)T) an
/// instant is drawn uniformly; the first packet at or after that instant is
/// selected (windows whose trigger fires during an idle gap select the next
/// packet to arrive, once).
class [[deprecated(
    "use core::draw(view, spec); removed in the next release")]]
StratifiedTimerSampler final : public Sampler {
 public:
  StratifiedTimerSampler(MicroDuration period, Rng rng);

  void begin(MicroTime interval_start) override;
  [[nodiscard]] bool offer(const trace::PacketRecord& p) override;
  [[nodiscard]] std::string name() const override;

 private:
  void arm_window(std::uint64_t window_index);

  MicroDuration period_;
  Rng rng_;
  Rng pass_rng_{0};
  MicroTime interval_start_;
  std::uint64_t window_{0};      // index of the window the trigger lives in
  MicroTime trigger_;            // pending trigger instant
  bool trigger_armed_{false};
};

// ---------------------------------------------------------------------------
// Factory
// ---------------------------------------------------------------------------

/// Everything needed to instantiate any of the five disciplines at a target
/// sampling granularity k (fraction 1/k).
struct SamplerSpec {
  Method method{Method::kSystematicCount};
  std::uint64_t granularity{50};   // k: the reciprocal of the sampling fraction
  /// Start offset for systematic/count (varied to build replications).
  std::uint64_t offset{0};
  /// Population size; required by simple random (n = round(N/k)).
  std::uint64_t population{0};
  /// Mean interarrival time of the parent, used to convert a granularity
  /// into the timer period T = k * mean_iat so that timer methods yield a
  /// comparable sampling fraction (the paper's "comparable cost").
  double mean_interarrival_usec{0.0};
  /// RNG seed for the random disciplines.
  std::uint64_t seed{1};
  ExpiryPolicy expiry_policy{ExpiryPolicy::kCoalesce};
  /// Deadline-grid phase for systematic/timer replications, in microseconds
  /// (must be < the derived period).
  std::uint64_t timer_phase_usec{0};
};

/// Build a sampler; throws std::invalid_argument on inconsistent specs
/// (e.g. simple random without a population, timer without mean interarrival).
[[deprecated("use core::draw(view, spec); removed in the next release")]]
[[nodiscard]] std::unique_ptr<Sampler> make_sampler(const SamplerSpec& spec);

// Derived quantities of a spec, shared by the cursor (core/select_indices.h)
// and the oracle classes so the two cannot diverge in how they read a spec.

/// Timer period T = round(mean_iat * k); throws std::invalid_argument when
/// the spec lacks a positive mean interarrival or the period rounds to 0.
[[nodiscard]] MicroDuration spec_timer_period(const SamplerSpec& spec);

/// Systematic/timer deadline phase, reduced modulo the derived period.
[[nodiscard]] std::uint64_t spec_timer_phase_usec(const SamplerSpec& spec);

/// Simple-random sample size n = max(1, round(N/k)); throws
/// std::invalid_argument when the spec lacks a population.
[[nodiscard]] std::uint64_t spec_simple_random_n(const SamplerSpec& spec);

}  // namespace netsample::core
