// The per-packet sampler interface (Section 4 of the paper).
//
// A Sampler is a streaming, one-pass packet-selection discipline: the
// forwarding path offers it every packet and it answers "include this one in
// the sample?". This is exactly the shape of the mechanism the paper
// describes being pushed into the T3 subsystems' firmware (and the shape
// sFlow/NetFlow sampled exports later standardized): selection must be
// decidable online, per packet, with O(1) state.
//
// The paper's five methods select through core::draw(view, spec)
// (core/targets.h) since v1.3. This interface stays the supported
// extension API for per-packet disciplines without a cursor, such as
// BernoulliSampler and ScheduledStratifiedSampler (samplers.h), driven over
// a view with draw(view, sampler) or draw_sample_indices().
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "trace/trace.h"
#include "util/cancel.h"
#include "util/timeval.h"

namespace netsample::core {

class Sampler {
 public:
  virtual ~Sampler() = default;

  /// Start a pass over an observation interval beginning at `interval_start`.
  /// Count-triggered samplers ignore the time; timer-triggered samplers arm
  /// their first deadline relative to it. Must be called before offer().
  virtual void begin(MicroTime interval_start) = 0;

  /// Offer the next packet in arrival order; returns true to include it.
  [[nodiscard]] virtual bool offer(const trace::PacketRecord& p) = 0;

  /// Human-readable discipline name ("systematic/count", ...).
  [[nodiscard]] virtual std::string name() const = 0;
};

/// Drive `sampler` over every packet of `view` (calling begin() with the
/// view's start time) and return the positions it selects, ascending. When
/// `cancel` is non-null the per-packet loop polls it every
/// util::kCancelPollStride packets and unwinds with util::StatusError on
/// cancellation or deadline expiry (the watchdog hook for wedged streaming
/// passes).
[[nodiscard]] std::vector<std::size_t> draw_sample_indices(
    trace::TraceView view, Sampler& sampler,
    const util::CancelToken* cancel = nullptr);

/// As draw_sample_indices, but returns the selected packets.
[[deprecated("use draw(view, sampler).packets(); removed in the next release")]]
[[nodiscard]] std::vector<trace::PacketRecord> draw_sample(
    trace::TraceView view, Sampler& sampler,
    const util::CancelToken* cancel = nullptr);

}  // namespace netsample::core
