#include "core/select_indices.h"

#include <algorithm>
#include <stdexcept>

#include "core/simd/simd.h"
#include "obs/metrics.h"
#include "obs/span.h"

namespace netsample::core {

// Every cursor replays the corresponding streaming sampler's sequence of
// uniform_below() calls (same bounds, same order), so the emitted index
// sets are bit-identical to driving the Sampler with draw_sample_indices().
// A draw may happen at a different moment than in the streaming pass (the
// stratified cursors draw a bucket's winner when the previous one is
// emitted, not when the bucket opens), which no output can observe.

SelectCursor::SelectCursor(const SamplerSpec& spec)
    : method_(spec.method), k_(spec.granularity), seed_(spec.seed) {
  // Mirrors make_sampler and the Sampler constructors' checks.
  if (spec.granularity == 0) {
    throw std::invalid_argument("sampler spec: granularity must be >= 1");
  }
  switch (spec.method) {
    case Method::kSystematicCount:
      if (spec.offset >= spec.granularity) {
        throw std::invalid_argument("systematic: offset must be < k");
      }
      offset_ = spec.offset;
      break;
    case Method::kStratifiedCount:
      break;
    case Method::kSimpleRandom:
      pick_ = spec_simple_random_n(spec);
      population_ = spec.population;
      if (pick_ > population_) {
        throw std::invalid_argument("simple random: n exceeds population");
      }
      break;
    case Method::kSystematicTimer:
      k_ = static_cast<std::uint64_t>(spec_timer_period(spec).usec);
      offset_ = spec_timer_phase_usec(spec);
      queue_ = spec.expiry_policy == ExpiryPolicy::kQueue;
      break;
    case Method::kStratifiedTimer:
      k_ = static_cast<std::uint64_t>(spec_timer_period(spec).usec);
      break;
    default:
      throw std::invalid_argument("sampler spec: unknown method");
  }
  begin(0);
}

void SelectCursor::begin(std::uint64_t start_usec) {
  pos_ = 0;
  rng_ = Rng(seed_);
  switch (method_) {
    case Method::kSystematicCount:
      next_ = offset_;
      break;
    case Method::kStratifiedCount:
      // Bucket b's winner is the (b+1)-th uniform_below(k) draw.
      bucket_ = 0;
      next_ = rng_.uniform_below(k_);
      break;
    case Method::kSimpleRandom:
      selected_ = 0;
      break;
    case Method::kSystematicTimer:
      // Deadlines at start + phase + i*T, i >= 1.
      start_ = start_usec + offset_;
      consumed_ = 0;
      next_ = start_ + k_;
      break;
    case Method::kStratifiedTimer:
      // Window w's trigger is start + w*T + uniform_below(T).
      start_ = start_usec;
      consumed_ = 0;
      next_ = start_ + rng_.uniform_below(k_);
      break;
  }
}

void SelectCursor::advance(std::span<const std::uint64_t> ts,
                           std::vector<std::size_t>* out) {
  const std::size_t n = ts.size();
  const std::uint64_t end = pos_ + n;
  switch (method_) {
    case Method::kSystematicCount:
      for (; next_ < end; next_ += k_) {
        out->push_back(static_cast<std::size_t>(next_));
      }
      break;
    case Method::kStratifiedCount: {
      // (When the pass ends on a bucket boundary the streaming sampler
      // makes one extra trailing draw for a bucket that never starts; it
      // selects nothing.)
      Rng rng = rng_;
      while (next_ < end) {
        out->push_back(static_cast<std::size_t>(next_));
        bucket_ += k_;
        next_ = bucket_ + rng.uniform_below(k_);
      }
      rng_ = rng;
      break;
    }
    case Method::kSimpleRandom: {
      // Algorithm S: packets past the declared population are never offered
      // a draw, and once the sample is full the streaming sampler stops
      // drawing — so we stop scanning.
      const std::uint64_t limit = std::min(end, population_);
      Rng rng = rng_;
      std::uint64_t selected = selected_;
      for (std::uint64_t i = pos_; i < limit && selected < pick_; ++i) {
        if (rng.uniform_below(population_ - i) < pick_ - selected) {
          out->push_back(static_cast<std::size_t>(i));
          ++selected;
        }
      }
      rng_ = rng;
      selected_ = selected;
      break;
    }
    case Method::kSystematicTimer: {
      // A packet at time ts is selected iff floor((ts - start) / T) exceeds
      // the expiries already consumed, i.e. iff ts >= next_ — so each
      // selection is one binary search for that deadline. Under kCoalesce
      // all deadlines that elapsed by the selected packet collapse; under
      // kQueue exactly one is consumed per selection (and the search must
      // resume past the selected packet, which a streaming pass cannot
      // re-offer).
      std::size_t j = 0;
      while (j < n && ts[n - 1] >= next_) {
        j = static_cast<std::size_t>(
            std::lower_bound(ts.begin() + static_cast<std::ptrdiff_t>(j),
                             ts.end(), next_) -
            ts.begin());
        out->push_back(static_cast<std::size_t>(pos_ + j));
        consumed_ = queue_ ? consumed_ + 1 : (ts[j] - start_) / k_;
        next_ = start_ + (consumed_ + 1) * k_;
        ++j;
      }
      break;
    }
    case Method::kStratifiedTimer: {
      // The first packet at or after the trigger is selected, then the next
      // armed window is the first one beginning after the selected packet
      // (elapsed windows coalesce). The new trigger lies strictly beyond
      // the selected packet's window, hence beyond the packet itself.
      Rng rng = rng_;
      std::size_t j = 0;
      while (j < n && ts[n - 1] >= next_) {
        j = static_cast<std::size_t>(
            std::lower_bound(ts.begin() + static_cast<std::ptrdiff_t>(j),
                             ts.end(), next_) -
            ts.begin());
        out->push_back(static_cast<std::size_t>(pos_ + j));
        consumed_ = std::max(consumed_ + 1, (ts[j] - start_) / k_ + 1);
        next_ = start_ + consumed_ * k_ + rng.uniform_below(k_);
        ++j;
      }
      rng_ = rng;
      break;
    }
  }
  pos_ = end;
}

std::vector<std::size_t> select_indices(const SamplerSpec& spec,
                                        const BinnedTraceCache& cache,
                                        std::size_t begin, std::size_t end) {
  if (begin > end || end > cache.size()) {
    throw std::out_of_range("select_indices: bad range");
  }
  SelectCursor cursor(spec);  // validates, even when the range is empty
  const std::size_t n = end - begin;
  obs::Span kernel_span("kernel");
  std::vector<std::size_t> out;
  // Batched SIMD kernels replay the same raw RNG word sequence as the
  // cursors (which in turn replay the streaming samplers), so any variant
  // yields the identical index set; a kernel may also decline (return
  // false) and leave the range to the cursor.
  const simd::KernelTable& simd_kernels = simd::kernels();
  bool batched = false;
  std::size_t expected = 0;  // capacity hint for the cursor's output
  switch (spec.method) {
    case Method::kSystematicCount:
      if (n > spec.offset) expected = (n - spec.offset - 1) / spec.granularity + 1;
      break;
    case Method::kStratifiedCount:
      batched = simd_kernels.stratified_count != nullptr &&
                simd_kernels.stratified_count(spec.granularity, spec.seed, n,
                                              &out);
      expected = n / spec.granularity + 1;
      break;
    case Method::kSimpleRandom: {
      const std::uint64_t pick = spec_simple_random_n(spec);
      const std::uint64_t limit = std::min<std::uint64_t>(n, spec.population);
      batched = simd_kernels.simple_random != nullptr &&
                simd_kernels.simple_random(pick, spec.population, limit,
                                           spec.seed, &out);
      expected = static_cast<std::size_t>(pick);
      break;
    }
    default:
      break;
  }
  if (!batched && n > 0) {
    out.reserve(expected);
    const auto ts = cache.timestamps().subspan(begin, n);
    cursor.begin(ts.front());
    cursor.advance(ts, &out);
  }
  if (obs::enabled()) {
    // Every kernel's RNG consumption is a closed-form function of its
    // output (that's what makes the streaming replay auditable), so the
    // draw count is computed here instead of threading a counter through
    // the kernels:
    //   systematic count/timer  — deterministic, 0 draws
    //   stratified count        — one uniform per bucket, ceil(n/k)
    //   simple random (Alg. S)  — one uniform per scanned packet; the scan
    //                             stops at the packet completing the sample
    //   stratified timer        — initial trigger + one re-arm per selection
    std::uint64_t draws = 0;
    switch (spec.method) {
      case Method::kStratifiedCount:
        draws = (static_cast<std::uint64_t>(n) + spec.granularity - 1) /
                spec.granularity;
        break;
      case Method::kSimpleRandom: {
        const std::uint64_t limit =
            std::min<std::uint64_t>(n, spec.population);
        draws = (!out.empty() && out.size() == spec_simple_random_n(spec))
                    ? static_cast<std::uint64_t>(out.back()) + 1
                    : limit;
        break;
      }
      case Method::kStratifiedTimer:
        draws = static_cast<std::uint64_t>(out.size()) + (n != 0 ? 1 : 0);
        break;
      default:
        break;
    }
    auto& reg = obs::registry();
    static obs::Counter& calls = reg.counter("netsample_select_calls_total");
    static obs::Counter& offered =
        reg.counter("netsample_select_offered_total");
    static obs::Counter& emitted =
        reg.counter("netsample_select_indices_total");
    static obs::Counter& rng_draws =
        reg.counter("netsample_select_rng_draws_total");
    calls.increment();
    offered.add(n);
    emitted.add(out.size());
    rng_draws.add(draws);
  }
  return out;
}

}  // namespace netsample::core
