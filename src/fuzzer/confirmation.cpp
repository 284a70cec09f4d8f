#include "fuzzer/confirmation.hpp"

#include <array>
#include <cmath>
#include <span>
#include <stdexcept>
#include <vector>

#include "util/stats.hpp"

namespace aegis::fuzzer {

// aegis-lint: noalloc
PathMeasurement measure_path(sim::GadgetRunner& runner, const Gadget& gadget,
                             bool with_trigger, std::size_t event_slot,
                             const ConfirmationParams& params) {
  // Per-repeat deltas live in thread-local scratch: confirmation runs this
  // for every candidate gadget, and per-call vectors dominated its profile.
  // aegis-lint: alloc-ok(thread_local: constructed once per thread, reused)
  thread_local std::vector<double> deltas;
  deltas.clear();
  // aegis-lint: alloc-ok(thread_local scratch; capacity retained across calls)
  deltas.reserve(params.repeats);
  // One unmeasured warm-up execution: the first run of a path carries a
  // cold-cache/predictor transient that would otherwise break the
  // cumulative-vs-median linearity check for genuine gadgets.
  for (std::size_t r = 0; r < params.repeats + 1; ++r) {
    double value = 0.0;
    if (with_trigger) {
      // Reset executes lightly, trigger is unrolled: the measured window is
      // dominated by the trigger's effect when the gadget is genuine.
      const std::array<std::uint32_t, 2> seq = {gadget.reset_uid,
                                                gadget.trigger_uid};
      // Two sub-windows with different unrolls; sum the deltas. The first
      // span aliases runner scratch, so read it before the second call
      // overwrites it.
      const std::span<const double> a = runner.execute_once(
          std::span(seq).first(1), static_cast<double>(params.reset_unroll));
      if (event_slot >= a.size()) {
        throw std::out_of_range("measure_path: event_slot not programmed");
      }
      const double reset_delta = a[event_slot];
      const std::span<const double> b = runner.execute_once(
          std::span(seq).last(1), static_cast<double>(params.trigger_unroll));
      value = reset_delta + b[event_slot];
    } else {
      const std::array<std::uint32_t, 1> seq = {gadget.reset_uid};
      const std::span<const double> d =
          runner.execute_once(seq, static_cast<double>(params.reset_unroll));
      if (event_slot >= d.size()) {
        throw std::out_of_range("measure_path: event_slot not programmed");
      }
      value = d[event_slot];
    }
    // aegis-lint: alloc-ok(appends into pre-reserved thread_local scratch)
    if (r > 0) deltas.push_back(value);
  }
  PathMeasurement m;
  for (double v : deltas) m.cumulative += v;
  // In-place median: deltas is scratch, and the copying median() would be
  // this function's one remaining hot-path allocation.
  m.median = util::median_inplace(deltas);
  return m;
}

ConfirmationOutcome confirm_gadget(sim::GadgetRunner& runner, const Gadget& gadget,
                                   std::size_t event_slot,
                                   const ConfirmationParams& params) {
  ConfirmationOutcome outcome;
  outcome.cold = measure_path(runner, gadget, false, event_slot, params);
  outcome.hot = measure_path(runner, gadget, true, event_slot, params);

  const double R = static_cast<double>(params.repeats);
  const double v_diff = outcome.hot.median - outcome.cold.median;
  const double V_diff = outcome.hot.cumulative - outcome.cold.cumulative;

  // The trigger must produce a real, repeatable change...
  if (v_diff < params.delta_threshold) return outcome;
  // ...that accumulates linearly over repetitions, i.e. the reset sequence
  // genuinely restores S0 each round (C6 rejection):
  //    V2 - V1 = (1 - lambda1) R (v2 - v1),  lambda1 in [-0.2, 0.2].
  const double expected = R * v_diff;
  if (V_diff < (1.0 - params.lambda1) * expected ||
      V_diff > (1.0 + params.lambda1) * expected) {
    return outcome;
  }
  // ...and must dominate any side effect of the reset itself (C5):
  //    V2 > lambda2 * V1. A tiny floor keeps the test meaningful for
  //    events where the cold path counts essentially zero.
  const double v1_floor = std::max(outcome.cold.cumulative, 0.02);
  if (outcome.hot.cumulative <= params.lambda2 * v1_floor) return outcome;

  outcome.confirmed = true;
  return outcome;
}

}  // namespace aegis::fuzzer
