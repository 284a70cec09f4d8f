// Rotating noise plans (Obelix-style dynamic defense, ROADMAP item 3).
//
// A fixed weighted gadget segment places every injected count on one learned
// direction (per stream) in event space; an adaptive attacker who retrains
// on obfuscated traces can model that stationary signature. RotatingPlan
// answers by morphing the plan over time: it derives `variants` distinct
// reweightings of the base segment and walks them on a deterministic,
// seed-keyed schedule (one variant per `period` slices), so the injected
// signature is non-stationary across the attacker's pooling windows.
//
// Privacy neutrality BY CONSTRUCTION: every variant keeps the base plan's
// gadget list (same gadget count, hence the same number of per-gadget noise
// streams), and the rotation only selects WHICH injector realizes each
// slice's noise. The DP mechanism draws — the only thing the accountant
// charges — are one per stream per slice, exactly as for the fixed plan.
// tests/obf_test's RotationIsPrivacyNeutral pins this property.
#pragma once

#include <cstdint>
#include <vector>

#include "obf/injector.hpp"

namespace aegis::obf {

struct RotatingPlanConfig {
  std::size_t variants = 4;  // distinct reweightings to rotate over (>= 1)
  std::size_t period = 16;   // slices per variant before morphing
  double boost = 2.5;        // weight multiplier on each variant's subset
  std::uint64_t seed = 0x0BE11ULL;  // schedule + subset derivation

  bool operator==(const RotatingPlanConfig&) const = default;
};

class RotatingPlan {
 public:
  /// Derives `config.variants` reweightings of `base`. Variant v boosts the
  /// gadgets of a seed-derived subset (one in every `variants` gadgets,
  /// phase-shifted by v) by `config.boost`; all variants share the base
  /// gadget list and order.
  RotatingPlan(std::vector<WeightedGadget> base, RotatingPlanConfig config);

  std::size_t variants() const noexcept { return segments_.size(); }
  std::size_t period() const noexcept { return config_.period; }
  const RotatingPlanConfig& config() const noexcept { return config_; }

  /// Deterministic schedule: slice t runs variant
  /// schedule[(t / period) mod variants], where schedule is a seed-keyed
  /// permutation of the variant ids. Pure function of (config, t).
  std::size_t variant_at(std::size_t slice) const noexcept;

  const std::vector<WeightedGadget>& segment(std::size_t variant) const {
    return segments_.at(variant);
  }

 private:
  RotatingPlanConfig config_;
  std::vector<std::vector<WeightedGadget>> segments_;
  std::vector<std::size_t> schedule_;
};

}  // namespace aegis::obf
