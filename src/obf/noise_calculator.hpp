// Noise calculator (paper Section VII-C, userspace daemon component).
//
// Computes the per-slice noise amount from the configured mechanism.
// Laplace noise is drawn on demand, one value per call, with the direct
// uniform->Laplace inverse-CDF transform — the paper notes that calling
// library APIs per draw is too slow (see bench_micro_components for the
// comparison). Draws are not buffered ahead: a session consumes only
// slices x streams draws (600 for a 60-slice, 10-stream session), far fewer
// than a batch refill per stream would draw.
#pragma once

#include <memory>

#include "dp/mechanism.hpp"
#include "util/rng.hpp"

namespace aegis::obf {

class NoiseCalculator {
 public:
  explicit NoiseCalculator(dp::MechanismConfig config);

  /// Normalized noise to inject at the next slice, given the normalized
  /// observation x_t of the protected series (x_t is ignored by mechanisms
  /// with input-independent noise, e.g. Laplace).
  double noise_for(double x_t);

  /// Restarts the protected series (new application run).
  void reset_series();

  const dp::MechanismConfig& config() const noexcept { return config_; }

 private:
  dp::MechanismConfig config_;
  /// The mechanism noise_for delegates to; null for Laplace, which
  /// noise_for draws itself.
  std::unique_ptr<dp::NoiseMechanism> mechanism_;
  util::Rng rng_;
};

}  // namespace aegis::obf
