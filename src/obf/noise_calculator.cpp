#include "obf/noise_calculator.hpp"

#include <stdexcept>

namespace aegis::obf {

NoiseCalculator::NoiseCalculator(dp::MechanismConfig config)
    : config_(config), rng_(config.seed ^ 0xCA1CULL) {
  if (config_.kind == dp::MechanismKind::kLaplace) {
    // noise_for draws Laplace noise itself; only the parameter check of
    // dp::LaplaceMechanism applies.
    if (config_.epsilon <= 0.0 || config_.sensitivity <= 0.0) {
      throw std::invalid_argument(
          "NoiseCalculator: Laplace epsilon and sensitivity must be > 0");
    }
    return;
  }
  mechanism_ = dp::make_mechanism(config_);
}

// aegis-rng: stream(noise-calculator-noise-for)
double NoiseCalculator::noise_for(double x_t) {
  if (config_.kind == dp::MechanismKind::kLaplace) {
    // Fast path: input-independent noise, one direct-transform draw.
    return rng_.laplace(0.0, config_.sensitivity / config_.epsilon);
  }
  return mechanism_->noisy_value(x_t) - x_t;
}

void NoiseCalculator::reset_series() {
  // Laplace noise is i.i.d.: there is no series state to restart.
  if (mechanism_) mechanism_->reset();
}

}  // namespace aegis::obf
