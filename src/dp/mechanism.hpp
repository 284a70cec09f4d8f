// Differential-privacy noise mechanisms (paper Section VII-B).
//
// A mechanism maps the monitored HPC series x[1..T] (normalized units) to a
// noisy series x~[1..T]; the Event Obfuscator realizes x~[t] - x[t] as
// injected instruction gadgets. Two DP mechanisms (Laplace: eps-DP, d*:
// (d*, 2eps)-privacy) plus the two non-DP baselines the paper compares
// against in Section IX-A (uniform random noise, constant-output padding).
#pragma once

#include <cstdint>
#include <memory>
#include <string_view>

namespace aegis::dp {

class NoiseMechanism {
 public:
  virtual ~NoiseMechanism() = default;

  /// Consumes the true value x_t of the protected series at the next time
  /// step (t = 1, 2, ...) and returns the noisy value x~_t.
  virtual double noisy_value(double x_t) = 0;

  /// Restarts the series (t back to 1, history cleared).
  virtual void reset() = 0;

  virtual std::string_view name() const noexcept = 0;
};

enum class MechanismKind : unsigned char {
  kLaplace,
  kDStar,
  kUniformRandom,   // baseline: Section IX-A "Random noise"
  kConstantOutput,  // baseline: Section IX-A "Constant HPC output"
};

std::string_view to_string(MechanismKind k) noexcept;

struct MechanismConfig {
  MechanismKind kind = MechanismKind::kLaplace;
  double epsilon = 1.0;       // privacy budget (Laplace, d*)
  double sensitivity = 1.0;   // Delta_x[t]; 1 after normalization
  double uniform_bound = 1.0; // random-noise baseline: noise ~ U[0, bound]
  double constant_level = 1.0;// constant-output baseline: the peak p
  std::uint64_t seed = 1;

  bool operator==(const MechanismConfig&) const = default;
};

/// Factory over MechanismKind.
std::unique_ptr<NoiseMechanism> make_mechanism(const MechanismConfig& config);

}  // namespace aegis::dp
