#include "pmu/simd_dispatch.hpp"

#include <cstdlib>
#include <cstring>

namespace aegis::pmu::simd {

// Defined in simd_kernels_avx2.cpp / simd_kernels_avx512.cpp, which are
// compiled with their own -m flags (see src/CMakeLists.txt). Declared here
// rather than in the public header so nothing outside the dispatch seam can
// call an ISA-specific symbol without going through supported().
void expected_group_avx2(const double* lane_coeff, const std::uint32_t* col_feat,
                         std::size_t cols, const double* features,
                         double* out_lanes);
void expected_group_avx512(const double* lane_coeff,
                           const std::uint32_t* col_feat, std::size_t cols,
                           const double* features, double* out_lanes);
bool have_avx2_support() noexcept;
bool have_avx512_support() noexcept;

namespace {

/// Sparse scalar kernel: the exact accumulation order every SIMD kernel
/// must reproduce per lane. The kScalar engine runs it, and so does every
/// engine when no vector ISA is usable.
void expected_group_scalar(const double* lane_coeff,
                           const std::uint32_t* col_feat, std::size_t cols,
                           const double* features, double* out_lanes) {
  double acc0 = 0.0, acc1 = 0.0, acc2 = 0.0, acc3 = 0.0;
  for (std::size_t c = 0; c < cols; ++c) {
    const double f = features[col_feat[c]];
    const double* lane = lane_coeff + 4 * c;
    acc0 += lane[0] * f;
    acc1 += lane[1] * f;
    acc2 += lane[2] * f;
    acc3 += lane[3] * f;
  }
  out_lanes[0] = acc0;
  out_lanes[1] = acc1;
  out_lanes[2] = acc2;
  out_lanes[3] = acc3;
}

bool env_truthy(const char* name) {
  const char* v = std::getenv(name);
  if (v == nullptr) return false;
  return std::strcmp(v, "1") == 0 || std::strcmp(v, "true") == 0 ||
         std::strcmp(v, "yes") == 0 || std::strcmp(v, "on") == 0;
}

}  // namespace

const char* to_string(SimdIsa isa) noexcept {
  switch (isa) {
    case SimdIsa::kAvx2:
      return "avx2";
    case SimdIsa::kAvx512:
      return "avx512";
    case SimdIsa::kScalar:
      break;
  }
  return "scalar";
}

CpuFeatures detect_cpu_features() noexcept {
  // cpuid is not free and must never run per accumulate call; the static
  // makes repeat resolution (one per program()) a plain load.
  static const CpuFeatures cached = [] {
    CpuFeatures f;
    f.avx2 = have_avx2_support();
    f.avx512 = have_avx512_support();
    return f;
  }();
  return cached;
}

bool force_scalar_env() noexcept {
  static const bool forced = env_truthy("AEGIS_FORCE_SCALAR");
  return forced;
}

bool supported(SimdIsa isa) noexcept {
  if (isa == SimdIsa::kScalar) return true;
  if (force_scalar_env()) return false;
  const CpuFeatures f = detect_cpu_features();
  return isa == SimdIsa::kAvx2 ? f.avx2 : f.avx512;
}

SimdIsa best_isa() noexcept {
  if (supported(SimdIsa::kAvx512)) return SimdIsa::kAvx512;
  if (supported(SimdIsa::kAvx2)) return SimdIsa::kAvx2;
  return SimdIsa::kScalar;
}

ExpectedGroupFn expected_group_kernel(SimdIsa isa) noexcept {
  switch (isa) {
    case SimdIsa::kAvx2:
      return &expected_group_avx2;
    case SimdIsa::kAvx512:
      return &expected_group_avx512;
    case SimdIsa::kScalar:
      break;
  }
  return &expected_group_scalar;
}

}  // namespace aegis::pmu::simd
