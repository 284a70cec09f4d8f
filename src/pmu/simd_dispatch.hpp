// Runtime SIMD dispatch for the PMU response-matrix kernels.
//
// The batched accumulate engine computes, per call, the expected counts of
// the 4 rows in the active counter group. ResponseMatrix lays those rows
// out as a group-blocked column-sparse matrix at program() time (see
// response_matrix.hpp); the kernels here evaluate one group against a
// flattened feature vector, one row per SIMD lane.
//
// Bit-identity contract (DESIGN.md "SIMD kernels & superblock fusion"):
// every kernel produces exactly the scalar per-row accumulation order —
// ascending feature index, one multiply and one dependent add per retained
// column — so lane L's result is bit-identical to the unclamped sum of
// EventResponse::expected_count for row (group*4 + L). Columns whose
// coefficient is +/-0.0 in every lane are pruned at program() time; with
// finite features that is an exact no-op (the accumulator starts at +0.0
// and a sum can only become -0.0 from (-0)+(-0), so adding a zero product
// never changes its bits). No FMA is ever used: the AVX2/AVX-512 translation
// units are compiled with -ffp-contract=off and use explicit mul/add
// intrinsics only.
//
// Dispatch is resolved ONCE, at CounterRegisterFile::program()/set_engine()
// time, into a stored function pointer; feature detection (cpuid) never
// runs inside the noalloc hot paths (enforced by the aegis-lint
// dispatch-once rule). AEGIS_FORCE_SCALAR=1 in the environment disables
// both SIMD ISAs process-wide, pinning every engine to the scalar path
// (the CI fallback leg runs the whole suite this way).
#pragma once

#include <cstddef>
#include <cstdint>

namespace aegis::pmu::simd {

/// Instruction-set level of a resolved accumulate kernel. Numeric values
/// are stable: they are exported as the aegis_pmu_engine_isa gauge and in
/// the BENCH_hotpath.json "engine" field.
enum class SimdIsa : unsigned char { kScalar = 0, kAvx2 = 1, kAvx512 = 2 };

const char* to_string(SimdIsa isa) noexcept;

/// Host capabilities relevant to the kernels, detected once per process.
/// avx512 requires the F+VL+DQ subset the 512-bit kernel uses.
struct CpuFeatures {
  bool avx2 = false;
  bool avx512 = false;
};

/// cpuid-backed detection, cached after the first call. Never call this
/// from a noalloc region (dispatch-once lint rule): resolve at program()
/// time and store the kernel pointer.
CpuFeatures detect_cpu_features() noexcept;

/// True when AEGIS_FORCE_SCALAR=1/true/yes is set in the environment
/// (read once per process).
bool force_scalar_env() noexcept;

/// True when kernels for `isa` can run here: CPU support AND not clamped
/// by AEGIS_FORCE_SCALAR. kScalar is always supported.
bool supported(SimdIsa isa) noexcept;

/// The widest supported ISA (what the auto engine resolves to).
SimdIsa best_isa() noexcept;

/// Evaluates one 4-lane group of the blocked column-sparse layout:
///   out_lanes[l] = sum over c of lane_coeff[4*c + l] * features[col_feat[c]]
/// accumulated in ascending column order per lane (no reassociation, no
/// FMA). `lane_coeff` is 32-byte aligned, 4 doubles per column; the caller
/// applies the negative clamp. Features must be finite.
using ExpectedGroupFn = void (*)(const double* lane_coeff,
                                 const std::uint32_t* col_feat,
                                 std::size_t cols, const double* features,
                                 double* out_lanes);

/// Kernel for `isa`; always returns a callable (the scalar kernel computes
/// the identical sparse accumulation without vector registers). Callers
/// must not request an unsupported ISA — guard with supported().
ExpectedGroupFn expected_group_kernel(SimdIsa isa) noexcept;

}  // namespace aegis::pmu::simd
