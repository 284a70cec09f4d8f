#include "pmu/response_matrix.hpp"

#include <algorithm>
#include <cstdint>

namespace aegis::pmu {

// aegis-lint: noalloc
void flatten_stats(const ExecutionStats& s, double* out) noexcept {
  constexpr std::size_t kClasses = isa::kNumInstructionClasses;
  for (std::size_t i = 0; i < kClasses; ++i) {
    out[i] = s.class_counts.at_index(i);
  }
  out[kClasses + 0] = s.uops;
  out[kClasses + 1] = s.l1_misses;
  out[kClasses + 2] = s.llc_misses;
  out[kClasses + 3] = s.l1_writes;
  out[kClasses + 4] = s.branch_mispredicts;
  out[kClasses + 5] = s.mem_reads;
  out[kClasses + 6] = s.mem_writes;
  out[kClasses + 7] = s.cycles;
  out[kClasses + 8] = s.interrupts;
}

namespace {

/// Flattens one response into its coefficient row, column for column with
/// flatten_stats: class weights first, then the scalar coefficients in
/// expected_count's term order.
void flatten_response(const EventResponse& r, double* out) noexcept {
  constexpr std::size_t kClasses = isa::kNumInstructionClasses;
  for (std::size_t i = 0; i < kClasses; ++i) {
    out[i] = static_cast<double>(r.class_weight.at_index(i));
  }
  out[kClasses + 0] = static_cast<double>(r.per_uop);
  out[kClasses + 1] = static_cast<double>(r.per_l1_miss);
  out[kClasses + 2] = static_cast<double>(r.per_llc_miss);
  out[kClasses + 3] = static_cast<double>(r.per_l1_write);
  out[kClasses + 4] = static_cast<double>(r.per_branch_miss);
  out[kClasses + 5] = static_cast<double>(r.per_mem_read);
  out[kClasses + 6] = static_cast<double>(r.per_mem_write);
  out[kClasses + 7] = static_cast<double>(r.per_cycle);
  out[kClasses + 8] = static_cast<double>(r.per_interrupt);
}

}  // namespace

// Per group of 4 rows: the ascending union of feature columns any lane
// responds to, packed as 4 lane coefficients per column. Rows past the end
// pad their lanes with zeros. Exact-zero columns are pruned — a bit-exact
// no-op under IEEE-754 for finite features (simd_dispatch.hpp).
void ResponseMatrix::program(const EventDatabase& db,
                             std::span<const std::uint32_t> ids) {
  const std::size_t ngroups = (ids.size() + kLanes - 1) / kLanes;
  noise_.clear();
  noise_.reserve(ids.size());
  col_feat_.clear();
  group_off_.assign(ngroups + 1, 0);
  slice_noise_.assign(ngroups, 0);
  std::vector<double> packed;
  for (std::size_t g = 0; g < ngroups; ++g) {
    double rows[kLanes][kStatsFeatureDim] = {};
    for (std::size_t l = 0; l < kLanes && g * kLanes + l < ids.size(); ++l) {
      const EventResponse& r = db.by_id(ids[g * kLanes + l]).response;
      flatten_response(r, rows[l]);
      noise_.push_back(RowNoise{r.noise_rel, r.noise_abs, r.host_background});
      if (r.noise_abs > 0.0f || r.host_background > 0.0f) slice_noise_[g] = 1;
    }
    for (std::uint32_t f = 0; f < kStatsFeatureDim; ++f) {
      bool any = false;
      for (std::size_t l = 0; l < kLanes; ++l) any |= rows[l][f] != 0.0;
      if (!any) continue;
      col_feat_.push_back(f);
      for (std::size_t l = 0; l < kLanes; ++l) packed.push_back(rows[l][f]);
    }
    group_off_[g + 1] = static_cast<std::uint32_t>(col_feat_.size());
  }

  // 64-byte aligned copy (overallocate by 7 doubles and round the base
  // pointer up; vector data is always 8-byte aligned).
  lane_store_.assign(packed.size() + 7, 0.0);
  double* base = lane_store_.data();
  while (reinterpret_cast<std::uintptr_t>(base) % 64 != 0) ++base;
  std::copy(packed.begin(), packed.end(), base);
  lane_coeff_ = base;
}

}  // namespace aegis::pmu
