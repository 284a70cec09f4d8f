// Hardware counter register file with perf-style time multiplexing.
//
// Both testbed CPUs expose 4 programmable counter registers. Monitoring
// more than 4 events forces the perf subsystem to time-multiplex groups and
// scale counts by enabled/running time — an accuracy loss the paper's
// profiler avoids by monitoring exactly 4 events per run (Section V-B).
// This class reproduces both behaviours, plus the per-read measurement
// noise that makes HPC values non-deterministic (C2).
//
// The accumulate engines share one observable behaviour (see DESIGN.md
// "PMU hot path" and "SIMD kernels & superblock fusion"):
//   * kBatched (default) — one group-kernel call over the blocked-sparse
//     coefficients flattened at program() time (pmu::ResponseMatrix);
//     touches only the active counter group, O(active) per call.
//     Auto-dispatches to the widest supported kernel (AVX-512, then AVX2,
//     then sparse scalar) — the dispatch decision is made ONCE, at
//     program()/set_engine() time, never per call.
//   * kScalar / kAvx2 / kAvx512 — the batched engine pinned to one kernel
//     (an unsupported pin falls back to the sparse scalar kernel;
//     resolved_isa() reports what actually runs). AEGIS_FORCE_SCALAR=1
//     clamps everything to the sparse scalar kernel.
//   * kReference — the original per-slot EventDatabase::by_id walk over
//     every slot, retained as the equivalence/bench ground truth.
// All engines draw measurement noise in the same per-slot order from the
// same stream, so counter values are bit-identical across engines.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "pmu/event_database.hpp"
#include "pmu/response_matrix.hpp"
#include "pmu/simd_dispatch.hpp"
#include "telemetry/metrics.hpp"
#include "util/rng.hpp"

namespace aegis::pmu {

/// Selects the accumulate/end_slice implementation of a
/// CounterRegisterFile. kReference is the retained pre-batching code path;
/// production always runs kBatched (auto SIMD dispatch). The pinned
/// engines exist for the differential suite and the bench.
enum class AccumulateEngine : unsigned char {
  kBatched = 0,  // batched layout, widest supported SIMD kernel
  kReference,    // per-slot scattered walk (ground truth)
  kScalar,       // batched layout, sparse scalar group kernel
  kAvx2,         // batched layout, AVX2 group kernel
  kAvx512,       // batched layout, AVX-512 group kernel
};

class CounterRegisterFile {
 public:
  CounterRegisterFile(const EventDatabase& db, std::uint64_t noise_seed);
  /// Adds this file's accumulate calls to aegis_pmu_accumulate_total: the
  /// counter is bumped once per register file, not once per call.
  ~CounterRegisterFile();
  CounterRegisterFile(const CounterRegisterFile&) = delete;
  CounterRegisterFile& operator=(const CounterRegisterFile&) = delete;

  /// Programs the set of monitored events and zeroes all counts. More than
  /// EventDatabase::kNumCounters ids enables multiplexing. Also resolves
  /// the SIMD kernel dispatch for the current engine (never re-examined on
  /// the per-call paths).
  void program(std::vector<std::uint32_t> event_ids);

  /// Zeroes counts and multiplexing bookkeeping, keeping the programming.
  void reset() noexcept;

  /// Accounts one batch of executed work into the currently-active group,
  /// applying each event's response and measurement noise. Does not rotate.
  void accumulate(const ExecutionStats& stats);

  /// Per-slice host-side effects: background counting of host-only events
  /// and multiplex rotation. Call once per monitoring slice.
  void end_slice();

  /// Convenience: accumulate + end_slice.
  void tick(const ExecutionStats& stats);

  /// Multiplex-scaled count (count * total_time / active_time), as perf
  /// reports it. Throws if the event is not programmed.
  double read(std::uint32_t event_id) const;

  /// Raw accumulated count with no multiplex scaling (RDPMC view).
  double read_raw(std::uint32_t event_id) const;

  /// Raw count of slot `slot_index` (0-based programming order), skipping
  /// the id lookup. For callers that resolved their slot indices once at
  /// program() time (GadgetRunner's RDPMC loop).
  // aegis-lint: noalloc
  double read_raw_slot(std::size_t slot_index) const noexcept {
    return slots_[slot_index].count;
  }

  std::vector<double> read_all() const;
  /// read_all into `out`, reusing its storage (a per-slice sampler reads
  /// every slice without allocating once `out` has grown).
  void read_all(std::vector<double>& out) const;

  bool multiplexed() const noexcept {
    return slots_.size() > EventDatabase::kNumCounters;
  }
  const std::vector<std::uint32_t>& programmed() const noexcept { return ids_; }

  /// Engine used by this instance (captured from the process-wide default
  /// at construction; tests can override per instance). Setting an engine
  /// re-resolves the kernel dispatch immediately.
  AccumulateEngine engine() const noexcept { return engine_; }
  void set_engine(AccumulateEngine engine) noexcept {
    engine_ = engine;
    resolve_dispatch();
  }

  /// The ISA the batched engine actually runs after dispatch: requested pins
  /// degrade to kScalar when the CPU (or AEGIS_FORCE_SCALAR) rules them
  /// out. Always kScalar for kReference.
  simd::SimdIsa resolved_isa() const noexcept { return resolved_isa_; }

  /// Process-wide default engine for newly constructed register files. The
  /// equivalence suite and bench flip this to run whole campaigns — which
  /// construct their register files internally — through either engine.
  static void set_default_engine(AccumulateEngine engine) noexcept;
  static AccumulateEngine default_engine() noexcept;

 private:
  struct Slot {
    std::uint32_t event_id = 0;
    double count = 0.0;
    std::uint64_t active_slices = 0;
  };

  std::size_t group_count() const noexcept;
  bool slot_active(std::size_t slot_index) const noexcept;
  /// [first, last) slot range of the currently-active counter group (groups
  /// are contiguous by construction).
  std::pair<std::size_t, std::size_t> active_range() const noexcept;
  std::size_t slot_of(std::uint32_t event_id) const;
  double read_slot(std::size_t slot_index) const noexcept;

  /// Resolves engine_ into a stored kernel pointer + ISA (cpuid runs here,
  /// on the cold path, never inside accumulate — dispatch-once rule).
  void resolve_dispatch() noexcept;

  void accumulate_batched(const ExecutionStats& stats);
  void accumulate_reference(const ExecutionStats& stats);
  void end_slice_batched();
  void end_slice_reference();

  const EventDatabase* db_;
  util::Rng rng_;
  std::vector<std::uint32_t> ids_;
  std::vector<Slot> slots_;
  /// Programmed-id -> slot index; replaces the former O(n) linear scan in
  /// read/read_raw (O(n^2) for a fully-programmed 1903-event sweep).
  std::unordered_map<std::uint32_t, std::uint32_t> slot_index_;
  ResponseMatrix matrix_;
  std::size_t active_group_ = 0;
  std::uint64_t total_slices_ = 0;
  AccumulateEngine engine_;
  /// Dispatch state, resolved once per program()/set_engine(); never null.
  simd::ExpectedGroupFn group_kernel_ = nullptr;
  simd::SimdIsa resolved_isa_ = simd::SimdIsa::kScalar;
  /// Resolved once at construction (telemetry-handle rule); the destructor
  /// adds accumulate_count_ to it in one step, so the noalloc accumulate
  /// path only bumps a plain member.
  telemetry::Counter accumulate_calls_;
  std::uint64_t accumulate_count_ = 0;
  /// Last-resolved ISA, exported so aegis_top/CI logs show which kernel
  /// actually runs (0 scalar, 1 avx2, 2 avx512).
  telemetry::Gauge engine_isa_gauge_;
};

}  // namespace aegis::pmu
