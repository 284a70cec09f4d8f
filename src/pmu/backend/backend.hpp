// Multi-vendor PMU backend layer (see DESIGN.md "PMU backends & adaptive
// grouping").
//
// A PmuBackend bundles everything SKU-specific about one processor model:
//   * the synthetic EventDatabase (paper Table I/II scale),
//   * the counter topology — 4 programmable core counters on both paper
//     testbeds, plus the vendor's fixed-counter bank and uncore bank,
//   * a CounterTier per event (the faultline-style availability taxonomy:
//     universal / standard / extended / uncore),
//   * per-SKU name overrides (the perf generic alias -> vendor raw event),
//   * the default attack-event set the paper's attacks monitor on this
//     vendor (Section III-B on AMD; the Intel equivalents on Xeon E5).
//
// Everything that differs between the two vendor families is data: one
// constexpr BackendTraits record per family. The backend itself holds no
// mutable state, tier classification consumes no RNG draws, and the
// wrapped database is exactly EventDatabase::generate(model) — so routing
// call sites through the backend changes no bytes anywhere (the AMD
// goldens are pinned by tests/backend_test.cpp).
//
// backend_for(model) is the one place a CpuModel becomes a PmuBackend.
// Every component that would call EventDatabase::generate(model) directly
// asks it instead (enforced by the aegis-lint `backend-registry` rule);
// backends are lazily constructed process-wide singletons, so the 6k-event
// Intel database is generated at most once per process and every Aegis
// instance on the same model shares one immutable database.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "pmu/event_database.hpp"

namespace aegis::pmu::backend {

/// Availability tier of one event across a vendor's SKU range (model:
/// SNIPPETS.md Snippet 3, faultline's CounterTier).
enum class CounterTier : std::uint8_t {
  kUniversal = 0,  // architectural: perf generic hardware events, present
                   // (and fixed-counter servable) on every x86-64 SKU
  kStandard,       // kernel-provided: software events, cache events,
                   // tracepoints, probes — availability follows the kernel,
                   // not the SKU
  kExtended,       // vendor raw PMU events: per-family, programmable
                   // counters only
  kUncore,         // off-core (fabric/uncore) events: separate counter
                   // bank, host-scoped
};

inline constexpr std::size_t kNumCounterTiers = 4;

std::string_view to_string(CounterTier tier) noexcept;

/// A perf generic alias and the vendor raw event it resolves to on a SKU
/// (model: faultline's PMUCounter::skuOverride).
struct SkuOverride {
  std::string_view alias;
  std::string_view raw;
};

/// One vendor family's PMU personality, as data.
struct BackendTraits {
  /// Stable backend identifier, one per vendor family ("amd-zen2",
  /// "intel-xeon-e5"). Flows into TemplateCache keys, serialize headers
  /// and BENCH_*.json artifacts so cross-SKU comparisons fail loudly.
  std::string_view id;
  /// Fixed-function counter slots (Intel: INST_RETIRED / CPU_CLK /
  /// REF_CLK = 3; AMD Zen2: IRPERF + APERF = 2).
  std::size_t fixed_counter_budget;
  /// Uncore-bank counters per slice (AMD data fabric, Intel C-box PMON).
  std::size_t uncore_counter_budget;
  /// Names a fixed-function counter can serve: the generic aliases and
  /// their raw twins both qualify.
  std::array<std::string_view, 4> fixed_counter_events;
  /// Default attack-event names (paper Section III-B on AMD; the Xeon E5
  /// equivalents on Intel), one per programmable counter.
  std::array<std::string_view, EventDatabase::kNumCounters> attack_events;
  std::array<SkuOverride, 4> sku_overrides;
};

/// One processor model's PMU personality: its event database plus its
/// family's traits. Obtain one through backend_for().
class PmuBackend final {
 public:
  PmuBackend(const PmuBackend&) = delete;
  PmuBackend& operator=(const PmuBackend&) = delete;

  isa::CpuModel model() const noexcept { return db_.model(); }
  std::string_view id() const noexcept { return traits_.id; }

  /// The model's event database — byte-identical to calling
  /// EventDatabase::generate(model()) directly (single shared instance).
  const EventDatabase& database() const noexcept { return db_; }

  /// Programmable core counters available for concurrent monitoring
  /// (paper: 4 on both testbeds).
  std::size_t counter_budget() const noexcept {
    return EventDatabase::kNumCounters;
  }

  /// Fixed-function counter slots. Events servable here do not consume a
  /// programmable slot.
  std::size_t fixed_counter_budget() const noexcept {
    return traits_.fixed_counter_budget;
  }

  /// Uncore-bank counters per slice. Uncore events multiplex through this
  /// bank concurrently with the core bank.
  std::size_t uncore_counter_budget() const noexcept {
    return traits_.uncore_counter_budget;
  }

  /// True when `name` can be served by a fixed-function counter on this
  /// vendor (the generic alias and its raw twin both qualify).
  bool fixed_counter_event(std::string_view name) const noexcept;

  /// Availability tier of one event. Deterministic classification over
  /// (type, name) only — never consumes randomness, so adding a backend
  /// cannot perturb the generated database.
  CounterTier tier_of(std::uint32_t event_id) const;

  /// Events per tier over the whole database (golden-pinned per vendor).
  std::array<std::size_t, kNumCounterTiers> tier_counts() const;

  /// Default attack-event names for this vendor. Size == counter_budget().
  std::vector<std::string_view> attack_event_names() const {
    return {traits_.attack_events.begin(), traits_.attack_events.end()};
  }

  /// attack_event_names() resolved to database ids, in order.
  std::vector<std::uint32_t> attack_events() const;

  /// Per-SKU name override: the vendor raw event a perf generic alias
  /// resolves to on this SKU ("" = no override, use the shared name).
  std::string_view sku_override(std::string_view name) const noexcept;

  /// find() that honours sku_override: resolves `name` directly, or via
  /// its override when the shared name needs SKU-specific spelling.
  std::optional<std::uint32_t> resolve(std::string_view name) const noexcept;

 private:
  friend const PmuBackend& backend_for(isa::CpuModel model);
  explicit PmuBackend(isa::CpuModel model);

  EventDatabase db_;
  const BackendTraits& traits_;
};

/// The process-wide backend for one model. Never fails: every
/// isa::CpuModel has one (pinned by backend_test's Registry.CoversEveryModel).
const PmuBackend& backend_for(isa::CpuModel model);

/// Shorthand for backend_for(model).id().
std::string_view backend_id(isa::CpuModel model);

/// Every supported model, in isa::CpuModel declaration order.
std::vector<isa::CpuModel> supported_models();

/// Parses a CPU selector: a vendor shorthand ("amd", "intel"), a model
/// token ("AmdEpyc7252", ...) or a full model name ("AMD EPYC 7252", ...).
std::optional<isa::CpuModel> parse_cpu_model(std::string_view text) noexcept;

/// Tool-facing model selection: the AEGIS_CPU environment variable when
/// set and parseable, `fallback` otherwise. Benches and the CI Intel leg
/// steer whole runs through one backend with this (the library itself
/// never reads it — determinism stays config-driven).
isa::CpuModel model_from_env(
    isa::CpuModel fallback = isa::CpuModel::kAmdEpyc7252) noexcept;

}  // namespace aegis::pmu::backend
