#include "pmu/backend/backend.hpp"

#include <algorithm>
#include <cstdlib>
#include <iterator>
#include <stdexcept>
#include <string>

namespace aegis::pmu::backend {

namespace {

// AMD Zen 2 family: EPYC 7252 and EPYC 7313P (paper Table I — 1903 events
// each, 0 differing within the family).
constexpr BackendTraits kAmdZen2{
    .id = "amd-zen2",
    // IRPERF (retired instructions) + APERF (unhalted cycles); with only
    // two slots, the packer spills later claimants to the programmable
    // bank.
    .fixed_counter_budget = 2,
    .uncore_counter_budget = 4,  // data-fabric counters
    .fixed_counter_events = {"INSTRUCTIONS", "CPU-CYCLES",
                             "RETIRED_INSTRUCTIONS", "CYCLES_NOT_IN_HALT"},
    // The paper's four Section III-B attack events, verbatim.
    .attack_events = kAmdAttackEvents,
    .sku_overrides = {{{"INSTRUCTIONS", "RETIRED_INSTRUCTIONS"},
                       {"CPU-CYCLES", "CYCLES_NOT_IN_HALT"},
                       {"BRANCH-INSTRUCTIONS", "RETIRED_BRANCH_INSTRUCTIONS"},
                       {"BRANCH-MISSES", "RETIRED_BRANCH_MISPREDICTED"}}},
};

// Intel Xeon E5 family: E5-1650 and E5-4617 (paper Table I — 6166 vs 6172
// events, exactly 14 differing within the family).
constexpr BackendTraits kIntelXeonE5{
    .id = "intel-xeon-e5",
    // Architectural fixed counters: INST_RETIRED.ANY, CPU_CLK_UNHALTED,
    // CPU_CLK_UNHALTED.REF. INST_RETIRED:ANY is the raw spelling of the
    // INSTRUCTIONS alias and shares its slot.
    .fixed_counter_budget = 3,
    .uncore_counter_budget = 4,  // C-box/uncore PMON counters
    .fixed_counter_events = {"INSTRUCTIONS", "CPU-CYCLES", "REF-CYCLES",
                             "INST_RETIRED:ANY"},
    // Mirrors the paper's AMD picks (uops, loads, L1 activity, LLC
    // refills), led by the event the paper itself names for Intel:
    // MEM_LOAD_UOPS_RETIRED:L1_HIT (Section VIII extension).
    .attack_events = {"MEM_LOAD_UOPS_RETIRED:L1_HIT", "UOPS_RETIRED:ALL",
                      "MEM_UOPS_RETIRED:ALL_LOADS", "LONGEST_LAT_CACHE:MISS"},
    .sku_overrides = {{{"INSTRUCTIONS", "INST_RETIRED:ANY"},
                       {"BRANCH-INSTRUCTIONS", "BR_INST_RETIRED:ALL_BRANCHES"},
                       {"BRANCH-MISSES", "BR_MISP_RETIRED:ALL_BRANCHES"},
                       {"CACHE-MISSES", "LONGEST_LAT_CACHE:MISS"}}},
};

// Every supported model, in isa::CpuModel declaration order.
constexpr isa::CpuModel kModels[] = {
    isa::CpuModel::kIntelXeonE5_1650, isa::CpuModel::kIntelXeonE5_4617,
    isa::CpuModel::kAmdEpyc7252, isa::CpuModel::kAmdEpyc7313P};

const BackendTraits& traits_for(isa::CpuModel model) noexcept {
  return isa::vendor_of(model) == isa::Vendor::kIntel ? kIntelXeonE5
                                                      : kAmdZen2;
}

}  // namespace

std::string_view to_string(CounterTier tier) noexcept {
  switch (tier) {
    case CounterTier::kUniversal: return "universal";
    case CounterTier::kStandard: return "standard";
    case CounterTier::kExtended: return "extended";
    case CounterTier::kUncore: return "uncore";
  }
  return "unknown";
}

PmuBackend::PmuBackend(isa::CpuModel model)
    // The backend is a VIEW over the unchanged generator: same seed, same
    // draw order, same bytes as every pre-backend call site produced.
    // src/pmu/backend/ is the one sanctioned generate() caller — the gate
    // disables the backend-registry rule for this directory, so no
    // suppression comment is needed (one here would be flagged as stale).
    : db_(EventDatabase::generate(model)), traits_(traits_for(model)) {}

bool PmuBackend::fixed_counter_event(std::string_view name) const noexcept {
  const auto& names = traits_.fixed_counter_events;
  return std::find(names.begin(), names.end(), name) != names.end();
}

CounterTier PmuBackend::tier_of(std::uint32_t event_id) const {
  const EventDescriptor& e = db_.by_id(event_id);
  // Name-based refinements first: a fixed-counter alias is architectural
  // wherever it appears, and the synthetic uncore events are identifiable
  // by the generator's UNCORE_ name stem.
  if (fixed_counter_event(e.name)) return CounterTier::kUniversal;
  switch (e.type) {
    case EventType::kHardware:
      return CounterTier::kUniversal;
    case EventType::kSoftware:
    case EventType::kHwCache:
    case EventType::kTracepoint:
    case EventType::kOther:
      return CounterTier::kStandard;
    case EventType::kRawCpu:
      return e.name.find("UNCORE_") != std::string::npos
                 ? CounterTier::kUncore
                 : CounterTier::kExtended;
    case EventType::kCount:
      break;
  }
  return CounterTier::kExtended;
}

std::array<std::size_t, kNumCounterTiers> PmuBackend::tier_counts() const {
  std::array<std::size_t, kNumCounterTiers> counts{};
  for (const EventDescriptor& e : db_.events()) {
    ++counts[static_cast<std::size_t>(tier_of(e.id))];
  }
  return counts;
}

std::vector<std::uint32_t> PmuBackend::attack_events() const {
  std::vector<std::uint32_t> ids;
  for (std::string_view name : traits_.attack_events) {
    const auto id = db_.find(name);
    if (!id) {
      throw std::logic_error("PmuBackend: attack event '" + std::string(name) +
                             "' missing from " +
                             std::string(isa::to_string(model())) +
                             " database");
    }
    ids.push_back(*id);
  }
  return ids;
}

std::string_view PmuBackend::sku_override(
    std::string_view name) const noexcept {
  for (const SkuOverride& o : traits_.sku_overrides) {
    if (o.alias == name) return o.raw;
  }
  return {};
}

std::optional<std::uint32_t> PmuBackend::resolve(
    std::string_view name) const noexcept {
  if (const auto id = db_.find(name)) return id;
  if (const std::string_view alias = sku_override(name); !alias.empty()) {
    return db_.find(alias);
  }
  return std::nullopt;
}

const PmuBackend& backend_for(isa::CpuModel model) {
  // One lazily-built singleton per model (thread-safe magic statics): a
  // test binary that only ever touches AMD never pays for the Intel
  // databases.
  switch (model) {
    case isa::CpuModel::kIntelXeonE5_1650: {
      static const PmuBackend b(isa::CpuModel::kIntelXeonE5_1650);
      return b;
    }
    case isa::CpuModel::kIntelXeonE5_4617: {
      static const PmuBackend b(isa::CpuModel::kIntelXeonE5_4617);
      return b;
    }
    case isa::CpuModel::kAmdEpyc7252: {
      static const PmuBackend b(isa::CpuModel::kAmdEpyc7252);
      return b;
    }
    case isa::CpuModel::kAmdEpyc7313P:
      break;
  }
  static const PmuBackend b(isa::CpuModel::kAmdEpyc7313P);
  return b;
}

std::string_view backend_id(isa::CpuModel model) {
  return traits_for(model).id;
}

std::vector<isa::CpuModel> supported_models() {
  return {std::begin(kModels), std::end(kModels)};
}

std::optional<isa::CpuModel> parse_cpu_model(std::string_view text) noexcept {
  if (text == "amd") return isa::CpuModel::kAmdEpyc7252;
  if (text == "intel") return isa::CpuModel::kIntelXeonE5_1650;
  for (isa::CpuModel m : kModels) {
    if (text == isa::to_token(m) || text == isa::to_string(m)) return m;
  }
  return std::nullopt;
}

isa::CpuModel model_from_env(isa::CpuModel fallback) noexcept {
  const char* env = std::getenv("AEGIS_CPU");
  if (env == nullptr || *env == '\0') return fallback;
  if (const auto model = parse_cpu_model(env)) return *model;
  return fallback;
}

}  // namespace aegis::pmu::backend
