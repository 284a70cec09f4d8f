// One protected session, and the immutable template its sessions share.
//
// One session = one tenant's protected run: its own sim::VirtualMachine,
// sim::HostMonitor and obf::EventObfuscator, driven for `slices`
// monitoring slices under the template's gadget cover. Sessions share
// ONLY immutable state (the Aegis substrate and the cached OfflineResult);
// every stochastic component derives from the tenant's seed via
// util::split_mix64(seed, stream), so a tenant's counter trace is
// bit-identical whether it runs alone (run_protected_session) or inside a
// 64-tenant ProtectionService at any worker count — the same determinism
// contract the parallel campaign engine established (DESIGN.md).
//
//   ProtectionService::submit() ── admission (BudgetGovernor) ──▶ worker
//                                                                   │
//                                  run_protected_session(tpl, request, g)
//
// Admission is not part of a session: the service decides the granularity
// g serially, in submission order, before the session runs.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/aegis.hpp"
#include "service/budget_governor.hpp"
#include "telemetry/registry.hpp"

namespace aegis::service {

/// Immutable per-template state shared by every session of that template.
struct ProtectionTemplate {
  const core::Aegis* engine = nullptr;  // event database + ISA spec
  std::shared_ptr<const core::OfflineResult> analysis;
  /// Calibrated obfuscator parameters (noise sizing, weighted segment).
  /// The seed field is overridden per session from the tenant seed.
  obf::ObfuscatorConfig obf_config;
  /// Events the host-side monitor records for the session trace (the
  /// paper's attacks watch the top-4 ranked events).
  std::vector<std::uint32_t> monitored_events;
  sim::VmConfig vm;
};

/// Builds the shared template: one make_obfuscator calibration pass whose
/// resulting config is reused (reseeded) by every session.
ProtectionTemplate make_protection_template(
    const core::Aegis& engine,
    std::shared_ptr<const core::OfflineResult> analysis,
    const std::vector<std::unique_ptr<workload::Workload>>& secrets,
    dp::MechanismConfig mechanism, core::ObfuscatorBuildOptions options = {},
    std::uint64_t seed = 0x0B5EULL, std::size_t monitor_top_events = 4);

struct SessionRequest {
  std::uint64_t tenant_id = 0;
  /// Root of the tenant's deterministic seed tree. All session randomness
  /// (VM, monitor, workload visit, obfuscator) derives from it.
  std::uint64_t seed = 1;
  const workload::Workload* application = nullptr;
  std::size_t slices = 0;
  /// Per-slice DP budget the window consumes (the Laplace epsilon of the
  /// template mechanism; 0 for series-level mechanisms like d*).
  double per_slice_epsilon = 0.0;
};

struct SessionResult {
  std::uint64_t tenant_id = 0;
  Admission outcome = Admission::kRefuse;
  std::size_t granularity = 0;  // noise-refresh period actually used
  sim::MonitorResult trace;     // empty for refused and failed sessions
  double injected_repetitions = 0.0;
  /// Tenant advanced epsilon after this window's admission. A failed
  /// session's charge stays charged, so this still states it.
  double epsilon_after = 0.0;
  /// Non-empty iff the session threw while executing (the exception's
  /// what()); the trace is then empty.
  std::string error;
};

/// Runs ONE session at a fixed granularity: the exact computation every
/// service session performs, and the reference the bit-identity tests
/// compare against. When `telemetry` is non-null, the session records its
/// RNG-stream checkpoint ("session.rng": the request seed plus the derived
/// VM/monitor/obfuscator seeds) and each noise-refresh window (every
/// `granularity`-th slice) as an "inject.window" span (track and arg =
/// tenant id), all stamped from the session's VIRTUAL clock (slice index),
/// so traces are deterministic and identical at any worker count; results
/// are bit-identical with or without telemetry.
SessionResult run_protected_session(const ProtectionTemplate& tpl,
                                    const SessionRequest& request,
                                    std::size_t granularity = 1,
                                    telemetry::Registry* telemetry = nullptr);

}  // namespace aegis::service
