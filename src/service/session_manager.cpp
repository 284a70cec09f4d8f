#include "service/session_manager.hpp"

#include "telemetry/registry.hpp"
#include "util/rng.hpp"

namespace aegis::service {

namespace {

// Fixed stream indices of the per-tenant seed tree. Adding a stream is
// backward-compatible; reordering is not (it would silently change every
// tenant's trace).
enum SeedStream : std::uint64_t {
  kVmStream = 1,
  kMonitorStream = 2,
  kVisitStream = 3,
  kObfuscatorStream = 4,
};

// Virtual-clock scale for injection-window spans: one monitoring slice
// renders as 1 µs in trace viewers. Purely presentational.
constexpr std::uint64_t kSliceNs = 1000;

}  // namespace

ProtectionTemplate make_protection_template(
    const core::Aegis& engine,
    std::shared_ptr<const core::OfflineResult> analysis,
    const std::vector<std::unique_ptr<workload::Workload>>& secrets,
    dp::MechanismConfig mechanism, core::ObfuscatorBuildOptions options,
    std::uint64_t seed, std::size_t monitor_top_events) {
  ProtectionTemplate tpl;
  tpl.engine = &engine;
  tpl.analysis = std::move(analysis);
  // One calibration pass (runs the secret set); its sized config is the
  // template every session reuses with its own seed.
  const auto calibrated = engine.make_obfuscator(*tpl.analysis, secrets,
                                                 mechanism, options, seed);
  tpl.obf_config = calibrated->config();
  tpl.monitored_events = tpl.analysis->top_events(monitor_top_events);
  return tpl;
}

SessionResult run_protected_session(const ProtectionTemplate& tpl,
                                    const SessionRequest& request,
                                    std::size_t granularity,
                                    telemetry::Registry* telemetry) {
  SessionResult result;
  result.tenant_id = request.tenant_id;
  result.granularity = granularity;

  obf::ObfuscatorConfig config = tpl.obf_config;
  config.seed = util::split_mix64(request.seed, kObfuscatorStream);
  const std::uint64_t vm_seed = util::split_mix64(request.seed, kVmStream);
  const std::uint64_t monitor_seed =
      util::split_mix64(request.seed, kMonitorStream);
  obf::EventObfuscator obfuscator(tpl.engine->database(),
                                  tpl.engine->specification(),
                                  tpl.analysis->cover, config);
  sim::SliceAgent agent = obf::coarsen_agent(obfuscator.session(), granularity);
  if (telemetry != nullptr) {
    // Everything below is stamped from the session's virtual clock (the
    // slice index) rather than the TimeSource, and draws no randomness, so
    // traces stay bit-identical with telemetry attached. First the
    // RNG-stream checkpoint: the request seed plus the derived stream seeds
    // this session consumes.
    const auto tenant = static_cast<std::uint32_t>(request.tenant_id);
    telemetry->recorder()
        .event_handle("session.rng", telemetry::WideEventType::kRngCheckpoint)
        .record(/*t_ns=*/0, request.seed, vm_seed, monitor_seed, config.seed,
                tenant);
    // Then one injection-window span per noise-refresh fire, covering the
    // granularity-wide window it protects.
    const telemetry::SpanSite site(*telemetry, "inject.window");
    const std::size_t window = granularity == 0 ? 1 : granularity;
    agent = [inner = std::move(agent), site, tenant,
             window](sim::VirtualMachine& vm, std::size_t t) {
      if (t % window == 0) {
        site.record_complete(t * kSliceNs, (t + window) * kSliceNs, tenant,
                             tenant);
      }
      inner(vm, t);
    };
  }

  sim::VirtualMachine vm(tpl.vm, vm_seed);
  sim::HostMonitor monitor(tpl.engine->database(), monitor_seed);
  result.trace = monitor.monitor(
      vm, request.application->visit(util::split_mix64(request.seed, kVisitStream)),
      tpl.monitored_events, request.slices, agent);
  result.injected_repetitions = obfuscator.total_injected_repetitions();
  return result;
}

}  // namespace aegis::service
