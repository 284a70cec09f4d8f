// ProtectionService: the host-side Aegis daemon (multi-tenant simulation).
//
// Related work frames obfuscation defenses as long-running runtime
// services with explicit budgets, not one-shot tools (Obelix; SEV-Step's
// always-on per-VM loop). This facade turns the Aegis library into that
// service, with one path from submission to result:
//
//   tenant ──submit()──▶ admission ──▶ FIFO ──▶ worker 1..num_threads
//            │            (serial, in       │     run_protected_session
//            │            submission order) │            │
//            │       BudgetGovernor         │            ▼
//            │       AttackProbabilityMonitor     per-tenant release
//            │                                    in submission order
//            └── blocks while queue_capacity ◀──── take_completed()
//                sessions are in flight
//
// Templates are registered once per (CPU family, workload, config) via the
// single-flight TemplateCache (warm-started from disk when configured);
// session submissions reference a registered template id. A session that
// throws while executing becomes a failed result; it never takes another
// tenant's sessions down. stats() returns a consistent ServiceStats
// snapshot for observability.
#pragma once

#include <chrono>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>

#include "service/session_manager.hpp"
#include "service/template_cache.hpp"
#include "telemetry/anomaly.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/registry.hpp"

namespace aegis::service {

struct ServiceConfig {
  /// Service-owned session workers (0 = hardware concurrency).
  std::size_t num_threads = 0;
  /// Bound on sessions admitted but not yet released to take_completed();
  /// submit() blocks past this (backpressure).
  std::size_t queue_capacity = 64;
  /// Has no effect: sessions are no longer batched. Kept only so existing
  /// callers that assign it still compile.
  std::size_t batch_size = 16;
  GovernorConfig governor;
  TemplateCacheConfig cache;
  /// Shared telemetry sink for the whole service: metrics, plus phase spans
  /// and ε decisions as wide events in its flight recorder (bounded
  /// rings, the only event store). Null = the service owns a private
  /// registry, so per-instance stats stay exact; the cache and governor
  /// sinks are overridden to point at the resolved registry either way.
  telemetry::Registry* telemetry = nullptr;
  /// Online anomaly layer (telemetry/anomaly.hpp). The ε-exhaustion
  /// forecaster is always constructed and fed every governor decision —
  /// pure observability; it only CHANGES admission when
  /// governor.proactive_horizon_ns is set. The attack monitor scores every
  /// session admission grants; when attack_monitor.attack_events is empty
  /// it is populated from the first registered engine's PMU backend
  /// (PmuBackend::attack_events()).
  telemetry::ForecasterConfig forecaster;
  telemetry::AttackMonitorConfig attack_monitor;
  /// When non-empty, shutdown() writes the merged flight-recorder binary
  /// dump of the service registry here after the workers drain.
  std::string shutdown_dump_path;
};

struct SessionSubmission {
  std::size_t template_id = 0;
  SessionRequest request;
};

struct CompletedSession {
  SessionResult result;
  double latency_seconds = 0.0;  // submit() -> session completion
};

class ProtectionService {
 public:
  explicit ProtectionService(ServiceConfig config = {});
  ~ProtectionService();

  ProtectionService(const ProtectionService&) = delete;
  ProtectionService& operator=(const ProtectionService&) = delete;

  /// Registers (or joins) the protection template for this (engine,
  /// application, offline config, mechanism, options, seed): offline
  /// analysis through the single-flight TemplateCache, shared by every
  /// registration of the same (engine, application, offline config), then
  /// one calibration pass shared by all sessions of the template.
  /// Concurrent identical registrations perform exactly one analysis and
  /// one calibration. Returns the template id sessions reference.
  std::size_t register_template(
      const core::Aegis& engine, const workload::Workload& application,
      const std::vector<std::unique_ptr<workload::Workload>>& secrets,
      const core::OfflineConfig& offline, dp::MechanismConfig mechanism,
      core::ObfuscatorBuildOptions options = {},
      std::uint64_t seed = 0x0B5EULL);

  const ProtectionTemplate& protection_template(std::size_t template_id) const;

  void set_tenant_cap(std::uint64_t tenant_id, double epsilon_cap);

  /// Admits one session on the caller's thread, then hands it to the
  /// workers. Blocks while queue_capacity sessions are in flight
  /// (backpressure). Admission (budget decision and attack scoring) runs
  /// serially, in submission order; a refused session is finished at once.
  /// Returns false iff the service is shutting down. Throws
  /// std::out_of_range for an unknown template id and
  /// std::invalid_argument for a malformed request (null application,
  /// zero slices, negative or non-finite per_slice_epsilon, or, on a
  /// Laplace template, a per_slice_epsilon below the template's ε).
  bool submit(SessionSubmission submission);

  /// Blocks until every accepted session has been released to
  /// take_completed().
  void drain();

  /// Stops accepting work (waking blocked submitters with false), finishes
  /// every accepted session and joins the workers. Idempotent; the
  /// destructor calls it.
  void shutdown();

  ServiceStats stats() const;

  /// Moves out the sessions released since the last call. Each tenant's
  /// results come in that tenant's submission order (refused and failed
  /// ones included): a finished session is held back until the tenant's
  /// earlier sessions are released. Tenants do not wait for each other.
  std::vector<CompletedSession> take_completed();

  BudgetGovernor& governor() noexcept { return governor_; }
  TemplateCache& cache() noexcept { return cache_; }
  telemetry::BudgetForecaster& forecaster() noexcept { return forecaster_; }
  telemetry::AttackProbabilityMonitor& attack_monitor() noexcept {
    return attack_monitor_;
  }
  std::size_t num_threads() const noexcept { return workers_.size(); }

  /// The registry every component of this service records into (the
  /// config-supplied one, or the service-owned private registry).
  telemetry::Registry& telemetry() const noexcept { return *telemetry_; }

 private:
  /// Everything a template is calibrated from. Registrations share a
  /// template only when all of it matches; the analysis is shared per key.
  struct Registration {
    TemplateKey key;
    dp::MechanismConfig mechanism;
    core::ObfuscatorBuildOptions options;
    std::uint64_t seed = 0;

    bool operator==(const Registration&) const = default;
  };
  struct RegistrationHash {
    std::size_t operator()(const Registration& r) const noexcept {
      return TemplateKeyHash{}(r.key);
    }
  };

  /// One accepted session, from admission until its release. Owned by its
  /// tenant's release queue; the worker running it holds a plain pointer.
  struct Session {
    const ProtectionTemplate* tpl = nullptr;
    SessionRequest request;
    std::chrono::steady_clock::time_point submitted;
    CompletedSession done;  // admission outcome, then the executed result
    bool finished = false;  // guarded by mu_
  };

  void work(std::uint32_t worker);
  /// Runs an admitted session into `session.done`, turning an exception
  /// into a failed result. Takes no lock.
  void execute(Session& session, std::uint32_t worker);
  /// Marks `session` finished and releases every finished session at the
  /// front of its tenant's queue. Caller holds mu_.
  void finish(Session& session);

  ServiceConfig config_;
  std::unique_ptr<telemetry::Registry> owned_telemetry_;
  telemetry::Registry* telemetry_;  // resolved (never null)
  // Anomaly layer, constructed before the governor so the governor config
  // can point at forecaster_ (a config-supplied forecaster wins).
  telemetry::BudgetForecaster forecaster_;
  telemetry::AttackProbabilityMonitor attack_monitor_;
  TemplateCache cache_;
  BudgetGovernor governor_;
  // Registry-backed service counters/gauges (handles resolved once).
  telemetry::Counter submitted_;
  telemetry::Counter started_;
  telemetry::Counter completed_;
  telemetry::Counter failed_;
  telemetry::Counter refused_;
  telemetry::Counter degraded_;
  telemetry::Gauge active_;
  telemetry::Gauge queue_depth_;
  telemetry::EventHandle failed_event_;
  telemetry::SpanSite register_span_;
  telemetry::SpanSite session_span_;

  // Serializes admission, so governor decisions, attack scoring and each
  // tenant's release order all follow one submission order.
  // aegis-lint: lock-level(12, noblock)
  std::mutex admission_mu_;
  // aegis-lint: lock-level(30, noblock)
  mutable std::mutex mu_;  // guards everything below but workers_
  std::condition_variable work_cv_;  // runnable_ grew, or stopping
  std::condition_variable idle_cv_;  // in_flight_ fell
  std::vector<std::unique_ptr<ProtectionTemplate>> templates_;
  std::unordered_map<Registration, std::size_t, RegistrationHash>
      template_ids_;
  std::deque<Session*> runnable_;  // admitted, not yet picked up (FIFO)
  /// Per tenant, its unreleased sessions in submission order.
  std::unordered_map<std::uint64_t, std::deque<std::unique_ptr<Session>>>
      unreleased_;
  std::vector<CompletedSession> released_;  // awaiting take_completed()
  /// Accepted but not yet released: the backpressure bound, drain()'s
  /// condition and the aegis_service_queue_depth gauge.
  std::size_t in_flight_ = 0;
  bool stopped_ = false;

  std::vector<std::thread> workers_;
};

}  // namespace aegis::service
