#include "service/protection_service.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <stdexcept>

#include "telemetry/registry.hpp"

namespace aegis::service {

namespace {

TemplateCacheConfig with_telemetry(TemplateCacheConfig config,
                                   telemetry::Registry* reg) {
  config.telemetry = reg;
  return config;
}

GovernorConfig with_telemetry(GovernorConfig config, telemetry::Registry* reg,
                              telemetry::BudgetForecaster* forecaster) {
  config.telemetry = reg;
  // The service-owned forecaster is fed every decision unless the caller
  // wired an external one into the governor config themselves.
  if (config.forecaster == nullptr) config.forecaster = forecaster;
  return config;
}

}  // namespace

ProtectionService::ProtectionService(ServiceConfig config)
    : config_(config),
      owned_telemetry_(config.telemetry == nullptr
                           ? std::make_unique<telemetry::Registry>()
                           : nullptr),
      telemetry_(config.telemetry != nullptr ? config.telemetry
                                             : owned_telemetry_.get()),
      forecaster_(config.forecaster, telemetry_),
      attack_monitor_(config.attack_monitor, telemetry_),
      cache_(with_telemetry(config.cache, telemetry_)),
      governor_(with_telemetry(config.governor, telemetry_, &forecaster_)),
      submitted_(
          telemetry_->metrics().counter("aegis_sessions_submitted_total")),
      started_(telemetry_->metrics().counter("aegis_sessions_started_total")),
      completed_(
          telemetry_->metrics().counter("aegis_sessions_completed_total")),
      failed_(telemetry_->metrics().counter("aegis_sessions_failed_total")),
      refused_(telemetry_->metrics().counter("aegis_sessions_refused_total")),
      degraded_(telemetry_->metrics().counter("aegis_sessions_degraded_total")),
      active_(telemetry_->metrics().gauge("aegis_sessions_active")),
      queue_depth_(telemetry_->metrics().gauge("aegis_service_queue_depth")),
      failed_event_(telemetry_->recorder().event_handle(
          "session.failed", telemetry::WideEventType::kAlert)),
      register_span_(*telemetry_, "service.register_template"),
      session_span_(*telemetry_, "fleet.session") {
  std::size_t workers = config.num_threads;
  if (workers == 0) workers = std::max(1U, std::thread::hardware_concurrency());
  workers_.reserve(workers);
  try {
    for (std::size_t w = 0; w < workers; ++w) {
      workers_.emplace_back([this, w] { work(static_cast<std::uint32_t>(w)); });
    }
  } catch (...) {
    shutdown();  // join the workers already started
    throw;
  }
}

ProtectionService::~ProtectionService() { shutdown(); }

std::size_t ProtectionService::register_template(
    const core::Aegis& engine, const workload::Workload& application,
    const std::vector<std::unique_ptr<workload::Workload>>& secrets,
    const core::OfflineConfig& offline, dp::MechanismConfig mechanism,
    core::ObfuscatorBuildOptions options, std::uint64_t seed) {
  const TemplateKey key = make_template_key(engine.cpu(), application, offline);
  telemetry::ScopedSpan span(
      register_span_, 0, static_cast<std::uint32_t>(key.workload_fingerprint));
  // Always consult the cache so its lookup/hit/single-flight accounting
  // reflects every tenant registration, not just the first.
  auto analysis = cache_.get_or_analyze(key, engine.database(), [&] {
    return engine.analyze(application, secrets, offline);
  });

  // First engine to register decides the vendor attack-event set unless the
  // config pinned one explicitly.
  if (attack_monitor_.attack_events().empty()) {
    attack_monitor_.set_attack_events(engine.backend().attack_events());
  }

  Registration registration{key, mechanism, options, seed};
  std::lock_guard lock(mu_);
  const auto it = template_ids_.find(registration);
  if (it != template_ids_.end()) return it->second;
  // First such registration on this service instance: run the one shared
  // calibration pass. Holding mu_ makes concurrent identical registrations
  // single-flight here too (later ones find the id above).
  // aegis-lint: lock-ok(phantom edge: calibration's HostMonitor submits to the sim VirtualMachine, not to this service; no path back to mu_)
  auto tpl = std::make_unique<ProtectionTemplate>(make_protection_template(
      engine, std::move(analysis), secrets, mechanism, options, seed));
  templates_.push_back(std::move(tpl));
  const std::size_t id = templates_.size() - 1;
  template_ids_.emplace(std::move(registration), id);
  return id;
}

const ProtectionTemplate& ProtectionService::protection_template(
    std::size_t template_id) const {
  std::lock_guard lock(mu_);
  if (template_id >= templates_.size()) {
    throw std::out_of_range("ProtectionService: unknown template id");
  }
  return *templates_[template_id];
}

void ProtectionService::set_tenant_cap(std::uint64_t tenant_id,
                                       double epsilon_cap) {
  governor_.set_tenant_cap(tenant_id, epsilon_cap);
}

bool ProtectionService::submit(SessionSubmission submission) {
  // Reject here, on the caller's thread: a malformed request reaching a
  // worker would fail there instead of telling its caller.
  const SessionRequest& request = submission.request;
  if (request.application == nullptr) {
    throw std::invalid_argument(
        "ProtectionService: request has no application");
  }
  if (request.slices == 0) {
    throw std::invalid_argument("ProtectionService: request has zero slices");
  }
  if (!std::isfinite(request.per_slice_epsilon) ||
      request.per_slice_epsilon < 0.0) {
    throw std::invalid_argument(
        "ProtectionService: per_slice_epsilon must be finite and >= 0");
  }
  auto session = std::make_unique<Session>();
  session->request = request;
  // aegis-lint: clock-ok(reporting-only: latency_seconds)
  session->submitted = std::chrono::steady_clock::now();
  {
    std::unique_lock lock(mu_);
    if (submission.template_id >= templates_.size()) {
      throw std::out_of_range("ProtectionService: unknown template id");
    }
    session->tpl = templates_[submission.template_id].get();
    // A Laplace session releases the template's per-slice ε whatever the
    // request claims, so a smaller claim would be under-charged.
    const dp::MechanismConfig& mechanism = session->tpl->obf_config.mechanism;
    if (mechanism.kind == dp::MechanismKind::kLaplace &&
        request.per_slice_epsilon < mechanism.epsilon) {
      throw std::invalid_argument(
          "ProtectionService: per_slice_epsilon is below the template's "
          "Laplace epsilon");
    }
    const std::size_t capacity =
        std::max<std::size_t>(1, config_.queue_capacity);
    idle_cv_.wait(lock, [&] { return stopped_ || in_flight_ < capacity; });
    if (stopped_) return false;
    ++in_flight_;  // from here on, the workers wait for this session
    queue_depth_.set(static_cast<double>(in_flight_));
  }
  submitted_.inc();

  // Admission, serial: governor and attack-monitor state is shared, so the
  // decision order is the submission order, never the execution order.
  std::lock_guard admission(admission_mu_);
  const AdmissionDecision decision = governor_.request_window(
      request.tenant_id, request.slices, request.per_slice_epsilon);
  SessionResult& result = session->done.result;
  result.tenant_id = request.tenant_id;
  result.outcome = decision.outcome;
  result.granularity = decision.granularity;
  result.epsilon_after = decision.epsilon_after;
  const bool refused = decision.outcome == Admission::kRefuse;
  if (refused) {
    refused_.inc();
  } else {
    if (decision.outcome == Admission::kDegrade) degraded_.inc();
    // The HostMonitor reads the template's monitored set exactly once per
    // slice, i.e. perfectly periodically, with no single-stepping.
    telemetry::SessionFeatures features;
    features.tenant_id = request.tenant_id;
    features.monitored_events = session->tpl->monitored_events;
    features.read_gap_cv = 0.0;
    features.stepped_fraction = 0.0;
    features.slices = request.slices;
    attack_monitor_.ingest(features);
  }

  std::lock_guard lock(mu_);
  Session& admitted = *session;
  unreleased_[request.tenant_id].push_back(std::move(session));
  if (refused) {
    finish(admitted);  // nothing to run
  } else {
    runnable_.push_back(&admitted);
    work_cv_.notify_one();
  }
  return true;
}

void ProtectionService::work(std::uint32_t worker) {
  for (;;) {
    Session* session = nullptr;
    {
      std::unique_lock lock(mu_);
      work_cv_.wait(lock, [&] {
        return !runnable_.empty() || (stopped_ && in_flight_ == 0);
      });
      if (runnable_.empty()) return;  // stopped, and every session released
      session = runnable_.front();
      runnable_.pop_front();
    }
    execute(*session, worker);
    std::lock_guard lock(mu_);
    finish(*session);
  }
}

void ProtectionService::execute(Session& session, std::uint32_t worker) {
  const SessionRequest& request = session.request;
  SessionResult& result = session.done.result;
  const auto tenant = static_cast<std::uint32_t>(request.tenant_id);
  started_.inc();
  active_.add(1.0);
  {
    telemetry::ScopedSpan span(session_span_, worker, tenant);
    // Fault isolation: a throwing session becomes a failed result. Its
    // admission-time ε charge stays charged (epsilon_after states it).
    try {
      SessionResult ran = run_protected_session(*session.tpl, request,
                                                result.granularity, telemetry_);
      result.trace = std::move(ran.trace);
      result.injected_repetitions = ran.injected_repetitions;
    } catch (const std::exception& e) {
      result.error = e.what();
    } catch (...) {
      result.error = "unknown exception";
    }
  }
  active_.add(-1.0);
  if (result.error.empty()) {
    completed_.inc();
    return;
  }
  failed_.inc();
  failed_event_.record(
      telemetry_->time_source().now_ns(),
      static_cast<std::uint64_t>(telemetry::AlertKind::kSessionFailed),
      /*b=*/0, request.seed, result.granularity, tenant);
}

void ProtectionService::finish(Session& session) {
  session.finished = true;
  // aegis-lint: clock-ok(reporting-only: latency_seconds)
  const auto now = std::chrono::steady_clock::now();
  session.done.latency_seconds =
      std::chrono::duration<double>(now - session.submitted).count();
  const auto it = unreleased_.find(session.request.tenant_id);
  std::deque<std::unique_ptr<Session>>& queue = it->second;
  std::size_t released = 0;
  while (!queue.empty() && queue.front()->finished) {
    released_.push_back(std::move(queue.front()->done));
    queue.pop_front();  // may destroy `session`
    ++released;
  }
  if (queue.empty()) unreleased_.erase(it);
  if (released == 0) return;
  in_flight_ -= released;
  queue_depth_.set(static_cast<double>(in_flight_));
  idle_cv_.notify_all();
  if (stopped_ && in_flight_ == 0) work_cv_.notify_all();
}

void ProtectionService::drain() {
  std::unique_lock lock(mu_);
  idle_cv_.wait(lock, [&] { return in_flight_ == 0; });
}

void ProtectionService::shutdown() {
  {
    std::lock_guard lock(mu_);
    if (stopped_) return;
    stopped_ = true;
  }
  idle_cv_.notify_all();  // blocked submitters return false
  work_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
  if (!config_.shutdown_dump_path.empty()) {
    // Post-drain flight-recorder snapshot: every worker has finished, so
    // the merged dump holds the complete, deterministic event history of
    // this service's registry.
    std::ofstream out(config_.shutdown_dump_path, std::ios::binary);
    if (out) telemetry_->recorder().write_dump(out);
  }
}

ServiceStats ProtectionService::stats() const {
  // Derived view: every field reads back from the telemetry registry (via
  // the component accessors) or live structures; nothing is double-counted.
  ServiceStats stats;
  stats.cache = cache_.stats();
  stats.tenants = governor_.all_usage();
  stats.sessions_submitted = submitted_.value();
  stats.sessions_started = started_.value();
  stats.sessions_active = static_cast<std::size_t>(active_.value());
  stats.sessions_completed = completed_.value();
  stats.sessions_failed = failed_.value();
  stats.sessions_refused = refused_.value();
  stats.sessions_degraded = degraded_.value();
  std::lock_guard lock(mu_);
  stats.queue_depth = in_flight_;
  return stats;
}

std::vector<CompletedSession> ProtectionService::take_completed() {
  std::lock_guard lock(mu_);
  std::vector<CompletedSession> out = std::move(released_);
  released_.clear();
  return out;
}

}  // namespace aegis::service
