// Workloads `fleet-steady` and `fleet-mixed`: open loops of independent VMs
// launching protected runs on a ProtectionService whether or not it is
// busy. One generator thread submits on a Poisson schedule drawn from the
// seed; the main thread drains finished sessions every millisecond and
// keeps only a digest of each, so the process's memory is the service's.
// After the timed phases every result is recomputed standalone and
// compared bit for bit, a twin governor replays every admission decision,
// and the same sessions run unprotected to price the injected noise.
#include <atomic>
#include <cstdio>
#include <fstream>
#include <thread>

#include "bench_logic.hpp"
#include "common.hpp"
#include "layers.hpp"
#include "twin.hpp"
#include "obf/noise_calculator.hpp"
#include "obf/obfuscator.hpp"
#include "service/protection_service.hpp"
#include "telemetry/anomaly.hpp"
#include "telemetry/registry.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {

namespace svc = aegis::service;

namespace {

// Stream indices of the per-tenant seed tree in service/session_manager.cpp
// (documented in RNG_STREAMS.md). The unprotected twin of a session and
// the traced replay derive their VM, monitor and visit seeds the same way.
constexpr std::uint64_t kVmStream = 1;
constexpr std::uint64_t kMonitorStream = 2;
constexpr std::uint64_t kVisitStream = 3;
constexpr std::uint64_t kObfuscatorStream = 4;

/// Guest time one monitoring slice protects: the real-time limit of a
/// session is its slice count times this.
constexpr double kSliceSeconds = 1e-3;

constexpr std::size_t kTenants = 64;

/// Untimed open-loop traffic before the timed phase.
constexpr double kWarmupSeconds = 3.0;

struct TemplateSpec {
  Application app;
  aegis::dp::MechanismConfig mechanism;
  double per_slice_epsilon = 0.0;
};

struct FleetShape {
  bool mixed = false;
  double rate = 0.0;               // offered sessions/s, fixed-rate phase
  std::vector<double> ladder;      // ascending offered rates (empty = none)
  std::size_t short_slices = 60;
  std::size_t long_slices = 600;
  double long_share = 0.0;
};

// Offered rates sit well below a knee of the batching dispatcher: from
// about 600 (steady) and 800 (mixed) sessions/s on a 4-vCPU host, latency
// flips for seconds at a time between small and large dispatcher batches
// at the same load, and host noise decides which.
FleetShape shape_for(const std::string& workload) {
  FleetShape s;
  if (workload == "fleet-mixed") {
    s.mixed = true;
    s.rate = 500.0;
    s.short_slices = 20;
    s.long_slices = 600;
    s.long_share = 0.01;
  } else {
    s.rate = 300.0;
    s.short_slices = 60;
    s.ladder = {400, 600, 800, 1000, 1200, 1400, 1600, 2000};
  }
  return s;
}

/// Per-tenant lifetime ε caps of fleet-mixed. Tenants 0-31 run the
/// Laplace template, 32-63 the d* template (whose windows cost no ε).
/// Every other Laplace tenant has a cap that warm-up traffic exhausts:
/// each passes through coarser noise refresh (degrade) and is then
/// refused, so the timed phase sees a constant refused share and a
/// constant load. Admission runs in submission order, so the shares are a
/// function of the seed.
double tenant_cap(bool mixed, std::size_t tenant) {
  constexpr double kAmple = 1e9;
  if (!mixed || tenant >= kTenants / 2 || tenant % 2 == 1) return kAmple;
  return 1.0 + 0.25 * static_cast<double>(tenant / 2);
}

struct Planned {
  double at = 0.0;  // scheduled arrival, seconds from phase start
  std::size_t tpl = 0;
  svc::SessionRequest request;
};

struct Outcome {
  bool done = false;
  double submit_called = 0.0;  // monotonic seconds
  double submit_us = 0.0;      // time inside ProtectionService::submit
  double latency_s = 0.0;      // scheduled arrival -> result available
  double lateness_s = 0.0;     // generator lateness
  std::uint64_t digest = 0;
  double busy_cycles = 0.0;
  svc::Admission outcome = svc::Admission::kRefuse;
  std::size_t granularity = 0;
  double epsilon_after = 0.0;
};

std::uint64_t result_digest(const svc::SessionResult& r) {
  Digest d;
  for (const auto& row : r.trace.samples) {
    d.add_bytes(row.data(), row.size() * sizeof(double));
  }
  d.add(static_cast<std::uint64_t>(r.trace.slices));
  d.add(r.trace.busy_cycles);
  d.add(r.injected_repetitions);
  d.add(static_cast<std::uint64_t>(r.granularity));
  return d.value();
}

std::vector<Planned> make_plan(const FleetShape& shape,
                               const std::vector<TemplateSpec>& specs,
                               std::uint64_t seed, std::uint64_t phase,
                               double rate, double duration) {
  const std::vector<double> times = poisson_schedule(
      aegis::util::split_mix64(seed, 0x5C4ED000ULL + phase), rate, duration);
  aegis::util::Rng rng(aegis::util::split_mix64(seed, 0x9A7E0000ULL + phase));
  std::vector<Planned> plan(times.size());
  for (std::size_t i = 0; i < times.size(); ++i) {
    Planned& p = plan[i];
    p.at = times[i];
    const std::size_t tenant = rng.uniform_index(kTenants);
    p.tpl = shape.mixed && tenant >= kTenants / 2 ? 1 : 0;
    const TemplateSpec& spec = specs[p.tpl];
    p.request.tenant_id = tenant;
    p.request.seed = rng.next_u64();
    p.request.application =
        spec.app.secrets[rng.uniform_index(spec.app.secrets.size())].get();
    p.request.slices = shape.long_share > 0.0 && rng.uniform() < shape.long_share
                           ? shape.long_slices
                           : shape.short_slices;
    p.request.per_slice_epsilon = spec.per_slice_epsilon;
  }
  return plan;
}

struct PhaseStats {
  double generator_end_backlog = 0.0;  // submitted - completed at last submit
  std::size_t lost = 0;
  double rss_start_kb = 0.0;
  double rss_end_kb = 0.0;
};

/// Runs one open-loop phase: the generator thread submits `plan` on its
/// schedule while this thread drains results into `out` (indices match).
PhaseStats run_phase(svc::ProtectionService& service,
                     const std::vector<std::size_t>& template_ids,
                     const std::vector<Planned>& plan,
                     std::vector<Outcome>& out) {
  PhaseStats stats;
  out.assign(plan.size(), Outcome{});
  // Completions of one tenant arrive in its submission order: the queue is
  // FIFO, batches are split by template only, and each tenant uses one
  // template. So the k-th result of a tenant is its k-th planned session.
  std::vector<std::vector<std::size_t>> by_tenant(kTenants);
  for (std::size_t i = 0; i < plan.size(); ++i) {
    by_tenant[plan[i].request.tenant_id].push_back(i);
  }
  std::vector<std::size_t> cursor(kTenants, 0);
  std::atomic<std::size_t> submitted{0};
  std::atomic<bool> generator_done{false};
  stats.rss_start_kb = current_rss_kb();

  const double start = now_s() + 0.005;
  std::thread generator([&] {
    for (std::size_t i = 0; i < plan.size(); ++i) {
      const double due = start + plan[i].at;
      const double wait = due - now_s();
      if (wait > 0) std::this_thread::sleep_for(std::chrono::duration<double>(wait));
      svc::SessionSubmission sub;
      sub.template_id = template_ids[plan[i].tpl];
      sub.request = plan[i].request;
      const double called = now_s();
      out[i].submit_called = called;
      const bool accepted = service.submit(std::move(sub));
      out[i].submit_us = (now_s() - called) * 1e6;
      if (!accepted) break;
      submitted.fetch_add(1);
    }
    generator_done.store(true);
  });

  std::size_t completed = 0;
  bool backlog_taken = false;
  double quiet_since = 0.0;
  for (;;) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    const bool gen_done = generator_done.load();
    const std::size_t subs = submitted.load();
    std::vector<svc::CompletedSession> batch = service.take_completed();
    for (svc::CompletedSession& done : batch) {
      const std::uint64_t tenant = done.result.tenant_id;
      if (tenant >= kTenants || cursor[tenant] >= by_tenant[tenant].size()) {
        ++stats.lost;
        continue;
      }
      const std::size_t i = by_tenant[tenant][cursor[tenant]++];
      Outcome& o = out[i];
      const double scheduled = start + plan[i].at;
      o.done = true;
      o.lateness_s = std::max(0.0, o.submit_called - scheduled);
      o.latency_s =
          open_loop_latency(scheduled, o.submit_called, done.latency_seconds);
      o.digest = result_digest(done.result);
      o.busy_cycles = done.result.trace.busy_cycles;
      o.outcome = done.result.outcome;
      o.granularity = done.result.granularity;
      o.epsilon_after = done.result.epsilon_after;
      ++completed;
    }
    if (gen_done && !backlog_taken) {
      stats.generator_end_backlog = static_cast<double>(subs - std::min(subs, completed));
      backlog_taken = true;
    }
    if (gen_done && completed >= submitted.load()) break;
    // A session the service never returns is lost, not awaited forever.
    if (gen_done && batch.empty()) {
      if (quiet_since == 0.0) quiet_since = now_s();
      if (now_s() - quiet_since > 30.0) break;
    } else {
      quiet_since = 0.0;
    }
  }
  generator.join();
  stats.rss_end_kb = current_rss_kb();
  for (const Outcome& o : out) {
    if (!o.done) ++stats.lost;
  }
  return stats;
}

/// Layer times of one traced session replay.
struct SessionLayers {
  double exec_us = 0.0;
  double obf_setup_us = 0.0;
  double agent_us = 0.0;
  double source_us = 0.0;
  double monitor_self_us = 0.0;
  double unattributed_us = 0.0;
  double noise_draws = 0.0;
  double injected_reps = 0.0;
};

/// run_protected_session composed from its public parts, with timing
/// wrappers on the slice agent and the block source. Per-call spans are
/// reduced to self times right away; the session's own spans go to `log`.
svc::SessionResult traced_session(const svc::ProtectionTemplate& tpl,
                                  const svc::SessionRequest& req,
                                  std::size_t granularity, SpanLog& log,
                                  std::uint64_t request_id,
                                  SessionLayers& layers) {
  namespace obf = aegis::obf;
  namespace sim = aegis::sim;
  using aegis::util::split_mix64;
  std::vector<Span> local;
  local.reserve(2 * req.slices + 8);
  local.push_back(Span{"session.exec", now_ns(), 0, 0, request_id});

  svc::SessionResult result;
  result.tenant_id = req.tenant_id;
  result.granularity = granularity;
  const std::int64_t setup_a = now_ns();
  obf::ObfuscatorConfig config = tpl.obf_config;
  config.seed = split_mix64(req.seed, kObfuscatorStream);
  obf::EventObfuscator obfuscator(tpl.engine->database(),
                                  tpl.engine->specification(),
                                  tpl.analysis->cover, config);
  sim::SliceAgent inner = obf::coarsen_agent(obfuscator.session(), granularity);
  local.push_back(Span{"obf.setup", setup_a, now_ns(), 1, request_id});

  const sim::SliceAgent agent = [&](sim::VirtualMachine& vm, std::size_t t) {
    const std::int64_t a = now_ns();
    inner(vm, t);
    local.push_back(Span{"obf.agent", a, now_ns(), 3, request_id});
  };
  sim::VirtualMachine vm(tpl.vm, split_mix64(req.seed, kVmStream));
  sim::HostMonitor monitor(tpl.engine->database(),
                           split_mix64(req.seed, kMonitorStream));
  const sim::BlockSource visit =
      req.application->visit(split_mix64(req.seed, kVisitStream));
  const sim::BlockSource source = [&](std::size_t t) {
    const std::int64_t a = now_ns();
    auto blocks = visit(t);
    local.push_back(Span{"workload.source", a, now_ns(), 3, request_id});
    return blocks;
  };
  local.push_back(Span{"sim.monitor", now_ns(), 0, 1, request_id});
  result.trace =
      monitor.monitor(vm, source, tpl.monitored_events, req.slices, agent);
  local[2].end_ns = now_ns();
  result.injected_repetitions = obfuscator.total_injected_repetitions();
  local[0].end_ns = now_ns();

  const std::vector<std::int64_t> self = self_times(local);
  double agent_ns = 0.0;
  double source_ns = 0.0;
  for (std::size_t i = 3; i < local.size(); ++i) {
    (std::string_view(local[i].name) == "obf.agent" ? agent_ns : source_ns) +=
        static_cast<double>(local[i].duration_ns());
  }
  layers.exec_us = static_cast<double>(local[0].duration_ns()) * 1e-3;
  layers.obf_setup_us = static_cast<double>(local[1].duration_ns()) * 1e-3;
  layers.monitor_self_us = static_cast<double>(self[2]) * 1e-3;
  layers.unattributed_us = static_cast<double>(self[0]) * 1e-3;
  layers.agent_us = agent_ns * 1e-3;
  layers.source_us = source_ns * 1e-3;
  layers.noise_draws = static_cast<double>(obfuscator.total_noise_draws());
  layers.injected_reps = result.injected_repetitions;

  const std::size_t root =
      log.add(local[0].name, local[0].start_ns, local[0].end_ns, 0, request_id);
  log.add(local[1].name, local[1].start_ns, local[1].end_ns, root, request_id);
  log.add(local[2].name, local[2].start_ns, local[2].end_ns, root, request_id);
  return result;
}

/// Nanoseconds per NoiseCalculator::noise_for draw at `mechanism`.
double noise_draw_ns(const aegis::dp::MechanismConfig& mechanism) {
  constexpr std::size_t kDraws = 200000;
  aegis::obf::NoiseCalculator calc(mechanism);
  double sink = 0.0;
  const std::int64_t a = now_ns();
  for (std::size_t i = 0; i < kDraws; ++i) {
    sink += calc.noise_for(static_cast<double>(i % 7) * 0.25);
  }
  const std::int64_t b = now_ns();
  if (sink == 0.125) std::fputs("", stdout);  // keep the draws observable
  return static_cast<double>(b - a) / static_cast<double>(kDraws);
}

/// The fleet under test: its templates and the service, rebuilt by each
/// set-up from nothing (no cache directory, so every set-up is cold).
struct Fleet {
  FleetShape shape;
  std::unique_ptr<aegis::core::Aegis> engine;
  std::vector<TemplateSpec> specs;
  std::unique_ptr<svc::ProtectionService> service;
  std::unique_ptr<TwinGovernor> twin;
  std::vector<std::size_t> template_ids;
  std::size_t pool_threads = 1;
};

std::vector<TemplateSpec> template_specs(bool mixed) {
  std::vector<TemplateSpec> specs;
  TemplateSpec wfa;
  wfa.app = make_application(AppFamily::kWfa, {0, 1, 2, 3});
  wfa.mechanism.kind = aegis::dp::MechanismKind::kLaplace;
  wfa.mechanism.epsilon = 0.05;
  wfa.per_slice_epsilon = 0.05;
  specs.push_back(std::move(wfa));
  if (mixed) {
    TemplateSpec ksa;
    ksa.app = make_application(AppFamily::kKsa, {0, 3, 6, 9});
    ksa.mechanism.kind = aegis::dp::MechanismKind::kDStar;
    ksa.mechanism.epsilon = 0.5;
    ksa.per_slice_epsilon = 0.0;  // d*: series-level guarantee, no per-slice ε
    specs.push_back(std::move(ksa));
  }
  return specs;
}

void set_up(Fleet& fleet, const RunOptions& options, bool mixed) {
  fleet.service.reset();
  fleet.shape = shape_for(mixed ? "fleet-mixed" : "fleet-steady");
  fleet.engine = std::make_unique<aegis::core::Aegis>(kCpu);
  fleet.specs = template_specs(mixed);
  // Generator + dispatcher + session pool together use nproc threads.
  fleet.pool_threads = options.nproc > 3 ? options.nproc - 2 : 1;
  svc::ServiceConfig config;
  config.num_threads = fleet.pool_threads;
  config.queue_capacity = 64;
  config.batch_size = 16;
  config.governor.default_epsilon_cap = 1e9;
  fleet.service = std::make_unique<svc::ProtectionService>(config);
  fleet.template_ids.clear();
  const aegis::core::OfflineConfig offline = offline_config(options.nproc);
  for (const TemplateSpec& spec : fleet.specs) {
    fleet.template_ids.push_back(fleet.service->register_template(
        *fleet.engine, *spec.app.secrets.front(), spec.app.secrets, offline,
        spec.mechanism));
  }
  fleet.twin = std::make_unique<TwinGovernor>(fleet.service->governor().config());
  for (std::size_t t = 0; t < kTenants; ++t) {
    fleet.service->set_tenant_cap(t, tenant_cap(mixed, t));
    fleet.twin->governor.set_tenant_cap(t, tenant_cap(mixed, t));
  }
}

struct Verification {
  std::size_t mismatches = 0;
  std::size_t twin_mismatches = 0;
  std::size_t cap_violations = 0;
  double protected_busy = 0.0;
  double unprotected_busy = 0.0;
  std::uint64_t trace_digest = 0;
  std::vector<double> admission_us;
  std::vector<SessionLayers> layers;  // traced replay, per session
  std::vector<double> reference_exec_us;
};

/// Recomputes every session standalone (bit identity), runs it
/// unprotected (guest overhead) and replays admission on the twin
/// governor. Phases must be verified in the order they ran.
Verification verify(Fleet& fleet, const std::vector<Planned>& plan,
                    const std::vector<Outcome>& out, std::size_t threads,
                    bool trace, SpanLog& log) {
  Verification v;
  std::vector<std::uint8_t> bad(plan.size(), 0);
  std::vector<double> busy(plan.size(), 0.0);
  std::vector<double> ref_us(plan.size(), 0.0);
  if (trace) v.layers.assign(plan.size(), SessionLayers{});
  aegis::util::ThreadPool pool(threads);
  pool.parallel_for(plan.size(), [&](std::size_t i) {
    const Outcome& o = out[i];
    if (!o.done || o.outcome == svc::Admission::kRefuse) return;
    const svc::ProtectionTemplate& tpl =
        fleet.service->protection_template(fleet.template_ids[plan[i].tpl]);
    const svc::SessionRequest& req = plan[i].request;
    bool same = true;
    auto reference = [&] {
      const std::int64_t a = now_ns();
      const svc::SessionResult ref =
          svc::run_protected_session(tpl, req, o.granularity);
      ref_us[i] = static_cast<double>(now_ns() - a) * 1e-3;
      same = same && result_digest(ref) == o.digest;
    };
    auto replay = [&] {
      const svc::SessionResult r =
          traced_session(tpl, req, o.granularity, log, i + 1, v.layers[i]);
      same = same && result_digest(r) == o.digest;
    };
    // Alternate which runs first, so neither gets the warm caches.
    if (trace && i % 2 == 1) replay();
    reference();
    if (trace && i % 2 == 0) replay();
    if (!same) bad[i] = 1;
    aegis::sim::VirtualMachine vm(tpl.vm,
                                  aegis::util::split_mix64(req.seed, kVmStream));
    aegis::sim::HostMonitor monitor(
        tpl.engine->database(), aegis::util::split_mix64(req.seed, kMonitorStream));
    busy[i] = monitor
                  .monitor(vm,
                           req.application->visit(
                               aegis::util::split_mix64(req.seed, kVisitStream)),
                           tpl.monitored_events, req.slices)
                  .busy_cycles;
  });

  svc::BudgetGovernor& twin = fleet.twin->governor;
  const std::uint64_t refused_digest = result_digest(svc::SessionResult{});
  Digest all;
  for (std::size_t i = 0; i < plan.size(); ++i) {
    const Outcome& o = out[i];
    const svc::SessionRequest& req = plan[i].request;
    const std::int64_t a = now_ns();
    const svc::AdmissionDecision d =
        twin.request_window(req.tenant_id, req.slices, req.per_slice_epsilon);
    v.admission_us.push_back(static_cast<double>(now_ns() - a) * 1e-3);
    if (!o.done) continue;
    const std::size_t granted = d.outcome == svc::Admission::kRefuse ? 0 : d.granularity;
    if (d.outcome != o.outcome || granted != o.granularity ||
        std::memcmp(&d.epsilon_after, &o.epsilon_after, sizeof(double)) != 0) {
      ++v.twin_mismatches;
    }
    if (o.epsilon_after > tenant_cap(fleet.shape.mixed, req.tenant_id)) {
      ++v.cap_violations;
    }
    // A refused session carries an empty trace and injects nothing.
    if (bad[i] || (o.outcome == svc::Admission::kRefuse && o.digest != refused_digest)) {
      ++v.mismatches;
    }
    if (o.outcome != svc::Admission::kRefuse) {
      v.protected_busy += o.busy_cycles;
      v.unprotected_busy += busy[i];
      v.reference_exec_us.push_back(ref_us[i]);
    }
    all.add(o.digest);
  }
  for (const auto& usage : fleet.service->governor().all_usage()) {
    if (usage.advanced_epsilon > usage.epsilon_cap) ++v.cap_violations;
  }
  v.trace_digest = all.value();
  return v;
}

std::string hex(std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

/// Every session of every phase, in the order the phases ran, so the
/// output checks (and the twin governor) see the service's whole history.
struct Sessions {
  std::vector<Planned> plan;
  std::vector<Outcome> out;
};

/// Runs `plan` as one open-loop phase, waits until the service is idle and
/// appends the phase's sessions to `all`.
PhaseStats run_into(Fleet& fleet, std::vector<Planned> plan, Sessions& all) {
  std::vector<Outcome> out;
  const PhaseStats stats = run_phase(*fleet.service, fleet.template_ids, plan, out);
  fleet.service->drain();
  all.plan.insert(all.plan.end(), plan.begin(), plan.end());
  all.out.insert(all.out.end(), out.begin(), out.end());
  return stats;
}

/// Service and session per-layer metrics of one traced fixed-rate phase.
void report_fleet_layers(const Fleet& fleet, const std::vector<Planned>& plan,
                         const std::vector<Outcome>& out,
                         const PhaseStats& stats, const Verification& v,
                         Report& report) {
  std::vector<double> submit_us, wait_ms, exec_us, setup_us, agent_us,
      source_us, monitor_self_us, unattr_us, lateness_ms, ref_us;
  double draws = 0.0;
  double reps = 0.0;
  double draws_laplace = 0.0;
  std::size_t executed = 0;
  std::size_t done = 0;
  for (std::size_t i = 0; i < plan.size(); ++i) {
    const Outcome& o = out[i];
    submit_us.push_back(o.submit_us);
    if (!o.done) continue;
    ++done;
    lateness_ms.push_back(o.lateness_s * 1e3);
    if (o.outcome == svc::Admission::kRefuse) continue;
    const SessionLayers& l = v.layers[i];
    ++executed;
    exec_us.push_back(l.exec_us);
    setup_us.push_back(l.obf_setup_us);
    agent_us.push_back(l.agent_us);
    source_us.push_back(l.source_us);
    monitor_self_us.push_back(l.monitor_self_us);
    unattr_us.push_back(l.unattributed_us);
    wait_ms.push_back(std::max(0.0, o.latency_s * 1e3 - l.exec_us * 1e-3));
    draws += l.noise_draws;
    reps += l.injected_reps;
    if (plan[i].tpl == 0) draws_laplace += l.noise_draws;
  }
  const double n_exec = static_cast<double>(std::max<std::size_t>(executed, 1));
  const double n_done = static_cast<double>(std::max<std::size_t>(done, 1));
  report.metric("service.submit_us.p99", percentile(submit_us, 99.0), "us",
                submit_us.size());
  report.metric("service.admission_us", median(v.admission_us), "us",
                v.admission_us.size());
  report.metric("service.wait_ms.p50", median(wait_ms), "ms", wait_ms.size());
  report.metric("service.wait_ms.p99", percentile(wait_ms, 99.0), "ms",
                wait_ms.size());
  report.metric("session.exec_us.p50", median(exec_us), "us", exec_us.size());
  report.metric("obf.setup_us", median(setup_us), "us", setup_us.size());
  report.metric("obf.agent_us", median(agent_us), "us", agent_us.size());
  // Noise-draw cost at each template's mechanism, weighted by the draws
  // the replayed sessions made on that template.
  double ns = noise_draw_ns(fleet.specs[0].mechanism);
  if (fleet.specs.size() > 1 && draws > 0.0) {
    ns = (ns * draws_laplace +
          noise_draw_ns(fleet.specs[1].mechanism) * (draws - draws_laplace)) /
         draws;
  }
  report.metric("dp.noise_draw_ns", ns, "ns", 200000);
  report.metric("obf.noise_draws", draws / n_exec, "count", executed);
  report.metric("obf.injected_reps", reps / n_exec, "count", executed);
  report.metric("workload.source_us", median(source_us), "us", source_us.size());
  report.metric("sim.monitor_self_us", median(monitor_self_us), "us",
                monitor_self_us.size());
  const double unattr = median(unattr_us);
  report.metric("session.unattributed_us", unattr, "us", unattr_us.size());
  report.metric("session.unattributed_frac", unattr / median(exec_us), "ratio",
                exec_us.size());
  report.metric("telemetry.rss_kb_per_session",
                (stats.rss_end_kb - stats.rss_start_kb) / n_done, "KiB", done);
  report.metric("gen.lateness_ms.p99", percentile(lateness_ms, 99.0), "ms",
                lateness_ms.size());
}

/// Degraded and refused shares of the finished sessions in [first, end).
void report_admission_shares(const Sessions& all, std::size_t first,
                             std::size_t end, Report& report) {
  std::size_t done = 0;
  std::size_t degraded = 0;
  std::size_t refused = 0;
  for (std::size_t i = first; i < end; ++i) {
    if (!all.out[i].done) continue;
    ++done;
    degraded += all.out[i].outcome == svc::Admission::kDegrade ? 1 : 0;
    refused += all.out[i].outcome == svc::Admission::kRefuse ? 1 : 0;
  }
  const double n = static_cast<double>(std::max<std::size_t>(done, 1));
  report.metric("service.degraded_frac", static_cast<double>(degraded) / n,
                "ratio", done);
  report.metric("service.refused_frac", static_cast<double>(refused) / n,
                "ratio", done);
}

/// Runs a fixed-rate phase of `seconds`, replays each of its sessions
/// traced, and emits the service and session per-layer metrics. Earlier
/// phases must already be verified (the twin governor runs in order).
/// Returns the tracing overhead: traced replay against
/// run_protected_session, in percent of the median session.
double traced_phase(Fleet& fleet, const RunOptions& options, double seconds,
                    SpanLog& log, Report& report, Sessions& phase) {
  const PhaseStats stats = run_into(
      fleet, make_plan(fleet.shape, fleet.specs, options.seed, 1, fleet.shape.rate,
                       seconds),
      phase);
  const Verification v =
      verify(fleet, phase.plan, phase.out, fleet.pool_threads, true, log);
  report.check(v.mismatches == 0 && v.twin_mismatches == 0 && stats.lost == 0,
               "traced replay differs from the service's results");
  report_fleet_layers(fleet, phase.plan, phase.out, stats, v, report);
  std::vector<double> replay_us;
  for (const SessionLayers& l : v.layers) {
    if (l.exec_us > 0.0) replay_us.push_back(l.exec_us);
  }
  return (median(replay_us) / median(v.reference_exec_us) - 1.0) * 100.0;
}

}  // namespace

void report_fleet_layers_probe(const RunOptions& options, Report& report,
                               SpanLog& log) {
  Fleet fleet;
  set_up(fleet, options, /*mixed=*/false);
  Sessions warmup;
  run_into(fleet, make_plan(fleet.shape, fleet.specs, options.seed, 2,
                            fleet.shape.rate, kWarmupSeconds),
           warmup);
  const Verification v = verify(fleet, warmup.plan, warmup.out, options.nproc, false, log);
  report.check(v.mismatches == 0 && v.twin_mismatches == 0,
               "layer-probe warm-up results differ from their standalone runs");
  Sessions phase;
  traced_phase(fleet, options, 3.0, log, report, phase);
  report_admission_shares(phase, 0, phase.plan.size(), report);
}

int run_fleet(const RunOptions& options, Report& report) {
  const bool mixed = options.workload == "fleet-mixed";
  constexpr std::size_t kSetups = 5;
  Fleet fleet;
  std::vector<double> setup_times;
  for (std::size_t i = 0; i < kSetups; ++i) {
    const double t0 = i == 0 ? options.process_start_s : now_s();
    set_up(fleet, options, mixed);
    setup_times.push_back(now_s() - t0);
  }
  report_setup(report, setup_times);
  report.info("threads", "generator 1, dispatcher 1, session pool " +
                             std::to_string(fleet.pool_threads) +
                             ", analysis " + std::to_string(options.nproc));
  report.info("offered_rate_sps", std::to_string(fleet.shape.rate));

  // Warm-up: the first seconds of traffic grow the heap and the service's
  // telemetry stores; they are served and checked, not timed.
  Sessions all;
  run_into(fleet, make_plan(fleet.shape, fleet.specs, options.seed, 2,
                            fleet.shape.rate, kWarmupSeconds),
           all);

  // Fixed-rate phase: the end-to-end figures.
  const std::size_t fixed_first = all.plan.size();
  run_into(fleet, make_plan(fleet.shape, fleet.specs, options.seed, 0,
                            fleet.shape.rate, options.seconds),
           all);
  const std::size_t fixed_end = all.plan.size();

  // Rate ladder: ascending fixed rates until one misses the limit. Each
  // rung lasts long enough for ~1100 sessions, so its p99 is supported.
  const double limit_s = static_cast<double>(fleet.shape.short_slices) * kSliceSeconds;
  double max_rate = 0.0;
  for (std::size_t r = 0; r < fleet.shape.ladder.size(); ++r) {
    const double rate = fleet.shape.ladder[r];
    const std::size_t first = all.plan.size();
    const PhaseStats rs = run_into(
        fleet, make_plan(fleet.shape, fleet.specs, options.seed, 100 + r, rate,
                         1100.0 / rate),
        all);
    std::vector<double> lat;
    for (std::size_t i = first; i < all.plan.size(); ++i) {
      if (all.out[i].done) lat.push_back(all.out[i].latency_s);
    }
    const double p = highest_supported_percentile(lat.size());
    const double tail = percentile(lat, p);
    const bool pass = rs.lost == 0 && tail <= limit_s &&
                      rs.generator_end_backlog <= rate * limit_s;
    char buf[160];
    std::snprintf(buf, sizeof buf, "%s: p%.4g %.3f ms over %zu sessions, backlog %.0f",
                  pass ? "pass" : "fail", p, tail * 1e3, lat.size(),
                  rs.generator_end_backlog);
    report.info("ladder." + std::to_string(static_cast<int>(rate)) + "_sps", buf);
    if (!pass) break;
    max_rate = rate;
  }
  const double measured_peak_rss = peak_rss_mb();

  // Output checks over every session of every phase.
  SpanLog log;
  const Verification v = verify(fleet, all.plan, all.out, options.nproc, false, log);
  const svc::ServiceStats ss = fleet.service->stats();
  std::size_t lost = 0;
  for (const Outcome& o : all.out) lost += o.done ? 0 : 1;
  report.check(v.mismatches == 0,
               std::to_string(v.mismatches) +
                   " session results differ from run_protected_session");
  report.check(v.twin_mismatches == 0,
               std::to_string(v.twin_mismatches) +
                   " admission decisions differ from the twin governor");
  report.check(v.cap_violations == 0,
               std::to_string(v.cap_violations) + " tenants exceed their ε cap");
  report.check(ss.sessions_submitted ==
                   ss.sessions_completed + ss.sessions_refused,
               "submitted != completed + refused");
  report.check(lost == 0, std::to_string(lost) + " sessions lost");
  report.info("trace_digest", hex(v.trace_digest));
  // Admission shares over warm-up and the timed phase: the capped tenants
  // degrade and exhaust during warm-up.
  report_admission_shares(all, 0, fixed_end, report);
  report.attempted(all.plan.size());
  report.failed(lost + v.mismatches + v.twin_mismatches);

  // End-to-end figures of the fixed-rate phase.
  std::vector<double> lat_ms;
  std::vector<double> at_s;
  std::size_t on_time = 0;
  for (std::size_t i = fixed_first; i < fixed_end; ++i) {
    const Outcome& o = all.out[i];
    if (!o.done) continue;
    lat_ms.push_back(o.latency_s * 1e3);
    at_s.push_back(all.plan[i].at);
    const double limit =
        static_cast<double>(all.plan[i].request.slices) * kSliceSeconds;
    if (o.outcome != svc::Admission::kRefuse && o.latency_s <= limit) ++on_time;
  }
  const std::size_t n = lat_ms.size();
  // Gated figures: the lower quartile over one-second windows (by
  // scheduled arrival) of each window's p50 and p90, so a noise episode on
  // the host moves some windows, not the result (see WindowedPercentiles).
  // The whole-phase percentiles follow.
  const WindowedPercentiles w = windowed_percentiles(at_s, lat_ms, 1.0, 90.0);
  report.check(w.windows > 0, "no one-second window supports p90");
  report.metric("latency_ms.p50", w.p50, "ms", w.windows);
  report.metric("latency_ms.p90", w.tail, "ms", w.windows);
  report.metric("latency_ms.phase_p50", median(lat_ms), "ms", n);
  const double p = highest_supported_percentile(n);
  report.info("latency_ms.phase_tail_percentile", std::to_string(p));
  report.metric("latency_ms.phase_tail", percentile(lat_ms, p), "ms", n);
  const std::size_t fixed_n = fixed_end - fixed_first;
  report.metric("on_time_frac",
                static_cast<double>(on_time) / static_cast<double>(fixed_n),
                "ratio", fixed_n);
  if (!fleet.shape.ladder.empty()) {
    report.metric("max_rate_sps", max_rate, "1/s", 1);
  }
  report.metric("guest_overhead_pct",
                (v.protected_busy / v.unprotected_busy - 1.0) * 100.0, "%",
                v.reference_exec_us.size());
  report.metric("peak_rss_mb", measured_peak_rss, "MB", 1);
  const std::size_t attempted = all.plan.size();
  report.metric("ok_frac",
                1.0 - static_cast<double>(lost + v.mismatches + v.twin_mismatches) /
                          static_cast<double>(std::max<std::size_t>(attempted, 1)),
                "ratio", attempted);

  if (options.trace) {
    // Traced replay of a further fixed-rate phase for the per-layer view.
    Sessions phase;
    report.metric("trace.overhead_pct",
                  traced_phase(fleet, options, std::min(options.seconds, 5.0),
                               log, report, phase),
                  "%", 1);
    // The offline layers ran during set-up; trace them stage by stage on
    // the same applications and check them against the service templates.
    std::vector<StagedAnalysis> staged;
    const aegis::core::OfflineConfig offline = offline_config(options.nproc);
    for (std::size_t k = 0; k < fleet.specs.size(); ++k) {
      staged.push_back(analyze_in_stages(*fleet.engine, fleet.specs[k].app,
                                         offline, log, k + 1));
      const auto& tpl = fleet.service->protection_template(fleet.template_ids[k]);
      report.check(same_ranking_and_cover(*tpl.analysis, staged.back().result),
                   "staged analysis differs from the service template");
    }
    report_offline_layers(staged, log,
                          fleet.engine->specification().variants().size(), report);
  }
  write_spans(options, log);
  return report.correct() ? 0 : 1;
}

void write_spans(const RunOptions& options, const SpanLog& log) {
  if (options.span_dir.empty() || !options.trace) return;
  const std::string path =
      options.span_dir + "/spans-" + options.workload + ".tsv";
  std::ofstream f(path);
  f << "id\tparent\trequest\tname\tstart_ns\tend_ns\n";
  const std::vector<Span> spans = log.spans();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    f << i + 1 << '\t' << s.parent << '\t' << s.request << '\t' << s.name
      << '\t' << s.start_ns << '\t' << s.end_ns << '\n';
  }
}

}  // namespace perfbench
