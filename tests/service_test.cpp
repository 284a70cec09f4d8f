#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstring>
#include <map>
#include <mutex>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "attack/wfa.hpp"
#include "obf/obfuscator.hpp"
#include "service/protection_service.hpp"
#include "sim/host_monitor.hpp"
#include "telemetry/registry.hpp"
#include "util/rng.hpp"

namespace aegis::service {
namespace {

/// One offline analysis + calibration shared by the whole suite (the same
/// scaled-down WFA scenario the serialize tests use).
struct Fixture {
  core::Aegis aegis{isa::CpuModel::kAmdEpyc7252};
  std::vector<std::unique_ptr<workload::Workload>> secrets;
  core::OfflineConfig config;
  std::shared_ptr<const core::OfflineResult> analysis;
  ProtectionTemplate tpl;

  Fixture() {
    attack::WfaScale scale;
    scale.sites = 4;
    scale.slices = 100;
    secrets = attack::make_wfa_secrets(scale);
    config = core::make_quick_offline_config();
    config.profiler.ranking_runs_per_secret = 3;
    config.fuzz_top_events = 12;
    analysis = std::make_shared<const core::OfflineResult>(
        aegis.analyze(*secrets[0], secrets, config));
    tpl = make_protection_template(aegis, analysis, secrets, laplace(), {},
                                   0xFEEDULL);
  }

  /// The mechanism `tpl` was calibrated from.
  static dp::MechanismConfig laplace() {
    dp::MechanismConfig mechanism;
    mechanism.kind = dp::MechanismKind::kLaplace;
    mechanism.epsilon = 0.05;
    return mechanism;
  }

  SessionRequest request(std::uint64_t tenant, std::size_t slices = 40) const {
    SessionRequest req;
    req.tenant_id = tenant;
    req.seed = util::split_mix64(0xABCDULL, tenant);
    req.application = secrets[tenant % secrets.size()].get();
    req.slices = slices;
    req.per_slice_epsilon = tpl.obf_config.mechanism.epsilon;
    return req;
  }
};

Fixture& fixture() {
  static Fixture f;
  return f;
}

/// A registry's completed spans with their names, from one drain().
std::vector<std::pair<std::string, telemetry::CompletedSpan>> drained_spans(
    const telemetry::Registry& registry) {
  const telemetry::DumpDocument doc = registry.recorder().snapshot();
  std::vector<std::pair<std::string, telemetry::CompletedSpan>> out;
  for (const auto& s : telemetry::complete_spans(doc.events)) {
    out.emplace_back(doc.streams.at(s.stream), s);
  }
  return out;
}

std::string fresh_dir(const std::string& name) {
  const std::string dir = "/tmp/aegis_service_test_" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

/// A service config whose template cache warm-starts from a disk copy of
/// the fixture's analysis, so registering the fixture template re-runs no
/// offline pipeline.
ServiceConfig warm_config(const std::string& name, std::size_t num_threads) {
  auto& f = fixture();
  const std::string dir = fresh_dir(name);
  {
    TemplateCache seeded({dir});
    (void)seeded.get_or_analyze(
        make_template_key(f.aegis.cpu(), *f.secrets[0], f.config),
        f.aegis.database(), [&] { return *f.analysis; });
  }
  ServiceConfig config;
  config.num_threads = num_threads;
  config.cache.cache_dir = dir;
  return config;
}

/// Registers the fixture template: the same calibration as `fixture().tpl`.
std::size_t register_fixture(ProtectionService& svc) {
  auto& f = fixture();
  return svc.register_template(f.aegis, *f.secrets[0], f.secrets, f.config,
                               Fixture::laplace(), {}, 0xFEEDULL);
}

/// Exact equality of everything a session computes (no tolerance).
void expect_bit_identical(const SessionResult& got, const SessionResult& want) {
  EXPECT_EQ(got.tenant_id, want.tenant_id);
  EXPECT_EQ(got.granularity, want.granularity);
  ASSERT_EQ(got.trace.samples, want.trace.samples);
  EXPECT_EQ(got.trace.busy_cycles, want.trace.busy_cycles);
  EXPECT_EQ(got.injected_repetitions, want.injected_repetitions);
  EXPECT_TRUE(got.error.empty()) << got.error;
}

/// A guest application whose every run crashes: visit() throws.
class CrashingWorkload final : public workload::Workload {
 public:
  sim::BlockSource visit(std::uint64_t) const override {
    throw std::runtime_error("guest crashed");
  }
  std::size_t trace_slices() const override { return 40; }
  std::string name() const override { return "crashing"; }
};

/// Wraps a workload so each run blocks at its start until open() is
/// called. Draws nothing, so results stay identical to the wrapped one.
class GatedWorkload final : public workload::Workload {
 public:
  explicit GatedWorkload(const workload::Workload& inner) : inner_(inner) {}

  void open() {
    {
      std::lock_guard lock(mu_);
      open_ = true;
    }
    cv_.notify_all();
  }

  sim::BlockSource visit(std::uint64_t seed) const override {
    std::unique_lock lock(mu_);
    cv_.wait(lock, [&] { return open_; });
    return inner_.visit(seed);
  }
  std::size_t trace_slices() const override { return inner_.trace_slices(); }
  std::string name() const override { return inner_.name(); }

 private:
  const workload::Workload& inner_;
  mutable std::mutex mu_;
  mutable std::condition_variable cv_;
  bool open_ = false;
};

/// Each tenant's results, in the order take_completed() returned them.
std::map<std::uint64_t, std::vector<SessionResult>> by_tenant(
    std::vector<CompletedSession> completed) {
  std::map<std::uint64_t, std::vector<SessionResult>> out;
  for (CompletedSession& done : completed) {
    out[done.result.tenant_id].push_back(std::move(done.result));
  }
  return out;
}

// ---------------------------------------------------------------- keying

TEST(TemplateKeying, FamilyMembersShareAKey) {
  auto& f = fixture();
  const TemplateKey a =
      make_template_key(isa::CpuModel::kAmdEpyc7252, *f.secrets[0], f.config);
  const TemplateKey b =
      make_template_key(isa::CpuModel::kAmdEpyc7313P, *f.secrets[0], f.config);
  EXPECT_EQ(a, b);  // Table I: family members share event lists
  const TemplateKey intel = make_template_key(isa::CpuModel::kIntelXeonE5_1650,
                                              *f.secrets[0], f.config);
  EXPECT_NE(a, intel);
}

TEST(TemplateKeying, ConfigHashIsThreadCountInvariantButFieldSensitive) {
  auto& f = fixture();
  core::OfflineConfig threaded = f.config;
  threaded.set_num_threads(8);
  EXPECT_EQ(hash_offline_config(f.config), hash_offline_config(threaded));

  core::OfflineConfig different = f.config;
  different.fuzzer.seed ^= 1;
  EXPECT_NE(hash_offline_config(f.config), hash_offline_config(different));
  different = f.config;
  different.fuzz_top_events += 1;
  EXPECT_NE(hash_offline_config(f.config), hash_offline_config(different));
}

TEST(TemplateKeying, WorkloadFingerprintSeparatesSecrets) {
  auto& f = fixture();
  EXPECT_NE(fingerprint_workload(*f.secrets[0]),
            fingerprint_workload(*f.secrets[1]));
  EXPECT_EQ(fingerprint_workload(*f.secrets[0]),
            fingerprint_workload(*f.secrets[0]));
}

// ---------------------------------------------------------- single-flight

// Pins the full key-hash composition (vendor, family, fingerprint,
// config hash chained through util::hash_combine). The value was computed
// independently from the FNV-1a spec; if this fails, the on-disk cache
// naming scheme changed and warm starts will re-run every analysis.
TEST(TemplateKeying, KeyHashGoldenValuePinsFnvComposition) {
  TemplateKey key;
  key.vendor = isa::Vendor::kAmd;
  key.cpu_family = 0x19;
  key.workload_fingerprint = 0x1122334455667788ULL;
  key.config_hash = 0xdeadbeefcafef00dULL;
  EXPECT_EQ(TemplateKeyHash{}(key),
            static_cast<std::size_t>(0xac7917c1241e9876ULL));
}

TEST(TemplateCacheTest, ColdStartOfManyTenantsRunsExactlyOneAnalysis) {
  auto& f = fixture();
  TemplateCache cache;  // memory-only
  const TemplateKey key =
      make_template_key(f.aegis.cpu(), *f.secrets[0], f.config);

  constexpr std::size_t kTenants = 8;
  std::atomic<int> analyses{0};
  std::vector<std::shared_ptr<const core::OfflineResult>> results(kTenants);
  std::vector<std::thread> tenants;
  for (std::size_t t = 0; t < kTenants; ++t) {
    tenants.emplace_back([&, t] {
      results[t] = cache.get_or_analyze(key, f.aegis.database(), [&] {
        ++analyses;
        // Hold the in-flight window open long enough that every other
        // tenant joins it instead of racing past.
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        return *f.analysis;  // copy of the precomputed analysis
      });
    });
  }
  for (auto& t : tenants) t.join();

  EXPECT_EQ(analyses.load(), 1);
  for (std::size_t t = 1; t < kTenants; ++t) {
    EXPECT_EQ(results[t], results[0]);  // shared pointer identity
  }
  const TemplateCacheStats stats = cache.stats();
  EXPECT_EQ(stats.lookups, kTenants);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, kTenants - 1);
  EXPECT_EQ(stats.analyses_run, 1u);
  EXPECT_EQ(stats.warm_starts, 0u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(TemplateCacheTest, WarmStartsFromDiskWithoutReanalysis) {
  auto& f = fixture();
  const std::string dir = fresh_dir("warm");
  const TemplateKey key =
      make_template_key(f.aegis.cpu(), *f.secrets[0], f.config);

  {
    TemplateCache writer({dir});
    (void)writer.get_or_analyze(key, f.aegis.database(),
                                [&] { return *f.analysis; });
    EXPECT_EQ(writer.stats().analyses_run, 1u);
    EXPECT_TRUE(std::filesystem::exists(writer.disk_path(key)));
  }

  TemplateCache cold({dir});  // a restarted service instance
  const auto loaded = cold.get_or_analyze(key, f.aegis.database(), [&]() {
    ADD_FAILURE() << "warm start must not re-run the analysis";
    return *f.analysis;
  });
  EXPECT_EQ(loaded->cover.gadgets, f.analysis->cover.gadgets);
  EXPECT_EQ(loaded->warmup.surviving, f.analysis->warmup.surviving);
  const TemplateCacheStats stats = cold.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.warm_starts, 1u);
  EXPECT_EQ(stats.analyses_run, 0u);
}

TEST(TemplateCacheTest, CorruptDiskFileCountsFailedLoadAndReanalyzes) {
  auto& f = fixture();
  const std::string dir = fresh_dir("corrupt");
  const TemplateKey key =
      make_template_key(f.aegis.cpu(), *f.secrets[0], f.config);

  {
    TemplateCache writer({dir});
    (void)writer.get_or_analyze(key, f.aegis.database(),
                                [&] { return *f.analysis; });
    // Truncate the persisted template: the next instance finds the file,
    // attempts the load, fails, and falls back to a fresh analysis.
    std::ofstream corrupt(writer.disk_path(key), std::ios::trunc);
    corrupt << "not a template";
  }

  TemplateCache cold({dir});
  const auto result = cold.get_or_analyze(key, f.aegis.database(),
                                          [&] { return *f.analysis; });
  EXPECT_EQ(result->cover.gadgets, f.analysis->cover.gadgets);
  const TemplateCacheStats stats = cold.stats();
  EXPECT_EQ(stats.lookups, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.warm_starts, 1u);   // the load was attempted...
  EXPECT_EQ(stats.failed_loads, 1u);  // ...and failed
  EXPECT_EQ(stats.analyses_run, 1u);
  // The documented identity, exactly:
  EXPECT_EQ(stats.analyses_run,
            stats.misses - stats.warm_starts + stats.failed_loads);
}

TEST(TemplateCacheTest, StatsIdentityHoldsAcrossColdWarmAndFailedPaths) {
  auto& f = fixture();
  const std::string dir = fresh_dir("identity");
  const TemplateKey key =
      make_template_key(f.aegis.cpu(), *f.secrets[0], f.config);

  TemplateCache cache({dir});
  (void)cache.get_or_analyze(key, f.aegis.database(),
                             [&] { return *f.analysis; });  // cold miss
  (void)cache.get_or_analyze(key, f.aegis.database(),
                             [&] { return *f.analysis; });  // hit
  // A second key whose analysis throws: still a miss + an analysis run.
  core::OfflineConfig other = f.config;
  other.fuzz_top_events += 1;
  const TemplateKey key2 = make_template_key(f.aegis.cpu(), *f.secrets[0], other);
  EXPECT_THROW((void)cache.get_or_analyze(
                   key2, f.aegis.database(),
                   []() -> core::OfflineResult {
                     throw std::runtime_error("injected failure");
                   }),
               std::runtime_error);

  const TemplateCacheStats stats = cache.stats();
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.warm_starts, 0u);
  EXPECT_EQ(stats.failed_loads, 0u);
  EXPECT_EQ(stats.analyses_run, 2u);  // thrown analyses count: they ran
  EXPECT_EQ(stats.analyses_run,
            stats.misses - stats.warm_starts + stats.failed_loads);
}

TEST(TemplateCacheTest, FailedAnalysisPropagatesAndAllowsRetry) {
  auto& f = fixture();
  TemplateCache cache;
  const TemplateKey key =
      make_template_key(f.aegis.cpu(), *f.secrets[0], f.config);
  EXPECT_THROW((void)cache.get_or_analyze(
                   key, f.aegis.database(),
                   []() -> core::OfflineResult {
                     throw std::runtime_error("injected failure");
                   }),
               std::runtime_error);
  EXPECT_EQ(cache.size(), 0u);  // evicted: the next caller may retry
  const auto retried = cache.get_or_analyze(key, f.aegis.database(),
                                            [&] { return *f.analysis; });
  EXPECT_EQ(retried->cover.gadgets, f.analysis->cover.gadgets);
}

// ------------------------------------------------------ fleet determinism

TEST(SessionFleet, SixteenTenantsBitIdenticalToStandaloneAcrossThreadCounts) {
  auto& f = fixture();
  constexpr std::size_t kTenants = 16;

  std::vector<SessionRequest> requests;
  for (std::size_t t = 0; t < kTenants; ++t) {
    requests.push_back(f.request(t));
  }

  // The reference: each tenant standalone, no service machinery at all.
  std::vector<SessionResult> standalone;
  for (const auto& req : requests) {
    standalone.push_back(run_protected_session(f.tpl, req, 1));
  }

  for (std::size_t num_threads : {std::size_t{1}, std::size_t{8}}) {
    // Fresh service, fresh budgets: every window admits at g=1.
    ProtectionService svc(warm_config("sixteen", num_threads));
    ASSERT_EQ(svc.num_threads(), num_threads);
    const std::size_t tpl_id = register_fixture(svc);
    for (const auto& req : requests) ASSERT_TRUE(svc.submit({tpl_id, req}));
    svc.drain();
    auto fleet = by_tenant(svc.take_completed());

    ASSERT_EQ(fleet.size(), kTenants);
    for (std::size_t t = 0; t < kTenants; ++t) {
      SCOPED_TRACE("tenant " + std::to_string(t) + " threads " +
                   std::to_string(num_threads));
      ASSERT_EQ(fleet[t].size(), 1u);
      EXPECT_EQ(fleet[t][0].outcome, Admission::kAdmit);
      expect_bit_identical(fleet[t][0], standalone[t]);
    }
    EXPECT_EQ(svc.stats().sessions_completed, kTenants);
    EXPECT_EQ(svc.stats().sessions_refused, 0u);
  }
}

TEST(SessionFleet, TelemetryAttachmentDoesNotPerturbResults) {
  auto& f = fixture();
  const SessionRequest req = f.request(3);

  const SessionResult bare = run_protected_session(f.tpl, req, 2, nullptr);
  telemetry::Registry registry;
  const SessionResult traced = run_protected_session(f.tpl, req, 2, &registry);

  // Bit-identical results: telemetry draws no randomness and no sim state.
  ASSERT_EQ(traced.trace.samples, bare.trace.samples);
  EXPECT_EQ(traced.trace.busy_cycles, bare.trace.busy_cycles);
  EXPECT_EQ(traced.injected_repetitions, bare.injected_repetitions);

  // Every noise-refresh window was recorded from the VIRTUAL clock: one
  // span per granularity-2 window, stamped in slice-index nanoseconds.
  const auto spans = drained_spans(registry);
  ASSERT_EQ(spans.size(), (req.slices + 1) / 2);
  EXPECT_EQ(spans[0].first, "inject.window");
  EXPECT_EQ(spans[0].second.begin_ns, 0u);
  EXPECT_EQ(spans[0].second.end_ns, 2000u);  // 2 slices x 1000 ns/slice
  EXPECT_EQ(spans[0].second.arg, req.tenant_id);
}

TEST(SessionFleet, SharedRegistryCollectsFleetCountersAndBudgetTimeline) {
  auto& f = fixture();
  constexpr std::size_t kTenants = 4;
  telemetry::Registry registry;
  {
    ServiceConfig config = warm_config("registry", 2);
    config.telemetry = &registry;
    ProtectionService svc(config);
    const std::size_t tpl_id = register_fixture(svc);
    for (std::size_t t = 0; t < kTenants; ++t) {
      ASSERT_TRUE(svc.submit({tpl_id, f.request(t)}));
    }
    svc.drain();
  }

  const telemetry::MetricsSnapshot snap = registry.metrics().snapshot();
  auto counter_value = [&](std::string_view name) -> std::uint64_t {
    for (const auto& c : snap.counters) {
      if (c.name == name) return c.value;
    }
    return 0;
  };
  EXPECT_EQ(counter_value("aegis_sessions_submitted_total"), kTenants);
  EXPECT_EQ(counter_value("aegis_sessions_started_total"), kTenants);
  EXPECT_EQ(counter_value("aegis_sessions_completed_total"), kTenants);
  EXPECT_EQ(counter_value("aegis_sessions_failed_total"), 0u);

  // One ε-decision event per admission decision, in submission order.
  std::vector<telemetry::DrainedEvent> events;
  for (const auto& e : registry.recorder().drain()) {
    if (e.type ==
        static_cast<std::uint16_t>(telemetry::WideEventType::kAdmission)) {
      events.push_back(e);
    }
  }
  ASSERT_EQ(events.size(), kTenants);
  for (std::size_t t = 0; t < kTenants; ++t) {
    EXPECT_EQ(events[t].tenant, t);
    EXPECT_EQ(events[t].a,
              static_cast<std::uint64_t>(telemetry::BudgetOutcome::kAdmit));
    double epsilon_after = 0.0;
    std::memcpy(&epsilon_after, &events[t].d, sizeof(epsilon_after));
    EXPECT_GT(epsilon_after, 0.0);
  }

  // One session span per session, and no per-batch span. A tenant's k-th
  // admitted decision pairs with its k-th session span; the gap between
  // them, on the registry clock, is that session's queue wait.
  std::map<std::uint64_t, std::vector<std::uint64_t>> session_begins;
  for (const auto& [name, span] : drained_spans(registry)) {
    EXPECT_NE(name, "fleet.admission");
    EXPECT_NE(name, "service.dispatch");
    if (name == "fleet.session") session_begins[span.arg].push_back(span.begin_ns);
  }
  ASSERT_EQ(session_begins.size(), kTenants);
  for (const auto& e : events) {
    ASSERT_EQ(session_begins[e.tenant].size(), 1u);
    EXPECT_GT(session_begins[e.tenant][0], e.t_ns);  // queue wait > 0 ticks
  }
}

TEST(SessionFleet, SameSeedGivesTheSameRecorderDumpBytes) {
  auto& f = fixture();
  // One thread, a fresh registry each time: the admission event and the
  // injection-window spans must serialize to the same bytes.
  auto dump = [&] {
    telemetry::Registry registry;
    GovernorConfig gov_config;
    gov_config.telemetry = &registry;
    BudgetGovernor governor(gov_config);
    const SessionRequest req = f.request(5);
    const AdmissionDecision decision = governor.request_window(
        req.tenant_id, req.slices, req.per_slice_epsilon);
    (void)run_protected_session(f.tpl, req, decision.granularity, &registry);
    std::ostringstream os;
    registry.recorder().write_dump(os);
    return os.str();
  };
  const std::string first = dump();
  EXPECT_GT(first.size(), 40u + 56u * 80u);  // header + 40 windows x 2
  EXPECT_EQ(first, dump());
}

TEST(SessionFleet, TenantTraceIndependentOfFleetComposition) {
  auto& f = fixture();
  // Tenant 3 alone...
  ProtectionService alone(warm_config("alone", 2));
  ASSERT_TRUE(alone.submit({register_fixture(alone), f.request(3)}));
  alone.drain();
  const auto solo = alone.take_completed();
  // ...and inside an 8-tenant fleet.
  ProtectionService fleet(warm_config("together", 4));
  const std::size_t tpl_id = register_fixture(fleet);
  for (std::size_t t = 0; t < 8; ++t) {
    ASSERT_TRUE(fleet.submit({tpl_id, f.request(t)}));
  }
  fleet.drain();
  auto together = by_tenant(fleet.take_completed());
  ASSERT_EQ(solo.size(), 1u);
  ASSERT_EQ(together[3].size(), 1u);
  expect_bit_identical(together[3][0], solo[0].result);
}

// ------------------------------------------------------- admission control

TEST(BudgetGovernorTest, WalksAdmitDegradeRefuseAsBudgetExhausts) {
  GovernorConfig config;
  config.default_epsilon_cap = 8.0;
  config.delta = 1e-6;
  config.max_granularity = 64;
  BudgetGovernor governor(config);

  const std::uint64_t tenant = 42;
  const std::size_t slices = 32;
  const double eps = 0.2;

  std::size_t admits = 0, degrades = 0, refusals = 0;
  bool seen_degrade_after_admit = false;
  bool seen_refuse_after_degrade = false;
  Admission last = Admission::kAdmit;
  dp::PrivacyAccountant shadow;  // direct re-computation of the spend

  for (int window = 0; window < 64; ++window) {
    const AdmissionDecision decision =
        governor.request_window(tenant, slices, eps);
    switch (decision.outcome) {
      case Admission::kAdmit:
        ++admits;
        EXPECT_EQ(decision.granularity, 1u);
        EXPECT_EQ(decision.releases, slices);
        break;
      case Admission::kDegrade:
        ++degrades;
        EXPECT_GT(decision.granularity, 1u);
        EXPECT_LT(decision.releases, slices);
        if (last == Admission::kAdmit) seen_degrade_after_admit = true;
        break;
      case Admission::kRefuse:
        ++refusals;
        EXPECT_EQ(decision.releases, 0u);
        if (last == Admission::kDegrade) seen_refuse_after_degrade = true;
        break;
    }
    if (decision.outcome != Admission::kRefuse) {
      shadow.record_releases(eps, decision.releases);
      // The grant itself never crosses the cap...
      EXPECT_LE(decision.epsilon_after, config.default_epsilon_cap + 1e-12);
      // ...and matches a direct advanced-composition computation.
      EXPECT_NEAR(decision.epsilon_after, shadow.advanced_epsilon(config.delta),
                  1e-12);
    } else {
      // Refusals record nothing: the spend stays where it was.
      EXPECT_NEAR(decision.epsilon_after, shadow.advanced_epsilon(config.delta),
                  1e-12);
    }
    last = decision.outcome;
  }

  // All three outcomes occur, in budget order.
  EXPECT_GE(admits, 1u);
  EXPECT_GE(degrades, 1u);
  EXPECT_GE(refusals, 1u);
  EXPECT_TRUE(seen_degrade_after_admit);
  EXPECT_TRUE(seen_refuse_after_degrade);

  // ServiceStats-side counters match the observed outcomes exactly.
  const TenantBudgetStats usage = governor.usage(tenant);
  EXPECT_EQ(usage.admitted, admits);
  EXPECT_EQ(usage.degraded, degrades);
  EXPECT_EQ(usage.refused, refusals);
  EXPECT_EQ(usage.releases, shadow.releases());
  EXPECT_NEAR(usage.advanced_epsilon, shadow.advanced_epsilon(config.delta),
              1e-12);
  EXPECT_LE(usage.advanced_epsilon, usage.epsilon_cap);
  EXPECT_NEAR(governor.remaining(tenant),
              shadow.remaining(config.default_epsilon_cap, config.delta),
              1e-12);
}

TEST(BudgetGovernorTest, RefusedSessionsCarryNoTrace) {
  auto& f = fixture();
  ServiceConfig config = warm_config("refused", 2);
  config.governor.default_epsilon_cap = 1e-3;  // nothing fits
  config.governor.max_granularity = 4;
  ProtectionService svc(config);
  ASSERT_TRUE(svc.submit({register_fixture(svc), f.request(7)}));
  svc.drain();
  const auto results = svc.take_completed();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].result.outcome, Admission::kRefuse);
  EXPECT_TRUE(results[0].result.trace.samples.empty());
  EXPECT_EQ(svc.stats().sessions_refused, 1u);
  EXPECT_EQ(svc.stats().sessions_started, 0u);
  EXPECT_EQ(svc.stats().sessions_completed, 0u);
}

TEST(BudgetGovernorTest, ZeroEpsilonWindowsAlwaysAdmit) {
  BudgetGovernor governor;
  // The d* mechanism's guarantee is series-level: per-slice accounting
  // does not apply, and the governor never refuses it.
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(governor.request_window(1, 100, 0.0).outcome, Admission::kAdmit);
  }
  EXPECT_EQ(governor.usage(1).releases, 0u);
}

TEST(BudgetGovernorTest, TenantsAreIsolated) {
  GovernorConfig config;
  config.default_epsilon_cap = 2.0;
  BudgetGovernor governor(config);
  // Exhaust tenant 1.
  while (governor.request_window(1, 64, 0.2).outcome != Admission::kRefuse) {
  }
  // Tenant 2's budget is untouched.
  EXPECT_EQ(governor.request_window(2, 16, 0.05).outcome, Admission::kAdmit);
  EXPECT_NEAR(governor.remaining(2) + governor.usage(2).advanced_epsilon, 2.0,
              1e-12);
}

// ---------------------------------------------- backpressure and shutdown

TEST(ProtectionServiceTest, SubmitBlocksAtCapacityUntilASessionFinishes) {
  auto& f = fixture();
  ServiceConfig config = warm_config("backpressure", 1);
  config.queue_capacity = 2;
  ProtectionService svc(config);
  const std::size_t tpl_id = register_fixture(svc);
  GatedWorkload gated(*f.secrets[0]);
  SessionRequest held = f.request(1, 10);
  held.application = &gated;
  ASSERT_TRUE(svc.submit({tpl_id, held}));  // runs, parked at the gate
  ASSERT_TRUE(svc.submit({tpl_id, held}));  // waits for the one worker

  std::atomic<bool> submitted{false};
  std::thread producer([&] {
    EXPECT_TRUE(svc.submit({tpl_id, f.request(2, 10)}));  // blocks: full
    submitted = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_FALSE(submitted.load());  // still blocked: 2 sessions in flight
  EXPECT_EQ(svc.stats().queue_depth, 2u);
  gated.open();
  producer.join();
  EXPECT_TRUE(submitted.load());
  svc.drain();
  EXPECT_EQ(svc.take_completed().size(), 3u);
  EXPECT_EQ(svc.stats().queue_depth, 0u);
}

TEST(ProtectionServiceTest, ShutdownFinishesAcceptedThenRefusesSubmit) {
  // Shutdown with sessions accepted: they still run and come back in
  // submission order, submit() is refused afterwards, and nothing else
  // is ever released.
  auto& f = fixture();
  ServiceConfig config = warm_config("shutdown_finishes", 1);
  config.queue_capacity = 4;
  ProtectionService svc(config);
  const std::size_t tpl_id = register_fixture(svc);
  const std::vector<SessionRequest> accepted = {f.request(1, 30),
                                                f.request(1, 10)};
  for (const SessionRequest& req : accepted) {
    ASSERT_TRUE(svc.submit({tpl_id, req}));
  }
  svc.shutdown();
  EXPECT_FALSE(svc.submit({tpl_id, f.request(1, 10)}));  // after shutdown

  const auto completed = svc.take_completed();
  ASSERT_EQ(completed.size(), accepted.size());
  for (std::size_t i = 0; i < accepted.size(); ++i) {
    expect_bit_identical(completed[i].result,
                         run_protected_session(f.tpl, accepted[i], 1));
  }
  EXPECT_TRUE(svc.take_completed().empty());
  EXPECT_EQ(svc.stats().queue_depth, 0u);
}

TEST(ProtectionServiceTest, ShutdownWakesEveryBlockedSubmitter) {
  // Shutdown with submitters parked in submit(): every one of them wakes
  // with false, and the session accepted before still finishes.
  auto& f = fixture();
  ServiceConfig config = warm_config("shutdown_wakes", 1);
  config.queue_capacity = 1;
  ProtectionService svc(config);
  const std::size_t tpl_id = register_fixture(svc);
  GatedWorkload gated(*f.secrets[0]);
  SessionRequest held = f.request(1, 10);
  held.application = &gated;
  ASSERT_TRUE(svc.submit({tpl_id, held}));  // full: every submit below blocks

  constexpr int kSubmitters = 4;
  std::atomic<int> rejected{0};
  std::vector<std::thread> submitters;
  submitters.reserve(kSubmitters);
  for (int p = 0; p < kSubmitters; ++p) {
    submitters.emplace_back([&, p] {
      if (!svc.submit({tpl_id, f.request(2 + p, 10)})) ++rejected;
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  std::thread stopper([&] { svc.shutdown(); });  // joins the parked worker
  for (auto& t : submitters) t.join();  // woken while the gate is shut
  EXPECT_EQ(rejected.load(), kSubmitters);
  gated.open();
  stopper.join();

  const auto completed = svc.take_completed();
  ASSERT_EQ(completed.size(), 1u);
  SessionRequest plain = held;
  plain.application = f.secrets[0].get();
  expect_bit_identical(completed[0].result,
                       run_protected_session(f.tpl, plain, 1));
  EXPECT_TRUE(svc.take_completed().empty());
}

TEST(ProtectionServiceTest, ShutdownAtCapacityFinishesAcceptedInOrder) {
  // Shutdown with the service full: no accepted session is dropped, and
  // all of them are released in submission order.
  auto& f = fixture();
  ServiceConfig config = warm_config("shutdown_full", 1);
  config.queue_capacity = 3;
  ProtectionService svc(config);
  const std::size_t tpl_id = register_fixture(svc);
  GatedWorkload gated(*f.secrets[0]);
  std::vector<SessionRequest> accepted = {f.request(1, 30), f.request(1, 10),
                                          f.request(1, 20)};
  for (SessionRequest& req : accepted) {
    req.application = &gated;
    ASSERT_TRUE(svc.submit({tpl_id, req}));
  }
  EXPECT_EQ(svc.stats().queue_depth, accepted.size());  // at capacity

  std::thread stopper([&] { svc.shutdown(); });  // joins the parked worker
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  gated.open();
  stopper.join();

  const auto completed = svc.take_completed();
  ASSERT_EQ(completed.size(), accepted.size());
  for (std::size_t i = 0; i < accepted.size(); ++i) {
    SessionRequest plain = accepted[i];
    plain.application = f.secrets[0].get();
    expect_bit_identical(completed[i].result,
                         run_protected_session(f.tpl, plain, 1));
  }
  EXPECT_TRUE(svc.take_completed().empty());
  EXPECT_EQ(svc.stats().queue_depth, 0u);
}

TEST(ProtectionServiceTest, ShutdownRacingSubmitNeverLosesAcceptedSessions) {
  // Races shutdown() against a herd of submitters (run under TSan via
  // check.sh's fast filter). Invariant: exactly the accepted submissions
  // come back, none after shutdown and none twice.
  auto& f = fixture();
  ServiceConfig config = warm_config("race", 2);
  config.queue_capacity = 16;
  ProtectionService svc(config);
  const std::size_t tpl_id = register_fixture(svc);
  constexpr int kSubmitters = 8;
  constexpr int kPerSubmitter = 64;
  std::atomic<int> accepted{0};
  std::atomic<bool> go{false};
  std::vector<std::thread> submitters;
  submitters.reserve(kSubmitters);
  for (int p = 0; p < kSubmitters; ++p) {
    submitters.emplace_back([&, p] {
      while (!go.load()) std::this_thread::yield();
      for (int i = 0; i < kPerSubmitter; ++i) {
        if (!svc.submit({tpl_id, f.request(p, 2)})) return;
        ++accepted;
      }
    });
  }
  go = true;
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  svc.shutdown();
  for (auto& t : submitters) t.join();
  const auto completed = svc.take_completed();
  EXPECT_EQ(completed.size(), static_cast<std::size_t>(accepted.load()));
  const ServiceStats stats = svc.stats();
  EXPECT_EQ(stats.sessions_submitted, static_cast<std::size_t>(accepted.load()));
  EXPECT_EQ(stats.sessions_completed + stats.sessions_refused,
            completed.size());
  EXPECT_EQ(stats.queue_depth, 0u);
}

// ------------------------------------------------ order and fault isolation

TEST(ProtectionServiceTest, TenantResultsComeInSubmissionOrder) {
  // Tenant 0 submits a 600-slice session, then a 20-slice one, among
  // other tenants' sessions. The long one is gated, so the short one
  // surely finishes first: it is held back, while every other tenant's
  // results are released. No wall-clock assertion.
  auto& f = fixture();
  ServiceConfig config = warm_config("order", 4);
  config.governor.default_epsilon_cap = 1e9;  // every window admits at g=1
  ProtectionService svc(config);
  const std::size_t tpl_id = register_fixture(svc);
  GatedWorkload gated(*f.secrets[0]);
  SessionRequest long_run = f.request(0, 600);
  long_run.application = &gated;
  std::vector<SessionRequest> requests = {long_run};
  for (std::uint64_t t = 1; t <= 6; ++t) requests.push_back(f.request(t, 20));
  requests.push_back(f.request(0, 20));
  for (std::uint64_t t = 1; t <= 6; ++t) requests.push_back(f.request(t, 20));
  for (const auto& req : requests) ASSERT_TRUE(svc.submit({tpl_id, req}));

  // Only tenant 0's two sessions stay in flight: the gated one, and the
  // short one once it has finished behind it.
  while (svc.stats().queue_depth > 2 || svc.stats().sessions_completed <
                                            requests.size() - 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::vector<CompletedSession> completed = svc.take_completed();
  for (const auto& done : completed) EXPECT_NE(done.result.tenant_id, 0u);
  EXPECT_EQ(completed.size(), requests.size() - 2);
  gated.open();
  svc.drain();
  for (auto& done : svc.take_completed()) completed.push_back(std::move(done));

  auto results = by_tenant(std::move(completed));
  requests.front().application = f.secrets[0].get();  // the ungated twin
  std::map<std::uint64_t, std::size_t> cursor;
  for (const auto& req : requests) {
    SCOPED_TRACE("tenant " + std::to_string(req.tenant_id));
    const SessionResult& got = results[req.tenant_id].at(cursor[req.tenant_id]++);
    EXPECT_EQ(got.trace.slices, req.slices);
    expect_bit_identical(got, run_protected_session(f.tpl, req, 1));
  }
}

TEST(ProtectionServiceTest, ThrowingSessionFailsAloneAndServiceKeepsServing) {
  auto& f = fixture();
  telemetry::Registry registry;
  ServiceConfig config = warm_config("crash", 2);
  config.telemetry = &registry;
  ProtectionService svc(config);
  const std::size_t tpl_id = register_fixture(svc);
  const CrashingWorkload crashing;
  constexpr std::uint64_t kVictim = 9;
  SessionRequest crash = f.request(kVictim);
  crash.application = &crashing;

  // The victim tenant crashes, then runs healthy; four other tenants run
  // around it. Twice, so the service demonstrably keeps serving.
  std::vector<SessionRequest> healthy;
  for (int round = 0; round < 2; ++round) {
    for (std::uint64_t t = 0; t < 2; ++t) healthy.push_back(f.request(t));
    ASSERT_TRUE(svc.submit({tpl_id, crash}));
    healthy.push_back(f.request(kVictim));
    for (std::uint64_t t = 2; t < 4; ++t) healthy.push_back(f.request(t));
    for (std::size_t i = healthy.size() - 5; i < healthy.size(); ++i) {
      ASSERT_TRUE(svc.submit({tpl_id, healthy[i]}));
    }
    svc.drain();
  }
  auto results = by_tenant(svc.take_completed());

  // The victim's results alternate failed, healthy in submission order.
  // A failed session's ε charge stays charged and its result states it.
  const std::vector<SessionResult>& victim = results[kVictim];
  ASSERT_EQ(victim.size(), 4u);
  for (std::size_t i = 0; i < victim.size(); ++i) {
    SCOPED_TRACE("victim result " + std::to_string(i));
    EXPECT_EQ(victim[i].outcome, Admission::kAdmit);
    EXPECT_EQ(victim[i].error.empty(), i % 2 == 1);
    if (i % 2 == 0) {
      EXPECT_EQ(victim[i].error, "guest crashed");
      EXPECT_TRUE(victim[i].trace.samples.empty());
    }
    if (i > 0) {
      EXPECT_GT(victim[i].epsilon_after, victim[i - 1].epsilon_after);
    }
  }
  EXPECT_EQ(victim.back().epsilon_after,
            svc.governor().usage(kVictim).advanced_epsilon);

  // Every healthy result is bit-identical to its standalone run.
  std::map<std::uint64_t, std::size_t> cursor;
  for (const auto& req : healthy) {
    const std::size_t skip = req.tenant_id == kVictim ? 1 : 0;  // the crash
    cursor[req.tenant_id] += skip;
    expect_bit_identical(results[req.tenant_id].at(cursor[req.tenant_id]++),
                         run_protected_session(f.tpl, req, 1));
  }

  const ServiceStats stats = svc.stats();
  EXPECT_EQ(stats.sessions_failed, 2u);
  EXPECT_EQ(stats.sessions_completed, healthy.size());
  EXPECT_EQ(stats.sessions_active, 0u);
  std::size_t failure_events = 0;
  for (const auto& e : registry.recorder().drain()) {
    if (e.type == static_cast<std::uint16_t>(telemetry::WideEventType::kAlert) &&
        e.a == static_cast<std::uint64_t>(telemetry::AlertKind::kSessionFailed)) {
      EXPECT_EQ(e.tenant, kVictim);
      ++failure_events;
    }
  }
  EXPECT_EQ(failure_events, 2u);
}

// -------------------------------------------------------------- end to end

TEST(ProtectionServiceTest, EndToEndFleetThroughTheDaemon) {
  auto& f = fixture();
  ServiceConfig config = warm_config("end_to_end", 4);
  config.queue_capacity = 4;  // tighter than the load: exercises backpressure
  ProtectionService svc(config);
  const std::size_t tpl_id = register_fixture(svc);

  constexpr std::size_t kSessions = 12;
  for (std::size_t s = 0; s < kSessions; ++s) {
    SessionSubmission sub;
    sub.template_id = tpl_id;
    sub.request = f.request(s % 3, 30);
    ASSERT_TRUE(svc.submit(sub));
  }
  svc.drain();

  const ServiceStats stats = svc.stats();
  EXPECT_EQ(stats.sessions_submitted, kSessions);
  EXPECT_EQ(stats.sessions_completed, kSessions);
  EXPECT_EQ(stats.sessions_refused, 0u);
  EXPECT_EQ(stats.sessions_active, 0u);
  EXPECT_EQ(stats.queue_depth, 0u);
  EXPECT_EQ(stats.cache.lookups, 1u);
  ASSERT_EQ(stats.tenants.size(), 3u);
  for (const auto& tenant : stats.tenants) {
    EXPECT_GT(tenant.releases, 0u);
    EXPECT_GT(tenant.advanced_epsilon, 0.0);
    EXPECT_LE(tenant.advanced_epsilon, tenant.epsilon_cap);
  }

  const auto completed = svc.take_completed();
  ASSERT_EQ(completed.size(), kSessions);
  for (const auto& done : completed) {
    EXPECT_EQ(done.result.outcome, Admission::kAdmit);
    EXPECT_FALSE(done.result.trace.samples.empty());
    EXPECT_GT(done.latency_seconds, 0.0);
  }
  EXPECT_TRUE(svc.take_completed().empty());  // moved out
}

TEST(ProtectionServiceTest, MalformedRequestsAreRejectedAtSubmit) {
  auto& f = fixture();
  ProtectionService svc(warm_config("malformed", 2));
  const std::size_t tpl_id = register_fixture(svc);

  std::vector<SessionRequest> bad(5, f.request(1, 20));
  bad[0].application = nullptr;
  bad[1].slices = 0;
  bad[2].per_slice_epsilon = -0.1;
  bad[3].per_slice_epsilon = std::numeric_limits<double>::quiet_NaN();
  bad[4].per_slice_epsilon = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < bad.size(); ++i) {
    SCOPED_TRACE("malformed field " + std::to_string(i));
    EXPECT_THROW(svc.submit({tpl_id, bad[i]}), std::invalid_argument);
  }

  // Nothing was enqueued, and the service still serves a valid request.
  ASSERT_TRUE(svc.submit({tpl_id, f.request(1, 20)}));
  svc.drain();
  const auto completed = svc.take_completed();
  ASSERT_EQ(completed.size(), 1u);
  EXPECT_EQ(completed[0].result.outcome, Admission::kAdmit);
  EXPECT_FALSE(completed[0].result.trace.samples.empty());
  EXPECT_EQ(svc.stats().sessions_submitted, 1u);
}

TEST(ProtectionServiceTest, UnderClaimedLaplaceEpsilonIsRejected) {
  auto& f = fixture();
  ProtectionService svc(warm_config("underclaim", 2));
  const std::size_t tpl_id = register_fixture(svc);
  ASSERT_EQ(svc.protection_template(tpl_id).obf_config.mechanism.epsilon,
            0.05);

  SessionRequest free_ride = f.request(3, 20);
  free_ride.per_slice_epsilon = 0.0;
  EXPECT_THROW(svc.submit({tpl_id, free_ride}), std::invalid_argument);
  SessionRequest cheaper = f.request(3, 20);
  cheaper.per_slice_epsilon = 0.01;
  EXPECT_THROW(svc.submit({tpl_id, cheaper}), std::invalid_argument);
  svc.drain();
  EXPECT_EQ(svc.governor().usage(3).releases, 0u);
  EXPECT_EQ(svc.stats().sessions_submitted, 0u);
}

TEST(ProtectionServiceTest, RegistrationsWithDifferentMechanismsGetTheirOwnTemplates) {
  auto& f = fixture();
  ProtectionService svc(warm_config("mechanisms", 2));
  const auto register_with = [&](double epsilon) {
    dp::MechanismConfig mechanism = Fixture::laplace();
    mechanism.epsilon = epsilon;
    return svc.register_template(f.aegis, *f.secrets[0], f.secrets, f.config,
                                 mechanism, {}, 0xFEEDULL);
  };

  const std::size_t strict = register_with(0.05);
  const std::size_t loose = register_with(1.0);
  EXPECT_NE(strict, loose);
  const auto epsilon_of = [&](std::size_t id) {
    return svc.protection_template(id).obf_config.mechanism.epsilon;
  };
  EXPECT_EQ(epsilon_of(strict), 0.05);
  EXPECT_EQ(epsilon_of(loose), 1.0);
  EXPECT_EQ(register_with(0.05), strict);
  EXPECT_EQ(register_with(1.0), loose);
  EXPECT_EQ(svc.stats().cache.analyses_run, 0u);  // one warm-started analysis
}

TEST(ProtectionServiceTest, ConcurrentRegistrationsShareOneTemplate) {
  ProtectionService svc(warm_config("register", 2));

  constexpr std::size_t kTenants = 6;
  std::vector<std::size_t> ids(kTenants);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kTenants; ++t) {
    threads.emplace_back([&, t] {
      ids[t] = register_fixture(svc);
    });
  }
  for (auto& t : threads) t.join();

  for (std::size_t t = 1; t < kTenants; ++t) EXPECT_EQ(ids[t], ids[0]);
  const ServiceStats stats = svc.stats();
  EXPECT_EQ(stats.cache.lookups, kTenants);
  EXPECT_EQ(stats.cache.misses, 1u);
  EXPECT_EQ(stats.cache.warm_starts, 1u);
  EXPECT_EQ(stats.cache.analyses_run, 0u);
}

// monitor_stepped with a planner that always answers 1 samples at every
// base slice, so it must reproduce monitor() exactly, agent included.
TEST(HostMonitor, UnitStepPlannerIsBitIdenticalToMonitor) {
  auto& f = fixture();
  const sim::SlicePlanner unit_step = [](std::size_t,
                                         const std::vector<double>&) {
    return std::size_t{1};
  };
  struct Run {
    sim::MonitorResult trace;
    double injected_repetitions = 0.0;
  };
  const auto run = [&](bool stepped) {
    obf::EventObfuscator obfuscator(f.aegis.database(),
                                    f.aegis.specification(),
                                    f.analysis->cover, f.tpl.obf_config);
    const sim::SliceAgent agent =
        obf::coarsen_agent(obfuscator.session(), 1);
    sim::VirtualMachine vm(f.tpl.vm, 0x51);
    sim::HostMonitor monitor(f.aegis.database(), 0x52);
    const sim::BlockSource visit = f.secrets[1]->visit(0x53);
    Run out;
    out.trace = stepped ? monitor.monitor_stepped(vm, visit,
                                                  f.tpl.monitored_events, 40,
                                                  unit_step, agent)
                        : monitor.monitor(vm, visit, f.tpl.monitored_events,
                                          40, agent);
    out.injected_repetitions = obfuscator.total_injected_repetitions();
    return out;
  };

  const Run plain = run(false);
  const Run stepped = run(true);
  ASSERT_EQ(plain.trace.samples.size(), 40u);
  EXPECT_GT(plain.injected_repetitions, 0.0);  // the defense really ran
  EXPECT_EQ(stepped.trace.samples, plain.trace.samples);
  EXPECT_EQ(stepped.trace.slices, plain.trace.slices);
  EXPECT_EQ(stepped.trace.busy_cycles, plain.trace.busy_cycles);
  EXPECT_EQ(stepped.injected_repetitions, plain.injected_repetitions);
}

}  // namespace
}  // namespace aegis::service
