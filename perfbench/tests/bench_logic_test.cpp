// Tests of the benchmark's own measurement logic: the percentile rule, the
// Poisson schedule, open-loop latency, span self time, and the twin
// governor's agreement with the service's admission decisions.
#include <gtest/gtest.h>

#include <map>

#include "bench_logic.hpp"
#include "core/config.hpp"
#include "service/protection_service.hpp"
#include "twin.hpp"
#include "workload/website.hpp"

namespace perfbench {
namespace {

TEST(PercentileRule, HighestPercentileWithTenSamplesBeyond) {
  EXPECT_EQ(highest_supported_percentile(5), 0.0);
  EXPECT_EQ(highest_supported_percentile(20), 50.0);
  EXPECT_EQ(highest_supported_percentile(99), 75.0);
  EXPECT_EQ(highest_supported_percentile(100), 90.0);
  EXPECT_EQ(highest_supported_percentile(999), 90.0);
  EXPECT_EQ(highest_supported_percentile(1000), 99.0);
  EXPECT_EQ(highest_supported_percentile(10000), 99.9);
  EXPECT_EQ(samples_for_percentile(90.0), 100u);
  EXPECT_EQ(samples_for_percentile(99.0), 1000u);
}

TEST(PercentileRule, NearestRank) {
  std::vector<double> v;
  for (int i = 10; i >= 1; --i) v.push_back(i);  // unsorted input
  EXPECT_EQ(percentile(v, 50.0), 5.0);
  EXPECT_EQ(percentile(v, 90.0), 9.0);
  EXPECT_EQ(percentile(v, 100.0), 10.0);
  EXPECT_EQ(percentile(v, 0.0), 1.0);
  EXPECT_TRUE(std::isnan(percentile({}, 50.0)));
}

TEST(PercentileRule, WindowedLowerQuartileSkipsWindowsTooSmallForTheTail) {
  std::vector<double> at;
  std::vector<double> v;
  // Four 1 s windows of 100 samples (values 1..100 shifted per window) and
  // a fifth of 5 samples, too few for p90, that must not count.
  const double shift[] = {1000.0, 0.0, 10.0, 20.0};
  for (int w = 0; w < 4; ++w) {
    for (int i = 1; i <= 100; ++i) {
      at.push_back(w + i / 101.0);
      v.push_back(shift[w] + i);
    }
  }
  for (int i = 0; i < 5; ++i) {
    at.push_back(4.5);
    v.push_back(-1e9);
  }
  const WindowedPercentiles r = windowed_percentiles(at, v, 1.0, 90.0);
  EXPECT_EQ(r.windows, 4u);
  EXPECT_EQ(r.p50, 50.0);  // window p50s 1050, 50, 60, 70: lower quartile
  EXPECT_EQ(r.tail, 90.0);  // window p90s 1090, 90, 100, 110
}

TEST(PoissonSchedule, ReproducesFromItsSeed) {
  const auto a = poisson_schedule(42, 500.0, 4.0);
  const auto b = poisson_schedule(42, 500.0, 4.0);
  const auto c = poisson_schedule(43, 500.0, 4.0);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  // 2000 expected arrivals; 5 standard deviations is ~224.
  EXPECT_NEAR(static_cast<double>(a.size()), 2000.0, 224.0);
  EXPECT_TRUE(std::is_sorted(a.begin(), a.end()));
  EXPECT_LT(a.back(), 4.0);
  EXPECT_GT(a.front(), 0.0);
}

TEST(PoissonSchedule, EmptyForNoRateOrDuration) {
  EXPECT_TRUE(poisson_schedule(1, 0.0, 1.0).empty());
  EXPECT_TRUE(poisson_schedule(1, 10.0, 0.0).empty());
}

TEST(OpenLoopLatency, CountsGeneratorLatenessFromScheduledArrival) {
  // Due at 10.000 s, submitted at 10.030 s (the generator stalled), then
  // 2 ms inside the service: the session waited 32 ms for its result.
  EXPECT_NEAR(open_loop_latency(10.000, 10.030, 0.002), 0.032, 1e-12);
  // On time: only the service's latency remains.
  EXPECT_DOUBLE_EQ(open_loop_latency(10.000, 10.000, 0.002), 0.002);
}

TEST(SpanSelfTime, SubtractsTheUnionOfDirectChildren) {
  std::vector<Span> spans = {
      {"root", 0, 100, 0, 1},   // 1
      {"a", 10, 40, 1, 1},      // 2
      {"b", 30, 60, 1, 1},      // 3: overlaps a
      {"a.x", 15, 20, 2, 1},    // 4: grandchild, not subtracted from root
      {"late", 90, 120, 1, 1},  // 5: clipped to the root's interval
  };
  const std::vector<std::int64_t> self = self_times(spans);
  EXPECT_EQ(self[0], 100 - (60 - 10) - (100 - 90));
  EXPECT_EQ(self[1], 30 - 5);
  EXPECT_EQ(self[2], 30);
  EXPECT_EQ(self[3], 5);
  EXPECT_EQ(self[4], 30);
}

TEST(SpanSelfTime, NeverNegative) {
  std::vector<Span> spans = {{"p", 0, 10, 0, 0}, {"c", 0, 10, 1, 0},
                             {"c2", 2, 8, 1, 0}};
  EXPECT_EQ(self_times(spans)[0], 0);
}

TEST(TwinGovernor, MakesTheServicesAdmissionDecisions) {
  namespace svc = aegis::service;
  const aegis::core::Aegis engine(aegis::isa::CpuModel::kAmdEpyc7252);
  std::vector<std::unique_ptr<aegis::workload::Workload>> secrets;
  for (std::size_t site = 0; site < 2; ++site) {
    secrets.push_back(std::make_unique<aegis::workload::WebsiteWorkload>(site, 40));
  }
  aegis::core::OfflineConfig offline = aegis::core::make_quick_offline_config(11, 2);
  offline.fuzz_top_events = 4;
  aegis::dp::MechanismConfig laplace;
  laplace.kind = aegis::dp::MechanismKind::kLaplace;
  laplace.epsilon = 0.05;

  svc::ServiceConfig config;
  config.num_threads = 2;
  config.batch_size = 4;
  svc::ProtectionService service(config);
  const std::size_t tpl = service.register_template(engine, *secrets[0], secrets,
                                                    offline, laplace);
  TwinGovernor twin(service.governor().config());
  // Tenant 0 is refused after a few windows, tenant 1 degrades, tenant 2
  // never runs short.
  const double caps[] = {1.5, 4.0, 1e9};
  for (std::uint64_t t = 0; t < 3; ++t) {
    service.set_tenant_cap(t, caps[t]);
    twin.governor.set_tenant_cap(t, caps[t]);
  }
  std::vector<svc::SessionRequest> requests;
  for (std::size_t i = 0; i < 45; ++i) {
    svc::SessionRequest r;
    r.tenant_id = i % 3;
    r.seed = 1000 + i;
    r.application = secrets[i % 2].get();
    r.slices = 10;
    r.per_slice_epsilon = 0.05;
    requests.push_back(r);
    ASSERT_TRUE(service.submit({tpl, r}));
  }
  service.drain();
  std::map<std::uint64_t, std::vector<svc::SessionResult>> by_tenant;
  for (auto& done : service.take_completed()) {
    by_tenant[done.result.tenant_id].push_back(std::move(done.result));
  }
  std::map<std::uint64_t, std::size_t> cursor;
  std::map<svc::Admission, std::size_t> outcomes;
  for (const svc::SessionRequest& r : requests) {
    const svc::AdmissionDecision d =
        twin.governor.request_window(r.tenant_id, r.slices, r.per_slice_epsilon);
    const svc::SessionResult& got = by_tenant[r.tenant_id].at(cursor[r.tenant_id]++);
    EXPECT_EQ(d.outcome, got.outcome);
    EXPECT_EQ(d.epsilon_after, got.epsilon_after);
    if (d.outcome != svc::Admission::kRefuse) {
      EXPECT_EQ(d.granularity, got.granularity);
    }
    ++outcomes[d.outcome];
  }
  // The caps exercise every admission path.
  EXPECT_GT(outcomes[svc::Admission::kAdmit], 0u);
  EXPECT_GT(outcomes[svc::Admission::kDegrade], 0u);
  EXPECT_GT(outcomes[svc::Admission::kRefuse], 0u);
}

}  // namespace
}  // namespace perfbench
