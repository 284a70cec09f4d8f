// Adaptive grouping tests: pin the exact plan (digest + bank census) for
// both vendors' vulnerable-event sets, and prove the acceptance claim —
// adaptive_grouping needs STRICTLY fewer multiplexing slices than the
// naive ceil(n/4) rotation on both vendors.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <sstream>
#include <vector>

#include "pmu/backend/grouping.hpp"
#include "pmu/backend/backend.hpp"

namespace aegis::pmu::backend {
namespace {

using isa::CpuModel;

struct Golden {
  CpuModel model;
  std::size_t vulnerable;
  std::size_t adaptive;
  std::size_t naive;
  std::uint64_t digest;
};

constexpr Golden kGoldens[] = {
    {CpuModel::kAmdEpyc7252, 137, 28, 35, 0xb52b9774869fac4bULL},
    {CpuModel::kAmdEpyc7313P, 137, 28, 35, 0xb52b9774869fac4bULL},
    {CpuModel::kIntelXeonE5_1650, 739, 140, 185, 0x534e59adfc021a52ULL},
    {CpuModel::kIntelXeonE5_4617, 739, 140, 185, 0xc8ad448f8ecae7beULL},
};

TEST(Grouping, GoldenPlansBothVendors) {
  for (const Golden& g : kGoldens) {
    const PmuBackend& b = backend_for(g.model);
    const std::vector<std::uint32_t> vuln = vulnerable_events(b);
    EXPECT_EQ(vuln.size(), g.vulnerable) << b.id();
    const GroupingPlan plan = adaptive_grouping(b, vuln);
    EXPECT_EQ(plan.total_events, g.vulnerable);
    EXPECT_EQ(plan.multiplex_slices(), g.adaptive) << b.id();
    EXPECT_EQ(naive_slices(vuln.size()), g.naive);
    EXPECT_EQ(plan.digest(), g.digest)
        << b.id() << ": packing changed; re-baseline deliberately";
  }
}

// The acceptance bar: strictly fewer slices than ceil(n/4), both vendors.
TEST(Grouping, AdaptiveBeatsNaiveStrictlyOnBothVendors) {
  for (const Golden& g : kGoldens) {
    const PmuBackend& b = backend_for(g.model);
    const auto vuln = vulnerable_events(b);
    EXPECT_LT(adaptive_grouping(b, vuln).multiplex_slices(),
              naive_slices(vuln.size()))
        << b.id();
  }
}

TEST(Grouping, AmdBankCensus) {
  const PmuBackend& b = backend_for(CpuModel::kAmdEpyc7252);
  const GroupingPlan plan = adaptive_grouping(b, vulnerable_events(b));
  std::size_t groups[4] = {0, 0, 0, 0};
  std::size_t events[4] = {0, 0, 0, 0};
  for (const CounterGroup& g : plan.groups) {
    const auto bank = static_cast<std::size_t>(g.bank);
    ++groups[bank];
    events[bank] += g.events.size();
    EXPECT_TRUE(std::is_sorted(g.events.begin(), g.events.end()));
    EXPECT_FALSE(g.events.empty());
  }
  EXPECT_EQ(groups[0], 1u);    // fixed bank
  EXPECT_EQ(events[0], 2u);    // IRPERF + APERF
  EXPECT_EQ(groups[1], 1u);    // kernel bank
  EXPECT_EQ(events[1], 26u);   // software/tracepoint/probe survivors
  EXPECT_EQ(groups[2], 28u);   // core groups of <= 4
  EXPECT_EQ(events[2], 109u);
  EXPECT_EQ(groups[3], 0u);    // no uncore events survive warm-up
  EXPECT_EQ(plan.core_groups, 28u);
  EXPECT_EQ(plan.uncore_groups, 0u);
  for (const CounterGroup& g : plan.groups) {
    if (g.bank == CounterBank::kCore) {
      EXPECT_LE(g.events.size(), b.counter_budget());
    }
  }
}

TEST(Grouping, PlanIsAPureFunctionOfTheEventSet) {
  const PmuBackend& b = backend_for(CpuModel::kIntelXeonE5_1650);
  std::vector<std::uint32_t> vuln = vulnerable_events(b);
  const GroupingPlan baseline = adaptive_grouping(b, vuln);

  // Reversed order, plus every event duplicated: same plan, same digest.
  std::vector<std::uint32_t> scrambled(vuln.rbegin(), vuln.rend());
  scrambled.insert(scrambled.end(), vuln.begin(), vuln.end());
  const GroupingPlan again = adaptive_grouping(b, scrambled);
  EXPECT_EQ(again.digest(), baseline.digest());
  EXPECT_EQ(again.total_events, baseline.total_events);
  EXPECT_EQ(again.multiplex_slices(), baseline.multiplex_slices());
}

TEST(Grouping, EveryRequestedEventLandsInExactlyOneGroup) {
  for (const Golden& g : kGoldens) {
    const PmuBackend& b = backend_for(g.model);
    const auto vuln = vulnerable_events(b);
    const GroupingPlan plan = adaptive_grouping(b, vuln);
    std::set<std::uint32_t> placed;
    for (const CounterGroup& grp : plan.groups) {
      for (std::uint32_t id : grp.events) {
        EXPECT_TRUE(placed.insert(id).second) << "duplicate id " << id;
      }
    }
    EXPECT_EQ(placed,
              std::set<std::uint32_t>(vuln.begin(), vuln.end()));
  }
}

TEST(Grouping, EmptySetNeedsNoSlices) {
  const PmuBackend& b = backend_for(CpuModel::kAmdEpyc7252);
  const GroupingPlan plan = adaptive_grouping(b, {});
  EXPECT_TRUE(plan.groups.empty());
  EXPECT_EQ(plan.total_events, 0u);
  EXPECT_EQ(plan.multiplex_slices(), 0u);
  EXPECT_EQ(naive_slices(0), 0u);
}

TEST(Grouping, SingleEventStillCostsOneSlice) {
  const PmuBackend& b = backend_for(CpuModel::kAmdEpyc7252);
  const auto id = b.database().find("RETIRED_UOPS");
  ASSERT_TRUE(id.has_value());
  const GroupingPlan plan = adaptive_grouping(b, {*id});
  EXPECT_EQ(plan.multiplex_slices(), 1u);
}

TEST(Grouping, ReportCarriesTheGoldenNumbers) {
  const PmuBackend& b = backend_for(CpuModel::kAmdEpyc7252);
  std::ostringstream os;
  write_grouping_report(b, os);
  const std::string report = os.str();
  EXPECT_NE(report.find("\"bench\": \"adaptive_grouping\""),
            std::string::npos);
  EXPECT_NE(report.find("\"backend\": \"amd-zen2\""), std::string::npos);
  EXPECT_NE(report.find("\"cpu_model\": \"AmdEpyc7252\""),
            std::string::npos);
  EXPECT_NE(report.find("\"adaptive_slices\": 28"), std::string::npos);
  EXPECT_NE(report.find("\"naive_slices\": 35"), std::string::npos);
  EXPECT_NE(report.find("b52b9774869fac4b"), std::string::npos);
}

}  // namespace
}  // namespace aegis::pmu::backend
