#include <gtest/gtest.h>

#include <cstring>

#include "dp/accountant.hpp"
#include "fuzzer/set_cover.hpp"
#include "obf/injector.hpp"
#include "obf/rotating_plan.hpp"
#include "obf/kernel_controller.hpp"
#include "obf/noise_calculator.hpp"
#include "obf/obfuscator.hpp"
#include "util/stats.hpp"
#include "workload/website.hpp"

namespace aegis::obf {
namespace {

using isa::CpuModel;
using isa::InstructionClass;

struct Fixture {
  pmu::EventDatabase db = pmu::EventDatabase::generate(CpuModel::kAmdEpyc7252);
  isa::IsaSpecification spec =
      isa::IsaSpecification::generate(CpuModel::kAmdEpyc7252);

  std::uint32_t find_variant(InstructionClass iclass, bool mem = false) const {
    for (const auto& v : spec.variants()) {
      if (v.legal() && v.iclass == iclass && v.has_memory_operand == mem) {
        return v.uid;
      }
    }
    throw std::runtime_error("variant not found");
  }

  /// A small hand-made cover: nop+div (uops), clflush+load (cache misses).
  fuzzer::GadgetCover make_cover() const {
    fuzzer::GadgetCover cover;
    cover.gadgets = {
        {find_variant(InstructionClass::kNop),
         find_variant(InstructionClass::kIntDiv, true)},
        {find_variant(InstructionClass::kCacheFlush, true),
         find_variant(InstructionClass::kLoad, true)},
    };
    const std::uint32_t uops = *db.find("RETIRED_UOPS");
    const std::uint32_t refills = *db.find("DATA_CACHE_REFILLS_FROM_SYSTEM");
    cover.covered_events = {uops, refills};
    cover.segment_effect = {{uops, 14.0}, {refills, 1.0}};
    return cover;
  }
};

TEST(NoiseCalculator, LaplaceMatchesDistribution) {
  dp::MechanismConfig config;
  config.kind = dp::MechanismKind::kLaplace;
  config.epsilon = 0.5;
  config.seed = 1;
  NoiseCalculator calc(config);
  std::vector<double> noise;
  for (int i = 0; i < 50000; ++i) noise.push_back(calc.noise_for(0.0));
  EXPECT_NEAR(util::mean(noise), 0.0, 0.06);
  // Lap(2) variance = 8.
  EXPECT_NEAR(util::variance(noise), 8.0, 0.6);
}

TEST(NoiseCalculator, LaplaceStreamMatchesRngDrawForDraw) {
  // The calculator's Laplace noise is exactly the util::Rng stream seeded
  // with seed ^ 0xCA1C, in order. 5,000 draws cross 4,096, a typical batch
  // size, so buffering that reorders or skips draws at a refill fails here.
  dp::MechanismConfig config;
  config.kind = dp::MechanismKind::kLaplace;
  config.epsilon = 0.05;
  config.sensitivity = 1.5;
  config.seed = 0x5EEDULL;
  NoiseCalculator calc(config);
  util::Rng reference(config.seed ^ 0xCA1CULL);
  const double scale = config.sensitivity / config.epsilon;
  for (int i = 0; i < 5000; ++i) {
    const double expected = reference.laplace(0.0, scale);
    const double got = calc.noise_for(static_cast<double>(i));
    ASSERT_EQ(std::memcmp(&expected, &got, sizeof got), 0) << "draw " << i;
  }
}

TEST(NoiseCalculator, SuccessiveDrawsStayFreshPast4096Draws) {
  dp::MechanismConfig config;
  config.kind = dp::MechanismKind::kLaplace;
  config.epsilon = 1.0;
  NoiseCalculator calc(config);
  std::vector<double> draws;
  for (int i = 0; i < 4200; ++i) draws.push_back(calc.noise_for(0.0));
  // No draw repeats its predecessor, including 4,095 -> 4,096 where a
  // 4,096-entry buffer would wrap.
  for (std::size_t i = 1; i < draws.size(); ++i) {
    ASSERT_NE(draws[i], draws[i - 1]) << "draw " << i;
  }
  // The draws past the boundary are new values, not a replay of the start.
  const std::vector<double> tail(draws.begin() + 4096, draws.end());
  const std::vector<double> head(draws.begin(),
                                 draws.begin() + static_cast<std::ptrdiff_t>(tail.size()));
  EXPECT_NE(head, tail);
  EXPECT_GT(util::stddev(tail), 0.5);
  EXPECT_GT(util::stddev(draws), 0.5);
}

TEST(NoiseCalculator, DStarUsesObservations) {
  dp::MechanismConfig config;
  config.kind = dp::MechanismKind::kDStar;
  config.epsilon = 1e6;  // negligible noise: output tracks reconstruction
  NoiseCalculator calc(config);
  // Rising series: with near-zero noise the noise_for values stay ~0
  // (noisy_value tracks x).
  for (int t = 1; t <= 32; ++t) {
    EXPECT_NEAR(calc.noise_for(static_cast<double>(t)), 0.0, 1e-3);
  }
  calc.reset_series();
  EXPECT_NEAR(calc.noise_for(100.0), 0.0, 1e-3);
}

TEST(KernelController, SamplesAndQueues) {
  Fixture f;
  const std::uint32_t uops = *f.db.find("RETIRED_UOPS");
  KernelController controller(f.db, uops, 100.0);
  sim::VirtualMachine vm(sim::VmConfig{}, 1);
  sim::InstructionBlock b;
  b.uops = 5000;
  vm.submit(b);
  (void)vm.run_slice();
  controller.sample(vm);
  EXPECT_EQ(controller.queued(), 1u);
  // 5000 uops (plus interrupt handler uops) normalized by 100.
  const double x = controller.dequeue();
  EXPECT_GT(x, 40.0);
  EXPECT_LT(x, 80.0);
  EXPECT_EQ(controller.queued(), 0u);
  EXPECT_EQ(controller.dequeue(), 0.0);  // empty channel
}

TEST(Injector, BuildsStackedSegment) {
  Fixture f;
  NoiseInjector injector(f.spec, f.make_cover(), 10.0, 6.0);
  EXPECT_EQ(injector.segment_gadgets(), 2u);
  const auto& segment = injector.segment_block();
  EXPECT_GT(segment.uops, 0.0);
  EXPECT_GT(segment.read_bytes, 0.0);   // the load trigger
  EXPECT_GT(segment.flush_bytes, 0.0);  // the clflush reset
}

TEST(Injector, RejectsEmptyCover) {
  Fixture f;
  EXPECT_THROW(NoiseInjector(f.spec, fuzzer::GadgetCover{}, 1.0, 1.0),
               std::invalid_argument);
}

TEST(Injector, NegativeNoiseInjectsNothing) {
  Fixture f;
  NoiseInjector injector(f.spec, f.make_cover(), 10.0, 6.0);
  sim::VirtualMachine vm(sim::VmConfig{}, 2);
  EXPECT_DOUBLE_EQ(injector.inject(vm, -3.0), 0.0);
  EXPECT_FALSE(vm.pending());
  EXPECT_DOUBLE_EQ(injector.total_repetitions(), 0.0);
}

TEST(Injector, ClipsAtUpperBound) {
  Fixture f;
  NoiseInjector injector(f.spec, f.make_cover(), 10.0, 2.0);
  sim::VirtualMachine vm(sim::VmConfig{}, 3);
  // noise 100 >> clip 2: injected reps = 2 * 10.
  EXPECT_DOUBLE_EQ(injector.inject(vm, 100.0), 20.0);
}

TEST(Injector, RepsScaleWithNoise) {
  Fixture f;
  NoiseInjector injector(f.spec, f.make_cover(), 10.0, 100.0);
  sim::VirtualMachine vm(sim::VmConfig{}, 4);
  EXPECT_DOUBLE_EQ(injector.inject(vm, 1.5), 15.0);
  EXPECT_DOUBLE_EQ(injector.inject(vm, 3.0), 30.0);
  EXPECT_DOUBLE_EQ(injector.total_repetitions(), 45.0);
  EXPECT_TRUE(vm.pending());
}

TEST(Injector, LargeInjectionsAreChunked) {
  Fixture f;
  NoiseInjector injector(f.spec, f.make_cover(), 1e4, 1e9);
  sim::VirtualMachine vm(sim::VmConfig{}, 5);
  (void)injector.inject(vm, 10.0);  // 1e5 reps: far beyond one chunk
  // Multiple queued blocks rather than one monolith.
  int slices = 0;
  while (vm.pending() && slices < 10000) {
    (void)vm.run_slice();
    ++slices;
  }
  EXPECT_GT(slices, 1);
}

TEST(Obfuscator, SessionInjectsIntoVm) {
  Fixture f;
  ObfuscatorConfig config;
  config.mechanism.kind = dp::MechanismKind::kLaplace;
  config.mechanism.epsilon = 1.0;
  config.reference_event = *f.db.find("RETIRED_UOPS");
  config.reference_sigma = 1000.0;
  config.unit_reps = 50.0;
  config.seed = 6;
  EventObfuscator obf(f.db, f.spec, f.make_cover(), config);
  EXPECT_DOUBLE_EQ(obf.total_injected_repetitions(), 0.0);

  sim::VirtualMachine vm(sim::VmConfig{}, 7);
  auto agent = obf.session();
  for (std::size_t t = 0; t < 100; ++t) {
    agent(vm, t);
    (void)vm.run_slice();
  }
  EXPECT_EQ(obf.sessions_started(), 1u);
  // Laplace(1) noise, positive half injected: ~0.5 * unit_reps per slice.
  EXPECT_GT(obf.total_injected_repetitions(), 100.0);
  EXPECT_GT(obf.total_injected_reference_counts(),
            obf.total_injected_repetitions());  // delta 14 on RETIRED_UOPS
}

TEST(Obfuscator, DefenseInflatesMonitoredCounts) {
  Fixture f;
  ObfuscatorConfig config;
  config.mechanism.kind = dp::MechanismKind::kLaplace;
  config.mechanism.epsilon = 0.5;
  config.reference_event = *f.db.find("RETIRED_UOPS");
  config.reference_sigma = 1000.0;
  config.unit_reps = 100.0;
  config.seed = 8;
  EventObfuscator obf(f.db, f.spec, f.make_cover(), config);

  const std::uint32_t uops = *f.db.find("RETIRED_UOPS");
  workload::WebsiteWorkload site(0, 150);
  auto run_total = [&](const sim::SliceAgent& agent) {
    sim::VirtualMachine vm(sim::VmConfig{}, 9);
    sim::HostMonitor monitor(f.db, 10);
    const auto result = monitor.monitor(vm, site.visit(55), {uops}, 150, agent);
    double total = 0.0;
    for (const auto& row : result.samples) total += row[0];
    return total;
  };
  const double clean = run_total(nullptr);
  const double defended = run_total(obf.session());
  EXPECT_GT(defended, clean * 1.05);
}

TEST(Obfuscator, SessionsAreIndependentSeries) {
  Fixture f;
  ObfuscatorConfig config;
  config.mechanism.kind = dp::MechanismKind::kDStar;
  config.mechanism.epsilon = 1.0;
  config.reference_event = *f.db.find("RETIRED_UOPS");
  config.reference_sigma = 1000.0;
  config.unit_reps = 10.0;
  config.seed = 11;
  EventObfuscator obf(f.db, f.spec, f.make_cover(), config);
  auto a = obf.session();
  auto b = obf.session();
  EXPECT_EQ(obf.sessions_started(), 2u);
  sim::VirtualMachine vm_a(sim::VmConfig{}, 12), vm_b(sim::VmConfig{}, 12);
  // Both sessions run without interference (separate mechanism state).
  for (std::size_t t = 0; t < 20; ++t) {
    a(vm_a, t);
    b(vm_b, t);
    (void)vm_a.run_slice();
    (void)vm_b.run_slice();
  }
  EXPECT_GT(obf.total_injected_repetitions(), 0.0);
}

TEST(Calibration, ComputesSpreadAcrossSecrets) {
  Fixture f;
  std::vector<std::unique_ptr<workload::Workload>> secrets;
  secrets.push_back(std::make_unique<workload::WebsiteWorkload>(0, 120));
  secrets.push_back(std::make_unique<workload::WebsiteWorkload>(1, 120));
  const std::uint32_t uops = *f.db.find("RETIRED_UOPS");
  const std::uint32_t ls = *f.db.find("LS_DISPATCH");
  const auto cals = calibrate_events(f.db, {uops, ls}, secrets, 2, 13);
  ASSERT_EQ(cals.size(), 2u);
  for (const auto& cal : cals) {
    EXPECT_GT(cal.stddev, 0.0);
    EXPECT_GT(cal.mean, 0.0);
    EXPECT_GE(cal.peak, cal.mean);
  }
  EXPECT_EQ(cals[0].event_id, uops);
  EXPECT_EQ(cals[1].event_id, ls);
}

TEST(RotatingPlan, ScheduleIsPeriodicAndCoversEveryVariant) {
  Fixture f;
  std::vector<WeightedGadget> base;
  for (const auto& g : f.make_cover().gadgets) base.push_back({g, 1.0});
  RotatingPlanConfig config;
  config.variants = 3;
  config.period = 8;
  config.seed = 17;
  const RotatingPlan plan(base, config);
  EXPECT_EQ(plan.variants(), 3u);
  EXPECT_EQ(plan.period(), 8u);
  std::vector<bool> seen(plan.variants(), false);
  for (std::size_t t = 0; t < 3 * 8; ++t) {
    const std::size_t v = plan.variant_at(t);
    ASSERT_LT(v, plan.variants());
    seen[v] = true;
    // Constant within a period window.
    EXPECT_EQ(v, plan.variant_at((t / 8) * 8));
  }
  for (bool s : seen) EXPECT_TRUE(s);
  // Deterministic: same base + config -> same schedule.
  const RotatingPlan replay(base, config);
  for (std::size_t t = 0; t < 64; ++t) {
    EXPECT_EQ(plan.variant_at(t), replay.variant_at(t));
  }
}

TEST(RotatingPlan, VariantsKeepGadgetListButVaryWeights) {
  Fixture f;
  std::vector<WeightedGadget> base;
  for (const auto& g : f.make_cover().gadgets) base.push_back({g, 1.0});
  RotatingPlanConfig config;
  config.variants = 2;
  const RotatingPlan plan(base, config);
  bool weights_differ = false;
  for (std::size_t v = 0; v < plan.variants(); ++v) {
    const auto& segment = plan.segment(v);
    // Same gadget streams in the same order: rotation must never change
    // the stream count (that is what keeps it privacy-neutral).
    ASSERT_EQ(segment.size(), base.size());
    for (std::size_t g = 0; g < segment.size(); ++g) {
      EXPECT_EQ(segment[g].gadget, base[g].gadget);
      EXPECT_GE(segment[g].weight, base[g].weight);
      if (segment[g].weight != plan.segment(0)[g].weight) {
        weights_differ = true;
      }
    }
  }
  EXPECT_TRUE(weights_differ);
}

TEST(RotatingPlan, RejectsEmptyBase) {
  EXPECT_THROW(RotatingPlan({}, RotatingPlanConfig{}), std::invalid_argument);
}

TEST(Obfuscator, RotationIsPrivacyNeutral) {
  // The ISSUE's property: a rotating plan spends exactly the same privacy
  // budget per monitoring window as the fixed plan. Rotation changes WHICH
  // gadget weights realize the noise, never how many DP releases are drawn,
  // so the accountant's totals must be equal, not merely close.
  Fixture f;
  ObfuscatorConfig config;
  config.mechanism.kind = dp::MechanismKind::kLaplace;
  config.mechanism.epsilon = 0.5;
  config.reference_event = *f.db.find("RETIRED_UOPS");
  config.reference_sigma = 100.0;
  config.unit_reps = 10.0;
  config.seed = 21;
  EventObfuscator fixed(f.db, f.spec, f.make_cover(), config);
  config.rotate = true;
  config.rotation.variants = 3;
  config.rotation.period = 8;
  EventObfuscator rotating(f.db, f.spec, f.make_cover(), config);

  auto drive = [](EventObfuscator& obf) {
    sim::VirtualMachine vm(sim::VmConfig{}, 3);
    const sim::SliceAgent agent = obf.session();
    for (std::size_t t = 0; t < 64; ++t) {
      agent(vm, t);
      (void)vm.run_slice();
    }
  };
  drive(fixed);
  drive(rotating);

  ASSERT_GT(fixed.total_noise_draws(), 0u);
  EXPECT_EQ(fixed.total_noise_draws(), rotating.total_noise_draws());
  EXPECT_GT(rotating.total_injected_repetitions(), 0.0);

  dp::PrivacyAccountant fixed_budget, rotating_budget;
  fixed_budget.record_releases(config.mechanism.epsilon,
                               fixed.total_noise_draws());
  rotating_budget.record_releases(config.mechanism.epsilon,
                                  rotating.total_noise_draws());
  EXPECT_DOUBLE_EQ(fixed_budget.basic_epsilon(),
                   rotating_budget.basic_epsilon());
  EXPECT_DOUBLE_EQ(fixed_budget.advanced_epsilon(1e-6),
                   rotating_budget.advanced_epsilon(1e-6));
}

}  // namespace
}  // namespace aegis::obf
