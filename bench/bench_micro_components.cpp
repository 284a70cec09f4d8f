// Micro-benchmarks (google-benchmark) for the performance-critical pieces:
//   * Laplace sampling — the paper's noise calculator draws with the direct
//     uniform->Laplace transform because per-draw library APIs are too slow
//     for high injection rates (Section VII-C);
//   * gadget execution throughput in the fuzzing harness (Table III's
//     generation+execution step dominates the fuzz);
//   * VM slice execution and mechanism stepping.
#include <benchmark/benchmark.h>

#include <random>

#include "dp/dstar.hpp"
#include "dp/laplace.hpp"
#include "fuzzer/parallel_campaign.hpp"
#include "obf/noise_calculator.hpp"
#include "pmu/backend/backend.hpp"
#include "sim/gadget_runner.hpp"
#include "sim/virtual_machine.hpp"
#include "util/thread_pool.hpp"
#include "workload/website.hpp"

using namespace aegis;

namespace {

void BM_LaplaceInverseCdf(benchmark::State& state) {
  // One on-demand draw through the noise calculator: the direct inverse-CDF
  // transform of a single uniform.
  dp::MechanismConfig config;
  config.kind = dp::MechanismKind::kLaplace;
  config.epsilon = 1.0;
  obf::NoiseCalculator calc(config);
  for (auto _ : state) {
    benchmark::DoNotOptimize(calc.noise_for(0.0));
  }
}
BENCHMARK(BM_LaplaceInverseCdf);

void BM_LaplaceStdLibraryApi(benchmark::State& state) {
  // The comparison point: composing std::exponential_distribution draws per
  // sample, as a library-API implementation would.
  // aegis-lint: random-ok(benchmark-only comparison point; fixed seed)
  std::mt19937_64 engine(1);
  std::exponential_distribution<double> expo(1.0);
  std::bernoulli_distribution sign(0.5);
  for (auto _ : state) {
    const double mag = expo(engine);
    benchmark::DoNotOptimize(sign(engine) ? mag : -mag);
  }
}
BENCHMARK(BM_LaplaceStdLibraryApi);

void BM_DStarStep(benchmark::State& state) {
  dp::DStarMechanism mech(1.0, 2);
  double x = 0.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(mech.noisy_value(x));
    x += 1.0;
    if (x > 4096.0) {
      state.PauseTiming();
      mech.reset();
      x = 0.0;
      state.ResumeTiming();
    }
  }
}
BENCHMARK(BM_DStarStep);

void BM_GadgetExecution(benchmark::State& state) {
  const auto& db = pmu::backend::backend_for(isa::CpuModel::kAmdEpyc7252).database();
  const auto spec = isa::IsaSpecification::generate(isa::CpuModel::kAmdEpyc7252);
  sim::GadgetRunner runner(db, spec, 3);
  std::vector<std::uint32_t> events;
  for (auto name : pmu::kAmdAttackEvents) events.push_back(*db.find(name));
  runner.program(events);
  std::vector<std::uint32_t> gadget;
  for (const auto& v : spec.variants()) {
    if (v.legal() && gadget.size() < 2) gadget.push_back(v.uid);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(runner.execute_once(gadget, 16.0));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_GadgetExecution);

void BM_VmSliceWithWorkload(benchmark::State& state) {
  const workload::WebsiteWorkload site(0, 300);
  sim::VirtualMachine vm(sim::VmConfig{}, 4);
  auto source = site.visit(9);
  std::size_t t = 0;
  for (auto _ : state) {
    for (auto& b : source(t % 300)) vm.submit(std::move(b));
    benchmark::DoNotOptimize(vm.run_slice());
    ++t;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_VmSliceWithWorkload);

void BM_ThreadPoolParallelForOverhead(benchmark::State& state) {
  // Dispatch + join cost of an empty index-space job: the floor under
  // which sharding a campaign stage cannot pay off.
  util::ThreadPool pool(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    pool.parallel_for(64, [](std::size_t) {});
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_ThreadPoolParallelForOverhead)->Arg(1)->Arg(2)->Arg(4);

void BM_ParallelGenerationStep(benchmark::State& state) {
  // The fuzzer's dominant stage (Table III generation+execution) through
  // the sharded campaign engine at 1/2/4 workers. Work-stealing keeps the
  // shards balanced; the output is identical at every worker count.
  const auto& db = pmu::backend::backend_for(isa::CpuModel::kAmdEpyc7252).database();
  const auto spec = isa::IsaSpecification::generate(isa::CpuModel::kAmdEpyc7252);
  fuzzer::FuzzerConfig config;
  config.num_threads = static_cast<std::size_t>(state.range(0));
  std::vector<std::uint32_t> events;
  for (auto name : pmu::kAmdAttackEvents) events.push_back(*db.find(name));
  std::vector<std::uint32_t> legal;
  for (const auto& v : spec.variants()) {
    if (v.legal() && legal.size() < 16) legal.push_back(v.uid);
  }
  util::ThreadPool pool(config.num_threads);
  fuzzer::ParallelCampaign campaign(db, spec, config, pool);
  for (auto _ : state) {
    benchmark::DoNotOptimize(campaign.generate(events, legal, legal));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(legal.size() * legal.size()));
}
BENCHMARK(BM_ParallelGenerationStep)->Arg(1)->Arg(2)->Arg(4)
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
