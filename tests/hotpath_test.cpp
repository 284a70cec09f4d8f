// Hot-path engine proof obligations (see DESIGN.md "PMU hot path"):
//   * legacy-vs-batched equivalence — a seed-7 fuzzing shard and a profiler
//     ranking run through both CounterRegisterFile engines must produce
//     bit-identical counter values and the identical EventRank order;
//   * steady-state GadgetRunner::execute_once performs zero heap
//     allocations (instrumented global allocator);
//   * perf smoke — the batched engine must not be slower than the retained
//     reference implementation on the 1903-event sweep shape.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include "fuzzer/fuzzer.hpp"
#include "pmu/counter_file.hpp"
#include "pmu/backend/backend.hpp"
#include "pmu/event_database.hpp"
#include "pmu/response_matrix.hpp"
#include "pmu/simd_dispatch.hpp"
#include "profiler/profiler.hpp"
#include "sim/gadget_runner.hpp"
#include "workload/website.hpp"

// ---------------------------------------------------------------------------
// Instrumented allocator: counts every global operator new so tests can
// assert an allocation-free window. Disabled under sanitizers, whose
// runtimes own the allocator.

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define AEGIS_ALLOC_HOOK 0
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define AEGIS_ALLOC_HOOK 0
#else
#define AEGIS_ALLOC_HOOK 1
#endif
#else
#define AEGIS_ALLOC_HOOK 1
#endif

#if AEGIS_ALLOC_HOOK

namespace {
std::atomic<std::uint64_t> g_allocation_count{0};

void* counted_alloc(std::size_t size) {
  g_allocation_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void* counted_aligned_alloc(std::size_t size, std::align_val_t align) {
  g_allocation_count.fetch_add(1, std::memory_order_relaxed);
  const std::size_t a = static_cast<std::size_t>(align);
  if (void* p = std::aligned_alloc(a, (size + a - 1) / a * a)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

#endif  // AEGIS_ALLOC_HOOK

namespace aegis {
namespace {

using pmu::AccumulateEngine;
using pmu::CounterRegisterFile;
namespace simd = pmu::simd;

/// Flips the process-wide default engine for a scope; campaigns construct
/// their register files internally, so this is how whole runs are steered
/// through one engine or the other.
class EngineGuard {
 public:
  explicit EngineGuard(AccumulateEngine engine) {
    CounterRegisterFile::set_default_engine(engine);
  }
  ~EngineGuard() {
    CounterRegisterFile::set_default_engine(AccumulateEngine::kBatched);
  }
};

struct Fixture {
  // Pinned to the AMD backend: hot-path goldens are AMD bit-identity
  // checks and must not follow AEGIS_CPU.
  const pmu::backend::PmuBackend& backend =
      pmu::backend::backend_for(isa::CpuModel::kAmdEpyc7252);
  const pmu::EventDatabase& db = backend.database();
  isa::IsaSpecification spec =
      isa::IsaSpecification::generate(isa::CpuModel::kAmdEpyc7252);

  std::vector<std::uint32_t> events() const {
    std::vector<std::uint32_t> ids = backend.attack_events();
    ids.push_back(*db.find("RETIRED_BRANCH_INSTRUCTIONS"));
    ids.push_back(*db.find("RETIRED_MMX_FP_INSTRUCTIONS:SSE_INSTR"));
    return ids;
  }
};

pmu::ExecutionStats busy_stats() {
  pmu::ExecutionStats stats;
  for (std::size_t i = 0; i < stats.class_counts.size(); ++i) {
    stats.class_counts.at_index(i) = 10.0 + static_cast<double>(i);
  }
  stats.uops = 1200.0;
  stats.l1_misses = 7.0;
  stats.llc_misses = 2.0;
  stats.l1_writes = 40.0;
  stats.branch_mispredicts = 3.0;
  stats.mem_reads = 220.0;
  stats.mem_writes = 90.0;
  stats.interrupts = 1.0;
  stats.cycles = 4000.0;
  return stats;
}

// ---------------------------------------------------------------------------
// Feature flattening layout.

TEST(ResponseMatrix, FlattenMatchesExpectedCountTermOrder) {
  const pmu::ExecutionStats stats = busy_stats();
  std::array<double, pmu::kStatsFeatureDim> f{};
  pmu::flatten_stats(stats, f.data());
  constexpr std::size_t k = isa::kNumInstructionClasses;
  for (std::size_t i = 0; i < k; ++i) {
    EXPECT_EQ(f[i], stats.class_counts.at_index(i)) << i;
  }
  EXPECT_EQ(f[k + 0], stats.uops);
  EXPECT_EQ(f[k + 1], stats.l1_misses);
  EXPECT_EQ(f[k + 2], stats.llc_misses);
  EXPECT_EQ(f[k + 3], stats.l1_writes);
  EXPECT_EQ(f[k + 4], stats.branch_mispredicts);
  EXPECT_EQ(f[k + 5], stats.mem_reads);
  EXPECT_EQ(f[k + 6], stats.mem_writes);
  EXPECT_EQ(f[k + 7], stats.cycles);
  EXPECT_EQ(f[k + 8], stats.interrupts);
}

// Golden layout: hardcoded sentinel values pin the exact feature index of
// every ExecutionStats field. The blocked-sparse group layout and
// EventResponse::expected_count both assume this order;
// a silent reorder (enum edit, flatten_stats refactor) would scramble the
// coefficient columns without failing any equivalence test, because both
// engines would be wrong identically. This test fails instead.
TEST(ResponseMatrix, FlattenStatsGoldenLayout) {
  ASSERT_EQ(isa::kNumInstructionClasses, 25u);
  ASSERT_EQ(pmu::kStatsFeatureDim, 34u);
  pmu::ExecutionStats stats;
  for (std::size_t i = 0; i < stats.class_counts.size(); ++i) {
    stats.class_counts.at_index(i) = 100.0 + static_cast<double>(i);
  }
  stats.uops = 1000.0;
  stats.l1_misses = 1001.0;
  stats.llc_misses = 1002.0;
  stats.l1_writes = 1003.0;
  stats.branch_mispredicts = 1004.0;
  stats.mem_reads = 1005.0;
  stats.mem_writes = 1006.0;
  stats.cycles = 1007.0;
  stats.interrupts = 1008.0;

  std::array<double, pmu::kStatsFeatureDim> f{};
  pmu::flatten_stats(stats, f.data());

  // Class counts in enum order (nop, int_alu, ..., serialize, system),
  // then the scalars in expected_count's term order.
  const std::array<double, 34> golden = {
      100.0, 101.0, 102.0, 103.0, 104.0, 105.0, 106.0, 107.0, 108.0,
      109.0, 110.0, 111.0, 112.0, 113.0, 114.0, 115.0, 116.0, 117.0,
      118.0, 119.0, 120.0, 121.0, 122.0, 123.0, 124.0,
      1000.0,  // uops
      1001.0,  // l1_misses
      1002.0,  // llc_misses
      1003.0,  // l1_writes
      1004.0,  // branch_mispredicts
      1005.0,  // mem_reads
      1006.0,  // mem_writes
      1007.0,  // cycles
      1008.0,  // interrupts
  };
  for (std::size_t i = 0; i < golden.size(); ++i) {
    EXPECT_EQ(f[i], golden[i]) << "feature index " << i;
  }
}

// Dense reference for one row of the matrix: the row's sparse columns
// expanded back to a full kStatsFeatureDim coefficient vector and dotted
// with `f` in ascending feature order, unclamped. Pruned all-zero columns
// contribute exact zeros, so this is the sum the dense coefficient matrix
// used to produce.
double dense_row_sum(const pmu::ResponseMatrix& matrix, std::size_t row,
                     const double* f) {
  constexpr std::size_t kLanes = pmu::ResponseMatrix::kLanes;
  const pmu::ResponseMatrix::GroupView view = matrix.group_view(row / kLanes);
  std::array<double, pmu::kStatsFeatureDim> coeff{};
  for (std::size_t c = 0; c < view.cols; ++c) {
    coeff[view.col_feat[c]] = view.lane_coeff[kLanes * c + row % kLanes];
  }
  double acc = 0.0;
  for (std::size_t i = 0; i < coeff.size(); ++i) acc += coeff[i] * f[i];
  return acc;
}

// The blocked-sparse layout ResponseMatrix builds must hold exactly each
// EventResponse's coefficients: the clamped dense row sum equals
// expected_count bit-for-bit for every event of the full database.
TEST(ResponseMatrix, ExpectedIsBitIdenticalToEventResponse) {
  Fixture fix;
  std::vector<std::uint32_t> ids;
  for (std::uint32_t id = 0; id < fix.db.size(); ++id) ids.push_back(id);
  pmu::ResponseMatrix matrix;
  matrix.program(fix.db, ids);
  ASSERT_EQ(matrix.rows(), fix.db.size());

  const pmu::ExecutionStats stats = busy_stats();
  std::array<double, pmu::kStatsFeatureDim> f{};
  pmu::flatten_stats(stats, f.data());
  for (std::uint32_t id = 0; id < fix.db.size(); ++id) {
    const double reference = fix.db.by_id(id).response.expected_count(stats);
    const double sum = dense_row_sum(matrix, id, f.data());
    EXPECT_EQ(sum < 0.0 ? 0.0 : sum, reference) << "event " << id;
  }
}

// ---------------------------------------------------------------------------
// SIMD kernel differential: every group kernel (sparse scalar, AVX2,
// AVX-512) must reproduce the dense row sum bit-for-bit on every group of
// the full 1903-event matrix, and so (by the test above) expected_count.
// Unsupported ISAs are skipped (the CI scalar leg and non-AVX hosts still
// prove the scalar kernel).

TEST(SimdKernels, EveryGroupMatchesDenseExpectedOnAllIsas) {
  Fixture fix;
  std::vector<std::uint32_t> ids;
  for (std::uint32_t id = 0; id < fix.db.size(); ++id) ids.push_back(id);
  pmu::ResponseMatrix matrix;
  matrix.program(fix.db, ids);

  std::array<double, pmu::kStatsFeatureDim> f{};
  pmu::flatten_stats(busy_stats(), f.data());

  constexpr std::size_t kLanes = pmu::ResponseMatrix::kLanes;
  for (const simd::SimdIsa isa :
       {simd::SimdIsa::kScalar, simd::SimdIsa::kAvx2, simd::SimdIsa::kAvx512}) {
    if (!simd::supported(isa)) continue;
    const simd::ExpectedGroupFn kernel = simd::expected_group_kernel(isa);
    ASSERT_NE(kernel, nullptr);
    for (std::size_t g = 0; g < matrix.groups(); ++g) {
      const pmu::ResponseMatrix::GroupView view = matrix.group_view(g);
      alignas(32) double lanes[kLanes];
      kernel(view.lane_coeff, view.col_feat, view.cols, f.data(), lanes);
      for (std::size_t l = 0; l < kLanes; ++l) {
        const std::size_t row = g * kLanes + l;
        if (row >= matrix.rows()) {
          // Padded tail lanes carry all-zero coefficients.
          EXPECT_EQ(lanes[l], 0.0) << simd::to_string(isa) << " pad lane";
          continue;
        }
        EXPECT_EQ(lanes[l], dense_row_sum(matrix, row, f.data()))
            << simd::to_string(isa) << " row " << row;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Dispatch resolution: the engine decision is observable, made once, and
// degrades (never throws) when a pinned ISA is unavailable.

TEST(EngineDispatch, ResolvedIsaTracksEnginePins) {
  Fixture fix;
  CounterRegisterFile counters(fix.db, 1);
  counters.program({0, 1, 2, 3});

  counters.set_engine(AccumulateEngine::kReference);
  EXPECT_EQ(counters.resolved_isa(), simd::SimdIsa::kScalar);
  counters.set_engine(AccumulateEngine::kScalar);
  EXPECT_EQ(counters.resolved_isa(), simd::SimdIsa::kScalar);

  counters.set_engine(AccumulateEngine::kAvx2);
  EXPECT_EQ(counters.resolved_isa(), simd::supported(simd::SimdIsa::kAvx2)
                                         ? simd::SimdIsa::kAvx2
                                         : simd::SimdIsa::kScalar);
  counters.set_engine(AccumulateEngine::kAvx512);
  EXPECT_EQ(counters.resolved_isa(), simd::supported(simd::SimdIsa::kAvx512)
                                         ? simd::SimdIsa::kAvx512
                                         : simd::SimdIsa::kScalar);

  counters.set_engine(AccumulateEngine::kBatched);
  EXPECT_EQ(counters.resolved_isa(), simd::best_isa());

  // AEGIS_FORCE_SCALAR clamps everything, including explicit pins.
  if (simd::force_scalar_env()) {
    EXPECT_EQ(simd::best_isa(), simd::SimdIsa::kScalar);
    EXPECT_FALSE(simd::supported(simd::SimdIsa::kAvx2));
    EXPECT_FALSE(simd::supported(simd::SimdIsa::kAvx512));
  }
}

// ---------------------------------------------------------------------------
// Engine equivalence, unit level: identical RNG streams through both
// engines must yield bit-identical counters, multiplexed or not.

TEST(EngineEquivalence, CountersBitIdenticalAcrossEngines) {
  Fixture fix;
  for (const std::size_t num_events : {4u, 11u}) {
    std::vector<std::uint32_t> ids;
    for (std::uint32_t id = 0; ids.size() < num_events; ++id) {
      if (fix.db.by_id(id).response.guest_visible()) ids.push_back(id);
    }
    CounterRegisterFile batched(fix.db, 99);
    batched.set_engine(AccumulateEngine::kBatched);
    CounterRegisterFile reference(fix.db, 99);
    reference.set_engine(AccumulateEngine::kReference);
    batched.program(ids);
    reference.program(ids);

    const pmu::ExecutionStats stats = busy_stats();
    for (int t = 0; t < 50; ++t) {
      batched.tick(stats);
      reference.tick(stats);
    }
    for (std::uint32_t id : ids) {
      EXPECT_EQ(batched.read_raw(id), reference.read_raw(id)) << id;
      EXPECT_EQ(batched.read(id), reference.read(id)) << id;
    }
    EXPECT_EQ(batched.read_all(), reference.read_all());
  }
}

TEST(EngineEquivalence, PinnedSimdEnginesBitIdenticalToReference) {
  Fixture fix;
  const AccumulateEngine pins[] = {AccumulateEngine::kScalar,
                                   AccumulateEngine::kAvx2,
                                   AccumulateEngine::kAvx512};
  const simd::SimdIsa isas[] = {simd::SimdIsa::kScalar, simd::SimdIsa::kAvx2,
                                simd::SimdIsa::kAvx512};
  for (const std::size_t num_events : {4u, 11u, 1903u}) {
    std::vector<std::uint32_t> ids;
    for (std::uint32_t id = 0; id < fix.db.size() && ids.size() < num_events;
         ++id) {
      ids.push_back(id);
    }
    CounterRegisterFile reference(fix.db, 99);
    reference.set_engine(AccumulateEngine::kReference);
    reference.program(ids);
    const pmu::ExecutionStats stats = busy_stats();
    for (int t = 0; t < 50; ++t) reference.tick(stats);
    const std::vector<double> expected = reference.read_all();

    for (std::size_t p = 0; p < 3; ++p) {
      if (!simd::supported(isas[p])) continue;
      CounterRegisterFile pinned(fix.db, 99);
      pinned.set_engine(pins[p]);
      pinned.program(ids);
      ASSERT_EQ(pinned.resolved_isa(), isas[p]);
      for (int t = 0; t < 50; ++t) pinned.tick(stats);
      // Bitwise equality: the noise draws AND the expected-count dot
      // products must match the reference walk exactly.
      EXPECT_EQ(pinned.read_all(), expected)
          << simd::to_string(isas[p]) << " over " << num_events << " events";
    }
  }
}

TEST(EngineEquivalence, DefaultEngineRoundTrips) {
  EXPECT_EQ(CounterRegisterFile::default_engine(), AccumulateEngine::kBatched);
  {
    EngineGuard guard(AccumulateEngine::kReference);
    EXPECT_EQ(CounterRegisterFile::default_engine(),
              AccumulateEngine::kReference);
    Fixture fix;
    CounterRegisterFile counters(fix.db, 1);
    EXPECT_EQ(counters.engine(), AccumulateEngine::kReference);
  }
  EXPECT_EQ(CounterRegisterFile::default_engine(), AccumulateEngine::kBatched);
}

// ---------------------------------------------------------------------------
// Engine equivalence, campaign level: the PR 1 golden/differential suite
// extended across engines. A seed-7 fuzzing shard must agree bit-for-bit.

void expect_gadgets_equal(const std::vector<fuzzer::ConfirmedGadget>& a,
                          const std::vector<fuzzer::ConfirmedGadget>& b,
                          const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].gadget.reset_uid, b[i].gadget.reset_uid) << what << " " << i;
    EXPECT_EQ(a[i].gadget.trigger_uid, b[i].gadget.trigger_uid)
        << what << " " << i;
    EXPECT_EQ(a[i].event_id, b[i].event_id) << what << " " << i;
    EXPECT_EQ(a[i].median_delta, b[i].median_delta) << what << " " << i;
  }
}

/// Full-result comparison; returns the total confirmed-gadget count so
/// callers can assert the comparison was non-vacuous.
std::size_t expect_fuzz_results_equal(const fuzzer::FuzzResult& actual,
                                      const fuzzer::FuzzResult& expected) {
  EXPECT_EQ(actual.cleaned_instructions, expected.cleaned_instructions);
  EXPECT_EQ(actual.executed_gadgets, expected.executed_gadgets);
  EXPECT_EQ(actual.reports.size(), expected.reports.size());
  if (actual.reports.size() != expected.reports.size()) return 0;
  std::size_t total_confirmed = 0;
  for (std::size_t e = 0; e < actual.reports.size(); ++e) {
    EXPECT_EQ(actual.reports[e].event_id, expected.reports[e].event_id);
    EXPECT_EQ(actual.reports[e].candidates, expected.reports[e].candidates);
    expect_gadgets_equal(actual.reports[e].confirmed,
                         expected.reports[e].confirmed, "confirmed");
    expect_gadgets_equal(actual.reports[e].representatives,
                         expected.reports[e].representatives,
                         "representatives");
    total_confirmed += actual.reports[e].confirmed.size();
  }
  return total_confirmed;
}

fuzzer::FuzzerConfig seed7_shard_config() {
  fuzzer::FuzzerConfig config;
  config.seed = 7;
  config.reset_sample = 20;
  config.trigger_sample = 20;
  config.repeats = 4;
  config.num_threads = 2;
  return config;
}

TEST(EngineEquivalence, Seed7FuzzingShardBitIdentical) {
  Fixture fix;
  const fuzzer::FuzzerConfig config = seed7_shard_config();

  auto run_with = [&](AccumulateEngine engine) {
    EngineGuard guard(engine);
    fuzzer::EventFuzzer fuzzer(fix.db, fix.spec, config);
    return fuzzer.run(fix.events());
  };
  const fuzzer::FuzzResult reference = run_with(AccumulateEngine::kReference);
  const fuzzer::FuzzResult batched = run_with(AccumulateEngine::kBatched);

  // Equality of empty results would prove nothing.
  ASSERT_GT(expect_fuzz_results_equal(batched, reference), 0u);
}

// The same shard run through every pinned SIMD engine: scalar is the
// anchor (always supported); AVX2/AVX-512 must reproduce its stream
// bit-for-bit through the whole campaign — superblock execution, RNG
// draws, confirmation reordering, everything.
TEST(EngineEquivalence, Seed7ShardBitIdenticalAcrossSimdEngines) {
  Fixture fix;
  const fuzzer::FuzzerConfig config = seed7_shard_config();

  auto run_with = [&](AccumulateEngine engine) {
    EngineGuard guard(engine);
    fuzzer::EventFuzzer fuzzer(fix.db, fix.spec, config);
    return fuzzer.run(fix.events());
  };
  const fuzzer::FuzzResult scalar = run_with(AccumulateEngine::kScalar);
  ASSERT_GT(scalar.executed_gadgets, 0u);

  bool any_vector = false;
  if (simd::supported(simd::SimdIsa::kAvx2)) {
    any_vector = true;
    const fuzzer::FuzzResult avx2 = run_with(AccumulateEngine::kAvx2);
    ASSERT_GT(expect_fuzz_results_equal(avx2, scalar), 0u) << "avx2";
  }
  if (simd::supported(simd::SimdIsa::kAvx512)) {
    any_vector = true;
    const fuzzer::FuzzResult avx512 = run_with(AccumulateEngine::kAvx512);
    ASSERT_GT(expect_fuzz_results_equal(avx512, scalar), 0u) << "avx512";
  }
  if (!any_vector) {
    GTEST_SKIP() << "no vector ISA usable on this host (or AEGIS_FORCE_SCALAR "
                    "is set); scalar-vs-scalar would be vacuous";
  }
}

TEST(EngineEquivalence, ProfilerRankingIdenticalAcrossEngines) {
  Fixture fix;
  profiler::ProfilerConfig config;
  config.seed = 7;
  config.ranking_runs_per_secret = 3;
  config.num_threads = 2;
  std::vector<std::unique_ptr<workload::Workload>> secrets;
  for (std::uint32_t site = 0; site < 3; ++site) {
    secrets.push_back(std::make_unique<workload::WebsiteWorkload>(site, 40));
  }

  auto rank_with = [&](AccumulateEngine engine) {
    EngineGuard guard(engine);
    return profiler::ApplicationProfiler(fix.db, config)
        .rank(secrets, fix.events());
  };
  const std::vector<profiler::EventRank> reference =
      rank_with(AccumulateEngine::kReference);
  const std::vector<profiler::EventRank> batched =
      rank_with(AccumulateEngine::kBatched);

  ASSERT_EQ(batched.size(), reference.size());
  ASSERT_GT(batched.size(), 0u);
  EXPECT_GT(batched.front().mutual_information, 0.0);
  for (std::size_t i = 0; i < batched.size(); ++i) {
    EXPECT_EQ(batched[i].event_id, reference[i].event_id) << i;
    EXPECT_EQ(batched[i].mutual_information, reference[i].mutual_information)
        << i;
  }
}

// ---------------------------------------------------------------------------
// Zero-allocation steady state.

TEST(HotPathAllocations, ExecuteOnceSteadyStateAllocatesNothing) {
#if AEGIS_ALLOC_HOOK
  Fixture fix;
  sim::GadgetRunner runner(fix.db, fix.spec, 21);
  const std::vector<std::uint32_t> all_events = fix.events();
  runner.program({all_events.begin(), all_events.begin() + 4});

  // Any two legal variants make a (reset, trigger) gadget; one with a
  // memory operand exercises the cache-access stats path too.
  std::uint32_t plain = 0, memory = 0;
  bool have_plain = false, have_memory = false;
  for (const auto& v : fix.spec.variants()) {
    if (!v.legal()) continue;
    if (!have_plain && !v.has_memory_operand) {
      plain = v.uid;
      have_plain = true;
    }
    if (!have_memory && v.has_memory_operand) {
      memory = v.uid;
      have_memory = true;
    }
    if (have_plain && have_memory) break;
  }
  ASSERT_TRUE(have_plain);
  ASSERT_TRUE(have_memory);
  const std::array<std::uint32_t, 2> gadget = {plain, memory};

  // Warm-up: populates the variant-block cache (the only allocations the
  // measurement loop is allowed).
  for (int i = 0; i < 3; ++i) (void)runner.execute_once(gadget, 16.0);

  const std::uint64_t before =
      g_allocation_count.load(std::memory_order_relaxed);
  double sink = 0.0;
  for (int i = 0; i < 200; ++i) {
    const std::span<const double> delta = runner.execute_once(gadget, 16.0);
    sink += delta[0];
  }
  const std::uint64_t after =
      g_allocation_count.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0u)
      << "steady-state execute_once must not touch the heap (sink=" << sink
      << ")";
#else
  GTEST_SKIP() << "allocation hook disabled under sanitizers";
#endif
}

// ---------------------------------------------------------------------------
// Superblock cache correctness: alternating the unroll factor on the same
// uid sequence must rebuild the fused blocks in place — a stale cache
// would return unroll-8 deltas for the unroll-16 request.

TEST(GadgetRunnerSuperblocks, UnrollAlternationNeverServesStaleBlocks) {
  Fixture fix;
  sim::GadgetRunner runner(fix.db, fix.spec, 21);
  const std::vector<std::uint32_t> all_events = fix.events();
  runner.program({all_events.begin(), all_events.begin() + 4});

  std::uint32_t plain = 0;
  bool have_plain = false;
  for (const auto& v : fix.spec.variants()) {
    if (v.legal() && !v.has_memory_operand) {
      plain = v.uid;
      have_plain = true;
      break;
    }
  }
  ASSERT_TRUE(have_plain);
  const std::array<std::uint32_t, 2> gadget = {plain, plain};

  // Strictly alternate so every call arrives with the other unroll cached.
  std::array<double, 4> sum8{};
  std::array<double, 4> sum16{};
  for (int i = 0; i < 50; ++i) {
    const std::span<const double> d8 = runner.execute_once(gadget, 8.0);
    for (std::size_t j = 0; j < 4; ++j) sum8[j] += d8[j];
    const std::span<const double> d16 = runner.execute_once(gadget, 16.0);
    for (std::size_t j = 0; j < 4; ++j) sum16[j] += d16[j];
  }
  // The most-responsive programmed event must see roughly double the
  // activity at double the unroll; a stale cache leaves the sums equal.
  std::size_t top = 0;
  for (std::size_t j = 1; j < 4; ++j) {
    if (sum8[j] > sum8[top]) top = j;
  }
  ASSERT_GT(sum8[top], 0.0);
  EXPECT_GT(sum16[top], sum8[top] * 1.5)
      << "unroll-16 deltas look like cached unroll-8 blocks";
}

// ---------------------------------------------------------------------------
// Perf smoke: the batched engine must not lose to the reference it
// replaced. Measured on the multiplexed 1903-event sweep shape, where the
// structural win (active-group range vs full-slot walk) dwarfs timer and
// scheduler noise; bench_hot_path tracks the precise ratios.

TEST(HotPathPerfSmoke, BatchedNotSlowerThanReferenceOnSweep) {
  Fixture fix;
  std::vector<std::uint32_t> all_ids;
  for (std::uint32_t id = 0; id < fix.db.size(); ++id) all_ids.push_back(id);
  const pmu::ExecutionStats stats = busy_stats();

  auto time_engine = [&](AccumulateEngine engine) {
    CounterRegisterFile counters(fix.db, 42);
    counters.set_engine(engine);
    counters.program(all_ids);
    // Touch everything once so first-use effects hit neither timing.
    counters.tick(stats);
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < 400; ++i) counters.accumulate(stats);
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
        .count();
  };
  const double reference = time_engine(AccumulateEngine::kReference);
  const double batched = time_engine(AccumulateEngine::kBatched);
  EXPECT_LE(batched, reference)
      << "batched " << batched << "s vs reference " << reference << "s";
}

}  // namespace
}  // namespace aegis
