#include "sim/gadget_runner.hpp"

#include <algorithm>
#include <stdexcept>

#include "telemetry/registry.hpp"
#include "util/hash.hpp"

namespace aegis::sim {

namespace {

/// Prolog: saves callee-saved registers, carves one page of stack scratch,
/// initializes memory-operand registers to the writable data page. Mostly
/// stores plus a serializing fence; runs OUTSIDE the measured window but
/// still perturbs cache state (one source of C5 side effects).
InstructionBlock make_prolog() {
  InstructionBlock b;
  b.region = kScratchRegion;
  b.class_counts[isa::InstructionClass::kStore] = 20;
  b.class_counts[isa::InstructionClass::kMov] = 16;
  b.class_counts[isa::InstructionClass::kSerialize] = 1;
  b.uops = 60;
  b.write_bytes = 4096;  // the scratch page
  b.serialize_count = 1;
  b.locality = 1.0;
  return b;
}

InstructionBlock make_epilog() {
  InstructionBlock b;
  b.region = kScratchRegion;
  b.class_counts[isa::InstructionClass::kLoad] = 20;
  b.class_counts[isa::InstructionClass::kMov] = 16;
  b.class_counts[isa::InstructionClass::kSerialize] = 1;
  b.uops = 60;
  b.read_bytes = 256;  // register restore area
  b.serialize_count = 1;
  b.locality = 1.0;
  return b;
}

// The prolog/epilog never change between executions; compiled once, their
// state-independent terms never recompute. They run outside the measured
// window, so execute_once only steps the machine state through them.
const CompiledBlock kProlog = compile_block(make_prolog());
const CompiledBlock kEpilog = compile_block(make_epilog());

bool same_sequence(const std::vector<std::uint32_t>& cached,
                   std::span<const std::uint32_t> requested) noexcept {
  return cached.size() == requested.size() &&
         std::equal(cached.begin(), cached.end(), requested.begin());
}

}  // namespace

GadgetRunner::GadgetRunner(const pmu::EventDatabase& db,
                           const isa::IsaSpecification& spec, std::uint64_t seed)
    : spec_(&spec),
      rng_(seed),
      counters_(db, rng_.next_u64()),
      executions_(telemetry::Registry::global().metrics().counter(
          "aegis_gadget_executions_total")),
      exec_event_(telemetry::Registry::global().recorder().event_handle(
          "gadget.exec", telemetry::WideEventType::kHotExec)) {
  // isolcpus + core pinning: almost no external interference.
  config_.interrupt_rate = 0.002;
}

GadgetRunner::~GadgetRunner() { executions_.inc(exec_count_); }

const isa::InstructionVariant* GadgetRunner::faulting_variant(
    std::span<const std::uint32_t> variant_uids) const {
  for (std::uint32_t uid : variant_uids) {
    const isa::InstructionVariant& v = spec_->by_uid(uid);
    if (!v.legal()) return &v;
  }
  return nullptr;
}

void GadgetRunner::program(std::vector<std::uint32_t> event_ids) {
  if (event_ids.size() > pmu::EventDatabase::kNumCounters) {
    throw std::invalid_argument(
        "GadgetRunner: at most 4 events can be measured concurrently");
  }
  counters_.program(std::move(event_ids));
  const std::vector<std::uint32_t>& ids = counters_.programmed();
  for (std::size_t i = 0; i < ids.size(); ++i) {
    std::size_t j = 0;
    while (ids[j] != ids[i]) ++j;  // first occurrence, like read_raw
    slot_idx_[i] = j;
  }
}

// aegis-lint: amortized-alloc(runs only for a first-seen (uids, unroll) key; steady-state execute_once hits the MRU pair or the hash probe)
GadgetRunner::Superblock& GadgetRunner::rebuild(
    std::uint64_t key, std::span<const std::uint32_t> variant_uids,
    double unroll) {
  // Validate the whole sequence before touching the cache: a sequence with
  // an illegal variant must throw on every call and leave no entry behind.
  if (const isa::InstructionVariant* bad = faulting_variant(variant_uids)) {
    throw std::invalid_argument("GadgetRunner: illegal variant " +
                                bad->mnemonic);
  }
  // References into an unordered_map survive rehashing, so the MRU
  // pointers and arena-backed block pointers both stay valid as the cache
  // grows.
  Superblock& sb = superblocks_[key];
  sb.uids.assign(variant_uids.begin(), variant_uids.end());
  sb.unroll = unroll;
  while (sb.blocks.size() < variant_uids.size()) {
    sb.blocks.push_back(arena_.push());
  }
  sb.blocks.resize(variant_uids.size());
  for (std::size_t i = 0; i < variant_uids.size(); ++i) {
    *sb.blocks[i] = compile_block(InstructionBlock::from_variant(
        spec_->by_uid(variant_uids[i]), unroll, kGadgetDataRegion));
  }
  return sb;
}

const GadgetRunner::Superblock& GadgetRunner::superblock(
    std::span<const std::uint32_t> variant_uids, double unroll) {
  if (mru0_ != nullptr && mru0_->unroll == unroll &&
      same_sequence(mru0_->uids, variant_uids)) {
    return *mru0_;
  }
  if (mru1_ != nullptr && mru1_->unroll == unroll &&
      same_sequence(mru1_->uids, variant_uids)) {
    std::swap(mru0_, mru1_);
    return *mru0_;
  }
  const std::uint64_t key =
      util::fnv1a(variant_uids.data(), variant_uids.size_bytes());
  const auto it = superblocks_.find(key);
  Superblock& sb = it != superblocks_.end() && it->second.unroll == unroll &&
                           same_sequence(it->second.uids, variant_uids)
                       ? it->second
                       : rebuild(key, variant_uids, unroll);
  mru1_ = mru0_;
  mru0_ = &sb;
  return sb;
}

// aegis-lint: noalloc
// aegis-rng: stream(gadget-runner-execute-once)
std::span<const double> GadgetRunner::execute_once(
    std::span<const std::uint32_t> variant_uids, double unroll) {
  // Cache hits resolve via the MRU compare / hash probe with zero
  // allocation; only a first-seen (uids, unroll) builds.
  const Superblock& sb = superblock(variant_uids, unroll);
  // Sampled flight-recorder record point (1-in-8): one branch on the fast
  // iterations, a wait-free ring write on the sampled ones, stamped with a
  // local ordinal rather than a shared clock.
  if ((++exec_count_ & 7) == 0) {
    exec_event_.record(exec_count_, sb.uids.size(),
                       static_cast<std::uint64_t>(unroll));
  }
  // Prolog runs before the first RDPMC.
  (void)step_state(kProlog, uarch_);

  const std::size_t n = counters_.programmed().size();
  for (std::size_t i = 0; i < n; ++i) {
    before_[i] = counters_.read_raw_slot(slot_idx_[i]);
  }

  // Measured window: the generated instruction sequence. A rare interrupt
  // can still land inside (the residual C2 noise the fuzzer's repetition
  // machinery has to average out).
  for (const CompiledBlock* block : sb.blocks) {
    pmu::ExecutionStats stats = execute_compiled(*block, uarch_);
    if (rng_.bernoulli(config_.interrupt_rate)) {
      stats.interrupts += 1.0;
      stats.cycles += config_.interrupt_cycles;
      stats.uops += config_.interrupt_uops;
    }
    counters_.accumulate(stats);
  }

  for (std::size_t i = 0; i < n; ++i) {
    delta_[i] = counters_.read_raw_slot(slot_idx_[i]) - before_[i];
  }

  (void)step_state(kEpilog, uarch_);
  return std::span<const double>(delta_.data(), n);
}

void GadgetRunner::reset_machine_state() { uarch_ = MicroArchState{}; }

}  // namespace aegis::sim
