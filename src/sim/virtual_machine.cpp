#include "sim/virtual_machine.hpp"

namespace aegis::sim {

VirtualMachine::VirtualMachine(VmConfig config, std::uint64_t seed)
    : config_(config), rng_(seed) {}

// aegis-lint: amortized-alloc(the ring grows only when a backlog outgrows every earlier one; otherwise a push reuses a slot)
void VirtualMachine::submit(InstructionBlock block) {
  if (queued_ == ring_.size()) grow_queue();
  ring_[(head_ + queued_) & (ring_.size() - 1)] = std::move(block);
  ++queued_;
}

void VirtualMachine::grow_queue() {
  std::vector<InstructionBlock> grown(
      ring_.empty() ? kInitialQueueCapacity : 2 * ring_.size());
  for (std::size_t i = 0; i < queued_; ++i) {
    grown[i] = std::move(ring_[(head_ + i) & (ring_.size() - 1)]);
  }
  ring_ = std::move(grown);
  head_ = 0;
}

// aegis-rng: stream(virtual-machine-run-slice)
pmu::ExecutionStats VirtualMachine::run_slice() {
  pmu::ExecutionStats slice;
  double budget = config_.slice_budget_cycles;

  // External interrupts: delivered regardless of guest activity; they
  // consume cycles and couple into interrupt-sensitive events.
  const std::uint64_t irqs = rng_.poisson(config_.interrupt_rate);
  slice.interrupts = static_cast<double>(irqs);
  const double irq_cycles = static_cast<double>(irqs) * config_.interrupt_cycles;
  slice.cycles += irq_cycles;
  slice.uops += static_cast<double>(irqs) * config_.interrupt_uops;
  budget -= irq_cycles;

  // Forward-progress guarantee: at least one queued block executes per
  // slice even if interrupts (or a pathological configuration) consumed
  // the whole budget — a scheduled task is never starved forever.
  bool first = true;
  while (queued_ != 0 && (first || budget > 0.0)) {
    first = false;
    const pmu::ExecutionStats stats =
        execute_block(ring_[head_], uarch_, config_.cost);
    head_ = (head_ + 1) & (ring_.size() - 1);
    --queued_;
    slice += stats;
    budget -= stats.cycles;
  }

  ++slices_run_;
  total_busy_cycles_ += slice.cycles;
  last_slice_stats_ = slice;
  return slice;
}

double VirtualMachine::cpu_usage() const noexcept {
  if (slices_run_ == 0) return 0.0;
  const double capacity =
      static_cast<double>(slices_run_) * config_.slice_budget_cycles;
  const double usage = total_busy_cycles_ / capacity;
  return usage > 1.0 ? 1.0 : usage;
}

}  // namespace aegis::sim
