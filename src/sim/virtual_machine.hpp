// Discrete-time virtual machine model.
//
// The VM executes queued instruction blocks on one pinned vCPU in fixed
// wall-clock slices (1 ms of guest time ~ a few million cycles). Work that
// does not fit a slice carries over — this is what turns injected noise
// instructions into measurable execution-latency and CPU-usage overhead
// (Fig. 10). External interrupts arrive per slice and perturb both cycle
// counts and interrupt-coupled HPC events (the paper's C2 noise).
//
// Queued blocks wait in a ring over reused storage rather than a deque: a
// deque of 264-byte blocks allocates a node per block, while the ring
// allocates only when a backlog outgrows every earlier one, so a VM under a
// steady backlog stops allocating once its ring has grown.
#pragma once

#include <cstdint>
#include <vector>

#include "pmu/event_model.hpp"
#include "sim/executor.hpp"
#include "sim/instruction_block.hpp"
#include "sim/uarch_state.hpp"
#include "util/rng.hpp"

namespace aegis::sim {

struct VmConfig {
  double slice_budget_cycles = 3.0e6;  // 1 ms at 3 GHz
  double interrupt_rate = 1.2;         // expected interrupts per slice
  double interrupt_cycles = 2500.0;    // ISR cost per interrupt
  double interrupt_uops = 900.0;
  CostModel cost;
};

class VirtualMachine {
 public:
  VirtualMachine(VmConfig config, std::uint64_t seed);

  /// Queues a block for execution on the vCPU.
  void submit(InstructionBlock block);

  /// Runs one monitoring slice: executes queued blocks until the cycle
  /// budget is exhausted (unfinished work stays queued), delivers external
  /// interrupts, and returns the slice's aggregate activity.
  pmu::ExecutionStats run_slice();

  /// True while queued work remains (used to measure completion latency).
  bool pending() const noexcept { return queued_ != 0; }
  /// Blocks queued and not yet executed.
  std::size_t queued() const noexcept { return queued_; }
  /// Blocks the queue's storage holds without growing.
  std::size_t queue_capacity() const noexcept { return ring_.size(); }

  MicroArchState& uarch() noexcept { return uarch_; }
  const VmConfig& config() const noexcept { return config_; }

  /// Activity of the most recent slice. In-guest software (the Event
  /// Obfuscator's kernel module) reads its own HPC values via RDPMC; this
  /// is the simulator's equivalent of that in-guest view.
  const pmu::ExecutionStats& last_slice_stats() const noexcept {
    return last_slice_stats_;
  }

  /// Cumulative accounting since construction.
  std::uint64_t slices_run() const noexcept { return slices_run_; }
  double total_busy_cycles() const noexcept { return total_busy_cycles_; }
  /// Busy fraction = busy cycles / slice capacity (the `top` CPU-usage view
  /// the paper's host measures every 0.2 s).
  double cpu_usage() const noexcept;

 private:
  /// Grows the ring to twice its size (kInitialQueueCapacity at first),
  /// keeping the queued blocks in order from slot 0.
  void grow_queue();

  static constexpr std::size_t kInitialQueueCapacity = 8;

  VmConfig config_;
  util::Rng rng_;
  MicroArchState uarch_;
  /// The FIFO: queued_ blocks from ring_[head_] on, wrapping around. The
  /// ring's size is 0 or a power of two.
  std::vector<InstructionBlock> ring_;
  std::size_t head_ = 0;
  std::size_t queued_ = 0;
  pmu::ExecutionStats last_slice_stats_;
  std::uint64_t slices_run_ = 0;
  double total_busy_cycles_ = 0.0;
};

}  // namespace aegis::sim
