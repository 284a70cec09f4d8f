// Block executor: turns an InstructionBlock plus the current MicroArchState
// into the ExecutionStats record that PMU event responses consume, and
// charges cycle costs (the basis of the Fig. 10 latency / CPU-usage
// overhead measurements).
//
// Two entry points share one observable behaviour:
//   * execute_block — computes everything from the block per call;
//   * compile_block + execute_compiled — hoists every state-independent
//     term (line counts, branch totals, the issue-width division, the
//     fixed cycle products) into a CompiledBlock once, so the per-call
//     work shrinks to the cache/branch-state interaction. GadgetRunner's
//     superblocks are sequences of CompiledBlocks.
// step_state is that interaction alone: execute_compiled is step_state plus
// the stats record, and a block whose record nobody reads (the fuzzing
// harness's prolog/epilog) runs step_state only.
// execute_compiled is bit-identical to execute_block on the same state:
// the precomputed values are the identical IEEE-754 results of the
// identical expressions, and the remaining additions run in the identical
// order (pinned by the ExecutorCompiled tests in tests/sim_test.cpp).
#pragma once

#include "pmu/event_model.hpp"
#include "sim/instruction_block.hpp"
#include "sim/uarch_state.hpp"

namespace aegis::sim {

/// Pipeline cost constants for a generic 4-wide out-of-order core.
struct CostModel {
  double issue_width = 4.0;
  double l1_miss_cycles = 12.0;
  double llc_miss_cycles = 90.0;
  double branch_miss_cycles = 16.0;
  double serialize_cycles = 120.0;
  double int_div_extra = 18.0;
  double fp_div_extra = 10.0;
};

/// Executes one block against the micro-architectural state; returns the
/// observable activity record.
pmu::ExecutionStats execute_block(const InstructionBlock& block,
                                  MicroArchState& uarch,
                                  const CostModel& cost = CostModel{});

/// A block with its state-independent execution terms precomputed against
/// one CostModel. Build on the cold path, execute from noalloc loops.
struct CompiledBlock {
  InstructionBlock block;    // region/locality/entropy/flush inputs
  pmu::ExecutionStats base;  // class_counts, uops, mem_reads/writes, l1_writes
  double touched = 0.0;      // read_bytes + write_bytes
  double branches = 0.0;     // branch + call retirements
  double uops_over_width = 0.0;   // uops / issue_width
  double serialize_cycles = 0.0;  // serialize_count * cost
  double int_div_cycles = 0.0;
  double fp_div_cycles = 0.0;
  double x87_cycles = 0.0;
};

/// Precomputes `block`'s state-independent terms. The CostModel baked in
/// here must be the one later passed to execute_compiled.
CompiledBlock compile_block(const InstructionBlock& block,
                            const CostModel& cost = CostModel{});

/// What a block's execution did to the micro-architectural state's
/// observable side: the cache misses of its access and the mispredicts of
/// its branches.
struct StateStep {
  double l1_misses = 0.0;
  double llc_misses = 0.0;
  double branch_mispredicts = 0.0;
};

/// Advances `uarch` by one execution of `compiled` — the cache access, then
/// the flush, then the branch run — and returns the miss and mispredict
/// counts. Leaves `uarch` exactly as execute_compiled on the same block
/// would.
StateStep step_state(const CompiledBlock& compiled, MicroArchState& uarch);

/// Executes a compiled block; bit-identical to
/// execute_block(compiled.block, uarch, cost) for the cost model the block
/// was compiled with.
pmu::ExecutionStats execute_compiled(const CompiledBlock& compiled,
                                     MicroArchState& uarch,
                                     const CostModel& cost = CostModel{});

}  // namespace aegis::sim
