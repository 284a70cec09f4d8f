#include "sim/executor.hpp"

namespace aegis::sim {

pmu::ExecutionStats execute_block(const InstructionBlock& block,
                                  MicroArchState& uarch, const CostModel& cost) {
  using isa::InstructionClass;
  pmu::ExecutionStats s;
  s.class_counts = block.class_counts;
  s.uops = block.uops;

  // Memory behaviour.
  const double lines_read = block.read_bytes / MicroArchState::kLineBytes;
  const double lines_written = block.write_bytes / MicroArchState::kLineBytes;
  s.mem_reads = lines_read;
  s.mem_writes = lines_written;
  s.l1_writes = lines_written;
  const double touched = block.read_bytes + block.write_bytes;
  if (touched > 0.0) {
    const MemoryAccessResult misses =
        uarch.access(block.region, touched, block.locality);
    s.l1_misses = misses.l1_misses;
    s.llc_misses = misses.llc_misses;
  }
  if (block.flush_all) {
    uarch.flush_all();
  } else if (block.flush_bytes > 0.0) {
    uarch.flush(block.region, block.flush_bytes);
  }

  // Branch behaviour.
  const double branches = block.class_counts[InstructionClass::kBranch] +
                          block.class_counts[InstructionClass::kCall];
  s.branch_mispredicts =
      uarch.run_branches(block.region, branches, block.branch_entropy);

  // Cycle accounting.
  double cycles = s.uops / cost.issue_width;
  cycles += s.l1_misses * cost.l1_miss_cycles;
  cycles += s.llc_misses * cost.llc_miss_cycles;
  cycles += s.branch_mispredicts * cost.branch_miss_cycles;
  cycles += block.serialize_count * cost.serialize_cycles;
  cycles += block.class_counts[InstructionClass::kIntDiv] * cost.int_div_extra;
  cycles += block.class_counts[InstructionClass::kFpDiv] * cost.fp_div_extra;
  cycles += block.class_counts[InstructionClass::kX87] * 2.0;
  s.cycles = cycles;
  return s;
}

// Every precomputed field below is the same IEEE-754 expression
// execute_block evaluates per call, moved to compile time: identical
// operands, identical operation, identical bits.
CompiledBlock compile_block(const InstructionBlock& block,
                            const CostModel& cost) {
  using isa::InstructionClass;
  CompiledBlock cb;
  cb.block = block;
  cb.base.class_counts = block.class_counts;
  cb.base.uops = block.uops;
  cb.base.mem_reads = block.read_bytes / MicroArchState::kLineBytes;
  cb.base.mem_writes = block.write_bytes / MicroArchState::kLineBytes;
  cb.base.l1_writes = cb.base.mem_writes;
  cb.touched = block.read_bytes + block.write_bytes;
  cb.branches = block.class_counts[InstructionClass::kBranch] +
                block.class_counts[InstructionClass::kCall];
  cb.uops_over_width = block.uops / cost.issue_width;
  cb.serialize_cycles = block.serialize_count * cost.serialize_cycles;
  cb.int_div_cycles =
      block.class_counts[InstructionClass::kIntDiv] * cost.int_div_extra;
  cb.fp_div_cycles =
      block.class_counts[InstructionClass::kFpDiv] * cost.fp_div_extra;
  cb.x87_cycles = block.class_counts[InstructionClass::kX87] * 2.0;
  return cb;
}

StateStep step_state(const CompiledBlock& compiled, MicroArchState& uarch) {
  StateStep step;
  if (compiled.touched > 0.0) {
    const MemoryAccessResult misses = uarch.access(
        compiled.block.region, compiled.touched, compiled.block.locality);
    step.l1_misses = misses.l1_misses;
    step.llc_misses = misses.llc_misses;
  }
  if (compiled.block.flush_all) {
    uarch.flush_all();
  } else if (compiled.block.flush_bytes > 0.0) {
    uarch.flush(compiled.block.region, compiled.block.flush_bytes);
  }
  step.branch_mispredicts = uarch.run_branches(
      compiled.block.region, compiled.branches, compiled.block.branch_entropy);
  return step;
}

// aegis-lint: noalloc
pmu::ExecutionStats execute_compiled(const CompiledBlock& compiled,
                                     MicroArchState& uarch,
                                     const CostModel& cost) {
  pmu::ExecutionStats s = compiled.base;
  const StateStep step = step_state(compiled, uarch);
  s.l1_misses = step.l1_misses;
  s.llc_misses = step.llc_misses;
  s.branch_mispredicts = step.branch_mispredicts;

  // The additions run in execute_block's exact order; only the
  // state-independent products/quotient were hoisted to compile_block.
  double cycles = compiled.uops_over_width;
  cycles += s.l1_misses * cost.l1_miss_cycles;
  cycles += s.llc_misses * cost.llc_miss_cycles;
  cycles += s.branch_mispredicts * cost.branch_miss_cycles;
  cycles += compiled.serialize_cycles;
  cycles += compiled.int_div_cycles;
  cycles += compiled.fp_div_cycles;
  cycles += compiled.x87_cycles;
  s.cycles = cycles;
  return s;
}

}  // namespace aegis::sim
