// Traced per-layer measurement shared by the workloads: every traced run
// reports every per-layer metric, so each workload also measures the
// layers its own traffic leaves idle (the offline workload runs a short
// fleet; the fleet workloads trace their template analyses stage by
// stage).
#pragma once

#include "bench_logic.hpp"
#include "common.hpp"

namespace perfbench {

/// One cold analysis composed from the public calls core::Aegis::analyze
/// makes, each stage timed and recorded as a span.
struct StagedAnalysis {
  aegis::core::OfflineResult result;
  double warmup_s = 0.0;
  double rank_s = 0.0;
  double cleanup_s = 0.0;
  double cleanup_cpu_util = 0.0;
  double generation_s = 0.0;
  double confirmation_s = 0.0;
  double confirmation_cpu_util = 0.0;
  double filtering_s = 0.0;
  double cover_s = 0.0;
  double total_s = 0.0;
  std::size_t root_span = 0;  // id of the "offline.analyze" span in the log
};

StagedAnalysis analyze_in_stages(const aegis::core::Aegis& engine,
                                 const Application& app,
                                 const aegis::core::OfflineConfig& config,
                                 SpanLog& log, std::uint64_t request);

/// Emits the offline per-layer metrics (medians over `runs`). `variants`
/// is the ISA specification's variant count.
void report_offline_layers(const std::vector<StagedAnalysis>& runs,
                           const SpanLog& log, std::size_t variants,
                           Report& report);

/// Runs a short traced fleet-steady phase and emits the service and
/// session per-layer metrics.
void report_fleet_layers_probe(const RunOptions& options, Report& report,
                               SpanLog& log);

/// Writes the span log as TSV into options.span_dir (no-op when unset).
void write_spans(const RunOptions& options, const SpanLog& log);

}  // namespace perfbench
