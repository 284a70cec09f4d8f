// Exporters: Prometheus text exposition and the JSON snapshot (aegis_top
// input). The chrome://tracing writer lives beside the flight recorder
// (write_trace_json), since it reads recorder events only.
//
// Both are deterministic given deterministic inputs: metrics iterate in
// name order, budget events in drain() order, and doubles print via a
// fixed %.10g format — the exporter golden tests pin the bytes.
#pragma once

#include <ostream>

#include "telemetry/metrics.hpp"
#include "telemetry/registry.hpp"

namespace aegis::telemetry {

/// Prometheus text format. Counters print as integers, gauges as %.10g;
/// histograms expand to cumulative `_bucket{le="..."}` rows plus `_sum` and
/// `_count`. A `# TYPE` line is emitted once per metric base name (the part
/// before any `{label}` suffix), preceded by a `# HELP` line when the
/// registry registered one (MetricsRegistry::set_help). Per the text-format
/// spec, HELP text escapes `\` and line feeds, and label VALUES additionally
/// escape `"` — raw registration-site label values can't corrupt the
/// exposition.
void write_prometheus(const MetricsSnapshot& snap, std::ostream& os);

/// One JSON object: {"counters": {...}, "gauges": {...},
/// "histograms": {...}, "budget_timeline": [...]}. Non-finite gauges are
/// written as null, since JSON has no infinity. The timeline lists the
/// kAdmission events still in the recorder, in drain() order; a tenant's
/// ε cap is not repeated per event (see the
/// aegis_tenant_epsilon_remaining gauges). This is the wire format
/// tools/aegis_top consumes.
void write_json_snapshot(const Registry& reg, std::ostream& os);

}  // namespace aegis::telemetry
