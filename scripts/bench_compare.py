#!/usr/bin/env python3
"""Compare fresh bench JSON against committed baselines; fail on regression.

Usage:
    scripts/bench_compare.py BASELINE_hotpath.json FRESH_hotpath.json \
                             BASELINE_service.json FRESH_service.json
    scripts/bench_compare.py --hotpath BASELINE_hotpath.json \
                             FRESH_hotpath.json
    scripts/bench_compare.py --service BASELINE_service.json \
                             FRESH_service.json
    scripts/bench_compare.py --security BASELINE_security.json \
                             FRESH_security.json
    scripts/bench_compare.py --lint BENCH_lint.json FRESH_lint.json

The 4-argument form gates hotpath + service together (the CI perf leg);
--hotpath / --service gate one artifact each (--hotpath is what
scripts/check.sh runs locally, where the service bench is too slow).

Headline metrics (everything else in the JSON is informational):
  hotpath   accumulate_4_events.batched_ns            lower is better
            accumulate_sweep_1903_events.batched_ns   lower is better
            execute_once.steady_state_ns              lower is better
            profiler_sweep.batched_events_per_sec     higher is better
  service   max over sweep of throughput_sessions_per_sec   higher is better

When both sides of a hotpath comparison record the SIMD engine that
produced them (the "engine" field), a mismatch is reported as a note:
cross-engine deltas are attributable to dispatch, not to a code
regression, but the numbers still gate — an accidental scalar fallback on
a machine that used to run AVX2 IS a regression worth failing on.

The PMU backend provenance fields ("backend", "cpu_model") gate harder:
when both sides carry them and they disagree, the comparison FAILS in
every mode — an AEGIS_CPU=intel run measured a different event database
than the committed AMD baseline, so no delta between them is meaningful.
Artifacts predating the backend layer omit the fields and compare as
before.

Hotpath artifacts that carry a "flight_recorder" section additionally gate
recorder_overhead_pct — the execute_once cost of the always-on flight
recorder — against an ABSOLUTE ceiling (default 2%, override with
AEGIS_RECORDER_OVERHEAD_PCT): unlike the relative metrics, a slow baseline
can never grandfather in a slow recorder. Older artifacts without the
section skip the check.

A metric regresses when it is worse than the baseline by more than the
tolerance (default 15%, override with AEGIS_BENCH_TOLERANCE, a fraction).
The tolerance is deliberately loose: shared CI runners jitter, and only a
real hot-path or throughput cliff should block a merge. Improvements are
reported but never fail. Exit status: 0 ok, 1 regression, 2 usage/IO error.

--security mode diffs BENCH_security.json frontiers instead. The metric is
directional per cell keyed by (attacker, defense, epsilon): fresh attack
accuracy may not RISE more than 2 points absolute over the committed
baseline (override with AEGIS_SECURITY_TOLERANCE, a fraction of 1.0, e.g.
0.02). Accuracy drops are improvements and never fail. Every fresh cell
must exist in the baseline — the smoke subset is a strict subset of the
committed full frontier, so an unmatched cell means the matrix drifted and
the gate would otherwise pass vacuously. The harness is bit-deterministic,
so unlike the perf gates this needs no jitter allowance; the tolerance
only absorbs intentional small reshapes of shared attack fixtures.

--lint mode gates the analyzer's own runtime: aegis_lint --time-json
writes {ruleset, files_analyzed, wall_ms}, and a fresh run may not exceed
2x the committed BENCH_lint.json wall time (override with
AEGIS_LINT_TOLERANCE, a multiplier). The loose multiplier absorbs runner
jitter on a tens-of-milliseconds measurement; only a superlinear blowup
in the analyzer (the failure mode interproc analyses actually have)
trips it. A ruleset mismatch between the two artifacts is a note, not a
failure — new rules legitimately cost time, but the budget still holds.

Stdlib only — no pip installs in CI.
"""

import json
import os
import sys


DEFAULT_TOLERANCE = 0.15
DEFAULT_SECURITY_TOLERANCE = 0.02  # 2 accuracy points, absolute
DEFAULT_LINT_TOLERANCE = 2.0  # fresh cold wall time may not exceed 2x base


class MetricError(Exception):
    pass


def dig(doc, path):
    node = doc
    for key in path.split("."):
        if not isinstance(node, dict) or key not in node:
            raise MetricError(f"missing key {path!r}")
        node = node[key]
    if not isinstance(node, (int, float)) or isinstance(node, bool):
        raise MetricError(f"{path!r} is not a number")
    return float(node)


def peak_throughput(doc):
    sweep = doc.get("sweep")
    if not isinstance(sweep, list) or not sweep:
        raise MetricError("missing or empty 'sweep'")
    values = [
        p["throughput_sessions_per_sec"]
        for p in sweep
        if isinstance(p, dict) and "throughput_sessions_per_sec" in p
    ]
    if not values:
        raise MetricError("sweep has no throughput_sessions_per_sec")
    return float(max(values))


# (label, extractor, higher_is_better)
HOTPATH_METRICS = [
    ("hotpath accumulate_4_events.batched_ns",
     lambda d: dig(d, "accumulate_4_events.batched_ns"), False),
    ("hotpath accumulate_sweep_1903_events.batched_ns",
     lambda d: dig(d, "accumulate_sweep_1903_events.batched_ns"), False),
    ("hotpath execute_once.steady_state_ns",
     lambda d: dig(d, "execute_once.steady_state_ns"), False),
    ("hotpath profiler_sweep.batched_events_per_sec",
     lambda d: dig(d, "profiler_sweep.batched_events_per_sec"), True),
]

SERVICE_METRICS = [
    ("service peak throughput_sessions_per_sec", peak_throughput, True),
]


def load(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"bench_compare: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)


def tolerance():
    raw = os.environ.get("AEGIS_BENCH_TOLERANCE", "")
    if not raw:
        return DEFAULT_TOLERANCE
    try:
        value = float(raw)
    except ValueError:
        print(f"bench_compare: bad AEGIS_BENCH_TOLERANCE {raw!r}",
              file=sys.stderr)
        sys.exit(2)
    if value <= 0:
        print("bench_compare: AEGIS_BENCH_TOLERANCE must be positive",
              file=sys.stderr)
        sys.exit(2)
    return value


def security_tolerance():
    raw = os.environ.get("AEGIS_SECURITY_TOLERANCE", "")
    if not raw:
        return DEFAULT_SECURITY_TOLERANCE
    try:
        value = float(raw)
    except ValueError:
        print(f"bench_compare: bad AEGIS_SECURITY_TOLERANCE {raw!r}",
              file=sys.stderr)
        sys.exit(2)
    if value < 0:
        print("bench_compare: AEGIS_SECURITY_TOLERANCE must be >= 0",
              file=sys.stderr)
        sys.exit(2)
    return value


def lint_tolerance():
    raw = os.environ.get("AEGIS_LINT_TOLERANCE", "")
    if not raw:
        return DEFAULT_LINT_TOLERANCE
    try:
        value = float(raw)
    except ValueError:
        print(f"bench_compare: bad AEGIS_LINT_TOLERANCE {raw!r}",
              file=sys.stderr)
        sys.exit(2)
    if value <= 1.0:
        print("bench_compare: AEGIS_LINT_TOLERANCE must be > 1 (a multiplier "
              "on the baseline wall time)", file=sys.stderr)
        sys.exit(2)
    return value


def compare_lint(base_path, fresh_path):
    """Lint runtime budget: a run slower than tol x baseline fails."""
    baseline, fresh = load(base_path), load(fresh_path)
    tol = lint_tolerance()
    try:
        base_ms = float(baseline["wall_ms"])
        new_ms = float(fresh["wall_ms"])
        base_files = int(baseline["files_analyzed"])
        new_files = int(fresh["files_analyzed"])
    except (KeyError, TypeError, ValueError) as e:
        print(f"bench_compare: malformed lint timing artifact: {e}",
              file=sys.stderr)
        sys.exit(2)
    base_rules = baseline.get("ruleset")
    new_rules = fresh.get("ruleset")
    if base_rules and new_rules and base_rules != new_rules:
        print(f"note  lint ruleset changed: baseline {base_rules!r}, fresh "
              f"{new_rules!r} — new rules cost time, but the budget holds")
    if new_files != base_files:
        print(f"note  lint tree grew: {base_files} -> {new_files} file(s); "
              f"the wall-time budget is deliberately NOT per-file — a "
              f"superlinear analyzer shows up here first")
    # The absolute floor keeps the gate honest across machines: the
    # committed baseline is a fast-dev-box number, and a CI runner being
    # 5x slower on a 30 ms measurement is not the failure mode this gate
    # exists for. A superlinear blowup in the interprocedural analysis —
    # the failure mode it DOES exist for — lands in whole seconds and
    # clears the floor on any hardware.
    budget = max(base_ms * tol, 2000.0)
    verdict = "FAIL" if new_ms > budget else "  ok"
    print(f"{verdict}  lint wall time: baseline {base_ms:.0f} ms -> "
          f"{new_ms:.0f} ms (budget {budget:.0f} ms = max({tol:g}x baseline, "
          f"2000 ms))")
    if new_ms > budget:
        print(f"bench_compare: aegis-lint run exceeded its wall-time "
              f"budget; profile phase 1/2 or re-baseline BENCH_lint.json "
              f"deliberately", file=sys.stderr)
        return 1
    return 0


def frontier_cells(doc, path):
    cells = doc.get("cells")
    if not isinstance(cells, list) or not cells:
        print(f"bench_compare: {path} has no 'cells' array", file=sys.stderr)
        sys.exit(2)
    table = {}
    for cell in cells:
        try:
            key = (cell["attacker"], cell["defense"], float(cell["epsilon"]))
            accuracy = float(cell["attack_accuracy"])
        except (TypeError, KeyError, ValueError) as e:
            print(f"bench_compare: malformed cell in {path}: {e}",
                  file=sys.stderr)
            sys.exit(2)
        if key in table:
            print(f"bench_compare: duplicate cell {key} in {path}",
                  file=sys.stderr)
            sys.exit(2)
        table[key] = accuracy
    return table


def compare_security(base_path, fresh_path):
    """Directional per-cell gate: attack accuracy may drop, not rise."""
    baseline = frontier_cells(load(base_path), base_path)
    fresh = frontier_cells(load(fresh_path), fresh_path)
    tol = security_tolerance()
    regressions = 0
    for key in sorted(fresh):
        attacker, defense, epsilon = key
        label = f"security {attacker} vs {defense} @ eps={epsilon:g}"
        if key not in baseline:
            # A cell with no committed counterpart cannot be gated; treat it
            # as a hard failure so matrix drift re-baselines deliberately.
            print(f"FAIL  {label}: cell missing from baseline {base_path}")
            regressions += 1
            continue
        base, new = baseline[key], fresh[key]
        delta = new - base
        verdict = "FAIL" if delta > tol else ("  ok" if delta >= 0 else "good")
        print(f"{verdict}  {label}: accuracy {base:.4f} -> {new:.4f} "
              f"({'+' if delta >= 0 else ''}{delta * 100:.2f} pts, "
              f"tolerance +{tol * 100:.0f} pts)")
        if delta > tol:
            regressions += 1
    skipped = len(baseline) - sum(1 for k in fresh if k in baseline)
    if skipped:
        print(f"note  {skipped} baseline cell(s) not exercised by this run "
              f"(smoke subset)")
    return regressions


def note_engine_mismatch(baseline, fresh):
    base_engine = baseline.get("engine")
    fresh_engine = fresh.get("engine")
    if base_engine and fresh_engine and base_engine != fresh_engine:
        print(f"note  engine changed: baseline ran {base_engine!r}, fresh "
              f"ran {fresh_engine!r} — deltas include the dispatch change")


def check_backend_match(label, baseline, fresh):
    """Hard gate on the PMU backend provenance fields.

    Unlike a SIMD engine swap (same numbers, different kernel), a backend
    or cpu_model mismatch means the two artifacts measured DIFFERENT event
    databases — an AEGIS_CPU=intel run diffed against the committed AMD
    baseline compares nothing comparable, so it fails rather than notes.
    Artifacts predating the backend layer carry neither field and are
    compared as before. Returns the number of regressions (0 or 1 per
    field).
    """
    regressions = 0
    for field in ("backend", "cpu_model"):
        base, new = baseline.get(field), fresh.get(field)
        if not isinstance(base, str) or not isinstance(new, str):
            continue  # pre-backend artifact (or hotpath's "cpu" object)
        if base != new:
            print(f"FAIL  {label} {field} mismatch: baseline measured "
                  f"{base!r}, fresh measured {new!r} — not comparable; "
                  f"re-baseline or rerun with the matching AEGIS_CPU")
            regressions += 1
    return regressions


def check_recorder_overhead(fresh):
    """Absolute gate on the flight recorder's execute_once overhead.

    The recorder is always-on in production, so its cost is gated against a
    fixed ceiling (default 2% on execute_once), not against the baseline:
    a slow baseline must not grandfather in a slow recorder. Artifacts
    predating the flight_recorder section pass untouched. The raw
    measurement is an on-minus-off delta of two short runs, so it can be
    negative (noise); only the positive direction gates.
    """
    section = fresh.get("flight_recorder")
    if not isinstance(section, dict):
        return 0  # pre-recorder artifact
    try:
        pct = float(section["recorder_overhead_pct"])
    except (KeyError, TypeError, ValueError):
        print("FAIL  hotpath flight_recorder section is malformed "
              "(recorder_overhead_pct missing or non-numeric)")
        return 1
    ceiling = 2.0
    raw = os.environ.get("AEGIS_RECORDER_OVERHEAD_PCT", "")
    if raw:
        try:
            ceiling = float(raw)
        except ValueError:
            print(f"bench_compare: bad AEGIS_RECORDER_OVERHEAD_PCT {raw!r}",
                  file=sys.stderr)
            sys.exit(2)
    verdict = "FAIL" if pct > ceiling else "  ok"
    print(f"{verdict}  hotpath recorder_overhead_pct: {pct:+.2f}% on "
          f"execute_once (absolute ceiling {ceiling:g}%)")
    return 1 if pct > ceiling else 0


def compare(metrics, baseline, fresh, tol):
    """Returns the number of regressions, printing one line per metric."""
    regressions = 0
    for label, extract, higher_is_better in metrics:
        try:
            base = extract(baseline)
            new = extract(fresh)
        except MetricError as e:
            # A missing metric is a hard failure: silently skipping it would
            # make the gate pass vacuously after a rename.
            print(f"FAIL  {label}: {e}")
            regressions += 1
            continue
        if base <= 0:
            print(f"skip  {label}: non-positive baseline {base}")
            continue
        # ratio > 0 means worse, as a fraction of the baseline.
        if higher_is_better:
            ratio = (base - new) / base
        else:
            ratio = (new - base) / base
        verdict = "FAIL" if ratio > tol else ("  ok" if ratio >= 0 else "good")
        print(f"{verdict}  {label}: baseline {base:.2f} -> {new:.2f} "
              f"({'-' if ratio > 0 else '+'}{abs(ratio) * 100:.1f}% "
              f"{'worse' if ratio > 0 else 'better'}, tolerance "
              f"{tol * 100:.0f}%)")
        if ratio > tol:
            regressions += 1
    return regressions


def finish(regressions, tol):
    if regressions:
        print(f"bench_compare: {regressions} metric(s) regressed beyond "
              f"{tol * 100:.0f}%", file=sys.stderr)
        return 1
    print("bench_compare: all headline metrics within tolerance")
    return 0


def main(argv):
    if len(argv) == 4 and argv[1] == "--security":
        regressions = check_backend_match("security", load(argv[2]),
                                          load(argv[3]))
        regressions += compare_security(argv[2], argv[3])
        if regressions:
            print(f"bench_compare: {regressions} security cell(s) regressed",
                  file=sys.stderr)
            return 1
        print("bench_compare: no security cell rose above tolerance")
        return 0
    if len(argv) == 4 and argv[1] == "--lint":
        failures = compare_lint(argv[2], argv[3])
        if failures:
            return 1
        print("bench_compare: lint runtime within budget")
        return 0
    if len(argv) == 4 and argv[1] == "--hotpath":
        baseline, fresh = load(argv[2]), load(argv[3])
        note_engine_mismatch(baseline, fresh)
        tol = tolerance()
        regressions = check_backend_match("hotpath", baseline, fresh)
        regressions += compare(HOTPATH_METRICS, baseline, fresh, tol)
        regressions += check_recorder_overhead(fresh)
        return finish(regressions, tol)
    if len(argv) == 4 and argv[1] == "--service":
        tol = tolerance()
        baseline, fresh = load(argv[2]), load(argv[3])
        regressions = check_backend_match("service", baseline, fresh)
        regressions += compare(SERVICE_METRICS, baseline, fresh, tol)
        return finish(regressions, tol)
    if len(argv) != 5:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    base_hot, fresh_hot, base_svc, fresh_svc = argv[1:5]
    tol = tolerance()
    baseline_hot, fresh_hot_doc = load(base_hot), load(fresh_hot)
    baseline_svc, fresh_svc_doc = load(base_svc), load(fresh_svc)
    note_engine_mismatch(baseline_hot, fresh_hot_doc)
    regressions = 0
    regressions += check_backend_match("hotpath", baseline_hot, fresh_hot_doc)
    regressions += check_backend_match("service", baseline_svc, fresh_svc_doc)
    regressions += compare(HOTPATH_METRICS, baseline_hot, fresh_hot_doc, tol)
    regressions += compare(SERVICE_METRICS, baseline_svc, fresh_svc_doc, tol)
    regressions += check_recorder_overhead(fresh_hot_doc)
    return finish(regressions, tol)


if __name__ == "__main__":
    sys.exit(main(sys.argv))
