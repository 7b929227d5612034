"""Statistics and the metric sets the benchmark emits.

End-to-end metrics come from untraced sweeps; per-layer metrics from the
spans of traced sweeps plus the timed stages of the set-up probes.  Totals
and counts are per sweep, so they do not depend on how many sweeps fit a run.
"""
from __future__ import annotations

import math
import statistics

import hostspeed

TAIL_BEYOND = 10

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "unit_s_p50": "s",
    "unit_s_tail": "s",
    "peak_rss_mb": "MB",
    "lf_cost_geomean": "nat",
}

SETUP_STAGES = (
    "setup.import_s",
    "workloads.suite_s",
    "qasm.parse_s",
    "hardware.distance_set_s",
    "weyl.swap_count_first_s",
    "freqalloc.calibrate_s",
)

PER_LAYER_UNITS = {
    **{name: "s" for name in SETUP_STAGES},
    "qasm.gates_per_s": "1/s",
    "router.pass_fwd_us_per_2q": "us",
    "router.pass_rev_us_per_2q": "us",
    "router.pass_final_us_per_2q": "us",
    "router.trial_us_per_2q": "us",
    "router.route_2q_per_s": "1/s",
    "router.trials_self_s": "s",
    "router.lf_cost_s": "s",
    "router.depth_s": "s",
    "router.passes": "count",
    "router.swaps_per_2q": "1",
    "router.mirrors": "count",
    "router.valve_fires": "count",
    "verifier.statevector_s_p50": "s",
    "verifier.statevector_s_total": "s",
    "verifier.statevector_calls": "count",
    "verifier.clifford_s_total": "s",
    "verifier.clifford_calls": "count",
    "freqalloc.nm_restart_s_p50": "s",
    "freqalloc.nfev_total": "count",
    "freqalloc.cost_eval_us": "us",
    "freqalloc.optimize_s.n2": "s",
    "freqalloc.optimize_s.n3": "s",
    "freqalloc.optimize_s.n4": "s",
    "freqalloc.optimize_s.n5": "s",
    "quality.depth_geomean": "layers",
    "quality.swaps_total": "count",
    "quality.finesse_dlf_vs_sabre_pct": "%",
    "quality.alloc_fidelity_geomean": "1",
    "trace.overhead_pct": "%",
}


def geomean(values) -> float:
    values = list(values)
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


def tail(values) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with ten units beyond it.

    In ascending order the unit at index n - 11 has ten units above it, at
    percentile 100 (n - 10) / n.  With fewer than 21 units that point falls
    below the median, so the maximum is reported, as percentile 100.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= 2 * TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def lf_cost(row) -> float:
    """A routed circuit's LF cost; for an allocated module, that of one use
    of each gate, sum of -ln(1 - eps)."""
    if "report" in row:
        return -sum(math.log1p(-e) for e in row["report"]["eps_gate"])
    return row["lf_cost"]


def reference_latencies(sweeps) -> list[float]:
    """Each unit's median latency over the sweeps, in reference seconds.

    A sweep's probes bracket its units; a unit's sample is scaled by the
    mean of the probe before it and the probe after it.
    """
    samples = [
        [t * hostspeed.scale((s["probes"][i] + s["probes"][i + 1]) / 2)
         for i, t in enumerate(s["unit_times"])]
        for s in sweeps
    ]
    return [statistics.median(unit) for unit in zip(*samples)]


def end_to_end(setup_totals, unit_times, rows, peak_rss_mb) -> dict:
    """unit_times holds one latency per distinct unit of the workload, its
    median over the run; a sweep's wall time is their sum."""
    tail_value, _ = tail(unit_times)
    return {
        "setup_s": statistics.median(setup_totals),
        "wall_s": sum(unit_times),
        "unit_s_p50": statistics.median(unit_times),
        "unit_s_tail": tail_value,
        "peak_rss_mb": peak_rss_mb,
        "lf_cost_geomean": geomean(lf_cost(r) for r in rows if "failed" not in r),
    }


def quality_summary(rows) -> dict:
    """Deterministic output figures of one sweep."""
    routed = [r for r in rows if "depth" in r]
    allocated = [r["report"] for r in rows if "report" in r]
    native = {(r["circuit"], r["fabric"], r["algorithm"]): r["lf_cost"]
              for r in routed if r["mode"] == "native"}
    deltas = [
        100.0 * (lf - native[(c, f, "sabre")]) / native[(c, f, "sabre")]
        for (c, f, a), lf in native.items()
        if a == "finesse" and (c, f, "sabre") in native
    ]
    return {
        "quality.depth_geomean": geomean(r["depth"] for r in routed),
        "quality.swaps_total": sum(r["swaps"] for r in routed),
        "quality.finesse_dlf_vs_sabre_pct": statistics.fmean(deltas) if deltas else 0.0,
        "quality.alloc_fidelity_geomean": geomean(
            r["geometric_mean_fidelity"] for r in allocated),
    }


def per_layer(spans, self_t, traced_sweeps, stage_medians, gates_parsed,
              rows, route_2q_per_s, overhead_pct) -> dict:
    def pick(name):
        return [(s, t) for s, t in zip(spans, self_t) if s.name == name]

    out = {name: stage_medians[name] for name in SETUP_STAGES}
    out["qasm.gates_per_s"] = _ratio(gates_parsed, stage_medians["qasm.parse_s"])

    passes = pick("router.route_pass")
    for kind in ("fwd", "rev", "final"):
        sel = [(s, t) for s, t in passes if s.attrs["kind"] == kind]
        out[f"router.pass_{kind}_us_per_2q"] = 1e6 * _ratio(
            sum(t for _, t in sel), sum(s.attrs["n2q"] for s, _ in sel))
    out["router.trial_us_per_2q"] = sum(
        out[f"router.pass_{kind}_us_per_2q"] for kind in ("fwd", "rev", "final"))
    out["router.route_2q_per_s"] = route_2q_per_s
    # run_trials outside its passes, LF cost and depth: layouts and circuit builds.
    out["router.trials_self_s"] = sum(t for _, t in pick("router.run_trials")) / traced_sweeps
    out["router.lf_cost_s"] = sum(t for _, t in pick("router.lf_cost")) / traced_sweeps
    out["router.depth_s"] = sum(t for _, t in pick("router.circuit_depth")) / traced_sweeps
    out["router.passes"] = len(passes) / traced_sweeps
    out["router.swaps_per_2q"] = _ratio(
        sum(s.attrs["swaps"] for s, _ in passes), sum(s.attrs["n2q"] for s, _ in passes))
    out["router.mirrors"] = sum(s.attrs["mirrors"] for s, _ in passes) / traced_sweeps
    out["router.valve_fires"] = sum(s.attrs["valve_fires"] for s, _ in passes) / traced_sweeps

    sv = [t for _, t in pick("verifier.statevector_equivalent")]
    cl = [t for _, t in pick("verifier.clifford_equivalent")]
    out["verifier.statevector_s_p50"] = statistics.median(sv) if sv else 0.0
    out["verifier.statevector_s_total"] = sum(sv) / traced_sweeps
    out["verifier.statevector_calls"] = len(sv) / traced_sweeps
    out["verifier.clifford_s_total"] = sum(cl) / traced_sweeps
    out["verifier.clifford_calls"] = len(cl) / traced_sweeps

    restarts = pick("freqalloc.minimize")
    nfev = sum(s.attrs["nfev"] for s, _ in restarts)
    out["freqalloc.nm_restart_s_p50"] = (
        statistics.median(t for _, t in restarts) if restarts else 0.0)
    out["freqalloc.nfev_total"] = nfev / traced_sweeps
    out["freqalloc.cost_eval_us"] = 1e6 * _ratio(sum(t for _, t in restarts), nfev)
    optimize = pick("freqalloc.optimize_frequencies")
    for size in (2, 3, 4, 5):
        walls = [s.end - s.start for s, _ in optimize if s.attrs["size"] == size]
        out[f"freqalloc.optimize_s.n{size}"] = statistics.median(walls) if walls else 0.0

    out.update(quality_summary(rows))
    out["trace.overhead_pct"] = overhead_pct
    return out
