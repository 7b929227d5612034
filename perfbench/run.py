"""Benchmark of the finesse package: routing, verification and allocation.

Run from the repository root:

    python3 perfbench/run.py --workload route-sweep --seed 0 --seconds 30 --trace 0

It times three fresh-process set-ups, then repeats sweeps of the workload's
units (one caller, each unit waited for) until --seconds have passed.
Every unit is checked; every sweep must give the same digest.  End-to-end
timings are in reference seconds: each is scaled by a host-speed probe run
next to it (hostspeed.py), and the record keeps the raw wall time too.  With
--trace 1 sweeps alternate untraced and traced, and the metrics are the
per-layer ones.  The last line of standard output is the
result as JSON; the line before it records the environment and the digest.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# One BLAS thread: a second one would share the host's cores with the caller.
THREAD_CAP = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 3
MIN_PLAIN_SWEEPS = 3  # untraced sweeps, so that each unit has a median of three
RUN_BUDGET_S = 150.0  # nor after this, whatever --seconds says


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def probe_setup() -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py")],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_sweeps(setup, spec, args, tracer):
    """Sweep the workload's units until args.seconds have passed.

    Without tracing there are at least MIN_PLAIN_SWEEPS sweeps.  With
    tracing, every second sweep is traced, and there are at least two so
    that an untraced sweep gives the overhead and the digest to match.
    """
    import hostspeed
    import sweeps
    import tracing

    units = spec.units()
    min_sweeps = 2 if args.trace else MIN_PLAIN_SWEEPS
    attempted = failed = 0
    sweep_log = []  # dicts: wall, traced, rows, unit_times, probes, routed_2q
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        # Past the minimum, start no sweep that would end after the run.
        if len(sweep_log) >= min_sweeps and (
            elapsed + sweep_log[-1]["wall"] > min(args.seconds, RUN_BUDGET_S)
        ):
            break
        traced = bool(args.trace) and len(sweep_log) % 2 == 1
        rows, unit_times, routed_2q = [], [], 0
        gc.collect()  # not inside a timed unit
        t_sweep = time.perf_counter()
        probes = [hostspeed.probe()]  # probes[i] and probes[i + 1] bracket unit i
        with tracing.instrument(tracer) if traced else nullcontext():
            for unit in units:
                attempted += 1
                t_unit = time.perf_counter()
                try:
                    with tracer.span("unit") if traced else nullcontext():
                        result = sweeps.run_unit(setup, spec, unit, args.seed)
                except sweeps.UNIT_ERRORS as exc:
                    failed += 1
                    rows.append({"failed": repr(unit), "error": type(exc).__name__})
                    print(f"unit {unit} failed: {type(exc).__name__}: {exc}", file=sys.stderr)
                    continue
                finally:
                    unit_times.append(time.perf_counter() - t_unit)
                    probes.append(hostspeed.probe())
                rows.extend(result.rows)
                routed_2q += result.routed_2q
        sweep_log.append({
            "wall": time.perf_counter() - t_sweep,
            "traced": traced,
            "rows": rows,
            "unit_times": unit_times,
            "probes": probes,
            "routed_2q": routed_2q,
        })
    return sweep_log, attempted, failed


def main(argv=None) -> int:
    args = parse_args(argv)
    load_at_start = os.getloadavg()
    if not (ROOT / "src" / "finesse" / "__init__.py").is_file():
        print(f"error: no finesse sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = str(THREAD_CAP)
    sys.path.insert(0, str(ROOT / "src"))

    # Imported only now: BLAS reads its thread cap when numpy loads.
    import numpy
    import scipy

    import hostspeed
    import metrics
    import sweeps
    import tracing

    if args.workload not in sweeps.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(sweeps.WORKLOADS)}", file=sys.stderr)
        return 2
    spec = sweeps.WORKLOADS[args.workload]
    setup = sweeps.build_setup()
    setups = [probe_setup() for _ in range(SETUP_PROBES)]

    tracer = tracing.Tracer()
    sweep_log, attempted, failed = run_sweeps(setup, spec, args, tracer)

    plain = [s for s in sweep_log if not s["traced"]]
    traced_sweeps = [s for s in sweep_log if s["traced"]]
    digests = {sweeps.digest(s["rows"]) for s in sweep_log}
    rows = sweep_log[0]["rows"]
    # End-to-end timings are in reference seconds (see hostspeed.py): a set-up
    # is scaled by the probe its process ran next, a unit by its two probes.
    # Per-layer timings, from the traced sweeps, stay in raw seconds.
    setup_totals = [p["setup_s"] * hostspeed.scale(p["probe_s"]) for p in setups]
    # A unit's latency is its median over the run's untraced sweeps, so that
    # the percentiles do not depend on how many sweeps fit the run.
    unit_times = [statistics.median(times) for times in zip(*(s["unit_times"] for s in plain))]
    ref_unit_times = metrics.reference_latencies(plain)
    # A sweep's wall time is the sum of its units' medians: one slow or fast
    # stretch of the host then moves one sample, not the figure.
    plain_wall = sum(unit_times)
    route_2q_per_s = sweep_log[0]["routed_2q"] / plain_wall
    # Figures the contract cannot carry as end-to-end metrics: they are zero
    # or undefined on some workload.
    figures = {
        "fail_rate": (failed / attempted, "1"),
        "route_2q_per_s": (route_2q_per_s, "1/s"),
        **{name: (value, metrics.PER_LAYER_UNITS[name])
           for name, value in metrics.quality_summary(rows).items()},
    }

    if args.trace:
        traced_wall = statistics.median(s["wall"] for s in traced_sweeps)
        plain_sweep_wall = statistics.median(s["wall"] for s in plain)
        stage_medians = {
            name: statistics.median(p["stages"][name] for p in setups)
            for name in metrics.SETUP_STAGES
        }
        values = metrics.per_layer(
            tracer.spans, tracing.self_times(tracer.spans), len(traced_sweeps),
            stage_medians, setup.gates_parsed, rows, route_2q_per_s,
            100.0 * (traced_wall / plain_sweep_wall - 1.0),
        )
        units_of = metrics.PER_LAYER_UNITS
    else:
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        values = metrics.end_to_end(setup_totals, ref_unit_times, rows, peak_rss_mb)
        units_of = metrics.END_TO_END_UNITS

    _, tail_pct = metrics.tail(unit_times)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "digest": sweeps.digest(rows),
        "digests_agree": len(digests) == 1,
        "sweeps": len(sweep_log),
        "traced_sweeps": len(traced_sweeps),
        "units": len(unit_times),
        "unit_samples": sum(len(s["unit_times"]) for s in plain),
        "tail_percentile": tail_pct,
        "route_2q_per_sweep": sweep_log[0]["routed_2q"],
        "host_probe_s": statistics.median(p for s in plain for p in s["probes"]),
        "raw_wall_s": plain_wall,
        "figures": {name: {"value": v, "unit": u} for name, (v, u) in figures.items()},
        "env": {
            "nproc": os.cpu_count(),
            "blas_threads": THREAD_CAP,
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "loadavg_at_start": list(load_at_start),
        },
    }
    for name, value in values.items():
        print(f"{name:36s} {value!r} {units_of[name]}")
    for name, (value, unit) in figures.items():
        print(f"# {name:34s} {value!r} {unit}")
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0 and len(digests) == 1,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units_of[name]}
                    for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
