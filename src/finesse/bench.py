"""Benchmark sweeps: cross product of circuits, fabrics, algorithms, seeds.

Each selected trial becomes one record, a dict: its algorithm, circuit,
topology and post-selection names, its metrics (``TrialMetrics.to_dict``),
``verified`` and its two percent changes against sabre.  Three files project
the records: ``results.csv`` holds their ``CSV_COLUMNS``, ``results.json``
holds each record without the two percentages, and ``summary.csv`` holds the
``SUMMARY_COLUMNS`` of their means per (algorithm, post-selection).

A record exists only for a route that passed the one verification policy,
`check_equivalence`; a route that fails it, or that no method can check,
aborts the sweep naming the offending run.  The sweep builds no routing
tables: `run_trials` looks up each circuit's plan and each fabric's
distances, so the configs may differ in any field.
"""
from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path

from .hardware import CouplingMap
from .ir import CircuitDag, is_clifford
from .qasm import load_qasm
from .router import RouterConfig, RoutingResult, run_trials, select_trial
from .verifier import (
    DEFAULT_TOL, STATEVECTOR_WIDTH_LIMIT, UNITARY_WIDTH_LIMIT, VerifierError, WidthError,
    clifford_equivalent, statevector_equivalent, unitary_equivalent,
)

CSV_COLUMNS = (
    "algorithm",
    "circuit",
    "topology",
    "post_selection",
    "lf_cost",
    "depth",
    "swaps",
    "mirrors",
    "pct_delta_lf_vs_sabre",
    "pct_delta_depth_vs_sabre",
)
SUMMARY_COLUMNS = (
    "algorithm",
    "post_selection",
    "mean_pct_delta_lf_vs_sabre",
    "mean_pct_delta_depth_vs_sabre",
    "runs",
)
CSV_FORMAT_VERSION = 1
_PCT_KEYS = ("pct_delta_lf_vs_sabre", "pct_delta_depth_vs_sabre")


class BenchError(RuntimeError):
    pass


def load_workloads(directory) -> dict[str, CircuitDag]:
    files = sorted(Path(directory).glob("*.qasm"))
    if not files:
        raise BenchError(f"no .qasm workloads found in {directory}")
    return {p.stem: load_qasm(p) for p in files}


def check_equivalence(ref: CircuitDag, routed: CircuitDag, perm, input_map=None, seed: int = 0,
                      tol: float = DEFAULT_TOL, method: str = "auto") -> tuple[tuple[str, ...], bool]:
    """(the methods run, in order; whether all passed), stopping at the first
    that fails.  A forced ``method`` runs alone; ``"auto"`` runs each its row
    allows, and raises WidthError when none does.  Built per call, the table
    calls each check through this module's globals, where a tracer swaps it."""
    n_ref, n = ref.num_qubits, max(ref.num_qubits, routed.num_qubits)
    table = (  # (method, whether auto runs it, its check)
        ("unitary", n <= UNITARY_WIDTH_LIMIT,
         lambda: unitary_equivalent(ref, routed, perm, tol=tol, input_map=input_map)),
        ("statevector", n > UNITARY_WIDTH_LIMIT and n_ref <= STATEVECTOR_WIDTH_LIMIT,
         lambda: statevector_equivalent(ref, routed, perm, tol=tol, seed=seed, input_map=input_map)),
        ("clifford", is_clifford(ref) and is_clifford(routed),
         lambda: clifford_equivalent(ref, routed, perm, input_map=input_map)),
    )
    rows = [(name, check) for name, auto, check in table if (auto if method == "auto" else name == method)]
    if not rows and method == "auto":
        raise WidthError(f"reference width {n_ref} exceeds {STATEVECTOR_WIDTH_LIMIT}, and a circuit is not Clifford")
    if not rows:
        raise VerifierError(f"unknown verification method {method!r}")
    ran = ()
    for name, check in rows:
        ran += (name,)
        if not check():
            return ran, False
    return ran, True


def verify_result(dag: CircuitDag, result: RoutingResult, seed: int = 0) -> tuple[str, ...]:
    """The methods `check_equivalence` ran on a route that passed them all."""
    try:
        methods, ok = check_equivalence(dag, result.circuit, result.output_permutation,
                                        result.initial_layout, seed)
    except WidthError as exc:
        raise BenchError(f"routed circuit cannot be verified: {exc}") from exc
    if not ok:
        raise BenchError(f"routed circuit failed verification by {methods[-1]} (trial seed {result.metrics.seed})")
    return methods


def run_bench(
    workloads: dict[str, CircuitDag],
    topologies: dict[str, CouplingMap],
    configs: tuple[RouterConfig, ...],
    post_modes: tuple[str, ...],
    seed: int,
) -> list[dict]:
    """Route and verify the full cross product, one config per algorithm;
    returns one record per selected trial.  Routes on one circuit share its
    `RoutePlan` and routes on one fabric its distance set, as `run_trials`
    looks both up."""
    algorithms = tuple(c.algorithm for c in configs)
    if "sabre" not in algorithms:
        raise BenchError("the sweep needs sabre as the percentage baseline")
    records: list[dict] = []
    for topo_name, cmap in sorted(topologies.items()):
        for circ_name, dag in sorted(workloads.items()):
            if dag.num_qubits > cmap.num_physical:
                raise BenchError(
                    f"{circ_name} ({dag.num_qubits}q) does not fit {topo_name}"
                )
            selected: dict[tuple[str, str], RoutingResult] = {}
            verified_ids: set[int] = set()
            for config in configs:
                algo = config.algorithm
                trials = run_trials(dag, cmap, config, seed=seed)
                for mode in post_modes:
                    best = select_trial(trials, replace(config, post_selection=mode))
                    if id(best) not in verified_ids:
                        try:
                            verify_result(dag, best, seed=seed)
                        except BenchError as exc:
                            raise BenchError(
                                f"{circ_name} on {topo_name} with {algo}: {exc}"
                            ) from exc
                        verified_ids.add(id(best))
                    selected[(algo, mode)] = best
            for mode in post_modes:
                base = selected[("sabre", mode)].metrics
                if not base.lf_cost or not base.depth:
                    raise BenchError(
                        f"{circ_name} on {topo_name} ({mode}): sabre's LF cost or depth is 0, "
                        "so there is no baseline for the percentages"
                    )
                for algo in algorithms:
                    m = selected[(algo, mode)].metrics
                    records.append(
                        {
                            "algorithm": algo,
                            "circuit": circ_name,
                            "topology": topo_name,
                            "post_selection": mode,
                            **m.to_dict(),
                            "verified": True,
                            "pct_delta_lf_vs_sabre": 100.0 * (m.lf_cost - base.lf_cost) / base.lf_cost,
                            "pct_delta_depth_vs_sabre": 100.0 * (m.depth - base.depth) / base.depth,
                        }
                    )
    return records


def summarize(records: list[dict]) -> list[dict]:
    """Mean percent change vs sabre per (algorithm, post-selection)."""
    keys = sorted({(r["algorithm"], r["post_selection"]) for r in records})
    out = []
    for algo, mode in keys:
        sel = [r for r in records if r["algorithm"] == algo and r["post_selection"] == mode]
        out.append(
            {
                "algorithm": algo,
                "post_selection": mode,
                "mean_pct_delta_lf_vs_sabre": sum(r["pct_delta_lf_vs_sabre"] for r in sel) / len(sel),
                "mean_pct_delta_depth_vs_sabre": sum(r["pct_delta_depth_vs_sabre"] for r in sel) / len(sel),
                "runs": len(sel),
            }
        )
    return out


def to_csv(records: list[dict], columns: tuple[str, ...]) -> str:
    """The versioned CSV of `columns`, one line per record; a cell is str(value),
    which for a float is its repr."""
    lines = [f"# format_version={CSV_FORMAT_VERSION}", ",".join(columns)]
    lines.extend(",".join(str(r[c]) for c in columns) for r in records)
    return "\n".join(lines) + "\n"


def write_outputs(records: list[dict], summary: list[dict], out_dir) -> dict[str, Path]:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {
        "results_csv": out / "results.csv",
        "results_json": out / "results.json",
        "summary_csv": out / "summary.csv",
    }
    run_records = [{k: v for k, v in r.items() if k not in _PCT_KEYS} for r in records]
    paths["results_csv"].write_text(to_csv(records, CSV_COLUMNS))
    paths["results_json"].write_text(json.dumps(run_records, indent=2, sort_keys=True) + "\n")
    paths["summary_csv"].write_text(to_csv(summary, SUMMARY_COLUMNS))
    return paths
