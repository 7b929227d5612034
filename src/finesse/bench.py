"""Benchmark sweeps: cross product of circuits, fabrics, algorithms, seeds.

Every emitted row corresponds to a routed circuit that passed statevector
verification (plus exact tableau comparison for Clifford circuits); a
verification failure aborts the sweep naming the offending run.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path

from .hardware import CouplingMap, build_distance_set
from .ir import CircuitDag, CLIFFORD_KINDS
from .qasm import parse_qasm
from .router import RouterConfig, RoutingResult, run_trials, select_trial
from .verifier import clifford_equivalent, statevector_equivalent
from .weyl import swap_count

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
CSV_FORMAT_VERSION = 1


class BenchError(RuntimeError):
    pass


@dataclass(frozen=True)
class BenchRow:
    algorithm: str
    circuit: str
    topology: str
    post_selection: str
    lf_cost: float
    depth: int
    swaps: int
    mirrors: int
    pct_delta_lf_vs_sabre: float
    pct_delta_depth_vs_sabre: float

    def to_csv(self) -> str:
        return ",".join(
            [
                self.algorithm,
                self.circuit,
                self.topology,
                self.post_selection,
                repr(self.lf_cost),
                str(self.depth),
                str(self.swaps),
                str(self.mirrors),
                repr(self.pct_delta_lf_vs_sabre),
                repr(self.pct_delta_depth_vs_sabre),
            ]
        )


def load_workloads(directory) -> dict[str, CircuitDag]:
    files = sorted(Path(directory).glob("*.qasm"))
    if not files:
        raise BenchError(f"no .qasm workloads found in {directory}")
    return {p.stem: parse_qasm(p.read_text()) for p in files}


def _is_clifford(dag: CircuitDag) -> bool:
    return all(g.kind in CLIFFORD_KINDS or g.kind == "barrier" for g in dag.gates)


def verify_result(dag: CircuitDag, result: RoutingResult, seed: int = 0) -> None:
    ok = statevector_equivalent(
        dag,
        result.circuit,
        result.output_permutation,
        seed=seed,
        input_map=result.initial_layout,
    )
    if ok and _is_clifford(dag):
        ok = clifford_equivalent(
            dag, result.circuit, result.output_permutation, input_map=result.initial_layout
        )
    if not ok:
        raise BenchError(
            f"routed circuit failed verification (trial seed {result.metrics.seed})"
        )


def run_bench(
    workloads: dict[str, CircuitDag],
    topologies: dict[str, CouplingMap],
    configs: tuple[RouterConfig, ...],
    post_modes: tuple[str, ...],
    seed: int,
) -> tuple[list[BenchRow], list[dict]]:
    """Route and verify the full cross product, one config per algorithm, all
    with one basis and beta; returns (rows, run records)."""
    algorithms = tuple(c.algorithm for c in configs)
    if "sabre" not in algorithms:
        raise BenchError("the sweep needs sabre as the percentage baseline")
    rows: list[BenchRow] = []
    records: list[dict] = []
    for topo_name, cmap in sorted(topologies.items()):
        dists = build_distance_set(cmap, swap_count(configs[0].basis), configs[0].beta)
        for circ_name, dag in sorted(workloads.items()):
            if dag.num_qubits > cmap.num_physical:
                raise BenchError(
                    f"{circ_name} ({dag.num_qubits}q) does not fit {topo_name}"
                )
            selected: dict[tuple[str, str], RoutingResult] = {}
            verified_ids: set[int] = set()
            for config in configs:
                algo = config.algorithm
                trials = run_trials(dag, cmap, config, seed=seed, dists=dists)
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
                for algo in algorithms:
                    m = selected[(algo, mode)].metrics
                    rows.append(
                        BenchRow(
                            algorithm=algo,
                            circuit=circ_name,
                            topology=topo_name,
                            post_selection=mode,
                            lf_cost=m.lf_cost,
                            depth=m.depth,
                            swaps=m.swap_count,
                            mirrors=m.mirror_count,
                            pct_delta_lf_vs_sabre=100.0 * (m.lf_cost - base.lf_cost) / base.lf_cost,
                            pct_delta_depth_vs_sabre=100.0 * (m.depth - base.depth) / base.depth,
                        )
                    )
                    records.append(
                        {
                            "algorithm": algo,
                            "circuit": circ_name,
                            "topology": topo_name,
                            "post_selection": mode,
                            **m.to_dict(),
                            "verified": True,
                        }
                    )
    return rows, records


def summarize(rows: list[BenchRow]) -> list[dict]:
    """Mean percent change vs sabre per (algorithm, post-selection)."""
    keys = sorted({(r.algorithm, r.post_selection) for r in rows})
    out = []
    for algo, mode in keys:
        sel = [r for r in rows if r.algorithm == algo and r.post_selection == mode]
        out.append(
            {
                "algorithm": algo,
                "post_selection": mode,
                "mean_pct_delta_lf_vs_sabre": sum(r.pct_delta_lf_vs_sabre for r in sel) / len(sel),
                "mean_pct_delta_depth_vs_sabre": sum(r.pct_delta_depth_vs_sabre for r in sel) / len(sel),
                "runs": len(sel),
            }
        )
    return out


def rows_to_csv(rows: list[BenchRow]) -> str:
    lines = [f"# format_version={CSV_FORMAT_VERSION}", ",".join(CSV_COLUMNS)]
    lines.extend(r.to_csv() for r in rows)
    return "\n".join(lines) + "\n"


def summary_to_csv(summary: list[dict]) -> str:
    lines = [
        f"# format_version={CSV_FORMAT_VERSION}",
        "algorithm,post_selection,mean_pct_delta_lf_vs_sabre,mean_pct_delta_depth_vs_sabre,runs",
    ]
    for s in summary:
        lines.append(
            f"{s['algorithm']},{s['post_selection']},{s['mean_pct_delta_lf_vs_sabre']!r},"
            f"{s['mean_pct_delta_depth_vs_sabre']!r},{s['runs']}"
        )
    return "\n".join(lines) + "\n"


def write_outputs(rows, records, summary, out_dir) -> dict[str, Path]:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {
        "results_csv": out / "results.csv",
        "results_json": out / "results.json",
        "summary_csv": out / "summary.csv",
    }
    paths["results_csv"].write_text(rows_to_csv(rows))
    paths["results_json"].write_text(json.dumps(records, indent=2, sort_keys=True) + "\n")
    paths["summary_csv"].write_text(summary_to_csv(summary))
    return paths
