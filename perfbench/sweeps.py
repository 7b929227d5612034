"""Workload definitions, set-up, and the per-unit correctness gate.

A workload is a fixed list of units; one sweep runs every unit once.  A
routing unit is one (circuit, fabric, algorithm): run the trials, select a
trial under each post-selection mode, verify it, and check it independently.
An allocation unit is one module size: optimise its frequencies and check
the report.  Each unit yields rows: the digest input, and the source of the
quality figures.
"""
from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import dataclass, replace

from finesse import bench, freqalloc, hardware, qasm, router, weyl, workloads
from finesse.bench import BenchError
from finesse.router import RoutingError
from finesse.verifier import WidthError
from finesse.weyl import UnreachableError

POST_MODES = ("native", "fidelity")


class CheckFailed(Exception):
    """A routed circuit or allocation report that the benchmark rejects."""


# Errors a unit may raise on a bad input or a wrong result; any of them fails
# the unit without ending the run.
UNIT_ERRORS = (RoutingError, UnreachableError, WidthError, BenchError, CheckFailed)


@dataclass(frozen=True)
class RouteWorkload:
    cases: tuple[tuple[str, str, str], ...]  # (circuit, fabric, algorithm)
    trials: int

    def units(self):
        return list(self.cases)


def every_algorithm(circuits, fabric):
    return tuple((c, fabric, a) for c in circuits for a in router.ALGORITHMS)


@dataclass(frozen=True)
class AllocateWorkload:
    sizes: tuple[int, ...]

    def units(self):
        return list(self.sizes)


# Why each workload exists, with the layer it loads, is recorded in
# BENCHMARK.json.  The unit lists are cut so that a sweep takes about ten
# seconds on a 2-vCPU host, and a run fits three sweeps, from which each
# unit's latency is a median.  route-sweep keeps one fabric and 12 trials.
# verify-wide routes adder_15 on two fabrics and bv_13 on one, so that its
# median and tail units are both 15-wide statevector ones.
WORKLOADS = {
    "route-sweep": RouteWorkload(
        cases=every_algorithm(("qft_10", "qaoa_12", "seca_11", "wstate_08"), "4q6e"),
        trials=12,
    ),
    "verify-wide": RouteWorkload(
        cases=(("adder_15", "4q4e", "sabre"), ("adder_15", "5q7e", "finesse"),
               ("bv_13", "4q4e", "finesse")),
        trials=4,
    ),
    "allocate": AllocateWorkload(sizes=(2, 3, 4, 5)),
}


@dataclass
class Setup:
    circuits: dict
    fabrics: dict
    dists: dict
    basis: weyl.BasisGate
    params: freqalloc.CostModelParams
    stages: dict
    gates_parsed: int


def build_setup() -> Setup:
    """Suite generation and parse, fabrics, distance sets, first swap count,
    and calibration, each stage timed."""
    stages = {}

    t = time.perf_counter()
    texts = {name: qasm.serialize_qasm(dag) for name, dag in workloads.suite().items()}
    stages["workloads.suite_s"] = time.perf_counter() - t

    t = time.perf_counter()
    circuits = {name: qasm.parse_qasm(text) for name, text in texts.items()}
    stages["qasm.parse_s"] = time.perf_counter() - t

    t = time.perf_counter()
    basis = weyl.BasisGate.root_iswap(2)
    k_swap = weyl.swap_count(basis)
    stages["weyl.swap_count_first_s"] = time.perf_counter() - t

    t = time.perf_counter()
    fabrics = hardware.fabric_suite()
    dists = {name: hardware.build_distance_set(cmap, k_swap) for name, cmap in fabrics.items()}
    stages["hardware.distance_set_s"] = time.perf_counter() - t

    t = time.perf_counter()
    params = freqalloc.calibrate_cost_model()
    stages["freqalloc.calibrate_s"] = time.perf_counter() - t

    return Setup(
        circuits=circuits,
        fabrics=fabrics,
        dists=dists,
        basis=basis,
        params=params,
        stages=stages,
        gates_parsed=sum(len(dag.gates) for dag in circuits.values()),
    )


@dataclass
class UnitResult:
    rows: list            # JSON-serialisable dicts: the digest input
    routed_2q: int = 0    # two-qubit gates routed, over all passes and trials


def two_qubit_count(dag) -> int:
    return sum(1 for g in dag.gates if g.is_two_qubit)


def check_routed(result, cmap, basis) -> None:
    """Every 2q gate on a fabric edge, and LF cost = sum k * (-ln C)."""
    fid = {}
    for i, j, c in cmap.edges:
        fid[(i, j)] = fid[(j, i)] = c
    total = 0.0
    for g in result.circuit.gates:
        if not g.is_two_qubit:
            continue
        if g.wires not in fid:
            raise CheckFailed(f"gate {g.kind}{g.wires} is not on a fabric edge")
        total += weyl.gate_count(g, basis) * -math.log(fid[g.wires])
    reported = result.metrics.lf_cost
    if abs(total - reported) > 1e-12 * max(1.0, abs(total)):
        raise CheckFailed(f"lf_cost {reported!r} differs from recomputed {total!r}")


def run_route_unit(setup: Setup, spec: RouteWorkload, unit, seed: int) -> UnitResult:
    circuit, fabric, algorithm = unit
    dag, cmap = setup.circuits[circuit], setup.fabrics[fabric]
    config = router.RouterConfig(algorithm=algorithm, num_seeds=spec.trials, basis=setup.basis)
    trials = router.run_trials(dag, cmap, config, seed=seed, dists=setup.dists[fabric])
    rows = []
    for mode in POST_MODES:
        best = router.select_trial(trials, replace(config, post_selection=mode))
        # Both selections are verified even when they are the same trial, so
        # that a unit's work does not depend on the seed.
        bench.verify_result(dag, best, seed=seed)
        check_routed(best, cmap, setup.basis)
        rows.append({"circuit": circuit, "fabric": fabric, "algorithm": algorithm,
                     "mode": mode, **best.metrics.to_dict()})
    return UnitResult(rows, routed_2q=3 * spec.trials * two_qubit_count(dag))


def run_allocate_unit(setup: Setup, size: int, seed: int) -> UnitResult:
    bounds = freqalloc.FrequencyBounds()
    # The allocate command's defaults: k=0, default spacing, 16 restarts.
    assign, report = freqalloc.optimize_frequencies(
        freqalloc.FreqModule(size), bounds, setup.params, seed=seed)
    if not report.feasible:
        raise CheckFailed(f"n={size}: allocation is infeasible")
    (q_lo, q_hi), (s_lo, s_hi) = bounds.qubit, bounds.snail
    if not all(q_lo <= w <= q_hi for w in assign.omega_q) or not s_lo <= assign.omega_s <= s_hi:
        raise CheckFailed(f"n={size}: a frequency lies outside its band")
    return UnitResult([{"size": size, "omega_q_hz": list(assign.omega_q),
                        "omega_s_hz": assign.omega_s, "report": report.to_dict()}])


def run_unit(setup: Setup, spec, unit, seed: int) -> UnitResult:
    if isinstance(spec, AllocateWorkload):
        return run_allocate_unit(setup, unit, seed)
    return run_route_unit(setup, spec, unit, seed)


def digest(rows) -> str:
    h = hashlib.sha256()
    for row in rows:
        h.update(json.dumps(row, sort_keys=True).encode())
        h.update(b"\n")
    return h.hexdigest()
