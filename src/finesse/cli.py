"""Command-line entry point: allocate, transpile, bench, verify.

Exit codes: 0 success; 1 an infeasible allocation, or a BenchError (a route
that fails its equivalence checks or that no method can check, or a sweep
that cannot run), which `main` prints as one ``<command> aborted:`` line;
2 for every refused input: a command raises ValueError (each typed error of
the library is one) or OSError, and `main` prints it under the usage line.
All randomness derives from --seed.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import bench as bench_mod
from . import freqalloc as fa
from .checks import real
from .hardware import as_integer, fabric_suite, load_json, load_topology, read_field
from .qasm import load_qasm, serialize_qasm
from .router import ALGORITHMS, RouterConfig, RoutingError, transpile
from .verifier import DEFAULT_TOL
from .weyl import BasisGate, swap_count
from .workloads import write_suite

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_USAGE = 2
ROUTER_DEFAULTS = RouterConfig()


def parse_frequency(value) -> float:
    """Hz, finite and >= 0: a number, or a string like '4.2 GHz' / '200MHz'."""
    if isinstance(value, str):
        text, scale = value.strip().lower().replace(" ", ""), 1.0
        for suffix, unit in (("ghz", 1e9), ("mhz", 1e6), ("khz", 1e3), ("hz", 1.0)):
            if text.endswith(suffix):
                text, scale = text[: -len(suffix)], unit
                break
        value = float(text) * scale
    return float(real(value, "a frequency", ValueError))


# --- allocate -------------------------------------------------------------


def _seed_option(text: str) -> int:
    """--seed's type: the parser names the option in its error."""
    try:
        return as_integer(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be an integer >= 0, not {text!r}") from None


def _bounds(value) -> fa.FrequencyBounds:
    """{"qubit": [lo, hi], "snail": [lo, hi]}; a band left out keeps its default."""
    bands = dict(value)
    return fa.FrequencyBounds(
        **{band: (parse_frequency(lo), parse_frequency(hi)) for band, (lo, hi) in bands.items()}
    )


def cmd_allocate(args) -> int:
    source = args.config
    config = load_json(source) if source else {}

    def read(key, convert, default):
        """convert(config[key]), or default; a bad value raises TopologyError."""
        if key not in config:
            return default
        return read_field(config, key, convert, "allocate config", source)

    modules = read("module_sizes", lambda v: [fa.FreqModule(as_integer(n)) for n in v],
                   [fa.FreqModule(n) for n in (2, 3, 4, 5)])
    k = read("k", lambda v: fa.worst_gate_exclusion(as_integer(v), modules), 0)
    delta_q = read("delta_q", parse_frequency, fa.DEFAULT_DELTA_Q)
    restarts = read("restarts", lambda v: fa.restart_count(as_integer(v)), fa.NM_RESTARTS)
    seed = args.seed if args.seed is not None else read("seed", as_integer, 0)
    bounds = read("bounds", _bounds, fa.FrequencyBounds())
    constants = read("constants", lambda v: fa.PhysicalConstants(**v), fa.PhysicalConstants())
    if config.get("fit_params"):
        params = read("fit_params", lambda v: fa.CostModelParams(**v), None)
    else:
        params = fa.calibrate_cost_model(constants)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    sep_lines = [
        "module_size,geometric_mean_fidelity,min_interaction_separation_hz,"
        "min_qubit_separation_hz,feasible"
    ]
    any_infeasible = False
    for module in modules:
        n = module.num_qubits
        assign, report = fa.optimize_frequencies(
            module, bounds, params, k=k, delta_q=delta_q, seed=seed, restarts=restarts
        )
        payload = {
            "format_version": 1,
            "module_size": n,
            "omega_q_hz": list(assign.omega_q),
            "omega_s_hz": assign.omega_s,
            "report": report.to_dict(),
            "k": k,
            "delta_q_hz": delta_q,
            "seed": seed,
        }
        (out / f"report_n{n}.json").write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        spec = fa.fidelity_table(report, name=f"allocated_n{n}", drop_worst=k)
        (out / f"modulespec_n{n}.json").write_text(
            json.dumps(spec.to_fixture(), indent=2, sort_keys=True) + "\n"
        )
        sep = report.min_interaction_separation
        sep_lines.append(
            f"{n},{report.geometric_mean_fidelity!r},"
            f"{(-1.0 if sep == float('inf') else sep)!r},"
            f"{report.min_qubit_separation!r},{int(report.feasible)}"
        )
        any_infeasible = any_infeasible or not report.feasible
        print(
            f"n={n}: geometric-mean fidelity {report.geometric_mean_fidelity:.4f}, "
            f"min qubit separation {report.min_qubit_separation / 1e6:.1f} MHz, "
            f"{'feasible' if report.feasible else 'INFEASIBLE'}"
        )
    (out / "separations.csv").write_text("\n".join(sep_lines) + "\n")
    return EXIT_FAILED if any_infeasible else EXIT_OK


# --- transpile ------------------------------------------------------------


ROUTER_OPTIONS = {"num_seeds": "--seeds", "beta": "--beta", "extended_size": "--extended-size",
                  "aggression": "--aggression"}


def _router_config(**fields) -> RouterConfig:
    """RouterConfig(**fields); a field it refuses is named by its option."""
    try:
        return RouterConfig(**fields)
    except RoutingError as exc:
        name, _, reason = str(exc).partition(" ")
        raise RoutingError(f"{ROUTER_OPTIONS.get(name, name)} {reason}") from exc


def cmd_transpile(args) -> int:
    dag = load_qasm(args.circuit)
    cmap = load_topology(args.topology)
    config = _router_config(
        algorithm=args.algorithm, num_seeds=args.seeds, beta=args.beta,
        extended_size=args.extended_size, aggression=args.aggression,
        post_selection=args.post_selection, basis=BasisGate.from_name(args.basis),
    )
    result = transpile(dag, cmap, config, seed=args.seed)
    methods = bench_mod.verify_result(dag, result, seed=args.seed)
    routed_text = serialize_qasm(result.circuit)
    if args.out:
        Path(args.out).write_text(routed_text)
    else:
        sys.stdout.write(routed_text)
    if args.metrics:
        payload = {
            "algorithm": config.algorithm,
            "metrics": result.metrics.to_dict(),
            "initial_layout": list(result.initial_layout),
            "final_layout": list(result.final_layout),
            "output_permutation": list(result.output_permutation),
            "verified": True,
            "methods": list(methods),
        }
        Path(args.metrics).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return EXIT_OK


# --- bench ----------------------------------------------------------------


def cmd_bench(args) -> int:
    # Resolve every option before writing anything, so that a bad one leaves
    # no files behind; swap_count refuses a basis that cannot route a SWAP.
    basis = BasisGate.from_name(args.basis)
    swap_count(basis)
    configs = tuple(
        _router_config(algorithm=algo, num_seeds=args.seeds, basis=basis, beta=args.beta)
        for algo in args.algorithms.split(",")
    )
    if "sabre" not in (c.algorithm for c in configs):
        raise ValueError("--algorithms must include sabre, the percentage baseline")
    if args.topologies == "all":
        topologies = fabric_suite()
    else:
        topologies = {name: load_topology(name) for name in args.topologies.split(",")}
    workdir = Path(args.workloads)
    if not any(workdir.glob("*.qasm")):  # a missing directory globs nothing
        workdir.mkdir(parents=True, exist_ok=True)
        write_suite(workdir)
        print(f"generated builtin workload suite in {workdir}")
    workloads = bench_mod.load_workloads(workdir)
    post_modes = ("native", "fidelity") if args.post_selection == "both" else (args.post_selection,)
    records = bench_mod.run_bench(workloads, topologies, configs=configs, post_modes=post_modes, seed=args.seed)
    summary = bench_mod.summarize(records)
    paths = bench_mod.write_outputs(records, summary, args.out)
    for s in summary:
        print(
            f"{s['algorithm']:8s} {s['post_selection']:8s} "
            f"mean dLF {s['mean_pct_delta_lf_vs_sabre']:+.2f}%  "
            f"mean dDepth {s['mean_pct_delta_depth_vs_sabre']:+.2f}%  ({s['runs']} runs)"
        )
    print(f"wrote {paths['results_csv']}, {paths['summary_csv']}, {paths['results_json']}")
    return EXIT_OK


# --- verify ---------------------------------------------------------------


def _wire_list(option: str, text: str) -> list[int]:
    """The wires of a comma list; an entry that is not an integer raises
    ValueError naming the option and the entry."""
    wires = []
    for entry in text.split(","):
        try:
            wires.append(int(entry))
        except ValueError:
            raise ValueError(f"{option}: {entry!r} is not a wire number") from None
    return wires


def cmd_verify(args) -> int:
    ref, routed = load_qasm(args.reference), load_qasm(args.routed)
    perm = _wire_list("--perm", args.perm) if args.perm else list(range(routed.num_qubits))
    input_map = _wire_list("--input-map", args.input_map) if args.input_map else None
    verdict = {"reference": str(Path(args.reference)), "routed": str(Path(args.routed)), "methods": []}
    try:
        methods, ok = bench_mod.check_equivalence(ref, routed, perm, input_map, args.seed, args.tol,
                                                  args.method)
        verdict.update(methods=list(methods), equivalent=ok)
    except ValueError as exc:  # every verifier error is a ValueError
        ok, verdict["error"] = False, str(exc)
    print(json.dumps(verdict, indent=2, sort_keys=True))
    return EXIT_OK if ok else EXIT_FAILED


# --- parser ---------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="finesse",
        description="Frequency allocation and fidelity-aware routing for coupler fabrics",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_alloc = sub.add_parser("allocate", help="optimize module frequency assignments")
    p_alloc.add_argument("--config", help="JSON config (bounds, delta_q, k, constants)")
    p_alloc.add_argument("--out", default="out/allocate", help="output directory")
    p_alloc.add_argument("--seed", type=_seed_option, default=None)
    p_alloc.set_defaults(func=cmd_allocate)

    p_trans = sub.add_parser("transpile", help="route one circuit onto a fabric")
    p_trans.add_argument("circuit", help="OpenQASM 2 file")
    p_trans.add_argument("--topology", default="4q4e", help="Table-3 name, fixture or calibration JSON")
    p_trans.add_argument("--algorithm", default="finesse", choices=ALGORITHMS)
    p_trans.add_argument("--seeds", type=int, default=ROUTER_DEFAULTS.num_seeds, help="routing trials")
    p_trans.add_argument("--seed", type=_seed_option, default=0)
    p_trans.add_argument("--beta", type=float, default=ROUTER_DEFAULTS.beta)
    p_trans.add_argument("--extended-size", type=int, default=ROUTER_DEFAULTS.extended_size)
    p_trans.add_argument("--aggression", type=int, default=ROUTER_DEFAULTS.aggression)
    p_trans.add_argument("--post-selection", default=ROUTER_DEFAULTS.post_selection,
                         choices=("native", "fidelity"))
    p_trans.add_argument("--basis", default="siswap")
    p_trans.add_argument("--out", help="routed QASM path (default stdout)")
    p_trans.add_argument("--metrics", help="metrics JSON path")
    p_trans.set_defaults(func=cmd_transpile)

    p_bench = sub.add_parser("bench", help="full benchmark cross product")
    p_bench.add_argument("--workloads", default="out/workloads",
                         help="directory of .qasm files (builtin suite generated if empty)")
    p_bench.add_argument("--out", default="out/bench")
    p_bench.add_argument("--topologies", default="all", help="comma list of names/files, or 'all'")
    p_bench.add_argument("--algorithms", default=",".join(ALGORITHMS))
    p_bench.add_argument("--post-selection", default="both", choices=("both", "native", "fidelity"))
    p_bench.add_argument("--seeds", type=int, default=ROUTER_DEFAULTS.num_seeds)
    p_bench.add_argument("--seed", type=_seed_option, default=0)
    p_bench.add_argument("--beta", type=float, default=ROUTER_DEFAULTS.beta)
    p_bench.add_argument("--basis", default="siswap")
    p_bench.set_defaults(func=cmd_bench)

    p_verify = sub.add_parser("verify", help="check two circuits for equivalence")
    p_verify.add_argument("reference")
    p_verify.add_argument("routed")
    p_verify.add_argument("--perm", help="output wire -> reference wire, comma list")
    p_verify.add_argument("--input-map", help="reference wire -> input wire, comma list")
    p_verify.add_argument("--method", default="auto", choices=("auto", "unitary", "statevector", "clifford"),
                          help="auto runs the policy's table: unitary within its width limit, else statevector "
                               "within its own, then clifford when both are Clifford; a named method runs alone")
    p_verify.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p_verify.add_argument("--seed", type=_seed_option, default=0)
    p_verify.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except bench_mod.BenchError as exc:  # a route that fails its checks, or a sweep that cannot run
        print(f"{args.command} aborted: {exc}", file=sys.stderr)
        return EXIT_FAILED
    except (ValueError, OSError) as exc:
        parser.error(str(exc))  # exits with EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
