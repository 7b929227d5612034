import csv
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path
from unittest.mock import Mock, patch

import pytest

import finesse
from finesse import bench, cli, freqalloc as fa, hardware, router, verifier
from finesse.cli import EXIT_FAILED, EXIT_OK, EXIT_USAGE, build_parser, main
from finesse.hardware import load_topology
from finesse.qasm import parse_qasm, serialize_qasm
from finesse.router import RouterConfig
from finesse.workloads import qft


def _allocate(tmp_path, config):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "out"
    return main(["allocate", "--config", str(cfg), "--out", str(out)]), out


class TestAllocate:
    def test_reports_match_build_report(self, tmp_path):
        code, out = _allocate(tmp_path, {"module_sizes": [2, 3], "restarts": 1, "seed": 4})
        assert code == EXIT_OK
        params = fa.calibrate_cost_model()
        for n in (2, 3):
            payload = json.loads((out / f"report_n{n}.json").read_text())
            assign = fa.FrequencyAssignment(tuple(payload["omega_q_hz"]), payload["omega_s_hz"])
            report = fa.build_report(assign, fa.FreqModule(n), params, fa.DEFAULT_DELTA_Q)
            assert payload["report"] == json.loads(json.dumps(report.to_dict()))
            spec = json.loads((out / f"modulespec_n{n}.json").read_text())["module"]
            table = fa.fidelity_table(report, name=f"allocated_n{n}")
            assert spec["fidelities"] == list(table.edge_fidelities)
            assert spec["edges"] == [list(e) for e in table.edges_per_module]
        rows = (out / "separations.csv").read_text().splitlines()
        assert [r.split(",")[0] for r in rows[1:]] == ["2", "3"]

    def test_infeasible_bounds_exit_one(self, tmp_path):
        config = {
            "module_sizes": [3],
            "restarts": 1,
            "bounds": {"qubit": ["4.0 GHz", "4.1 GHz"]},
        }
        with pytest.warns(UserWarning, match="best effort"):
            code, out = _allocate(tmp_path, config)
        assert code == EXIT_FAILED
        assert (out / "separations.csv").read_text().splitlines()[1].endswith(",0")

    @pytest.mark.parametrize("config, key", [
        ({"constants": {"bogus": 1}}, "constants"),
        ({"fit_params": {"coh_x0": 1}}, "fit_params"),
        ({"bounds": {"qubit": 5}}, "bounds"),
        ({"module_sizes": [2.7]}, "module_sizes"),
        ({"k": True}, "k"),
        ({"k": 5, "module_sizes": [2]}, "k"),
        ({"k": -1}, "k"),
        ({"delta_q": "abc"}, "delta_q"),
        ({"delta_q": -1}, "delta_q"),
        ({"delta_q": "inf GHz"}, "delta_q"),
        ({"restarts": 0}, "restarts"),
        ({"restarts": -3}, "restarts"),
        ({"delta_q": True}, "delta_q"),
        ({"bounds": {"qubit": [True, "5 GHz"]}}, "bounds"),
        ({"bounds": {"snail": [True, "9 GHz"]}}, "bounds"),
        ({"constants": {"alpha": 1.0}}, "constants"),  # not a field: no loss reads it
        ({"constants": {"t1": True}}, "constants"),  # not T1 = 1 s
        ({"fit_params": {"coh_x0": True, "coh_x1": 1e4, "inc_x0": 1e6, "inc_x1": 1e5}}, "fit_params"),
    ])
    def test_bad_config_field_names_it_and_the_file(self, tmp_path, capsys, config, key):
        with pytest.raises(SystemExit) as exc:
            _allocate(tmp_path, config)
        assert exc.value.code == EXIT_USAGE
        err = capsys.readouterr().err
        assert f"bad '{key}' value" in err and "config.json" in err
        assert not (tmp_path / "out").exists()

    def test_missing_config_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["allocate", "--config", str(tmp_path / "absent.json")])
        assert exc.value.code == EXIT_USAGE


SMALL_QASM = """OPENQASM 2.0;
include "qelib1.inc";
qreg q[4];
h q[0];
cx q[0],q[1];
cx q[1],q[2];
cx q[0],q[3];
rz(pi/4) q[3];
cx q[3],q[2];
"""
# The ';' after h q[0] is missing, so the parser stops at line 4, column 1.
BAD_QASM = 'OPENQASM 2.0;\nqreg q[2];\nh q[0]\ncx q[0],q[1];\n'
BAD_QASM_ERROR = "4:1: expected ';', found 'cx'"
# A 4-qubit ring snapshot: edges and no module make it a calibration.
CALIBRATION = {"edges": [{"i": i, "j": (i + 1) % 4, "error": 0.01 * (i + 1)} for i in range(4)]}


def _transpile(tmp_path):
    circuit = tmp_path / "small.qasm"
    circuit.write_text(SMALL_QASM)
    routed, metrics = tmp_path / "routed.qasm", tmp_path / "metrics.json"
    code = main(["transpile", str(circuit), "--seeds", "3",
                 "--out", str(routed), "--metrics", str(metrics)])
    return code, circuit, routed, json.loads(metrics.read_text())


class TestTranspileAndVerify:
    def test_transpile_writes_verified_metrics(self, tmp_path):
        code, _, routed, payload = _transpile(tmp_path)
        assert code == EXIT_OK
        assert payload["verified"] is True and payload["algorithm"] == "finesse"
        assert set(payload["metrics"]) == {"lf_cost", "depth", "swaps", "mirrors", "seed"}
        assert sorted(payload["initial_layout"]) == list(range(16))
        assert routed.read_text().startswith("OPENQASM 2.0;")

    @pytest.mark.parametrize("option, value, message", [
        ("--seeds", "0", "--seeds must be an integer >= 1, not 0"),
        ("--beta", "-1", "--beta must be a finite real >= 0, not -1.0"),
        ("--extended-size", "-1", "--extended-size must be an integer >= 0, not -1"),
        ("--aggression", "7", "--aggression must be an integer in 0..3, not 7"),
    ])
    def test_a_bad_router_option_is_refused_by_its_flag(self, tmp_path, capsys, option, value, message):
        """Each router option RouterConfig refuses exits 2 with its reason,
        under the option's name as typed, not the config field's."""
        circuit, out = tmp_path / "small.qasm", tmp_path / "routed.qasm"
        circuit.write_text(SMALL_QASM)
        with pytest.raises(SystemExit) as exc:
            main(["transpile", str(circuit), "--out", str(out), option, value])
        assert exc.value.code == EXIT_USAGE
        assert capsys.readouterr().err.endswith(f" error: {message}\n")
        assert not out.exists()

    def test_transpile_missing_file_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "absent.qasm"
        with pytest.raises(finesse.QasmError) as error:
            finesse.load_qasm(path)
        assert str(error.value) == f"missing file: {path}"
        with pytest.raises(SystemExit) as exc:
            main(["transpile", str(path)])
        assert exc.value.code == EXIT_USAGE
        assert str(error.value) in capsys.readouterr().err

    @pytest.mark.parametrize("fixture, qubits", [
        (CALIBRATION, 4),
        ({"module": "4q4e", "num_modules": 2}, 8),
    ], ids=["calibration", "fixture"])
    def test_a_topology_file_is_read_once(self, tmp_path, fixture, qubits):
        """`transpile --topology <file>` parses the file once, whichever of
        the two file forms it holds, and routes onto its fabric."""
        circuit, topology, metrics = tmp_path / "small.qasm", tmp_path / "topo.json", tmp_path / "m.json"
        circuit.write_text(SMALL_QASM)
        topology.write_text(json.dumps(fixture))
        reads = Mock(wraps=hardware.load_json)
        with patch.object(hardware, "load_json", reads), patch.object(cli, "load_json", reads):
            code = main(["transpile", str(circuit), "--topology", str(topology), "--seeds", "2",
                         "--out", str(tmp_path / "routed.qasm"), "--metrics", str(metrics)])
        assert code == EXIT_OK and reads.call_count == 1
        payload = json.loads(metrics.read_text())
        assert payload["verified"] is True and sorted(payload["initial_layout"]) == list(range(qubits))

    @pytest.mark.parametrize("position, message", [
        ("circuit", "{} is not UTF-8 text: invalid start byte at byte 0"),
        ("topology", "malformed JSON in {}: 'utf-8' codec can't decode byte 0xff in position 0"),
    ])
    def test_a_file_that_is_not_utf8_is_usage_error_naming_it(self, tmp_path, capsys, position, message):
        circuit, topology = tmp_path / "ok.qasm", tmp_path / "ok.json"
        circuit.write_text(SMALL_QASM)
        topology.write_text(json.dumps(CALIBRATION))
        binary = circuit if position == "circuit" else topology
        binary.write_bytes(b"\xff\xfe")
        with pytest.raises(SystemExit) as exc:
            main(["transpile", str(circuit), "--topology", str(topology)])
        assert exc.value.code == EXIT_USAGE
        assert message.format(binary) in capsys.readouterr().err

    def test_topology_missing_key_is_usage_error(self, tmp_path, capsys):
        circuit, topology = tmp_path / "small.qasm", tmp_path / "bad.json"
        circuit.write_text(SMALL_QASM)
        topology.write_text(json.dumps({"format_version": 1}))
        with pytest.raises(SystemExit) as exc:
            main(["transpile", str(circuit), "--topology", str(topology)])
        assert exc.value.code == EXIT_USAGE
        assert "no 'module' key in" in capsys.readouterr().err

    def test_topology_mistyped_edges_is_usage_error(self, tmp_path, capsys):
        circuit, topology = tmp_path / "small.qasm", tmp_path / "bad.json"
        circuit.write_text(SMALL_QASM)
        topology.write_text(json.dumps({"edges": 5}))
        with pytest.raises(SystemExit) as exc:
            main(["transpile", str(circuit), "--topology", str(topology)])
        assert exc.value.code == EXIT_USAGE
        assert "bad 'edges' value 5 in" in capsys.readouterr().err

    @pytest.mark.parametrize("fixture, message", [
        ({"num_physical": -1, "edges": []}, "bad 'num_physical' value -1: the value must be an integer >= 0, not -1 in"),
        ({"module": {"qubits": 0, "edges": [], "fidelities": []}, "num_modules": 2},
         "bad 'edges' value []: a module needs at least one edge in"),
    ])
    def test_topology_without_a_fabric_is_usage_error(self, tmp_path, capsys, fixture, message):
        circuit, topology = tmp_path / "small.qasm", tmp_path / "empty.json"
        circuit.write_text(SMALL_QASM)
        topology.write_text(json.dumps(fixture))
        with pytest.raises(SystemExit) as exc:
            main(["transpile", str(circuit), "--topology", str(topology)])
        assert exc.value.code == EXIT_USAGE
        assert f"{message} {topology}" in capsys.readouterr().err

    def test_verify_error_is_a_failed_verdict(self, tmp_path, capsys):
        circuit = tmp_path / "small.qasm"
        circuit.write_text(SMALL_QASM)
        code = main(["verify", str(circuit), str(circuit), "--perm", "0,0"])
        assert code == EXIT_FAILED
        verdict = json.loads(capsys.readouterr().out)
        assert "output permutation" in verdict["error"] and "equivalent" not in verdict

    @pytest.mark.parametrize("tol", ["nan", "-1"])
    def test_verify_refuses_a_bad_tolerance(self, tmp_path, capsys, tol):
        circuit = tmp_path / "small.qasm"
        circuit.write_text(SMALL_QASM)
        code = main(["verify", str(circuit), str(circuit), f"--tol={tol}"])
        assert code == EXIT_FAILED
        verdict = json.loads(capsys.readouterr().out)
        assert "tol" in verdict["error"] and "equivalent" not in verdict

    def test_verify_refuses_an_input_map_of_the_wrong_length(self, tmp_path, capsys):
        circuit = tmp_path / "pair.qasm"
        circuit.write_text('OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[2];\ncx q[0],q[1];\n')
        code = main(["verify", str(circuit), str(circuit), "--input-map", "0,1,5",
                     "--method", "statevector"])
        assert code == EXIT_FAILED
        verdict = json.loads(capsys.readouterr().out)
        assert "input map has 3 entries" in verdict["error"] and "equivalent" not in verdict

    @pytest.mark.parametrize("option, value, entry", [
        ("--perm", "1,a", "'a'"), ("--input-map", "x", "'x'"), ("--perm", "0,,1", "''"),
    ])
    def test_verify_refuses_a_wire_that_is_not_a_number(self, tmp_path, capsys, option, value,
                                                        entry):
        circuit = tmp_path / "small.qasm"
        circuit.write_text(SMALL_QASM)
        with pytest.raises(SystemExit) as exc:
            main(["verify", str(circuit), str(circuit), option, value])
        assert exc.value.code == EXIT_USAGE
        assert f"{option}: {entry} is not a wire number" in capsys.readouterr().err

    @pytest.mark.parametrize("bad_first", [True, False], ids=["reference", "routed"])
    def test_verify_names_the_bad_file(self, tmp_path, capsys, bad_first):
        good, bad = tmp_path / "good.qasm", tmp_path / "bad.qasm"
        good.write_text(SMALL_QASM)
        bad.write_text(BAD_QASM)
        pair = (bad, good) if bad_first else (good, bad)
        with pytest.raises(SystemExit) as exc:
            main(["verify", *map(str, pair)])
        assert exc.value.code == EXIT_USAGE
        assert f"{bad}:{BAD_QASM_ERROR}" in capsys.readouterr().err

    def test_verify_accepts_the_routed_pair(self, tmp_path, capsys):
        _, circuit, routed, payload = _transpile(tmp_path)
        capsys.readouterr()
        code = main([
            "verify", str(circuit), str(routed),
            "--perm", ",".join(map(str, payload["output_permutation"])),
            "--input-map", ",".join(map(str, payload["initial_layout"])),
        ])
        assert code == EXIT_OK
        assert json.loads(capsys.readouterr().out)["equivalent"] is True


BENCH_DIGESTS = {
    "results.csv": "818f34769adb52f000e48b72f270660007ef4ab6f51712d27da82157b6390e42",
    "summary.csv": "fdcbab15f41e8b6b4214264f9768d5df6dbfc39ca3df9cef51205bbdabe787ff",
    "results.json": "93bdd1530ce33665921c90ffb689ee0f1d01a4d18552bb1709a396ed01890fdc",
}


def test_bench_writes_results(tmp_path):
    workloads = tmp_path / "workloads"
    workloads.mkdir()
    (workloads / "small.qasm").write_text(SMALL_QASM)
    out = tmp_path / "bench"
    code = main(["bench", "--workloads", str(workloads), "--out", str(out),
                 "--topologies", "4q4e", "--algorithms", "sabre,finesse", "--seeds", "2"])
    assert code == EXIT_OK
    lines = (out / "results.csv").read_text().splitlines()
    assert lines[:2] == [f"# format_version={bench.CSV_FORMAT_VERSION}", ",".join(bench.CSV_COLUMNS)]
    assert len(lines) == 2 + 2 * 2  # two algorithms x two post-selection modes
    # A fixed-seed bench writes the same bytes; any routing or format change shows here.
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in BENCH_DIGESTS}
    assert digests == BENCH_DIGESTS


def test_bench_names_the_bad_workload(tmp_path, capsys):
    workloads, out = tmp_path / "workloads", tmp_path / "bench"
    workloads.mkdir()
    (workloads / "small.qasm").write_text(SMALL_QASM)
    (workloads / "bad.qasm").write_text(BAD_QASM)
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--workloads", str(workloads), "--out", str(out),
              "--topologies", "4q4e", "--algorithms", "sabre", "--seeds", "1"])
    assert exc.value.code == EXIT_USAGE
    assert f"{workloads / 'bad.qasm'}:{BAD_QASM_ERROR}" in capsys.readouterr().err
    assert not out.exists()


def test_bench_routes_on_a_calibration_snapshot(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    Path("workloads").mkdir()
    Path("workloads/small.qasm").write_text(SMALL_QASM)
    Path("cal.json").write_text(json.dumps(CALIBRATION))
    code = main(["bench", "--workloads", "workloads", "--out", "bench",
                 "--topologies", "4q4e,cal.json", "--algorithms", "sabre,finesse", "--seeds", "1"])
    assert code == EXIT_OK
    rows = _csv_rows(Path("bench/results.csv"))
    assert sorted({r["topology"] for r in rows}) == ["4q4e", "cal.json"]
    assert len(rows) == 2 * 2 * 2  # two fabrics x two algorithms x two post-selection modes


def test_run_bench_routes_configs_that_differ_in_extended_size_and_beta():
    """Each config routes on its own plan and distance set: every record is
    the trial that config selects when it routes a fresh copy alone."""
    cmap = load_topology("4q4e")
    configs = (RouterConfig(algorithm="sabre", num_seeds=2),
               RouterConfig(algorithm="fasst", num_seeds=2, beta=0.5),
               RouterConfig(algorithm="finesse", num_seeds=2, extended_size=5, beta=2.0))
    records = bench.run_bench({"small": parse_qasm(SMALL_QASM)}, {"4q4e": cmap}, configs,
                              ("native",), seed=3)
    assert [r["algorithm"] for r in records] == ["sabre", "fasst", "finesse"]
    for record, config in zip(records, configs):
        alone = router.select_trial(router.run_trials(parse_qasm(SMALL_QASM), cmap, config, seed=3), config)
        assert {k: record[k] for k in alone.metrics.to_dict()} == alone.metrics.to_dict()


def _csv_rows(path):
    """The dict rows of a versioned bench CSV."""
    lines = path.read_text().splitlines()
    assert lines[0] == f"# format_version={bench.CSV_FORMAT_VERSION}"
    return list(csv.DictReader(lines[1:]))


def test_bench_files_are_projections_of_one_record(tmp_path):
    workloads = tmp_path / "workloads"
    workloads.mkdir()
    (workloads / "small.qasm").write_text(SMALL_QASM)
    (workloads / "qft_6.qasm").write_text(serialize_qasm(qft(6)))
    out = tmp_path / "bench"
    code = main(["bench", "--workloads", str(workloads), "--out", str(out),
                 "--topologies", "4q4e,4q5e", "--algorithms", "sabre,finesse", "--seeds", "2"])
    assert code == EXIT_OK
    results, summary = _csv_rows(out / "results.csv"), _csv_rows(out / "summary.csv")
    groups = {}
    for row in results:
        groups.setdefault((row["algorithm"], row["post_selection"]), []).append(row)
    assert [(s["algorithm"], s["post_selection"]) for s in summary] == sorted(groups)
    for s in summary:
        rows = groups[(s["algorithm"], s["post_selection"])]
        assert int(s["runs"]) == len(rows) == 4  # two circuits x two topologies
        for key in ("pct_delta_lf_vs_sabre", "pct_delta_depth_vs_sabre"):
            assert float(s[f"mean_{key}"]) == sum(float(r[key]) for r in rows) / len(rows)
    records = json.loads((out / "results.json").read_text())
    assert len(records) == len(results)
    for record, row in zip(records, results):
        shared = row.keys() & record.keys()
        assert set(row) - shared == {"pct_delta_lf_vs_sabre", "pct_delta_depth_vs_sabre"}
        assert {k: str(record[k]) for k in shared} == {k: row[k] for k in shared}


def test_bench_without_a_two_qubit_gate_aborts_before_writing(tmp_path, capsys):
    """sabre's LF cost and depth are the percentage baselines; a circuit with
    no 2q gate has an LF cost of 0, so the sweep aborts naming the circuit,
    topology and mode, and writes nothing."""
    workloads, out = tmp_path / "workloads", tmp_path / "bench"
    workloads.mkdir()
    (workloads / "local.qasm").write_text("qreg q[2]; h q[0]; h q[1];\n")
    code = main(["bench", "--workloads", str(workloads), "--out", str(out),
                 "--seeds", "1", "--topologies", "4q4e"])
    assert code == EXIT_FAILED
    assert "bench aborted: local on 4q4e (native): sabre's LF cost or depth is 0" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("option, value, message", [
    ("--basis", "bogus", "unknown basis gate 'bogus'"),
    ("--basis", "root_iswap_3", "unreachable in <=3 uses of root_iswap_3"),
    ("--algorithms", "sabre,bogus", "unknown algorithm 'bogus'"),
    ("--topologies", "4q4e,nope", "unknown topology 'nope'"),
    ("--seeds", "0", "--seeds must be an integer"),
    ("--beta", "-1", "--beta must be a finite real >= 0, not -1.0"),
    ("--beta", "nan", "--beta must be a finite real >= 0, not nan"),
    ("--algorithms", "finesse", "--algorithms must include sabre"),
])
def test_bench_refuses_a_bad_option_before_writing(tmp_path, capsys, option, value, message):
    workloads, out = tmp_path / "workloads", tmp_path / "bench"
    try:
        code = main(["bench", "--workloads", str(workloads), "--out", str(out), option, value])
    except SystemExit as exc:  # parser.error
        code = exc.code
    assert code == EXIT_USAGE
    assert message in capsys.readouterr().err
    assert not workloads.exists() and not out.exists()


_FIT = fa.CostModelParams(1e12, 1e4, 1e6, 1e5)


def _optimize(seed):
    return fa.optimize_frequencies(fa.FreqModule(2), params=_FIT, seed=seed, restarts=1)


def _route(seed):
    return router.run_trials(parse_qasm(SMALL_QASM), load_topology("4q4e"), RouterConfig(num_seeds=1), seed=seed)


@pytest.mark.parametrize("call, message", [
    (lambda: _optimize(-1), "seed must be an integer >= 0, not -1"),
    (lambda: _optimize(1.5), "seed must be an integer >= 0, not 1.5"),
    (lambda: _optimize(True), "seed must be an integer >= 0, not True"),
    (lambda: _route(-1), "seed must be an integer >= 0, not -1"),
    (lambda: _route(1.5), "seed must be an integer >= 0, not 1.5"),
    (lambda: _route(True), "seed must be an integer >= 0, not True"),
    (lambda: main(["allocate", "--seed", "-1", "--out", "out"]), "argument --seed: must be an integer >= 0, not '-1'"),
    (lambda: main(["allocate", "--config", "seed.json", "--out", "out"]), "bad 'seed' value -2"),
    (lambda: main(["bench", "--seed", "-1", "--out", "out", "--workloads", "workloads"]),
     "argument --seed: must be an integer >= 0, not '-1'"),
    (lambda: main(["transpile", "small.qasm", "--seed", "-1"]), "argument --seed: must be an integer >= 0, not '-1'"),
    (lambda: main(["verify", "small.qasm", "small.qasm", "--seed", "1.5"]),
     "argument --seed: must be an integer >= 0, not '1.5'"),
], ids=["optimize-negative", "optimize-float", "optimize-bool", "route-negative", "route-float", "route-bool",
        "allocate", "allocate-config", "bench", "transpile", "verify"])
def test_a_bad_seed_is_refused_by_name(tmp_path, capsys, monkeypatch, call, message):
    """A seed that is a bool, not an integer, or negative is refused before
    any work: by the library with its typed error, by the CLI as a usage
    error (exit code 2) before it writes anything."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "small.qasm").write_text(SMALL_QASM)
    (tmp_path / "seed.json").write_text(json.dumps({"seed": -2}))
    try:
        code = call()
    except (fa.AllocationError, router.RoutingError) as exc:
        code, text = EXIT_USAGE, str(exc)
    except SystemExit as exc:  # parser.error
        code, text = exc.code, capsys.readouterr().err
    else:
        text = capsys.readouterr().err
    assert code == EXIT_USAGE and message in text
    assert {p.name for p in tmp_path.iterdir()} == {"seed.json", "small.qasm"}


def test_parser_defaults_are_the_library_defaults():
    parser, config = build_parser(), RouterConfig()
    for argv in (["transpile", "c.qasm"], ["bench"]):
        args = parser.parse_args(argv)
        assert (args.seeds, args.beta) == (config.num_seeds, config.beta)
    args = parser.parse_args(["transpile", "c.qasm"])
    assert (args.extended_size, args.aggression, args.post_selection) == (
        config.extended_size, config.aggression, config.post_selection)
    assert parser.parse_args(["verify", "a.qasm", "b.qasm"]).tol == verifier.DEFAULT_TOL


def test_verify_auto_picks_the_unitary_up_to_its_width_limit(tmp_path, capsys):
    n = verifier.UNITARY_WIDTH_LIMIT
    for width, methods in ((n, ["unitary", "clifford"]), (n + 1, ["statevector", "clifford"])):
        path = tmp_path / f"id{width}.qasm"
        path.write_text(f'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[{width}];\nh q[0];\n')
        assert main(["verify", str(path), str(path)]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["methods"] == methods


@pytest.mark.parametrize("last, methods, code", [("h", ["clifford"], EXIT_OK), ("t", [], EXIT_FAILED)])
def test_verify_auto_picks_the_tableau_past_the_statevector_limit(tmp_path, capsys, last, methods, code):
    """A GHZ circuit wider than the statevector limit is compared as a
    tableau; one T gate makes it non-Clifford, and no method applies."""
    width = verifier.STATEVECTOR_WIDTH_LIMIT + 5
    path = tmp_path / "ghz.qasm"
    body = "".join(f"cx q[{i}],q[{i + 1}];\n" for i in range(width - 1))
    path.write_text(f'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[{width}];\nh q[0];\n{body}{last} q[0];\n')
    assert main(["verify", str(path), str(path)]) == code
    verdict = json.loads(capsys.readouterr().out)
    assert verdict["methods"] == methods
    assert verdict.get("equivalent", False) is (code == EXIT_OK)
    if code == EXIT_FAILED:
        assert verdict["error"] == f"reference width {width} exceeds {width - 5}, and a circuit is not Clifford"


def test_verify_unitary_past_its_width_limit_reports_the_error(tmp_path, capsys):
    width = verifier.UNITARY_WIDTH_LIMIT + 1
    path = tmp_path / "wide.qasm"
    path.write_text(f'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[{width}];\nh q[0];\n')
    assert main(["verify", str(path), str(path), "--method", "unitary"]) == EXIT_FAILED
    verdict = json.loads(capsys.readouterr().out)
    assert verdict["methods"] == []
    assert verdict["error"] == f"width exceeds {width - 1} for direct unitary comparison"
    assert "equivalent" not in verdict


def _ghz(width: int, last: str) -> str:
    """GHZ on ``width`` wires, then ``last`` on wire 0: Clifford for h, not for t."""
    body = "".join(f"cx q[{i}],q[{i + 1}];\n" for i in range(width - 1))
    return f'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[{width}];\nh q[0];\n{body}{last} q[0];\n'


# The auto policy written out as data, independent of the code's limits:
# (width, last gate) -> the methods run, in order, or None when none applies.
AUTO_TABLE = {
    (8, "h"): ("unitary", "clifford"), (8, "t"): ("unitary",),
    (9, "h"): ("statevector", "clifford"), (9, "t"): ("statevector",),
    (15, "h"): ("statevector", "clifford"), (15, "t"): ("statevector",),
    (16, "h"): ("clifford",), (16, "t"): None,
    (20, "h"): ("clifford",), (20, "t"): None,
}


@pytest.mark.parametrize("width, last", AUTO_TABLE, ids=[f"{w}-{g}" for w, g in AUTO_TABLE])
def test_the_auto_policy_is_one_table(tmp_path, capsys, width, last):
    """`check_equivalence` and `finesse verify` both run the table's methods
    on a circuit against itself; where no method applies, the function raises
    WidthError and the verdict carries its message and no method."""
    text, expected = _ghz(width, last), AUTO_TABLE[width, last]
    dag = parse_qasm(text)
    path = tmp_path / "c.qasm"
    path.write_text(text)
    code = main(["verify", str(path), str(path)])
    verdict = json.loads(capsys.readouterr().out)
    message = f"reference width {width} exceeds 15, and a circuit is not Clifford"
    if expected is None:
        with pytest.raises(verifier.WidthError, match=f"^{message}$"):
            bench.check_equivalence(dag, dag, range(width))
        assert (code, verdict["methods"], verdict["error"]) == (EXIT_FAILED, [], message)
    else:
        assert bench.check_equivalence(dag, dag, range(width)) == (expected, True)
        assert (code, verdict["methods"], verdict["equivalent"]) == (EXIT_OK, list(expected), True)


def test_auto_holds_a_clifford_route_to_the_tableau_ancilla_contract(tmp_path, capsys):
    """An ancilla in |0> that controls a cx leaves every dense check
    satisfied, but the tableau check requires each ancilla to map onto its
    own wire; auto runs that check on any Clifford pair, so the route fails."""
    ref_text = 'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[2];\nh q[0];\ncx q[0],q[1];\n'
    routed_text = ref_text.replace("qreg q[2];", "qreg q[3];") + "cx q[2],q[0];\n"
    ref, routed = parse_qasm(ref_text), parse_qasm(routed_text)
    assert verifier.unitary_equivalent(ref, routed, [0, 1, 2])
    assert verifier.statevector_equivalent(ref, routed, [0, 1, 2])
    assert bench.check_equivalence(ref, routed, [0, 1, 2]) == (("unitary", "clifford"), False)
    paths = tmp_path / "ref.qasm", tmp_path / "routed.qasm"
    for path, text in zip(paths, (ref_text, routed_text)):
        path.write_text(text)
    assert main(["verify", *map(str, paths)]) == EXIT_FAILED
    verdict = json.loads(capsys.readouterr().out)
    assert (verdict["methods"], verdict["equivalent"]) == (["unitary", "clifford"], False)


def test_a_forced_method_runs_alone():
    dag = parse_qasm(_ghz(4, "h"))
    for method in ("unitary", "statevector", "clifford"):
        assert bench.check_equivalence(dag, dag, range(4), method=method) == ((method,), True)
    with pytest.raises(verifier.VerifierError, match="unknown verification method 'dense'"):
        bench.check_equivalence(dag, dag, range(4), method="dense")


def test_transpile_reports_a_failed_check_in_one_line(tmp_path, capsys, monkeypatch):
    """A route that fails its check exits 1 with one line naming the method,
    writes no file, and raises no traceback."""
    monkeypatch.setattr(bench, "statevector_equivalent", lambda *args, **kwargs: False)
    circuit, out, metrics = tmp_path / "small.qasm", tmp_path / "routed.qasm", tmp_path / "m.json"
    circuit.write_text(SMALL_QASM)
    code = main(["transpile", str(circuit), "--seeds", "1", "--out", str(out), "--metrics", str(metrics)])
    err = capsys.readouterr().err
    assert code == EXIT_FAILED
    assert err.startswith("transpile aborted: routed circuit failed verification by statevector (trial seed ")
    assert err.count("\n") == 1 and not out.exists() and not metrics.exists()


SIX_MODULES = {"module": "4q4e", "num_modules": 6}  # 24 qubits


@pytest.mark.parametrize("last", ["h", "t"])
def test_a_route_past_the_statevector_limit_is_checked_by_the_policy(tmp_path, capsys, last):
    """On six 4q4e modules a 20-wire GHZ route is verified by the tableau
    alone, in transpile and in bench; with one T gate no method can check it,
    so both exit 1 naming the width, write nothing, and neither is a usage
    error."""
    workloads, topology = tmp_path / "workloads", tmp_path / "six.json"
    workloads.mkdir()
    circuit = workloads / "ghz20.qasm"
    circuit.write_text(_ghz(20, last))
    topology.write_text(json.dumps(SIX_MODULES))
    out, metrics, bench_out = tmp_path / "routed.qasm", tmp_path / "m.json", tmp_path / "bench"
    transpiled = main(["transpile", str(circuit), "--topology", str(topology), "--seeds", "2",
                       "--out", str(out), "--metrics", str(metrics)])
    transpile_err = capsys.readouterr().err
    benched = main(["bench", "--workloads", str(workloads), "--out", str(bench_out),
                    "--topologies", str(topology), "--seeds", "2"])
    bench_err = capsys.readouterr().err
    if last == "h":
        assert (transpiled, benched) == (EXIT_OK, EXIT_OK)
        assert json.loads(metrics.read_text())["methods"] == ["clifford"]
        assert {r["circuit"] for r in _csv_rows(bench_out / "results.csv")} == {"ghz20"}
    else:
        assert (transpiled, benched) == (EXIT_FAILED, EXIT_FAILED)
        reason = "routed circuit cannot be verified: reference width 20 exceeds 15, and a circuit is not Clifford"
        assert transpile_err == f"transpile aborted: {reason}\n"
        assert bench_err == f"bench aborted: ghz20 on {topology} with sabre: {reason}\n"
        assert not any(p.exists() for p in (out, metrics, bench_out))


def test_python_dash_m_entry_point():
    src = Path(finesse.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-m", "finesse", "allocate", "--help"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "--config" in proc.stdout
