import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import finesse
from finesse import bench, freqalloc as fa
from finesse.cli import EXIT_FAILED, EXIT_OK, EXIT_USAGE, main


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
        ({"delta_q": "abc"}, "delta_q"),
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

    def test_transpile_missing_file_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["transpile", str(tmp_path / "absent.qasm")])
        assert exc.value.code == EXIT_USAGE

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
