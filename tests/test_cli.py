import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import finesse
from finesse import freqalloc as fa
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

    def test_missing_config_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["allocate", "--config", str(tmp_path / "absent.json")])
        assert exc.value.code == EXIT_USAGE


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
