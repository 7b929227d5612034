"""Tests of the benchmark itself: python3 -m pytest perfbench"""
import json
import sys
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import hostspeed  # noqa: E402
import metrics  # noqa: E402
import run  # noqa: E402
import sweeps  # noqa: E402
import tracing  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())

TINY = {
    "route-sweep": sweeps.RouteWorkload(
        cases=sweeps.every_algorithm(("wstate_08",), "4q4e"), trials=2),
    "verify-wide": sweeps.RouteWorkload(cases=(("bv_13", "5q7e", "finesse"),), trials=1),
    "allocate": sweeps.AllocateWorkload(sizes=(2,)),
}


class TestTail:
    def test_few_samples_report_the_maximum(self):
        assert metrics.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)
        assert metrics.tail(list(range(20))) == (19, 100.0)

    def test_ten_samples_lie_beyond(self):
        values = list(range(100))
        value, pct = metrics.tail(values)
        assert sum(v > value for v in values) == 10
        assert (value, pct) == (89, 90.0)

    def test_smallest_sample_count_with_a_tail(self):
        value, pct = metrics.tail(list(range(21)))
        assert value == 10 and pct == pytest.approx(100 * 11 / 21)


class TestReferenceSeconds:
    def test_each_sample_is_scaled_by_its_bracketing_probes(self):
        ref = hostspeed.REFERENCE_S
        sweep_log = [
            {"unit_times": [1.0, 2.0], "probes": [ref, ref, ref]},
            # Unit 0 ran at half speed; unit 1 between a slow and a normal probe.
            {"unit_times": [3.0, 2.0], "probes": [2 * ref, 2 * ref, ref]},
            {"unit_times": [1.2, 2.4], "probes": [ref, ref, ref]},
        ]
        # Unit 0: 1.0, 1.5, 1.2; unit 1: 2.0, 2.0 / 1.5, 2.4.
        assert metrics.reference_latencies(sweep_log) == pytest.approx([1.2, 2.0])

    def test_probe_at_the_reference_time_scales_by_one(self):
        assert hostspeed.probe() > 0.0
        assert hostspeed.scale(hostspeed.REFERENCE_S) == 1.0


class TestSelfTime:
    def test_children_union_is_subtracted(self):
        spans = [
            tracing.Span("root", None, 0.0, 10.0),
            tracing.Span("a", 0, 1.0, 3.0),
            tracing.Span("b", 0, 2.0, 5.0),   # overlaps a: union is [1, 5]
            tracing.Span("c", 0, 7.0, 8.0),
            tracing.Span("grandchild", 3, 7.25, 7.5),
        ]
        assert tracing.self_times(spans) == pytest.approx([5.0, 2.0, 3.0, 0.75, 0.25])

    def test_child_is_clipped_to_its_parent(self):
        spans = [tracing.Span("p", None, 0.0, 1.0), tracing.Span("c", 0, 0.5, 2.0)]
        assert tracing.self_times(spans)[0] == pytest.approx(0.5)

    def test_tracer_nests_spans(self):
        tracer = tracing.Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        outer, inner = tracer.spans
        assert inner.parent == 0 and outer.parent is None
        assert outer.start <= inner.start <= inner.end <= outer.end


class TestMetricNames:
    def test_end_to_end_names_and_units(self):
        declared = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
        assert declared == metrics.END_TO_END_UNITS

    def test_per_layer_names_and_units(self):
        declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
        assert declared == metrics.PER_LAYER_UNITS

    def test_workloads(self):
        assert [w["name"] for w in BENCHMARK["workloads"]] == list(sweeps.WORKLOADS)


class TestCorrectnessGate:
    @pytest.fixture(scope="class")
    def routed(self):
        setup = sweeps.build_setup()
        dag, cmap = setup.circuits["wstate_08"], setup.fabrics["4q4e"]
        config = sweeps.router.RouterConfig(algorithm="finesse", num_seeds=1, basis=setup.basis)
        result = sweeps.router.run_trials(dag, cmap, config, dists=setup.dists["4q4e"])[0]
        return result, cmap, setup.basis

    def test_accepts_the_routed_circuit(self, routed):
        sweeps.check_routed(*routed)

    def test_rejects_a_wrong_lf_cost(self, routed):
        result, cmap, basis = routed
        wrong = replace(result, metrics=replace(result.metrics, lf_cost=result.metrics.lf_cost + 1e-9))
        with pytest.raises(sweeps.CheckFailed, match="lf_cost"):
            sweeps.check_routed(wrong, cmap, basis)

    def test_rejects_a_gate_off_the_fabric(self, routed):
        result, cmap, basis = routed
        used = min(tuple(sorted(g.wires)) for g in result.circuit.gates if g.is_two_qubit)
        pruned = SimpleNamespace(edges=tuple(e for e in cmap.edges if e[:2] != used))
        with pytest.raises(sweeps.CheckFailed, match="not on a fabric edge"):
            sweeps.check_routed(result, pruned, basis)


def _run(monkeypatch, capsys, workload, trace, extra=None):
    monkeypatch.setattr(run, "SETUP_PROBES", 1)
    monkeypatch.setitem(sweeps.WORKLOADS, workload, TINY[workload])
    if extra:
        extra(monkeypatch)
    code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0",
                     "--trace", str(trace)])
    lines = capsys.readouterr().out.strip().splitlines()
    return code, json.loads(lines[-2])["record"], json.loads(lines[-1])


@pytest.mark.parametrize("workload", list(TINY))
def test_smoke_run(monkeypatch, capsys, workload):
    code, record, result = _run(monkeypatch, capsys, workload, trace=0)
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())

    code, traced_record, traced = _run(monkeypatch, capsys, workload, trace=1)
    assert code == 0 and traced["correct"]
    assert set(traced["metrics"]) == {m["name"] for m in BENCHMARK["per_layer"]}
    assert traced_record["traced_sweeps"] >= 1 and traced_record["digests_agree"]
    assert traced_record["digest"] == record["digest"]


def test_failed_unit_is_counted_not_fatal(monkeypatch, capsys):
    real = sweeps.run_unit

    def flaky(setup, spec, unit, seed):
        if unit == TINY["route-sweep"].units()[0]:
            raise sweeps.CheckFailed("injected")
        return real(setup, spec, unit, seed)

    code, record, result = _run(
        monkeypatch, capsys, "route-sweep", trace=0,
        extra=lambda mp: mp.setattr(sweeps, "run_unit", flaky))
    assert code == 0
    # One of four units fails in each sweep.
    assert record["sweeps"] == run.MIN_PLAIN_SWEEPS
    assert result["failed"] == record["sweeps"] and result["attempted"] == 4 * record["sweeps"]
    assert not result["correct"]
    assert record["figures"]["fail_rate"]["value"] == 0.25


def test_refuses_a_tree_without_sources(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    assert run.main(["--workload", "allocate", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""
