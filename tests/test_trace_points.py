"""What perfbench reads of finesse.  `tracing.instrument` swaps module
attributes by name and `_describe_pass` binds `route_pass`'s arguments and
reads `PassResult` counts, so a rename here would fail every traced run with
an AttributeError; these checks fail first.  perfbench's setup also times
`build_distance_set(cmap, k_swap)` per fabric and hands the set to
`run_trials(dists=)`: that is why `run_trials` keeps a ``dists`` parameter
it could look up itself, and these checks pin both calls."""
import dataclasses
import sys
from pathlib import Path

import pytest

from finesse import bench, router
from finesse.hardware import build_distance_set, fabric_suite
from finesse.weyl import swap_count
from finesse.workloads import SUITE

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import tracing  # noqa: E402


@pytest.mark.parametrize("owner, attribute", [point[:2] for point in tracing.TRACE_POINTS],
                         ids=[point[2] for point in tracing.TRACE_POINTS])
def test_every_trace_point_exists(owner, attribute):
    assert callable(getattr(owner, attribute, None))


def test_pass_result_keeps_the_traced_counts():
    assert {"swaps", "mirrors", "valve_fires"} <= {f.name for f in dataclasses.fields(router.PassResult)}


def test_a_traced_route_binds_every_pass_and_scores_through_circuit_depth():
    """Under `instrument`, one trial gives one span per pass kind with the
    counts `_describe_pass` reads from its bound `dag`, `emit` and
    `allow_mirror`, and one `circuit_depth` span."""
    tracer = tracing.Tracer()
    config = router.RouterConfig(algorithm="finesse", num_seeds=1)
    with tracing.instrument(tracer):
        router.run_trials(SUITE["wstate_08"](), fabric_suite()["4q4e"], config)
    passes = [s.attrs for s in tracer.spans if s.name == "router.route_pass"]
    assert [p["kind"] for p in passes] == ["fwd", "rev", "final"]
    assert all({"n2q", "swaps", "mirrors", "valve_fires"} <= set(p) for p in passes)
    assert [s.name for s in tracer.spans].count("router.circuit_depth") == 1


def test_perfbench_calls_keep_working():
    """The set perfbench builds with two positional arguments is the one
    `run_trials` looks up, so passing it by keyword routes."""
    cmap, config = fabric_suite()["4q4e"], router.RouterConfig(num_seeds=1)
    dists = build_distance_set(cmap, swap_count(config.basis))
    assert router.run_trials(SUITE["wstate_08"](), cmap, config, dists=dists)


@pytest.mark.parametrize("circuit, expected", [
    ("bv_13", {"verifier.statevector_equivalent": 1, "verifier.clifford_equivalent": 1}),
    ("qft_10", {"verifier.statevector_equivalent": 1, "verifier.clifford_equivalent": 0}),
])
def test_the_policy_calls_each_check_where_the_tracer_sees_it(circuit, expected):
    """`verify_result` on a 4q4e route runs the statevector check, then the
    tableau check for a Clifford circuit, each as a span inside its own; a
    policy that bound the checks anywhere but `bench`'s globals would record
    neither, and perfbench's per-layer `verifier.*` figures would read 0."""
    dag = SUITE[circuit]()
    result = router.transpile(dag, fabric_suite()["4q4e"], router.RouterConfig(num_seeds=1))
    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        bench.verify_result(dag, result)
    [outer] = [i for i, s in enumerate(tracer.spans) if s.name == "bench.verify_result"]
    inside = [s.name for s in tracer.spans if s.parent == outer]
    assert {name: inside.count(name) for name in expected} == expected
    assert len(inside) == sum(expected.values())
