"""Router: the lookahead scorer and the mirror verdict against a scalar
oracle, the executed gate and the swap candidates against brute-force rules,
the memoised extended set against a copying walk and against the front
alone, routed circuits against the statevector verifier, the route plan and
the compact record against fresh routes and the circuit they build, trial
selection, the tie pick and the ordered sum against their numpy forms,
whole routes against a list-and-dict reference router, the counted steps of
a route, and a pinned golden route."""
import gc
import hashlib
import json
import re
import weakref
from collections import Counter
from dataclasses import replace
from math import pi
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from finesse import router
from finesse.checks import seeded_stream
from finesse.hardware import build_distance_set, fabric_suite
from finesse.ir import CircuitDag, Gate, Layout, circuit_depth
from finesse.router import (
    ALGORITHMS,
    RoutePlan,
    RouterConfig,
    RoutingResult,
    TrialMetrics,
    lf_cost,
    run_trials,
    select_trial,
    transpile,
)
from finesse.verifier import statevector_equivalent
from finesse.weyl import BasisGate, gate_count, swap_count
from finesse.workloads import SUITE

from oracles import (
    coupling_map,
    haar_su4,
    random_connected_map,
    reference_extended_set,
    reference_lookahead,
    reference_remaining_counts,
    reference_route,
    same_circuit,
)

SEEDS = st.integers(0, 2**32 - 1)


def _random_pass(rng, algorithm, *counts, aggression=2):
    """A routing pass on a random map and layout, ready to score gates.

    Its DAG holds one list of random cx gates per (low, high) count range,
    ids unique across the lists; the pass gathers wires from its own DAG.
    """
    cmap = random_connected_map(rng)
    config = RouterConfig(algorithm=algorithm, w=float(rng.uniform(0.1, 1.0)), aggression=aggression)
    dists = build_distance_set(cmap, swap_count(config.basis), config.beta)
    n = cmap.num_physical
    layout = Layout(rng.permutation(n))
    lists, start = [], 0
    for low, high in counts:
        lists.append(_random_gates(rng, n, int(rng.integers(low, high)), start))
        start += len(lists[-1])
    dag = CircuitDag(n, [g for gates in lists for g in gates])
    plan = RoutePlan.of(dag, config.basis, config.extended_size)
    p = router._Pass(dag, cmap, dists, config, rng, layout, emit=False, allow_mirror=True, plan=plan)
    return p, lists


def _random_gates(rng, n, count, start):
    return [
        Gate(id=start + i, kind="cx", wires=tuple(int(w) for w in rng.choice(n, 2, replace=False)))
        for i in range(count)
    ]


def _wires(gates):
    """The (gates, 2) wire pairs of a gate list, read from the gates."""
    return np.array([g.wires for g in gates], dtype=np.intp).reshape(-1, 2)


def _matrix(p):
    """The distance matrix the pass's algorithm scores against, read from
    the distance set, not from its swap tables."""
    return p.dists.d_blend if p.config.uses_blend else p.dists.d_hop


def _swapped(layout, p0, p1):
    out = layout.copy()
    out.swap_physical(int(p0), int(p1))
    return out


class TestLookahead:
    @settings(max_examples=60, deadline=None)
    @given(seed=SEEDS, algorithm=st.sampled_from(ALGORITHMS))
    def test_relative_swap_scores_match_oracle(self, seed, algorithm):
        rng = np.random.default_rng(seed)
        p, (front, extended) = _random_pass(rng, algorithm, (1, 6), (0, 21))
        p.scored_wires = _wires(front + extended)
        delta = p._scores(np.arange(len(p.cmap.edge_pairs)))
        k = len(front)
        scores = p._heuristic(delta[:k], delta[k:])
        matrix = _matrix(p)
        base = reference_lookahead(front, extended, p.layout, matrix, p.config.w)
        for c, (p0, p1) in enumerate(p.cmap.edge_pairs):
            moved = reference_lookahead(front, extended, _swapped(p.layout, p0, p1), matrix, p.config.w)
            assert abs(scores[c] - (moved - base)) <= 1e-12

    @settings(max_examples=60, deadline=None)
    @given(seed=SEEDS, algorithm=st.sampled_from(router.MIRRORING),
           rest_size=st.integers(0, 5), extended_size=st.integers(0, 20))
    def test_mirror_list_sums_equal_oracle(self, seed, algorithm, rest_size, extended_size):
        """The mirror rule's sums on row tuples, now and after a swap on the
        gate's edge, equal the scalar oracle exactly, on hop (MIRAGE) and
        blend (FINESSE) distances, with the front or the extended set
        empty as the draw falls; hop sums stay ints."""
        rng = np.random.default_rng(seed)
        p, (rest, extended) = _random_pass(rng, algorithm, (rest_size, rest_size + 1),
                                           (extended_size, extended_size + 1))
        p0, p1 = p.cmap.edge_pairs[rng.integers(len(p.cmap.edge_pairs))].tolist()
        p.front, p.scored_wires = list(rest), _wires(rest + extended)
        matrix, w = _matrix(p), p.config.w
        now, mirrored = p._mirror_sums(p0, p1)
        assert now == reference_lookahead(rest, extended, p.layout, matrix, w)
        assert mirrored == reference_lookahead(rest, extended, _swapped(p.layout, p0, p1), matrix, w)
        if algorithm == "mirage" and not extended:
            assert type(now) is int and type(mirrored) is int

    @settings(max_examples=80, deadline=None)
    @given(seed=SEEDS, algorithm=st.sampled_from(router.MIRRORING), aggression=st.integers(1, 3))
    def test_mirror_decision_equals_the_oracle_rule(self, seed, algorithm, aggression):
        """The verdict from the two-column score (now, mirrored) is the
        oracle's: FINESSE's absolute sums plus k * l_edge, MIRAGE's count
        rule, strict at aggression 1 and not at 2, and always at 3.  The
        counts are drawn at random so that every branch of the count rule
        occurs; the table itself is checked against `gate_count` elsewhere."""
        rng = np.random.default_rng(seed)
        p, (rest, extended, (g,)) = _random_pass(rng, algorithm, (0, 6), (0, 21), (1, 2),
                                                 aggression=aggression)
        k_orig, k_mirr = (int(k) for k in rng.integers(0, 4, size=2))
        p.counts = {p.rows[g.id]: (k_orig, k_mirr)}
        p.front, p.scored_wires = list(rest), _wires(rest + extended)
        p0, p1 = p.cmap.edge_pairs[rng.integers(len(p.cmap.edge_pairs))].tolist()
        now = reference_lookahead(rest, extended, p.layout, _matrix(p), p.config.w)
        mirrored = reference_lookahead(rest, extended, _swapped(p.layout, p0, p1), _matrix(p), p.config.w)
        if aggression == 3:
            expected = True
        elif algorithm == "finesse":
            l_edge = p.cmap.log_weight[p0, p1]
            expected = mirrored + k_mirr * l_edge <= now + k_orig * l_edge
        elif k_mirr != k_orig:
            expected = k_mirr < k_orig
        else:
            expected = mirrored < now if aggression == 1 else mirrored <= now
        assert p._mirror_decision(g, p0, p1) is expected


class TestListBuiltChoices:
    @settings(max_examples=30, deadline=None)
    @given(seed=SEEDS)
    def test_run_and_select_swap_choose_by_the_brute_force_rules(self, seed):
        """On every step of a route: the gate `run` executes is the first
        front gate, in id order, whose physical pair is an edge;
        a swap is selected only when no front gate is routable; and the
        swap candidates are every edge with an endpoint on a front physical
        qubit, in `edge_pairs` order."""
        rng = np.random.default_rng(seed)
        cmap, dag = _random_routing_case(rng, 40)
        execute, select, scores = router._Pass._execute, router._Pass._select_swap, router._Pass._scores
        scored, steps = [], Counter()
        on_map = {pair for a, b in cmap.edge_pairs.tolist() for pair in ((a, b), (b, a))}

        def front_pairs(self):
            v2p = self.layout.physical_list
            return [(v2p[g.wires[0]], v2p[g.wires[1]]) for g in self.front]

        def checked_execute(self, g, p0, p1):
            pairs = front_pairs(self)
            first = next(i for i, pair in enumerate(pairs) if pair in on_map)
            assert g is self.front[first] and (p0, p1) == pairs[first]
            assert [f.id for f in self.front] == sorted(f.id for f in self.front)
            steps["execute"] += 1
            execute(self, g, p0, p1)

        def checked_select(self, pairs):
            assert pairs == front_pairs(self)
            assert not on_map.intersection(pairs)
            on_front = {p for pair in pairs for p in pair}
            expected = [[a, b] for a, b in self.cmap.edge_pairs.tolist() if a in on_front or b in on_front]
            scored.clear()
            pick = select(self, pairs)
            (edges,) = scored
            assert self.cmap.edge_pairs[edges].tolist() == expected
            assert list(pick) in expected
            steps["select"] += 1
            return pick

        def recorded_scores(self, columns):
            scored.append(list(columns))
            return scores(self, columns)

        with patch.multiple(router._Pass, _execute=checked_execute, _select_swap=checked_select,
                            _scores=recorded_scores):
            for algorithm in ALGORITHMS:
                run_trials(dag, cmap, RouterConfig(algorithm=algorithm, num_seeds=2), seed=seed)
        assert steps["execute"] == 2 * 3 * len(ALGORITHMS) * len(dag.two_qubit_rows)


class _CountedDraws:
    """A generator that counts its ``integers`` draws."""

    def __init__(self, seed):
        self.rng, self.draws = np.random.default_rng(seed), 0

    def integers(self, high):
        self.draws += 1
        return self.rng.integers(high)


def _score_vectors(dtype):
    """Score vectors drawn from a few values, so that exact ties are common."""
    values = (st.integers(-2**40, 2**40) if dtype == np.int64 else
              st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from((0.0, -0.0)))
    return st.lists(values, min_size=1, max_size=4).flatmap(
        lambda pool: st.lists(st.sampled_from(pool), min_size=1, max_size=12))


class TestTieRule:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), dtype=st.sampled_from((np.int64, np.float64)), seed=SEEDS)
    def test_the_list_pick_is_the_numpy_pick(self, data, dtype, seed):
        """The pick on a score list is the one the array form
        ``(s == s.min()).nonzero()[0]`` makes, after as many draws."""
        s = np.array(data.draw(_score_vectors(dtype)), dtype=dtype)
        oracle, rng = _CountedDraws(seed), _CountedDraws(seed)
        ties = (s == s.min()).nonzero()[0]
        expected = ties[0] if len(ties) == 1 else ties[int(oracle.integers(len(ties)))]
        assert router._pick_minimum(s.tolist(), rng) == expected
        assert rng.draws == oracle.draws == (len(ties) > 1)

    @settings(max_examples=100, deadline=None)
    @given(dtype=st.sampled_from((np.int64, np.float64)), rows=st.integers(1, 4),
           columns=st.integers(1, 8), seed=SEEDS)
    def test_the_ordered_sum_is_the_accumulated_last_row(self, dtype, rows, columns, seed):
        rng = np.random.default_rng(seed)
        block = (rng.integers(-50, 50, size=(rows, columns)) if dtype == np.int64 else
                 rng.standard_normal((rows, columns)) * 10.0 ** rng.integers(-8, 9, size=(rows, 1)))
        block = block.astype(dtype)
        total, expected = router._ordered_sum(block), np.add.accumulate(block, axis=0)[-1]
        assert total.dtype == expected.dtype and total.tobytes() == expected.tobytes()


ONE_QUBIT = ("h", "x", "s", "t", "rz", "ry")
TWO_QUBIT = ("cx", "cz", "iswap", "ecr", "swap", "root_iswap", "unitary", "barrier")


def _random_circuit(rng, width, count):
    """Mixed 1q/2q circuit with root_iswap, unitary, barrier and mirrored gates."""
    gates = []
    for i in range(count):
        if rng.random() < 0.4:
            kind = ONE_QUBIT[rng.integers(len(ONE_QUBIT))]
            params = (float(rng.uniform(-pi, pi)),) if kind in ("rz", "ry") else ()
            gates.append(Gate(id=i, kind=kind, wires=(int(rng.integers(width)),), params=params))
            continue
        kind = TWO_QUBIT[rng.integers(len(TWO_QUBIT))]
        gates.append(
            Gate(
                id=i,
                kind=kind,
                wires=tuple(int(w) for w in rng.choice(width, 2, replace=False)),
                n=2 if kind == "root_iswap" else 1,
                matrix=haar_su4(rng) if kind == "unitary" else None,
                mirrored=kind != "barrier" and bool(rng.random() < 0.2),
            )
        )
    return CircuitDag(width, gates)


def _random_routing_case(rng, max_gates):
    cmap = random_connected_map(rng, max_nodes=7)
    width = int(rng.integers(2, min(6, cmap.num_physical) + 1))
    return cmap, _random_circuit(rng, width, int(rng.integers(1, max_gates)))


def _equivalent(dag, result):
    return statevector_equivalent(
        dag, result.circuit, result.output_permutation, input_map=result.initial_layout
    )


class TestRoutedEquivalence:
    @settings(max_examples=20, deadline=None)
    @given(seed=SEEDS)
    def test_every_variant_routes_equivalently(self, seed):
        rng = np.random.default_rng(seed)
        cmap, dag = _random_routing_case(rng, 25)
        base = RouterConfig(num_seeds=2)
        dists = build_distance_set(cmap, swap_count(base.basis), base.beta)
        for algorithm in ALGORITHMS:
            for aggression in range(4):
                config = replace(base, algorithm=algorithm, aggression=aggression)
                for result in run_trials(dag, cmap, config, seed=seed, dists=dists):
                    assert _equivalent(dag, result), (algorithm, aggression)

    @pytest.mark.parametrize("algorithm", ("mirage", "finesse"))
    def test_mirroring_a_mirrored_gate_unmirrors_it(self, algorithm):
        dag = CircuitDag(3, [
            Gate(id=0, kind="h", wires=(0,)),
            Gate(id=1, kind="cx", wires=(0, 1), mirrored=True),
            Gate(id=2, kind="rz", wires=(1,), params=(0.3,)),
            Gate(id=3, kind="cx", wires=(1, 2)),
        ])
        cmap = coupling_map(3, [(0, 1), (1, 2)], [0.99, 0.98])
        config = RouterConfig(algorithm=algorithm, aggression=3, num_seeds=3)
        for result in run_trials(dag, cmap, config):
            assert result.metrics.mirror_count == 2
            assert _equivalent(dag, result)


def _route_checking_lookahead(dag, cmap, config) -> int:
    """Route, checking every lookahead the pass scores, from the memo or from
    a walk, against the copying oracle over the pass's predecessor counts.
    Returns how many of them the memo held."""
    lookahead, hits = router._Pass._lookahead, []

    def checked(self):
        hits.append(self.scored_wires is None and tuple(g.id for g in self.front) in self.memo)
        wires = lookahead(self)
        expected = reference_extended_set(self.dag, self.front, self.config.extended_size, self.preds)
        assert wires.tolist() == _wires(self.front + expected).tolist()
        return wires

    with patch.object(router._Pass, "_lookahead", checked):
        run_trials(dag, cmap, config)
    return sum(hits)


def _retire_randomly(p, rng):
    """Start the pass as `run` does, then retire its front gates in a random
    order, layout aside; yield at the start and after each retirement."""
    for g in [g for g in p.dag.gates if p.preds[g.id] == 0]:
        if g.id in p.rows:
            p.front.append(g)
        else:
            p._retire(g.id)
    p.front.sort(key=lambda g: g.id)
    yield
    while p.front:
        g = p.front.pop(int(rng.integers(len(p.front))))
        p._retire(g.id)
        yield


def _counting_walks(walks):
    """A stand-in for `extended_set` that counts walks per (DAG, size,
    front)."""
    walk = router.extended_set

    def counted(dag, front, size, preds):
        walks[id(dag), size, tuple(g.id for g in front)] += 1
        return walk(dag, front, size, preds)

    return counted


class TestLookaheadMemo:
    @settings(max_examples=20, deadline=None)
    @given(seed=SEEDS)
    def test_every_scored_lookahead_equals_the_oracle(self, seed):
        rng = np.random.default_rng(seed)
        cmap, dag = _random_routing_case(rng, 40)
        # The passes of one call share a memo, so the final pass of each
        # trial scores fronts the forward passes walked: hits are checked too.
        hits = 0
        for size in (3, 20):
            for algorithm in ALGORITHMS:
                for aggression in (1, 2):
                    config = RouterConfig(algorithm=algorithm, aggression=aggression,
                                          extended_size=size, num_seeds=2)
                    hits += _route_checking_lookahead(dag, cmap, config)
        # A circuit without 2q gates scores no lookahead, so it has none to reuse.
        assert hits or not dag.two_qubit_rows

    @settings(max_examples=40, deadline=None)
    @given(seed=SEEDS, size=st.sampled_from((1, 3, 20)))
    def test_the_front_fixes_the_extended_set(self, seed, size):
        """Random retirement orders that reach one front see one extended set,
        the one the oracle finds from the front alone."""
        rng = np.random.default_rng(seed)
        cmap, dag = _random_routing_case(rng, 40)
        config = RouterConfig(algorithm="sabre", extended_size=size)
        dists = build_distance_set(cmap, swap_count(config.basis), config.beta)
        plan = RoutePlan.of(dag, config.basis, config.extended_size)
        seen = {}
        for _ in range(3):
            p = router._Pass(dag, cmap, dists, config, rng, Layout(range(cmap.num_physical)),
                             emit=False, allow_mirror=False, plan=plan)
            for _ in _retire_randomly(p, rng):
                ids = [g.id for g in reference_extended_set(dag, p.front, size, p.preds)]
                assert seen.setdefault(tuple(g.id for g in p.front), ids) == ids
                alone = reference_extended_set(dag, p.front, size, reference_remaining_counts(dag, p.front))
                assert ids == [g.id for g in alone]

    def test_each_front_is_walked_once_per_call(self, fabric_4q4e):
        """Two calls on one DAG walk each front once in all: the second
        routes the same way on the plan the first filled, and walks none."""
        for algorithm in ALGORITHMS:
            dag, walks = SUITE["qft_10"](), Counter()
            config = RouterConfig(algorithm=algorithm, num_seeds=4)
            with patch.object(router, "extended_set", _counting_walks(walks)):
                first = run_trials(dag, fabric_4q4e, config)
                walked = sum(walks.values())
                assert _route(run_trials(dag, fabric_4q4e, config)) == _route(first)
            assert walks and max(walks.values()) == 1 and sum(walks.values()) == walked


def _route(results):
    """What the trials chose: swap traces, mirror counts, final layouts and
    the repr of each LF cost."""
    return [(r.swap_trace, r.metrics.mirror_count, r.final_layout, repr(r.metrics.lf_cost))
            for r in results]


class TestRoutePlan:
    @settings(max_examples=25, deadline=None)
    @given(seed=SEEDS, trials=st.integers(1, 3), aggression=st.integers(0, 3))
    def test_the_record_scores_as_the_circuit_does(self, seed, trials, aggression):
        """The LF summed as the final pass emits is `lf_cost` of the circuit
        the record builds, repr for repr, and the record's depth is the
        circuit's; routes that share one plan across the four algorithms
        equal routes of a fresh copy of the circuit."""
        rng = np.random.default_rng(seed)
        cmap, dag = _random_routing_case(rng, 30)
        base = RouterConfig(num_seeds=trials, aggression=aggression)
        for algorithm in ALGORITHMS:
            config = replace(base, algorithm=algorithm)
            shared = run_trials(dag, cmap, config, seed=seed)
            fresh = CircuitDag(dag.num_qubits, dag.gates)
            assert _route(shared) == _route(run_trials(fresh, cmap, config, seed=seed))
            for result in shared:
                assert repr(result.metrics.lf_cost) == repr(lf_cost(result.circuit, cmap, config.basis))
                assert result.metrics.depth == circuit_depth(result.circuit)

    @settings(max_examples=20, deadline=None)
    @given(seed=SEEDS, basis=st.sampled_from(("siswap", "cx", "iswap", "ecr")))
    def test_the_count_table_is_gate_count_gate_by_gate(self, seed, basis):
        """Each wire-table row of the circuit and of its reverse holds its
        gate's count as placed and with the mirror flag flipped."""
        rng = np.random.default_rng(seed)
        dag = _random_circuit(rng, int(rng.integers(2, 6)), int(rng.integers(1, 40)))
        basis = BasisGate.from_name(basis)
        plan = RoutePlan.of(dag, basis, 20)
        assert [g.id for g in plan.reverse.gates] == [g.id for g in dag.gates][::-1]
        for planned, counts in zip((dag, plan.reverse), plan.counts):
            rows = planned.two_qubit_rows
            assert len(counts) == len(rows)
            for g in planned.gates:
                if g.is_two_qubit:
                    flipped = replace(g, mirrored=not g.mirrored)
                    assert counts[rows[g.id]] == (gate_count(g, basis), gate_count(flipped, basis))

    def test_each_front_is_walked_once_per_plan(self):
        """Routes on two fabrics, four algorithms and two seeds share the
        circuit's one plan, which walks each front once, and its memos hold
        exactly the walks.  Another extended size or basis has its own plan."""
        dag, suite = SUITE["qft_10"](), fabric_suite()
        config = RouterConfig(num_seeds=4)
        walks = Counter()
        with patch.object(router, "extended_set", _counting_walks(walks)):
            for fabric in ("4q4e", "5q7e"):
                for algorithm in ALGORITHMS:
                    for seed in (0, 1):
                        run_trials(dag, suite[fabric], replace(config, algorithm=algorithm), seed=seed)
        plan = RoutePlan.of(dag, config.basis, config.extended_size)
        assert walks and max(walks.values()) == 1
        assert sum(walks.values()) == len(plan.memos[0]) + len(plan.memos[1])
        assert RoutePlan.of(dag, config.basis, 5) is not plan
        assert RoutePlan.of(dag, BasisGate("cx"), config.extended_size) is not plan

    def test_an_unread_trial_builds_no_dag(self, fabric_4q4e):
        dag = SUITE["wstate_08"]()
        config = RouterConfig(algorithm="finesse", num_seeds=3)
        RoutePlan.of(dag, config.basis, config.extended_size)  # builds the reverse
        builds, build = [], CircuitDag.__init__

        def counted(self, *args, **kwargs):
            builds.append(self)
            build(self, *args, **kwargs)

        with patch.object(CircuitDag, "__init__", counted):
            results = run_trials(dag, fabric_4q4e, config)
            assert builds == []
            circuit = results[1].circuit
            assert builds == [circuit] and results[1].circuit is circuit
        assert len(circuit.gates) == len(results[1].ops)

    def test_memo_entries_are_read_only_front_then_extended_rows(self, fabric_4q4e):
        """Each memo entry, shared by every trial, fabric and algorithm that
        routes on the plan, is the wire pairs of the front's gates then of
        its extended set's, and refuses a write."""
        dag = SUITE["qft_10"]()
        config = RouterConfig(algorithm="finesse", num_seeds=2)
        run_trials(dag, fabric_4q4e, config)
        plan = RoutePlan.of(dag, config.basis, config.extended_size)
        for planned, memo in zip((dag, plan.reverse), plan.memos):
            assert memo
            for key, scored in memo.items():
                front = [planned.gate(i) for i in key]
                counts = reference_remaining_counts(planned, front)
                extended = reference_extended_set(planned, front, config.extended_size, counts)
                assert scored.dtype == np.intp
                assert scored.tolist() == [list(g.wires) for g in front + extended]
                with pytest.raises(ValueError, match="read-only"):
                    scored[0] = 0

    def test_a_routed_circuit_and_its_fabric_are_freed(self):
        """The plan and the distance set a route leaves behind, its swap
        tables built, hold neither the circuit nor the fabric, so both go once
        the caller drops them."""
        dag, cmap = SUITE["wstate_08"](), fabric_suite()["4q4e"]
        config = RouterConfig(algorithm="finesse", num_seeds=1)
        run_trials(dag, cmap, config)
        assert {"blend_delta", "blend_rows"} <= set(vars(build_distance_set(cmap, swap_count(config.basis),
                                                                            config.beta)))
        refs = weakref.ref(dag), weakref.ref(cmap)
        del dag, cmap
        gc.collect()
        assert [ref() for ref in refs] == [None, None]


class TestUnreadWork:
    """What a route builds only when it reads it: tie streams on their first
    draw, and routed circuits without checking each gate again."""

    @settings(max_examples=40, deadline=None)
    @given(seed=SEEDS, algorithm=st.sampled_from(ALGORITHMS), stream=st.integers(1, 3),
           valve=st.integers(1, 10))
    def test_a_pass_draws_and_routes_as_with_a_generator(self, seed, algorithm, stream, valve):
        """Given the stand-in or the plain Generator for one key, a pass
        routes identically, and the stand-in builds its stream only if the
        Generator drew, leaving it in the Generator's state."""
        rng = np.random.default_rng(seed)
        cmap, dag = _random_routing_case(rng, 30)
        config = RouterConfig(algorithm=algorithm, release_valve_threshold=valve)
        dists = build_distance_set(cmap, swap_count(config.basis), config.beta)
        plan = RoutePlan.of(dag, config.basis, config.extended_size)
        planned, emit = (plan.reverse, False) if stream == 2 else (dag, stream == 3)
        layout = Layout(rng.permutation(cmap.num_physical).tolist())
        generator, stand_in = seeded_stream(seed, 0, stream), router._FirstDrawStream(seed, 0, stream)
        results = [router.route_pass(planned, cmap, dists, config, draws, layout, emit=emit,
                                     allow_mirror=stream != 2, plan=plan)
                   for draws in (generator, stand_in)]
        fields = lambda r: (r.final_layout, r.ops, repr(r.lf_cost), r.swap_trace, r.mirrors, r.valve_fires)
        assert fields(results[0]) == fields(results[1])
        state = generator.bit_generator.state
        if stand_in.stream is None:
            assert state == seeded_stream(seed, 0, stream).bit_generator.state
        else:
            assert state == stand_in.stream.bit_generator.state

    def test_only_a_pass_that_draws_builds_its_stream(self):
        """run_trials builds each trial's layout stream, and a pass stream
        only for a pass that breaks a tie: here fewer than all of them."""
        passes, built = [], Counter()
        route_pass, build = router.route_pass, router.seeded_stream

        def recorded_pass(*args, **kwargs):
            passes.append(args[4])
            return route_pass(*args, **kwargs)

        def recorded_stream(seed, *key):
            built[key[-1] == 0] += 1
            return build(seed, *key)

        config = RouterConfig(algorithm="fasst", num_seeds=12)
        with patch.multiple(router, route_pass=recorded_pass, seeded_stream=recorded_stream):
            run_trials(SUITE["qft_10"](), fabric_suite()["4q6e"], config)
        drawn = sum(p.stream is not None for p in passes)
        assert len(passes) == 3 * config.num_seeds and 0 < drawn < len(passes)
        assert built == {True: config.num_seeds, False: drawn}

    @settings(max_examples=25, deadline=None)
    @given(seed=SEEDS, aggression=st.integers(0, 3))
    def test_the_unchecked_circuit_equals_a_checked_build(self, seed, aggression):
        """Each gate of `RoutingResult.circuit` equals, field by field, the
        gate `Gate` builds and checks from the op and its source, with int
        wires, and the DAGs have the same arcs."""
        rng = np.random.default_rng(seed)
        cmap, dag = _random_routing_case(rng, 30)
        for algorithm in ALGORITHMS:
            config = RouterConfig(algorithm=algorithm, aggression=aggression, num_seeds=2)
            for result in run_trials(dag, cmap, config, seed=seed):
                checked = [
                    Gate(id=i, kind="swap", wires=op.wires) if op.source is None else
                    Gate(id=i, kind=op.kind, wires=op.wires, params=op.source.params, n=op.source.n,
                         matrix=op.source.matrix, mirrored=op.mirrored)
                    for i, op in enumerate(result.ops)
                ]
                built = result.circuit.gates
                assert len(built) == len(checked)
                for got, want in zip(built, checked):
                    assert type(got) is Gate and vars(got).keys() == vars(want).keys()
                    assert all(type(w) is int for w in got.wires)
                    assert got.matrix is want.matrix
                    assert [getattr(got, f) for f in ("id", "kind", "wires", "params", "n", "mirrored")] == \
                        [getattr(want, f) for f in ("id", "kind", "wires", "params", "n", "mirrored")]
                assert same_circuit(result.circuit, CircuitDag(result.circuit.num_qubits, checked))

    def test_numpy_endpoints_leave_ints_in_a_route(self):
        """A line built from np.int64 endpoints stores ints, so the release
        valve's swaps, the swap trace and the layouts hold ints and serialise."""
        cmap = coupling_map(8, [(np.int64(i), np.int64(i + 1)) for i in range(7)],
                            [0.99 - 0.001 * i for i in range(7)])
        assert all(type(p) is int for i, j, _ in cmap.edges for p in (i, j))
        dag = CircuitDag(8, [Gate(id=i, kind="cx", wires=w) for i, w in enumerate([(0, 7), (1, 6), (7, 2)])])
        config = RouterConfig(release_valve_threshold=1, num_seeds=3)
        results = [transpile(dag, cmap, config)] + run_trials(dag, cmap, config)
        assert any(r.swap_trace for r in results)
        for r in results:
            assert all(type(p) is int for pair in r.swap_trace for p in pair)
            assert all(type(p) is int for p in r.final_layout + r.initial_layout)
            json.dumps([r.swap_trace, r.final_layout, r.initial_layout, r.metrics.to_dict()])


def _trial(index, lf_cost, depth, swaps):
    metrics = TrialMetrics(lf_cost=lf_cost, depth=depth, swap_count=swaps, mirror_count=0, seed=index)
    return RoutingResult((), (0,), (0,), metrics)


class TestSelectTrial:
    @given(keys=st.lists(st.tuples(*[st.integers(0, 2)] * 3), min_size=1, max_size=8))
    def test_first_minimum_wins(self, keys):
        trials = [_trial(i, float(lf), depth, swaps) for i, (lf, depth, swaps) in enumerate(keys)]
        column = {"sabre": 2, "mirage": 1, "fasst": 0, "finesse": 0}
        for algorithm in ALGORITHMS:
            for mode in ("native", "fidelity"):
                col = 0 if mode == "fidelity" else column[algorithm]
                expected = trials[int(np.argmin([k[col] for k in keys]))]
                config = RouterConfig(algorithm=algorithm, post_selection=mode)
                assert select_trial(trials, config) is expected

    def test_ties_take_the_first_index(self):
        trials = [_trial(0, 2.0, 5, 3), _trial(1, 1.0, 4, 2), _trial(2, 1.0, 4, 2)]
        for algorithm in ALGORITHMS:
            assert select_trial(trials, RouterConfig(algorithm=algorithm)) is trials[1]

    def test_no_trials_is_a_routing_error(self):
        for algorithm in ALGORITHMS:
            with pytest.raises(router.RoutingError, match="^no trials to select from$"):
                select_trial([], RouterConfig(algorithm=algorithm))


# Routes of the suite on the 4q4e fabric at seed 0: per-trial mirror counts,
# the sha256 of the repr of the swap traces, and the repr of each LF cost.
GOLDEN = {
    ("ae_10", "finesse", 6): (
        [41, 38, 39, 38, 43, 36],
        "8bf015894aee7637022111a920c58e683ad7ec73b6743cf69a57883972fa6c61",
        ["1.3054503949507028", "1.447920421971854", "1.380718075587018",
         "1.518188610865497", "1.1572241062944475", "1.293394129686611"],
    ),
    ("wstate_08", "sabre", 2): (
        [0, 0],
        "7f818161ee5a897f1c9480c1f4abd3e84b34c9b18309b435adf7f73454ba3a83",
        ["0.3158868594586661", "0.2527137056139987"],
    ),
    ("qft_10", "fasst", 2): (
        [0, 0],
        "c21c368497bcca32d79b4f05150fdb327896180bf9faacdc6442a5265e9ab43f",
        ["1.5761871265459286", "1.8381056729403449"],
    ),
    ("ae_10", "mirage", 2): (
        [32, 41],
        "7d1f5bee377e849c838b48db7c92ca5646629fc70d5e108a6d2486cbff754085",
        ["1.4198491615025324", "1.5142339212284128"],
    ),
}


@pytest.fixture(scope="module")
def fabric_4q4e():
    return fabric_suite()["4q4e"]


@pytest.mark.parametrize("workload, algorithm, trials", sorted(GOLDEN))
def test_golden_route(fabric_4q4e, workload, algorithm, trials):
    mirrors, digest, costs = GOLDEN[(workload, algorithm, trials)]
    config = RouterConfig(algorithm=algorithm, num_seeds=trials)
    results = run_trials(SUITE[workload](), fabric_4q4e, config, seed=0)
    assert [r.metrics.mirror_count for r in results] == mirrors
    assert hashlib.sha256(repr([r.swap_trace for r in results]).encode()).hexdigest() == digest
    assert [repr(r.metrics.lf_cost) for r in results] == costs


# Calls to `_execute`, `_select_swap`, `_scores` and `_mirror_sums` routing
# each circuit on the 4q6e fabric at seed 0 with 2 trials: the work a route
# does, counted, so that a faster router shows it takes cheaper steps, not
# fewer or other ones.  A mirror decision scored through `_scores` until it
# summed on lists, so the last two add up to the `_scores` count before
# (qft_10/finesse: 215 + 380 = 595).
STEP_COUNTS = {
    ("qft_10", "sabre"): (570, 255, 255, 0),
    ("qft_10", "fasst"): (570, 248, 248, 0),
    ("qft_10", "mirage"): (570, 211, 211, 380),
    ("qft_10", "finesse"): (570, 215, 215, 380),
    ("seca_11", "sabre"): (252, 104, 104, 0),
    ("seca_11", "fasst"): (252, 97, 97, 0),
    ("seca_11", "mirage"): (252, 79, 79, 168),
    ("seca_11", "finesse"): (252, 89, 89, 168),
}


@pytest.mark.parametrize("workload, algorithm", sorted(STEP_COUNTS))
def test_a_route_takes_its_pinned_steps(workload, algorithm):
    steps = Counter()

    def counted(name):
        method = getattr(router._Pass, name)

        def call(self, *args):
            steps[name] += 1
            return method(self, *args)
        return call

    names = ("_execute", "_select_swap", "_scores", "_mirror_sums")
    with patch.multiple(router._Pass, **{name: counted(name) for name in names}):
        run_trials(SUITE[workload](), fabric_suite()["4q6e"], RouterConfig(algorithm=algorithm, num_seeds=2))
    assert tuple(steps[name] for name in names) == STEP_COUNTS[workload, algorithm]


@pytest.mark.parametrize("workload, algorithm, trials", sorted(GOLDEN))
def test_the_reference_route_gives_the_golden_pins(fabric_4q4e, workload, algorithm, trials):
    config = RouterConfig(algorithm=algorithm, num_seeds=trials)
    routes = reference_route(SUITE[workload](), fabric_4q4e, config, 0)
    traces, mirrors, _, costs = zip(*routes)
    digest = hashlib.sha256(repr(list(traces)).encode()).hexdigest()
    assert (list(mirrors), digest, list(costs)) == GOLDEN[(workload, algorithm, trials)]


@settings(max_examples=200, deadline=None)
@given(seed=SEEDS, algorithm=st.sampled_from(ALGORITHMS), aggression=st.integers(0, 3),
       trials=st.integers(1, 3), extended_size=st.sampled_from((2, 20)), valve=st.integers(1, 10))
def test_every_route_equals_the_reference_route(seed, algorithm, aggression, trials, extended_size, valve):
    """Whole routes (swap traces, mirror counts, final layouts and the repr
    of LF) equal the list-and-dict rewrite of `run_trials`, on random maps
    of <= 7 nodes and circuits with mirrored, unitary and barrier gates."""
    rng = np.random.default_rng(seed)
    cmap, dag = _random_routing_case(rng, 30)
    config = RouterConfig(algorithm=algorithm, aggression=aggression, num_seeds=trials,
                          extended_size=extended_size, release_valve_threshold=valve)
    assert _route(run_trials(dag, cmap, config, seed=seed)) == reference_route(dag, cmap, config, seed)


@pytest.mark.parametrize("fabric, extra_k, beta, routed", [
    pytest.param("4q4e", 0, 1.0, "5q7e", id="4q4e-0-1.0-shape"),  # 16 qubits against 15
    pytest.param("5q7e", 1, 1.0, "5q7e", id="5q7e-1-1.0-k_swap"),
    pytest.param("5q7e", 0, 0.5, "5q7e", id="5q7e-0-0.5-beta"),
    pytest.param("4q5e", 0, 1.0, "4q4e", id="4q5e-0-1.0-same-size"),  # 16 qubits each
])
def test_a_distance_set_for_another_fabric_or_config_is_refused(fabric, extra_k, beta, routed):
    config = RouterConfig(num_seeds=1)
    suite = fabric_suite()
    dists = build_distance_set(suite[fabric], swap_count(config.basis) + extra_k, beta)
    with pytest.raises(router.RoutingError, match="^distance set is not the one built for"):
        run_trials(SUITE["wstate_08"](), suite[routed], config, dists=dists)
    own = build_distance_set(suite[routed], swap_count(config.basis), config.beta)
    assert run_trials(SUITE["wstate_08"](), suite[routed], config, dists=own)


@pytest.mark.parametrize("name, value", [
    ("num_seeds", 2.0), ("num_seeds", True), ("num_seeds", 0),
    ("extended_size", 2.5), ("extended_size", -1),
    ("aggression", 1.5), ("aggression", 4), ("aggression", False),
    ("release_valve_threshold", 0), ("release_valve_threshold", True),
    ("w", float("nan")), ("w", -1.0), ("w", float("inf")), ("w", True), ("w", "0.5"),
    ("beta", True),
])
def test_a_bad_config_field_is_refused_by_name(name, value):
    """Each int field takes only a non-bool int in its range, and w and beta
    only a finite non-bool real >= 0; the error names the field and the
    value."""
    with pytest.raises(router.RoutingError, match=f"^{name} must be .*, not {re.escape(repr(value))}$"):
        RouterConfig(**{name: value})


@pytest.mark.parametrize("beta", [float("nan"), float("inf"), -1.0])
def test_beta_must_be_finite_and_nonnegative(beta):
    with pytest.raises(router.RoutingError, match=f"beta must be a finite real >= 0, not {beta}"):
        RouterConfig(algorithm="finesse", beta=beta)
