import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from finesse.ir import (
    ONE_QUBIT_KINDS,
    TWO_QUBIT_KINDS,
    CircuitDag,
    CircuitError,
    Gate,
    Layout,
    build_dag,
    circuit_depth,
    extended_set,
    retire,
)

from oracles import (
    QASM_PARAMETERS,
    arc_set,
    dag_arcs,
    reference_extended_set,
    reference_front,
    reference_remaining_counts,
)


def chain_dag():
    return build_dag(2, [("h", (0,)), ("cx", (0, 1)), ("x", (1,))])


def retired_front(dag, executed):
    """The router's walk: `retire` every 1q or barrier root, then each held
    2q gate of a downward-closed ``executed`` while one is held.  Returns the
    held 2q gates left, in gate order, the counts, and every gate executed:
    ``executed`` and the 1q gates and barriers the walk ran."""
    counts, held, done = dag.predecessor_counts(), [], set()

    def run(gid):
        done.add(gid)
        readied, local = retire(dag, counts, gid)
        held.extend(readied)
        done.update(g.id for g in local)

    for g in dag.roots:
        if g.id in dag.two_qubit_rows:
            held.append(g)
        else:
            run(g.id)
    while ready := [g for g in held if g.id in executed]:
        held.remove(ready[0])
        run(ready[0].id)
    left = {g.id for g in held}
    return [g for g in dag.gates if g.id in left], counts, done


class TestGate:
    def test_wires_must_be_distinct(self):
        with pytest.raises(CircuitError):
            Gate(id=0, kind="cx", wires=(1, 1))

    def test_wire_count_per_kind(self):
        with pytest.raises(CircuitError):
            Gate(id=0, kind="h", wires=(0, 1))
        with pytest.raises(CircuitError):
            Gate(id=0, kind="cx", wires=(0,))

    def test_root_iswap_order_positive(self):
        with pytest.raises(CircuitError):
            Gate(id=0, kind="root_iswap", wires=(0, 1), n=0)
        with pytest.raises(CircuitError, match="root_iswap order must be an integer >= 1, not True"):
            Gate(id=0, kind="root_iswap", wires=(0, 1), n=True)
        assert Gate(id=0, kind="root_iswap", wires=(0, 1), n=3).n == 3

    def test_a_wire_must_be_an_integer(self):
        with pytest.raises(CircuitError, match=r"^a gate wire must be an integer >= 0, not 1\.5$"):
            Gate(id=0, kind="cx", wires=(0, 1.5))

    def test_unitary_kind_checks_matrix(self):
        with pytest.raises(CircuitError):
            Gate(id=0, kind="unitary", wires=(0, 1), matrix=np.ones((4, 4), dtype=complex))
        m = np.eye(4, dtype=complex)
        assert Gate(id=0, kind="unitary", wires=(0, 1), matrix=m).matrix is m

    def test_param_arity(self):
        with pytest.raises(CircuitError):
            Gate(id=0, kind="rx", wires=(0,), params=())

    @pytest.mark.parametrize("kind", sorted(ONE_QUBIT_KINDS | TWO_QUBIT_KINDS | {"barrier"}))
    def test_every_kind_refuses_a_parameter_count_not_its_own(self, kind):
        """Each kind builds with its OpenQASM 2 count and refuses one more
        and, when it takes any, one fewer."""
        wires = (0,) if kind in ONE_QUBIT_KINDS else (0, 1)
        matrix = np.eye(4, dtype=complex) if kind == "unitary" else None
        own = QASM_PARAMETERS.get(kind, 0)
        assert Gate(0, kind, wires, params=(0.5,) * own, matrix=matrix).params == (0.5,) * own
        for count in {own + 1, max(own - 1, 0)} - {own}:
            with pytest.raises(CircuitError, match=rf"^{kind} expects {own} parameter\(s\), got {count}$"):
                Gate(0, kind, wires, params=(0.5,) * count, matrix=matrix)


class TestDag:
    def test_chain_arcs(self):
        dag = chain_dag()
        assert dag.predecessor_counts() == {0: 0, 1: 1, 2: 1}
        assert arc_set(dag) == {(0, 1), (1, 2)}

    def test_arcs_are_nearest_successor_only(self):
        # h; x; cx on wire 0: h -> x -> cx, no transitive h -> cx arc
        dag = build_dag(2, [("h", (0,)), ("x", (0,)), ("cx", (0, 1))])
        assert dag.predecessor_counts() == {0: 0, 1: 1, 2: 1}
        # Retiring the h readies the x alone; the walk runs it, which readies the cx.
        assert retire(dag, dag.predecessor_counts(), 0) == ([dag.gate(2)], [dag.gate(1)])

    def test_shared_two_wires_single_successor_counted_twice(self):
        dag = build_dag(2, [("cx", (0, 1)), ("cx", (0, 1))])
        assert dag_arcs(dag)[0] == [1, 1]
        counts = dag.predecessor_counts()
        assert counts[1] == 2
        # One retirement of gate 0 lowers both arcs: gate 1 is then ready.
        assert retire(dag, counts, 0) == ([dag.gate(1)], [])
        assert counts[1] == 0

    def test_wire_out_of_range(self):
        with pytest.raises(CircuitError):
            build_dag(1, [("cx", (0, 1))])

    def test_reversed_reverses_order(self):
        dag = chain_dag()
        assert [g.kind for g in dag.reversed().gates] == ["x", "cx", "h"]

class TestRetireFront:
    """The router's walk by `retire` leaves the front that `reference_front`
    finds once every gate it ran has executed."""

    def test_first_gate_ready(self):
        # The h root runs at once, so the cx is the first gate held.
        dag = chain_dag()
        front, _, done = retired_front(dag, set())
        assert done == {0} and front == reference_front(dag, done) == [dag.gate(1)]

    def test_after_h_cx_ready(self):
        # Retiring the cx runs the x it readies.
        dag = chain_dag()
        front, _, done = retired_front(dag, {0, 1})
        assert done == {0, 1, 2} and front == reference_front(dag, done) == []

    def test_parallel_gates_both_ready(self):
        dag = build_dag(4, [("cx", (0, 1)), ("cx", (2, 3))])
        assert retired_front(dag, set())[0] == reference_front(dag, set()) == list(dag.gates)

    def test_partition_of_gates(self):
        dag = build_dag(4, [("cx", (0, 1)), ("cx", (1, 2)), ("cx", (2, 3)), ("cx", (0, 1))])
        executed = {0}
        front, counts, _ = retired_front(dag, executed)
        assert front == reference_front(dag, executed) == [dag.gate(1)]
        # The counts left are the arcs from the front and its descendants.
        assert counts == reference_remaining_counts(dag, front) == {0: 0, 1: 0, 2: 1, 3: 1}

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_the_roots_are_the_front_with_nothing_executed(self, seed):
        """`CircuitDag.roots`, kept once per DAG, and its reverse's are the
        gates without a predecessor, in gate order."""
        dag = _random_dag(np.random.default_rng(seed))
        for planned in (dag, dag.reversed()):
            assert isinstance(planned.roots, tuple)
            assert list(planned.roots) == reference_front(planned, set())


def _roots(dag):
    counts = dag.predecessor_counts()
    return [g for g in dag.gates if counts[g.id] == 0]


class TestExtendedSet:
    """From the roots, the remaining counts are the DAG's own."""

    def test_successors_collected(self):
        dag = build_dag(4, [("cx", (0, 1)), ("cx", (1, 2)), ("cx", (0, 3))])
        assert [g.id for g in extended_set(dag, _roots(dag), 20, dag.predecessor_counts())] == [1, 2]

    def test_size_zero(self):
        dag = chain_dag()
        assert extended_set(dag, _roots(dag), 0, dag.predecessor_counts()) == []

    def test_tie_break_by_id_at_same_level(self):
        dag = build_dag(4, [("cx", (0, 1)), ("cx", (1, 2)), ("cx", (0, 3))])
        picked = extended_set(dag, _roots(dag), 1, dag.predecessor_counts())
        assert [g.id for g in picked] == [1]

    def test_one_qubit_gates_traversed_not_collected(self):
        dag = build_dag(3, [("cx", (0, 1)), ("h", (1,)), ("cx", (1, 2))])
        assert [g.id for g in extended_set(dag, _roots(dag), 20, dag.predecessor_counts())] == [2]

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_walk_matches_copying_oracle(self, seed):
        rng = np.random.default_rng(seed)
        dag = _random_dag(rng)
        arcs = dag_arcs(dag)
        preds = {g.id: 0 for g in dag.gates}
        for successors in arcs.values():
            for s in successors:
                preds[s] += 1
        # execute a random prefix of a random topological order
        ready = [g.id for g in dag.gates if preds[g.id] == 0]
        executed = set()
        for _ in range(int(rng.integers(0, len(dag.gates) + 1))):
            if not ready:
                break
            gid = ready.pop(int(rng.integers(len(ready))))
            executed.add(gid)
            for s in arcs[gid]:
                preds[s] -= 1
                if preds[s] == 0:
                    ready.append(s)
        front = sorted((dag.gate(gid) for gid in ready), key=lambda g: g.id)
        full = rng.random() < 0.5
        if not full:  # the router's front holds only 2q gates
            front = [g for g in front if g.is_two_qubit]
        size = int(rng.integers(0, 25))
        before = dict(preds)
        expected = reference_extended_set(dag, front, size, preds)
        assert extended_set(dag, front, size, preds) == expected
        assert preds == before
        # The router's walk past the prefix: its front alone fixes the counts.
        held, counts, done = retired_front(dag, executed)
        assert done >= executed and held == reference_front(dag, done)
        assert counts == reference_remaining_counts(dag, held)


def _random_dag(rng):
    """Mixed 1q/2q/barrier DAG on <= 6 wires with distinct, shuffled, sparse ids."""
    width = int(rng.integers(2, 7))
    count = int(rng.integers(0, 40))
    ids = rng.choice(10 * count + 1, count, replace=False)
    gates = []
    for gid in ids:
        r = rng.random()
        if r < 0.4:
            gates.append(Gate(id=int(gid), kind="h", wires=(int(rng.integers(width)),)))
        else:
            kind = "barrier" if r < 0.5 else "cx"
            wires = tuple(int(w) for w in rng.choice(width, 2, replace=False))
            gates.append(Gate(id=int(gid), kind=kind, wires=wires))
    return CircuitDag(width, gates)


class TestWireTable:
    def test_rows_hold_each_two_qubit_gate_wires(self):
        dag = _random_dag(np.random.default_rng(5))
        two_qubit = [g for g in dag.gates if g.is_two_qubit]
        assert set(dag.two_qubit_rows) == {g.id for g in two_qubit}
        for g in two_qubit:
            assert tuple(dag.wire_table[dag.two_qubit_rows[g.id]]) == g.wires
        assert dag.wire_table.shape == (len(two_qubit), 2)

    def test_built_only_on_first_use(self):
        dag = chain_dag()
        assert "wire_table" not in vars(dag) and "two_qubit_rows" not in vars(dag)
        assert dag.wire_table.tolist() == [[0, 1]]
        assert "wire_table" in vars(dag)

    def test_empty_dag(self):
        dag = CircuitDag(2, [])
        assert dag.wire_table.shape == (0, 2) and dag.two_qubit_rows == {}


class TestDepth:
    def test_empty(self):
        assert circuit_depth(build_dag(3, [])) == 0

    def test_chain(self):
        assert circuit_depth(chain_dag()) == 3

    def test_parallel(self):
        assert circuit_depth(build_dag(4, [("cx", (0, 1)), ("cx", (2, 3))])) == 1

    def test_barriers_do_not_count(self):
        dag = build_dag(2, [("h", (0,)), ("barrier", (0, 1)), ("x", (1,))])
        assert circuit_depth(dag) == 2

    @settings(max_examples=100, deadline=None)
    @given(width=st.integers(1, 5), data=st.data())
    def test_depth_is_the_longest_path_over_the_arcs(self, width, data):
        """The depth is the most non-barrier gates on any path of the arcs
        chained from the gates (`dag_arcs`)."""
        kinds = st.sampled_from(("h", "cx", "barrier", "barrier1") if width > 1 else ("h", "barrier1"))
        ops = []
        for kind in data.draw(st.lists(kinds, max_size=30)):
            wires = data.draw(st.permutations(range(width)))[:1 if kind in ("h", "barrier1") else 2]
            ops.append(("barrier" if kind == "barrier1" else kind, tuple(wires)))
        dag = build_dag(width, ops)
        arcs, longest = dag_arcs(dag), {}
        for g in dag.gates:  # gate order is topological, so every predecessor is done
            into = [longest[a] for a, successors in arcs.items() if g.id in successors]
            longest[g.id] = max(into, default=0) + (g.kind != "barrier")
        assert circuit_depth(dag) == max(longest.values(), default=0)
        assert circuit_depth(dag.gates) == circuit_depth(dag)

    def test_invariant_under_topological_reorder(self):
        gates = [("cx", (0, 1)), ("h", (2,)), ("cx", (2, 3)), ("cx", (1, 2))]
        dag = build_dag(4, gates)
        reordered = build_dag(4, [gates[1], gates[2], gates[0], gates[3]])
        assert circuit_depth(dag) == circuit_depth(reordered)


class TestLayout:
    def test_bijection_enforced(self):
        with pytest.raises(CircuitError):
            Layout([0, 0, 1])

    def test_physical_is_the_given_map(self):
        lay = Layout([2, 0, 1])
        assert [lay.physical_list[v] for v in range(3)] == [2, 0, 1]

    def test_swap_physical(self):
        lay = Layout([0, 1, 2])
        lay.swap_physical(0, 2)
        assert lay.physical_list[0] == 2 and lay.physical_list[2] == 0

    @given(n=st.integers(1, 9), data=st.data())
    def test_physical_array_tracks_swaps(self, n, data):
        lay = Layout(data.draw(st.permutations(range(n))))
        for p0, p1 in data.draw(st.lists(st.tuples(*[st.integers(0, n - 1)] * 2), max_size=12)):
            lay.swap_physical(p0, p1)
            assert lay.physical_array.tolist() == lay.to_list()
            assert [lay.virtual_list[p] for p in lay.to_list()] == list(range(n))
        assert lay.physical_array.dtype == np.intp
        assert lay.copy().physical_array is not lay.physical_array

    @given(n=st.integers(1, 9), data=st.data())
    def test_a_copy_is_an_independent_bijection(self, n, data):
        """After random swaps on a copy, its list, array and inverse are a
        fresh layout's of the same map; the source keeps its own, and the
        two share no list or array."""
        source = Layout(data.draw(st.permutations(range(n))))
        before = (source.to_list(), source.physical_array.tolist(), list(source._p2v))
        copy = source.copy()
        for p0, p1 in data.draw(st.lists(st.tuples(*[st.integers(0, n - 1)] * 2), max_size=12)):
            copy.swap_physical(p0, p1)
        fresh = Layout(copy.to_list())
        assert copy.physical_list == fresh.physical_list
        assert copy.physical_array.tolist() == fresh.physical_array.tolist()
        assert copy.physical_array.dtype == fresh.physical_array.dtype
        assert copy._p2v == fresh._p2v
        assert (source.to_list(), source.physical_array.tolist(), list(source._p2v)) == before
        assert copy.physical_list is not source.physical_list and copy._p2v is not source._p2v
        assert not np.shares_memory(copy.physical_array, source.physical_array)

    def test_numpy_permutation_gives_python_ints(self):
        lay = Layout(np.random.default_rng(0).permutation(4))
        assert all(type(p) is int for p in lay.to_list())
        with pytest.raises(CircuitError, match=r"^layout position 0 must be an integer >= 0, not 0\.0$"):
            Layout([0.0, 1.0])

    @pytest.mark.parametrize("wires, position", [
        ([1.0, 0.0], 0), ([True, False], 0), ([0, np.True_], 1), ([1, 0, "2"], 2),
        ([0, 2.5, 1], 1), ([np.float64(0.0), 1], 0), ([0, None], 1),
    ])
    def test_a_wire_that_is_not_an_integer_is_refused_by_position(self, wires, position):
        """A bool, float, string or None is refused by name and position,
        never read as the integer it converts to; numpy integers pass."""
        with pytest.raises(CircuitError, match=f"^layout position {position} must be an integer >= 0, "
                                               f"not {re.escape(repr(wires[position]))}$"):
            Layout(wires)
        assert Layout([np.int64(1), np.int32(0)]).to_list() == [1, 0]
