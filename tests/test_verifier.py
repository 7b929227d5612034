"""Verifier: every method against the dense-matrix oracle in `oracles.py`, on
circuits routed by hand with plain swaps, swaps computed as three cx and
mirrored gates, and with 1q gates placed where folding them into 2q gates
could go wrong; gates fused into blocks at every block width, one state pass
per block; one reference evolution per
DAG and seed; five mutations each method must reject, on a warm
reference memo; Clifford's stricter ancilla contract; refused options and
wire maps; and the routers' release valve."""
import gc
import weakref
from contextlib import contextmanager
from dataclasses import dataclass
from math import pi
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from finesse import router, verifier, workloads
from finesse.ir import CircuitDag, Gate, build_dag
from finesse.qasm import parse_qasm
from finesse.router import ALGORITHMS, RouterConfig, run_trials
from finesse.stabilizer import CliffordTableau, NonCliffordError
from finesse.verifier import (
    STATEVECTOR_WIDTH_LIMIT,
    UNITARY_WIDTH_LIMIT,
    VerifierError,
    WidthError,
    _TrackedState,
    clifford_equivalent,
    statevector_equivalent,
    unitary_equivalent,
)

from oracles import coupling_map, dense_unitary, reference_equivalent

SEEDS = st.integers(0, 2**32 - 1)
ONE_QUBIT = {False: ("h", "x", "rz", "ry"), True: ("h", "x")}


def _random_reference(rng, n: int, depth: int, clifford: bool) -> CircuitDag:
    """Random h/x/rz/ry/cx/swap circuit (h/x/cx/swap when ``clifford``)."""
    ops = []
    for _ in range(depth):
        if n > 1 and rng.random() < 0.45:
            kind = "cx" if rng.random() < 0.8 else "swap"
            ops.append((kind, rng.choice(n, 2, replace=False).tolist()))
        else:
            kind = str(rng.choice(ONE_QUBIT[clifford]))
            params = (float(rng.uniform(0, 2 * pi)),) if kind in ("rz", "ry") else ()
            ops.append((kind, (int(rng.integers(n)),), params))
    return build_dag(n, ops)


def _circuit(width: int, gates) -> CircuitDag:
    return CircuitDag(width, [
        Gate(id=i, kind=g.kind, wires=g.wires, params=g.params, mirrored=g.mirrored)
        for i, g in enumerate(gates)
    ])


@dataclass
class Routed:
    """A reference routed by hand, and where each mutation may strike."""

    ref: CircuitDag
    gates: list
    perm: list        # output wire -> virtual wire
    input_map: list   # virtual wire -> input wire, full length
    swaps: list       # inserted plain swaps, by gate index
    data_swaps: list  # those of them that move a reference wire
    ref_gates: list   # gates of the reference, by gate index

    @property
    def width(self) -> int:
        return len(self.perm)

    @property
    def circuit(self) -> CircuitDag:
        return _circuit(self.width, self.gates)


def _route_by_hand(rng, ref: CircuitDag, width: int) -> Routed:
    """Place the reference wires at random (ancillas on the unused wires in
    ascending order); before each gate, maybe swap a random wire pair, plainly
    or as three cx; mirror some 2q gates."""
    n = ref.num_qubits
    data = rng.choice(width, n, replace=False).tolist()
    on_wire = [0] * width  # wire -> virtual wire
    for v, w in enumerate(data + [w for w in range(width) if w not in data]):
        on_wire[w] = v
    input_map = sorted(range(width), key=lambda w: on_wire[w])
    gates, swaps, data_swaps, ref_gates = [], [], [], []

    def emit(kind, wires, params=(), mirrored=False):
        gates.append(Gate(id=len(gates), kind=kind, wires=tuple(wires), params=params,
                          mirrored=mirrored))

    def exchange(a, b):
        on_wire[a], on_wire[b] = on_wire[b], on_wire[a]

    for g in ref.gates:
        if width > 1 and rng.random() < 0.5:
            a, b = rng.choice(width, 2, replace=False).tolist()
            if rng.random() < 0.5:
                swaps.append(len(gates))
                if min(on_wire[a], on_wire[b]) < n:
                    data_swaps.append(len(gates))
                emit("swap", (a, b))
            else:
                for wires in ((a, b), (b, a), (a, b)):
                    emit("cx", wires)
            exchange(a, b)
        wires = [on_wire.index(v) for v in g.wires]
        mirrored = g.is_two_qubit and rng.random() < 0.3
        ref_gates.append(len(gates))
        emit(g.kind, wires, g.params, mirrored)
        if mirrored:
            exchange(*wires)
    return Routed(ref, gates, list(on_wire), input_map, swaps, data_swaps, ref_gates)


def _random_case(rng, clifford: bool, min_ref: int = 1) -> Routed:
    n = int(rng.integers(min_ref, 6))
    width = int(rng.integers(n, 8))
    ref = _random_reference(rng, n, int(rng.integers(1, 16)), clifford)
    return _route_by_hand(rng, ref, width)


def _verdicts(ref, routed, perm, input_map, clifford: bool) -> dict:
    out = {
        "statevector": statevector_equivalent(ref, routed, perm, input_map=input_map),
        "unitary": unitary_equivalent(ref, routed, perm, input_map=input_map),
    }
    if clifford:
        out["clifford"] = clifford_equivalent(ref, routed, perm, input_map=input_map)
    return out


@settings(max_examples=120, deadline=None)
@given(seed=SEEDS)
def test_methods_agree_with_the_oracle(seed):
    """Random routes, with the true permutation or a random one and the input
    map in full or cut to the reference wires."""
    rng = np.random.default_rng(seed)
    clifford = bool(rng.random() < 0.5)
    case = _random_case(rng, clifford)
    perm = case.perm if rng.random() < 0.6 else rng.permutation(case.width).tolist()
    input_map = case.input_map if rng.random() < 0.5 else case.input_map[:case.ref.num_qubits]
    routed = case.circuit
    expected = reference_equivalent(case.ref, routed, perm, input_map)
    verdicts = _verdicts(case.ref, routed, perm, input_map, clifford)
    assert verdicts["statevector"] == expected
    assert verdicts["unitary"] == expected
    # Again, on the reference evolved by the first call.
    assert statevector_equivalent(case.ref, routed, perm, input_map=input_map) == expected
    if clifford:
        # Ancillas here are moved only by swaps, so the tableau holds exactly
        # when, besides, every ancilla is claimed on the wire it went to.
        assert verdicts["clifford"] == (expected and perm == case.perm)


# --- 1q gates folded into 2q gates ----------------------------------------

FOLDED_1Q = ("h", "x", "s", "t", "u", "rz", "ry")
INVERSE = {"s": "sdg", "t": "tdg", "u": "u"}


def _one_qubit_op(rng, kinds, wire: int) -> tuple:
    kind = str(rng.choice(kinds))
    count = {"u": 3, "rz": 1, "ry": 1}.get(kind, 0)
    return kind, (wire,), tuple(float(x) for x in rng.uniform(0, 2 * pi, count))


def _bracketed_reference(rng, n: int, depth: int) -> CircuitDag:
    """cx/swap gates with 1q gates right before and after them on their
    wires, 1q gates alone, and barriers on one or two wires."""
    ops = []
    for _ in range(depth):
        r = rng.random()
        if n > 1 and r < 0.5:
            a, b = rng.choice(n, 2, replace=False).tolist()
            ops += [_one_qubit_op(rng, FOLDED_1Q, w) for w in (a, b) if rng.random() < 0.6]
            ops.append(("cx" if rng.random() < 0.8 else "swap", (a, b)))
            ops += [_one_qubit_op(rng, FOLDED_1Q, w) for w in (a, b) if rng.random() < 0.6]
        elif r < 0.85:
            ops.append(_one_qubit_op(rng, FOLDED_1Q, int(rng.integers(n))))
        else:
            wires = rng.choice(n, min(n, int(rng.integers(1, 3))), replace=False).tolist()
            ops.append(("barrier", tuple(wires)))
    return build_dag(n, ops)


def _flank_swaps(rng, case: Routed) -> list:
    """Around some plain swaps, a 1q gate on one wire before and its inverse
    on the wire its data went to after (on the wrong wire one time in five);
    then trailing s/t/rz/u gates on some ancilla wires."""
    out = []
    for i, g in enumerate(case.gates):
        flank = i in case.swaps and rng.random() < 0.7
        if flank:
            kind, _, params = _one_qubit_op(rng, tuple(INVERSE), g.wires[0])
            out.append(Gate(id=0, kind=kind, wires=g.wires[:1], params=params))
        out.append(g)
        if flank:
            after = g.wires[1] if rng.random() < 0.8 else g.wires[0]
            inverse = (-params[0], -params[2], -params[1]) if kind == "u" else ()
            out.append(Gate(id=0, kind=INVERSE[kind], wires=(after,), params=inverse))
    for w, v in enumerate(case.perm):
        if v >= case.ref.num_qubits and rng.random() < 0.5:
            for _ in range(int(rng.integers(1, 3))):
                kind, _, params = _one_qubit_op(rng, ("s", "t", "rz", "u"), w)
                out.append(Gate(id=0, kind=kind, wires=(w,), params=params))
    return out


@settings(max_examples=120, deadline=None)
@given(seed=SEEDS)
def test_folded_one_qubit_gates_agree_with_the_oracle(seed):
    """1q gates next to plain swaps, mirrored gates and barriers, and last on
    ancilla wires, whichever verdict the oracle gives."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 5))
    ref = _bracketed_reference(rng, n, int(rng.integers(1, 12)))
    case = _route_by_hand(rng, ref, int(rng.integers(n, 7)))
    routed = _circuit(case.width, _flank_swaps(rng, case))
    perm = case.perm if rng.random() < 0.8 else rng.permutation(case.width).tolist()
    input_map = case.input_map if rng.random() < 0.5 else case.input_map[:n]
    expected = reference_equivalent(ref, routed, perm, input_map)
    assert statevector_equivalent(ref, routed, perm, input_map=input_map) == expected
    assert unitary_equivalent(ref, routed, perm, input_map=input_map) == expected


@contextmanager
def _state_passes():
    """The slots of each full-state pass (``_TrackedState.apply``) run inside
    the block, in order."""
    calls = []
    kernel = _TrackedState.apply

    def run(self, mat, slots):
        calls.append(list(slots))
        return kernel(self, mat, slots)

    with patch.object(_TrackedState, "apply", run):
        yield calls


@contextmanager
def _reference_evolutions():
    """The check behind every reference evolution inside the block: "unitary"
    when the inputs are the computational basis, else "statevector"."""
    with patch.object(verifier, "_reference_block", wraps=verifier._reference_block) as spy:
        checks = []
        yield checks
        for call in spy.call_args_list:
            inputs = call.args[1]
            checks.append("unitary" if np.array_equal(inputs, np.eye(*inputs.shape)) else "statevector")


@pytest.mark.parametrize("name, passes", [("adder_15", 3 + 1 + 3), ("bv_13", 2 + 3)])
def test_one_state_pass_per_fused_block(name, passes):
    """Passes per side at FUSE = 5.  adder_15 is 7 MAJ then 7 UMA steps, each
    8 cx on 3 wires, one of them shared with the next step, and it ends every
    wire on a cx.  A 3-wire step plus the next step's first gate fills 5
    slots, and the next step then stays in them, so MAJ 0-5 take 3 blocks,
    MAJ 6 with UMA 6 (same wires) and UMA 5 one more, and UMA 4-0 three
    (4+3, 2+1, 0).  bv_13's 7 cx share one target, so 4 cx fill a block: 2
    blocks; its 12 data wires end on h, and those pending products take
    ceil(12 / 5) = 3 passes.  A first check evolves both sides; a repeat with
    the same seed reads the memoised inputs and reference, both read-only,
    and evolves only the routed side."""
    assert verifier.FUSE == 5
    dag = workloads.SUITE[name]()
    for expected in (2 * passes, passes):
        with _state_passes() as calls:
            assert statevector_equivalent(dag, dag, range(dag.num_qubits))
        assert len(calls) == expected
    for memoised in verifier._REFERENCE_BLOCKS[dag][1:]:
        with pytest.raises(ValueError, match="read-only"):
            memoised[0, 0] = 0


# --- fused blocks -------------------------------------------------------------


@pytest.mark.parametrize("fuse", [2, 3, 4, 5])
@settings(max_examples=40, deadline=None)
@given(seed=SEEDS)
def test_fused_blocks_agree_with_the_oracle(fuse, seed):
    """At each block width, routes by hand of cx/swap references bracketed by
    1q gates: at width 2 every 2q gate on a new pair closes its block, wider
    blocks take gates with two new slots, 1q gates wait on slots outside a
    full block, plain swaps and mirrored gates relabel while a block is open,
    a swap computed as three cx brings an untracked ancilla in mid-block, and
    1q products are left at the end on data and ancilla wires."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 6))
    ref = _bracketed_reference(rng, n, int(rng.integers(1, 14)))
    case = _route_by_hand(rng, ref, int(rng.integers(n, 8)))
    routed = _circuit(case.width, _flank_swaps(rng, case))
    perm = case.perm if rng.random() < 0.8 else rng.permutation(case.width).tolist()
    input_map = case.input_map[:n] if rng.random() < 0.7 else case.input_map
    expected = reference_equivalent(ref, routed, perm, input_map)
    with patch.object(verifier, "FUSE", fuse):
        assert statevector_equivalent(ref, routed, perm, input_map=input_map) == expected
        assert unitary_equivalent(ref, routed, perm, input_map=input_map) == expected


def _gate_list(ops) -> list:
    """Gates from (kind, wires) or (kind, wires, mirrored) tuples."""
    return [Gate(id=i, kind=op[0], wires=op[1], mirrored=op[2] if len(op) > 2 else False)
            for i, op in enumerate(ops)]


BLOCK_CASES = {
    # name: (FUSE, reference ops, routed ops, output wire -> virtual wire,
    #        input map, the slots of each routed pass)
    "every gate closes a block": (
        3, [("h", (0,)), ("h", (2,)), ("cx", (0, 1)), ("cx", (2, 3)), ("cx", (1, 0)),
            ("cx", (3, 2))],
        None, [0, 1, 2, 3], None, [[0, 1], [2, 3], [1, 0], [3, 2]]),
    "two new slots join": (
        5, [("h", (0,)), ("cx", (0, 1)), ("cx", (2, 3)), ("cx", (1, 2))],
        None, [0, 1, 2, 3], None, [[0, 1, 2, 3]]),
    "1q gates outside a full block": (
        3, [("h", (0,)), ("cx", (0, 1)), ("cx", (1, 2)), ("h", (3,)), ("t", (3,)),
            ("cx", (0, 2)), ("cx", (2, 3))],
        None, [0, 1, 2, 3], None, [[0, 1, 2], [2, 3]]),
    "swaps and mirrors in an open block": (
        5, [("h", (0,)), ("cx", (0, 1)), ("cx", (1, 2)), ("cx", (2, 0))],
        [("h", (0,)), ("cx", (0, 1)), ("swap", (1, 2)), ("cx", (2, 1), True), ("cx", (2, 0))],
        [0, 1, 2], None, [[0, 1, 2]]),
    "an ancilla joins an open block": (
        5, [("h", (0,)), ("cx", (0, 1)), ("t", (1,)), ("cx", (1, 0))],
        [("h", (0,)), ("cx", (0, 1)), ("cx", (1, 2)), ("cx", (2, 1)), ("cx", (1, 2)),
         ("t", (2,)), ("cx", (2, 0))],
        [0, 2, 1], [0, 1], [[0, 1, 2]]),
    "1q products left at the end": (
        5, [("cx", (0, 1)), ("h", (0,)), ("h", (1,)), ("h", (2,)), ("h", (3,)), ("t", (4,)),
            ("s", (5,))],
        [("cx", (0, 1)), ("s", (5,)), ("t", (4,)), ("h", (3,)), ("h", (2,)), ("h", (1,)),
         ("h", (0,))],
        [0, 1, 2, 3, 4, 5], None, [[0, 1], [5, 4, 3, 2, 1], [0]]),
}


@pytest.mark.parametrize("name", sorted(BLOCK_CASES))
def test_block_boundaries(name):
    """Each block boundary, pinned by the slots of the routed side's passes on
    a warm memo; the route, and the route read with two data outputs
    exchanged, get the oracle's verdict."""
    fuse, ref_ops, routed_ops, perm, input_map, passes = BLOCK_CASES[name]
    ref = _circuit(max(max(op[1]) for op in ref_ops) + 1, _gate_list(ref_ops))
    routed = ref if routed_ops is None else _circuit(len(perm), _gate_list(routed_ops))
    exchanged = list(perm)
    w0, w1 = (w for w, v in enumerate(perm) if v < 2)
    exchanged[w0], exchanged[w1] = perm[w1], perm[w0]
    assert reference_equivalent(ref, routed, perm, input_map)
    assert not reference_equivalent(ref, routed, exchanged, input_map)
    with patch.object(verifier, "FUSE", fuse):
        assert statevector_equivalent(ref, routed, perm, input_map=input_map)
        with _state_passes() as calls:
            assert statevector_equivalent(ref, routed, perm, input_map=input_map)
        assert calls == passes
        assert unitary_equivalent(ref, routed, perm, input_map=input_map)
        assert not statevector_equivalent(ref, routed, exchanged, input_map=input_map)
        assert not unitary_equivalent(ref, routed, exchanged, input_map=input_map)


# --- one reference evolution per DAG ------------------------------------------


def _checked(ref, routed, perm, input_map, seed: int = 0) -> tuple[bool, int]:
    """(verdict, state passes) of one statevector check."""
    with _state_passes() as calls:
        verdict = statevector_equivalent(ref, routed, perm, input_map=input_map, seed=seed)
    return verdict, len(calls)


@settings(max_examples=30, deadline=None)
@given(seed=SEEDS)
def test_a_new_seed_replaces_the_entry(seed):
    """Each check on one reference DAG gives the verdict of a check on a fresh
    copy of it; a new seed costs the fresh copy's passes and replaces the
    DAG's one entry, a repeat skips the reference's passes."""
    rng = np.random.default_rng(seed)
    case = _random_case(rng, clifford=False)
    ref, routed = case.ref, case.circuit
    perm = case.perm if rng.random() < 0.6 else rng.permutation(case.width).tolist()
    identity = range(ref.num_qubits)
    copy = _circuit(ref.num_qubits, ref.gates)
    ref_passes = _checked(copy, copy, identity, None)[1] // 2
    previous = None
    for key in (0, 1, 1, 0, 0):
        fresh = _checked(_circuit(ref.num_qubits, ref.gates), routed, perm, case.input_map, key)
        verdict, passes = _checked(ref, routed, perm, case.input_map, key)
        assert verdict == fresh[0]
        assert passes == fresh[1] - (ref_passes if key == previous else 0)
        entry = verifier._REFERENCE_BLOCKS[ref]
        assert entry[0] == key
        if key == previous:
            assert entry is kept
        kept, previous = entry, key


@settings(max_examples=30, deadline=None)
@given(seed=SEEDS)
def test_a_repeat_check_draws_no_new_inputs(seed):
    """The first check on a DAG draws its Haar inputs, the seed's own draw;
    repeats with that seed draw none and give the first check's verdict, on
    the true wire map and on a random one."""
    rng = np.random.default_rng(seed)
    case = _random_case(rng, clifford=False)
    perms = [case.perm, rng.permutation(case.width).tolist()]
    draws, draw = [], verifier._haar_states

    def counted(n, key):
        draws.append(key)
        return draw(n, key)

    with patch.object(verifier, "_haar_states", counted):
        first = [statevector_equivalent(case.ref, case.circuit, perm, input_map=case.input_map,
                                        seed=seed) for perm in perms]
        assert draws == [seed]
        psi = verifier._REFERENCE_BLOCKS[case.ref][1]
        for _ in range(2):
            assert [statevector_equivalent(case.ref, case.circuit, perm, input_map=case.input_map,
                                           seed=seed) for perm in perms] == first
        assert draws == [seed]
    assert verifier._REFERENCE_BLOCKS[case.ref][1] is psi
    assert np.array_equal(psi, draw(case.ref.num_qubits, seed))


def test_unitary_neither_reads_nor_writes_the_memo():
    ref = _qasm(2, "h q[0]; cx q[0],q[1];")  # one pass per side: h folds into cx, one block
    assert unitary_equivalent(ref, ref, [0, 1])
    assert ref not in verifier._REFERENCE_BLOCKS
    assert statevector_equivalent(ref, ref, [0, 1])
    entry = verifier._REFERENCE_BLOCKS[ref]
    with _state_passes() as calls:
        assert unitary_equivalent(ref, ref, [0, 1])
    assert len(calls) == 2
    assert verifier._REFERENCE_BLOCKS[ref] is entry


def test_the_memo_dies_with_its_dag():
    ref = _qasm(2, "h q[0]; cx q[0],q[1];")
    assert statevector_equivalent(ref, ref, [0, 1])
    _, psi, block = verifier._REFERENCE_BLOCKS[ref]
    dag, psi, block = weakref.ref(ref), weakref.ref(psi), weakref.ref(block)
    del ref
    gc.collect()
    assert dag() is None and psi() is None and block() is None


# --- mutations ----------------------------------------------------------------


def _replaced(gates, i, **changes):
    g = gates[i]
    fields = dict(kind=g.kind, wires=g.wires, params=g.params, mirrored=g.mirrored)
    return gates[:i] + [Gate(id=g.id, **{**fields, **changes})] + gates[i + 1:]


def _two_qubit(case):
    return [i for i in case.ref_gates if len(case.gates[i].wires) == 2]


def _cx(case):
    return [i for i in case.ref_gates if case.gates[i].kind == "cx"]


def _commute_up_to_phase(g0: Gate, g1: Gate) -> bool:
    wires = sorted(set(g0.wires) | set(g1.wires))
    local = [Gate(id=k, kind=g.kind, wires=tuple(wires.index(w) for w in g.wires),
                  params=g.params, mirrored=g.mirrored) for k, g in enumerate((g0, g1))]
    a = dense_unitary(CircuitDag(len(wires), local))
    b = dense_unitary(CircuitDag(len(wires), local[::-1]))
    return abs(abs(np.trace(a.conj().T @ b)) - len(a)) <= 1e-9


def _movable(case):
    """Adjacent reference gates that share a wire and do not commute."""
    ref_gates = set(case.ref_gates)
    return [
        i for i in sorted(ref_gates) if i + 1 in ref_gates
        and set(case.gates[i].wires) & set(case.gates[i + 1].wires)
        and not _commute_up_to_phase(case.gates[i], case.gates[i + 1])
    ]


def _data_wires(case):
    return [w for w, v in enumerate(case.perm) if v < case.ref.num_qubits]


def _drop_swap(case, i):
    return case.gates[:i] + case.gates[i + 1:], case.perm


def _flip_mirror(case, i):
    return _replaced(case.gates, i, mirrored=not case.gates[i].mirrored), case.perm


def _reverse_cx(case, i):
    return _replaced(case.gates, i, wires=case.gates[i].wires[::-1]), case.perm


def _move_gate(case, i):
    gates = list(case.gates)
    gates[i], gates[i + 1] = gates[i + 1], gates[i]
    return gates, case.perm


def _wrong_perm(case, w0):
    w1 = (w0 + 1) % case.width  # another wire: data or ancilla
    perm = list(case.perm)
    perm[w0], perm[w1] = perm[w1], perm[w0]
    return case.gates, perm


# name -> (mutation, where it may strike)
MUTATIONS = {
    "drop_swap": (_drop_swap, lambda c: c.data_swaps),
    "flip_mirror": (_flip_mirror, _two_qubit),
    "reverse_cx": (_reverse_cx, _cx),
    "move_gate": (_move_gate, _movable),
    "wrong_perm": (_wrong_perm, _data_wires),
}


@pytest.mark.parametrize("name", sorted(MUTATIONS))
@settings(max_examples=20, deadline=None)
@given(seed=SEEDS)
def test_every_method_rejects_the_mutation(name, seed):
    """Each mutation strikes reference wires only, so no route survives it."""
    rng = np.random.default_rng(seed)
    mutate, sites = MUTATIONS[name]
    clifford = bool(rng.random() < 0.5)
    case = _random_case(rng, clifford, min_ref=2)
    while not sites(case):
        case = _random_case(rng, clifford, min_ref=2)
    assert all(_verdicts(case.ref, case.circuit, case.perm, case.input_map, clifford).values())
    gates, perm = mutate(case, int(rng.choice(sites(case))))
    routed = _circuit(case.width, gates)
    assert not reference_equivalent(case.ref, routed, perm, case.input_map)
    with _reference_evolutions() as checks:
        assert not any(_verdicts(case.ref, routed, perm, case.input_map, clifford).values())
    # Only the unitary check evolved the reference again: the statevector
    # check read the one evolved for the unmutated route.
    assert checks == ["unitary"]


# --- pinned cases -------------------------------------------------------------

HEADER = 'OPENQASM 2.0;\ninclude "qelib1.inc";\n'


def _qasm(width: int, body: str) -> CircuitDag:
    return parse_qasm(f"{HEADER}qreg q[{width}];\n{body}")


def test_computed_swap_onto_an_ancilla_is_equivalent():
    """Three cx move the data onto the ancilla wire; the permutation says so."""
    ref = _qasm(1, "h q[0];")
    routed = _qasm(2, "h q[0]; cx q[0],q[1]; cx q[1],q[0]; cx q[0],q[1];")
    assert reference_equivalent(ref, routed, [1, 0])
    assert statevector_equivalent(ref, routed, [1, 0])
    assert unitary_equivalent(ref, routed, [1, 0])
    assert clifford_equivalent(ref, routed, [1, 0])
    assert not statevector_equivalent(ref, routed, [0, 1])


def test_clifford_requires_each_ancilla_to_map_onto_itself():
    """An ancilla in |0> that controls a cx leaves every state alone, but its Z
    image spreads onto the data wire, which the tableau check rejects."""
    ref = _qasm(1, "h q[0];")
    routed = _qasm(2, "h q[0]; cx q[1],q[0];")
    assert reference_equivalent(ref, routed, [0, 1])
    assert statevector_equivalent(ref, routed, [0, 1])
    assert unitary_equivalent(ref, routed, [0, 1])
    assert not clifford_equivalent(ref, routed, [0, 1])


@settings(max_examples=10, deadline=None)
@given(seed=SEEDS)
def test_wide_clifford_routes(seed):
    """20-60 qubit Clifford circuits with random swaps pass; any dropped swap,
    even between two ancillas, fails."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(20, 61))
    ref = _random_reference(rng, n, 3 * n, clifford=True)
    case = _route_by_hand(rng, ref, n + int(rng.integers(0, 4)))
    assert clifford_equivalent(ref, case.circuit, case.perm, input_map=case.input_map)
    gates, perm = _drop_swap(case, int(rng.choice(case.swaps)))
    assert not clifford_equivalent(ref, _circuit(case.width, gates), perm,
                                   input_map=case.input_map)


@pytest.mark.parametrize("method", [statevector_equivalent, unitary_equivalent,
                                    clifford_equivalent])
def test_wire_map_errors(method):
    ref, routed = _qasm(2, "cx q[0],q[1];"), _qasm(3, "cx q[0],q[1];")
    with pytest.raises(VerifierError, match="output permutation"):
        method(ref, routed, [0, 0, 1])
    with pytest.raises(VerifierError, match="input map"):
        method(ref, routed, [0, 1, 2], input_map=[0, 1, 1])
    with pytest.raises(VerifierError, match="input map"):
        method(ref, routed, [0, 1, 2], input_map=[2, 2])
    with pytest.raises(VerifierError, match="narrower"):
        method(routed, ref, [0, 1])


@pytest.mark.parametrize("method", [statevector_equivalent, unitary_equivalent,
                                    clifford_equivalent])
def test_input_map_of_the_wrong_length(method):
    ref, routed = _qasm(2, "cx q[0],q[1];"), _qasm(3, "cx q[0],q[1];")
    for input_map in ([0], [0, 1, 2, 1], [0, 1, 2, 5]):
        with pytest.raises(VerifierError, match=f"input map has {len(input_map)} entries"):
            method(ref, routed, [0, 1, 2], input_map=input_map)


@pytest.mark.parametrize("option, value", [
    ("tol", float("nan")), ("tol", -1.0), ("seed", -1), ("tol", True), ("seed", True),
])
def test_bad_options_are_refused(option, value):
    ref = _qasm(2, "cx q[0],q[1];")
    with pytest.raises(VerifierError, match=f"{option} must be .*not {value}"):
        statevector_equivalent(ref, ref, [0, 1], **{option: value})
    if option == "tol":
        with pytest.raises(VerifierError, match="tol must be"):
            unitary_equivalent(ref, ref, [0, 1], tol=value)


def test_a_reference_wider_than_the_limit_is_refused():
    n = STATEVECTOR_WIDTH_LIMIT + 1
    ref = _qasm(n, "cx q[0],q[1];")
    with pytest.raises(WidthError, match=f"reference width {n} exceeds {n - 1}"):
        statevector_equivalent(ref, ref, range(n))


@pytest.mark.parametrize("touched", [False, True])
def test_the_tracked_slots_stop_at_the_limit(touched):
    """A full-width reference routed on one more wire: left untouched, that
    wire is never tracked; a gate on it is one slot too many."""
    n = STATEVECTOR_WIDTH_LIMIT
    ref = _qasm(n, f"h q[0]; cx q[0],q[{n - 1}];")
    extra = f"cx q[{n - 1}],q[{n}];" if touched else ""
    routed = _qasm(n + 1, f"h q[0]; cx q[0],q[{n - 1}]; {extra}")
    if touched:
        with pytest.raises(WidthError, match=f"tracked subspace exceeds {n} qubits"):
            statevector_equivalent(ref, routed, range(n + 1))
    else:
        assert statevector_equivalent(ref, routed, range(n + 1))


def test_a_routed_circuit_wider_than_the_unitary_limit_is_refused():
    n = UNITARY_WIDTH_LIMIT + 1
    ref, routed = _qasm(2, "cx q[0],q[1];"), _qasm(n, "cx q[0],q[1];")
    with pytest.raises(WidthError, match=f"width exceeds {n - 1}"):
        unitary_equivalent(ref, routed, range(n))


def test_non_clifford_gate_is_refused():
    with pytest.raises(NonCliffordError):
        CliffordTableau(1).apply("t", (0,))
    with pytest.raises(NonCliffordError):
        clifford_equivalent(_qasm(1, "t q[0];"), _qasm(1, "t q[0];"), [0])


# --- release valve ------------------------------------------------------------


def test_release_valve_ends_on_paths():
    """With threshold 1 every pass on a 3-7 node path ends within (n - 1) swaps
    per 2q gate, the valve fires, and every route verifies."""
    passes = []
    real = router.route_pass

    def recording(dag, cmap, *args, **kwargs):
        result = real(dag, cmap, *args, **kwargs)
        passes.append((sum(g.is_two_qubit for g in dag.gates), cmap.num_physical, result))
        return result

    rng = np.random.default_rng(5)
    with patch.object(router, "route_pass", recording):
        for n in range(3, 8):
            cmap = coupling_map(n, [(i, i + 1) for i in range(n - 1)],
                                rng.uniform(0.95, 1.0, n - 1).tolist())
            for algorithm in ALGORITHMS:
                dag = _random_reference(rng, int(rng.integers(2, n + 1)), 4 * n, clifford=False)
                config = RouterConfig(algorithm=algorithm, release_valve_threshold=1, num_seeds=2)
                for result in run_trials(dag, cmap, config, seed=n):
                    assert statevector_equivalent(dag, result.circuit, result.output_permutation,
                                                  input_map=result.initial_layout)
    assert len(passes) == 5 * len(ALGORITHMS) * 2 * 3
    assert all(r.swaps <= (width - 1) * two_q for two_q, width, r in passes)
    assert any(r.valve_fires > 0 for _, _, r in passes)
