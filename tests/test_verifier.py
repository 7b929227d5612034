"""Verifier: every method against the dense-matrix oracle in `oracles.py`, on
circuits routed by hand with plain swaps, swaps computed as three cx and
mirrored gates, and with 1q gates placed where folding them into 2q gates
could go wrong; one state pass per 2q gate; five mutations each method must
reject; Clifford's stricter ancilla contract; refused options and wire maps;
and the routers' release valve."""
from dataclasses import dataclass
from math import pi
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from finesse import router, workloads
from finesse.hardware import CouplingMap
from finesse.ir import CircuitDag, Gate, build_dag
from finesse.qasm import parse_qasm
from finesse.router import ALGORITHMS, RouterConfig, run_trials
from finesse.stabilizer import CliffordTableau, NonCliffordError
from finesse.verifier import (
    VerifierError,
    _TrackedState,
    clifford_equivalent,
    statevector_equivalent,
    unitary_equivalent,
)

from oracles import dense_unitary, reference_equivalent

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


@pytest.mark.parametrize("name, passes", [("adder_15", 112), ("bv_13", 7 + 12)])
def test_one_state_pass_per_two_qubit_gate(name, passes):
    """adder_15 ends every wire on a cx; bv_13 has 7 cx and 12 wires ending
    on h, so 12 pending products are applied at the end."""
    dag = workloads.SUITE[name]()
    calls = []

    def counted(kernel):
        def run(self, *args):
            calls.append(kernel.__name__)
            return kernel(self, *args)
        return run

    with patch.object(_TrackedState, "apply_1q", counted(_TrackedState.apply_1q)), \
            patch.object(_TrackedState, "apply_2q", counted(_TrackedState.apply_2q)):
        assert statevector_equivalent(dag, dag, range(dag.num_qubits))
    assert len(calls) == 2 * passes  # once for each side


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
    assert not any(_verdicts(case.ref, routed, perm, case.input_map, clifford).values())


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
    ("tol", float("nan")), ("tol", -1.0), ("num_states", 0), ("num_states", -1), ("seed", -1),
])
def test_bad_options_are_refused(option, value):
    ref = _qasm(2, "cx q[0],q[1];")
    with pytest.raises(VerifierError, match=f"{option} must be .*got {value}"):
        statevector_equivalent(ref, ref, [0, 1], **{option: value})
    if option == "tol":
        with pytest.raises(VerifierError, match="tol must be"):
            unitary_equivalent(ref, ref, [0, 1], tol=value)


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
            cmap = CouplingMap.from_pairs(n, [(i, i + 1) for i in range(n - 1)],
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
