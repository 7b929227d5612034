"""Routed-circuit equivalence up to a recorded wire map.

One wire map: ``_wire_maps`` gives the routed wire on which each virtual
wire enters and the one on which it leaves.  Virtual wires ``0..n_ref-1``
are the reference's; the rest are ancillas.

One evolution: ``_evolve`` runs both circuits on the same inputs over
tracked slots (a wire joins as |0> when a gate first touches it; a plain
swap only relabels) and lines the routed state up by claimed output wire.
A 1q gate waits on its slot until the next 2q gate there folds it in, so a
circuit costs one full-state pass per 2q gate other than a plain swap, plus
one at the end for each slot whose last gates are 1q.
Two rules compare the result, and both require every ancilla output to be
|0> whatever gates touched it: ``statevector_equivalent`` (reference width
<= 15) checks overlaps of Haar-random inputs, ``unitary_equivalent`` (width
<= 8) the computational basis entrywise up to one global phase.

``clifford_equivalent`` compares tableaux exactly at any width, with a
stricter ancilla contract: an ancilla must map its X and Z onto its own
output wire, so one in |0> that controls a cx fails it.
"""
from __future__ import annotations

import math
import numbers

import numpy as np

from . import gates
from .ir import CircuitDag, Gate
from .stabilizer import tableau_of

UNITARY_WIDTH_LIMIT = 8
STATEVECTOR_WIDTH_LIMIT = 15
DEFAULT_NUM_STATES = 8
DEFAULT_TOL = 1e-8

_I2 = np.eye(2, dtype=complex)


class WidthError(ValueError):
    pass


class VerifierError(ValueError):
    pass


def _wire_maps(perm, input_map, n_ref: int, n_routed: int) -> tuple[np.ndarray, np.ndarray]:
    """(inputs, outputs): the routed wire on which each virtual wire enters
    and the one on which it leaves.

    ``perm`` maps output wire -> virtual wire and must be a bijection.  A
    full-length ``input_map`` (virtual -> input wire) must be a bijection;
    otherwise it must give ``n_ref`` distinct wires (identity when None) and
    the ancillas take the unused wires in ascending order.
    """
    if n_routed < n_ref:
        raise VerifierError("routed circuit narrower than the reference")
    wires = list(range(n_routed))
    p = list(perm)
    if sorted(p) != wires:
        raise VerifierError("output permutation must be a bijection on the wires")
    outputs = np.argsort(p)
    in_map = list(range(n_ref)) if input_map is None else list(input_map)
    if len(in_map) not in (n_ref, n_routed):
        expected = " or ".join(map(str, sorted({n_ref, n_routed})))
        raise VerifierError(f"input map has {len(in_map)} entries; expected {expected}")
    if len(in_map) == n_routed:
        inputs = in_map
        if sorted(inputs) != wires:
            raise VerifierError("full-length input map must be a bijection on the wires")
    else:
        if len(set(in_map)) != n_ref or not all(0 <= w < n_routed for w in in_map):
            raise VerifierError("input map must embed the reference wires injectively")
        inputs = in_map + [w for w in wires if w not in in_map]
    return np.array(inputs, dtype=int), outputs


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.kron`` of two 2x2 matrices (a on the high bit), without its
    general-shape overhead."""
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(4, 4)


class _TrackedState:
    """Batched statevector over tracked slots; swaps relabel, never copy.

    ``amplitudes`` is (2**k, batch) over big-endian wire order ``wires``.
    ``pending`` holds, per slot, the product of the 1q gates not yet applied
    there; keyed by slot, it moves with the data when wires are relabelled.
    """

    def __init__(self, amplitudes: np.ndarray, wires, limit: int):
        wires = list(wires)
        self.state = np.asarray(amplitudes, dtype=complex).reshape((2,) * len(wires) + (-1,))
        self.slots = len(wires)
        self.wire_slot = {w: i for i, w in enumerate(wires)}
        self.limit = limit
        self.pending: dict[int, np.ndarray] = {}

    def _slot_for(self, wire: int) -> int:
        if wire in self.wire_slot:
            return self.wire_slot[wire]
        if self.slots >= self.limit:
            raise WidthError(f"tracked subspace exceeds {self.limit} qubits")
        self.state = np.stack([self.state, np.zeros_like(self.state)], axis=self.slots)
        self.wire_slot[wire] = self.slots
        self.slots += 1
        return self.wire_slot[wire]

    def apply_1q(self, mat: np.ndarray, s: int):
        out = np.tensordot(mat, self.state, axes=(1, s))
        self.state = np.moveaxis(out, 0, s)

    def apply_2q(self, mat4: np.ndarray, s0: int, s1: int):
        m = mat4.reshape(2, 2, 2, 2)
        out = np.tensordot(m, self.state, axes=([2, 3], [s0, s1]))
        self.state = np.moveaxis(out, [0, 1], [s0, s1])

    def relabel_swap(self, w0: int, w1: int):
        s0, s1 = self.wire_slot.get(w0), self.wire_slot.get(w1)
        if s0 is None and s1 is None:
            return
        if s0 is None:
            self.wire_slot[w0] = s1
            del self.wire_slot[w1]
        elif s1 is None:
            self.wire_slot[w1] = s0
            del self.wire_slot[w0]
        else:
            self.wire_slot[w0], self.wire_slot[w1] = s1, s0

    def apply_gate(self, g: Gate):
        if g.kind == "barrier":
            return
        if g.num_wires == 1:
            s = self._slot_for(g.wires[0])
            m = gates.one_qubit_matrix(g)
            self.pending[s] = m @ self.pending[s] if s in self.pending else m
            return
        if g.kind == "swap" and not g.mirrored:
            self.relabel_swap(g.wires[0], g.wires[1])
            return
        s0, s1 = self._slot_for(g.wires[0]), self._slot_for(g.wires[1])
        m = gates.base_matrix(g)
        p0, p1 = self.pending.pop(s0, None), self.pending.pop(s1, None)
        if p0 is not None or p1 is not None:
            m = m @ _kron(_I2 if p0 is None else p0, _I2 if p1 is None else p1)
        self.apply_2q(m, s0, s1)
        if g.mirrored:
            self.relabel_swap(g.wires[0], g.wires[1])

    def flush(self):
        """Apply every pending 1q product."""
        for s, m in self.pending.items():
            self.apply_1q(m, s)
        self.pending.clear()


def _evolve(ref: CircuitDag, routed: CircuitDag, amplitudes: np.ndarray,
            inputs: np.ndarray, outputs: np.ndarray, limit: int):
    """Run both circuits on ``amplitudes`` ((2**n_ref, batch), entering the
    routed circuit on ``inputs[:n_ref]``).

    Returns the reference block (2**n_ref, batch) in wire order and the
    routed tensor: the slots on wires ``outputs[:n_ref]``, every other slot,
    then the batch axis.  None when a claimed data output is untracked.
    """
    n_ref = ref.num_qubits
    runs = []
    for dag, wires in ((ref, range(n_ref)), (routed, inputs[:n_ref].tolist())):
        ts = _TrackedState(amplitudes, wires, limit)
        for g in dag.gates:
            ts.apply_gate(g)
        ts.flush()
        runs.append(ts)
    ref_out, routed_out = runs
    # Align the reference tensor to wire order (its own swaps only relabel).
    ref_state = np.moveaxis(
        ref_out.state, [ref_out.wire_slot[w] for w in range(n_ref)], range(n_ref)
    )
    data = [routed_out.wire_slot.get(int(w)) for w in outputs[:n_ref]]
    if None in data:
        return None
    rest = [s for s in range(routed_out.slots) if s not in data]
    routed_state = np.moveaxis(routed_out.state, data + rest, range(routed_out.slots))
    return ref_state.reshape(2**n_ref, -1), routed_state


def _check_options(tol, num_states: int = 1, seed: int = 0) -> None:
    """Refuse a tolerance, state count or seed that cannot give a verdict."""
    if not (isinstance(tol, numbers.Real) and math.isfinite(tol) and tol >= 0):
        raise VerifierError(f"tol must be a finite number >= 0, got {tol!r}")
    if not isinstance(num_states, numbers.Integral) or num_states < 1:
        raise VerifierError(f"num_states must be an integer >= 1, got {num_states!r}")
    if not isinstance(seed, numbers.Integral) or seed < 0:
        raise VerifierError(f"seed must be an integer >= 0, got {seed!r}")


def _haar_states(n: int, num_states: int, seed) -> np.ndarray:
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(0x44A2,)))
    z = rng.standard_normal((2**n, num_states)) + 1j * rng.standard_normal((2**n, num_states))
    return z / np.linalg.norm(z, axis=0, keepdims=True)


def statevector_equivalent(
    ref: CircuitDag,
    routed: CircuitDag,
    perm,
    num_states: int = DEFAULT_NUM_STATES,
    tol: float = DEFAULT_TOL,
    seed: int = 0,
    input_map=None,
) -> bool:
    """Evolve Haar-random inputs through both circuits and compare overlaps.

    Equivalence holds when |<psi_ref| P |psi_routed>| = 1 within tol for
    every sampled state, which is insensitive to global phase.
    """
    _check_options(tol, num_states, seed)
    n_ref, n_routed = ref.num_qubits, routed.num_qubits
    if n_ref > STATEVECTOR_WIDTH_LIMIT:
        raise WidthError(f"reference width {n_ref} exceeds {STATEVECTOR_WIDTH_LIMIT}")
    inputs, outputs = _wire_maps(perm, input_map, n_ref, n_routed)
    psi = _haar_states(n_ref, num_states, seed)
    evolved = _evolve(ref, routed, psi, inputs, outputs, STATEVECTOR_WIDTH_LIMIT)
    if evolved is None:
        return False
    a, routed_state = evolved
    # Ancilla outputs projected on |0>: a view, then only the data block copied.
    ancillas_at_zero = (slice(None),) * n_ref + (0,) * (routed_state.ndim - 1 - n_ref)
    b = routed_state[ancillas_at_zero].reshape(-1, num_states)
    overlaps = np.abs(np.sum(a.conj() * b, axis=0))
    return bool(np.all(np.abs(overlaps - 1.0) <= tol))


def unitary_equivalent(
    ref: CircuitDag,
    routed: CircuitDag,
    perm,
    tol: float = DEFAULT_TOL,
    input_map=None,
) -> bool:
    """Entrywise P . U_routed = e^{i phi} U_ref on the embedded block."""
    _check_options(tol)
    n_ref, n_routed = ref.num_qubits, routed.num_qubits
    if max(n_ref, n_routed) > UNITARY_WIDTH_LIMIT:
        raise WidthError(f"width exceeds {UNITARY_WIDTH_LIMIT} for direct unitary comparison")
    inputs, outputs = _wire_maps(perm, input_map, n_ref, n_routed)
    basis = np.eye(2**n_ref, dtype=complex)
    evolved = _evolve(ref, routed, basis, inputs, outputs, UNITARY_WIDTH_LIMIT)
    if evolved is None:
        return False
    u_ref, routed_state = evolved
    t = routed_state.reshape(2**n_ref, -1, 2**n_ref)  # (data out, ancilla out, data in)
    a = t[:, 0, :]
    residual = float(np.max(np.abs(t[:, 1:, :]), initial=0.0))  # any ancilla at 1

    idx = np.unravel_index(int(np.argmax(np.abs(u_ref))), u_ref.shape)
    phase = a[idx] / u_ref[idx]
    if abs(abs(phase) - 1.0) > 10 * tol:
        return False
    return residual <= tol and bool(np.max(np.abs(a - phase * u_ref)) <= tol)


def clifford_equivalent(ref: CircuitDag, routed: CircuitDag, perm, input_map=None) -> bool:
    """Exact tableau comparison, any width; raises on non-Clifford gates.

    Each ancilla must map its X and Z onto its own output wire.
    """
    n_ref, n_routed = ref.num_qubits, routed.num_qubits
    inputs, outputs = _wire_maps(perm, input_map, n_ref, n_routed)
    t_ref = tableau_of(ref)
    t_routed = tableau_of(routed)

    # Routed row of each reference row (X images, then Z), and the output
    # wire of each reference column.
    rows = np.concatenate([inputs[:n_ref], n_routed + inputs[:n_ref]])
    cols = outputs[:n_ref]
    ex = np.zeros_like(t_routed.x)
    ez = np.zeros_like(t_routed.z)
    es = np.zeros_like(t_routed.sign)
    ex[np.ix_(rows, cols)] = t_ref.x
    ez[np.ix_(rows, cols)] = t_ref.z
    es[rows] = t_ref.sign
    # Ancillas: identity from their input wire to their output wire.
    ex[inputs[n_ref:], outputs[n_ref:]] = True
    ez[n_routed + inputs[n_ref:], outputs[n_ref:]] = True
    return (
        np.array_equal(t_routed.x, ex)
        and np.array_equal(t_routed.z, ez)
        and np.array_equal(t_routed.sign, es)
    )
