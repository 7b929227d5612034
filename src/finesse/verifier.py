"""Routed-circuit equivalence up to a recorded wire map.

One wire map: ``_wire_maps`` gives the routed wire on which each virtual
wire enters and the one on which it leaves.  Virtual wires ``0..n_ref-1``
are the reference's; the rest are ancillas.

One evolution: ``_evolve`` runs both circuits on the same inputs over
tracked slots (a wire joins as |0> when a gate first touches it; a plain
swap only relabels) and lines the routed state up by claimed output wire.
A 1q gate waits on its slot until the next 2q gate there folds it in.  The
other 2q gates gather into blocks of at most ``FUSE`` slots, and each block
costs one full-state pass (the rule is in ``_TrackedState``); the 1q
products left at the end cost one pass per ``FUSE`` slots.
Two rules compare the result, and both require every ancilla output to be
|0> whatever gates touched it: ``statevector_equivalent`` (reference width
<= 15) checks overlaps of ``NUM_STATES`` Haar-random inputs,
``unitary_equivalent`` (width <= 8) the computational basis entrywise up to
one global phase.  Each checks its width before it evolves anything; after
that the one limit is ``STATEVECTOR_WIDTH_LIMIT`` tracked slots, which only
a routed circuit bringing a 16th wire into a statevector check reaches.

One reference evolution per DAG: the Haar inputs and the evolved reference
depend only on the reference and the seed, never on the route, so
``statevector_equivalent`` keeps both in a memo keyed weakly by the
reference ``CircuitDag``.  Each DAG holds one ``(seed, psi, block)`` entry,
both arrays read-only; a call with another seed replaces it, and the entry
is freed with the DAG.  A first call still evolves both circuits,
so a caller that checks one route per reference (``finesse transpile``,
``finesse verify``) gains nothing; ``finesse bench`` checks every selected
trial against one evolution.  ``unitary_equivalent`` evolves its identity
block every time.

``clifford_equivalent`` compares tableaux exactly at any width, with a
stricter ancilla contract: an ancilla must map its X and Z onto its own
output wire, so one in |0> that controls a cx fails it.
"""
from __future__ import annotations

import functools
import weakref

import numpy as np

from . import gates
from .checks import integer, real, seeded_stream
from .ir import CircuitDag, Gate
from .stabilizer import tableau_of

UNITARY_WIDTH_LIMIT = 8
STATEVECTOR_WIDTH_LIMIT = 15
NUM_STATES = 8
DEFAULT_TOL = 1e-8
# Most slots one fused block spans.  A wider block makes fewer passes, each
# dearer to compose and apply; of 3, 4 and 5, 5 checked the 15-qubit routes
# fastest, where a pass costs most, and 8-12 qubit ones slightly slower
# (BENCH_fusion.json).
FUSE = 5

_I2 = np.eye(2, dtype=complex)

# Reference DAG -> (seed, the read-only Haar inputs, its read-only evolved block).
_REFERENCE_BLOCKS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


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


@functools.cache
def _embedding(k: int, i: int, j: int) -> np.ndarray:
    """Index of each entry of a 2q gate on positions (i, j) of ``k`` big-endian
    bits, as a 2**k x 2**k matrix: into the gate's 16 entries, flattened, or
    16 for a zero (the gate leaves the other bits alone)."""
    index = np.arange(2**k)
    bits = (index[:, None] >> (k - 1 - np.arange(k))) & 1  # (2**k, k)
    others = [p for p in range(k) if p not in (i, j)]
    rest = (bits[:, None, others] == bits[None, :, others]).all(axis=2)
    pair = 2 * bits[:, i] + bits[:, j]
    out = np.where(rest, 4 * pair[:, None] + pair[None, :], 16)
    out.flags.writeable = False
    return out


class _TrackedState:
    """Batched statevector over tracked slots; swaps relabel, never copy.

    ``state`` is (2,) * slots + (batch,); ``wire_slot`` maps a wire to its
    slot.  Slots never move, so a relabelling leaves everything keyed by slot
    alone.  ``pending`` holds, per slot, the product of the 1q gates not yet
    applied there; it folds into the next 2q gate on that slot.

    Block rule: 2q gates gather in one open block over at most ``FUSE``
    slots.  A gate joins when the block's slots plus its own new ones number
    at most ``FUSE``; otherwise the block is composed into one 2**k x 2**k
    matrix and applied in one pass (``apply``), and a new block starts with
    the gate.  ``flush`` applies the open block, then the leftover 1q
    products, ``FUSE`` slots per pass.
    """

    def __init__(self, amplitudes: np.ndarray, wires):
        wires = list(wires)
        self.state = np.asarray(amplitudes, dtype=complex).reshape((2,) * len(wires) + (-1,))
        self.slots = len(wires)
        self.wire_slot = {w: i for i, w in enumerate(wires)}
        self.pending: dict[int, np.ndarray] = {}
        self.block_slots: list[int] = []
        self.block: list[tuple[np.ndarray, int, int]] = []  # (4x4, positions in block_slots)

    def _slot_for(self, wire: int) -> int:
        if wire in self.wire_slot:
            return self.wire_slot[wire]
        if self.slots >= STATEVECTOR_WIDTH_LIMIT:
            raise WidthError(f"tracked subspace exceeds {STATEVECTOR_WIDTH_LIMIT} qubits")
        self.state = np.stack([self.state, np.zeros_like(self.state)], axis=self.slots)
        self.wire_slot[wire] = self.slots
        self.slots += 1
        return self.wire_slot[wire]

    def apply(self, mat: np.ndarray, slots: list[int]):
        """The one full-state pass: ``mat`` (2**k x 2**k, big-endian over
        ``slots``) applied to the state."""
        k = len(slots)
        out = np.tensordot(mat.reshape((2,) * 2 * k), self.state, axes=(range(k, 2 * k), slots))
        self.state = np.moveaxis(out, range(k), slots)

    def _close_block(self):
        if not self.block:
            return
        k = len(self.block_slots)
        entries = np.zeros(17, dtype=complex)  # a gate's 16 entries, then 0
        mat = None
        for m, i, j in self.block:
            entries[:16] = m.ravel()
            gate = entries[_embedding(k, i, j)]
            mat = gate if mat is None else gate @ mat
        self.apply(mat, self.block_slots)
        self.block_slots, self.block = [], []

    def _compose(self, mat4: np.ndarray, s0: int, s1: int):
        new = [s for s in (s0, s1) if s not in self.block_slots]
        if len(self.block_slots) + len(new) > FUSE:
            self._close_block()
            new = [s0, s1]
        self.block_slots += new
        self.block.append((mat4, self.block_slots.index(s0), self.block_slots.index(s1)))

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
        self._compose(m, s0, s1)
        if g.mirrored:
            self.relabel_swap(g.wires[0], g.wires[1])

    def flush(self):
        """Apply the open block, then every pending 1q product."""
        self._close_block()
        slots = list(self.pending)
        for at in range(0, len(slots), FUSE):
            group = slots[at:at + FUSE]
            self.apply(functools.reduce(np.kron, [self.pending[s] for s in group]), group)
        self.pending.clear()


def _evolve(dag: CircuitDag, amplitudes: np.ndarray, wires) -> _TrackedState:
    """Run ``dag`` on ``amplitudes`` ((2**len(wires), batch), entering on ``wires``)."""
    ts = _TrackedState(amplitudes, wires)
    for g in dag.gates:
        ts.apply_gate(g)
    ts.flush()
    return ts


def _reference_block(ref: CircuitDag, amplitudes: np.ndarray) -> np.ndarray:
    """The reference run on ``amplitudes``, as a (2**n_ref, batch) block in
    wire order (its own swaps only relabel)."""
    n_ref = ref.num_qubits
    ts = _evolve(ref, amplitudes, range(n_ref))
    state = np.moveaxis(ts.state, [ts.wire_slot[w] for w in range(n_ref)], range(n_ref))
    return state.reshape(2**n_ref, -1)


def _routed_tensor(routed: CircuitDag, amplitudes: np.ndarray, inputs: np.ndarray,
                   outputs: np.ndarray, n_ref: int):
    """The routed circuit run on ``amplitudes`` entering on ``inputs[:n_ref]``:
    the slots on wires ``outputs[:n_ref]``, every other slot, then the batch
    axis.  None when a claimed data output is untracked."""
    ts = _evolve(routed, amplitudes, inputs[:n_ref].tolist())
    data = [ts.wire_slot.get(int(w)) for w in outputs[:n_ref]]
    if None in data:
        return None
    rest = [s for s in range(ts.slots) if s not in data]
    return np.moveaxis(ts.state, data + rest, range(ts.slots))


def _haar_states(n: int, seed) -> np.ndarray:
    rng = seeded_stream(seed, 0x44A2)
    z = rng.standard_normal((2**n, NUM_STATES)) + 1j * rng.standard_normal((2**n, NUM_STATES))
    return z / np.linalg.norm(z, axis=0, keepdims=True)


def _memoised_reference(ref: CircuitDag, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """(psi, block): the Haar inputs of ``seed`` and ``ref``'s block on them,
    drawn and evolved once per ``seed``."""
    entry = _REFERENCE_BLOCKS.get(ref)
    if entry is None or entry[0] != seed:
        psi = _haar_states(ref.num_qubits, seed)
        psi.flags.writeable = False
        block = _reference_block(ref, psi)
        block.flags.writeable = False
        entry = _REFERENCE_BLOCKS[ref] = (seed, psi, block)
    return entry[1], entry[2]


def statevector_equivalent(
    ref: CircuitDag,
    routed: CircuitDag,
    perm,
    tol: float = DEFAULT_TOL,
    seed: int = 0,
    input_map=None,
) -> bool:
    """Evolve ``NUM_STATES`` Haar-random inputs through both circuits and
    compare overlaps.

    Equivalence holds when |<psi_ref| P |psi_routed>| = 1 within tol for
    every sampled state, which is insensitive to global phase.

    The inputs and the evolved reference are memoised on ``ref`` under the
    seed: one entry per DAG, replaced when the seed changes and freed with
    the DAG.  A first call draws the inputs and pays for both evolutions, a
    repeat only for the routed one.
    The memo relies on ``CircuitDag`` being immutable: writing into a gate's
    ``matrix`` after a check leaves a stale reference.
    """
    real(tol, "tol", VerifierError)
    integer(seed, "seed", VerifierError, 0)
    n_ref, n_routed = ref.num_qubits, routed.num_qubits
    if n_ref > STATEVECTOR_WIDTH_LIMIT:
        raise WidthError(f"reference width {n_ref} exceeds {STATEVECTOR_WIDTH_LIMIT}")
    inputs, outputs = _wire_maps(perm, input_map, n_ref, n_routed)
    psi, a = _memoised_reference(ref, seed)
    routed_state = _routed_tensor(routed, psi, inputs, outputs, n_ref)
    if routed_state is None:
        return False
    # Ancilla outputs projected on |0>: a view, then only the data block copied.
    ancillas_at_zero = (slice(None),) * n_ref + (0,) * (routed_state.ndim - 1 - n_ref)
    b = routed_state[ancillas_at_zero].reshape(-1, NUM_STATES)
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
    real(tol, "tol", VerifierError)
    n_ref, n_routed = ref.num_qubits, routed.num_qubits
    if max(n_ref, n_routed) > UNITARY_WIDTH_LIMIT:
        raise WidthError(f"width exceeds {UNITARY_WIDTH_LIMIT} for direct unitary comparison")
    inputs, outputs = _wire_maps(perm, input_map, n_ref, n_routed)
    basis = np.eye(2**n_ref, dtype=complex)
    u_ref = _reference_block(ref, basis)
    routed_state = _routed_tensor(routed, basis, inputs, outputs, n_ref)
    if routed_state is None:
        return False
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
