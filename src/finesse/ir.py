"""Circuit intermediate representation: gates, dependency DAG, layouts.

The DAG links each gate to its nearest successor per wire, holding the
successor `Gate` itself, so a walk needs no id lookup.  Two walks read those
arcs: `retire` executes gates and lowers their successors' remaining
predecessor counts, so the router keeps its front in O(degree) per gate, and
`extended_set` is the leveled lookahead walk from a front over those counts.
For the router the DAG also holds, built on first use, the wires of its 2q
gates as one integer table.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Sequence

import numpy as np

from .checks import integer

ONE_QUBIT_KINDS = frozenset(
    {"h", "x", "y", "z", "s", "sdg", "t", "tdg", "rx", "ry", "rz", "u"}
)
TWO_QUBIT_KINDS = frozenset({"cx", "cz", "swap", "iswap", "ecr", "root_iswap", "unitary"})
PARAM_COUNTS = {"rx": 1, "ry": 1, "rz": 1, "u": 3}
CLIFFORD_KINDS = frozenset({"h", "s", "sdg", "x", "y", "z", "cx", "cz", "swap", "iswap"})

UNITARY_TOL = 1e-10


def is_clifford(dag: CircuitDag) -> bool:
    """Whether every gate of ``dag`` is a Clifford or a barrier."""
    return all(g.kind in CLIFFORD_KINDS or g.kind == "barrier" for g in dag.gates)


class CircuitError(ValueError):
    """Malformed gate or circuit construction."""


@dataclass(frozen=True, eq=False)
class Gate:
    """One operation on 1 or 2 wires.

    ``kind`` is one of the named 1q/2q gates, ``root_iswap`` (with subdivision
    order ``n``), ``barrier``, or ``unitary`` (opaque 4x4 matrix).  A gate with
    ``mirrored=True`` executes SWAP times its base unitary on its wires and
    implicitly permutes the two outputs.
    """

    id: int
    kind: str
    wires: tuple[int, ...]
    params: tuple[float, ...] = ()
    n: int = 1
    matrix: np.ndarray | None = None
    mirrored: bool = False

    def __post_init__(self):
        if self.kind != "barrier" and self.kind not in ONE_QUBIT_KINDS | TWO_QUBIT_KINDS:
            raise CircuitError(f"unknown gate kind {self.kind!r}")
        expected = 1 if self.kind in ONE_QUBIT_KINDS else 2
        if self.kind == "barrier":
            if len(self.wires) not in (1, 2):
                raise CircuitError("barrier nodes carry 1 or 2 wires")
        elif len(self.wires) != expected:
            raise CircuitError(f"{self.kind} expects {expected} wires, got {len(self.wires)}")
        for w in self.wires:
            integer(w, "a gate wire", CircuitError, 0)
        if len(set(self.wires)) != len(self.wires):
            raise CircuitError(f"gate {self.kind} wires must be distinct: {self.wires}")
        if self.kind == "root_iswap":
            integer(self.n, "root_iswap order", CircuitError, 1)
        if self.kind in PARAM_COUNTS and len(self.params) != PARAM_COUNTS[self.kind]:
            raise CircuitError(f"{self.kind} expects {PARAM_COUNTS[self.kind]} parameter(s)")
        if self.kind == "unitary":
            m = self.matrix
            if m is None or m.shape != (4, 4):
                raise CircuitError("unitary gates carry a 4x4 matrix")
            if np.max(np.abs(m @ m.conj().T - np.eye(4))) > UNITARY_TOL:
                raise CircuitError("unitary gate matrix is not unitary to 1e-10")
        if self.mirrored and self.num_wires != 2:
            raise CircuitError("only 2-wire gates can be mirrored")

    def _placed(self, id: int, wires: tuple[int, ...], mirrored: bool) -> "Gate":
        """This gate as ``id`` on ``wires``, flagged ``mirrored``, built without
        `__post_init__`, as `Layout.copy` skips its checks.  Its kind, params,
        ``n`` and matrix were checked when it was built; the caller vouches
        for the rest: as many distinct int wires, and a mirror flag only on a
        2-wire gate."""
        twin = Gate.__new__(Gate)
        twin.__dict__.update(vars(self), id=id, wires=wires, mirrored=mirrored)
        return twin

    @property
    def num_wires(self) -> int:
        return len(self.wires)

    @property
    def is_two_qubit(self) -> bool:
        return self.kind in TWO_QUBIT_KINDS

    def __repr__(self):
        tag = f"{self.kind}"
        if self.kind == "root_iswap":
            tag += f"(n={self.n})"
        elif self.params:
            tag += "(" + ",".join(f"{p:.6g}" for p in self.params) + ")"
        if self.mirrored:
            tag = "mirror:" + tag
        return f"Gate#{self.id}[{tag} @ {list(self.wires)}]"


class CircuitDag:
    """Immutable gate list plus nearest-successor-per-wire dependency arcs."""

    def __init__(self, num_qubits: int, gates: Sequence[Gate]):
        self.num_qubits = integer(num_qubits, "num_qubits", CircuitError, 0)
        self.gates = tuple(gates)
        ids = [g.id for g in self.gates]
        if len(set(ids)) != len(ids):
            raise CircuitError("gate ids must be unique")
        for g in self.gates:
            for w in g.wires:
                if not 0 <= w < num_qubits:
                    raise CircuitError(f"wire {w} out of range for {num_qubits} qubits")
        self._by_id = {g.id: g for g in self.gates}
        # Per-wire chain arcs to successor gates; one sharing both wires
        # appears twice.
        succ: dict[int, list[Gate]] = {g.id: [] for g in self.gates}
        pred_count: dict[int, int] = {g.id: 0 for g in self.gates}
        last_on_wire: dict[int, int] = {}
        for g in self.gates:
            for w in g.wires:
                if w in last_on_wire:
                    succ[last_on_wire[w]].append(g)
                    pred_count[g.id] += 1
                last_on_wire[w] = g.id
        self._succ = {k: tuple(v) for k, v in succ.items()}
        self._pred_count = pred_count
        self.roots = tuple(g for g in self.gates if pred_count[g.id] == 0)  # in gate order

    def gate(self, gate_id: int) -> Gate:
        return self._by_id[gate_id]

    def predecessor_counts(self) -> dict[int, int]:
        return dict(self._pred_count)

    @cached_property
    def two_qubit_rows(self) -> dict[int, int]:
        """2q gate id -> its row in `wire_table`; membership is the 2q test.

        Built on first use, so DAGs that are never routed do not pay for it.
        """
        return {g.id: row for row, g in enumerate(g for g in self.gates if g.is_two_qubit)}

    @cached_property
    def wire_table(self) -> np.ndarray:
        """(2q gates, 2) np.intp wires, one row per 2q gate in gate order."""
        wires = [g.wires for g in self.gates if g.is_two_qubit]
        return np.array(wires, dtype=np.intp).reshape(-1, 2)

    def reversed(self) -> "CircuitDag":
        """Gate order reversed; used for the layout-refining reverse pass."""
        return CircuitDag(self.num_qubits, list(reversed(self.gates)))

    def __len__(self):
        return len(self.gates)


def build_dag(num_qubits: int, ops: Iterable[tuple]) -> CircuitDag:
    """Convenience constructor from (kind, wires, params?, n?) tuples."""
    gates = []
    for i, op in enumerate(ops):
        kind, wires = op[0], tuple(op[1])
        params = tuple(op[2]) if len(op) > 2 else ()
        n = op[3] if len(op) > 3 else 1
        gates.append(Gate(id=i, kind=kind, wires=wires, params=params, n=n))
    return CircuitDag(num_qubits, gates)


def retire(
    dag: CircuitDag, counts: dict[int, int], gate_ids: Iterable[int], hold: Callable[[int], bool]
) -> tuple[list[Gate], list[Gate]]:
    """Execute gate_ids, lowering ``counts`` (remaining predecessors) in place.

    A successor that becomes ready is held if ``hold(id)``; otherwise it is
    executed in turn, last ready first.  Returns the held gates and the
    executed successors, each in the order the walk reached them.  Retiring
    the roots of a downward-closed executed set, holding every gate outside
    it, leaves the front as the unexecuted gates whose count is 0.
    """
    held, executed, stack = [], [], list(gate_ids)
    while stack:
        for g in dag._succ[stack.pop()]:
            s = g.id
            counts[s] -= 1
            if counts[s] == 0:
                if hold(s):
                    held.append(g)
                else:
                    executed.append(g)
                    stack.append(s)
    return held, executed


def extended_set(
    dag: CircuitDag,
    front: Sequence[Gate],
    size: int,
    remaining_preds: dict[int, int],
) -> list[Gate]:
    """Breadth-first 2q successors of the front, ordered (level, id): a gate
    joins a level once all arcs into it are seen, and the first ``size`` are kept.

    ``remaining_preds`` is only read: the walk keeps the counts it lowers in an
    overlay of the gates it reaches, so a call costs the gates it visits, not
    a copy of every count.  When every unexecuted gate descends from the
    front, the front fixes those counts, and the result depends on (dag,
    front, size) alone, however the front was reached.
    """
    if size <= 0:
        return []
    succ, two_qubit = dag._succ, dag.two_qubit_rows
    counts: dict[int, int] = {}
    collected: list[tuple[int, int]] = []  # (bfs level, gate id)
    frontier = [g.id for g in front]
    level = 0
    while frontier and len(collected) < size:
        level += 1
        nxt = []
        for gid in frontier:
            for g in succ[gid]:
                s = g.id
                counts[s] = left = counts.get(s, remaining_preds[s]) - 1
                if left == 0:
                    nxt.append(s)
                    if s in two_qubit:
                        collected.append((level, s))
        frontier = nxt
    collected.sort()
    return [dag.gate(gid) for _, gid in collected[:size]]


def circuit_depth(circuit: CircuitDag | Iterable) -> int:
    """Longest path in gate count; barriers synchronize but do not count.

    Takes a DAG or its gates in order; only each gate's ``kind`` and
    ``wires`` (one or two, as `Gate` requires) are read, so the router
    passes its compact record.
    """
    level: dict[int, int] = {}
    get = level.get
    depth = 0
    for g in circuit.gates if isinstance(circuit, CircuitDag) else circuit:
        wires = g.wires
        t = get(wires[0], 0)
        if len(wires) == 2 and get(wires[1], 0) > t:
            t = level[wires[1]]
        if g.kind != "barrier":
            t += 1
        for w in wires:
            level[w] = t
        if t > depth:
            depth = t
    return depth


class Layout:
    """Bijection between virtual (logical plus ancilla) and physical wires.

    The virtual -> physical map is kept both as a list and as an np.intp
    array, so the router can map one wire by a list index and many wires in
    one gather; the physical -> virtual map is a list.  The constructor
    checks the bijection; `copy` does not check again, since a layout was
    checked when built and `swap_physical` keeps it a bijection.
    """

    __slots__ = ("_v2p", "_p2v", "_v2p_array")

    def __init__(self, virtual_to_physical: Sequence[int]):
        v2p = [int(integer(p, f"layout position {v}", CircuitError, 0))
               for v, p in enumerate(virtual_to_physical)]
        n = len(v2p)
        if sorted(v2p) != list(range(n)):
            raise CircuitError("layout must be a bijection on 0..n-1")
        self._v2p = v2p
        self._v2p_array = np.array(v2p, dtype=np.intp)
        self._p2v = [0] * n
        for v, p in enumerate(v2p):
            self._p2v[p] = v

    def __len__(self):
        return len(self._v2p)

    @property
    def physical_list(self) -> list[int]:
        """Virtual -> physical as the layout's own list (read-only by contract)."""
        return self._v2p

    @property
    def physical_array(self) -> np.ndarray:
        """Virtual -> physical as an np.intp array (read-only by contract)."""
        return self._v2p_array

    @property
    def virtual_list(self) -> list[int]:
        """Physical -> virtual as the layout's own list (read-only by contract)."""
        return self._p2v

    def swap_physical(self, p0: int, p1: int) -> None:
        v0, v1 = self._p2v[p0], self._p2v[p1]
        self._p2v[p0], self._p2v[p1] = v1, v0
        self._v2p[v0], self._v2p[v1] = p1, p0
        self._v2p_array[v0], self._v2p_array[v1] = p1, p0

    def copy(self) -> "Layout":
        twin = Layout.__new__(Layout)
        twin._v2p, twin._p2v, twin._v2p_array = self._v2p[:], self._p2v[:], self._v2p_array.copy()
        return twin

    def to_list(self) -> list[int]:
        return list(self._v2p)

    def __eq__(self, other):
        return isinstance(other, Layout) and self._v2p == other._v2p

    def __repr__(self):
        return f"Layout({self._v2p})"
