"""Clifford tableau: exact conjugation images of the X/Z generators.

Two circuits are equal up to global phase iff their tableaux (bit matrices
plus signs) coincide, which makes equivalence checking exact at any width.
"""
from __future__ import annotations

import numpy as np

from .ir import CircuitDag


class NonCliffordError(ValueError):
    pass


# (x, z) -> (x', z', sign_flip) per single-qubit gate
_RULES_1Q = {
    "h": {(0, 0): (0, 0, 0), (1, 0): (0, 1, 0), (0, 1): (1, 0, 0), (1, 1): (1, 1, 1)},
    "s": {(0, 0): (0, 0, 0), (1, 0): (1, 1, 0), (0, 1): (0, 1, 0), (1, 1): (1, 0, 1)},
    "sdg": {(0, 0): (0, 0, 0), (1, 0): (1, 1, 1), (0, 1): (0, 1, 0), (1, 1): (1, 0, 0)},
    "x": {(0, 0): (0, 0, 0), (1, 0): (1, 0, 0), (0, 1): (0, 1, 1), (1, 1): (1, 1, 1)},
    "y": {(0, 0): (0, 0, 0), (1, 0): (1, 0, 1), (0, 1): (0, 1, 1), (1, 1): (1, 1, 0)},
    "z": {(0, 0): (0, 0, 0), (1, 0): (1, 0, 1), (0, 1): (0, 1, 0), (1, 1): (1, 1, 1)},
}


class CliffordTableau:
    """Rows 0..n-1: images of X_i; rows n..2n-1: images of Z_i."""

    def __init__(self, n: int):
        self.n = n
        self.x = np.zeros((2 * n, n), dtype=bool)
        self.z = np.zeros((2 * n, n), dtype=bool)
        self.sign = np.zeros(2 * n, dtype=bool)
        for i in range(n):
            self.x[i, i] = True
            self.z[n + i, i] = True

    # primitive conjugations ------------------------------------------
    def _one_qubit(self, kind: str, a: int):
        rule = _RULES_1Q[kind]
        xa, za = self.x[:, a].copy(), self.z[:, a].copy()
        for bits, (nx, nz, flip) in rule.items():
            mask = (xa == bits[0]) & (za == bits[1])
            self.x[mask, a] = nx
            self.z[mask, a] = nz
            if flip:
                self.sign[mask] ^= True

    def _cx(self, a: int, b: int):
        xa, zb = self.x[:, a].copy(), self.z[:, b].copy()
        xb, za = self.x[:, b].copy(), self.z[:, a].copy()
        self.sign ^= xa & zb & (xb ^ za ^ True)
        self.x[:, b] ^= xa
        self.z[:, a] ^= zb

    def _swap(self, a: int, b: int):
        self.x[:, [a, b]] = self.x[:, [b, a]]
        self.z[:, [a, b]] = self.z[:, [b, a]]

    def apply(self, kind: str, wires: tuple[int, ...]):
        if kind in _RULES_1Q:
            self._one_qubit(kind, wires[0])
        elif kind == "cx":
            self._cx(*wires)
        elif kind == "cz":
            a, b = wires
            self._one_qubit("h", b)
            self._cx(a, b)
            self._one_qubit("h", b)
        elif kind == "swap":
            self._swap(*wires)
        elif kind == "iswap":
            # iSWAP = SWAP . CZ . (S x S)
            a, b = wires
            self._one_qubit("s", a)
            self._one_qubit("s", b)
            self.apply("cz", wires)
            self._swap(a, b)
        else:
            raise NonCliffordError(f"{kind} is not a Clifford gate")


def tableau_of(dag: CircuitDag) -> CliffordTableau:
    tab = CliffordTableau(dag.num_qubits)
    for g in dag.gates:
        if g.kind == "barrier":
            continue
        tab.apply(g.kind, g.wires)
        if g.mirrored:
            tab.apply("swap", g.wires)
    return tab
