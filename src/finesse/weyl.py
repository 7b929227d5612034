"""Two-qubit invariants and minimal basis-gate counts.

Canonical coordinates (c1, c2, c3) satisfy pi/4 >= c1 >= c2 >= |c3| with
c3 >= 0 whenever c1 = pi/4.  Containment of a target class in the set of
unitaries reachable by k basis applications interleaved with arbitrary 1q
gates is tested in this invariant space, against closed-form regions for
the supercontrolled bases (cx, ecr, iswap) and for every iswap root.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import pi

import numpy as np

from . import gates
from .checks import integer
from .ir import UNITARY_TOL, Gate

WEYL_TOL = 1e-8

# Magic (Bell) basis; local gates become real orthogonal matrices here.
MAGIC = np.array(
    [
        [1, 0, 0, 1j],
        [0, 1j, 1, 0],
        [0, 1j, -1, 0],
        [1, 0, 0, -1j],
    ],
    dtype=complex,
) / np.sqrt(2.0)
_MAGIC_DAG = MAGIC.conj().T


class NonUnitaryError(ValueError):
    pass


class UnreachableError(ValueError):
    """Target needs more than three applications of the basis gate."""


class BasisError(ValueError):
    """A basis gate name, kind or order that names no supported basis."""


def _require_unitary(u: np.ndarray):
    u = np.asarray(u, dtype=complex)
    if u.shape != (4, 4):
        raise NonUnitaryError(f"expected a 4x4 matrix, got shape {u.shape}")
    if np.max(np.abs(u @ u.conj().T - np.eye(4))) > UNITARY_TOL:
        raise NonUnitaryError("matrix is not unitary within tolerance")
    return u


def _fold_half_pi(t: float) -> float:
    """Reduce modulo pi/2 into (-pi/4, pi/4]."""
    m = t % (pi / 2)
    return m - pi / 2 if m > pi / 4 + 1e-14 else m


def canonicalize(c1: float, c2: float, c3: float) -> tuple[float, float, float]:
    """Fold a coordinate triple into the canonical chamber.

    Allowed moves: shift any coordinate by pi/2, negate any two, permute.
    """
    v = [_fold_half_pi(c1), _fold_half_pi(c2), _fold_half_pi(c3)]
    v.sort(key=abs, reverse=True)
    negs = sum(1 for x in v if x < 0)
    if negs == 2:
        i, j = (k for k in range(3) if v[k] < 0)
        v[i], v[j] = -v[i], -v[j]
    elif negs in (1, 3):
        # push the single residual sign onto the smallest coordinate
        for k in range(2):
            if v[k] < 0:
                v[k], v[2] = -v[k], -v[2]
    v[:2] = sorted(v[:2], reverse=True)
    if abs(v[0] - pi / 4) < 1e-12 and v[2] < 0:
        v[2] = -v[2]
        v[1], v[2] = max(v[1], v[2]), min(v[1], v[2])
    return (v[0], v[1], abs(v[2]) if abs(v[2]) < 1e-15 else v[2])


def weyl_coordinates(u: np.ndarray) -> tuple[float, float, float]:
    """Canonical (c1, c2, c3) from the magic-basis eigenphases of U^T U."""
    u = _require_unitary(u)
    su = u / np.linalg.det(u) ** 0.25
    m = _MAGIC_DAG @ su @ MAGIC
    m2 = m.T @ m
    two_theta = np.sort(np.angle(np.linalg.eigvals(m2)))[::-1]
    th = two_theta / 2.0
    # Any lift and any pairing land in the same local-equivalence orbit;
    # canonicalize absorbs the residual shifts, flips, and permutations.
    c1 = (th[0] + th[1]) / 2.0
    c2 = (th[1] + th[2]) / 2.0
    c3 = (th[0] + th[2]) / 2.0
    return canonicalize(c1, c2, c3)


def gate_unitary(g: Gate) -> np.ndarray:
    """Exact 4x4 matrix of a 2q gate (mirror folded in)."""
    if not g.is_two_qubit:
        raise ValueError(f"{g.kind} is not a 2-qubit gate")
    return gates.two_qubit_matrix(g)


@dataclass(frozen=True)
class BasisGate:
    """Native 2q basis: cx, ecr, or the n-th root of iswap."""

    kind: str  # cx | ecr | iswap | root_iswap
    n: int = 1

    def __post_init__(self):
        if self.kind not in ("cx", "ecr", "iswap", "root_iswap"):
            raise BasisError(f"unsupported basis kind {self.kind!r}")
        if self.kind == "root_iswap":
            integer(self.n, "root_iswap order", BasisError, 1)

    @classmethod
    def root_iswap(cls, n: int) -> "BasisGate":
        return cls("iswap", 1) if n == 1 else cls("root_iswap", n)

    @classmethod
    def from_name(cls, name: str) -> "BasisGate":
        name = name.strip().lower()
        if name in ("cx", "ecr", "iswap"):
            return cls(name)
        if name in ("siswap", "sqiswap", "sqrt_iswap"):
            return cls("root_iswap", 2)
        prefix, _, order = name.rpartition("_")
        if prefix == "root_iswap" and order.isascii() and order.isdigit():
            return cls.root_iswap(int(order))
        raise BasisError(f"unknown basis gate {name!r}")

    @property
    def name(self) -> str:
        if self.kind == "root_iswap":
            return f"root_iswap_{self.n}"
        return self.kind

    @property
    def unitary(self) -> np.ndarray:
        if self.kind == "cx":
            return gates.CX
        if self.kind == "ecr":
            return gates.ECR
        if self.kind == "iswap":
            return gates.ISWAP
        return gates.root_iswap(self.n)

    @cached_property
    def coordinates(self) -> tuple[float, float, float]:
        return weyl_coordinates(self.unitary)

    @cached_property
    def is_supercontrolled(self) -> bool:
        c = self.coordinates
        return abs(c[0] - pi / 4) < WEYL_TOL and abs(c[2]) < WEYL_TOL


def _is_local(c) -> bool:
    return all(abs(x) <= WEYL_TOL for x in c)


def _at_point(c, point) -> bool:
    return all(abs(a - b) <= WEYL_TOL for a, b in zip(c, point))


def basis_gate_count(u: np.ndarray, basis: BasisGate) -> int:
    """Smallest k in {0..3} with U reachable by k basis uses plus 1q gates.

    Reachable regions in canonical coordinates (c1, c2, c3):

    - supercontrolled bases (pi/4, b, 0), i.e. cx, ecr and iswap: two uses
      cover exactly the c3 = 0 plane, three uses the whole chamber;
    - root_iswap(n), n >= 2, with basis point (t, t, 0) and t = pi/(4n):
      two uses reach c1 <= 2t and c1 >= c2 + |c3|; three uses reach
      c1 <= 3t, c1 + c2 + |c3| <= 6t and c2 + |c3| - c1 <= 2t.

    Each root_iswap region is the convex hull of the commuting products
    (t, t, 0) + s(t, t, 0) [+ s'(t, t, 0)], with s, s' the signed
    permutations that local Cliffords apply to XX, YY and ZZ; these commute,
    so every vertex is reached exactly.  The region is convex because it is
    a projection of the monodromy polytope (Peterson, Crooks, Smith,
    Quantum 4, 247 (2020)); that nothing beyond the hull is reached is
    checked facet by facet against a sampled-reachability oracle in the
    tests.  For n = 2 the two-use rule is the SQiSW result of Huang et al.
    and the three-use region is the whole chamber.
    """
    c = weyl_coordinates(u)
    if _is_local(c):
        return 0
    if _at_point(c, basis.coordinates):
        return 1
    if basis.is_supercontrolled:
        return 2 if abs(c[2]) <= WEYL_TOL else 3
    t = pi / (4 * basis.n)
    rest = c[1] + abs(c[2])
    if c[0] <= 2 * t + WEYL_TOL and c[0] + WEYL_TOL >= rest:
        return 2
    if (
        c[0] <= 3 * t + WEYL_TOL
        and c[0] + rest <= 6 * t + WEYL_TOL
        and rest - c[0] <= 2 * t + WEYL_TOL
    ):
        return 3
    raise UnreachableError(
        f"target {tuple(round(float(x), 6) for x in c)} unreachable in <=3 uses of {basis.name}"
    )


@lru_cache(maxsize=4096)
def _count(basis: BasisGate, kind: str, n: int, matrix: bytes | None, mirrored: bool) -> int:
    if matrix is not None:
        matrix = np.frombuffer(matrix, dtype=complex).reshape(4, 4)
    g = Gate(id=0, kind=kind, wires=(0, 1), n=n, matrix=matrix, mirrored=mirrored)
    return basis_gate_count(gate_unitary(g), basis)


def gate_count(g: Gate, basis: BasisGate, mirrored: bool | None = None) -> int:
    """Decomposition count k(g, basis), or of g with its mirror flag set to
    ``mirrored``; cached on kind, order, matrix bytes and mirror flag."""
    if not g.is_two_qubit:
        return 0
    matrix = None if g.matrix is None else np.asarray(g.matrix, dtype=complex).tobytes()
    return _count(basis, g.kind, g.n, matrix, g.mirrored if mirrored is None else mirrored)


def swap_count(basis: BasisGate) -> int:
    """k(SWAP, basis): native cost of one routing hop."""
    return _count(basis, "swap", 1, None, False)
