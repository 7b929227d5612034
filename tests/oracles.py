"""Independent oracles the tests check library results against.

Each oracle deliberately avoids the code path it validates: path minima by
exhaustive enumeration and by Bellman-Ford relaxation, two-qubit class
labels by Makhlin invariants, basis counts by sampled reachability with
Nelder-Mead polish, spectator infidelity by a closed form of the factorized
matrix exponential, the allocation loss by explicit loops over every
resonance, gate and qubit pair, the routing lookahead by a scalar loop over
the front and extended gates, the extended set by a walk over a full copy of
the predecessor counts, circuits by dense Kronecker-product matrices,
routed-circuit equivalence by loops over the computational basis of those
matrices, and QASM angles by Python's own expression grammar.
"""
from __future__ import annotations

import ast
import math
import operator
from itertools import product
from math import cos, pi, sin

import numpy as np
import scipy.optimize

from finesse import gates
from finesse.weyl import MAGIC, weyl_coordinates


# --- graphs ---------------------------------------------------------------


def all_simple_paths(edges: dict, src: int, dst: int):
    """Yield every simple path src -> dst in an adjacency dict."""
    stack = [(src, [src])]
    while stack:
        node, path = stack.pop()
        if node == dst:
            yield path
            continue
        for nb in edges[node]:
            if nb not in path:
                stack.append((nb, path + [nb]))


def brute_force_fidelity_distance(cmap, weights, k_swap: int, src: int, dst: int) -> float:
    """Minimum accumulated k_swap * L over all simple paths."""
    if src == dst:
        return 0.0
    adj = {i: list(cmap.neighbors[i]) for i in range(cmap.num_physical)}
    best = float("inf")
    for path in all_simple_paths(adj, src, dst):
        cost = sum(k_swap * weights.of(a, b) for a, b in zip(path, path[1:]))
        best = min(best, cost)
    return best


def relaxed_distances(cmap, weight) -> np.ndarray:
    """All-pairs distances by Bellman-Ford relaxation to a fixpoint: each entry
    is the least left-to-right sum of weight(u, v) along a path, as rounded in
    float64, whatever order the arcs are relaxed in."""
    n = cmap.num_physical
    d = np.full((n, n), np.inf)
    np.fill_diagonal(d, 0.0)
    arcs = [(i, j) for i, j, _ in cmap.edges] + [(j, i) for i, j, _ in cmap.edges]
    changed = True
    while changed:
        changed = False
        for src in range(n):
            for u, v in arcs:
                cost = d[src, u] + weight(u, v)
                if cost < d[src, v]:
                    d[src, v] = cost
                    changed = True
    return d


def random_connected_map(rng, max_nodes: int = 8):
    """Random connected fidelity-weighted graph on <= max_nodes nodes."""
    from finesse.hardware import CouplingMap

    n = int(rng.integers(2, max_nodes + 1))
    pairs = set()
    order = list(rng.permutation(n))
    for a, b in zip(order, order[1:]):  # random spanning tree
        pairs.add((min(a, b), max(a, b)))
    extras = int(rng.integers(0, n))
    for _ in range(extras):
        a, b = rng.integers(0, n, size=2)
        if a != b:
            pairs.add((min(int(a), int(b)), max(int(a), int(b))))
    fids = [float(rng.uniform(0.9, 0.999)) for _ in pairs]
    return CouplingMap.from_pairs(n, sorted(pairs), fids)


def reference_lookahead(front, extended, layout, matrix, w: float) -> float:
    """SABRE lookahead: unnormalized front sum plus W-weighted extended average."""
    total = 0.0
    for g in front:
        total += matrix[layout.physical(g.wires[0]), layout.physical(g.wires[1])]
    if extended:
        ext = 0.0
        for g in extended:
            ext += matrix[layout.physical(g.wires[0]), layout.physical(g.wires[1])]
        total += w * ext / len(extended)
    return float(total)


def reference_extended_set(dag, front, size: int, remaining_preds: dict) -> list:
    """Lookahead set by breadth-first levels from the front over a copy of
    every remaining predecessor count: a gate joins a level once all its arcs
    are seen; the first `size` 2q gates in (level, id) order."""
    if size <= 0:
        return []
    counts = dict(remaining_preds)
    collected = []
    frontier = [g.id for g in front]
    level = 0
    while frontier and len(collected) < size:
        level += 1
        nxt = []
        for gid in frontier:
            for s in dag.successors(gid):
                counts[s] -= 1
                if counts[s] == 0:
                    nxt.append(s)
                    if dag.gate(s).is_two_qubit:
                        collected.append((level, s))
        frontier = nxt
    collected.sort()
    return [dag.gate(gid) for _, gid in collected[:size]]


# --- two-qubit invariants ---------------------------------------------------


def makhlin_invariants(u: np.ndarray) -> tuple[complex, complex]:
    su = u / np.linalg.det(u) ** 0.25
    m = MAGIC.conj().T @ su @ MAGIC
    mm = m.T @ m
    tr = np.trace(mm)
    return tr**2 / 16.0, (tr**2 - np.trace(mm @ mm)) / 4.0


def same_local_class(u: np.ndarray, v: np.ndarray, tol: float = 1e-7) -> bool:
    gu, gv = makhlin_invariants(u), makhlin_invariants(v)
    return abs(gu[0] - gv[0]) <= tol and abs(gu[1] - gv[1]) <= tol


def canonical_gate(c) -> np.ndarray:
    import scipy.linalg

    xx = np.kron(gates.X, gates.X)
    yy = np.kron(gates.Y, gates.Y)
    zz = np.kron(gates.Z, gates.Z)
    return scipy.linalg.expm(1j * (c[0] * xx + c[1] * yy + c[2] * zz))


def haar_su2(rng) -> np.ndarray:
    z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def haar_su4(rng) -> np.ndarray:
    z = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


# --- Monte-Carlo basis-count oracle ----------------------------------------


def _product(basis_u: np.ndarray, locals_flat: np.ndarray, k: int) -> np.ndarray:
    """basis (local) basis ... with k basis uses and k-1 local layers."""
    prod = basis_u
    for layer in range(k - 1):
        a = _su2_from_angles(locals_flat[6 * layer : 6 * layer + 3])
        b = _su2_from_angles(locals_flat[6 * layer + 3 : 6 * layer + 6])
        prod = prod @ np.kron(a, b) @ basis_u
    return prod


def _su2_from_angles(v) -> np.ndarray:
    return gates.rz(v[0]) @ gates.ry(v[1]) @ gates.rz(v[2])


class CoverageOracle:
    """Sampled reachability in invariant space, polished by Nelder-Mead.

    For each use count k the oracle samples interleaved products to seed a
    local search that minimizes the invariant-space distance to the target;
    the target is reachable with k uses iff the polished distance vanishes.
    """

    def __init__(self, basis_u: np.ndarray, seed: int = 0, samples: int = 3000):
        self.basis_u = np.asarray(basis_u, dtype=complex)
        self.basis_c = np.array(weyl_coordinates(self.basis_u))
        rng = np.random.default_rng(seed)
        self.clouds = {}
        for k in (2, 3):
            params = rng.uniform(0, 2 * pi, size=(samples, 6 * (k - 1)))
            points = np.array(
                [weyl_coordinates(_product(self.basis_u, p, k)) for p in params]
            )
            self.clouds[k] = (params, points)

    def _reach_distance(self, target_c: np.ndarray, k: int, polish: int = 6) -> float:
        params, points = self.clouds[k]
        order = np.argsort(np.linalg.norm(points - target_c, axis=1))
        best = float(np.linalg.norm(points[order[0]] - target_c))
        for idx in order[:polish]:
            res = scipy.optimize.minimize(
                lambda v: float(
                    np.linalg.norm(
                        np.array(weyl_coordinates(_product(self.basis_u, v, k))) - target_c
                    )
                ),
                params[idx],
                method="Nelder-Mead",
                options={"maxiter": 1200, "fatol": 1e-14, "xatol": 1e-10},
            )
            best = min(best, float(res.fun))
            if best < 1e-8:
                break
        return best

    def reaches(self, u: np.ndarray, k: int, tol: float = 1e-6) -> bool:
        """Whether k basis uses (k = 2 or 3) interleaved with 1q gates reach U."""
        return self._reach_distance(np.array(weyl_coordinates(u)), k) <= tol

    def count(self, u: np.ndarray, tol: float = 1e-6) -> int:
        c = np.array(weyl_coordinates(u))
        if np.linalg.norm(c) <= 1e-8:
            return 0
        if np.linalg.norm(c - self.basis_c) <= 1e-8:
            return 1
        if self._reach_distance(c, 2) <= tol:
            return 2
        if self._reach_distance(c, 3) <= tol:
            return 3
        raise ValueError("target unreachable within three applications")


# --- bounded-spectator closed form -----------------------------------------


def factorized_spectator_infidelity(amp: float) -> float:
    """Closed form of the 16-dim oracle: target and spectator commute, so
    eps = 1 - (1 + 4 (1 + cos amp)^2) / 17."""
    return 1.0 - (1.0 + 4.0 * (1.0 + np.cos(amp)) ** 2) / 17.0


# --- Algorithm-1 allocation loss --------------------------------------------


def reference_resonances(rule: str, omega_q, omega_s: float) -> list:
    """(frequency, key) per pump-frame resonance of one intra-module rule."""
    n = len(omega_q)
    if rule == "pair_conversion":
        return [
            (abs(omega_q[a] - omega_q[b]), ("pair", a, b))
            for a in range(n)
            for b in range(a + 1, n)
        ]
    if rule == "snail_sub2":
        return [(omega_s / 2.0, ("snail_sub2",))]
    if rule == "snail_sub3":
        return [(omega_s / 3.0, ("snail_sub3",))]
    if rule == "snail_qubit":
        return [(abs(omega_s - w), ("sq", a)) for a, w in enumerate(omega_q)]
    if rule == "snail_qubit_half":
        return [(abs(omega_s - w) / 2.0, ("sqh", a)) for a, w in enumerate(omega_q)]
    if rule == "qubit_sub2":
        return [(w / 2.0, ("q2", a)) for a, w in enumerate(omega_q)]
    if rule == "qubit_sub3":
        return [(w / 3.0, ("q3", a)) for a, w in enumerate(omega_q)]
    raise KeyError(rule)


# Loss-catalog rules with their normalized prefactors (reference rows).
_LOSS_PREFACTORS = {
    "pair_conversion": 1.0,
    "snail_qubit": 10.0,
    "qubit_sub2": 10.0,
    "snail_qubit_half": 0.067,
    "qubit_sub3": 0.044,
}


def reference_allocation_loss(omega_q, omega_s, gates, fit, k, delta_q, weight=1e3):
    """Algorithm-1 loss term by term; fit = (coh_x0, coh_x1, inc_x0, inc_x1).

    A category with prefactor R carries (coh_x0 R^2, coh_x1 R).  Returns
    (eps_coh, eps_inc, eps_gate, cost) with one entry per gate.
    """
    coh_x0, coh_x1, inc_x0, inc_x1 = fit
    eps_coh, eps_inc, eps_gate = [], [], []
    for a, b in gates:
        pump = abs(omega_q[a] - omega_q[b])
        own = ("pair", min(a, b), max(a, b))
        total = 0.0
        for rule, ratio in _LOSS_PREFACTORS.items():
            x0, x1 = coh_x0 * ratio**2, coh_x1 * ratio
            for freq, key in reference_resonances(rule, omega_q, omega_s):
                if key != own:
                    total += min(1.0, 2.0 * x0 / (x1 + abs(pump - freq)) ** 2)
        coh = min(1.0, total)
        inc = min(1.0, inc_x0 / (inc_x1 + abs(omega_q[a] - omega_s / 2.0)))
        eps_coh.append(coh)
        eps_inc.append(inc)
        eps_gate.append(1.0 - (1.0 - inc) * (1.0 - coh))
    cost = sum(sorted(eps_gate, reverse=True)[k:])
    n = len(omega_q)
    for a in range(n):
        for b in range(a + 1, n):
            gap = abs(omega_q[a] - omega_q[b])
            if gap < delta_q:
                cost += weight * ((delta_q - gap) / delta_q) ** 2
    return eps_coh, eps_inc, eps_gate, cost


# --- dense circuit simulation -----------------------------------------------

_ONE_QUBIT = {
    "h": np.array([[1, 1], [1, -1]]) / np.sqrt(2),
    "x": np.array([[0, 1], [1, 0]]),
    "s": np.diag([1, 1j]),
    "sdg": np.diag([1, -1j]),
    "t": np.diag([1, np.exp(0.25j * pi)]),
    "tdg": np.diag([1, np.exp(-0.25j * pi)]),
}
_TWO_QUBIT = {  # in the (wires[0], wires[1]) basis, wires[0] the high bit
    "cx": np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]),
    "swap": np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]]),
}


def _rz(theta: float) -> np.ndarray:
    return np.diag([np.exp(-0.5j * theta), np.exp(0.5j * theta)])


def _ry(theta: float) -> np.ndarray:
    c, s = cos(theta / 2), sin(theta / 2)
    return np.array([[c, -s], [s, c]])


def _one_qubit(g) -> np.ndarray:
    if g.kind == "rz":
        return _rz(g.params[0])
    if g.kind == "ry":
        return _ry(g.params[0])
    if g.kind == "u":  # Euler form, equal to u up to a global phase
        theta, phi, lam = g.params
        return _rz(phi) @ _ry(theta) @ _rz(lam)
    return _ONE_QUBIT[g.kind]


def _on_wires(n: int, ops: dict) -> np.ndarray:
    """Kronecker product over wires 0..n-1, wire 0 first; identity off `ops`."""
    out = np.ones((1, 1))
    for w in range(n):
        out = np.kron(out, ops.get(w, np.eye(2)))
    return out


def _unit(i: int, j: int) -> np.ndarray:
    """|i><j| on one wire."""
    out = np.zeros((2, 2))
    out[i, j] = 1.0
    return out


def dense_unitary(dag) -> np.ndarray:
    """2^n x 2^n matrix of a circuit of h, x, s, sdg, t, tdg, rz, ry, u, cx
    and swap gates and barriers, up to one global phase.

    Basis indices are big-endian over wires: wire 0 is the most significant
    bit.  A 2q gate is expanded as sum m[ik, jl] |i><j|_a (x) |k><l|_b; a
    mirrored one is SWAP . m.
    """
    n = dag.num_qubits
    u = np.eye(2**n, dtype=complex)
    for g in dag.gates:
        if g.kind == "barrier":
            continue
        if len(g.wires) == 1:
            full = _on_wires(n, {g.wires[0]: _one_qubit(g)})
        else:
            m, (a, b) = _TWO_QUBIT[g.kind], g.wires
            if g.mirrored:
                m = _TWO_QUBIT["swap"] @ m
            full = sum(
                m[2 * i + k, 2 * j + l] * _on_wires(n, {a: _unit(i, j), b: _unit(k, l)})
                for i, j, k, l in product((0, 1), repeat=4)
                if m[2 * i + k, 2 * j + l]
            )
        u = full @ u
    return u


def reference_equivalent(ref, routed, perm, input_map=None, tol: float = 1e-8) -> bool:
    """Whether ``routed`` implements ``ref`` on its embedded wires, read off
    the dense matrices entry by entry.

    Reference wire v enters on ``input_map[v]`` (wire v when None) with every
    other wire in |0>; output wire w carries virtual wire ``perm[w]``, and the
    wires carrying virtuals >= ref.num_qubits must end in |0>.  The block so
    read must equal the reference matrix up to one global phase, which holds
    iff |tr(U_ref^dag B)| = 2^n, since no column of B is longer than 1.
    """
    n, m = ref.num_qubits, routed.num_qubits
    in_wire = list(range(n)) if input_map is None else [int(w) for w in input_map][:n]
    out_wire = {int(v): w for w, v in enumerate(perm)}
    u_ref, u = dense_unitary(ref), dense_unitary(routed)

    def bit(index: int, wire: int, width: int) -> int:
        return (index >> (width - 1 - wire)) & 1

    block = np.zeros((2**n, 2**n), dtype=complex)
    leak = 0.0
    for col in range(2**n):
        src = sum(1 << (m - 1 - in_wire[v]) for v in range(n) if bit(col, v, n))
        for row in range(2**m):
            amp = u[row, src]
            if any(bit(row, w, m) for w in range(m) if perm[w] >= n):
                leak = max(leak, abs(amp))
                continue
            dst = sum(bit(row, out_wire[v], m) << (n - 1 - v) for v in range(n))
            block[dst, col] = amp
    overlap = abs(np.trace(u_ref.conj().T @ block)) / 2**n
    return leak <= tol and abs(overlap - 1.0) <= tol


# --- QASM angles -------------------------------------------------------------

_ANGLE_STEPS = {
    ast.Add: operator.add,
    ast.Sub: operator.sub,
    ast.Mult: operator.mul,
    ast.Div: operator.truediv,
    ast.Pow: operator.pow,
    ast.USub: operator.neg,
    ast.UAdd: operator.pos,
    "sin": math.sin,
    "cos": math.cos,
    "tan": math.tan,
    "exp": math.exp,
    "ln": math.log,
    "sqrt": math.sqrt,
}


def reference_angle(text: str) -> float | None:
    """An OpenQASM 2 angle read by Python's parser, with ``^`` as ``**``
    (the same precedence and right associativity), and evaluated over the
    ``math`` functions; None when a literal or any step raises or is not a
    finite real number."""

    def value(node) -> float:
        if isinstance(node, ast.Constant):
            val = float(node.value)
        elif isinstance(node, ast.Name):
            val = {"pi": math.pi}[node.id]
        elif isinstance(node, ast.Call):
            val = _ANGLE_STEPS[node.func.id](value(node.args[0]))
        elif isinstance(node, ast.UnaryOp):
            val = _ANGLE_STEPS[type(node.op)](value(node.operand))
        else:
            val = _ANGLE_STEPS[type(node.op)](value(node.left), value(node.right))
        if not isinstance(val, float) or not math.isfinite(val):
            raise ArithmeticError(f"{val!r} is not a finite real number")
        return val

    try:
        return value(ast.parse(text.replace("^", "**"), mode="eval").body)
    except (ArithmeticError, ValueError):
        return None
