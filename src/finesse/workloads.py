"""Benchmark circuit suite: 8-15 qubit workloads over the routing gate set.

Structured kernels (GHZ, W-state, QFT, QPE, BV) plus variational layers;
controlled-phase and ZZ interactions are pre-decomposed into cx/rz so every
file stays inside the supported dialect.  All generators are
deterministic: parametrized circuits draw angles from fixed seeds.
"""
from __future__ import annotations

from math import acos, pi, sqrt
from pathlib import Path

import numpy as np

from .ir import CircuitDag, build_dag
from .qasm import serialize_qasm


def _cp(ops, theta: float, a: int, b: int):
    """Controlled phase up to global phase: rz/cx ladder."""
    ops.append(("rz", (a,), (theta / 2,)))
    ops.append(("rz", (b,), (theta / 2,)))
    ops.append(("cx", (a, b)))
    ops.append(("rz", (b,), (-theta / 2,)))
    ops.append(("cx", (a, b)))


def _rzz(ops, theta: float, a: int, b: int):
    ops.append(("cx", (a, b)))
    ops.append(("rz", (b,), (theta,)))
    ops.append(("cx", (a, b)))


def _cry(ops, theta: float, a: int, b: int):
    ops.append(("ry", (b,), (theta / 2,)))
    ops.append(("cx", (a, b)))
    ops.append(("ry", (b,), (-theta / 2,)))
    ops.append(("cx", (a, b)))


def ghz(n: int) -> CircuitDag:
    ops = [("h", (0,))] + [("cx", (i, i + 1)) for i in range(n - 1)]
    return build_dag(n, ops)


def w_state(n: int) -> CircuitDag:
    ops = [("x", (0,))]
    for i in range(n - 1):
        theta = 2.0 * acos(sqrt(1.0 / (n - i)))
        _cry(ops, theta, i, i + 1)
        ops.append(("cx", (i + 1, i)))
    return build_dag(n, ops)


def qft(n: int) -> CircuitDag:
    """|x> -> 2^(-n/2) sum_y exp(2 pi i x y / 2^n) |y>, up to a global phase.

    x and y are read big-endian over the wires (wire 0 the most significant
    bit); the closing swaps put the output in the same order as the input.
    """
    ops = []
    for i in range(n):
        ops.append(("h", (i,)))
        for j in range(i + 1, n):
            _cp(ops, pi / (2 ** (j - i)), j, i)
    for i in range(n // 2):
        ops.append(("swap", (i, n - 1 - i)))
    return build_dag(n, ops)


def qpe(n: int) -> CircuitDag:
    """Phase estimation of a diagonal phase on the last wire."""
    counting = n - 1
    phase = 2.0 * pi / 3.0
    ops = [("x", (counting,))]
    for k in range(counting):
        ops.append(("h", (k,)))
    for k in range(counting):
        _cp(ops, phase * (2**k), k, counting)
    for i in range(counting // 2):
        ops.append(("swap", (i, counting - 1 - i)))
    for i in range(counting):  # inverse QFT on the counting register
        for j in range(i):
            _cp(ops, -pi / (2 ** (i - j)), j, i)
        ops.append(("h", (i,)))
    return build_dag(n, ops)


def bernstein_vazirani(n: int, secret: int | None = None) -> CircuitDag:
    """Data wire i ends in bit i of `secret`; the target, wire n - 1, in |->."""
    if secret is None:
        secret = (1 << (n - 1)) // 3 * 2 + 1  # alternating-ish bit pattern
    target = n - 1
    ops = [("x", (target,)), ("h", (target,))]
    for i in range(n - 1):
        ops.append(("h", (i,)))
    for i in range(n - 1):
        if (secret >> i) & 1:
            ops.append(("cx", (i, target)))
    for i in range(n - 1):
        ops.append(("h", (i,)))
    return build_dag(n, ops)


def qaoa_ring(n: int) -> CircuitDag:
    rng = np.random.default_rng(11)
    ops = [("h", (i,)) for i in range(n)]
    for _ in range(2):
        gamma = float(rng.uniform(0.1, pi))
        beta = float(rng.uniform(0.1, pi))
        for i in range(n):
            _rzz(ops, gamma, i, (i + 1) % n)
        for i in range(n):
            ops.append(("rx", (i,), (2 * beta,)))
    return build_dag(n, ops)


def vqe_two_local(n: int) -> CircuitDag:
    rng = np.random.default_rng(13)
    ops = []
    for _ in range(3):
        for i in range(n):
            ops.append(("ry", (i,), (float(rng.uniform(0, 2 * pi)),)))
        for i in range(n - 1):
            ops.append(("cx", (i, i + 1)))
    for i in range(n):
        ops.append(("ry", (i,), (float(rng.uniform(0, 2 * pi)),)))
    return build_dag(n, ops)


def _ccx(ops, a: int, b: int, c: int):
    """Toffoli via the standard six-cx construction."""
    ops.append(("h", (c,)))
    ops.append(("cx", (b, c)))
    ops.append(("tdg", (c,)))
    ops.append(("cx", (a, c)))
    ops.append(("t", (c,)))
    ops.append(("cx", (b, c)))
    ops.append(("tdg", (c,)))
    ops.append(("cx", (a, c)))
    ops.append(("t", (b,)))
    ops.append(("t", (c,)))
    ops.append(("h", (c,)))
    ops.append(("cx", (a, b)))
    ops.append(("t", (a,)))
    ops.append(("tdg", (b,)))
    ops.append(("cx", (a, b)))


def amplitude_estimation(n: int) -> CircuitDag:
    """Counting register estimating a single-qubit rotation amplitude."""
    counting = n - 1
    theta = 2.0 * acos(sqrt(0.3))
    ops = [("ry", (counting,), (theta,))]
    for k in range(counting):
        ops.append(("h", (k,)))
    for k in range(counting):
        _cry(ops, theta * (2**k), k, counting)
    for i in range(counting):  # inverse QFT on the counting register
        for j in range(i):
            _cp(ops, -pi / (2 ** (i - j)), j, i)
        ops.append(("h", (i,)))
    return build_dag(n, ops)


def shor_ec() -> CircuitDag:
    """Shor-code encode, inject an error, decode with Toffoli corrections,
    on 11 qubits."""
    data = list(range(9))
    ops = [("ry", (0,), (0.7,))]
    for q in (3, 6):
        ops.append(("cx", (0, q)))
    for q in (0, 3, 6):
        ops.append(("h", (q,)))
        ops.append(("cx", (q, q + 1)))
        ops.append(("cx", (q, q + 2)))
    ops.append(("z", (4,)))  # injected phase error
    ops.append(("x", (8,)))  # injected bit error
    for q in (0, 3, 6):
        ops.append(("cx", (q, q + 1)))
        ops.append(("cx", (q, q + 2)))
        _ccx(ops, q + 2, q + 1, q)
        ops.append(("h", (q,)))
    ops.append(("cx", (0, 3)))
    ops.append(("cx", (0, 6)))
    _ccx(ops, 6, 3, 0)
    ops.append(("cx", (0, 9)))   # readout ancillas keep the width at 11
    ops.append(("cx", (0, 10)))
    return build_dag(11, ops)


def cuccaro_adder(n: int) -> CircuitDag:
    """Ripple-carry adder |a>|b> -> |a>|a+b> on (n-1)/2-bit registers."""
    bits = (n - 1) // 2
    a = list(range(bits))
    b = list(range(bits, 2 * bits))
    carry = 2 * bits
    ops = []
    for i in range(bits):  # set a = 0b0101.., b = 0b0011..
        if i % 2 == 0:
            ops.append(("x", (a[i],)))
        if i % 4 < 2:
            ops.append(("x", (b[i],)))

    def maj(ops, c, bq, aq):
        ops.append(("cx", (aq, bq)))
        ops.append(("cx", (aq, c)))
        _ccx(ops, c, bq, aq)

    def uma(ops, c, bq, aq):
        _ccx(ops, c, bq, aq)
        ops.append(("cx", (aq, c)))
        ops.append(("cx", (c, bq)))

    maj(ops, carry, b[0], a[0])
    for i in range(1, bits):
        maj(ops, a[i - 1], b[i], a[i])
    for i in range(bits - 1, 0, -1):
        uma(ops, a[i - 1], b[i], a[i])
    uma(ops, carry, b[0], a[0])
    return build_dag(n, ops)


SUITE = {
    "wstate_08": lambda: w_state(8),
    "qpe_08": lambda: qpe(8),
    "ghz_10": lambda: ghz(10),
    "qft_10": lambda: qft(10),
    "ae_10": lambda: amplitude_estimation(10),
    "vqe_10": lambda: vqe_two_local(10),
    "seca_11": shor_ec,
    "qaoa_12": lambda: qaoa_ring(12),
    "bv_13": lambda: bernstein_vazirani(13),
    "adder_15": lambda: cuccaro_adder(15),
}


def suite() -> dict[str, CircuitDag]:
    return {name: make() for name, make in SUITE.items()}


def write_suite(directory) -> list[Path]:
    out = Path(directory)
    out.mkdir(parents=True, exist_ok=True)
    paths = []
    for name, dag in suite().items():
        path = out / f"{name}.qasm"
        path.write_text(serialize_qasm(dag))
        paths.append(path)
    return paths
