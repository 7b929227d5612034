"""Exact gate matrices for every supported kind."""
from __future__ import annotations

from math import cos, pi, sin, sqrt

import numpy as np

from .ir import Gate

_SQ2 = 1.0 / sqrt(2.0)

H = np.array([[1, 1], [1, -1]], dtype=complex) * _SQ2
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
S = np.array([[1, 0], [0, 1j]], dtype=complex)
SDG = S.conj()
T = np.array([[1, 0], [0, np.exp(1j * pi / 4)]], dtype=complex)
TDG = T.conj()

CX = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)
CZ = np.diag([1, 1, 1, -1]).astype(complex)
SWAP = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
)
# Echoed cross-resonance, locally equivalent to CX.
ECR = _SQ2 * np.array(
    [
        [0, 0, 1, 1j],
        [0, 0, 1j, 1],
        [1, -1j, 0, 0],
        [-1j, 1, 0, 0],
    ],
    dtype=complex,
)

_FIXED_1Q = {"h": H, "x": X, "y": Y, "z": Z, "s": S, "sdg": SDG, "t": T, "tdg": TDG}


def rx(theta: float) -> np.ndarray:
    c, s = cos(theta / 2), sin(theta / 2)
    return np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)


def ry(theta: float) -> np.ndarray:
    c, s = cos(theta / 2), sin(theta / 2)
    return np.array([[c, -s], [s, c]], dtype=complex)


def rz(theta: float) -> np.ndarray:
    return np.array(
        [[np.exp(-1j * theta / 2), 0], [0, np.exp(1j * theta / 2)]], dtype=complex
    )


def u(theta: float, phi: float, lam: float) -> np.ndarray:
    c, s = cos(theta / 2), sin(theta / 2)
    return np.array(
        [
            [c, -np.exp(1j * lam) * s],
            [np.exp(1j * phi) * s, np.exp(1j * (phi + lam)) * c],
        ],
        dtype=complex,
    )


def root_iswap(n: int) -> np.ndarray:
    """n-th root of iSWAP: cos/sin(pi/2n) exchange block with +i phases."""
    c, s = cos(pi / (2 * n)), sin(pi / (2 * n))
    return np.array(
        [
            [1, 0, 0, 0],
            [0, c, 1j * s, 0],
            [0, 1j * s, c, 0],
            [0, 0, 0, 1],
        ],
        dtype=complex,
    )


ISWAP = root_iswap(1)

_FIXED_2Q = {"cx": CX, "cz": CZ, "swap": SWAP, "iswap": ISWAP, "ecr": ECR}


def one_qubit_matrix(gate: Gate) -> np.ndarray:
    if gate.kind in _FIXED_1Q:
        return _FIXED_1Q[gate.kind]
    if gate.kind == "rx":
        return rx(gate.params[0])
    if gate.kind == "ry":
        return ry(gate.params[0])
    if gate.kind == "rz":
        return rz(gate.params[0])
    if gate.kind == "u":
        return u(*gate.params)
    raise ValueError(f"{gate.kind} is not a 1q gate")


def base_matrix(gate: Gate) -> np.ndarray:
    """Matrix in the (wires[0], wires[1]) big-endian basis, mirror ignored."""
    if gate.kind in _FIXED_2Q:
        return _FIXED_2Q[gate.kind]
    if gate.kind == "root_iswap":
        return root_iswap(gate.n)
    if gate.kind == "unitary":
        return gate.matrix
    raise ValueError(f"{gate.kind} is not a 2q gate")


def two_qubit_matrix(gate: Gate) -> np.ndarray:
    """Matrix in the (wires[0], wires[1]) big-endian basis, mirror folded in."""
    base = base_matrix(gate)
    return SWAP @ base if gate.mirrored else base
