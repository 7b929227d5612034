"""Workload generators against closed forms, simulated by the dense
Kronecker-product oracle in `oracles.py` (not by the library's verifier)."""
from math import pi, sqrt

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from finesse.workloads import bernstein_vazirani, ghz, qft, w_state

from oracles import dense_unitary


def _state(dag) -> np.ndarray:
    return dense_unitary(dag)[:, 0]


def _equal_up_to_phase(a: np.ndarray, b: np.ndarray, tol: float = 1e-10) -> bool:
    phase = np.vdot(b.ravel(), a.ravel()) / np.vdot(b.ravel(), b.ravel())
    return abs(abs(phase) - 1.0) <= tol and np.max(np.abs(a - phase * b)) <= tol


def _basis(n: int, wires) -> int:
    """Basis index with the given wires set; wire 0 is the high bit."""
    return sum(1 << (n - 1 - w) for w in wires)


@pytest.mark.parametrize("n", range(1, 6))
def test_qft_is_the_dft_matrix(n):
    k = np.arange(2**n)
    dft = np.exp(2j * pi * np.outer(k, k) / 2**n) / sqrt(2**n)
    assert _equal_up_to_phase(dense_unitary(qft(n)), dft)


@pytest.mark.parametrize("n", range(2, 9))
def test_ghz_state(n):
    expected = np.zeros(2**n)
    expected[[0, -1]] = 1 / sqrt(2)
    assert _equal_up_to_phase(_state(ghz(n)), expected)


@pytest.mark.parametrize("n", range(2, 9))
def test_w_state(n):
    expected = np.zeros(2**n)
    expected[[_basis(n, [w]) for w in range(n)]] = 1 / sqrt(n)
    assert _equal_up_to_phase(_state(w_state(n)), expected)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 8), data=st.data())
def test_bernstein_vazirani_returns_its_secret(n, data):
    secret = data.draw(st.one_of(st.none(), st.integers(0, 2 ** (n - 1) - 1)))
    dag = bernstein_vazirani(n, secret)
    if secret is None:
        secret = (1 << (n - 1)) // 3 * 2 + 1
    # data wire i holds secret bit i; the target ends in |->
    data_wires = [i for i in range(n - 1) if (secret >> i) & 1]
    minus = np.zeros(2**n)
    minus[_basis(n, data_wires)] = 1 / sqrt(2)
    minus[_basis(n, data_wires + [n - 1])] = -1 / sqrt(2)
    assert _equal_up_to_phase(_state(dag), minus)
