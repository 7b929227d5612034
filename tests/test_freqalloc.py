import hashlib
import json
import math
import re
import warnings

import numpy as np
import pytest
import scipy.optimize
from hypothesis import example, given, settings, strategies as st

from finesse import freqalloc as fa
from finesse.hardware import FIDELITY_FLOOR, TABLE3_MODULES, load_topology
from oracles import (
    expm_spectator_infidelity,
    reference_allocation_loss,
    reference_optimize,
    reference_resonances,
    scipy_nelder_mead,
)


@pytest.fixture(scope="module")
def params():
    return fa.calibrate_cost_model()


def resonance_frequencies(term, omega_q, omega_s):
    """(frequency, key) of each of the term's resonance rows: |x_i - x_j| /
    divisor over x = (omega_q..., omega_s, 0)."""
    x = (*omega_q, omega_s, 0.0)
    return [(abs(x[i] - x[j]) / d, key) for i, j, d, key in term.resonances(len(omega_q))]


def spectator_frequencies(assign, driven_pair):
    """(frequency, prefactor) of every INTRA_CATALOG resonance but the driven
    pair's own conversion."""
    own = ("pair", *sorted(driven_pair))
    return [(freq, term.normalized_prefactor) for term in fa.INTRA_CATALOG
            for freq, key in resonance_frequencies(term, assign.omega_q, assign.omega_s) if key != own]


def coherent_crossing(params, prefactor):
    """Detuning where a category's coherent curve drops to 0.01, F = 0.99 (Hz)."""
    x0, x1 = params.coherent_for(prefactor)
    return (2.0 * x0 / 0.01) ** 0.5 - x1


class TestGolomb:
    def test_p3_marks(self):
        assert fa.golomb_frequencies(3) == [0.0, 7.0, 13.0]

    def test_p2_marks_follow_construction(self):
        # 2*p*k + k^2 mod p at p=2, k=1 gives 4 + 1
        assert fa.golomb_frequencies(2) == [0.0, 5.0]

    def test_p5_all_differences_distinct(self):
        marks = fa.golomb_frequencies(5)
        diffs = [abs(a - b) for i, a in enumerate(marks) for b in marks[i + 1 :]]
        assert len(diffs) == 10 and len(set(diffs)) == 10

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
    def test_prime_rulers_distinct(self, p):
        marks = fa.golomb_frequencies(p)
        diffs = [abs(a - b) for i, a in enumerate(marks) for b in marks[i + 1 :]]
        assert len(set(diffs)) == p * (p - 1) // 2

    def test_composite_warns(self):
        with pytest.warns(UserWarning, match="composite"):
            fa.golomb_frequencies(4)


class TestSpectatorCatalog:
    def test_two_qubit_module_includes_snail_subharmonic(self):
        assign = fa.FrequencyAssignment((4.0e9, 4.5e9), 4.4e9)
        entries = spectator_frequencies(assign, (0, 1))
        assert (4.4e9 / 2, 100.0) in entries

    def test_includes_snail_qubit_conversion(self):
        assign = fa.FrequencyAssignment((4.0e9, 4.5e9), 4.4e9)
        entries = spectator_frequencies(assign, (0, 1))
        assert (abs(4.4e9 - 4.0e9), 10.0) in entries

    def test_other_pair_conversion_present_with_driven_prefactor(self):
        assign = fa.FrequencyAssignment((3.5e9, 3.8e9, 4.6e9, 5.2e9), 4.4e9)
        entries = spectator_frequencies(assign, (0, 1))
        assert (abs(5.2e9 - 4.6e9), 1.0) in entries

    def test_driven_term_excluded(self):
        assign = fa.FrequencyAssignment((4.0e9, 4.5e9), 4.4e9)
        entries = spectator_frequencies(assign, (0, 1))
        assert (0.5e9, 1.0) not in entries

    def test_catalog_prefactors_match_reference_rows(self):
        intra = {(t.rule, t.normalized_prefactor) for t in fa.INTRA_CATALOG}
        assert intra == {
            ("pair_conversion", 1.0),
            ("snail_sub2", 100.0),
            ("snail_qubit", 10.0),
            ("qubit_sub2", 10.0),
            ("snail_qubit_half", 0.067),
            ("qubit_sub3", 0.044),
            ("snail_sub3", 0.018),
        }
        inter = {t.normalized_prefactor for t in fa.SPECTATOR_CATALOG if t.category == "inter_module"}
        assert inter == {1.0, 0.1, 0.01, 0.001, 0.0001}

    @pytest.mark.parametrize("term", fa.INTRA_CATALOG, ids=lambda t: t.rule)
    def test_rule_frequencies_match_reference(self, term):
        for omega_q, omega_s in (
            ((4.0e9, 4.5e9), 4.4e9),
            ((3.5e9, 3.8e9, 4.6e9, 5.2e9, 5.6e9), 4.25e9),
        ):
            got = resonance_frequencies(term, omega_q, omega_s)
            assert got == reference_resonances(term.rule, omega_q, omega_s)

    @pytest.mark.parametrize(
        "term", [t for t in fa.SPECTATOR_CATALOG if t.category == "inter_module"], ids=lambda t: t.rule
    )
    def test_inter_module_rule_needs_neighbors(self, term):
        with pytest.raises(ValueError, match="neighbor frequencies"):
            term.resonances(2)


# Cost-law parameters of test_strictly_decreasing and the closed-form points
# where each law reaches 1: 2*x0/(x1+d)^2 = 1 and x0/(x1+d) = 1.
_COH = (1e12, 1e5)
_INC = (1e6, 1e5)
_COH_SAT = math.sqrt(2 * _COH[0]) - _COH[1]
_INC_SAT = _INC[0] - _INC[1]
_ULP_GUARD = 1e-9


class TestCostLaws:
    def test_coherent_limits(self):
        assert fa.coherent_infidelity(1e15, 1e12, 1e5) == pytest.approx(0.0, abs=1e-15)
        assert fa.coherent_infidelity(0.0, 2.0, 4.0) == pytest.approx(2 * 2 / 16)

    def test_coherent_quarter_identity(self):
        x0, x1 = 3.0, 7.0
        assert fa.coherent_infidelity(x1, x0, x1) == pytest.approx(
            fa.coherent_infidelity(0.0, x0, x1) / 4
        )

    def test_incoherent_limits(self):
        assert fa.incoherent_infidelity(1e18, 2.5e6, 1e6) == pytest.approx(0.0, abs=1e-10)
        assert fa.incoherent_infidelity(0.0, 2.0, 8.0) == pytest.approx(0.25)

    def test_incoherent_halving_identity(self):
        x0, x1 = 2.0, 9.0
        assert fa.incoherent_infidelity(x1, x0, x1) == pytest.approx(
            fa.incoherent_infidelity(0.0, x0, x1) / 2
        )

    @given(st.floats(min_value=0, max_value=1), st.floats(min_value=0, max_value=1))
    def test_compose_identity(self, a, b):
        val = fa.compose_infidelity(a, b)
        assert val == pytest.approx(a + b - a * b, rel=1e-12, abs=1e-12)
        assert val >= max(a, b) - 1e-12

    def test_compose_examples(self):
        assert fa.compose_infidelity(0.0, 0.0) == 0.0
        assert fa.compose_infidelity(0.01, 0.0) == pytest.approx(0.01)
        assert fa.compose_infidelity(0.01, 0.02) == pytest.approx(0.0298)

    @given(st.floats(min_value=0, max_value=5e9), st.floats(min_value=1, max_value=5e9))
    @example(delta=0.0, step=1.0)
    @example(delta=0.0, step=5e9)
    @example(delta=_COH_SAT - 1.0, step=1.0)
    @example(delta=_COH_SAT + 1.0, step=1.0)
    @example(delta=_INC_SAT - 1.0, step=1.0)
    @example(delta=_INC_SAT + 1.0, step=1.0)
    def test_strictly_decreasing(self, delta, step):
        # The laws are clamped to [0, 1]: they sit at 1.0 up to their
        # saturation point and fall strictly beyond it.  _ULP_GUARD keeps the
        # exact-value checks off the last few ulps around that point.
        for law, (x0, x1), sat in (
            (fa.coherent_infidelity, _COH, _COH_SAT),
            (fa.incoherent_infidelity, _INC, _INC_SAT),
        ):
            before, after = law(delta, x0, x1), law(delta + step, x0, x1)
            assert after <= before
            if delta <= sat * (1 - _ULP_GUARD):
                assert before == 1.0
            if delta + step <= sat * (1 - _ULP_GUARD):
                assert after == 1.0
            if delta + step > sat * (1 + _ULP_GUARD):
                assert after < before


class TestPumpAndGateTime:
    def test_algebraic_unit_point(self):
        omega_s = 4.5e9
        assert fa.pump_strength(omega_s * math.sqrt(2), omega_s, omega_s) == pytest.approx(1.0)

    def test_pole_rejected(self):
        with pytest.raises(fa.PumpPoleError):
            fa.pump_strength(4.5e9, 4.5e9, 1.0)

    def test_linear_in_drive(self):
        a = fa.pump_strength(2.0e9, 4.5e9, 1.0)
        b = fa.pump_strength(2.0e9, 4.5e9, 2.0)
        assert b == pytest.approx(2 * a)

    def test_gate_time_halves_with_order(self):
        c = fa.PhysicalConstants()
        t1 = fa.iswap_gate_time(1, 1.0, c.g3, c.lam)
        t2 = fa.iswap_gate_time(2, 1.0, c.g3, c.lam)
        assert t2 == pytest.approx(t1 / 2)

    def test_lambda_quartic_speedup(self):
        c = fa.PhysicalConstants()
        t = fa.iswap_gate_time(1, 1.0, c.g3, c.lam)
        t4 = fa.iswap_gate_time(1, 1.0, c.g3, 4 * c.lam)
        assert t4 == pytest.approx(t / 16)

    def test_anchor_reproduced(self):
        c = fa.PhysicalConstants()
        eta = fa.max_pump_eta(c.anchor_detuning, c)
        assert fa.iswap_gate_time(1, eta, c.g3, c.lam) == pytest.approx(c.anchor_gate_time)


class TestCalibration:
    def test_oracle_matches_closed_form(self):
        """The closed form equals the 16-dimensional matrix exponential over
        the default grid of each catalog ratio, and off it."""
        c = fa.PhysicalConstants()
        for ratio in (0.044, 0.067, 1.0, 10.0):
            for delta in [*fa._default_coherent_grid(ratio, c), 2e8, 5e8, 2e9]:
                amp = 2 * ratio * c.drive_rate / (fa.TWO_PI * delta)
                assert fa.bounded_spectator_infidelity(delta, ratio, c) == pytest.approx(
                    expm_spectator_infidelity(amp), rel=1e-12, abs=1e-15
                )

    def test_default_calibration_bits_are_pinned(self):
        """Every allocation reads these bits: the calibration at the default
        constants, as the matrix-exponential oracle first gave it."""
        p = fa.calibrate_cost_model()
        assert [float(v).hex() for v in (p.coh_x0, p.coh_x1, p.inc_x0, p.inc_x1)] == [
            "0x1.2a2fc1f91961dp+40", "0x1.0e911ab06b1a5p+15", "0x1.7d784b769ae88p+20", "0x1.7e2cf91e6f3aep+19"]

    def test_no_spectator_degenerate_fit(self):
        x0, x1 = fa.calibrate_coherent_model(0.0)
        assert x0 == 0.0

    def test_oracle_monotone_on_grid(self):
        c = fa.PhysicalConstants()
        grid = fa._default_coherent_grid(1.0, c)
        eps = [fa.bounded_spectator_infidelity(d, 1.0, c) for d in grid]
        assert all(a >= b for a, b in zip(eps, eps[1:]))

    def test_dominant_category_crossing_in_anchor_window(self, params):
        crossing = coherent_crossing(params, 10.0)
        assert 150e6 <= crossing <= 250e6
        x0, x1 = params.coherent_for(10.0)
        assert 1.0 - fa.coherent_infidelity(250e6, x0, x1) >= 0.99

    def test_category_scaling_matches_direct_calibration(self):
        base = fa.calibrate_coherent_model(1.0)
        direct = fa.calibrate_coherent_model(10.0)
        scaled = (base[0] * 100.0, base[1] * 10.0)
        assert direct[0] == pytest.approx(scaled[0], rel=5e-2)
        assert direct[1] == pytest.approx(scaled[1], rel=5e-2)

    def test_incoherent_anchor_scale(self, params):
        c = fa.PhysicalConstants()
        got = fa.incoherent_infidelity(c.anchor_detuning, params.inc_x0, params.inc_x1)
        expected = 1.0 - math.exp(-c.anchor_gate_time / c.t1)
        assert got == pytest.approx(expected, rel=5e-2)


@st.composite
def _loss_points(draw):
    """(module, k, omega_q, omega_s): default or custom gate lists, the
    latter with randomly reversed pairs; every valid k; spread or crowded
    qubits (crowded ones trigger the spacing penalty)."""
    n = draw(st.integers(2, 5))
    gates = ()
    if draw(st.booleans()):
        pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
        chosen = draw(st.lists(st.sampled_from(pairs), min_size=1, unique=True))
        gates = tuple((b, a) if draw(st.booleans()) else (a, b) for a, b in chosen)
    module = fa.FreqModule(n, gates)
    k = draw(st.integers(0, len(module.gates) - 1))
    if draw(st.booleans()):
        base = draw(st.floats(3.3e9, 5.4e9))
        omega_q = [base + draw(st.floats(0.0, 3e8)) for _ in range(n)]
    else:
        omega_q = draw(st.lists(st.floats(3.3e9, 5.7e9), min_size=n, max_size=n))
    return module, k, omega_q, draw(st.floats(4.2e9, 4.7e9))


_CYCLE = fa.FreqModule(4, ((0, 1), (1, 2), (2, 3), (3, 0)))


class TestAllocationCost:
    @given(point=_loss_points())
    @example(point=(_CYCLE, 1, [4.0e9, 4.1e9, 4.45e9, 4.9e9], 4.45e9))
    @example(point=(_CYCLE, 0, [3.3e9, 4.0e9, 4.7e9, 5.7e9], 4.6e9))
    @example(point=(fa.FreqModule(5), 9, [4.2e9, 4.25e9, 4.3e9, 4.35e9, 4.4e9], 4.3e9))
    def test_loss_matches_reference(self, params, point):
        module, k, omega_q, omega_s = point
        fit = (params.coh_x0, params.coh_x1, params.inc_x0, params.inc_x1)
        *ref_eps, ref_cost = reference_allocation_loss(
            omega_q, omega_s, module.gates, fit, k, fa.DEFAULT_DELTA_Q
        )
        ev = fa._CostEvaluator(module, params, 0, fa.DEFAULT_DELTA_Q)
        for got, want in zip(ev.gate_infidelities(np.array(omega_q), omega_s), ref_eps):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
        cost = fa.allocation_cost(fa.FrequencyAssignment(tuple(omega_q), omega_s), module, params, k)
        assert cost == pytest.approx(ref_cost, rel=1e-12, abs=0)

    def test_far_detuned_cost_vanishes(self, params):
        module = fa.FreqModule(2)
        assign = fa.FrequencyAssignment((3.3e9, 5.7e9), 4.7e9)
        # widen the spacing threshold to zero so no penalty applies
        cost = fa.allocation_cost(assign, module, params, k=0, delta_q=0.0)
        assert cost < 0.02

    def test_penalty_activation(self, params):
        module = fa.FreqModule(2)
        assign = fa.FrequencyAssignment((4.0e9, 4.1e9), 4.45e9)
        loose = fa.allocation_cost(assign, module, params, k=0, delta_q=50e6)
        tight = fa.allocation_cost(assign, module, params, k=0, delta_q=200e6)
        assert tight > loose
        violation = (200e6 - 100e6) / 200e6
        assert tight - loose == pytest.approx(1e3 * violation**2, rel=1e-6)

    def test_drop_worst_k_matches_brute_force(self, params):
        module = fa.FreqModule(3)
        assign = fa.FrequencyAssignment((3.5e9, 4.2e9, 5.5e9), 4.45e9)
        ev = fa._CostEvaluator(module, params, 0, 0.0)
        _, _, eps_gate = ev.gate_infidelities(np.array(assign.omega_q), assign.omega_s)
        expected = sum(sorted(eps_gate)[:2])  # drop the single worst of three
        got = fa.allocation_cost(assign, module, params, k=1, delta_q=0.0)
        assert got == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("k", [1, -1])
    def test_k_must_leave_a_gate(self, params, k):
        with pytest.raises(fa.AllocationError, match=f"worst-gate exclusion k.*{k}"):
            fa.allocation_cost(
                fa.FrequencyAssignment((4e9, 5e9), 4.4e9), fa.FreqModule(2), params, k=k
            )

    def test_relabeling_invariance(self, params):
        module = fa.FreqModule(4)
        rng = np.random.default_rng(3)
        for _ in range(10):
            qs = rng.uniform(3.3e9, 5.7e9, size=4)
            s = rng.uniform(4.2e9, 4.7e9)
            sigma = rng.permutation(4)
            relabeled_gates = tuple(
                (int(sigma[a]), int(sigma[b])) for a, b in module.gates
            )
            relabeled = fa.FreqModule(4, relabeled_gates)
            cost_a = fa.allocation_cost(fa.FrequencyAssignment(tuple(qs), s), module, params)
            qs_relabeled = np.empty(4)
            qs_relabeled[sigma] = qs
            cost_b = fa.allocation_cost(
                fa.FrequencyAssignment(tuple(qs_relabeled), s), relabeled, params
            )
            assert cost_a == pytest.approx(cost_b, rel=1e-9)


# --- bit identity of the allocation loss ---------------------------------
# The expected values below were recorded from the evaluator that gathered
# each pump and detuning separately, before its two-level gather plan: every
# cost and per-gate infidelity keeps its exact binary64 value, as float.hex().

# The calibrated fit as exact values, so that no digest depends on the
# calibration's LAPACK build; the same fit with zero offsets, whose laws
# divide by zero at an exact coincidence (inf clamps to 1); and the zero
# fit, where such a coincidence gives 0/0 = NaN.
_CALIBRATED = fa.CostModelParams(
    float.fromhex("0x1.2a2fc1f91961dp+40"),
    float.fromhex("0x1.0e911ab06b1a5p+15"),
    float.fromhex("0x1.7d784b769ae88p+20"),
    float.fromhex("0x1.7e2cf91e6f3aep+19"),
)
_FITS = (
    _CALIBRATED,
    fa.CostModelParams(_CALIBRATED.coh_x0, 0.0, _CALIBRATED.inc_x0, 0.0),
    fa.CostModelParams(0.0, 0.0, 0.0, 0.0),
)


def _bit_point(rng):
    """(n, gates, k, delta_q, fit, omega_q, omega_s) drawn from rng.

    n = 2..5 with the default gate list or a custom one (pairs reversed at
    random), every k, spacing 0 or 200 MHz, every fit.  Qubits are spread
    over the band, crowded into 300 MHz, or on a 1, 25 or 100 MHz grid, where
    pumps, resonances and qubits coincide exactly; one point in five puts the
    coupler at exactly twice a qubit (zero incoherent detuning).
    """
    n = int(rng.integers(2, 6))
    gates = ()
    if rng.random() < 0.5:
        pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
        chosen = rng.permutation(len(pairs))[: rng.integers(1, len(pairs) + 1)]
        gates = tuple(pairs[c][:: 1 - 2 * int(rng.integers(2))] for c in chosen)
    k = int(rng.integers(len(gates) or n * (n - 1) // 2))
    delta_q = (0.0, fa.DEFAULT_DELTA_Q)[rng.integers(2)]
    fit = int(rng.integers(len(_FITS)))
    layout = rng.integers(3)
    if layout == 0:
        omega_q = 3.3e9 + 2.4e9 * rng.random(n)
        omega_s = 4.2e9 + 0.5e9 * rng.random()
    elif layout == 1:
        omega_q = 3.3e9 + 2.1e9 * rng.random() + 3e8 * rng.random(n)
        omega_s = 4.2e9 + 0.5e9 * rng.random()
    else:
        step = (1e6, 25e6, 100e6)[rng.integers(3)]
        omega_q = 3.3e9 + step * rng.integers(0, round(2.4e9 / step) + 1, n)
        omega_s = 4.2e9 + step * rng.integers(0, round(0.5e9 / step) + 1)
    if rng.random() < 0.2:
        omega_s = 2.0 * omega_q[rng.integers(n)]
    return n, gates, k, delta_q, fit, tuple(float(w) for w in omega_q), float(omega_s)


def _loss_bits(n, gates, k, delta_q, fit, omega_q, omega_s, params=None):
    """float.hex() of the cost, then of eps_coh, eps_inc and eps_gate."""
    ev = fa._CostEvaluator(fa.FreqModule(n, gates), params or _FITS[fit], k, delta_q)
    q = np.array(omega_q)
    with np.errstate(divide="ignore", invalid="ignore"):
        values = (ev.cost(q, omega_s), *np.concatenate(ev.gate_infidelities(q, omega_s)))
    return [float(v).hex() for v in values]


# Points drawn by _bit_point from default_rng(0), with the cost and eps_gate
# that each gave.
_BIT_POINTS = [
    ((5, ((4, 3), (3, 0), (2, 3)), 1, 200000000.0, 1,
      (5051173071.431866, 3721573489.4461417, 5371629413.639728, 4599506928.59782, 4019308537.2897234), 10102346142.863731),
     "0x1.bdd780a6ee280p-8", ("0x1.3ba1e2ea99300p-9", "0x1.20068f31a1900p-8",
      "0x1.87ebbeae11880p-8")),
    ((2, (), 0, 200000000.0, 1,
      (4220826130.2285204, 5693303845.894106), 4690417669.388115),
     "0x1.8b02f2ac74700p-9", ("0x1.8b02f2ac74700p-9",)),
    ((4, (), 5, 200000000.0, 2,
      (3800149162.605288, 3741308957.289781, 3676775223.2147503, 3729453268.1966), 4644743917.1745),
     "0x1.70a8460487d26p+11", ("0x0.0p+0", "0x0.0p+0", "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
      "0x0.0p+0")),
    ((4, (), 2, 0.0, 0,
      (4500000000.0, 4100000000.0, 5125000000.0, 4225000000.0), 4350000000.0),
     "0x1.0807c4f5be188p-4", ("0x1.672ddcb789900p-6", "0x1.0e715ce088280p-6",
      "0x1.b69b33edec772p-2", "0x1.c46404fc66500p-8", "0x1.0000000000000p+0",
      "0x1.3966d8ffcd160p-6")),
    ((5, (), 0, 0.0, 1,
      (5200000000.0, 4050000000.0, 3875000000.0, 5200000000.0, 5425000000.0), 4225000000.0),
     "0x1.c267e536ee8e0p+2", ("0x1.0000000000000p+0", "0x1.0000000000000p+0",
      "0x1.8cc9ca19dda40p-7", "0x1.0000000000000p+0", "0x1.0000000000000p+0",
      "0x1.0000000000000p+0", "0x1.1564af2eac760p-6", "0x1.0000000000000p+0",
      "0x1.18374565e55c0p-7", "0x1.0000000000000p+0")),
    ((2, ((1, 0),), 0, 0.0, 2,
      (3800000000.0, 5200000000.0), 4200000000.0),
     "0x0.0p+0", ("0x0.0p+0",)),
    ((5, ((2, 3), (4, 0), (1, 0), (3, 1), (4, 1), (2, 4), (1, 2)), 3, 200000000.0, 0,
      (4379044147.787672, 4491509063.753656, 4477663214.664389, 4330993653.975787, 4420298765.775546), 4448711347.74381),
     "0x1.e30d988cf45dap+11", ("0x1.aef591c8df344p-2", "0x1.0000000000000p+0",
      "0x1.0000000000000p+0", "0x1.de7269ac4e208p-3", "0x1.0000000000000p+0",
      "0x1.0000000000000p+0", "0x1.0000000000000p+0")),
    ((2, ((1, 0),), 0, 0.0, 2,
      (5600000000.0, 5600000000.0), 4300000000.0),
     "0x0.0p+0", ("0x0.0p+0",)),
    ((2, (), 0, 200000000.0, 2,
      (3586000000.0, 5373000000.0), 4241000000.0),
     "0x0.0p+0", ("0x0.0p+0",)),
    ((5, ((3, 2), (3, 4), (4, 2), (4, 1), (0, 2), (1, 3), (4, 0), (2, 1), (0, 3)), 1, 200000000.0, 2,
      (5056814869.575746, 4774495792.677592, 3368076876.2724504, 5026127454.784177, 3338380150.8565726), 4578975501.178214),
     "0x1.686fee52c4f1ep+10", ("0x0.0p+0", "0x0.0p+0", "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
      "0x0.0p+0", "0x0.0p+0", "0x0.0p+0", "0x0.0p+0")),
    ((5, ((1, 2), (1, 0), (3, 1), (2, 4), (3, 4), (0, 4), (1, 4), (2, 0), (2, 3), (0, 3)), 1, 0.0, 2,
      (4706695355.550559, 4629817205.215843, 5243305862.190666, 4645142284.814846, 3992210914.6349053), 4406448171.340446),
     "0x0.0p+0", ("0x0.0p+0", "0x0.0p+0", "0x0.0p+0", "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
      "0x0.0p+0", "0x0.0p+0", "0x0.0p+0", "0x0.0p+0")),
    ((5, (), 6, 200000000.0, 1,
      (4725418083.871604, 5335898899.860144, 3649136491.647676, 4275624808.195504, 5483901507.989512), 4221533444.284102),
     "0x1.0f14a8e7feb0ep+6", ("0x1.b3df8852f7cbcp-3", "0x1.95040f2a811b4p-3",
      "0x1.bbe7fced0e7c0p-4", "0x1.0d8057513aae0p-6", "0x1.394915517b1a0p-6",
      "0x1.b8b278fc0bce8p-4", "0x1.14d71c08baca0p-5", "0x1.e87fe1ab740b8p-4",
      "0x1.0000000000000p+0", "0x1.ecf1452e21348p-4")),
    ((4, ((2, 3), (1, 3), (0, 2)), 1, 200000000.0, 0,
      (4800000000.0, 5600000000.0, 5200000000.0, 3600000000.0), 7200000000.0),
     "0x1.0000000000000p+1", ("0x1.0000000000000p+0", "0x1.0000000000000p+0",
      "0x1.0000000000000p+0")),
    ((3, ((1, 2), (2, 0)), 1, 200000000.0, 0,
      (3947608285.2019205, 5371488490.054363, 5415137214.570456), 4455353252.771823),
     "0x1.31929fd4b0e69p+9", ("0x1.439e58e055f00p-9", "0x1.5a07e49b86900p-8")),
    ((4, ((2, 0), (1, 2)), 1, 200000000.0, 2,
      (5129532279.797987, 4945465879.030315, 4913695824.003993, 5072340411.728165), 10144680823.45633),
     "0x1.5e0b2310b0c49p+10", ("0x0.0p+0", "0x0.0p+0")),
    ((4, (), 2, 200000000.0, 1,
      (5100000000.0, 3750000000.0, 5175000000.0, 4575000000.0), 10350000000.0),
     "0x1.86ac567330dacp+8", ("0x1.76fd446b5dac0p-6", "0x1.59c53f6a98a00p-6",
      "0x1.639700f0e9140p-6", "0x1.db2c0cad4ab00p-9", "0x1.cdb0a45865600p-10",
      "0x1.0000000000000p+0")),
    ((4, (), 5, 0.0, 0,
      (5531319007.560592, 5450262489.949106, 5410610313.782641, 5556115989.2393675), 4297553699.228402),
     "0x1.1277719a9d200p-7", ("0x1.4c39db5b29cc0p-7", "0x1.3f9e1e4d7bc00p-6",
      "0x1.dd169d6ef8200p-7", "0x1.00236345c5ce0p-6", "0x1.445eaddc33f20p-6",
      "0x1.1277719a9d200p-7")),
    ((5, (), 8, 200000000.0, 0,
      (4499934776.780684, 5085833950.278356, 3725344177.139181, 4231360156.282846, 3450949196.291931), 10171667900.556711),
     "0x1.9e3ce87db2e00p-8", ("0x1.04809f096ac80p-8", "0x1.421ea1bbba918p-4",
      "0x1.3e6aa1bfda178p-4", "0x1.1ee2f7f3f9f00p-8", "0x1.0000000000000p+0",
      "0x1.0000000000000p+0", "0x1.0000000000000p+0", "0x1.337892e890300p-9",
      "0x1.38b463a97e920p-4", "0x1.3f3d5ba2e0938p-4")),
    ((3, (), 0, 0.0, 1,
      (5138000000.0, 5521000000.0, 5497000000.0), 10276000000.0),
     "0x1.008babc59c486p+1", ("0x1.0000000000000p+0", "0x1.0000000000000p+0",
      "0x1.17578b3890c80p-8")),
    ((2, (), 0, 0.0, 2,
      (4391863581.836535, 4544920588.2957735), 4359008693.922899),
     "0x0.0p+0", ("0x0.0p+0",)),
]

_BIT_DIGEST_POINTS = 6000
_BIT_DIGEST = "ea68f4b2b6984adbd4f5d8100a2584d7e219ace2e57cb35194caf02b6058c57c"

_OPTIMIZE_REPR_SHA256 = {
    2: "3e849ba46bd138e965a0bc236df05c1ba0588eb2843ecb6d15fe95bf1c195e45",
    3: "c6c0c18dffa25d9210740de967c8cff59c1626b1f0ce662d23df9c2c8c16f521",
}


class TestLossBits:
    @pytest.mark.parametrize("point, cost, eps_gate", _BIT_POINTS)
    def test_inline_points(self, point, cost, eps_gate):
        bits = _loss_bits(*point)
        assert (bits[0], tuple(bits[-len(eps_gate):])) == (cost, eps_gate)

    def test_seeded_points_digest(self):
        rng = np.random.default_rng(18)
        digest = hashlib.sha256()
        for _ in range(_BIT_DIGEST_POINTS):
            digest.update(" ".join(_loss_bits(*_bit_point(rng))).encode() + b"\n")
        assert digest.hexdigest() == _BIT_DIGEST

    def test_negative_zero_lifetime_prefactor(self):
        # -0.0 passes the nonnegativity check, and its sign reaches eps_inc.
        params = fa.CostModelParams(_CALIBRATED.coh_x0, _CALIBRATED.coh_x1, -0.0, _CALIBRATED.inc_x1)
        bits = _loss_bits(3, (), 0, 0.0, None, (4.0e9, 4.3e9, 5.1e9), 4.45e9, params)
        assert bits == ['0x1.5aac2c76cb920p-5', '0x1.99954912f7c49p-6', '0x1.762cb3a8cd057p-9', '0x1.d9faf2cb0b7edp-7', '-0x0.0p+0', '-0x0.0p+0', '-0x0.0p+0', '0x1.99954912f7c40p-6', '0x1.762cb3a8cd000p-9', '0x1.d9faf2cb0b800p-7']

    @pytest.mark.parametrize("n", [2, 3])
    def test_optimize_repr(self, n):
        result = fa.optimize_frequencies(fa.FreqModule(n), params=_CALIBRATED, seed=0, restarts=2)
        assert hashlib.sha256(repr(result).encode()).hexdigest() == _OPTIMIZE_REPR_SHA256[n]


# A lifetime prefactor of -0.0 passes the nonnegativity check, and its sign
# reaches eps_inc.
_NEGATIVE_ZERO = fa.CostModelParams(_CALIBRATED.coh_x0, _CALIBRATED.coh_x1, -0.0, _CALIBRATED.inc_x1)


def _bits(values) -> np.ndarray:
    return np.asarray(values, dtype=float).view(np.int64)


class TestBatchedLoss:
    @pytest.mark.parametrize("batch", [1, 2, 16, 64, 1000])
    def test_each_row_has_its_one_row_bits(self, batch):
        """Rows of one losses() call equal cost() and gate_infidelities() on
        each point alone, over every fit, NaN and -0.0 included."""
        rng = np.random.default_rng(batch)
        seen_nan = False
        for params in (*_FITS, _NEGATIVE_ZERO) * 2:
            n, gates, k, delta_q, *_ = _bit_point(rng)
            points = []
            while len(points) < batch:
                m, *_, omega_q, omega_s = _bit_point(rng)
                if m == n:
                    points.append((*omega_q, omega_s))
            ev = fa._CostEvaluator(fa.FreqModule(n, gates), params, k, delta_q)
            w = np.array(points)
            with np.errstate(divide="ignore", invalid="ignore"):
                cost, *eps = ev.losses(w)
                for b, row in enumerate(w):
                    assert _bits(cost[b]) == _bits(ev.cost(row[:n], row[n]))
                    one = ev.gate_infidelities(row[:n], row[n])
                    assert all((_bits(e[:, b]) == _bits(o)).all() for e, o in zip(eps, one))
            seen_nan |= bool(np.isnan(cost).any())
        assert seen_nan or batch < 16


_NARROW = fa.FrequencyBounds(qubit=(4.0e9, 4.6e9), snail=(4.2e9, 4.4e9))


class TestLockstepNelderMead:
    """nelder_mead against one scipy.optimize.minimize call per start."""

    @pytest.mark.parametrize("n, seed, k, delta_q, gates, bounds, starts", [
        *((n, seed, 0, fa.DEFAULT_DELTA_Q, (), fa.FrequencyBounds(), 3)
          for n in (2, 3, 4, 5) for seed in (0, 1, 2)),
        (4, 3, 2, fa.DEFAULT_DELTA_Q, (), fa.FrequencyBounds(), 4),
        (3, 4, 0, 0.0, (), fa.FrequencyBounds(), 4),
        (4, 5, 1, fa.DEFAULT_DELTA_Q, ((0, 1), (3, 2), (1, 2)), fa.FrequencyBounds(), 4),
        (4, 6, 0, fa.DEFAULT_DELTA_Q, (), _NARROW, 4),
        (3, 7, 0, fa.DEFAULT_DELTA_Q, (), fa.FrequencyBounds(), 1),
    ])
    def test_every_start_matches_scipy(self, params, n, seed, k, delta_q, gates, bounds, starts):
        ev = fa._CostEvaluator(fa.FreqModule(n, gates), params, k, delta_q)
        lo = np.array([bounds.qubit[0]] * n + [bounds.snail[0]]) / fa.GHZ
        hi = np.array([bounds.qubit[1]] * n + [bounds.snail[1]]) / fa.GHZ
        rng = np.random.default_rng(seed)
        # Inside the box, and past it by up to a tenth of its width.
        x0 = lo + (hi - lo) * rng.uniform(-0.1, 1.1, (starts, n + 1))
        edge = rng.integers(n + 1)
        x0[0, edge] = hi[edge]  # its simplex steps past hi and is reflected

        def cost(x):
            x = x * fa.GHZ
            return ev.cost(x[:n], x[n])

        xs, funs = fa.nelder_mead(lambda x: ev.losses(x * fa.GHZ)[0], x0, lo, hi)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", scipy.optimize.OptimizeWarning)  # a start off the box
            for start, x, fun in zip(x0, xs, funs):
                want = scipy_nelder_mead(cost, start, lo, hi)
                assert (_bits(x) == _bits(want.x)).all() and _bits(fun) == _bits(want.fun)

    @pytest.mark.parametrize("maxiter", [1, 2, 40])
    def test_iterations_stop_at_maxiter(self, params, monkeypatch, maxiter):
        """Both read NM_MAX_ITER; a lowered cap stops every start early."""
        monkeypatch.setattr(fa, "NM_MAX_ITER", maxiter)
        ev = fa._CostEvaluator(fa.FreqModule(3), params, 0, fa.DEFAULT_DELTA_Q)
        lo, hi = np.array([3.3, 3.3, 3.3, 4.2]), np.array([5.7, 5.7, 5.7, 4.7])
        starts = np.array([[3.5, 4.4, 5.5, 4.3], [4.0, 4.1, 5.0, 4.6]])
        xs, funs = fa.nelder_mead(lambda x: ev.losses(x * fa.GHZ)[0], starts, lo, hi)
        for start, x, fun in zip(starts, xs, funs):
            want = scipy_nelder_mead(lambda v: ev.cost(v[:3] * fa.GHZ, v[3] * fa.GHZ), start, lo, hi)
            assert want.nit == maxiter
            assert (_bits(x) == _bits(want.x)).all() and _bits(fun) == _bits(want.fun)

    @pytest.mark.parametrize("n, seed, k, delta_q, bounds, restarts", [
        (2, 9, 0, fa.DEFAULT_DELTA_Q, fa.FrequencyBounds(), 1),
        (3, 10, 1, 0.0, fa.FrequencyBounds(), 3),
        (4, 11, 0, fa.DEFAULT_DELTA_Q, _NARROW, 2),
    ])
    def test_optimize_matches_scipy_restarts(self, params, n, seed, k, delta_q, bounds, restarts):
        """Restarts and the incumbent polish, end to end."""
        module = fa.FreqModule(n)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # a narrow band is infeasible
            assign, _ = fa.optimize_frequencies(module, bounds, params, k, delta_q, seed, restarts)
        want = reference_optimize(module, bounds, params, k, delta_q, seed, restarts)
        assert [v.hex() for v in (*assign.omega_q, assign.omega_s)] == [v.hex() for v in (*want[0], want[1])]


class TestOptimizer:
    def test_deterministic(self, params):
        a1, r1 = fa.optimize_frequencies(fa.FreqModule(3), params=params, seed=5)
        a2, r2 = fa.optimize_frequencies(fa.FreqModule(3), params=params, seed=5)
        assert a1.omega_q == a2.omega_q and a1.omega_s == a2.omega_s
        assert r1.eps_gate == r2.eps_gate

    def test_bounds_respected(self, params):
        assign, _ = fa.optimize_frequencies(fa.FreqModule(4), params=params, seed=2)
        for w in assign.omega_q:
            assert fa.DEFAULT_QUBIT_BAND[0] <= w <= fa.DEFAULT_QUBIT_BAND[1]
        assert fa.DEFAULT_SNAIL_BAND[0] <= assign.omega_s <= fa.DEFAULT_SNAIL_BAND[1]

    def test_two_qubit_module_hits_reference_window(self, params):
        _, report = fa.optimize_frequencies(fa.FreqModule(2), params=params, seed=0)
        assert report.geometric_mean_fidelity == pytest.approx(0.996, abs=0.005)

    def test_infeasible_bounds_flagged(self, params):
        bounds = fa.FrequencyBounds(qubit=(4.0e9, 4.3e9), snail=(4.2e9, 4.7e9))
        with pytest.warns(UserWarning, match="best effort"):
            _, report = fa.optimize_frequencies(
                fa.FreqModule(4), bounds, params, delta_q=200e6, seed=0, restarts=4
            )
        assert not report.feasible


# All-pairs modules and each Table-3 edge set, allocated as a module.
ROUND_TRIP_MODULES = [*(fa.FreqModule(n) for n in range(2, 6)),
                      *(fa.FreqModule(s.qubits_per_module, s.edges_per_module) for s in TABLE3_MODULES.values())]


class TestFidelityTable:
    def _report(self, params):
        module = fa.FreqModule(3)
        assign = fa.FrequencyAssignment((3.5e9, 4.3e9, 5.4e9), 4.5e9)
        return fa.build_report(assign, module, params)

    def test_edge_fidelity_is_one_minus_eps(self, params):
        report = self._report(params)
        spec = fa.fidelity_table(report)
        assert spec.edges_per_module == report.gates == fa.FreqModule(3).gates
        assert spec.edge_fidelities == tuple(1 - e for e in report.eps_gate)

    def test_worst_gate_is_worst_edge(self, params):
        report = self._report(params)
        spec = fa.fidelity_table(report)
        assert min(spec.edge_fidelities) == pytest.approx(1 - max(report.eps_gate))

    def test_drop_worst_removes_edges(self, params):
        report = self._report(params)
        spec = fa.fidelity_table(report, drop_worst=1)
        worst = int(np.argmax(report.eps_gate))
        kept = [g for g in range(3) if g != worst]
        assert spec.edges_per_module == tuple(report.gates[g] for g in kept)
        assert spec.edge_fidelities == tuple(1 - report.eps_gate[g] for g in kept)

    def test_a_saturated_gate_reads_back_at_the_floor(self, params):
        """Two of three gates saturate at eps_gate 1: their edges load at
        FIDELITY_FLOOR, and the third keeps its bits."""
        report = fa.build_report(fa.FrequencyAssignment((4.5e9, 5.6e9, 3.6e9), 4.7e9), fa.FreqModule(3), params)
        assert report.eps_gate[:2] == (1.0, 1.0) and report.eps_gate[2] < 1.0
        cmap = load_topology(json.loads(json.dumps(fa.fidelity_table(report).to_fixture())))
        floored = (FIDELITY_FLOOR, FIDELITY_FLOOR, 1.0 - report.eps_gate[2])
        assert all(cmap.fidelity[gate] == c for gate, c in zip(report.gates, floored))

    @settings(max_examples=100, deadline=None)
    @given(module=st.sampled_from(ROUND_TRIP_MODULES), seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_each_kept_gate_reads_back_on_its_own_edge(self, params, module, seed, data):
        """build_report -> fidelity_table -> fixture -> JSON -> load_topology:
        each kept gate's edge carries exactly that gate's 1 - eps_gate, both
        ways round, and the dropped gates are the k of largest eps_gate (ties
        broken by gate pair).  A kept gate of eps_gate 1 reads back as
        FIDELITY_FLOOR, the fidelity its edge routes by."""
        rng = np.random.default_rng(seed)
        assign = fa.FrequencyAssignment(tuple(rng.uniform(*fa.DEFAULT_QUBIT_BAND, module.num_qubits)),
                                        float(rng.uniform(*fa.DEFAULT_SNAIL_BAND)))
        report = fa.build_report(assign, module, params)
        k = data.draw(st.integers(0, min(1, len(module.gates) - 1)))
        fixture = json.loads(json.dumps(fa.fidelity_table(report, drop_worst=k).to_fixture()))
        ranked = {gate: (eps, gate) for gate, eps in zip(report.gates, report.eps_gate)}
        kept = [tuple(edge) for edge in fixture["module"]["edges"]]
        dropped = set(report.gates) - set(kept)
        assert len(kept) == len(report.gates) - k and len(dropped) == k
        assert all(ranked[d] > ranked[g] for d in dropped for g in kept)
        fidelity = {gate: max(1.0 - eps, FIDELITY_FLOOR) for gate, eps in zip(report.gates, report.eps_gate)}
        cmap = load_topology(fixture)
        assert len(cmap.edges) == len(kept)
        for a, b in kept:
            assert cmap.fidelity[a, b] == fidelity[a, b] and cmap.fidelity[b, a] == fidelity[a, b]

    @pytest.mark.parametrize("drop_worst", [3, -1])
    def test_drop_worst_must_leave_a_gate(self, params, drop_worst):
        with pytest.raises(fa.AllocationError, match=f"worst-gate exclusion k.*{drop_worst}"):
            fa.fidelity_table(self._report(params), drop_worst=drop_worst)

    def test_empty_module_rejected(self):
        empty = fa.GateInfidelityReport((), (), (), (), 1.0, float("inf"), float("inf"), True)
        with pytest.raises(ValueError):
            fa.fidelity_table(empty)


@pytest.mark.parametrize("call", [
    lambda: fa.PhysicalConstants(t1=0.0),
    lambda: fa.PhysicalConstants(t1=math.nan),
    lambda: fa.PhysicalConstants(g3=math.inf),
    lambda: fa.PhysicalConstants(lam=0.5),
    lambda: fa.FreqModule(1),
    lambda: fa.FreqModule(2, gates=((0, 2),)),
    lambda: fa.FreqModule(2, gates=((0, 1), (1, 0))),
    lambda: fa.FreqModule(3, gates=((True, 2),)),
    lambda: fa.golomb_frequencies(1),
    lambda: fa.PhysicalConstants(t1=True),
    lambda: fa.PhysicalConstants(eps_drive="1"),
    lambda: fa.CostModelParams(True, 0.0, 0.0, 0.0),
    lambda: fa.CostModelParams(0.0, 0.0, 0.0, None),
    lambda: fa.FreqModule(3, gates=((0, 1.5),)),
    lambda: fa.FreqModule(3, gates=((0, np.True_),)),
    lambda: fa._CostEvaluator(fa.FreqModule(2), _CALIBRATED, 0, True),
    lambda: fa.optimize_frequencies(fa.FreqModule(2), params=_CALIBRATED, seed=-1),
    lambda: fa.iswap_gate_time(0, 1.0, 1.0, 0.1),
    lambda: fa.max_pump_eta(0.0, fa.PhysicalConstants()),
    lambda: fa.CostModelParams(-1.0, 0.0, 0.0, 0.0),
    lambda: fa.CostModelParams(math.nan, 0.0, 0.0, 0.0),
    lambda: fa.CostModelParams(0.0, 0.0, math.inf, 0.0),
    lambda: fa._CostEvaluator(fa.FreqModule(2), _CALIBRATED, 0, math.nan),
    lambda: fa._CostEvaluator(fa.FreqModule(2), _CALIBRATED, 0, -1.0),
    lambda: fa.allocation_cost(fa.FrequencyAssignment((4e9, math.nan), 4.4e9), fa.FreqModule(2), _CALIBRATED),
    lambda: fa.allocation_cost(fa.FrequencyAssignment((4e9, 5e9), -4.4e9), fa.FreqModule(2), _CALIBRATED),
    lambda: fa.FrequencyBounds(qubit=(-1e9, 4e9)),
    lambda: fa.optimize_frequencies(fa.FreqModule(2), params=_CALIBRATED, restarts=0),
    lambda: fa.optimize_frequencies(fa.FreqModule(2), params=_CALIBRATED, restarts=-3),
    lambda: fa.FrequencyBounds(qubit=(5e9, 4e9)),
    lambda: fa.pump_strength(4.5e9, 4.5e9, 1.0),
])
def test_bad_inputs_raise_the_typed_error(call):
    with pytest.raises(fa.AllocationError):
        call()


@pytest.mark.parametrize("call, value", [
    (lambda: fa.optimize_frequencies(fa.FreqModule(2), params=_CALIBRATED, restarts=2.5), 2.5),
    (lambda: fa.optimize_frequencies(fa.FreqModule(2), params=_CALIBRATED, restarts=True), True),
    (lambda: fa.restart_count(np.float64(4.0)), np.float64(4.0)),
    (lambda: fa.FreqModule(3.0), 3.0),
    (lambda: fa.FreqModule(True), True),
    (lambda: fa.worst_gate_exclusion(True, [fa.FreqModule(3)]), True),
    (lambda: fa.worst_gate_exclusion(1.0, [fa.FreqModule(3)]), 1.0),
    (lambda: fa.golomb_frequencies(3.0), 3.0),
    (lambda: fa.golomb_frequencies(True), True),
])
def test_a_count_must_be_an_integer(call, value):
    """Restarts, qubit counts, exclusion counts and Golomb orders refuse a bool
    or a non-integer before they use it, naming the value."""
    with pytest.raises(fa.AllocationError, match=rf"must be an integer >= \d, not {re.escape(repr(value))}$"):
        call()


@pytest.mark.parametrize("gates, message", [
    (((0, 1), (1, 0)), r"\(1,0\) at position 1"),
    (((0, 1), (True, 2)), r"\(True,2\) at position 1"),
])
def test_bad_gate_pair_names_its_position(gates, message):
    with pytest.raises(fa.AllocationError, match=message):
        fa.FreqModule(3, gates)


@pytest.mark.parametrize("omega_q", [(4.0e9, 4.5e9), (4.0e9, 4.5e9, 5.0e9, 5.5e9)])
def test_frequency_count_must_match_the_module(omega_q):
    assign = fa.FrequencyAssignment(omega_q, 4.4e9)
    for call in (fa.allocation_cost, fa.build_report):
        with pytest.raises(fa.AllocationError, match=f"{len(omega_q)} qubit frequencies for a 3-qubit"):
            call(assign, fa.FreqModule(3), _CALIBRATED)
