import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from finesse import freqalloc as fa
from oracles import (
    factorized_spectator_infidelity,
    reference_allocation_loss,
    reference_resonances,
)


@pytest.fixture(scope="module")
def params():
    return fa.calibrate_cost_model()


class TestGolomb:
    def test_p3_marks(self):
        assert fa.golomb_frequencies(3, 1.0, 0.0) == [0.0, 7.0, 13.0]

    def test_p2_marks_follow_construction(self):
        # 2*p*k + k^2 mod p at p=2, k=1 gives 4 + 1
        assert fa.golomb_frequencies(2, 1.0, 0.0) == [0.0, 5.0]

    def test_p5_all_differences_distinct(self):
        marks = fa.golomb_frequencies(5, 1e6, 3.3e9)
        diffs = [abs(a - b) for i, a in enumerate(marks) for b in marks[i + 1 :]]
        assert len(diffs) == 10 and len(set(diffs)) == 10

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
    def test_prime_rulers_distinct(self, p):
        marks = fa.golomb_frequencies(p, 1.0, 0.0)
        diffs = [abs(a - b) for i, a in enumerate(marks) for b in marks[i + 1 :]]
        assert len(set(diffs)) == p * (p - 1) // 2

    def test_composite_warns(self):
        with pytest.warns(UserWarning, match="composite"):
            fa.golomb_frequencies(4, 1.0, 0.0)


class TestSpectatorCatalog:
    def test_two_qubit_module_includes_snail_subharmonic(self):
        assign = fa.FrequencyAssignment((4.0e9, 4.5e9), 4.4e9)
        entries = fa.spectator_frequencies(assign, (0, 1))
        assert (4.4e9 / 2, 100.0) in entries

    def test_includes_snail_qubit_conversion(self):
        assign = fa.FrequencyAssignment((4.0e9, 4.5e9), 4.4e9)
        entries = fa.spectator_frequencies(assign, (0, 1))
        assert (abs(4.4e9 - 4.0e9), 10.0) in entries

    def test_other_pair_conversion_present_with_driven_prefactor(self):
        assign = fa.FrequencyAssignment((3.5e9, 3.8e9, 4.6e9, 5.2e9), 4.4e9)
        entries = fa.spectator_frequencies(assign, (0, 1))
        assert (abs(5.2e9 - 4.6e9), 1.0) in entries

    def test_driven_term_excluded(self):
        assign = fa.FrequencyAssignment((4.0e9, 4.5e9), 4.4e9)
        entries = fa.spectator_frequencies(assign, (0, 1))
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
            got = term.frequencies(omega_q, omega_s)
            assert got == reference_resonances(term.rule, omega_q, omega_s)

    @pytest.mark.parametrize(
        "term", [t for t in fa.SPECTATOR_CATALOG if t.category == "inter_module"], ids=lambda t: t.rule
    )
    def test_inter_module_rule_needs_neighbors(self, term):
        with pytest.raises(ValueError, match="neighbor frequencies"):
            term.frequencies((4.0e9, 4.5e9), 4.4e9)


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
        c = fa.PhysicalConstants()
        for delta in (2e8, 5e8, 2e9):
            amp = 2 * c.drive_rate / (fa.TWO_PI * delta)
            assert fa.bounded_spectator_infidelity(delta, 1.0, c) == pytest.approx(
                factorized_spectator_infidelity(amp), abs=1e-12
            )

    def test_no_spectator_degenerate_fit(self):
        x0, x1 = fa.calibrate_coherent_model(0.0)
        assert x0 == 0.0

    def test_oracle_monotone_on_grid(self):
        c = fa.PhysicalConstants()
        grid = fa._default_coherent_grid(1.0, c)
        eps = [fa.bounded_spectator_infidelity(d, 1.0, c) for d in grid]
        assert all(a >= b for a, b in zip(eps, eps[1:]))

    def test_grid_must_span_two_decades(self):
        with pytest.raises(fa.CalibrationError):
            fa.calibrate_coherent_model(1.0, delta_grid=np.linspace(1e8, 5e8, 10))

    def test_dominant_category_crossing_in_anchor_window(self, params):
        crossing = params.coherent_crossing(10.0)
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
        with pytest.raises(fa.AllocationError, match=f"k={k}"):
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


class TestFidelityTable:
    def _report(self, params):
        module = fa.FreqModule(3)
        assign = fa.FrequencyAssignment((3.5e9, 4.3e9, 5.4e9), 4.5e9)
        return fa.build_report(assign, module, params)

    def test_edge_fidelity_is_one_minus_eps(self, params):
        report = self._report(params)
        spec = fa.fidelity_table(report)
        # A multiset: ModuleSpec re-pairs fidelities with edges itself.
        assert sorted(spec.edge_fidelities) == pytest.approx(
            sorted(1 - e for e in report.eps_gate)
        )
        assert sorted(spec.edges_per_module) == sorted(fa.FreqModule(3).gates)

    def test_worst_gate_is_worst_edge(self, params):
        report = self._report(params)
        spec = fa.fidelity_table(report)
        assert min(spec.edge_fidelities) == pytest.approx(1 - max(report.eps_gate))

    def test_drop_worst_removes_edges(self, params):
        report = self._report(params)
        spec = fa.fidelity_table(report, drop_worst=1)
        assert len(spec.edge_fidelities) == 2
        assert min(spec.edge_fidelities) == pytest.approx(sorted(1 - e for e in report.eps_gate)[1])

    @pytest.mark.parametrize("drop_worst", [3, -1])
    def test_drop_worst_must_leave_a_gate(self, params, drop_worst):
        with pytest.raises(fa.AllocationError, match=f"k={drop_worst}"):
            fa.fidelity_table(self._report(params), drop_worst=drop_worst)

    def test_empty_module_rejected(self):
        empty = fa.GateInfidelityReport((), (), (), (), 1.0, float("inf"), float("inf"), True)
        with pytest.raises(ValueError):
            fa.fidelity_table(empty)


@pytest.mark.parametrize("call", [
    lambda: fa.PhysicalConstants(t1=0.0),
    lambda: fa.PhysicalConstants(lam=0.5),
    lambda: fa.FreqModule(1),
    lambda: fa.FreqModule(2, gates=((0, 2),)),
    lambda: fa.golomb_frequencies(1, 1.0, 0.0),
    lambda: fa.golomb_frequencies(3, 0.0, 0.0),
    lambda: fa.iswap_gate_time(0, 1.0, 1.0, 0.1),
    lambda: fa.max_pump_eta(0.0, fa.PhysicalConstants()),
    lambda: fa.CostModelParams(-1.0, 0.0, 0.0, 0.0),
    lambda: fa.FrequencyBounds(qubit=(5e9, 4e9)),
    lambda: fa.pump_strength(4.5e9, 4.5e9, 1.0),
])
def test_bad_inputs_raise_the_typed_error(call):
    with pytest.raises(fa.AllocationError):
        call()
