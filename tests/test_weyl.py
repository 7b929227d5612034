from functools import lru_cache
from math import pi

import numpy as np
import pytest

from finesse import gates, weyl
from finesse.ir import CircuitDag, Gate
from finesse.router import RouterConfig, run_trials
from finesse.weyl import (
    BasisError,
    BasisGate,
    NonUnitaryError,
    UnreachableError,
    basis_gate_count,
    gate_count,
    gate_unitary,
    swap_count,
    weyl_coordinates,
)
from oracles import (
    CoverageOracle,
    canonical_gate,
    coupling_map,
    haar_su2,
    haar_su4,
    same_local_class,
)

SQISWAP = BasisGate.root_iswap(2)
ISWAP_B = BasisGate("iswap")
CX_B = BasisGate("cx")


class TestCoordinates:
    def test_identity(self):
        assert weyl_coordinates(np.eye(4)) == pytest.approx((0, 0, 0), abs=1e-10)

    def test_cx(self):
        assert weyl_coordinates(gates.CX) == pytest.approx((pi / 4, 0, 0), abs=1e-10)

    def test_swap(self):
        assert weyl_coordinates(gates.SWAP) == pytest.approx((pi / 4,) * 3, abs=1e-10)

    def test_iswap_and_root(self):
        assert weyl_coordinates(gates.ISWAP) == pytest.approx((pi / 4, pi / 4, 0), abs=1e-10)
        assert weyl_coordinates(gates.root_iswap(2)) == pytest.approx(
            (pi / 8, pi / 8, 0), abs=1e-10
        )

    def test_non_unitary_rejected(self):
        with pytest.raises(NonUnitaryError):
            weyl_coordinates(np.ones((4, 4)))

    def test_local_invariance_thousand_trials(self):
        rng = np.random.default_rng(71)
        for _ in range(1000):
            u = haar_su4(rng)
            c0 = weyl_coordinates(u)
            dressed = np.kron(haar_su2(rng), haar_su2(rng)) @ u @ np.kron(
                haar_su2(rng), haar_su2(rng)
            )
            assert weyl_coordinates(dressed) == pytest.approx(c0, abs=1e-8)

    def test_coordinates_label_the_class(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            u = haar_su4(rng)
            c = weyl_coordinates(u)
            assert same_local_class(u, canonical_gate(c))

    def test_chamber_constraints(self):
        rng = np.random.default_rng(6)
        for _ in range(300):
            c1, c2, c3 = weyl_coordinates(haar_su4(rng))
            assert pi / 4 + 1e-9 >= c1 >= c2 >= abs(c3) - 1e-12
            if abs(c1 - pi / 4) < 1e-9:
                assert c3 >= -1e-9


def _mirrored(kind, matrix=None):
    """The matrix of a mirrored 2q gate, SWAP folded in."""
    return gate_unitary(Gate(id=0, kind=kind, wires=(0, 1), matrix=matrix, mirrored=True))


class TestMirror:
    def test_mirror_of_swap_is_identity_class(self):
        assert weyl_coordinates(_mirrored("swap")) == pytest.approx((0, 0, 0), abs=1e-10)

    def test_involution(self):
        rng = np.random.default_rng(8)
        u = haar_su4(rng)
        assert np.allclose(_mirrored("unitary", u), gates.SWAP @ u)
        assert np.allclose(_mirrored("unitary", _mirrored("unitary", u)), u)

    def test_mirror_of_cx_is_iswap_class(self):
        assert weyl_coordinates(_mirrored("cx")) == pytest.approx(
            weyl_coordinates(gates.ISWAP), abs=1e-10
        )


class TestGateUnitary:
    def test_root_iswap_entries(self):
        m = gate_unitary(Gate(id=0, kind="root_iswap", wires=(0, 1), n=1))
        assert m[1, 2] == pytest.approx(1j)
        m2 = gate_unitary(Gate(id=0, kind="root_iswap", wires=(0, 1), n=2))
        assert m2[1, 1] == pytest.approx(np.sqrt(2) / 2)
        assert m2[1, 2] == pytest.approx(1j * np.sqrt(2) / 2)

    def test_large_order_approaches_identity(self):
        m = gate_unitary(Gate(id=0, kind="root_iswap", wires=(0, 1), n=10**6))
        assert np.max(np.abs(m - np.eye(4))) < 1e-5

    def test_one_qubit_rejected(self):
        with pytest.raises(ValueError):
            gate_unitary(Gate(id=0, kind="h", wires=(0,)))

    def test_mirrored_gate_folds_swap(self):
        g = Gate(id=0, kind="cx", wires=(0, 1), mirrored=True)
        assert np.allclose(gate_unitary(g), gates.SWAP @ gates.CX)

    def test_ecr_locally_equivalent_to_cx(self):
        assert weyl_coordinates(gates.ECR) == pytest.approx(
            weyl_coordinates(gates.CX), abs=1e-10
        )


class TestBasisNames:
    @pytest.mark.parametrize("name, expected", [
        ("cx", BasisGate("cx")), (" ECR ", BasisGate("ecr")), ("sqrt_iswap", SQISWAP),
        ("root_iswap_1", ISWAP_B), ("root_iswap_3", BasisGate("root_iswap", 3)),
    ])
    def test_names(self, name, expected):
        assert BasisGate.from_name(name) == expected

    @pytest.mark.parametrize("name, message", [
        ("bogus", "unknown basis gate 'bogus'"),
        ("root_iswap", "unknown basis gate 'root_iswap'"),
        ("root_iswap_x", "unknown basis gate 'root_iswap_x'"),
        ("root_iswap_-2", "unknown basis gate 'root_iswap_-2'"),
        ("root_iswap_0", "root_iswap order must be an integer >= 1, not 0"),
    ])
    def test_bad_name_is_a_basis_error(self, name, message):
        with pytest.raises(BasisError) as err:
            BasisGate.from_name(name)
        assert str(err.value) == message

    @pytest.mark.parametrize("kind, n, message", [
        ("bogus", 1, "unsupported basis kind 'bogus'"),
        ("root_iswap", 0, "root_iswap order must be an integer >= 1, not 0"),
        ("root_iswap", 2.5, "root_iswap order must be an integer >= 1, not 2.5"),
        ("root_iswap", True, "root_iswap order must be an integer >= 1, not True"),
    ])
    def test_bad_kind_or_order_is_a_basis_error(self, kind, n, message):
        with pytest.raises(BasisError) as err:
            BasisGate(kind, n)
        assert str(err.value) == message
        assert isinstance(err.value, ValueError)


class TestBasisCounts:
    def test_fixed_table_sqiswap(self):
        assert basis_gate_count(gates.CX, SQISWAP) == 2
        assert basis_gate_count(gates.SWAP, SQISWAP) == 3
        assert basis_gate_count(gates.ISWAP, SQISWAP) == 2
        assert basis_gate_count(gates.SWAP @ gates.CX, SQISWAP) == 2

    def test_fixed_table_iswap(self):
        assert basis_gate_count(gates.SWAP @ gates.CX, ISWAP_B) == 1

    def test_identity_and_self(self):
        for basis in (CX_B, ISWAP_B, SQISWAP, BasisGate("ecr")):
            assert basis_gate_count(np.eye(4), basis) == 0
            assert basis_gate_count(basis.unitary, basis) == 1

    def test_cx_basis_classics(self):
        assert basis_gate_count(gates.SWAP, CX_B) == 3
        assert basis_gate_count(gates.ISWAP, CX_B) == 2
        assert basis_gate_count(gates.CZ, CX_B) == 1

    def test_subadditive_under_composition(self):
        rng = np.random.default_rng(13)
        for _ in range(40):
            u, v = haar_su4(rng), haar_su4(rng)
            ku = basis_gate_count(u, SQISWAP)
            kv = basis_gate_count(v, SQISWAP)
            assert basis_gate_count(u @ v, SQISWAP) <= ku + kv

    def test_mirror_count_bounds(self):
        rng = np.random.default_rng(14)
        for _ in range(60):
            u = haar_su4(rng)
            k = basis_gate_count(u, SQISWAP)
            km = basis_gate_count(gates.SWAP @ u, SQISWAP)
            assert 0 <= k <= 3 and 0 <= km <= 3 and abs(k - km) <= 3

    def test_gate_count_uses_mirror_flag(self):
        g = Gate(id=0, kind="swap", wires=(0, 1))
        assert gate_count(g, SQISWAP) == 3
        gm = Gate(id=0, kind="swap", wires=(0, 1), mirrored=True)
        assert gate_count(gm, SQISWAP) == 0

    def test_swap_cost_per_basis(self):
        assert swap_count(SQISWAP) == 3
        assert swap_count(CX_B) == 3
        assert swap_count(ISWAP_B) == 3

    def test_deep_root_reachability(self):
        basis = BasisGate.root_iswap(4)
        assert basis_gate_count(basis.unitary, basis) == 1
        prod = basis.unitary @ basis.unitary
        assert basis_gate_count(prod, basis) == 2

    @pytest.mark.parametrize("kind, n", [("cx", 1), ("iswap", 1), ("root_iswap", 2), ("root_iswap", 3)])
    def test_basis_coordinates_computed_once(self, monkeypatch, kind, n):
        # One Weyl decomposition per target, plus one for the basis itself.
        calls = []

        def counting(u):
            calls.append(1)
            return weyl_coordinates(u)

        monkeypatch.setattr(weyl, "weyl_coordinates", counting)
        basis = BasisGate(kind, n)
        rng = np.random.default_rng(7)
        targets = [np.eye(4), basis.unitary, gates.CX]
        targets += [canonical_gate(rng.uniform(0, pi / 12, 3)) for _ in range(4)]
        for u in targets:
            basis_gate_count(u, basis)
        assert len(calls) == len(targets) + 1


    def test_routing_decomposes_each_unitary_once(self, monkeypatch):
        # The scorer, the mirror decision and lf_cost all ask for counts; each
        # distinct (matrix, mirrored) costs one Weyl decomposition, as do the
        # plain and mirrored swap, plus one for the basis.
        calls = []

        def counting(u):
            calls.append(1)
            return weyl_coordinates(u)

        monkeypatch.setattr(weyl, "weyl_coordinates", counting)
        weyl._count.cache_clear()
        rng = np.random.default_rng(21)
        mats = [haar_su4(rng) for _ in range(5)]
        wires = [tuple(int(w) for w in rng.choice(4, 2, replace=False)) for _ in range(30)]
        dag = CircuitDag(4, [
            Gate(id=i, kind="unitary", wires=ws, matrix=mats[i % len(mats)]) for i, ws in enumerate(wires)
        ])
        cmap = coupling_map(4, [(0, 1), (1, 2), (2, 3)], [0.99, 0.98, 0.97])
        config = RouterConfig(algorithm="finesse", aggression=3, num_seeds=3, basis=BasisGate.root_iswap(2))
        results = run_trials(dag, cmap, config)
        assert any(g.mirrored for r in results for g in r.circuit.gates if g.kind == "unitary")
        assert len(calls) <= 2 * len(mats) + 2 + 1
        for m in mats:
            for mirrored in (False, True):
                g = Gate(id=0, kind="unitary", wires=(0, 1), matrix=m, mirrored=mirrored)
                assert gate_count(g, SQISWAP) == basis_gate_count(gates.SWAP @ m if mirrored else m, SQISWAP)


@lru_cache(maxsize=None)
def _coverage_oracle(n):
    return CoverageOracle(gates.root_iswap(n), seed=n, samples=1500)


def _oracle_count(n, u):
    """Oracle count for root_iswap(n), None where three uses do not suffice."""
    try:
        return _coverage_oracle(n).count(u)
    except ValueError:
        return None


def _library_count(n, u):
    try:
        return basis_gate_count(u, BasisGate.root_iswap(n))
    except UnreachableError:
        return None


# Vertices of the three-use region of root_iswap(n), in units of pi/(4n).
_THREE_USE_VERTICES = np.array(
    [(0, 0, 0), (2, 0, 0), (2, 2, 2), (2, 2, -2), (3, 1, 0), (3, 2, 1), (3, 2, -1), (3, 3, 0)],
    dtype=float,
)
# Its facets off the chamber walls: w . c <= bound, in the same units.
_THREE_USE_FACETS = (((1, 0, 0), 3), ((1, 1, 1), 6), ((1, 1, -1), 6), ((-1, 1, 1), 2))


class TestDeepRootCoverage:
    """Exact root_iswap regions checked against the sampled-reachability oracle."""

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_powers_of_the_basis(self, n):
        b = gates.root_iswap(n)
        for j in (1, 2, 3):
            u = np.linalg.matrix_power(b, j)
            assert _library_count(n, u) == _oracle_count(n, u) == j

    @pytest.mark.parametrize("n,expected", [(3, 3), (4, None)])
    def test_cx_cz_iswap(self, n, expected):
        for u in (gates.CX, gates.CZ, gates.ISWAP):
            assert _library_count(n, u) == _oracle_count(n, u) == expected

    def test_swap_needs_more_than_three_third_roots(self):
        with pytest.raises(UnreachableError) as err:
            swap_count(BasisGate.root_iswap(3))
        # Plain floats, not numpy scalar reprs.
        assert str(err.value) == (
            "target (0.785398, 0.785398, 0.785398) unreachable in <=3 uses of root_iswap_3"
        )

    @pytest.mark.parametrize("n", [3, 4])
    def test_three_use_facets_both_sides(self, n):
        t = pi / (4 * n)
        oracle = _coverage_oracle(n)
        for w, bound in _THREE_USE_FACETS:
            w = np.array(w, dtype=float)
            on_facet = _THREE_USE_VERTICES[np.abs(_THREE_USE_VERTICES @ w - bound) < 1e-9]
            centre = on_facet.mean(axis=0)
            step = 0.03 * w / (w @ w)
            for point, inside in ((centre - step, True), (centre + step, False)):
                c = point * t
                if c[0] > pi / 4:  # beyond the chamber: not a distinct class
                    continue
                u = canonical_gate(c)
                assert oracle.reaches(u, 3) is inside
                assert _library_count(n, u) == (3 if inside else None)

    def test_near_vertices_reached(self):
        n = 3
        t = pi / (4 * n)
        centre = _THREE_USE_VERTICES.mean(axis=0)
        for v in _THREE_USE_VERTICES:
            u = canonical_gate((0.97 * v + 0.03 * centre) * t)
            assert _library_count(n, u) == _oracle_count(n, u)

    @pytest.mark.parametrize("n,samples", [(3, 3), (4, 2)])
    def test_haar_targets(self, n, samples):
        rng = np.random.default_rng(40 + n)
        for _ in range(samples):
            u = haar_su4(rng)
            assert _library_count(n, u) == _oracle_count(n, u)
