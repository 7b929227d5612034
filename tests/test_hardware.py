import hashlib
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from finesse import cli, freqalloc as fa, hardware, router
from finesse.hardware import (
    DISTANCE_SET_BYTES,
    CouplingMap,
    ModuleSpec,
    TABLE3_MODULES,
    TopologyError,
    blended_distances,
    build_distance_set,
    build_snail_fabric,
    fabric_suite,
    fidelity_distances,
    hop_distances,
    load_topology,
)
from finesse.ir import CircuitDag, Gate, Layout
from finesse.weyl import BasisGate, swap_count
from oracles import (
    brute_force_fidelity_distance,
    coupling_map,
    csgraph_fidelity_distances,
    csgraph_hop_distances,
    edge_log_weights,
    random_connected_map,
    reference_calibration,
    reference_fixture,
    relaxed_distances,
)


def triangle(l01=0.01, l12=0.01, l02=0.05):
    fid = [math.exp(-l01), math.exp(-l12), math.exp(-l02)]
    return coupling_map(3, [(0, 1), (1, 2), (0, 2)], fid)


class TestCouplingMap:
    def test_rejects_self_loop(self):
        with pytest.raises(TopologyError):
            coupling_map(2, [(0, 0)], [0.9])

    def test_rejects_duplicate_edges(self):
        with pytest.raises(TopologyError):
            coupling_map(2, [(0, 1), (1, 0)], [0.9, 0.8])

    def test_rejects_disconnected(self):
        with pytest.raises(TopologyError):
            coupling_map(4, [(0, 1), (2, 3)], [0.9, 0.9])

    @pytest.mark.parametrize("n, pairs, missing", [
        (5, [(0, 1), (1, 2), (3, 4)], 3),
        (3, [(1, 2)], 1),
        (6, [(0, 4), (4, 5), (1, 2), (2, 3)], 1),
        (2, [], 1),
    ])
    def test_a_disconnected_map_names_a_qubit_it_cannot_reach(self, n, pairs, missing):
        """The refusal names the least qubit that no path joins to qubit 0."""
        message = f"coupling graph is disconnected: qubit {missing} is not reachable from qubit 0"
        with pytest.raises(TopologyError, match=f"^{message}$"):
            coupling_map(n, pairs, [0.9] * len(pairs))

    @pytest.mark.parametrize("n", [0, 1])
    def test_a_map_of_at_most_one_qubit_needs_no_edge(self, n):
        assert hop_distances(CouplingMap(n, ())).shape == (n, n)

    @pytest.mark.parametrize("num_physical", [True, 2.5, -1])
    def test_num_physical_must_be_a_nonnegative_integer(self, num_physical):
        with pytest.raises(TopologyError, match=f"num_physical must be an integer >= 0, not {num_physical!r}"):
            CouplingMap(num_physical, ())

    @pytest.mark.parametrize("edges, message", [
        (((0, 1.5, 0.9), (1, 2, 0.9)), r"an endpoint of edge \(0,1\.5\) must be an integer in 0\.\.2, not 1\.5"),
        (((0, 1, True), (1, 2, 0.9)), r"the fidelity on \(0,1\) must be a finite real > 0, not True"),
    ], ids=["float-endpoint", "bool-fidelity"])
    def test_an_edge_needs_integer_endpoints_and_a_real_fidelity(self, edges, message):
        """A float endpoint was taken (its fidelity keyed (0, 1.5) while its
        edge pair read (0, 1), and routing on the map never returned), and a
        bool fidelity was read as 1."""
        with pytest.raises(TopologyError, match=f"^{message}$"):
            CouplingMap(3, edges)

    def test_rejects_bad_fidelity(self):
        with pytest.raises(TopologyError):
            coupling_map(2, [(0, 1)], [0.0])
        with pytest.raises(TopologyError):
            coupling_map(2, [(0, 1)], [1.2])


class TestLogWeights:
    def test_perfect_gate_zero_weight(self):
        w = coupling_map(2, [(0, 1)], [1.0]).log_weight
        assert w[0, 1] == w[1, 0] == 0.0

    def test_against_high_precision_reference(self):
        import mpmath

        w = coupling_map(2, [(0, 1)], [0.996]).log_weight
        expected = float(-mpmath.log(mpmath.mpf("0.996")))
        assert w[0, 1] == pytest.approx(expected, abs=1e-15)
        assert w[0, 1] == pytest.approx(0.004008021397538, abs=1e-12)

    def test_floor_clamp(self):
        # fidelity 0 is rejected by the map, but the weight law still clamps
        from finesse.hardware import FIDELITY_FLOOR

        w = coupling_map(2, [(0, 1)], [1e-12]).log_weight
        assert w[0, 1] == pytest.approx(-math.log(FIDELITY_FLOOR))

    @given(st.floats(min_value=0.5, max_value=1.0), st.floats(min_value=0.5, max_value=1.0))
    def test_antitone(self, ca, cb):
        wa = coupling_map(2, [(0, 1)], [ca]).log_weight[0, 1]
        wb = coupling_map(2, [(0, 1)], [cb]).log_weight[0, 1]
        if ca >= cb:
            assert wa <= wb


class TestEdgeTables:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_tables_equal_a_construction_from_the_edge_list(self, seed):
        cmap = random_connected_map(np.random.default_rng(seed))
        n = cmap.num_physical
        pairs = sorted((min(i, j), max(i, j)) for i, j, _ in cmap.edges)
        moves = []
        for a, b in pairs:
            row = list(range(n))
            row[a], row[b] = b, a
            moves.append(row)
        assert cmap.edge_pairs.tolist() == [list(p) for p in pairs]
        assert cmap.edge_tuples == tuple(pairs)
        assert cmap.swap_moves.tolist() == moves
        assert cmap.log_weight == edge_log_weights(cmap)
        assert all(type(v) is float for v in cmap.log_weight.values())
        for table in (cmap.edge_pairs, cmap.swap_moves):
            assert table.dtype == np.intp
            with pytest.raises(ValueError, match="read-only"):
                table[0, 0] = 0
        for name in ("edge_pairs", "edge_tuples", "swap_moves", "log_weight"):
            assert getattr(cmap, name) is getattr(cmap, name)  # built once per map

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_incident_lists_the_edge_pairs_rows_on_each_qubit(self, seed):
        cmap = random_connected_map(np.random.default_rng(seed))
        pairs = cmap.edge_pairs.tolist()
        assert cmap.incident == tuple(tuple(e for e, pair in enumerate(pairs) if q in pair)
                                      for q in range(cmap.num_physical))
        assert cmap.incident is cmap.incident


class TestHopDistances:
    def test_path_graph(self):
        cmap = coupling_map(3, [(0, 1), (1, 2)], [0.9, 0.9])
        d = hop_distances(cmap)
        assert d[0][2] == 2

    def test_zero_diagonal(self):
        d = hop_distances(triangle())
        assert all(d[i][i] == 0 for i in range(3))

    def test_four_cycle(self):
        cmap = coupling_map(4, [(0, 1), (1, 2), (2, 3), (0, 3)], [0.9] * 4)
        assert hop_distances(cmap)[0][2] == 2

    def test_triangle_inequality(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            cmap = random_connected_map(rng)
            d = hop_distances(cmap)
            n = cmap.num_physical
            for i in range(n):
                for j in range(n):
                    for k in range(n):
                        assert d[i][j] <= d[i][k] + d[k][j]


class TestFidelityDistances:
    def test_triangle_detour_beats_direct(self):
        cmap = triangle()
        d = fidelity_distances(cmap, k_swap=3)
        assert d[0][2] == pytest.approx(3 * (0.01 + 0.01), rel=1e-9)

    def test_all_zero_weights(self):
        cmap = coupling_map(3, [(0, 1), (1, 2)], [1.0, 1.0])
        d = fidelity_distances(cmap, k_swap=3)
        assert np.all(d == 0.0)

    def test_single_edge(self):
        cmap = coupling_map(2, [(0, 1)], [math.exp(-0.004)])
        d = fidelity_distances(cmap, k_swap=3)
        assert d[0][1] == pytest.approx(0.012, rel=1e-9)

    def test_matches_exhaustive_path_minima(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            cmap = random_connected_map(rng, max_nodes=8)
            d = fidelity_distances(cmap, k_swap=3)
            n = cmap.num_physical
            i, j = rng.integers(0, n, size=2)
            expected = brute_force_fidelity_distance(cmap, 3, int(i), int(j))
            assert d[i][j] == pytest.approx(expected, rel=1e-9, abs=1e-12)

    def test_bits_equal_the_relaxed_fixpoint(self):
        """Exact equality: every path sum is rounded in the same order, so the
        order in which equal-cost paths are found cannot show."""
        rng = np.random.default_rng(21)
        maps = list(fabric_suite().values())
        maps += [random_connected_map(rng, max_nodes=10) for _ in range(60)]
        maps.append(coupling_map(4, [(0, 1), (1, 2), (2, 3), (0, 3)]))  # all weights zero
        for cmap in maps:
            hops = hop_distances(cmap)
            assert hops.dtype == np.int64
            assert np.array_equal(hops, relaxed_distances(cmap, lambda u, v: 1.0))
            w = edge_log_weights(cmap)
            for k in (1, 3):
                expected = relaxed_distances(cmap, lambda u, v: k * w[u, v])
                assert fidelity_distances(cmap, k).tobytes() == expected.tobytes()

    def test_bits_equal_scipy_csgraph(self):
        """Both matrices equal `scipy.sparse.csgraph`'s bit for bit, dtype
        included, on the Table-3 fabrics and on random connected maps, half of
        them with fidelities drawn from a few values, 1 (a zero weight)
        among them, so that equal-cost paths abound."""
        rng = np.random.default_rng(31)
        maps = list(fabric_suite().values())
        for i in range(120):
            cmap = random_connected_map(rng, max_nodes=24)
            if i % 2:
                fidelities = rng.choice([1.0, 0.995, 0.99, 0.98], size=len(cmap.edges))
                cmap = coupling_map(cmap.num_physical, [e[:2] for e in cmap.edges], fidelities.tolist())
            maps.append(cmap)
        for cmap in maps:
            hops = hop_distances(cmap)
            assert hops.dtype == np.int64 and hops.tobytes() == csgraph_hop_distances(cmap).tobytes()
            for k in (1, 2, 3, 7):
                assert fidelity_distances(cmap, k).tobytes() == csgraph_fidelity_distances(cmap, k).tobytes()

    def test_path_bound_property(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            cmap = random_connected_map(rng, max_nodes=6)
            w = edge_log_weights(cmap)
            d = fidelity_distances(cmap, 3)
            from oracles import all_simple_paths

            adj = {i: list(cmap.neighbors[i]) for i in range(cmap.num_physical)}
            for path in all_simple_paths(adj, 0, cmap.num_physical - 1):
                cost = sum(3 * w[a, b] for a, b in zip(path, path[1:]))
                assert d[0][cmap.num_physical - 1] <= cost + 1e-12


class TestBlended:
    def test_beta_zero_bitwise_equals_hop(self):
        cmap = triangle()
        d_hop = hop_distances(cmap)
        d_fid = fidelity_distances(cmap, 3)
        blend = blended_distances(d_hop, d_fid, 0.0)
        assert np.array_equal(blend, d_hop.astype(float))

    def test_arithmetic(self):
        blend = blended_distances(np.array([[0, 2]]), np.array([[0.0, 0.06]]), 1.0)
        assert blend[0][1] == pytest.approx(2.06)

    def test_beta_scales_fidelity_term_only(self):
        d_hop, d_fid = np.array([[0, 2]]), np.array([[0.0, 0.06]])
        b1 = blended_distances(d_hop, d_fid, 1.0)
        b2 = blended_distances(d_hop, d_fid, 2.0)
        assert b2[0][1] - d_hop[0][1] == pytest.approx(2 * (b1[0][1] - d_hop[0][1]))

    def test_shape_mismatch(self):
        with pytest.raises(TopologyError):
            blended_distances(np.zeros((2, 2)), np.zeros((3, 3)), 1.0)

    @pytest.mark.parametrize("beta", [math.nan, math.inf, -1.0])
    def test_beta_must_be_finite_and_nonnegative(self, beta):
        with pytest.raises(TopologyError, match=f"beta must be a finite real >= 0, not {beta}"):
            blended_distances(np.zeros((2, 2)), np.zeros((2, 2)), beta)


# sha256 of repr(fabric_suite()[name].edges): the fabrics every bench routes.
TABLE3_EDGE_DIGESTS = {
    "4q4e": "005f943f33ea9d661d9591f40bb1ed2098002f36b3bd18cce98b06dc659178ac",
    "4q5e": "5adc008e2ba1643276035ac550ef836d4a0c97e86485e1bd704d5fc60d1946d2",
    "4q6e": "abad0b19db15b8d1b822b9d817f0ac98c5479cf08413f39155cca3641dfeb50b",
    "5q7e": "c65446913c9219c37dcf5bbfbd3a15b2b358098546a58234fc551488694c4fb0",
}


class TestSnailFabric:
    def test_4q4e_single_module(self):
        cmap = build_snail_fabric(TABLE3_MODULES["4q4e"], 1)
        assert cmap.num_physical == 4 and len(cmap.edges) == 4
        assert sorted((c for _, _, c in cmap.edges), reverse=True) == [0.996, 0.995, 0.995, 0.994]

    def test_5q7e_worst_edge(self):
        cmap = build_snail_fabric(TABLE3_MODULES["5q7e"], 1)
        assert min(c for _, _, c in cmap.edges) == 0.960

    def test_two_modules_connected(self):
        cmap = build_snail_fabric(TABLE3_MODULES["4q4e"], 2)
        assert cmap.num_physical == 8
        hop_distances(cmap)  # raises if disconnected

    def test_deterministic(self):
        a = build_snail_fabric(TABLE3_MODULES["4q6e"], 3)
        b = build_snail_fabric(TABLE3_MODULES["4q6e"], 3)
        assert a.edges == b.edges

    def test_boundary_link_uses_worst_fidelity(self):
        spec = TABLE3_MODULES["4q5e"]
        cmap = build_snail_fabric(spec, 2)
        boundary = [c for i, j, c in cmap.edges if (i, j) == (3, 4)]
        assert boundary == [spec.worst_fidelity]

    def test_table3_sizes(self):
        for name, spec in TABLE3_MODULES.items():
            assert len(spec.edge_fidelities) == len(spec.edges_per_module)

    @pytest.mark.parametrize("name", sorted(TABLE3_EDGE_DIGESTS))
    def test_table3_fabric_edges_are_pinned(self, name):
        """Each edge tuple, fidelity and order, as the fabrics have always held
        them: the Table-3 modules pair fidelities with their edges in place."""
        edges = fabric_suite()[name].edges
        assert hashlib.sha256(repr(edges).encode()).hexdigest() == TABLE3_EDGE_DIGESTS[name]

    def test_each_fidelity_stays_on_its_own_edge(self):
        spec = ModuleSpec(3, ((1, 2), (0, 1)), (0.9, 0.99))
        assert build_snail_fabric(spec, 2).edges == (
            (1, 2, 0.9), (0, 1, 0.99), (2, 3, 0.9), (4, 5, 0.9), (3, 4, 0.99))

    def test_a_module_needs_an_edge(self):
        with pytest.raises(TopologyError, match="^a module needs at least one edge$"):
            build_snail_fabric(ModuleSpec(4, (), ()), 2)

    @pytest.mark.parametrize("name", sorted(TABLE3_MODULES))
    def test_load_topology_builds_only_the_named_fabric(self, name):
        with patch("finesse.hardware.build_snail_fabric", wraps=build_snail_fabric) as build:
            cmap = load_topology(name)
        assert build.call_count == 1
        assert cmap == fabric_suite()[name]
        # the fewest whole modules that hold the 15-qubit workloads
        assert cmap.num_physical == {"4q4e": 16, "4q5e": 16, "4q6e": 16, "5q7e": 15}[name]


class TestCalibrationImport:
    def test_error_to_fidelity(self):
        cmap = load_topology(
            {"format_version": 1, "edges": [{"i": 0, "j": 1, "error": 0.007}]}
        )
        assert cmap.fidelity[(0, 1)] == pytest.approx(0.993)

    def test_zero_error(self):
        cmap = load_topology({"edges": [{"i": 0, "j": 1, "error": 0.0}]})
        assert cmap.fidelity[(0, 1)] == 1.0

    def test_missing_entry_dropped_with_warning(self):
        payload = {
            "edges": [
                {"i": 0, "j": 1, "error": 0.01},
                {"i": 1, "j": 2, "error": None},
                {"i": 1, "j": 2, "error": 0.02},
            ]
        }
        with pytest.warns(UserWarning, match="dropped"):
            cmap = load_topology(payload)
        assert len(cmap.edges) == 2

    def test_disconnected_snapshot_rejected(self):
        with pytest.raises(TopologyError):
            load_topology(
                {"num_physical": 4, "edges": [{"i": 0, "j": 1, "error": 0.01}]}
            )

    def test_topology_fixture_roundtrip(self, tmp_path):
        payload = {
            "format_version": 1,
            "module": {"qubits": 4, "edges": [[0, 1], [1, 2], [2, 3], [0, 3]],
                       "fidelities": [0.996, 0.995, 0.995, 0.994]},
            "num_modules": 2,
        }
        path = tmp_path / "topo.json"
        path.write_text(json.dumps(payload))
        cmap = load_topology(path)
        assert cmap.num_physical == 8

    @pytest.mark.parametrize("spec", [*TABLE3_MODULES.values(), "allocated"],
                             ids=[*TABLE3_MODULES, "allocated"])
    def test_module_fixture_reads_back_as_its_fabric(self, spec):
        if spec == "allocated":
            assign = fa.FrequencyAssignment((3.5e9, 4.3e9, 5.4e9, 4.9e9), 4.5e9)
            report = fa.build_report(assign, fa.FreqModule(4), fa.calibrate_cost_model())
            spec = fa.fidelity_table(report, name="allocated_n4", drop_worst=1)
        payload = json.loads(json.dumps(spec.to_fixture()))
        assert load_topology(payload).edges == build_snail_fabric(spec, 1).edges

    def test_bad_format_version(self):
        with pytest.raises(TopologyError):
            load_topology({"format_version": 99, "module": "4q4e", "num_modules": 1})

    def test_missing_file_names_the_path(self, tmp_path):
        path = tmp_path / "missing.json"
        with pytest.raises(TopologyError, match="missing.json"):
            load_topology(str(path))

    def test_malformed_json_names_the_path(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"format_version": 1, "module": ')
        with pytest.raises(TopologyError, match="malformed JSON in .*broken.json"):
            load_topology(path)

    def test_a_file_that_is_not_utf8_names_the_path(self, tmp_path):
        path = tmp_path / "bin.json"
        path.write_bytes(b"\xff\xfe")
        with pytest.raises(TopologyError, match=f"^malformed JSON in {re.escape(str(path))}: 'utf-8' codec"):
            load_topology(path)

    @pytest.mark.parametrize("version", ["x", None, [1], 1.5, True])
    def test_non_integer_format_version(self, version):
        with pytest.raises(TopologyError, match="unsupported format_version"):
            load_topology({"format_version": version, "module": "4q4e", "num_modules": 1})

    @pytest.mark.parametrize("version", [1, "1"])
    def test_integer_format_version(self, version):
        cmap = load_topology({"format_version": version, "module": "4q4e", "num_modules": 1})
        assert cmap.num_physical == 4

    @pytest.mark.parametrize("payload, key", [
        ({"format_version": 1}, "module"),
        ({"module": "4q4e"}, "num_modules"),
        ({"module": {"qubits": 2, "edges": [[0, 1]]}, "num_modules": 1}, "fidelities"),
        ({"module": {"edges": [[0, 1]], "fidelities": [0.99]}, "num_modules": 1}, "qubits"),
    ])
    def test_missing_topology_key_names_it_and_the_file(self, tmp_path, payload, key):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(TopologyError, match=f"'{key}' key in .*bad.json"):
            load_topology(path)
        with pytest.raises(TopologyError, match=f"'{key}' key$"):
            load_topology(payload)

    def test_top_level_non_object_names_the_path(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        with pytest.raises(TopologyError, match="list.json does not hold a JSON object"):
            load_topology(path)

    def test_unknown_module_name(self):
        with pytest.raises(TopologyError, match="unknown module '9q9e'"):
            load_topology({"module": "9q9e", "num_modules": 1})

    @pytest.mark.parametrize("key", ["i", "j"])
    def test_calibration_edge_without_an_endpoint(self, tmp_path, key):
        edge = {"i": 0, "j": 1, "error": 0.01}
        del edge[key]
        path = tmp_path / "calibration.json"
        path.write_text(json.dumps({"edges": [edge]}))
        with pytest.raises(TopologyError, match=f"calibration edge has no '{key}' key in .*calibration.json"):
            load_topology(path)

    @pytest.mark.parametrize("payload", [
        {"edges": []},
        {"edges": [], "num_physical": 1},
        {"edges": [{"i": 0, "j": 1}]},
    ], ids=["none", "one-qubit", "uncalibrated"])
    def test_a_calibration_without_a_calibrated_edge_is_refused(self, tmp_path, payload):
        """As a module needs an edge, so does a snapshot: one refusal names the file."""
        path = tmp_path / "empty.json"
        path.write_text(json.dumps(payload))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(TopologyError, match=f"^calibration has no edge with an error rate in {path}$"):
                load_topology(path)
        assert reference_calibration(payload) == ("structure", None)


    @pytest.mark.parametrize("payload, key", [
        ({"edges": [{"i": "x", "j": 1, "error": 0.01}]}, "i"),
        ({"edges": [{"i": 0, "j": 1, "error": 0.01}], "num_physical": "x"}, "num_physical"),
        ({"edges": [{"i": 0, "j": 1, "error": "bad"}]}, "error"),
        ({"edges": 5}, "edges"),
        ({"module": {"qubits": "x", "edges": [[0, 1]], "fidelities": [0.99]}, "num_modules": 1}, "qubits"),
        ({"module": {"qubits": 2, "edges": [[0, 1]], "fidelities": [0.99]}, "num_modules": "x"}, "num_modules"),
        ({"module": {"qubits": 2, "edges": [[0, 1]], "fidelities": ["bad"]}, "num_modules": 1}, "fidelities"),
        ({"module": {"qubits": 2, "edges": [[0]], "fidelities": [0.99]}, "num_modules": 1}, "edges"),
        ({"module": {"qubits": 2, "edges": 5, "fidelities": [0.99]}, "num_modules": 1}, "edges"),
        # Integer fields take integral values only: no truncation, no booleans.
        ({"module": {"qubits": 2.7, "edges": [[0, 1]], "fidelities": [0.99]}, "num_modules": 1}, "qubits"),
        ({"module": {"qubits": True, "edges": [[0, 1]], "fidelities": [0.99]}, "num_modules": 1}, "qubits"),
        ({"module": {"qubits": 2, "edges": [[0, 1.9]], "fidelities": [0.99]}, "num_modules": 1}, "edges"),
        ({"module": {"qubits": 2, "edges": [[0, 1]], "fidelities": [0.99]}, "num_modules": 1.5}, "num_modules"),
        ({"module": {"qubits": 2, "edges": [[0, 1]], "fidelities": [0.99]}, "num_modules": True}, "num_modules"),
        ({"edges": [{"i": 0, "j": 1.5, "error": 0.01}]}, "j"),
        ({"edges": [{"i": False, "j": 1, "error": 0.01}]}, "i"),
        ({"edges": [{"i": 0, "j": 1, "error": 0.01}], "num_physical": 2.5}, "num_physical"),
        # Counts are nonnegative, and a module has an edge.
        ({"edges": [], "num_physical": -1}, "num_physical"),
        ({"module": {"qubits": -2, "edges": [[0, 1]], "fidelities": [0.99]}, "num_modules": 2}, "qubits"),
        ({"module": {"qubits": 0, "edges": [], "fidelities": []}, "num_modules": 2}, "edges"),
    ])
    def test_mistyped_field_names_it_and_the_file(self, tmp_path, payload, key):
        path = tmp_path / "typed.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(TopologyError, match=f"bad '{key}' value .* in .*typed.json"):
            load_topology(path)
        with pytest.raises(TopologyError, match=f"bad '{key}' value"):
            load_topology(payload)

    @pytest.mark.parametrize("payload, key", [
        ({"module": "4q4e", "num_modules": 0}, "num_modules"),
        ({"module": {"qubits": 2, "edges": [[0, 1]], "fidelities": [1.5]}, "num_modules": 1}, "fidelities"),
        ({"module": {"qubits": 2, "edges": [[0, 1]], "fidelities": [math.nan]}, "num_modules": 1}, "fidelities"),
        ({"module": {"qubits": 2, "edges": [[0, 1]], "fidelities": [0.99, 0.98]}, "num_modules": 1}, None),
        ({"module": {"qubits": 2, "edges": [[0, 5]], "fidelities": [0.99]}, "num_modules": 1}, None),
        ({"module": {"qubits": 4, "edges": [[0, 1], [2, 3]], "fidelities": [0.99, 0.98]}, "num_modules": 1}, None),
        ({"edges": [{"i": 0, "j": 1, "error": 1.5}]}, "error"),
        ({"edges": [{"i": 0, "j": 1, "error": 0.01}], "num_physical": 1}, None),
        ({"edges": [{"i": 0, "j": 1, "error": 0.01}], "num_physical": 3}, None),
        ({"edges": [{"i": 0, "j": 0, "error": 0.01}]}, None),
        # A snapshot's counts are capped before they size an array, and its
        # edges are a list, not a string read by its characters.
        ({"edges": [{"i": 0, "j": 1, "error": 0.01}], "num_physical": 10**30}, "num_physical"),
        ({"edges": [{"i": 0, "j": 1, "error": 0.01}], "num_physical": 70000}, "num_physical"),
        ({"edges": [{"i": 0, "j": 70000, "error": 0.01}]}, "j"),
        ({"edges": "01"}, "edges"),
    ], ids=["no-modules", "fidelity-1.5", "fidelity-nan", "two-fidelities-one-edge", "edge-out-of-range",
            "disconnected-module", "error-1.5", "edge-past-num-physical", "disconnected-snapshot", "self-loop",
            "num-physical-1e30", "num-physical-70000", "endpoint-70000", "edges-a-string"])
    def test_every_refusal_names_the_file(self, tmp_path, capsys, payload, key):
        """A value out of range names its key and the file; a fabric that
        cannot be built (an edge out of range, a disconnected graph) names the
        file.  `finesse transpile --topology` exits 2 on each."""
        path = tmp_path / "refused.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(TopologyError) as error:
            load_topology(path)
        message = str(error.value)
        assert message.endswith(f" in {path}")
        assert key is None or f"bad '{key}' value" in message
        circuit = tmp_path / "c.qasm"
        circuit.write_text("OPENQASM 2.0;\nqreg q[2];\ncx q[0],q[1];\n")
        with pytest.raises(SystemExit) as exit_:
            cli.main(["transpile", str(circuit), "--topology", str(path)])
        assert exit_.value.code == cli.EXIT_USAGE
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("payload, key", [
        ({"edges": [{"i": 0, "j": 1, "error": 0.01}], "num_physical": 10**10}, "num_physical"),
        ({"edges": [{"i": 0, "j": 10**9, "error": 0.01}]}, "j"),
    ], ids=["num-physical-1e10", "endpoint-1e9"])
    def test_a_huge_count_is_refused_before_it_sizes_an_array(self, tmp_path, payload, key):
        """`finesse transpile --topology` exits 2 naming the key and the file.
        A fabric of that size would take 3.7 GiB or more, so the command runs
        in a child process under a 2 GiB address-space limit."""
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(payload))
        circuit = tmp_path / "c.qasm"
        circuit.write_text("OPENQASM 2.0;\nqreg q[2];\ncx q[0],q[1];\n")
        src = Path(fa.__file__).resolve().parents[1]
        proc = subprocess.run(
            [sys.executable, "-c", CAPPED_FINESSE, str(2 << 30), "transpile", str(circuit), "--topology", str(path)],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": "1"},
        )
        assert proc.returncode == cli.EXIT_USAGE, proc.stderr
        assert f"bad '{key}' value" in proc.stderr and f" in {path}" in proc.stderr

    def test_integral_floats_load_as_integers(self):
        payload = {"module": {"qubits": 2.0, "edges": [[0.0, 1]], "fidelities": [0.99]}, "num_modules": 2.0}
        exact = {"module": {"qubits": 2, "edges": [[0, 1]], "fidelities": [0.99]}, "num_modules": 2}
        assert load_topology(payload) == load_topology(exact)
        calibration = load_topology({"edges": [{"i": 0.0, "j": 1, "error": 0.01}], "num_physical": 2.0})
        assert calibration.num_physical == 2 and type(calibration.edges[0][0]) is int


# `python -m finesse` in a process that first caps its own address space at
# the byte count given as its first argument.
CAPPED_FINESSE = """
import resource, runpy, sys
limit = int(sys.argv.pop(1))
_, hard = resource.getrlimit(resource.RLIMIT_AS)
resource.setrlimit(resource.RLIMIT_AS, (limit if hard == resource.RLIM_INFINITY else min(limit, hard), hard))
runpy.run_module("finesse", run_name="__main__")
"""


MISSING = object()
# One of each kind of bad value: missing, null, bools, 0, a negative, a
# non-integer float, NaN, both infinities, strings (empty, a word, decimal
# ones, two characters that iterate as a pair, a Table-3 name), lists,
# objects (one whose keys iterate as a pair) and huge integers (past int64,
# past any float).
BAD_FIELD_VALUES = (MISSING, None, True, False, 0, -1, 2.5, math.nan, math.inf, -math.inf,
                    "", "a", "1", "2.5", "01", "4q5e", [], [1], [0, 1], {}, {"0": 0, "1": 1},
                    10**30, 10**400)


def _chain_and_chords(draw, qubits):
    """The pairs (i, i + 1) of a chain over ``qubits``, then drawn chords."""
    chords = [(i, j) for i in range(qubits) for j in range(i + 2, qubits)]
    drawn = draw(st.lists(st.sampled_from(chords), unique=True)) if chords else []
    return [(i, i + 1) for i in range(qubits - 1)] + drawn


@st.composite
def _fixtures(draw):
    """A valid fixture: a connected module (a chain plus chords) or a Table-3
    name, chained 1-3 times, with or without its version and name."""
    if draw(st.booleans()):
        fixture = {"module": draw(st.sampled_from(sorted(TABLE3_MODULES)))}
    else:
        qubits = draw(st.integers(2, 5))
        edges = [list(pair) for pair in _chain_and_chords(draw, qubits)]
        module = {"qubits": qubits, "edges": edges,
                  "fidelities": [draw(st.floats(0.9, 1.0)) for _ in edges]}
        if draw(st.booleans()):
            module["name"] = "m"
        fixture = {"module": module}
    fixture["num_modules"] = draw(st.integers(1, 3))
    if draw(st.booleans()):
        fixture["format_version"] = 1
    return fixture


@st.composite
def _snapshots(draw):
    """A valid calibration snapshot: a chain plus chords over 2-5 qubits, each
    edge in either orientation with an error in [0, 0.1], perhaps one record
    with no error (dropped), with or without num_physical and the version."""
    qubits = draw(st.integers(2, 5))
    records = [{"i": i, "j": j, "error": draw(st.floats(0.0, 0.1))}
               for i, j in (pair[::-1] if draw(st.booleans()) else pair
                            for pair in _chain_and_chords(draw, qubits))]
    if draw(st.booleans()):
        records.insert(draw(st.integers(0, len(records))), {"i": 1, "j": 0, "error": None})
    snapshot = {"edges": records}
    if draw(st.booleans()):
        snapshot["num_physical"] = qubits
    if draw(st.booleans()):
        snapshot["format_version"] = 1
    return snapshot


@st.composite
def _field_paths(draw, node):
    """A path to a value inside ``node``, as a tuple of keys and indices: a
    key of each container in turn, stopping below each level at even odds,
    so that a top-level field is drawn as often as a deep one."""
    path = ()
    while True:
        key = draw(st.sampled_from(list(node) if isinstance(node, dict) else range(len(node))))
        path, node = path + (key,), node[key]
        if not isinstance(node, (dict, list)) or not node or draw(st.booleans()):
            return path


def _replaced(fixture, path, value):
    """A deep copy of ``fixture`` with the field at ``path`` replaced by
    ``value``, or removed when it is MISSING."""
    out = json.loads(json.dumps(fixture))
    parent = out
    for key in path[:-1]:
        parent = parent[key]
    if value is MISSING:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return out


class TestFixtureProperty:
    @settings(max_examples=200, deadline=None)
    @given(fixture=_fixtures(), data=st.data())
    def test_one_bad_field_loads_as_read_or_is_refused_by_name(self, tmp_path_factory, fixture, data):
        """A valid fixture with one field, at a drawn path, replaced by each
        bad value in turn either loads as `reference_fixture` reads it, or
        raises TopologyError naming the file and, when that field breaks its
        own rule, the key; no other exception escapes."""
        path = data.draw(_field_paths(fixture))
        file = tmp_path_factory.mktemp("fixture") / "fixture.json"
        for value in BAD_FIELD_VALUES:
            payload = _replaced(fixture, path, value)
            expected = reference_fixture(payload, TABLE3_MODULES)
            file.write_text(json.dumps(payload))
            try:
                cmap = load_topology(file)
            except TopologyError as error:
                message = str(error)
                assert expected[0] != "fabric", message
                assert message.endswith(f" in {file}")
                assert expected[0] == "structure" or expected[1] in message
            else:
                assert expected[0] == "fabric", (payload, expected)
                assert (cmap.num_physical, list(cmap.edges)) == expected[1:]
                assert all(type(i) is int and type(j) is int and type(c) is float for i, j, c in cmap.edges)


class TestCalibrationProperty:
    @settings(max_examples=200, deadline=None)
    @given(snapshot=_snapshots(), data=st.data())
    def test_one_bad_field_loads_as_read_or_is_refused_by_name(self, tmp_path_factory, snapshot, data):
        """A valid snapshot with one field, at a drawn path, replaced by each
        bad value in turn (and a count past MAX_QUBITS) either loads as
        `reference_calibration` reads it, with one warning per dropped
        record, or raises TopologyError naming the file and, when that field
        breaks its own rule, the key; no other exception escapes."""
        path = data.draw(_field_paths(snapshot))
        file = tmp_path_factory.mktemp("calibration") / "snapshot.json"
        for value in (*BAD_FIELD_VALUES, 70000):
            payload = _replaced(snapshot, path, value)
            expected = reference_calibration(payload)
            file.write_text(json.dumps(payload))
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                try:
                    cmap = load_topology(file)
                except TopologyError as error:
                    message = str(error)
                    assert expected[0] != "fabric", message
                    assert message.endswith(f" in {file}")
                    key = expected[1]
                    assert expected[0] == "structure" or f"'{key}'" in message or f" {key} " in message
                else:
                    assert expected[0] == "fabric", (payload, expected)
                    assert (cmap.num_physical, list(cmap.edges)) == expected[1:3]
                    assert all(type(i) is int and type(j) is int and type(c) is float for i, j, c in cmap.edges)
                    assert [str(w.message).endswith("has no calibration; dropped") for w in caught] \
                        == [True] * expected[3]


def test_distance_set_builder():
    ds = build_distance_set(triangle(), k_swap=3, beta=1.0)
    assert ds.d_blend[0][2] == pytest.approx(ds.d_hop[0][2] + fidelity_distances(triangle(), 3)[0][2])
    assert np.array_equal(ds.d_blend.T, ds.d_blend)


def test_equal_fabrics_share_one_read_only_distance_set():
    """One set per (fabric, k_swap, beta): equal maps get the same object,
    another k_swap or beta another set, and no array takes a write."""
    fabric, equal = fabric_suite(), fabric_suite()
    assert equal["4q4e"] == fabric["4q4e"] and equal["4q4e"] is not fabric["4q4e"]
    ds = build_distance_set(fabric["4q4e"], 3)
    assert build_distance_set(equal["4q4e"], 3, 1.0) is ds
    assert build_distance_set(fabric["4q5e"], 3) is not ds
    assert build_distance_set(fabric["4q4e"], 4) is not ds
    assert build_distance_set(fabric["4q4e"], 3, 0.5) is not ds
    for array in (ds.d_hop, ds.d_blend):
        with pytest.raises(ValueError, match="read-only"):
            array[0, 1] = 0


def test_a_distance_set_is_equal_only_to_itself():
    """Sets compare by identity, so == gives a bool and a set is a dict key."""
    cmap = triangle()
    ds, other = build_distance_set(cmap, 3), build_distance_set(cmap, 3, 2.0)
    assert (ds == other) is False and (ds == ds) is True and (ds != other) is True
    assert {ds: "k3", other: "beta2"}[build_distance_set(cmap, 3, 1.0)] == "k3"


def heavy_hex_like() -> CouplingMap:
    """129 qubits: seven rows of 15 in a line, each pair of rows joined by
    four bridge qubits, 146 edges."""
    rows, width = 7, 15
    edges = [(r * width + c, r * width + c + 1) for r in range(rows) for c in range(width - 1)]
    bridge = rows * width
    for r in range(rows - 1):
        for c in ((0, 4, 8, 12) if r % 2 == 0 else (2, 6, 10, 14)):
            edges += [(r * width + c, bridge), (bridge, (r + 1) * width + c)]
            bridge += 1
    return coupling_map(bridge, edges, [0.99] * len(edges))


class TestDistanceSetBudget:
    def test_a_fabric_past_the_budget_is_refused_before_any_search(self):
        """800 qubits and 999 edges would take 10 GB: refused by size, with
        no search run and no array made."""
        cmap = build_snail_fabric(TABLE3_MODULES["4q4e"], 200)
        size = 8 * 800 * 800 * (2 + 2 * 999)
        assert size > DISTANCE_SET_BYTES
        searched = AssertionError("a search ran")
        tracemalloc.start()
        try:
            with patch.object(hardware, "hop_distances", side_effect=searched), \
                    patch.object(hardware, "fidelity_distances", side_effect=searched), \
                    pytest.raises(TopologyError, match=f"^a distance set of 800 qubits and 999 edges takes {size} bytes"):
                build_distance_set(cmap, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_a_129_qubit_heavy_hex_is_within_the_budget(self):
        cmap = heavy_hex_like()
        assert (cmap.num_physical, len(cmap.edges)) == (129, 146)
        ds = build_distance_set(cmap, 3)
        assert ds.d_hop.tobytes() == csgraph_hop_distances(cmap).tobytes()
        assert ds.d_blend.tobytes() == (ds.d_hop + csgraph_fidelity_distances(cmap, 3)).tobytes()


def _swap_delta_oracle(matrix, cmap):
    """The delta table from scalar reads: column e reads matrix at the
    physical qubits of wires a and b after `Layout.swap_physical` on edge e,
    minus the read with no swap, one element at a time."""
    n = cmap.num_physical
    layouts = [Layout(range(n)) for _ in range(len(cmap.edge_pairs))]
    for layout, (p, q) in zip(layouts, cmap.edge_pairs.tolist()):
        layout.swap_physical(p, q)
    delta = [[matrix[lay.physical_list[a], lay.physical_list[b]] - matrix[a, b] for lay in layouts]
             for a in range(n) for b in range(n)]
    return np.array(delta, dtype=matrix.dtype).reshape(n * n, len(layouts))


TABLES = ("hop_delta", "blend_delta", "hop_rows", "blend_rows")


class TestSwapTables:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_tables_equal_scalar_reads_after_each_swap(self, seed):
        """Both delta kinds, hop (int64) and blend (float), equal the scalar
        oracle bit for bit over flat rows a·n + b, are row-major and refuse a
        write; the row tuples hold the matrices' entries as ints and floats."""
        rng = np.random.default_rng(seed)
        cmap = random_connected_map(rng)
        ds = build_distance_set(cmap, int(rng.integers(1, 4)), float(rng.uniform(0.0, 2.0)))
        n, num_edges = cmap.num_physical, len(cmap.edge_pairs)
        for matrix, table, rows, kind in ((ds.d_hop, ds.hop_delta, ds.hop_rows, int),
                                          (ds.d_blend, ds.blend_delta, ds.blend_rows, float)):
            assert table.shape == (n * n, num_edges) and table.dtype == matrix.dtype
            assert table.flags.c_contiguous
            assert table.tobytes() == _swap_delta_oracle(matrix, cmap).tobytes()
            with pytest.raises(ValueError, match="read-only"):
                table[0, 0] = 0
            assert rows == tuple(tuple(row) for row in matrix.tolist())
            assert all(type(v) is kind for row in rows for v in row)

    def test_tables_are_built_on_first_read(self):
        """No table exists when the set is built.  A SABRE route builds the
        hop deltas alone, MIRAGE the hop rows too, and FINESSE the blend
        deltas and rows; each is built once."""
        cmap = coupling_map(5, [(0, 1), (1, 2), (2, 3), (3, 4)], [0.951, 0.952, 0.953, 0.954])
        config = router.RouterConfig(algorithm="sabre", num_seeds=2)
        ds = build_distance_set(cmap, swap_count(config.basis), config.beta)
        built = lambda: {name for name in TABLES if name in vars(ds)}
        assert built() == set()
        dag = CircuitDag(5, [Gate(id=i, kind="cx", wires=w) for i, w in enumerate([(0, 4), (1, 3), (4, 2)])])
        router.run_trials(dag, cmap, config)
        assert built() == {"hop_delta"}
        hop = ds.hop_delta
        router.run_trials(dag, cmap, router.RouterConfig(algorithm="mirage", num_seeds=2))
        assert built() == {"hop_delta", "hop_rows"}
        router.run_trials(dag, cmap, router.RouterConfig(algorithm="finesse", num_seeds=2))
        assert built() == set(TABLES) and ds.hop_delta is hop


# sha256 of d_hop, d_fid and d_blend bytes for the Table-3 fabrics at the
# siswap swap count and beta = 1: routes read these exact bits.
DISTANCE_DIGESTS = {
    "4q4e": ("422428608e04ff1d448cc0a4a7d98d466234ba86f8b2581bcd5b291bbc50e95b",
             "c9c0cba37b7747443506494a3006a8d3856c852bf28af4ba8c51c1997c06ebce",
             "5bbe04e675b24236b21de5f6e294266b4d83bff0622d507be7fc31f41b27f3cc"),
    "4q5e": ("4faacfa2ae42a0f83d209ee39edc88b4df6dc298f8de388d382ebeb60f75e524",
             "e94ccae868d75b9cdf3ec02ce465cabdd998018911f23f7047c4397d4ff80d47",
             "835b3ed241356439cb77f4db6dabb08c43e9e6b856751b522873ba7fa9918d27"),
    "4q6e": ("ff6e90b6d6691e9e15b1abe71c291ca03ee43329c1b60cd901efc43a52e75714",
             "589a052150a521e1440fa44f0e11e46687f3ceb2d12f5739d7a540fe5eb8a116",
             "a143561fd6277e50c2d955eb29e321898cc0c4a9584744111aabaa8ff7222091"),
    "5q7e": ("eed43c44769b46be6fc9b7712d4988dc96d0590198f4ef75fce0b66fb2048a84",
             "71ad6b16e54495e8ece53909efe5a9adc9d3ef54d8ff6ff1a81c9d9241ec6bda",
             "3684e637a99a2fe79a50c904fb29716ec04ce6b69e7aa956bba2ff64e99955c4"),
}


@pytest.mark.parametrize("name", sorted(DISTANCE_DIGESTS))
def test_table3_distance_bytes_are_pinned(name):
    cmap, k_swap = fabric_suite()[name], swap_count(BasisGate.from_name("siswap"))
    ds = build_distance_set(cmap, k_swap, 1.0)
    assert ds.d_hop.dtype == np.int64
    arrays = (ds.d_hop, fidelity_distances(cmap, k_swap), ds.d_blend)
    assert tuple(hashlib.sha256(a.tobytes()).hexdigest() for a in arrays) == DISTANCE_DIGESTS[name]
