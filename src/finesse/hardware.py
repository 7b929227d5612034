"""Fidelity-weighted coupling graphs and routing distance matrices.

`load_topology` is the one reader of fabrics, in three forms: a Table-3
name, a topology fixture (``module`` chained ``num_modules`` times), or a
calibration snapshot (per-edge error rates), told by ``edges`` and no ``module``.
"""
from __future__ import annotations

import json
import warnings
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property
from math import inf, log
from pathlib import Path
from weakref import WeakKeyDictionary

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components, dijkstra, shortest_path

from .checks import integer, real

FIDELITY_FLOOR = 1e-10
FORMAT_VERSION = 1
# No fabric read from a file holds more qubits (one distance matrix of this
# many takes 34 GB), so a count from a file is refused before it sizes an
# array or a loop.
MAX_QUBITS = 1 << 16


class TopologyError(ValueError):
    pass


@dataclass(frozen=True)
class CouplingMap:
    """Undirected physical-qubit graph with per-edge gate fidelity C_ij.  It owns
    the edge tables routing reads, each built on first use and cached read-only."""

    num_physical: int
    edges: tuple[tuple[int, int, float], ...]

    def __post_init__(self):
        n = integer(self.num_physical, "num_physical", TopologyError, 0)
        seen = set()
        for i, j, c in self.edges:
            for p in (i, j):
                integer(p, f"an endpoint of edge ({i},{j})", TopologyError, 0, n - 1)
            if i == j:
                raise TopologyError(f"self-loop on qubit {i}")
            if real(c, f"the fidelity on ({i},{j})", TopologyError, positive=True) > 1.0:
                raise TopologyError(f"fidelity {c} on ({i},{j}) outside (0, 1]")
            key = (min(i, j), max(i, j))
            if key in seen:
                raise TopologyError(f"duplicate edge {key}")
            seen.add(key)
        # Numpy integers pass the checks; stored as Python ints, they never
        # reach a swap trace or a layout a route returns.
        object.__setattr__(self, "edges", tuple((int(i), int(j), c) for i, j, c in self.edges))
        graph = _graph(self, [1.0] * len(self.edges))
        if self.num_physical > 1 and connected_components(graph, return_labels=False) != 1:
            raise TopologyError("coupling graph is disconnected")

    @cached_property
    def neighbors(self) -> tuple[tuple[int, ...], ...]:
        adj = [[] for _ in range(self.num_physical)]
        for i, j, _ in self.edges:
            adj[i].append(j)
            adj[j].append(i)
        return tuple(tuple(sorted(a)) for a in adj)

    @cached_property
    def fidelity(self) -> dict[tuple[int, int], float]:
        return {pair: c for i, j, c in self.edges for pair in ((i, j), (j, i))}

    def has_edge(self, i: int, j: int) -> bool:
        return (i, j) in self.fidelity

    @cached_property
    def log_weight(self) -> dict[tuple[int, int], float]:
        """L = -ln(max(C, 1e-10)) per edge, under both orientations."""
        return {pair: -log(max(c, FIDELITY_FLOOR)) for pair, c in self.fidelity.items()}

    @cached_property
    def edge_pairs(self) -> np.ndarray:
        """(E, 2) edges as sorted (min, max) pairs."""
        pairs = sorted((min(i, j), max(i, j)) for i, j, _ in self.edges)
        return _read_only(np.array(pairs, dtype=np.intp).reshape(-1, 2))

    @cached_property
    def edge_tuples(self) -> tuple[tuple[int, int], ...]:
        """The rows of edge_pairs as tuples of ints."""
        return tuple(map(tuple, self.edge_pairs.tolist()))

    @cached_property
    def incident(self) -> tuple[tuple[int, ...], ...]:
        """Per physical qubit, the edge_pairs rows that touch it, ascending."""
        touching = [[] for _ in range(self.num_physical)]
        for e, pair in enumerate(self.edge_tuples):
            for p in pair:
                touching[p].append(e)
        return tuple(map(tuple, touching))

    @cached_property
    def swap_moves(self) -> np.ndarray:
        """(E, n): the wire p's qubit sits on after a swap on edge e, at [e, p]."""
        moves = np.tile(np.arange(self.num_physical, dtype=np.intp), (len(self.edge_pairs), 1))
        np.put_along_axis(moves, self.edge_pairs, self.edge_pairs[:, ::-1], axis=1)
        return _read_only(moves)


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def _graph(cmap: CouplingMap, values) -> csr_matrix:
    """Symmetric sparse adjacency with values[e] on both arcs of cmap.edges[e].

    A zero weight (an edge of fidelity 1) is stored as an explicit zero, which
    csgraph still reads as an edge.
    """
    i, j = np.array([e[:2] for e in cmap.edges], dtype=np.intp).reshape(-1, 2).T
    data = np.array(values, dtype=float)
    arcs = (np.concatenate([i, j]), np.concatenate([j, i]))
    return csr_matrix((np.concatenate([data, data]), arcs), shape=(cmap.num_physical,) * 2)


def hop_distances(cmap: CouplingMap) -> np.ndarray:
    """All-pairs unweighted shortest paths (hop counts) as int64."""
    return shortest_path(_graph(cmap, [1.0] * len(cmap.edges)), unweighted=True).astype(np.int64)


def fidelity_distances(cmap: CouplingMap, k_swap: int) -> np.ndarray:
    """All-pairs Dijkstra with edge weight k_swap * L_ij, L from cmap.log_weight.

    Row s is the fixpoint d[s] = 0, d[v] = min over neighbours u of v of the
    rounded d[u] + k_swap * L_uv: the weights are nonnegative and rounding is
    monotone, so no order of settling equal-cost paths can change a value.
    """
    integer(k_swap, "k_swap", TopologyError, 1)
    return dijkstra(_graph(cmap, [k_swap * cmap.log_weight[i, j] for i, j, _ in cmap.edges]))


def blended_distances(d_hop: np.ndarray, d_fid: np.ndarray, beta: float) -> np.ndarray:
    """D' = D_hop + beta * D_fid, elementwise."""
    if d_hop.shape != d_fid.shape:
        raise TopologyError(f"shape mismatch {d_hop.shape} vs {d_fid.shape}")
    real(beta, "beta", TopologyError)
    return d_hop.astype(float) + beta * d_fid


def _swap_deltas(matrix: np.ndarray, moves: np.ndarray) -> np.ndarray:
    (num_edges, n), now = moves.shape, matrix.reshape(-1, 1)
    after = matrix[moves[:, :, None], moves[:, None, :]].reshape(num_edges, n * n).T
    return _read_only(np.ascontiguousarray(after - now))  # row-major: a gather reads whole rows


@dataclass(frozen=True, eq=False)
class DistanceSet:
    """A fabric's routing distances for one (k_swap, beta), read-only and equal
    only to itself.  Each is built on first read.  ``hop_delta`` and
    ``blend_delta`` are swap tables over flat pairs a·n + b:
    ``delta[a·n + b, e]`` is the matrix at (a, b) after a swap on edge e
    (``swap_moves``, the map's table, which holds no reference to it) minus
    the entry now.  That is n²·E entries per kind: about 55 KB for 4q6e, and
    19 MB for a 127-qubit heavy-hex.  ``hop_rows`` and ``blend_rows`` are
    the matrices as tuples of row tuples (ints and floats), which the
    mirror rule sums one entry at a time."""

    d_hop: np.ndarray
    d_fid: np.ndarray
    d_blend: np.ndarray
    k_swap: int
    swap_moves: np.ndarray

    @cached_property
    def hop_delta(self) -> np.ndarray:
        return _swap_deltas(self.d_hop, self.swap_moves)

    @cached_property
    def blend_delta(self) -> np.ndarray:
        return _swap_deltas(self.d_blend, self.swap_moves)

    @cached_property
    def hop_rows(self) -> tuple[tuple[int, ...], ...]:
        return tuple(map(tuple, self.d_hop.tolist()))

    @cached_property
    def blend_rows(self) -> tuple[tuple[float, ...], ...]:
        return tuple(map(tuple, self.d_blend.tolist()))


# cmap -> {(k_swap, beta): set}.  Equal maps share an entry, which goes when
# the map does: a set holds no reference to its map.
_DISTANCE_SETS: WeakKeyDictionary = WeakKeyDictionary()


def build_distance_set(cmap: CouplingMap, k_swap: int, beta: float = 1.0) -> DistanceSet:
    """The one distance set of (cmap, k_swap, beta), built on first use."""
    sets = _DISTANCE_SETS.setdefault(cmap, {})
    if (k_swap, beta) not in sets:
        d_hop = hop_distances(cmap)
        d_fid = fidelity_distances(cmap, k_swap)
        arrays = (d_hop, d_fid, blended_distances(d_hop, d_fid, beta))
        sets[k_swap, beta] = DistanceSet(*map(_read_only, arrays), k_swap, cmap.swap_moves)
    return sets[k_swap, beta]


@dataclass(frozen=True)
class ModuleSpec:
    """One module's intra-module edges and their fidelity multiset.

    Fidelities are assigned deterministically: edges sorted lexicographically
    by endpoint pair receive fidelities in descending order.
    """

    qubits_per_module: int
    edges_per_module: tuple[tuple[int, int], ...]
    edge_fidelities: tuple[float, ...]
    name: str = "module"

    def __post_init__(self):
        if len(self.edge_fidelities) != len(self.edges_per_module):
            raise TopologyError("need one fidelity per edge")
        for i, j in self.edges_per_module:
            if not (0 <= i < self.qubits_per_module and 0 <= j < self.qubits_per_module) or i == j:
                raise TopologyError(f"bad module edge ({i},{j})")

    def assigned_edges(self) -> list[tuple[int, int, float]]:
        ordered = sorted((min(i, j), max(i, j)) for i, j in self.edges_per_module)
        fids = sorted(self.edge_fidelities, reverse=True)
        return [(i, j, c) for (i, j), c in zip(ordered, fids)]

    @property
    def worst_fidelity(self) -> float:
        return min(self.edge_fidelities)

    def to_fixture(self) -> dict:
        """The one-module topology fixture that load_topology reads back."""
        return {
            "format_version": FORMAT_VERSION,
            "module": {
                "name": self.name,
                "qubits": self.qubits_per_module,
                "edges": [list(e) for e in self.edges_per_module],
                "fidelities": list(self.edge_fidelities),
            },
            "num_modules": 1,
        }


def _ring_plus_chords(n: int, extra: int) -> tuple[tuple[int, int], ...]:
    edges = [(i, (i + 1) % n) for i in range(n)]
    chords = [
        (i, j)
        for i in range(n)
        for j in range(i + 2, n)
        if (i, j) not in edges and (j, i) not in edges and not (i == 0 and j == n - 1)
    ]
    return tuple(edges + chords[:extra])


# Per-edge 2q gate fidelities for the four evaluated module topologies,
# sorted highest to lowest.
TABLE3_MODULES = {
    "4q4e": ModuleSpec(4, _ring_plus_chords(4, 0), (0.996, 0.995, 0.995, 0.994), "4q4e"),
    "4q5e": ModuleSpec(4, _ring_plus_chords(4, 1), (0.994, 0.993, 0.987, 0.986, 0.985), "4q5e"),
    "4q6e": ModuleSpec(4, _ring_plus_chords(4, 2), (0.994, 0.993, 0.991, 0.988, 0.977, 0.975), "4q6e"),
    "5q7e": ModuleSpec(
        5, _ring_plus_chords(5, 2), (0.989, 0.980, 0.973, 0.968, 0.968, 0.962, 0.960), "5q7e"
    ),
}


def build_snail_fabric(spec: ModuleSpec, num_modules: int) -> CouplingMap:
    """Chain `num_modules` copies; adjacent modules share one boundary edge.

    The boundary link joins the last qubit of one module to the first of the
    next and carries the worse of the two modules' worst intra-module
    fidelities (fixture convention; the source fabrics are only pictorial).
    """
    integer(num_modules, "num_modules", TopologyError, 1)
    n = spec.qubits_per_module
    if num_modules * n > MAX_QUBITS:
        raise TopologyError(f"num_modules {num_modules} of {n} qubits exceeds {MAX_QUBITS} qubits")
    edges: list[tuple[int, int, float]] = []
    for m in range(num_modules):
        base = m * n
        edges.extend((base + i, base + j, c) for i, j, c in spec.assigned_edges())
        if m + 1 < num_modules:
            edges.append((base + n - 1, base + n, spec.worst_fidelity))
    return CouplingMap(num_modules * n, tuple(edges))


FABRIC_QUBITS = 15  # every evaluated fabric holds the widest benchmark circuit


def _table3_fabric(name: str) -> CouplingMap:
    spec = TABLE3_MODULES[name]
    return build_snail_fabric(spec, -(-FABRIC_QUBITS // spec.qubits_per_module))


def fabric_suite() -> dict[str, CouplingMap]:
    """The four evaluated fabrics, each sized to hold FABRIC_QUBITS qubits."""
    return {name: _table3_fabric(name) for name in TABLE3_MODULES}


def _calibration_fabric(data: dict, source) -> CouplingMap:
    """A calibration snapshot's coupling map, with C = 1 - error per edge."""
    edges = []
    num = 0
    for rec in read_field(data, "edges", list, "calibration", source):
        i, j = (read_field(rec, key, as_integer, "calibration edge", source) for key in "ij")
        num = max(num, i + 1, j + 1)
        if "error" not in rec or rec["error"] is None:
            warnings.warn(f"edge ({i},{j}) has no calibration; dropped", stacklevel=3)
            continue
        e = read_field(rec, "error", _error_rate, "calibration edge", source)
        edges.append((min(i, j), max(i, j), 1.0 - e))
    if "num_physical" in data:
        num = read_field(data, "num_physical", as_integer, "calibration", source)
    with _naming_file(source):
        return CouplingMap(num, tuple(edges))


def load_topology(source) -> CouplingMap:
    """The fabric that `source` names: a Table-3 name, or a fixture or a
    calibration snapshot as a file path or its parsed dict.  A snapshot is
    told apart by holding ``edges`` and no ``module``; the file is read once."""
    if isinstance(source, str) and source in TABLE3_MODULES:
        return _table3_fabric(source)
    if not isinstance(source, dict) and not Path(source).is_file():
        raise TopologyError(f"unknown topology {str(source)!r} (not a Table-3 name or file)")
    data = load_json(source)
    _check_version(data, source)
    if "edges" in data and "module" not in data:
        return _calibration_fabric(data, source)
    mod = _require(data, "module", "topology", source)
    if isinstance(mod, str):
        if mod not in TABLE3_MODULES:
            raise TopologyError(f"unknown module {mod!r}{_in_file(source)}")
        spec = TABLE3_MODULES[mod]
    else:
        fields = (
            read_field(mod, "qubits", lambda v: as_integer(v, 0, MAX_QUBITS), "module", source),
            read_field(mod, "edges", _module_edges, "module", source),
            read_field(mod, "fidelities", _fidelities, "module", source),
            mod.get("name", "module"),
        )
    num_modules = read_field(data, "num_modules", lambda v: as_integer(v, 1), "topology", source)
    with _naming_file(source):  # ModuleSpec and the fabric refuse what no one field shows
        if not isinstance(mod, str):
            spec = ModuleSpec(*fields)
        return build_snail_fabric(spec, num_modules)


def load_json(source) -> dict:
    """A JSON file's object (a dict passes through); a missing, non-UTF-8 or
    malformed file, or another top-level value, raises TopologyError naming it."""
    if isinstance(source, dict):
        return source
    path = Path(source)
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError as exc:
        raise TopologyError(f"missing file: {path}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:  # JSON text is UTF-8 (RFC 8259)
        raise TopologyError(f"malformed JSON in {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise TopologyError(f"{path} does not hold a JSON object")
    return data


def _in_file(source) -> str:
    return "" if isinstance(source, dict) else f" in {source}"


@contextmanager
def _naming_file(source):
    """Re-raise a TopologyError from building the fabric, a structural
    refusal such as an edge out of range or a disconnected graph, naming the
    file."""
    try:
        yield
    except TopologyError as exc:
        raise TopologyError(f"{exc}{_in_file(source)}") from exc


def _require(record, key: str, what: str, source):
    """record[key]; a missing key raises TopologyError naming it and the file."""
    if not isinstance(record, dict) or key not in record:
        raise TopologyError(f"{what} has no {key!r} key{_in_file(source)}")
    return record[key]


def read_field(record, key: str, convert, what: str, source):
    """convert(record[key]); a missing key, or a value that convert rejects,
    raises TopologyError naming the key, the converter's reason and the file."""
    value = _require(record, key, what, source)
    try:
        return convert(value)
    except (TypeError, ValueError, OverflowError) as exc:  # OverflowError: an int past any float
        reason = "" if isinstance(exc, TypeError) else f": {exc}"  # a TypeError says no more
        raise TopologyError(
            f"{what} has a bad {key!r} value {value!r}{reason}{_in_file(source)}"
        ) from exc


def as_integer(value, least: int = 0, most: float = inf) -> int:
    """A file's integer in ``least..most``: an integer, an integral float or a
    decimal string; anything else raises ValueError."""
    if isinstance(value, str) or isinstance(value, float) and value.is_integer():
        value = int(value)
    return int(integer(value, "the value", ValueError, least, most))


def _file_real(value) -> float:
    """A file's real >= 0: a finite real or its decimal string, as a float; a
    bool, NaN or an infinity raises ValueError."""
    if isinstance(value, str):
        value = float(value)
    return float(real(value, "the value", ValueError))


def _file_list(value) -> list | tuple:
    """A file's list (a tuple passes too); a string, object or scalar, which
    would iterate as characters, keys or not at all, raises ValueError."""
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"{value!r} is not a list")
    return value


def _fidelities(value) -> tuple[float, ...]:
    """A module's edge fidelities, a list of reals each in (0, 1]."""
    fidelities = tuple(map(_file_real, _file_list(value)))
    if not all(0.0 < f <= 1.0 for f in fidelities):
        raise ValueError(f"{value!r} has a fidelity outside (0, 1]")
    return fidelities


def _error_rate(value) -> float:
    """A calibration error rate, a real in [0, 1)."""
    error = _file_real(value)
    if not error < 1.0:
        raise ValueError(f"{value!r} is outside [0, 1)")
    return error


def _module_edges(value) -> tuple[tuple[int, int], ...]:
    """A module's list of [i, j] pairs, refusing an empty one: its fabric would
    have no link to route on and no worst fidelity to join modules with."""
    edges = []
    for pair in _file_list(value):
        if len(_file_list(pair)) != 2:
            raise ValueError(f"edge {pair!r} is not a pair")
        edges.append((as_integer(pair[0]), as_integer(pair[1])))
    if not edges:
        raise ValueError("a module needs at least one edge")
    return tuple(edges)


def _check_version(data: dict, source):
    """The version must be the integer FORMAT_VERSION, or its decimal string."""
    version = data.get("format_version", FORMAT_VERSION)
    if str(version) != str(FORMAT_VERSION):
        raise TopologyError(f"unsupported format_version {version!r}{_in_file(source)}")
