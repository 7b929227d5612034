"""SABRE-family routing: SABRE, FASST, MIRAGE, and FINESSE.

One bidirectional-pass engine drives all four algorithms.  SABRE and MIRAGE
score candidate swaps against hop-count distances, FASST and FINESSE against
the blended hop-plus-log-infidelity distances.  MIRAGE and FINESSE may fuse a
routable gate with an implicit swap (a mirror) when the substitution does not
hurt decomposition cost or, for FINESSE, the fidelity-weighted lookahead.
Relative scoring and a release valve follow the LightSABRE variant; the front
sum is unnormalized.

A front holds under two gates on average, so numpy call overhead, not
arithmetic, sets the cost of a step: a step makes few numpy calls, and none
where a list does.  A pass starts from a copy of its layout, which
`Layout.copy` does not check again, and its roots are `CircuitDag.roots`,
kept once per DAG.  Routability is a dict lookup: `run` executes the first
front gate, in id order, whose physical pair (read from the layout's list)
is a key of `CouplingMap.fidelity`.  The plan's memo holds, per front, one
read-only array of wire pairs: the front's, then its extended set's.

A swap choice scores on numpy.  `_scores` maps the memo's pairs through the
layout to flat physical pairs and gathers their rows of the distance set's
swap table for the algorithm's matrix (`DistanceSet.hop_delta` or
`blend_delta`) at the candidates' columns: one gather per score.  The swap
candidates are the edges incident on the front's physical qubits
(`CouplingMap.incident`), in `edge_pairs` order, which fixes the tie order;
a gate the swap does not touch reads exactly 0, so no mask is needed.
`_heuristic` is one reduction: the front sum plus W times the extended-set
average, one column per candidate, with the rows added in gate order (a
pairwise sum, ``np.add.reduce`` or ``np.add.reduceat`` would reorder them
and move exact ties); a front of one gate, the common case, is its own sum.
`_select_swap` finds the least score and its exact ties on the score list
(`_pick_minimum`) and takes the pair from `CouplingMap.edge_tuples`.

A mirror decision sums on lists.  It reads two columns, now and after a
swap on the gate's edge, so `_mirror_sums` walks the memo's pairs as a list,
maps them through the layout's list and through a copy with the swap made
(`Layout.virtual_list` names the two wires it moves), and reads the
matrix's row tuples (`DistanceSet.hop_rows` or `blend_rows`), keeping four
running sums: front and extended set, now and swapped.  It
folds as `_heuristic` does, from 0 in gate order, then the front sum plus W
times the extended set's average only when that set has gates.  Python's
float ``+``, ``*`` and ``/`` are the IEEE doubles of numpy's float64, hop
sums stay exact ints, and no distance is negative, so no sum becomes -0.0:
every score equals the numpy fold's bit for bit.

Predecessor counts are one dict, lowered once per executed gate by
`ir.retire`, which walks the DAG's successor gates directly: it executes
every 1q gate and barrier the moment it is ready and holds each 2q gate it
readies, which `_retire` inserts into the front in id order
(`bisect.insort`).  Wherever the pass scores, every unexecuted gate
therefore descends from a front gate, and the front (ready 2q gates, sorted
by id) fixes the executed set and every remaining count.  The extended set
is then a function of (DAG, size, front).
A routable gate is retired before its mirror decision, so the decision
scores the front and the extended set its successors will see.  The mirror
rule compares absolute sums: written as a delta, the FINESSE rule flips on
real-valued near-ties that rounding decides.

Each table a route reads has one owner.  The distances are the fabric's:
`hardware.build_distance_set` keeps one set per (fabric, k_swap, beta).  What
depends on the circuit alone is its `RoutePlan` per (basis, extended size),
freed with the DAG: the DAG's reverse, one lookahead memo per direction
(front ids -> the front's wire pairs, then its extended set's) and each
wire-table row's decomposition count as placed and as mirrored.  Every trial,
pass, fabric and algorithm routing the circuit shares it, so each front's set
is walked once per plan, and no pass asks `weyl.gate_count`.

A pass draws from its stream only to break a tie, and many passes never do,
so `run_trials` hands each pass a stand-in that builds its
``seeded_stream(seed, trial, pass)`` on the first draw; the trial's layout
stream is built at once.  `route_pass` takes a plain `np.random.Generator`
as well, and draws the same numbers from it.

The final pass emits a compact record, one `RoutedOp` per op: its kind, its
physical wires, its source gate (None for a routing swap) and its mirror
flag.  As it emits a 2q op it adds edge log-weight times the op's count to
the LF cost; that is emission order, the order in which `lf_cost` sums the
circuit, so the float is the same.  The depth is `ir.circuit_depth` of the
record.  `RoutingResult.circuit` builds the `CircuitDag` on first access, so
a trial that is never read builds none, and builds each gate from its source
gate, already checked, on the op's wires (a fabric edge or the layout's
images of the source's wires) without checking it again.
"""
from __future__ import annotations

from bisect import insort
from dataclasses import dataclass, field
from functools import cached_property
from math import inf
from operator import attrgetter
from typing import NamedTuple
from weakref import WeakKeyDictionary

import numpy as np

from .checks import integer, real, seeded_stream
from .hardware import CouplingMap, DistanceSet, build_distance_set
from .ir import CircuitDag, Gate, Layout, circuit_depth, extended_set, retire
from .weyl import BasisGate, gate_count, swap_count

ALGORITHMS = ("sabre", "fasst", "mirage", "finesse")
FIDELITY_AWARE = ("fasst", "finesse")
MIRRORING = ("mirage", "finesse")

_gate_id = attrgetter("id")
_SWAP = Gate(id=0, kind="swap", wires=(0, 1))  # the source of every routing swap


class RoutingError(ValueError):
    pass


@dataclass(frozen=True)
class RouterConfig:
    algorithm: str = "sabre"
    w: float = 0.5                      # lookahead weight
    extended_size: int = 20
    beta: float = 1.0                   # fidelity-distance blend
    aggression: int = 2                 # mirror policy level, 0..3
    release_valve_threshold: int = 10
    num_seeds: int = 24
    post_selection: str = "native"      # native | fidelity
    basis: BasisGate = field(default_factory=lambda: BasisGate.root_iswap(2))

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise RoutingError(f"unknown algorithm {self.algorithm!r}")
        if self.post_selection not in ("native", "fidelity"):
            raise RoutingError(f"unknown post-selection {self.post_selection!r}")
        for name in ("beta", "w"):
            real(getattr(self, name), name, RoutingError)
        for name, least, most in (("extended_size", 0, inf), ("aggression", 0, 3),
                                  ("release_valve_threshold", 1, inf), ("num_seeds", 1, inf)):
            integer(getattr(self, name), name, RoutingError, least, most)

    @property
    def uses_blend(self) -> bool:
        return self.algorithm in FIDELITY_AWARE


@dataclass(frozen=True, eq=False)
class RoutePlan:
    """What routing one circuit needs that depends on the circuit alone, for
    one basis and one extended size.  ``reverse`` is the circuit reversed;
    each pair holds the circuit's entry, then its reverse's: the lookahead
    memos (front ids -> one read-only (gates, 2) intp array of wire pairs,
    the front's followed by its extended set's) and the counts, per wire-table
    row, (k as placed, k mirrored).  The memos fill as passes route, and
    every trial, fabric and algorithm routing the circuit reads the same
    arrays; the other fields are fixed when `of` builds the plan."""

    reverse: CircuitDag
    memos: tuple[dict[tuple[int, ...], np.ndarray], dict[tuple[int, ...], np.ndarray]]
    counts: tuple[tuple[tuple[int, int], ...], tuple[tuple[int, int], ...]]

    @classmethod
    def of(cls, dag: CircuitDag, basis: BasisGate, extended_size: int) -> "RoutePlan":
        """``dag``'s one plan for (basis, extended_size), built on first use
        and freed with ``dag``: the plan holds no reference to it."""
        plans = _PLANS.setdefault(dag, {})
        if (basis, extended_size) not in plans:
            counts = tuple((gate_count(g, basis), gate_count(g, basis, mirrored=not g.mirrored))
                           for g in dag.gates if g.is_two_qubit)
            plans[basis, extended_size] = cls(dag.reversed(), ({}, {}), (counts, counts[::-1]))
        return plans[basis, extended_size]


_PLANS: WeakKeyDictionary = WeakKeyDictionary()  # dag -> {(basis, extended_size): plan}


class RoutedOp(NamedTuple):
    """One op of a routed circuit.  ``source`` is the gate it routes, None for
    a routing swap; ``mirrored`` is the flag as emitted."""

    kind: str
    wires: tuple[int, ...]
    source: Gate | None
    mirrored: bool


@dataclass
class PassResult:
    final_layout: Layout
    ops: list[RoutedOp] | None  # what an emitting pass emitted, in order
    lf_cost: float              # LF of those ops, summed as they were emitted
    swap_trace: list[tuple[int, int]]
    swaps: int
    mirrors: int
    valve_fires: int = 0


class _Pass:
    """One routing sweep over the DAG under a fixed scoring matrix."""

    def __init__(
        self,
        dag: CircuitDag,
        cmap: CouplingMap,
        dists: DistanceSet,
        config: RouterConfig,
        rng: np.random.Generator | _FirstDrawStream,
        layout: Layout,
        emit: bool,
        allow_mirror: bool,
        plan: RoutePlan,
    ):
        side = dag is plan.reverse
        self.dag = dag
        self.memo, self.counts = plan.memos[side], plan.counts[side]
        self.cmap = cmap
        self.dists = dists
        self.config = config
        self.rng = rng
        self.layout = layout.copy()
        self.allow_mirror = allow_mirror and config.algorithm in MIRRORING and config.aggression > 0
        self.delta = dists.blend_delta if config.uses_blend else dists.hop_delta
        # The mirror rule's matrix as row tuples, read only by a mirroring pass.
        self.distance_rows = ((dists.blend_rows if config.uses_blend else dists.hop_rows)
                              if self.allow_mirror else None)
        self.flat = np.array((cmap.num_physical, 1), dtype=np.intp)  # (a, b) @ flat = a·n + b
        self.preds = dag.predecessor_counts()
        self.rows, self.wires = dag.two_qubit_rows, dag.wire_table
        self.front: list[Gate] = []  # ready 2q gates, sorted by id
        self.scored_wires: np.ndarray | None = None  # the front's memo entry
        self.ops: list[RoutedOp] | None = [] if emit else None
        self.lf_cost = 0.0
        self.swap_trace: list[tuple[int, int]] = []
        self.mirrors = 0
        self.stall = 0
        self.valve_fires = 0

    # bookkeeping ----------------------------------------------------
    def _emit_two_qubit(self, op: RoutedOp, k: int):
        """Record a 2q op and add its LF term, in emission order."""
        self.ops.append(op)
        self.lf_cost += self.cmap.log_weight[op.wires] * k

    def _emit_local(self, gates: list[Gate]):
        """Emit 1q gates and barriers on their wires under the current layout."""
        if self.ops is not None:
            v2p = self.layout.physical_list
            self.ops.extend(RoutedOp(g.kind, tuple([v2p[w] for w in g.wires]), g, g.mirrored)
                            for g in gates)

    def _retire(self, gate_id: int) -> list[Gate]:
        """Mark gate_id executed in the predecessor counts.  The 2q gates it
        readies join the front, which stays sorted by id; the 1q gates and
        barriers it readies are executed in the same walk and returned in walk
        order, to be emitted under the layout that follows the gate."""
        held, local = retire(self.dag, self.preds, gate_id)
        for g in held:
            insort(self.front, g, key=_gate_id)
        self.scored_wires = None
        return local

    def _lookahead(self) -> np.ndarray:
        """Wire pairs of the front, then of its extended set: the memo's
        read-only entry for this front, walked only when the memo lacks it."""
        if self.scored_wires is None:
            key = tuple(g.id for g in self.front)
            wires = self.memo.get(key)
            if wires is None:
                extended = extended_set(self.dag, self.front, self.config.extended_size, self.preds)
                wires = self.wires[[self.rows[g.id] for g in self.front + extended]]
                wires.flags.writeable = False
                self.memo[key] = wires
            self.scored_wires = wires
        return self.scored_wires

    def _execute(self, g: Gate, p0: int, p1: int):
        """Run front gate g on the edge (p0, p1), mirrored if the policy says so."""
        self.front.remove(g)
        local = self._retire(g.id)
        mirrored = self._mirror_decision(g, p0, p1)
        if self.ops is not None:
            op = RoutedOp(g.kind, (p0, p1), g, mirrored != g.mirrored)
            self._emit_two_qubit(op, self.counts[self.rows[g.id]][mirrored])
        if mirrored:
            self.layout.swap_physical(p0, p1)
            self.mirrors += 1
        self._emit_local(local)
        self.stall = 0

    # mirror policy --------------------------------------------------
    def _mirror_decision(self, g: Gate, p0: int, p1: int) -> bool:
        """Whether to mirror g.  Called once g is retired, so the front and the
        extended set scored are the ones g's successors will see."""
        if not self.allow_mirror:
            return False
        if self.config.aggression == 3:
            return True
        k_orig, k_mirr = self.counts[self.rows[g.id]]
        score_now, score_mirr = self._mirror_sums(p0, p1)
        if self.config.algorithm == "finesse":
            l_edge = self.cmap.log_weight[p0, p1]
            return score_mirr + k_mirr * l_edge <= score_now + k_orig * l_edge
        # mirage: never worsen the decomposition count; break count ties on
        # the scheduled-depth proxy (the hop heuristic downstream)
        if k_mirr != k_orig:
            return k_mirr < k_orig
        return score_mirr < score_now if self.config.aggression == 1 else score_mirr <= score_now

    def _mirror_sums(self, p0: int, p1: int) -> tuple[float, float]:
        """The lookahead score now and after a swap on (p0, p1), summed over
        the matrix's row tuples as `_heuristic` folds its columns: from 0,
        rows in gate order, then the front sum plus W times the extended
        set's average when it has gates.  Python's float operations are the
        IEEE doubles numpy's are, and hop sums stay exact ints."""
        rows, now, p2v = self.distance_rows, self.layout.physical_list, self.layout.virtual_list
        mirr = now[:]  # the layout after the swap
        mirr[p2v[p0]], mirr[p2v[p1]] = p1, p0
        pairs = self._lookahead().tolist()
        n = len(self.front)
        front = ext = front_mirr = ext_mirr = 0
        for w0, w1 in pairs[:n]:
            front += rows[now[w0]][now[w1]]
            front_mirr += rows[mirr[w0]][mirr[w1]]
        for w0, w1 in pairs[n:]:
            ext += rows[now[w0]][now[w1]]
            ext_mirr += rows[mirr[w0]][mirr[w1]]
        m = len(pairs) - n
        if not m:
            return front, front_mirr
        w = self.config.w
        return front + w * ext / m, front_mirr + w * ext_mirr / m

    # scoring ----------------------------------------------------------
    def _scores(self, columns) -> np.ndarray:
        """The swap table's rows at the lookahead's physical pairs under the
        current layout, one per gate, at ``columns``."""
        flat = self.layout.physical_array[self._lookahead()] @ self.flat
        return self.delta[flat[:, None], columns]

    def _heuristic(self, front_vals: np.ndarray, ext_vals: np.ndarray) -> np.ndarray:
        """Unnormalized front sum plus W-weighted extended-set average, one
        column per candidate."""
        total = _ordered_sum(front_vals)
        if len(ext_vals):  # not +=: hop distances sum as integers
            total = total + self.config.w * _ordered_sum(ext_vals) / len(ext_vals)
        return total

    def _select_swap(self, front_pairs: list[tuple[int, int]]) -> tuple[int, int]:
        """Relative scoring over the edges touching the front layer, in
        `edge_pairs` order, which fixes the tie order."""
        incident = self.cmap.incident
        edges = sorted({e for pair in front_pairs for p in pair for e in incident[p]})
        n = len(self.front)
        delta = self._scores(edges)
        pick = _pick_minimum(self._heuristic(delta[:n], delta[n:]).tolist(), self.rng)
        return self.cmap.edge_tuples[edges[pick]]

    def _apply_swap(self, p0: int, p1: int):
        if self.ops is not None:
            self._emit_two_qubit(RoutedOp("swap", (p0, p1), None, False), self.dists.k_swap)
        self.layout.swap_physical(p0, p1)
        self.swap_trace.append((p0, p1))

    def _release_valve(self, front_pairs: list[tuple[int, int]]):
        """Force the full shortest-path chain for the closest front gate, the
        first in id order on ties."""
        p0, p1 = min(front_pairs, key=self.dists.d_hop.__getitem__)
        while self.dists.d_hop[p0, p1] > 1:
            closer = self.dists.d_hop[:, p1] < self.dists.d_hop[p0, p1]
            step = min(nb for nb in self.cmap.neighbors[p0] if closer[nb])
            self._apply_swap(p0, step)
            p0 = step
        self.stall = 0
        self.valve_fires += 1

    # main loop ------------------------------------------------------
    def run(self) -> PassResult:
        for g in self.dag.roots:
            if g.id in self.rows:
                insort(self.front, g, key=_gate_id)
            else:
                self._emit_local([g, *self._retire(g.id)])

        v2p, on_edge = self.layout.physical_list, self.cmap.fidelity  # swaps update v2p in place
        while self.front:
            pairs = []
            for g in self.front:
                pair = (v2p[g.wires[0]], v2p[g.wires[1]])
                if pair in on_edge:
                    self._execute(g, *pair)
                    break
                pairs.append(pair)
            else:
                if self.stall >= self.config.release_valve_threshold:
                    self._release_valve(pairs)
                else:
                    self._apply_swap(*self._select_swap(pairs))
                    self.stall += 1

        return PassResult(
            final_layout=self.layout,
            ops=self.ops,
            lf_cost=self.lf_cost,
            swap_trace=self.swap_trace,
            swaps=len(self.swap_trace),
            mirrors=self.mirrors,
            valve_fires=self.valve_fires,
        )


def _pick_minimum(scores: list, rng: np.random.Generator) -> int:
    """The index of the least score; among exact ties, the one that one
    ``rng.integers`` draw picks, drawn only when there are ties."""
    best = min(scores)
    ties = [c for c, score in enumerate(scores) if score == best]
    return ties[0] if len(ties) == 1 else ties[int(rng.integers(len(ties)))]


def _ordered_sum(vals: np.ndarray) -> np.ndarray:
    """Column sums of (gates, columns) with the rows added one at a time in
    gate order, as a scalar loop would round them.  ``ndarray.sum`` sums a
    contiguous column pairwise, and Python's ``sum`` of floats is compensated
    from 3.12 on; either would move exact ties.  A block has a row: a swap
    is scored only for a front, and `_heuristic` skips an empty extended
    set.  A one-row block, a front of one gate, is its own sum: its row
    comes back as it is."""
    if len(vals) == 1:
        return vals[0]
    return np.add.accumulate(vals, axis=0)[-1]


class _FirstDrawStream:
    """``seeded_stream(seed, *key)`` as a pass reads it, built on the first
    ``integers`` draw: a pass draws only to break a tie, and many never do."""

    __slots__ = ("key", "stream")

    def __init__(self, *key: int):
        self.key, self.stream = key, None

    def integers(self, high: int):
        if self.stream is None:
            self.stream = seeded_stream(*self.key)
        return self.stream.integers(high)


def route_pass(
    dag: CircuitDag,
    cmap: CouplingMap,
    dists: DistanceSet,
    config: RouterConfig,
    rng: np.random.Generator | _FirstDrawStream,
    initial_layout: Layout,
    emit: bool = True,
    allow_mirror: bool = True,
    *,
    plan: RoutePlan,
) -> PassResult:
    """One pass over ``dag``, which must be ``plan``'s circuit or its reverse."""
    return _Pass(dag, cmap, dists, config, rng, initial_layout, emit, allow_mirror, plan).run()


@dataclass(frozen=True)
class TrialMetrics:
    lf_cost: float
    depth: int
    swap_count: int
    mirror_count: int
    seed: int

    def to_dict(self) -> dict:
        return {
            "lf_cost": self.lf_cost,
            "depth": self.depth,
            "swaps": self.swap_count,
            "mirrors": self.mirror_count,
            "seed": self.seed,
        }


@dataclass(frozen=True)
class RoutingResult:
    ops: tuple[RoutedOp, ...]         # the routed circuit, on physical wires
    initial_layout: tuple[int, ...]   # virtual -> physical at circuit start
    final_layout: tuple[int, ...]     # virtual -> physical at circuit end
    metrics: TrialMetrics
    swap_trace: tuple[tuple[int, int], ...] = ()

    @cached_property
    def circuit(self) -> CircuitDag:
        """The routed circuit as a DAG, built on first access.  Each gate is
        its source gate (a checked swap for a routing swap) placed on the op's
        wires without checking again: those are a fabric edge or the layout's
        images of the source's distinct wires, and only 2q ops carry a mirror
        flag.  `CircuitDag` still checks the ids and the wire range."""
        gates = [(_SWAP if op.source is None else op.source)._placed(i, op.wires, op.mirrored)
                 for i, op in enumerate(self.ops)]
        return CircuitDag(len(self.final_layout), gates)

    @property
    def output_permutation(self) -> tuple[int, ...]:
        """Physical output wire -> virtual wire."""
        inverse = [0] * len(self.final_layout)
        for v, p in enumerate(self.final_layout):
            inverse[p] = v
        return tuple(inverse)


def lf_cost(circuit: CircuitDag, cmap: CouplingMap, basis: BasisGate) -> float:
    """Sum over 2q gates of edge log-weight times decomposition count."""
    total = 0.0
    for g in circuit.gates:
        if not g.is_two_qubit:
            continue
        if not cmap.has_edge(g.wires[0], g.wires[1]):
            raise RoutingError(f"gate {g} does not sit on a coupling-map edge")
        total += cmap.log_weight[g.wires[0], g.wires[1]] * gate_count(g, basis)
    return total


def run_trials(
    dag: CircuitDag,
    cmap: CouplingMap,
    config: RouterConfig,
    seed: int = 0,
    dists: DistanceSet | None = None,
) -> list[RoutingResult]:
    """Route num_seeds independent trials: random layout, then forward,
    reverse, forward passes; the last pass emits the circuit and scores it.
    The fabric's distance set and the circuit's `RoutePlan` are looked up, so
    every call on one fabric or circuit shares them.  ``dists`` may be given
    only as the set `build_distance_set` returns for the fabric and config."""
    integer(seed, "seed", RoutingError, 0)
    n_log, n_phys = dag.num_qubits, cmap.num_physical
    if n_log > n_phys:
        raise RoutingError(f"{n_log} circuit qubits exceed {n_phys} physical qubits")
    own = build_distance_set(cmap, swap_count(config.basis), config.beta)
    # A set built for another fabric or config can leave a pass swapping forever.
    if dists is not None and dists is not own:
        raise RoutingError("distance set is not the one built for this fabric, k_swap and beta")
    dists, plan = own, RoutePlan.of(dag, config.basis, config.extended_size)
    trials = []
    for t in range(config.num_seeds):
        layout = Layout(seeded_stream(seed, t, 0).permutation(n_phys).tolist())
        fwd = route_pass(dag, cmap, dists, config, _FirstDrawStream(seed, t, 1), layout,
                         emit=False, plan=plan)
        rev = route_pass(plan.reverse, cmap, dists, config, _FirstDrawStream(seed, t, 2),
                         fwd.final_layout, emit=False, allow_mirror=False, plan=plan)
        final = route_pass(dag, cmap, dists, config, _FirstDrawStream(seed, t, 3),
                           rev.final_layout, emit=True, plan=plan)
        metrics = TrialMetrics(
            lf_cost=final.lf_cost,
            depth=circuit_depth(final.ops),
            swap_count=final.swaps,
            mirror_count=final.mirrors,
            seed=t,
        )
        trials.append(
            RoutingResult(
                ops=tuple(final.ops),
                initial_layout=tuple(rev.final_layout.to_list()),
                final_layout=tuple(final.final_layout.to_list()),
                metrics=metrics,
                swap_trace=tuple(final.swap_trace),
            )
        )
    return trials


def selection_key(algorithm: str, post_selection: str):
    """Each algorithm's native objective, or log-fidelity cost for all."""
    if post_selection == "fidelity":
        return lambda m: m.lf_cost
    if algorithm == "sabre":
        return lambda m: m.swap_count
    if algorithm == "mirage":
        return lambda m: m.depth
    return lambda m: m.lf_cost


def select_trial(trials: list[RoutingResult], config: RouterConfig) -> RoutingResult:
    if not trials:
        raise RoutingError("no trials to select from")
    key = selection_key(config.algorithm, config.post_selection)
    return min(trials, key=lambda t: key(t.metrics))


def transpile(
    dag: CircuitDag,
    cmap: CouplingMap,
    config: RouterConfig,
    seed: int = 0,
) -> RoutingResult:
    return select_trial(run_trials(dag, cmap, config, seed), config)
