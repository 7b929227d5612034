"""Spectator-aware frequency allocation for tunable-coupler modules.

Per-gate infidelity combines a coherent part (sum over catalog spectator
terms of an empirical 2*x0/(x1+delta)^2 law, detuning measured between the
gate's pump and each spectator's pump-frame resonance) and an incoherent
part (x0/(x1+delta) law in the qubit's offset from half the coupler
frequency).  Both laws are calibrated against first-principles oracles:
the closed-form infidelity of a two-mode-pair hopping propagator for the
coherent channel, a max-pump/lifetime model anchored at 250 ns of gate time
at 1 GHz detuning for the incoherent one.  Assignments are then optimized with Nelder-Mead
under box bounds and a minimum qubit-spacing penalty.

Each resonance rule is one row of RESONANCE_RULES over x = (omega_q..., omega_s,
0): two endpoints and a divisor, the resonance being |x_i - x_j| / divisor.
The loss evaluator expands the catalog into a gather plan once per (module,
params) and evaluates a whole batch of points per call, each to the bits it
gets alone.  The seeded restarts run in lockstep: one round advances every
unconverged restart by one Nelder-Mead iteration, with one batched loss call
per step kind.  scipy's Nelder-Mead, run one restart at a time, is the test
oracle, and every restart matches it bit for bit.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from itertools import combinations
from math import inf, pi

import numpy as np

from .checks import integer, real, seeded_stream

TWO_PI = 2.0 * pi

DEFAULT_QUBIT_BAND = (3.3e9, 5.7e9)
DEFAULT_SNAIL_BAND = (4.2e9, 4.7e9)
DEFAULT_DELTA_Q = 200e6
PENALTY_WEIGHT = 1e3
FIT_RESIDUAL_LIMIT = 0.08


class CalibrationError(RuntimeError):
    pass


class AllocationError(ValueError):
    """A bad module, constant, bound, fit parameter or exclusion count."""


class PumpPoleError(AllocationError):
    pass


@dataclass(frozen=True)
class PhysicalConstants:
    """Device scales; rates are angular (rad/s), frequencies plain Hz."""

    g3: float = TWO_PI * 50e6        # third-order coupler nonlinearity
    lam: float = 0.06                # coupler-qubit hybridization
    eps_drive: float = 1.08          # reference pump strength |eta|
    t1: float = 160e-6               # relaxation time, seconds
    anchor_gate_time: float = 250e-9
    anchor_detuning: float = 1e9

    def __post_init__(self):
        for name in ("g3", "lam", "eps_drive", "t1", "anchor_gate_time", "anchor_detuning"):
            real(getattr(self, name), name, AllocationError, positive=True)
        if self.lam >= 0.5:
            raise AllocationError("hybridization lam must stay well below 1 (lam < 0.5)")

    @property
    def drive_rate(self) -> float:
        """Target conversion rate g1 = 6 |eta| g3 lam^2 (rad/s)."""
        return 6.0 * self.eps_drive * self.g3 * self.lam**2

    @property
    def anchor_eta(self) -> float:
        """Pump strength that yields the anchor gate time for a full iswap."""
        return pi / (12.0 * self.g3 * self.lam**2 * self.anchor_gate_time)


# Intra-module resonance rules: (x_i, x_j, divisor, key tag).  "a" and "b"
# range over the qubits (pairs a < b), "s" is the coupler and "0" is zero.
RESONANCE_RULES = {
    "pair_conversion": ("a", "b", 1, "pair"),
    "snail_sub2": ("s", "0", 2, "snail_sub2"),
    "snail_sub3": ("s", "0", 3, "snail_sub3"),
    "snail_qubit": ("s", "a", 1, "sq"),
    "snail_qubit_half": ("s", "a", 2, "sqh"),
    "qubit_sub2": ("a", "0", 2, "q2"),
    "qubit_sub3": ("a", "0", 3, "q3"),
}


@dataclass(frozen=True)
class SpectatorTerm:
    """One catalog row: category, normalized prefactor, resonance rule."""

    category: str        # driven | intra_module | inter_module
    normalized_prefactor: float
    rule: str

    def resonances(self, n: int) -> list[tuple[int, int, int, tuple]]:
        """(i, j, divisor, key) rows in key order: each resonance is
        |x_i - x_j| / divisor over x = (omega_q[0..n-1], omega_s, 0)."""
        if self.rule not in RESONANCE_RULES:
            raise AllocationError(f"inter-module rule {self.rule!r} needs neighbor frequencies")
        i, j, divisor, tag = RESONANCE_RULES[self.rule]
        if j == "b":
            return [(a, b, divisor, (tag, a, b)) for a in range(n) for b in range(a + 1, n)]
        at = {"s": n, "0": n + 1}
        if "a" in (i, j):
            return [(at.get(i, a), at.get(j, a), divisor, (tag, a)) for a in range(n)]
        return [(at[i], at[j], divisor, (tag,))]


# Order-of-magnitude catalog for driven, intra-module, and inter-module
# spectator terms, sorted by normalized prefactor within each block; each
# row's comment is the term's operator form.
SPECTATOR_CATALOG = (
    SpectatorTerm("driven", 1.0, "pair_conversion"),                    # qa^ qb + qa qb^
    SpectatorTerm("intra_module", 100.0, "snail_sub2"),                 # s^ + s
    SpectatorTerm("intra_module", 10.0, "snail_qubit"),                 # s^ qa + s qa^
    SpectatorTerm("intra_module", 10.0, "qubit_sub2"),                  # qa^ + qa
    SpectatorTerm("intra_module", 0.067, "snail_qubit_half"),           # s^ qa + s qa^
    SpectatorTerm("intra_module", 0.044, "qubit_sub3"),                 # qa^ + qa
    SpectatorTerm("intra_module", 0.018, "snail_sub3"),                 # s^ + s
    SpectatorTerm("inter_module", 1.0, "neighbor_snail_sub2"),          # sn^ + sn
    SpectatorTerm("inter_module", 0.1, "neighbor_snail_qubit"),         # s^ qc + s qc^
    SpectatorTerm("inter_module", 0.1, "neighbor_qubit_sub2"),          # qc^ + qc
    SpectatorTerm("inter_module", 0.01, "cross_module_conversion"),     # qa^ qc + qa qc^
    SpectatorTerm("inter_module", 0.001, "neighbor_snail_conversion"),  # sn^ qa + sn qa^
    SpectatorTerm("inter_module", 0.0001, "neighbor_pair_conversion"),  # qc^ qd + qc qd^
)

INTRA_CATALOG = tuple(t for t in SPECTATOR_CATALOG if t.category in ("driven", "intra_module"))

# Spectator families summed coherently by the allocation loss: qubit-qubit
# conversions, coupler-qubit conversions, and qubit subharmonics.  The
# coupler subharmonic rows are the pump-breakdown channel and enter through
# the incoherent term instead.
LOSS_RULES = frozenset(
    {"pair_conversion", "snail_qubit", "snail_qubit_half", "qubit_sub2", "qubit_sub3"}
)
LOSS_CATALOG = tuple(t for t in INTRA_CATALOG if t.rule in LOSS_RULES)


@dataclass(frozen=True)
class FrequencyAssignment:
    """Qubit and coupler frequencies for one module (Hz)."""

    omega_q: tuple[float, ...]
    omega_s: float

    def conversion(self, a: int, b: int) -> float:
        return abs(self.omega_q[a] - self.omega_q[b])

    @property
    def min_qubit_separation(self) -> float:
        n = len(self.omega_q)
        if n < 2:
            return float("inf")
        return min(
            abs(self.omega_q[a] - self.omega_q[b])
            for a in range(n)
            for b in range(a + 1, n)
        )


@dataclass(frozen=True)
class FreqModule:
    """Gate pairs sharing one coupler; default is every qubit pair."""

    num_qubits: int
    gates: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        n = integer(self.num_qubits, "num_qubits", AllocationError, 2)
        if not self.gates:
            object.__setattr__(self, "gates", tuple(combinations(range(n), 2)))
        seen = set()
        for pos, (a, b) in enumerate(self.gates):
            for v in (a, b):
                integer(v, f"a qubit of gate pair ({a},{b}) at position {pos}", AllocationError, 0, n - 1)
            if a == b or (min(a, b), max(a, b)) in seen:
                raise AllocationError(f"bad or repeated gate pair ({a},{b}) at position {pos}")
            seen.add((min(a, b), max(a, b)))


def golomb_frequencies(p: int) -> list[float]:
    """Erdos-Turan ruler: f_k = 2*p*k + k^2 mod p, k = 0..p-1.

    Pairwise differences are all distinct when p is prime.
    """
    integer(p, "p", AllocationError, 2)
    if any(p % d == 0 for d in range(2, int(p**0.5) + 1)):
        warnings.warn(f"p={p} is composite; pairwise-difference distinctness not guaranteed", stacklevel=2)
    return [float(2 * p * k + (k * k) % p) for k in range(p)]


# Clamps with np.clip's bits, NaN kept: np.maximum(0.0, v) is v on a tie, -0.0 too.
def coherent_infidelity(delta, x0, x1):
    """Empirical spectator law 2*x0/(x1+delta)^2, clamped to [0, 1]; elementwise."""
    return np.minimum(np.maximum(0.0, 2.0 * x0 / (x1 + delta) ** 2), 1.0)


def incoherent_infidelity(delta, x0, x1):
    """Lifetime law x0/(x1+delta), clamped to [0, 1]; elementwise."""
    return np.minimum(np.maximum(0.0, x0 / (x1 + delta)), 1.0)


def compose_infidelity(eps_coh, eps_inc):
    """Independent-channel combination 1 - (1-inc)(1-coh); elementwise."""
    return 1.0 - (1.0 - eps_inc) * (1.0 - eps_coh)


def pump_strength(omega_p: float, omega_s: float, eps_drive: float) -> float:
    """|eta| = eps * omega_s / (omega_p^2 - omega_s^2), away from the pole."""
    if abs(omega_p - omega_s) <= 1e-9 * max(abs(omega_s), 1.0):
        raise PumpPoleError("pump frequency sits on the coupler resonance")
    return abs(eps_drive * omega_s / (omega_p**2 - omega_s**2))


def iswap_gate_time(n: int, eta: float, g3: float, lam: float) -> float:
    """Pulse duration t_f = pi / (12 n |eta| g3 lam^2) for the n-th root."""
    if n < 1 or eta <= 0 or g3 <= 0 or lam <= 0:
        raise AllocationError("n, eta, g3, lam must all be positive")
    return pi / (12.0 * n * abs(eta) * g3 * lam**2)


def max_pump_eta(delta: float, constants: PhysicalConstants) -> float:
    """Usable pump strength vs detuning from the coupler subharmonic.

    Linear in delta and pinned to the anchor operating point: the breakdown
    data behind it is summarized by that single calibrated point.
    """
    if delta <= 0:
        raise AllocationError("detuning must be positive")
    return constants.anchor_eta * (delta / constants.anchor_detuning)


# --- calibration oracles -------------------------------------------------

def bounded_spectator_infidelity(
    delta: float, prefactor_ratio: float, constants: PhysicalConstants
) -> float:
    """Average gate infidelity of exp(-i(pi/2 T + a S)) against exp(-i pi/2 T)
    on four two-level modes, a = 2 g2 / (2 pi delta).

    T = q1^dag q2 + h.c. is the target hopping, one full iswap at g1 t = pi/2;
    S = q3^dag q4 + h.c. is the spectator's, its amplitude carrying the
    conservative 2/delta bound so the propagator is time independent.  T and
    S act on disjoint modes and commute, so the error is exp(-i a S) alone,
    whose trace over the 16 states is 8 (1 + cos a): the infidelity is
    1 - (1 + 4 (1 + cos a)^2) / 17.
    """
    g2 = prefactor_ratio * constants.drive_rate
    amp = 2.0 * g2 / (TWO_PI * delta)
    return 1.0 - (1.0 + 4.0 * (1.0 + math.cos(amp)) ** 2) / 17.0


def _default_coherent_grid(prefactor_ratio: float, constants: PhysicalConstants) -> np.ndarray:
    g2 = max(prefactor_ratio, 1e-6) * constants.drive_rate
    delta_min = 2.0 * g2 / (TWO_PI * 0.4)  # spectator amplitude 0.4 rad
    return np.geomspace(delta_min, 100.0 * delta_min, 25)


def calibrate_coherent_model(
    prefactor_ratio: float,
    constants: PhysicalConstants = PhysicalConstants(),
) -> tuple[float, float]:
    """Least-squares fit of the coherent law to the spectator oracle
    over ``_default_coherent_grid``.

    The law linearizes as 1/sqrt(eps) = (x1 + delta)/sqrt(2 x0), so the fit
    is a degree-1 polynomial in delta.
    """
    grid = _default_coherent_grid(prefactor_ratio, constants)
    eps = np.array([bounded_spectator_infidelity(d, prefactor_ratio, constants) for d in grid])
    if np.max(eps) < 1e-14:
        return 0.0, 1.0  # no spectator: degenerate fit, x0 -> 0
    y = 1.0 / np.sqrt(eps)
    slope, intercept = np.polyfit(grid, y, 1)
    x0 = 1.0 / (2.0 * slope**2)
    x1 = intercept / slope
    model = coherent_infidelity(grid, x0, x1)
    residual = float(np.sqrt(np.mean((model / eps - 1.0) ** 2)))
    if residual > FIT_RESIDUAL_LIMIT:
        raise CalibrationError(
            f"coherent fit residual {residual:.3g} exceeds {FIT_RESIDUAL_LIMIT}"
            f" (ratio {prefactor_ratio}, grid {grid[0]:.3g}..{grid[-1]:.3g} Hz)"
        )
    return float(x0), float(x1)


def calibrate_incoherent_model(constants: PhysicalConstants = PhysicalConstants()) -> tuple[float, float]:
    """Fit the lifetime law to the max-pump gate-duration curve over
    detunings of 50 MHz to 5 GHz.

    t_f(delta) scales inversely with the usable pump strength; decoherence
    loss is 1 - exp(-t_f/T1).  1/eps is close to linear in delta.
    """
    grid = np.geomspace(5e7, 5e9, 25)
    t_f = np.array(
        [
            iswap_gate_time(1, max_pump_eta(d, constants), constants.g3, constants.lam)
            for d in grid
        ]
    )
    eps = 1.0 - np.exp(-t_f / constants.t1)
    slope, intercept = np.polyfit(grid, 1.0 / eps, 1)
    x0 = 1.0 / slope
    x1 = intercept / slope
    model = incoherent_infidelity(grid, x0, x1)
    residual = float(np.sqrt(np.mean((model / eps - 1.0) ** 2)))
    if residual > FIT_RESIDUAL_LIMIT:
        raise CalibrationError(f"incoherent fit residual {residual:.3g} exceeds {FIT_RESIDUAL_LIMIT}")
    return float(x0), float(x1)


@dataclass(frozen=True)
class CostModelParams:
    """Base fit parameters; each catalog category scales them by its prefactor.

    The bounded-spectator oracle obeys eps_R(delta) = eps_1(delta/R) exactly,
    so a category with normalized prefactor R carries the pair (x0 R^2, x1 R)
    and its F = 0.99 crossing grows linearly in R.
    """

    coh_x0: float
    coh_x1: float
    inc_x0: float
    inc_x1: float

    def __post_init__(self):
        for name in ("coh_x0", "coh_x1", "inc_x0", "inc_x1"):
            real(getattr(self, name), name, AllocationError)

    def coherent_for(self, prefactor: float) -> tuple[float, float]:
        return self.coh_x0 * prefactor**2, self.coh_x1 * prefactor


def calibrate_cost_model(constants: PhysicalConstants = PhysicalConstants()) -> CostModelParams:
    coh_x0, coh_x1 = calibrate_coherent_model(1.0, constants)
    inc_x0, inc_x1 = calibrate_incoherent_model(constants)
    return CostModelParams(coh_x0, coh_x1, inc_x0, inc_x1)


# --- allocation cost and optimizer ---------------------------------------


def worst_gate_exclusion(k: int, modules) -> int:
    """k, if dropping the k worst gates leaves each of `modules` (anything with
    `.gates`) at least one."""
    integer(k, "worst-gate exclusion k", AllocationError, 0)
    if any(k >= len(m.gates) for m in modules):
        raise AllocationError(f"worst-gate exclusion k={k} must leave every module a gate")
    return k


def restart_count(restarts: int) -> int:
    """restarts, if Nelder-Mead gets at least one."""
    return integer(restarts, "restarts", AllocationError, 1)


class _CostEvaluator:
    """Vectorized Algorithm-1 loss for one module and parameter set, over a
    batch of points.

    __init__ builds a gather plan.  Over x = (omega_q..., omega_s, 0), one
    row per quantity and one column per point, f = |x[i] - x[j]| / div holds
    every loss-catalog resonance (catalog order, then key order, so the
    qubit-pair gaps lead in triu order), then every gate's pump
    |w_a - w_b| / 1, every qubit |w_a - 0| / 1 and the coupler subharmonic
    |omega_s - 0| / 2.  Each pump minus each resonance gives the
    (resonances, gates) detunings; each gate's incoherent detuning is
    |w_a - omega_s/2|.  Dividing by 1 is exact, so for frequencies >= 0
    every value has the bits of its direct expression.
    """

    def __init__(self, module: FreqModule, params: CostModelParams, k: int, delta_q: float):
        self.params = params
        self.k = worst_gate_exclusion(k, [module])
        self.delta_q = real(delta_q, "spacing delta_q", AllocationError)
        n, g = module.num_qubits, len(module.gates)
        # Catalog order, then key order: the coherent sum adds rows in it.
        i, j, div, keys, x0, x1 = zip(
            *(
                (*row, *params.coherent_for(term.normalized_prefactor))
                for term in LOSS_CATALOG
                for row in term.resonances(n)
            )
        )
        r = len(keys)
        self.x0, self.x1 = np.array(x0)[:, None, None], np.array(x1)[:, None, None]
        # Each gate's own pair conversion, which its coherent sum leaves out.
        self.own = np.nonzero([[key == ("pair", *sorted(gate)) for gate in module.gates] for key in keys])
        gate_a, gate_b = np.array(module.gates).T
        self.i = np.concatenate((i, gate_a, np.arange(n + 1)))
        self.j = np.concatenate((j, gate_b, np.full(n + 1, n + 1)))
        self.div = np.concatenate((div, np.ones(g + n), [2.0]))[:, None]
        self.pumps, self.qubits = slice(r, r + g), r + g + gate_a
        self.pairs = n * (n - 1) // 2
        self.kept = slice(g - 1 - self.k, None, -1)  # sorted ascending: all but the k worst

    def losses(self, w: np.ndarray):
        """(cost, eps_coh, eps_inc, eps_gate) of each row of w, a (B, n+1)
        array of points (omega_q..., omega_s): B costs, and (gates, B) eps
        arrays in module.gates order.

        Gate (a, b) is pumped at |w_a - w_b|.  Its coherent part sums the
        coherent law over every loss-catalog resonance except its own pair
        conversion, detuning measured from the pump, clamped to [0, 1].  Its
        incoherent part is the lifetime law at |w_a - omega_s/2|.  The cost
        sums eps_gate over all but the k worst gates, plus the spacing
        penalty.  Each point gets the bits it gets alone: every sum runs in
        a fixed order.
        """
        x = np.concatenate((w.T, np.zeros((1, len(w)))))
        f = np.abs(x[self.i] - x[self.j]) / self.div
        # (resonances, gates, points): each pump's detuning from each resonance.
        eps = coherent_infidelity(np.abs(f[self.pumps] - f[: len(self.x0), None]), self.x0, self.x1)
        eps[self.own] = 0.0
        # Clamped terms plus the +0.0 own term: the sum is never below +0.0.
        eps_coh = np.minimum(_pairwise_sum(eps), 1.0)
        eps_inc = incoherent_infidelity(np.abs(f[self.qubits] - f[-1]), self.params.inc_x0, self.params.inc_x1)
        eps_gate = compose_infidelity(eps_coh, eps_inc)
        kept = np.sort(eps_gate, axis=0)[self.kept]
        return _pairwise_sum(kept) + self.penalty(f[: self.pairs]), eps_coh, eps_inc, eps_gate

    def penalty(self, gaps: np.ndarray) -> np.ndarray:
        """Per column of gaps, the sum of PENALTY_WEIGHT*((delta_q - gap)/delta_q)^2
        over the qubit-pair gaps closer than delta_q, in row order."""
        close = gaps < self.delta_q
        if not close.any():
            return np.zeros(gaps.shape[1])
        terms = np.zeros(gaps.shape)
        # libm pow, as a float's ** 2 uses: an array's ** 2 multiplies,
        # which differs in the last bit now and then.
        terms[close] = [math.pow(d, 2) for d in ((self.delta_q - gaps[close]) / self.delta_q).tolist()]
        terms *= PENALTY_WEIGHT
        # A sequential sum from +0.0; the far gaps add +0.0, which keeps it.
        return np.cumsum(terms, axis=0)[-1]

    def gate_infidelities(self, omega_q: np.ndarray, omega_s: float):
        """Per-gate (eps_coh, eps_inc, eps_gate) arrays of one point."""
        _, *eps = self.losses(np.append(omega_q, omega_s)[None])
        return tuple(e[:, 0] for e in eps)

    def cost(self, omega_q: np.ndarray, omega_s: float) -> float:
        return float(self.losses(np.append(omega_q, omega_s)[None])[0][0])


def _pairwise_sum(a: np.ndarray) -> np.ndarray:
    """Sums over the first axis, in the order np.add.reduce adds a contiguous
    1-D array: under 8 terms in sequence; up to 128 in 8 lanes (a[0:8], plus
    each later whole block of 8), combined as ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)),
    then the tail in sequence; past 128, the two halves split at a multiple
    of 8.  numpy's own order for a batch depends on its shape.
    """
    m = len(a)
    if m > 128:
        half = m // 2 - m // 2 % 8
        return _pairwise_sum(a[:half]) + _pairwise_sum(a[half:])
    end = m - m % 8 if m >= 8 else 1
    if m >= 8:
        lanes = a[:8]
        for i in range(8, end, 8):
            lanes = lanes + a[i : i + 8]
        pairs = lanes[0::2] + lanes[1::2]
        res = pairs[0] + pairs[1] + (pairs[2] + pairs[3])
    else:
        res = a[0]
    for i in range(end, m):
        res = res + a[i]
    return res


def _omega_q(assign: FrequencyAssignment, module: FreqModule) -> np.ndarray:
    """assign.omega_q as an array, once it fits the module and every frequency is a real."""
    if len(assign.omega_q) != module.num_qubits:
        raise AllocationError(f"{len(assign.omega_q)} qubit frequencies for a {module.num_qubits}-qubit module")
    for w in (*assign.omega_q, assign.omega_s):
        real(w, "a frequency", AllocationError)
    return np.asarray(assign.omega_q, dtype=float)


def allocation_cost(
    assign: FrequencyAssignment,
    module: FreqModule,
    params: CostModelParams,
    k: int = 0,
    delta_q: float = DEFAULT_DELTA_Q,
) -> float:
    """Algorithm-1 loss: eps_gate summed over all but the k worst gates, plus
    the spacing penalty (see _CostEvaluator.gate_infidelities and .penalty)."""
    ev = _CostEvaluator(module, params, k, delta_q)
    return ev.cost(_omega_q(assign, module), assign.omega_s)


@dataclass(frozen=True)
class GateInfidelityReport:
    gates: tuple[tuple[int, int], ...]
    eps_coh: tuple[float, ...]
    eps_inc: tuple[float, ...]
    eps_gate: tuple[float, ...]
    geometric_mean_fidelity: float
    min_interaction_separation: float
    min_qubit_separation: float
    feasible: bool

    def to_dict(self) -> dict:
        return {
            "gates": [list(g) for g in self.gates],
            "eps_coh": list(self.eps_coh),
            "eps_inc": list(self.eps_inc),
            "eps_gate": list(self.eps_gate),
            "geometric_mean_fidelity": self.geometric_mean_fidelity,
            "min_interaction_separation_hz": self.min_interaction_separation,
            "min_qubit_separation_hz": self.min_qubit_separation,
            "feasible": self.feasible,
        }


def build_report(
    assign: FrequencyAssignment,
    module: FreqModule,
    params: CostModelParams,
    delta_q: float = DEFAULT_DELTA_Q,
) -> GateInfidelityReport:
    ev = _CostEvaluator(module, params, 0, delta_q)
    eps_coh, eps_inc, eps_gate = ev.gate_infidelities(_omega_q(assign, module), assign.omega_s)
    fid = np.clip(1.0 - eps_gate, 1e-12, 1.0)
    geo = float(np.exp(np.mean(np.log(fid))))
    pumps = [assign.conversion(a, b) for a, b in module.gates]
    min_sep = min((abs(p - q) for p, q in combinations(pumps, 2)), default=inf)
    return GateInfidelityReport(
        gates=tuple(module.gates),
        eps_coh=tuple(float(e) for e in eps_coh),
        eps_inc=tuple(float(e) for e in eps_inc),
        eps_gate=tuple(float(e) for e in eps_gate),
        geometric_mean_fidelity=geo,
        min_interaction_separation=float(min_sep),
        min_qubit_separation=float(assign.min_qubit_separation),
        # The spacing penalty is flat at the boundary, so optima can sit a
        # rounding error inside it.
        feasible=bool(assign.min_qubit_separation >= delta_q * (1.0 - 1e-5)),
    )


@dataclass(frozen=True)
class FrequencyBounds:
    qubit: tuple[float, float] = DEFAULT_QUBIT_BAND
    snail: tuple[float, float] = DEFAULT_SNAIL_BAND

    def __post_init__(self):
        for band, edges in (("qubit", self.qubit), ("snail", self.snail)):
            lo, hi = (real(edge, f"a {band} band edge", AllocationError) for edge in edges)
            if not lo < hi:
                raise AllocationError(f"the {band} band must be an increasing interval, not {edges!r}")


GHZ = 1e9  # Nelder-Mead works in GHz, for conditioning
NM_MAX_ITER = 10_000
NM_XATOL = 1e-8
NM_FATOL = 1e-12
NM_RESTARTS = 16
# Trial point = c * centroid - d * worst vertex, rows (c, d): scipy's inside
# contraction (written 0.5*centroid + 0.5*worst), outside contraction and
# expansion, at its non-adaptive coefficients.
_NM_STEPS = np.array([[0.5, -0.5], [1.5, 0.5], [3.0, 2.0]])


def nelder_mead(loss, starts: np.ndarray, lo: np.ndarray, hi: np.ndarray):
    """Bounded Nelder-Mead from each row of starts, all in lockstep.

    Per start this is scipy 1.17's ``minimize(method="Nelder-Mead")`` with
    bounds (lo, hi), ``xatol=NM_XATOL``, ``fatol=NM_FATOL``,
    ``maxiter=NM_MAX_ITER`` and ``adaptive=False``, to the bit: the start
    clipped into the bounds, the 5% initial simplex reflected and clipped
    into them, every trial point clipped, the vertices argsorted after each
    iteration.  One round advances every unconverged start by one iteration;
    loss maps a (B, N) array of points to their B values, and each round
    calls it on the reflections, then on the expansion or contraction points
    that are needed, then on any shrunk vertices.  Returns (x, fun) arrays.
    """
    b, n = starts.shape
    x0 = np.clip(starts, lo, hi)
    sim = np.repeat(x0[:, None], n + 1, axis=1)
    sim[:, 1 + np.arange(n), np.arange(n)] = np.where(x0 != 0, 1.05 * x0, 0.00025)
    sim = np.clip(np.where(sim > hi, 2 * hi - sim, sim), lo, hi)
    fsim = loss(sim.reshape(-1, n)).reshape(b, n + 1)
    rows = np.arange(b)[:, None]
    for _ in range(2):  # scipy sorts the first simplex twice
        order = np.argsort(fsim, axis=1)
        sim, fsim = sim[rows, order], fsim[rows, order]
    x, fun = np.empty((b, n)), np.empty(b)
    live = np.arange(b)
    for _ in range(1, NM_MAX_ITER):
        # scipy ands the two tests; the one on values is the cheaper.
        near = np.abs(fsim[:, :1] - fsim[:, 1:]).max(axis=1) <= NM_FATOL
        if near.any():
            done = near & (np.abs(sim[:, 1:] - sim[:, :1]).max(axis=(1, 2)) <= NM_XATOL)
            if done.any():
                x[live[done]], fun[live[done]] = sim[done, 0], fsim[done].min(axis=1)
                live, sim, fsim, rows = live[~done], sim[~done], fsim[~done], rows[: (~done).sum()]
                if not live.size:
                    return x, fun
        xbar = sim[:, 0]
        for j in range(1, n):  # in scipy's order
            xbar = xbar + sim[:, j]
        xbar = xbar / n
        worst = sim[:, -1]
        new = np.clip(2 * xbar - worst, lo, hi)
        fnew = loss(new)
        # Negated comparisons, so that a NaN takes scipy's branches.
        expand = fnew < fsim[:, 0]
        contract = ~(expand | (fnew < fsim[:, -2]))
        second = np.flatnonzero(expand | contract)
        shrink = second[:0]
        if second.size:
            # Per second point: 0 inside contraction, 1 outside, 2 expansion.
            kind = (2 * expand + (contract & (fnew < fsim[:, -1])))[second]
            xt = np.clip(_NM_STEPS[kind, :1] * xbar[second] - _NM_STEPS[kind, 1:] * worst[second], lo, hi)
            ft = loss(xt)
            # An expansion point replaces the reflection if better, an
            # outside contraction if no worse; an inside one must beat the
            # worst vertex.  A contraction that fails shrinks the simplex.
            bar = np.where(kind == 0, fsim[second, -1], fnew[second])
            took = (ft < bar) | ((kind == 1) & (ft == bar))
            new[second[took]], fnew[second[took]] = xt[took], ft[took]
            shrink = second[~took & (kind < 2)]
            new[shrink], fnew[shrink] = worst[shrink], fsim[shrink, -1]  # shrunk below
        sim[:, -1], fsim[:, -1] = new, fnew
        if shrink.size:
            best = sim[shrink, :1]
            sim[shrink, 1:] = np.clip(best + 0.5 * (sim[shrink, 1:] - best), lo, hi)
            fsim[shrink, 1:] = loss(sim[shrink, 1:].reshape(-1, n)).reshape(len(shrink), n)
        order = np.argsort(fsim, axis=1)
        sim, fsim = sim[rows, order], fsim[rows, order]
    x[live], fun[live] = sim[:, 0], fsim.min(axis=1)
    return x, fun


def restart_points(n: int, bounds: FrequencyBounds, seed: int, restarts: int) -> np.ndarray:
    """The (restarts, n+1) seeded starting points, in GHz: jittered
    ruler-spaced qubits plus a random coupler placement.

    The ruler is the separation-optimal construction this allocation
    problem relaxes, and restarts drawn from its neighborhood track the
    solution family with well-spread interaction frequencies.  Uniform
    starts instead collapse onto spacing-penalty-boundary packings.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # composite n is fine for a seed
        marks = np.array(golomb_frequencies(n))
    (q_lo, q_hi), (s_lo, s_hi) = bounds.qubit, bounds.snail
    starts = []
    for i in range(restarts):
        rng = seeded_stream(seed, 0xA110C, i)
        span = (q_hi - q_lo) * (0.35 + 0.65 * rng.random())
        qs = q_lo + rng.random() * (q_hi - q_lo - span) + marks / marks[-1] * span
        qs = np.clip(qs + rng.normal(0.0, 0.01 * span, size=n), q_lo, q_hi)
        starts.append(np.concatenate([qs, [s_lo + rng.random() * (s_hi - s_lo)]]) / GHZ)
    return np.array(starts)


def optimize_frequencies(
    module: FreqModule,
    bounds: FrequencyBounds = FrequencyBounds(),
    params: CostModelParams | None = None,
    k: int = 0,
    delta_q: float = DEFAULT_DELTA_Q,
    seed: int = 0,
    restarts: int = NM_RESTARTS,
) -> tuple[FrequencyAssignment, GateInfidelityReport]:
    """Nelder-Mead minimization of the allocation cost from seeded restarts.

    The restarts run in lockstep through ``nelder_mead`` (scipy's
    Nelder-Mead, bit for bit, is its test oracle), trial points clamped to
    the box bounds.  The best restart is kept, then polished from itself;
    if it misses the qubit-spacing constraint the best-effort assignment is
    returned with the report flagged infeasible.
    """
    restart_count(restarts)
    integer(seed, "seed", AllocationError, 0)
    if params is None:
        params = calibrate_cost_model()
    ev = _CostEvaluator(module, params, k, delta_q)
    n = module.num_qubits
    lo = np.array([bounds.qubit[0]] * n + [bounds.snail[0]]) / GHZ
    hi = np.array([bounds.qubit[1]] * n + [bounds.snail[1]]) / GHZ

    def loss(x: np.ndarray) -> np.ndarray:
        return ev.losses(x * GHZ)[0]

    starts = restart_points(n, bounds, seed, restarts)
    xs, funs = nelder_mead(loss, starts, lo, hi)
    best = int(np.argmin(np.where(np.isnan(funs), inf, funs)))  # the first of a tie
    best_x, best_cost = xs[best], float(funs[best])
    # NM stalls in shallow basins on the larger modules; restart from the
    # incumbent until it stops paying.
    for _ in range(8):
        x, fun = nelder_mead(loss, best_x[None], lo, hi)
        if fun[0] >= best_cost - 1e-12:
            break
        best_cost, best_x = float(fun[0]), x[0]
    assign = FrequencyAssignment(
        omega_q=tuple(float(v) for v in best_x[:n] * GHZ),
        omega_s=float(best_x[n] * GHZ),
    )
    report = build_report(assign, module, params, delta_q)
    if not report.feasible:
        warnings.warn(
            f"no assignment met the {delta_q / 1e6:.0f} MHz qubit spacing; "
            "returning best effort",
            stacklevel=2,
        )
    return assign, report


def fidelity_table(
    report: GateInfidelityReport, name: str = "module", drop_worst: int = 0
):
    """Emit the optimized module as a hardware ModuleSpec: each gate, in
    module gate order, beside its own fidelity C = 1 - eps_gate, less the
    ``drop_worst`` gates of largest eps_gate (ties broken by gate pair).  C
    is floored at `hardware.FIDELITY_FLOOR`, as `CouplingMap.log_weight`
    floors it, so a gate whose eps_gate saturates at 1 writes an edge the
    fixture format reads and routes as the model's gate would."""
    from .hardware import FIDELITY_FLOOR, ModuleSpec

    if not report.gates:
        raise AllocationError("empty module: no gates to tabulate")
    best_first = sorted(range(len(report.gates)), key=lambda g: (report.eps_gate[g], report.gates[g]))
    kept = sorted(best_first[: len(report.gates) - worst_gate_exclusion(drop_worst, [report])])
    return ModuleSpec(
        qubits_per_module=max(max(a, b) for a, b in report.gates) + 1,
        edges_per_module=tuple(report.gates[g] for g in kept),
        edge_fidelities=tuple(max(1.0 - report.eps_gate[g], FIDELITY_FLOOR) for g in kept),
        name=name,
    )
