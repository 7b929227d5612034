"""One table for every number that crosses the API: each site gets the same
bad values and must raise its module's typed error naming the field and the
value, in the one wording of `finesse.checks`.  The seeded stream keeps the
draws of the per-module constructors it replaced."""
import math
import re
from dataclasses import replace

import numpy as np
import pytest

from finesse import cli, freqalloc as fa
from finesse.checks import seeded_stream
from finesse.hardware import (
    CouplingMap, TABLE3_MODULES, TopologyError, as_integer, blended_distances, build_snail_fabric,
    fidelity_distances, load_topology,
)
from finesse.ir import CircuitDag, CircuitError, Gate, Layout
from finesse.qasm import parse_qasm
from finesse.router import RouterConfig, RoutingError, run_trials
from finesse.verifier import VerifierError, statevector_equivalent, unitary_equivalent
from finesse.weyl import BasisError, BasisGate

_FIT = fa.CostModelParams(1e12, 1e4, 1e6, 1e5)
_PAIR = parse_qasm("qreg q[2]; cx q[0],q[1];")
_ZEROS = np.zeros((2, 2))

# (id, call with the value, typed error, field as the message names it, least value).
INTEGER_SITES = [
    ("router-extended_size", lambda v: RouterConfig(extended_size=v), RoutingError, "extended_size", 0),
    ("router-aggression", lambda v: RouterConfig(aggression=v), RoutingError, "aggression", 0),
    ("router-release_valve", lambda v: RouterConfig(release_valve_threshold=v), RoutingError,
     "release_valve_threshold", 1),
    ("router-num_seeds", lambda v: RouterConfig(num_seeds=v), RoutingError, "num_seeds", 1),
    ("run_trials-seed", lambda v: run_trials(_PAIR, load_topology("4q4e"), RouterConfig(num_seeds=1), seed=v),
     RoutingError, "seed", 0),
    ("verifier-seed", lambda v: statevector_equivalent(_PAIR, _PAIR, [0, 1], seed=v), VerifierError, "seed", 0),
    ("layout", lambda v: Layout([v]), CircuitError, "layout position 0", 0),
    ("gate-n", lambda v: Gate(0, "root_iswap", (0, 1), n=v), CircuitError, "root_iswap order", 1),
    ("gate-wire", lambda v: Gate(0, "h", (v,)), CircuitError, "a gate wire", 0),
    ("dag-num_qubits", lambda v: CircuitDag(v, ()), CircuitError, "num_qubits", 0),
    ("basis-n", lambda v: BasisGate("root_iswap", v), BasisError, "root_iswap order", 1),
    ("coupling-num_physical", lambda v: CouplingMap(v, ()), TopologyError, "num_physical", 0),
    ("coupling-endpoint", lambda v: CouplingMap(2, ((0, v, 0.9),)), TopologyError,
     "an endpoint of edge (0,{v})", 0),
    ("fidelity_distances-k_swap", lambda v: fidelity_distances(load_topology("4q4e"), v), TopologyError,
     "k_swap", 1),
    ("snail-num_modules", lambda v: build_snail_fabric(TABLE3_MODULES["4q4e"], v), TopologyError,
     "num_modules", 1),
    ("freqmodule-num_qubits", lambda v: fa.FreqModule(v), fa.AllocationError, "num_qubits", 2),
    ("freqmodule-gate", lambda v: fa.FreqModule(3, gates=((0, v),)), fa.AllocationError,
     "a qubit of gate pair (0,{v}) at position 0", 0),
    ("worst_gate_exclusion", lambda v: fa.worst_gate_exclusion(v, [fa.FreqModule(3)]), fa.AllocationError,
     "worst-gate exclusion k", 0),
    ("restart_count", fa.restart_count, fa.AllocationError, "restarts", 1),
    ("optimize-seed", lambda v: fa.optimize_frequencies(fa.FreqModule(2), params=_FIT, seed=v, restarts=1),
     fa.AllocationError, "seed", 0),
    ("golomb-p", fa.golomb_frequencies, fa.AllocationError, "p", 2),
    ("file-integer", as_integer, ValueError, "the value", 0),
]
# (id, call with the value, typed error, field as the message names it, 1 if
# the bound 0 is strict, else 0).
REAL_SITES = [
    *((f"router-{name}", lambda v, name=name: RouterConfig(**{name: v}), RoutingError, name, 0)
      for name in ("beta", "w")),
    ("verifier-tol", lambda v: statevector_equivalent(_PAIR, _PAIR, [0, 1], tol=v), VerifierError, "tol", 0),
    ("verifier-unitary-tol", lambda v: unitary_equivalent(_PAIR, _PAIR, [0, 1], tol=v), VerifierError, "tol", 0),
    ("blended-beta", lambda v: blended_distances(_ZEROS, _ZEROS, v), TopologyError, "beta", 0),
    ("coupling-fidelity", lambda v: CouplingMap(2, ((0, 1, v),)), TopologyError, "the fidelity on (0,1)", 1),
    *((f"constants-{name}", lambda v, name=name: fa.PhysicalConstants(**{name: v}), fa.AllocationError, name, 1)
      for name in ("g3", "lam", "eps_drive", "t1", "anchor_gate_time", "anchor_detuning")),
    *((f"fit-{name}", lambda v, name=name: replace(_FIT, **{name: v}),
       fa.AllocationError, name, 0) for name in ("coh_x0", "coh_x1", "inc_x0", "inc_x1")),
    ("cost-delta_q", lambda v: fa.allocation_cost(fa.FrequencyAssignment((4e9, 5e9), 4.4e9), fa.FreqModule(2),
                                                  _FIT, delta_q=v), fa.AllocationError, "spacing delta_q", 0),
    ("cli-frequency", cli.parse_frequency, ValueError, "a frequency", 0),
    ("bounds-qubit", lambda v: fa.FrequencyBounds(qubit=(v, 5e9)), fa.AllocationError, "a qubit band edge", 0),
    ("bounds-snail", lambda v: fa.FrequencyBounds(snail=(4e9, v)), fa.AllocationError, "a snail band edge", 0),
    ("cost-omega_q", lambda v: fa.allocation_cost(fa.FrequencyAssignment((v, 5e9), 4.4e9), fa.FreqModule(2), _FIT),
     fa.AllocationError, "a frequency", 0),
    ("cost-omega_s", lambda v: fa.allocation_cost(fa.FrequencyAssignment((4e9, 5e9), v), fa.FreqModule(2), _FIT),
     fa.AllocationError, "a frequency", 0),
]
BAD = (True, math.nan, math.inf, -math.inf, "1", None)
# A string is the one thing the file and frequency readers parse.
PARSED = {"file-integer": ("1",), "cli-frequency": ("1",)}


def _cases():
    for site, call, error, field, least in INTEGER_SITES:
        for value in (*BAD, 1.5, least - 1):
            if value not in PARSED.get(site, ()):
                yield pytest.param(call, error, field, "an integer", value, id=f"{site}-{value!r}")
    for site, call, error, field, strict in REAL_SITES:
        for value in (*BAD, -1.0, *((0.0,) if strict else ())):
            if value not in PARSED.get(site, ()):
                yield pytest.param(call, error, field, "a finite real", value, id=f"{site}-{value!r}")


@pytest.mark.parametrize("call, error, field, rule, value", _cases())
def test_every_site_refuses_a_bad_number_by_field_and_value(call, error, field, rule, value):
    """A bool, a non-integer (at an integer site), NaN, either infinity, a
    string, None and a value below the bound are each refused with the
    site's typed error, as '<field> must be <rule>, not <value!r>'."""
    pattern = f"^{re.escape(field.format(v=value))} must be {rule} [^,]+, not {re.escape(repr(value))}$"
    with pytest.raises(error, match=pattern):
        call(value)


def test_every_site_takes_a_numpy_number():
    """numpy integers and floats are numbers at every site."""
    assert RouterConfig(num_seeds=np.int64(3), beta=np.float64(0.5)).num_seeds == 3
    assert Gate(0, "root_iswap", (np.int64(0), 1), n=np.int64(2)).n == 2
    assert BasisGate("root_iswap", np.int32(2)).n == 2
    assert CouplingMap(np.int64(2), ((np.int64(0), 1, np.float64(0.9)),)).num_physical == 2
    assert fa.FreqModule(np.int64(3)).num_qubits == 3
    assert cli.parse_frequency(np.float64(2e8)) == 2e8


@pytest.mark.parametrize("seed", [0, 8, 20, 12345])
def test_restart_streams_match_the_spawned_children(seed):
    """Restart i's stream, keyed (0xA110C, i), draws as the i-th child that
    SeedSequence.spawn gave, so every allocation keeps its bits."""
    children = np.random.SeedSequence(entropy=seed, spawn_key=(0xA110C,)).spawn(5)
    for i, child in enumerate(children):
        assert np.array_equal(seeded_stream(seed, 0xA110C, i).random(6), np.random.default_rng(child).random(6))
