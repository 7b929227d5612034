"""Frequency allocation and fidelity-aware transpilation for coupler fabrics.

`__all__` is the library's one declared surface: the routing, verification
and allocation entry points.  Every other function and method is read by
code in the package itself, and a listed name that nothing in the package
calls says why it is kept.
"""

from .hardware import (
    CouplingMap, DistanceSet, ModuleSpec, TopologyError, blended_distances, build_distance_set,
    build_snail_fabric, fabric_suite, fidelity_distances, hop_distances, load_topology,
)
from .ir import CircuitDag, CircuitError, Gate, Layout, circuit_depth
from .qasm import QasmError, load_qasm, parse_qasm, serialize_qasm
from .router import RouterConfig, RoutingError, RoutingResult, lf_cost, run_trials, select_trial, transpile
from .verifier import clifford_equivalent, statevector_equivalent, unitary_equivalent
from .weyl import BasisGate, basis_gate_count, gate_unitary, weyl_coordinates
from .freqalloc import (
    AllocationError, CostModelParams, FreqModule, FrequencyAssignment, FrequencyBounds,
    PumpPoleError, allocation_cost, build_report, calibrate_cost_model, optimize_frequencies,
    pump_strength,
)

__all__ = [
    # circuits and fabrics
    "CircuitDag", "CircuitError", "Gate", "Layout", "circuit_depth",
    "QasmError", "load_qasm", "parse_qasm", "serialize_qasm",
    "CouplingMap", "DistanceSet", "ModuleSpec", "TopologyError", "blended_distances",
    "build_distance_set", "build_snail_fabric", "fabric_suite", "fidelity_distances",
    "hop_distances", "load_topology",
    "BasisGate", "basis_gate_count", "gate_unitary", "weyl_coordinates",
    # routing
    "RouterConfig", "RoutingError", "RoutingResult", "run_trials", "select_trial", "transpile",
    "lf_cost",  # LF by definition: the final pass's running sum must equal it; perfbench traces it
    # verification
    "clifford_equivalent", "statevector_equivalent", "unitary_equivalent",
    # allocation (Algorithm 1)
    "AllocationError", "CostModelParams", "FreqModule", "FrequencyAssignment", "FrequencyBounds",
    "build_report", "calibrate_cost_model", "optimize_frequencies",
    "allocation_cost",  # the documented entry point for the Algorithm-1 loss of one assignment
    "pump_strength",  # the paper's eta(omega_p, omega_s) relation, tested API
    "PumpPoleError",  # what pump_strength raises at its pole
]

__version__ = "0.1.0"
