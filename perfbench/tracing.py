"""In-memory spans around public finesse functions, at their call sites.

`instrument` swaps a module attribute for a wrapper that records a span, so
callers that look the name up at call time (``router.run_trials`` calling
``route_pass``, ``bench.verify_result`` calling ``statevector_equivalent``,
``freqalloc`` calling ``scipy.optimize.minimize``) are traced without any
change to the package.  The originals are restored on exit.
"""
from __future__ import annotations

import inspect
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import scipy.optimize

from finesse import bench, freqalloc, router
from sweeps import two_qubit_count


@dataclass
class Span:
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        span = Span(name, self._stack[-1] if self._stack else None, time.perf_counter())
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def wrap(self, fn, name: str, describe=None):
        def wrapper(*args, **kwargs):
            with self.span(name) as span:
                out = fn(*args, **kwargs)
            if describe is not None:
                span.attrs.update(describe(args, kwargs, out))
            return out

        return wrapper


def _covered(intervals) -> float:
    """Total length of the union of (start, end) intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            parent = spans[span.parent]
            clipped = (max(span.start, parent.start), min(span.end, parent.end))
            if clipped[1] > clipped[0]:
                children.setdefault(span.parent, []).append(clipped)
    return [
        (s.end - s.start) - _covered(children.get(i, ())) for i, s in enumerate(spans)
    ]


_PASS_SIGNATURE = inspect.signature(router.route_pass)


def _describe_pass(args, kwargs, result):
    bound = _PASS_SIGNATURE.bind(*args, **kwargs)
    bound.apply_defaults()
    a = bound.arguments
    kind = "final" if a["emit"] else "fwd" if a["allow_mirror"] else "rev"
    return {
        "kind": kind,
        "n2q": two_qubit_count(a["dag"]),
        "swaps": result.swaps,
        "mirrors": result.mirrors,
        "valve_fires": result.valve_fires,
    }


def _describe_minimize(args, kwargs, result):
    return {"nfev": int(result.nfev)}


def _describe_optimize(args, kwargs, result):
    return {"size": args[0].num_qubits}


# (owner, attribute, span name, describe)
TRACE_POINTS = (
    (router, "run_trials", "router.run_trials", None),
    (router, "route_pass", "router.route_pass", _describe_pass),
    (router, "lf_cost", "router.lf_cost", None),
    (router, "circuit_depth", "router.circuit_depth", None),
    (router, "select_trial", "router.select_trial", None),
    (bench, "verify_result", "bench.verify_result", None),
    (bench, "statevector_equivalent", "verifier.statevector_equivalent", None),
    (bench, "clifford_equivalent", "verifier.clifford_equivalent", None),
    (freqalloc, "optimize_frequencies", "freqalloc.optimize_frequencies", _describe_optimize),
    (scipy.optimize, "minimize", "freqalloc.minimize", _describe_minimize),
)


@contextmanager
def instrument(tracer: Tracer):
    originals = [(owner, attr, getattr(owner, attr)) for owner, attr, _, _ in TRACE_POINTS]
    try:
        for (owner, attr, name, describe), (_, _, fn) in zip(TRACE_POINTS, originals):
            setattr(owner, attr, tracer.wrap(fn, name, describe))
        yield tracer
    finally:
        for owner, attr, fn in originals:
            setattr(owner, attr, fn)
