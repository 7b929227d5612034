"""The host's speed, read from a fixed loop that shares no code with finesse.

The benchmark runs on a few cores of a shared host whose speed moves by a
third or more over tens of seconds, as its other tenants come and go.  Each
timed unit is followed by one probe: a pure-Python loop of fixed work.  A
timing is reported in reference seconds, the seconds it would take on a host
where the probe takes REFERENCE_S: raw seconds * REFERENCE_S / probe seconds.
A change to finesse moves the timed work and never the probe.
"""
import time

LOOPS = 150_000
REFERENCE_S = 0.0125  # the probe on a 2-vCPU Xeon VM at its faster rate


def probe() -> float:
    """Seconds the fixed loop takes now."""
    t = time.perf_counter()
    total = 0
    for i in range(LOOPS):
        total += i * i % 7
    return time.perf_counter() - t


def scale(probe_s: float) -> float:
    """Factor that turns raw seconds taken next to this probe into reference seconds."""
    return REFERENCE_S / probe_s
