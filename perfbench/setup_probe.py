"""Time one set-up in a fresh interpreter: imports, then sweeps.build_setup().

Run from the benchmark, not by hand: it prints one JSON object with the
total and each stage, all in seconds.
"""
import time

_T0 = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import hostspeed  # noqa: E402
import sweeps  # noqa: E402  (imports numpy, scipy and finesse)

_T_IMPORT = time.perf_counter()
_SETUP = sweeps.build_setup()
_T_END = time.perf_counter()

print(json.dumps({
    "setup_s": _T_END - _T0,
    "probe_s": hostspeed.probe(),
    "stages": {"setup.import_s": _T_IMPORT - _T0, **_SETUP.stages},
}))
