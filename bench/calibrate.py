"""Machine-speed calibration.

The host this benchmark was tuned on changes its effective speed by up to
2x within seconds.  Steal time stays at zero and process CPU time tracks
wall time: a fixed loop simply runs slower for a while, on both vCPUs, not
in step.  Medians of raw operation times from 25-s runs then spread by 20 to
45 % between runs.  Timing a fixed loop right before and after each
operation measures the drift; dividing each operation's time by it
brought the spread of the same runs down to 1 to 4 %.

``slowdown()`` is the current time of a fixed mix of Python float
arithmetic and small-array numpy calls over its reference time, so a time
divided by it is in seconds at the reference speed.

Import time drifts differently: its correlation with the loops was 0.3.
``import_baseline()``, run in a fresh interpreter, times importing a fixed
set of standard-library modules, which loads code the way importing the
program does.  Dividing set-up times by it brought the spread of 7-run
medians from 0.33 to 0.06.  Neither reference touches the program, so a
change to the program cannot move them.
"""

import importlib
import time

PY_LOOPS = 10000
NP_LOOPS = 500
# Typical times of the two loops on the machine the benchmark was tuned on
# (2 vCPU x86-64, Python 3.11.7, numpy 2.4.6).
PY_REF_S = 0.00125
NP_REF_S = 0.0023
BASELINE_MODULES = ("csv", "argparse", "decimal", "fractions", "dataclasses", "pathlib", "typing")
BASELINE_REF_S = 0.0095


def python_loop() -> float:
    start = time.perf_counter()
    acc = 0.0
    for i in range(PY_LOOPS):
        acc += (i + 0.5) ** 0.4
    return time.perf_counter() - start


def numpy_loop() -> float:
    import numpy as np

    start = time.perf_counter()
    x = np.array([1.5])
    for _ in range(NP_LOOPS):
        x = np.atleast_1d(np.asarray(-x * 1.0000001, dtype=float))
        float(np.linalg.norm(x))
    return time.perf_counter() - start


def import_baseline() -> float:
    """Seconds to import BASELINE_MODULES; meaningful in a fresh interpreter only."""
    start = time.perf_counter()
    for name in BASELINE_MODULES:
        importlib.import_module(name)
    return time.perf_counter() - start


def slowdown() -> float:
    """Time of the calibration loops now over their reference time."""
    return (python_loop() + numpy_loop()) / (PY_REF_S + NP_REF_S)
