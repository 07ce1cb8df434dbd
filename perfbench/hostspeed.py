"""A yardstick for the host's speed, timed between documents.

The benchmark runs on a shared host whose speed changes under it: a fixed
piece of work swings between a fast and a roughly 1.5 times slower pace,
for seconds to minutes at a time, and process CPU time slows with it.  Ten
runs of the same code then spread by more than any useful regression bound.

``yardstick`` times a fixed piece of work that never touches tracezero:
bytecode arithmetic, many numpy calls on 4x4 matrices, a JSON round trip
and a 96x96 eigensolve, the kinds of work the workloads do.  The benchmark
runs it before and after every document and scales the document's wall time
by ``REFERENCE_S`` over the mean of the two, which gives the time the
document would take at the host's reference speed.  A change to tracezero
moves the scaled times exactly as it moves wall time; the host's drift
moves both the document and the yardstick, and cancels.
"""
import gc
import json
import time

import numpy as np

# The reference pace: the one at which the yardstick takes 20 ms.  A 2.1 GHz
# Xeon host with one BLAS thread ran it in 17 to 20 ms at its fast pace and
# 27 to 31 ms at its slow one.
REFERENCE_S = 0.020

_rng = np.random.default_rng(0)
_SMALL = [m + m.T for m in _rng.standard_normal((600, 4, 4))]
_LARGE = _rng.standard_normal((96, 96))
_LARGE = _LARGE + _LARGE.T
_DOC = {f"k{i}": _rng.standard_normal(50).tolist() for i in range(60)}


def yardstick() -> float:
    """Seconds for one pass of the fixed work, with the garbage collector
    paused so that the documents' garbage is not collected on its time."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        acc = 0
        for i in range(60000):
            acc = (acc * 31 + i) % 1000003
        for m in _SMALL:
            np.linalg.eigvalsh(m)
        for _ in range(3):
            json.loads(json.dumps(_DOC))
            np.linalg.eigvalsh(_LARGE)
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def at_reference(wall_s: float, yardstick_s: float) -> float:
    """`wall_s` scaled from the pace the yardstick measured to the reference pace."""
    return wall_s * REFERENCE_S / yardstick_s
