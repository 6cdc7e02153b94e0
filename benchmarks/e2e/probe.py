"""Machine-speed probe: frozen work timed right before and after every timing.

The reference box is a shared VM whose speed changes by up to 2x for seconds
to minutes at a time (README, "Noise floor"): no steal time, no scheduling
gaps, every instruction just runs slower.  Nothing inside a run can tell a
slow machine from slow code except work whose cost is known, so every host
timing is bracketed by two runs of this probe and reported as::

    seconds * NOMINAL_S / mean(probe before, probe after)

i.e. in seconds of a machine on which the probe takes ``NOMINAL_S``.  The
probe is frozen with the benchmark: it calls nothing of the program under
test, so faster program code never makes it faster.
"""

from __future__ import annotations

import time

import numpy as np

#: What one probe takes on the undisturbed reference box.  It only fixes the
#: unit: with it a timing on the quiet reference box reads as its wall seconds.
NOMINAL_S = 0.024

_VECTOR = np.ones(64)
_SPD = np.eye(120) * 120.0 + np.fromfunction(lambda i, j: 1.0 / (1.0 + abs(i - j)), (120, 120))


def run() -> float:
    """Seconds the fixed work takes now: the co-search's own mix in small.

    Interpreter loop over a dict, small-object allocation, NumPy arithmetic
    on short vectors and a small Cholesky factorisation, about a quarter each.
    It allocates no container objects, so the collector never runs inside it
    and its cost does not depend on what the co-search left on the heap.
    """
    start = time.perf_counter()
    table = {}
    for i in range(85_000):
        table[i & 255] = i * 3
    texts = [str(i) for i in range(40_000)]  # no containers: never triggers the GC
    del texts
    vector = _VECTOR
    for _ in range(7_000):
        vector = vector * 1.0001 + _VECTOR
    for _ in range(110):
        np.linalg.cholesky(_SPD)
    return time.perf_counter() - start


def scaled(seconds: float, before: float, after: float) -> float:
    """``seconds`` in reference-speed seconds, given the probes around it."""
    return seconds * NOMINAL_S / ((before + after) / 2.0)
