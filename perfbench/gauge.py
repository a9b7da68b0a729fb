"""Host speed gauge: a fixed reference kernel timed around each measurement.

A shared 2-core host gives its cores to other tenants too. The same
work runs up to 1.5x slower in some minutes than in others; every timing
of a run moves together, and the process keeps the CPU the whole time
(CPU time equals wall time). The kernel below mixes the kinds of work
tsdfmap does: an interpreted loop, a sort, k-d-tree queries and small
matrix products. Before and after every measured operation it runs once,
and the operation's wall time is scaled by NOMINAL_S over the mean of
the two reference times.

A change to tsdfmap moves the scaled time exactly as it moves the wall
time. A slower host slows the operation and the reference alike, so the
scaled time stays put. On an uncontended core of such a host the
reference takes about NOMINAL_S, so scaled times read as wall times there.
The harness reports raw wall times next to the scaled ones.
"""

import time

import numpy as np
from scipy.spatial import cKDTree

NOMINAL_S = 0.025


class Gauge:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._points = rng.random((20_000, 3))
        self._queries = rng.random((20_000, 3))
        self._values = rng.random(200_000)
        self._x = rng.random((4096, 32))
        self._w = rng.random((32, 32))
        self.references = []  # every reference time of the run, seconds

    def reference(self):
        t0 = time.perf_counter()
        cKDTree(self._points).query(self._queries)
        np.sort(self._values)
        for _ in range(4):
            np.tanh(self._x @ self._w)
        sum(i * i for i in range(20_000))
        elapsed = time.perf_counter() - t0
        self.references.append(elapsed)
        return elapsed

    def time(self, fn, *args, **kwargs):
        """(result, wall seconds, scaled seconds) of fn(*args, **kwargs)."""
        before = self.reference()
        t0 = time.perf_counter()
        result = fn(*args, **kwargs)
        wall = time.perf_counter() - t0
        return result, wall, scale(wall, before, self.reference())


def scale(wall, before, after):
    """Wall time at the nominal host speed, from the references around it."""
    return wall * NOMINAL_S / (0.5 * (before + after))
