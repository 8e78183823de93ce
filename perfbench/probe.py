"""A fixed piece of work that measures how fast the machine runs right now.

The CPU of a shared machine switches between fast and slow phases, from
within a second to minutes, as other tenants load it; a slow phase that
lasts a whole run shifts every timing of that run by the same factor. The
worker therefore times this probe before every round and after the last,
and scales each round's times by ``REFERENCE_S`` over the mean of the two
probes around it: a figure is the time the round would take on a machine
where the probe takes ``REFERENCE_S``.

The probe does the kind of work lapstream's graph and kernels do, on a
working set of their size: it builds a 10,000-node preferential-attachment
graph (attach 6, about 60k edges) as a dict of sets and evaluates the
unweighted closed form of ``oracle`` on it. It is the benchmark's own code, so a
change to lapstream cannot change it. The graph is built afresh in every
probe and dropped after it, so it adds nothing to the worker's memory
between probes; the garbage collector is paused while it runs, so the
probe's time does not depend on how many objects the program keeps alive.
"""

from __future__ import annotations

import gc
import random
from array import array
from time import perf_counter

import oracle
import workloads

# the probe's time on a fast phase of a 2-core x86 VM (Intel Xeon, CPython 3.11)
REFERENCE_S = 0.05

NODES = 10000
ATTACH = 6


_EDGES = workloads.preferential_attachment(NODES, ATTACH, random.Random("probe"))
# kept as two compact arrays: the probe must not add to the worker's memory
US, VS = array("i", (u for u, _ in _EDGES)), array("i", (v for _, v in _EDGES))
del _EDGES


def _work() -> None:
    adj: dict[int, set[int]] = {v: set() for v in range(NODES)}
    for u, v in zip(US, VS):
        adj[u].add(v)
        adj[v].add(u)
    oracle.unweighted_values(adj)


def probe_s() -> float:
    """Wall time of one probe."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        _work()
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()
