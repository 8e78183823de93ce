# cython: language_level=3, boundscheck=False, wraparound=False
"""Compiled centrality kernels; hot inner loops of batch and dynamic modes.

Mirrors ``_kernels_py`` exactly: same traversal order, same accumulation
order, compiled without fp contraction, so results are bitwise identical
to the pure-Python backend. The build compiles the shipped ``_kernels_c.c``,
not this file: after an edit here, regenerate it by hand with
``cython _kernels_c.pyx``.
"""

BACKEND_NAME = "c"


def unweighted_values(dict adj, nodes):
    """Energy drop d^2 + d + 2*sum(neighbor degrees) for each node in ``nodes``."""
    cdef dict out = {}
    cdef dict nbrs
    cdef long long loc, nei
    for v in nodes:
        nbrs = <dict> adj[v]
        loc = <long long> len(nbrs)
        nei = 0
        for j in nbrs:
            nei += <long long> len(<dict> adj[j])
        out[v] = loc * loc + loc + 2 * nei
    return out


def weighted_values(dict adj, dict strength, nodes):
    """Energy drop s^2 - sub + 2*cw for each node, on weighted degrees."""
    cdef dict out = {}
    cdef dict nbrs
    cdef double loc, cw, sub, w, s, rem
    for v in nodes:
        nbrs = <dict> adj[v]
        loc = <double> strength[v]
        cw = 0.0
        sub = 0.0
        for j, wobj in nbrs.items():
            w = <double> wobj
            s = <double> strength[j]
            rem = s - w
            cw += w * w
            sub += rem * rem - s * s
        out[v] = loc * loc - sub + 2.0 * cw
    return out
