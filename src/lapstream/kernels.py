"""Per-node centrality kernels in the closed form of Qi et al. (2012), the
form the dynamic step takes differences of (see :mod:`lapstream.centrality`)."""


def unweighted_values(adj, nodes):
    """Energy drop d^2 + d + 2*sum(neighbor degrees) for each node in ``nodes``."""
    out = {}
    for v in nodes:
        nbrs = adj[v]
        loc = len(nbrs)
        nei = 0
        for j in nbrs:
            nei += len(adj[j])
        out[v] = loc * loc + loc + 2 * nei
    return out


def weighted_values(adj, strength, nodes):
    """Energy drop s^2 + sum(w * (w + 2*s_j)) for each node, on weighted degrees."""
    out = {}
    for v in nodes:
        s = strength[v]
        acc = s * s
        for j, w in adj[v].items():
            acc += w * (w + 2.0 * strength[j])
        out[v] = acc
    return out
