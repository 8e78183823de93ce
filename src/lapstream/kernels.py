"""Per-node centrality kernels in the closed form of Qi et al. (2012), the
form the dynamic step takes differences of (see :mod:`lapstream.centrality`),
over a graph's rows and strengths by position: values in ``nodes``' order."""


def unweighted_values(adj, nodes):
    """Energy drop d^2 + d + 2*sum(neighbor degrees) for each node in ``nodes``;
    reads every row's size once, as a batch pass over all nodes does."""
    degree = list(map(len, adj))
    neighbour_degree = degree.__getitem__
    out = []
    for v in nodes:
        d = degree[v]
        out.append(d * d + d + 2 * sum(map(neighbour_degree, adj[v])))
    return out


def weighted_values(adj, strength, nodes):
    """Energy drop s^2 + sum(w * (w + 2*s_j)) for each node, on weighted degrees."""
    out = []
    for v in nodes:
        s = strength[v]
        acc = s * s
        for j, w in adj[v].items():
            acc += w * (w + 2.0 * strength[j])
        out.append(acc)
    return out
