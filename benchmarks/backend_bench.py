#!/usr/bin/env python3
"""Compare the compiled kernel extension against the pure-Python fallback.

Times full batch evaluations of both variants on a synthetic scale-free
graph and reports per-call seconds plus the compiled/pure ratio. Each round
times every backend back to back, in alternating order, and the ratio
reported is the median of the per-round ratios, so a change of CPU speed
between rounds moves both sides of a ratio alike.

    python benchmarks/backend_bench.py --nodes 30000 --attach 6 --repeat 5
"""

import argparse
import statistics
import time

from lapstream import _kernels_py
from lapstream.synth import preferential_attachment_graph

try:
    from lapstream import _kernels_c
except ImportError:
    _kernels_c = None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--nodes", type=int, default=30000)
    parser.add_argument("--attach", type=int, default=6)
    parser.add_argument("--repeat", type=int, default=5)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")

    g = preferential_attachment_graph(args.nodes, args.attach, seed=args.seed)
    adj = g.adjacency()
    strength = g.strengths()
    nodes = list(g.nodes())
    print(f"graph: {g.num_nodes} nodes, {g.num_edges} edges, repeat={args.repeat}")

    backends = [("python", _kernels_py)]
    if _kernels_c is not None:
        backends.append(("c", _kernels_c))
    else:
        print("compiled extension not built; timing pure backend only")

    kernels = {
        "unweighted": lambda m: m.unweighted_values(adj, nodes),
        "weighted": lambda m: m.weighted_values(adj, strength, nodes),
    }
    samples = {(name, variant): [] for name, _ in backends for variant in kernels}
    ratios = {variant: [] for variant in kernels}
    for r in range(args.repeat):
        for variant, fn in kernels.items():
            seconds = {}
            for name, mod in backends if r % 2 == 0 else backends[::-1]:
                t0 = time.perf_counter()
                fn(mod)
                seconds[name] = time.perf_counter() - t0
                samples[(name, variant)].append(seconds[name])
            if "c" in seconds:
                ratios[variant].append(seconds["python"] / seconds["c"])

    for (name, variant), times in samples.items():
        print(
            f"{name:>7} {variant:>10}: median {statistics.median(times) * 1e3:8.2f} ms"
            f"  best {min(times) * 1e3:8.2f} ms"
        )

    if _kernels_c is not None:
        for variant, per_round in ratios.items():
            print(
                f"compiled speedup, {variant}: {statistics.median(per_round):.2f}x (median of "
                f"{len(per_round)} rounds, range {min(per_round):.2f}-{max(per_round):.2f}x)"
            )
        # the two backends must agree exactly
        sample = nodes[: min(2000, len(nodes))]
        assert _kernels_py.unweighted_values(adj, sample) == _kernels_c.unweighted_values(
            adj, sample
        )
        assert _kernels_py.weighted_values(adj, strength, sample) == _kernels_c.weighted_values(
            adj, strength, sample
        )
        print("parity check: identical values from both backends")


if __name__ == "__main__":
    main()
