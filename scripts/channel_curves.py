#!/usr/bin/env python3
"""Channel divergence curves for identity vs depolarizing noise.

Prints the optimized curve for a few divergence kinds next to the
channel-level max-relative entropy that caps all of them.  The sandwiched
curve is a bracket: its lower end, its upper end and their gap (see
channel_divergence); the Petz curve is a lower bound only.
"""

import argparse

from qrd.channels import (
    channel_divergence,
    channel_dmax,
    depolarizing_channel,
    identity_channel,
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--p", type=float, default=0.2, help="depolarizing weight")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--restarts", type=int, default=6)
    args = parser.parse_args()

    n1 = identity_channel(2)
    n2 = depolarizing_channel(args.p)
    cap = channel_dmax(n1, n2)
    print(f"channel dmax = {cap:.10f}")

    grid = (1.001, 1.1, 1.3, 1.6, 2.0)
    print(f"{'alpha':>8} {'sandwiched':>14} {'upper':>14} {'gap':>9} {'petz':>14}")
    for alpha in grid:
        sand, petz = (
            channel_divergence(
                n1, n2, kind, alpha=alpha, restarts=args.restarts, seed=args.seed, iters=40
            )
            for kind in ("sandwiched", "petz")
        )
        gap = sand.upper - sand.value
        print(
            f"{alpha:>8.3f} {sand.value:>14.10f} {sand.upper:>14.10f} {gap:>9.2e}"
            f" {petz.value:>14.10f}"
        )


if __name__ == "__main__":
    main()
