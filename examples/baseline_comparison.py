"""Baseline comparison: what does strict locality cost?

Runs the local algorithm against the two global-knowledge baselines
from the paper's introduction, plus the Manhattan-Hopper open-chain
strategy of [KM09] that the paper generalises.  Run with::

    python examples/baseline_comparison.py
"""

import random

from repro import gather
from repro.grid.lattice import bounding_box
from repro.chains import square_ring
from repro.baselines import (
    gather_compass, gather_global_vision, shorten_open_chain,
)
from repro.analysis import format_table


def main() -> None:
    rows = []
    for side in (16, 24, 32, 48):
        pts = square_ring(side)
        rows.append({
            "n": len(pts),
            "diameter": bounding_box(pts).diameter,
            "local (paper)": gather(list(pts), engine="kernel").rounds,
            "global vision": gather_global_vision(list(pts)).rounds,
            "compass": gather_compass(list(pts)).rounds,
        })
    print(format_table(rows, title="closed-chain gathering: rounds by strategy"))
    print("\nThe baselines track the diameter; the local algorithm pays a "
          "constant factor\nover n for having no global information — "
          "exactly the trade-off the paper studies.\n")

    rng = random.Random(11)
    open_rows = []
    for n in (32, 64, 128, 256):
        pts = [(0, 0)]
        for _ in range(n - 1):
            x, y = pts[-1]
            dx, dy = rng.choice([(1, 0), (-1, 0), (0, 1), (0, -1)])
            pts.append((x + dx, y + dy))
        ok, rounds, chain = shorten_open_chain(pts)
        open_rows.append({"n": n, "rounds": rounds, "final": chain.n,
                          "optimal": chain.optimal_length(), "success": ok})
    print(format_table(open_rows,
                       title="Manhattan Hopper [KM09]: open-chain shortening"))


if __name__ == "__main__":
    main()
