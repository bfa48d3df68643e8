"""Exhaustive verification: Theorem 1 holds for *every* small chain.

Enumerates every closed chain of length n up to symmetry (translation,
rotation, reflection, relabelling) and gathers each one — the universal
quantifier of Theorem 1, checked by brute force.  Also regenerates the
scaling figure as an SVG.  Run with::

    python examples/exhaustive_verification.py [max_n] [figure.svg]
"""

import sys

from repro.verification import verify_all
from repro.core.simulator import gather
from repro.chains import needle, square_ring, stairway_octagon
from repro.viz import Series, save_line_chart


def main() -> None:
    max_n = int(sys.argv[1]) if len(sys.argv) > 1 else 10
    print("exhaustive sweep (one representative per symmetry class):")
    for n in range(4, max_n + 1, 2):
        report = verify_all(n, engine="kernel")
        status = "ALL GATHER" if report.complete else f"{len(report.failures)} FAILURES"
        print(f"  n={n:2d}: {report.total:5d} configurations -> {status} "
              f"(max {report.max_rounds} rounds)")
        for pts in report.failures[:3]:
            print("    failure:", pts)

    # scaling figure: rounds vs n for three families
    series = []
    for label, builder, sizes in [
        ("needle", needle, [20, 40, 80, 160]),
        ("square", square_ring, [12, 24, 48]),
        ("octagon", lambda s: stairway_octagon(s, 2), [8, 16, 32]),
    ]:
        pts = []
        for s in sizes:
            res = gather(builder(s), engine="kernel")
            pts.append((res.initial_n, res.rounds))
        series.append(Series(label, pts))
    out = sys.argv[2] if len(sys.argv) > 2 else "theorem1_scaling.svg"
    save_line_chart(out, series, title="Theorem 1: rounds vs n",
                    x_label="n (robots)", y_label="rounds")
    print(f"\nwrote scaling figure to {out}")


if __name__ == "__main__":
    main()
