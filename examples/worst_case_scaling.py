"""Theorem 1 in action: round counts grow linearly in the chain length.

Sweeps several chain families across sizes, fits rounds against n, and
compares the measured slope with the theorem's worst-case constant
2·L + 1 = 27.  Run with::

    python examples/worst_case_scaling.py
"""

from repro import gather
from repro.chains import needle, square_ring, stairway_octagon
from repro.analysis import fit_rounds, format_table


def sweep(name, builder, sizes):
    rows = []
    for s in sizes:
        result = gather(builder(s), engine="kernel")
        rows.append({"family": name, "param": s, "n": result.initial_n,
                     "rounds": result.rounds,
                     "rounds_per_n": result.rounds_per_robot})
    fit = fit_rounds([r["n"] for r in rows], [r["rounds"] for r in rows])
    return rows, fit


def main() -> None:
    all_rows = []
    fits = {}
    for name, builder, sizes in [
        ("needle", needle, [20, 40, 80, 160, 320]),
        ("square", square_ring, [12, 24, 48, 96]),
        ("octagon", lambda s: stairway_octagon(s, 2), [8, 16, 32, 64]),
    ]:
        rows, fit = sweep(name, builder, sizes)
        all_rows += rows
        fits[name] = fit

    print(format_table(all_rows, title="rounds vs n (Theorem 1)"))
    print()
    for name, fit in fits.items():
        print(f"{name:8s} {fit.describe()}")
    print("\ntheorem worst-case slope: 2*L + 1 = 27 rounds per robot")


if __name__ == "__main__":
    main()
