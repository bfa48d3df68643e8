"""EXP-T1 — Theorem 1: gathering takes O(n) rounds (and Ω(n) is forced).

Measures round counts over growing chains from several families, fits
``rounds ≈ slope·n + c`` and verifies (a) the fit is strongly linear,
(b) the slope stays far below the theorem's worst-case constant
``2·L + 1 = 27``, and (c) the diameter lower bound holds on every run.
"""

from __future__ import annotations

from typing import Dict, List

from repro.core.chain import ClosedChain
from repro.core.simulator import gather
from repro.grid.lattice import bounding_box
from repro.chains import (
    needle, square_ring, stairway_octagon, comb, spiral, random_chain,
)
from repro.analysis import fit_rounds, format_table
from repro.experiments.harness import ExperimentResult, register

import random


def _family_runs(quick: bool) -> List[Dict[str, object]]:
    rng = random.Random(20160523)     # IPDPS'16 vintage seed
    sizes = [16, 32, 64, 128] if quick else [16, 32, 64, 128, 256, 512]
    rows: List[Dict[str, object]] = []

    def record(family: str, pts) -> None:
        diameter = bounding_box(pts).diameter
        res = gather(pts, engine="kernel")
        rows.append({
            "family": family,
            "n": res.initial_n,
            "rounds": res.rounds,
            "rounds_per_n": res.rounds_per_robot,
            "diameter": diameter,
            "gathered": res.gathered,
        })

    for n in sizes:
        record("needle", needle(n // 2))
        record("square", square_ring(n // 4 + 1))
        record("octagon", stairway_octagon(max(3, n // 8), steps=2))
        record("random", random_chain(n, rng))
    for teeth in ([2, 4, 8] if quick else [2, 4, 8, 16, 32]):
        record("comb", comb(teeth, tooth_height=6))
    for w in ([1, 2] if quick else [1, 2, 3, 4]):
        record("spiral", spiral(w))
    return rows


@register("EXP-T1")
def run(quick: bool = False) -> ExperimentResult:
    rows = _family_runs(quick)
    all_gathered = all(r["gathered"] for r in rows)
    lower_bound_ok = True
    for r in rows:
        # any strategy needs at least ~diameter/2 rounds to shrink the
        # bounding box to 2x2 (one cell of box shrink per side per round)
        if r["rounds"] < (r["diameter"] - 1) // 2 - 1:
            lower_bound_ok = False

    fits = {}
    families = sorted({r["family"] for r in rows})
    for fam in families:
        pts = [(r["n"], r["rounds"]) for r in rows if r["family"] == fam]
        if len(pts) >= 3:
            fits[fam] = fit_rounds([p[0] for p in pts], [p[1] for p in pts])

    slope_cap = 2 * 13 + 1
    slopes_ok = all(f.slope <= slope_cap for f in fits.values())
    linear_ok = all(f.r_squared >= 0.95 for f in fits.values()
                    if f.slope > 0.05)   # flat families trivially pass

    table = format_table(rows, columns=["family", "n", "rounds",
                                        "rounds_per_n", "diameter", "gathered"],
                         title="rounds vs n per family")
    fit_lines = [f"{fam}: {fit.describe()}" for fam, fit in sorted(fits.items())]
    worst = max(fits.values(), key=lambda f: f.slope)

    passed = all_gathered and slopes_ok and linear_ok and lower_bound_ok
    return ExperimentResult(
        experiment_id="EXP-T1",
        title="Theorem 1 (linear-time gathering)",
        paper_claim=("every closed chain of n robots gathers into a 2x2 square "
                     "within O(n) rounds; bound 2Ln + n with L = 13; "
                     "diameter forces Omega(n)"),
        measured=(f"all {len(rows)} runs gathered; worst family slope "
                  f"{worst.slope:.2f} rounds/robot (theorem cap {slope_cap}); "
                  f"linear fits R^2 >= 0.95"),
        passed=passed,
        table=table,
        details=fit_lines,
    )
