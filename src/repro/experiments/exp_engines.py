"""EXP-P1 — engineering: reference vs vectorised vs kernel engine.

Not a paper artifact, but a reproduction-quality requirement: the
NumPy-vectorised and array-native kernel engines must be behaviourally
identical to the reference engine (checked trace-by-trace here and
property-tested in the test suite) and measurably faster on large
chains (timed per engine below; the kernel's end-to-end throughput is
tracked by ``perfbench/``).
"""

from __future__ import annotations

import random
import time
from typing import List

from repro.core.simulator import ENGINES, Simulator
from repro.chains import random_chain, square_ring
from repro.analysis import format_table
from repro.experiments.harness import ExperimentResult, register

_FAST_ENGINES = tuple(e for e in ENGINES if e != "reference")


def _identical_traces(pts, rounds: int) -> bool:
    sims = [Simulator(list(pts), engine=e, check_invariants=False)
            for e in ENGINES]
    for _ in range(rounds):
        if any(s.is_gathered() for s in sims):
            break
        for s in sims:
            s.step()
        ref = sims[0].chain.positions
        if any(s.chain.positions != ref for s in sims[1:]):
            return False
    ref = sims[0].chain.positions
    return all(s.chain.positions == ref for s in sims[1:])


@register("EXP-P1")
def run(quick: bool = False) -> ExperimentResult:
    rng = random.Random(4)
    cases = [square_ring(20)] + [random_chain(n, rng) for n in (48, 96)]
    if not quick:
        cases += [square_ring(48), random_chain(192, rng)]
    equal = all(_identical_traces(pts, 200) for pts in cases)

    rows: List[dict] = []
    for side in ([40] if quick else [40, 80, 120]):
        pts = square_ring(side)
        timings = {}
        for engine in ENGINES:
            t0 = time.perf_counter()
            Simulator(list(pts), engine=engine, check_invariants=False).run()
            timings[engine] = time.perf_counter() - t0
        rows.append({
            "n": 4 * (side - 1),
            "reference_s": round(timings["reference"], 3),
            "vectorized_s": round(timings["vectorized"], 3),
            "kernel_s": round(timings["kernel"], 3),
            "kernel_speedup": round(
                timings["reference"] / max(timings["kernel"], 1e-9), 2),
        })
    table = format_table(rows, title="wall time per full gathering")
    return ExperimentResult(
        experiment_id="EXP-P1",
        title="Engine equivalence and speedup",
        paper_claim="(engineering) all engine variants must match the reference",
        measured=(f"traces identical on {len(cases)} chains x {len(ENGINES)} "
                  "engines; kernel speedups vs reference: "
                  + ", ".join(f"n={r['n']}: {r['kernel_speedup']}x"
                              for r in rows)),
        passed=equal,
        table=table,
    )
