"""EXP-TBL1 — Table 1: each run-termination condition fires as specified.

One staged scenario per condition.  Conditions 1-3 are produced purely
by the dynamics; conditions 4 and 5 (target corner removed by a merge
elsewhere) are staged by removing the target robot between rounds —
the same effect a concurrent merge has, without needing a fragile
multi-run choreography (their natural occurrence is additionally
counted over a batch of random gatherings).
"""

from __future__ import annotations

import random
from typing import Dict

from repro.grid.lattice import EAST, WEST
from repro.core.chain import ClosedChain
from repro.core.config import DEFAULT_PARAMETERS
from repro.core.engine import Engine
from repro.core.runs import RunMode, StopReason
from repro.core.simulator import Simulator
from repro.chains import outline, random_chain, rectangle_ring, square_ring
from repro.analysis import format_table
from repro.experiments.harness import ExperimentResult, register, sweep_gather

P = DEFAULT_PARAMETERS


def cond1_sequent_run() -> bool:
    """A rear run terminates when it sees a same-direction run ahead."""
    ring = rectangle_ring(40, 13)
    chain = ClosedChain(ring)
    engine = Engine(chain, P, check_invariants=True)
    front = engine.registry.start(chain.id_at(20), 1, EAST, 0)
    rear = engine.registry.start(chain.id_at(14), 1, EAST, 0)
    assert front and rear
    engine.step()
    return (rear.stop_reason is StopReason.SEQUENT_RUN_AHEAD
            and front.active)


def cond2_endpoint() -> bool:
    """A lone run terminates when the quasi-line endpoint becomes visible."""
    ring = rectangle_ring(40, 13)
    chain = ClosedChain(ring)
    engine = Engine(chain, P, check_invariants=True)
    run = engine.registry.start(chain.id_at(20), 1, EAST, 0)
    assert run is not None
    for _ in range(20):
        engine.step()
        if not run.active:
            break
    return run.stop_reason is StopReason.ENDPOINT_VISIBLE


def cond3_merge_participation() -> bool:
    """A run dissolves when its carrier takes part in a merge."""
    ring = square_ring(24)
    bump = [(11, 0), (11, 1), (12, 1), (13, 1), (13, 0)]
    i = ring.index(bump[0])
    j = ring.index(bump[-1])
    ring = ring[:i + 1] + bump[1:-1] + ring[j:]
    chain = ClosedChain(ring)
    engine = Engine(chain, P, check_invariants=True)
    carrier = chain.positions.index((12, 1))      # a black of the k=3 bump
    run = engine.registry.start(chain.id_at(carrier), 1, EAST, 0)
    assert run is not None
    engine.step()
    return run.stop_reason is StopReason.MERGE_PARTICIPATION


def _reason_occurs(pts, reason: StopReason, max_rounds: int = 4000) -> bool:
    """Run a configuration to completion and look for a stop reason.

    Used for conditions 4 and 5, which arise from the interplay of
    passing/travelling runs with merges elsewhere — exactly the
    situations the paper describes in §3.4.  The chains below are
    deterministic constructions on which the condition reliably fires.
    """
    sim = Simulator(pts, check_invariants=True)
    res = sim.run(max_rounds=max_rounds)
    hits = sum(rep.runs_terminated.get(reason, 0) for rep in res.reports)
    return res.gathered and hits > 0


def cond4_passing_target_removed() -> bool:
    """Fig. 8 interruption: a merge removes the passing target corner.

    On the thick L outline, good-pair merges around the inner corner
    remove corners that concurrent passing runs have targeted.
    """
    from repro.chains import l_shape
    return _reason_occurs(l_shape(30, 30, 13),
                          StopReason.PASSING_TARGET_REMOVED)


def cond5_travel_target_removed() -> bool:
    """Fig. 11b interruption: a merge removes the travel target corner.

    Uses a pinned witness configuration (found by sweeping random
    polyomino outlines and stored under ``experiments/data/``) on which
    a jog corner reliably merges away mid-travel.
    """
    import json
    import os
    path = os.path.join(os.path.dirname(__file__), "data",
                        "cond5_witness.json")
    with open(path, "r", encoding="utf-8") as fh:
        pts = [tuple(p) for p in json.load(fh)["positions"]]
    return _reason_occurs(pts, StopReason.TRAVEL_TARGET_REMOVED)


def natural_occurrences(quick: bool) -> Dict[str, int]:
    """Count every stop reason over a batch of random gatherings."""
    rng = random.Random(1)
    chains = [random_chain(rng.choice([48, 96, 160]), rng)
              for _ in range(6 if quick else 24)]
    # kernel engine on the fleet kernel: bit-identical reports to the
    # reference engine (property-tested), at sweep throughput
    batch = sweep_gather(chains)
    counts: Dict[str, int] = {}
    for res in batch:
        for rep in res.reports:
            for reason, k in rep.runs_terminated.items():
                counts[reason.name] = counts.get(reason.name, 0) + k
    return counts


_CONDITIONS = [
    ("1 sequent run ahead", cond1_sequent_run),
    ("2 endpoint visible", cond2_endpoint),
    ("3 merge participation", cond3_merge_participation),
    ("4 passing target removed", cond4_passing_target_removed),
    ("5 travel target removed", cond5_travel_target_removed),
]


@register("EXP-TBL1")
def run(quick: bool = False) -> ExperimentResult:
    rows = []
    all_ok = True
    for name, fn in _CONDITIONS:
        ok = bool(fn())
        all_ok &= ok
        rows.append({"condition": name, "status": "PASS" if ok else "FAIL"})
    nat = natural_occurrences(quick)
    table = format_table(rows, title="Table 1 termination conditions")
    return ExperimentResult(
        experiment_id="EXP-TBL1",
        title="Table 1 (run termination conditions)",
        paper_claim="a run terminates exactly under conditions 1-5 of Table 1",
        measured=(f"{sum(1 for r in rows if r['status'] == 'PASS')}/5 staged "
                  f"conditions fire; natural occurrences over random chains: {nat}"),
        passed=all_ok,
        table=table,
    )


def condition_functions():
    """Expose the staged conditions for the unit tests."""
    return list(_CONDITIONS)
