"""Seeded inputs of the three workloads and their expected outcomes.

Everything here runs outside the timed sections: the driver builds a
workload's inputs from ``--seed``, gathers each distinct chain once with
a fresh ``Simulator(engine="kernel")`` to get its expected rounds and
final positions, and hands both to the process under test through a
JSON file.

The mixes are stratified: the seed changes shapes, perturbations,
translations and order, never the family/size proportions, so runs
with different seeds measure the same amount of work.
"""

from __future__ import annotations

import random
from typing import Dict, List, Sequence, Tuple

from repro.chains import (crenellation, perturb, random_chain, square_ring,
                          staircase_ring)

Chain = List[Tuple[int, int]]

#: solo_mix cycle: (family, target n).  Six chains gather well under
#: the n=300 ring's time and six well over it, and the ring runs three
#: times (translated), so the median call of every cycle is a ring call.
SOLO_CYCLE = [
    ("ring", 60), ("perturbed", 72), ("blob", 64), ("ring", 124),
    ("crenellation", 130), ("blob", 180),
    ("ring", 300), ("ring", 300), ("ring", 300),
    ("stairway", 388), ("ring", 500), ("perturbed", 600),
    ("crenellation", 998), ("blob", 1100), ("crenellation", 3626),
]

#: stream_churn_wal pool strata: (ring side, perturbation count) — n 8..28
STREAM_STRATA = [(3, 0), (4, 0), (5, 0), (6, 0), (7, 0), (8, 0),
                 (3, 1), (4, 1), (5, 1), (6, 1), (4, 2), (5, 2)]
STREAM_POOL = 1032          # 86 chains per stratum

#: serve_open pool strata: (family, target n) — n 28..120
SERVE_STRATA = [("ring", 28), ("ring", 60), ("ring", 92), ("ring", 120),
                ("perturbed", 40), ("perturbed", 72), ("perturbed", 104),
                ("blob", 48), ("blob", 80), ("blob", 116),
                ("stairway", 100), ("crenellation", 62)]
SERVE_POOL = 144            # 12 chains per stratum

#: translations keep every submitted chain distinct in absolute
#: coordinates (the algorithm is translation invariant, so expected
#: outcomes shift with the chain)
SHIFT = 1 << 20


def _closest(make, target: int, rng: random.Random, tries: int = 8) -> Chain:
    """The candidate of ``make(rng)`` whose length is nearest ``target``."""
    best = None
    for _ in range(tries):
        pts = make(rng)
        if best is None or abs(len(pts) - target) < abs(len(best) - target):
            best = pts
        if abs(len(best) - target) <= max(2, target // 12):
            break
    return best


def make_chain(family: str, n: int, rng: random.Random) -> Chain:
    """One chain of ``family`` with about ``n`` robots, shaped by ``rng``."""
    if family == "ring":
        return square_ring(n // 4 + 1)
    if family == "stairway":
        return staircase_ring(max(1, (n - 52) // 24))
    if family == "crenellation":
        return crenellation(teeth=max(2, (n - 26) // 6), tooth_width=1,
                            base_height=13)
    if family == "blob":
        return _closest(lambda r: random_chain(int(n / 0.77),
                                               random.Random(r.random())),
                        n, rng)
    if family == "perturbed":
        muts = max(1, n // 13)            # each mutation adds ~2 robots
        side = max(3, (n - 2 * muts) // 4 + 1)
        return _closest(lambda r: perturb(square_ring(side), muts,
                                          random.Random(r.random())),
                        n, rng)
    raise ValueError(f"unknown family {family!r}")


def solo_inputs(seed: int) -> List[Chain]:
    rng = random.Random(f"solo_mix/{seed}")
    return [shifted(make_chain(f, n, rng), rng.randrange(-SHIFT, SHIFT),
                    rng.randrange(-SHIFT, SHIFT)) for f, n in SOLO_CYCLE]


def stream_pool(seed: int) -> List[Chain]:
    rng = random.Random(f"stream_churn_wal/{seed}")
    pool = []
    per = STREAM_POOL // len(STREAM_STRATA)
    for side, muts in STREAM_STRATA:
        for _ in range(per):
            pts = square_ring(side)
            if muts:
                while True:
                    cand = perturb(pts, muts, random.Random(rng.random()))
                    if len(cand) <= 28:
                        pts = cand
                        break
            pool.append(pts)
    return pool


def serve_pool(seed: int) -> List[Chain]:
    rng = random.Random(f"serve_open/{seed}")
    per = SERVE_POOL // len(SERVE_STRATA)
    return [make_chain(f, n, rng) for f, n in SERVE_STRATA
            for _ in range(per)]


def shifted(pts: Sequence[Tuple[int, int]], dx: int, dy: int) -> Chain:
    return [(x + dx, y + dy) for x, y in pts]


def expected(chains: Sequence[Chain]) -> List[dict]:
    """Reference outcome of each chain from a fresh kernel Simulator."""
    from repro.core.simulator import Simulator
    out = []
    for pts in chains:
        res = Simulator(pts, engine="kernel", check_invariants=False).run()
        out.append({"n": res.initial_n, "rounds": res.rounds,
                    "gathered": bool(res.gathered),
                    "final": [list(p) for p in res.final_positions]})
    return out


def digest(index: int, rounds: int, final: Sequence[Tuple[int, int]]) -> int:
    """Per-chain digest of (stream index, rounds, final positions).

    Python's hash of a tuple of ints does not depend on the process, so
    digests taken in the process under test and in the driver compare.
    """
    return hash((index, rounds, tuple(final)))


def expected_digest(index: int, ref: Dict, dx: int = 0, dy: int = 0) -> int:
    return digest(index, ref["rounds"],
                  [(x + dx, y + dy) for x, y in ref["final"]])


def corrupt(refs: List[dict], count: int) -> None:
    """Self-test hook: falsify ``count`` reference outcomes in place."""
    for ref in refs[:count]:
        ref["rounds"] += 1
