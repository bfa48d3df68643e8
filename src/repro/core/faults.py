"""Deterministic fault injection for the streaming tier.

A :class:`FaultPlan` degrades a chain stream *reproducibly*: each
stream entry's fate (dropped, perturbed, or untouched) is a pure
function of the plan's seed and the entry's stream index, so the same
plan replayed over the same stream — including a crash/resume replay
through the WAL, which records the plan in its ``stream_start``
record — injects exactly the same faults.  The pattern follows the
disabled-device handling of observatory control software: degraded
inputs are first-class schedule entries, not exceptions, and the
scheduler's output over them must stay deterministic.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

Vec = Tuple[int, int]


@dataclass(frozen=True)
class FaultPlan:
    """Seeded per-entry fault decisions for a chain stream.

    ``crash`` is the probability a stream entry is dropped outright —
    it still consumes its stream index, so the surviving entries keep
    their positions and the output gains a gap, never a shift.
    ``perturb`` is the probability an entry's chain is reshaped at
    admission by ``mutations`` validity-preserving mutations
    (:func:`repro.chains.perturb.perturb`).  Probabilities are
    disjoint slices of one uniform draw, so ``crash + perturb`` must
    stay ≤ 1.

    ``mid_crash``/``mid_restart`` inject *mid-run* robot faults: an
    affected chain is hit at a seeded chain-local round in
    ``[1, window]`` — crash retires it as a structured error outcome,
    restart wipes its volatile run state so the gathering restarts
    from the current configuration (see :meth:`decide_mid`).  Both are
    applied at round boundaries by the fleet kernel; pending triggers
    ride in the WAL snapshots and each trigger is a pure function of
    the plan and the stream index, so a resumed stream fires them
    exactly as the uninterrupted run did.
    """

    seed: int = 0
    crash: float = 0.0
    perturb: float = 0.0
    mutations: int = 4
    mid_crash: float = 0.0
    mid_restart: float = 0.0
    window: int = 32

    def __post_init__(self) -> None:
        if not 0.0 <= self.crash <= 1.0 or not 0.0 <= self.perturb <= 1.0 \
                or self.crash + self.perturb > 1.0:
            raise ValueError("crash/perturb must be probabilities with "
                             "crash + perturb <= 1")
        if self.mutations < 1:
            raise ValueError("mutations must be >= 1")
        if not 0.0 <= self.mid_crash <= 1.0 \
                or not 0.0 <= self.mid_restart <= 1.0 \
                or self.mid_crash + self.mid_restart > 1.0:
            raise ValueError("mid_crash/mid_restart must be probabilities "
                             "with mid_crash + mid_restart <= 1")
        if self.window < 1:
            raise ValueError("window must be >= 1")

    # ------------------------------------------------------------------
    def decide(self, index: int) -> Optional[str]:
        """The fate of stream entry ``index``: 'crash', 'perturb' or None.

        String-seeded ``random.Random`` — stable across processes and
        Python runs, unlike hash-based seeding.
        """
        u = random.Random(f"repro.fault:{self.seed}:{index}").random()
        if u < self.crash:
            return "crash"
        if u < self.crash + self.perturb:
            return "perturb"
        return None

    def decide_mid(self, index: int) -> Optional[Tuple[str, int]]:
        """The mid-run fate of stream entry ``index``.

        Returns ``None`` (unaffected) or ``(kind, round)`` where
        ``kind`` is ``'mid_crash'`` (the whole chain of robots dies
        mid-run and is retired as a crashed outcome) or
        ``'mid_restart'`` (the robots reboot: volatile run state is
        wiped and the chain restarts from its current configuration),
        and ``round`` is the chain-local round, in ``[1, window]``, at
        whose boundary the fault fires.  Pure function of seed and
        index — a resumed or re-executed stream replays the same fault
        at the same round.
        """
        if self.mid_crash <= 0.0 and self.mid_restart <= 0.0:
            return None
        rng = random.Random(f"repro.fault.mid:{self.seed}:{index}")
        u = rng.random()
        if u < self.mid_crash:
            return ("mid_crash", 1 + rng.randrange(self.window))
        if u < self.mid_crash + self.mid_restart:
            return ("mid_restart", 1 + rng.randrange(self.window))
        return None

    def mutate(self, index: int, positions: Sequence[Vec]) -> List[Vec]:
        """The perturbed chain for entry ``index`` (deterministic)."""
        from repro.chains.perturb import perturb as _perturb
        rng = random.Random(f"repro.fault.perturb:{self.seed}:{index}")
        return _perturb(list(positions), mutations=self.mutations, rng=rng)

    # ------------------------------------------------------------------
    def to_doc(self) -> Dict[str, Any]:
        """JSON-ready form (recorded in the WAL's stream_start)."""
        return {"seed": self.seed, "crash": self.crash,
                "perturb": self.perturb, "mutations": self.mutations,
                "mid_crash": self.mid_crash,
                "mid_restart": self.mid_restart, "window": self.window}

    @classmethod
    def from_doc(cls, doc: Dict[str, Any]) -> "FaultPlan":
        return cls(seed=int(doc["seed"]), crash=float(doc["crash"]),
                   perturb=float(doc["perturb"]),
                   mutations=int(doc["mutations"]),
                   mid_crash=float(doc.get("mid_crash", 0.0)),
                   mid_restart=float(doc.get("mid_restart", 0.0)),
                   window=int(doc.get("window", 32)))

    @classmethod
    def parse(cls, spec: str) -> "FaultPlan":
        """Parse a CLI spec like ``seed=7,crash=0.02,perturb=0.1``.

        Keys: ``seed`` (int), ``crash``/``perturb``/``mid_crash``/
        ``mid_restart`` (floats in [0, 1]), ``mutations``/``window``
        (ints).  Unknown keys raise ValueError.
        """
        kwargs: Dict[str, Any] = {}
        for part in spec.split(","):
            part = part.strip()
            if not part:
                continue
            key, sep, value = part.partition("=")
            key = key.strip()
            if not sep:
                raise ValueError(f"fault spec entry {part!r} is not key=value")
            if key in ("seed", "mutations", "window"):
                kwargs[key] = int(value)
            elif key in ("crash", "perturb", "mid_crash", "mid_restart"):
                kwargs[key] = float(value)
            else:
                raise ValueError(f"unknown fault spec key {key!r}")
        return cls(**kwargs)
