"""Simulation outcome dataclasses.

:class:`GatheringResult` is produced by every execution tier — the
single-chain :class:`~repro.core.simulator.Simulator`, the shared-array
:class:`~repro.core.engine_fleet.FleetKernel` and the
:class:`~repro.core.batch.BatchSimulator` fan-out — so it lives below
all of them: the simulator facade imports the kernel engine, which
imports the fleet kernel, which must not import the facade back.
(Import it from :mod:`repro.core.simulator` or :mod:`repro.core` as
before; both re-export it.)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.grid.lattice import Vec
from repro.core.config import Parameters
from repro.core.events import RoundReport, Trace


@dataclass
class GatheringResult:
    """Outcome of a gathering simulation."""

    gathered: bool
    rounds: int
    initial_n: int
    final_n: int
    final_positions: List[Vec]
    params: Parameters
    reports: List[RoundReport] = field(default_factory=list)
    trace: Optional[Trace] = None
    stalled: bool = False
    wall_time: float = 0.0

    @property
    def total_merges(self) -> int:
        """Robots removed over the whole simulation."""
        return self.initial_n - self.final_n

    @property
    def rounds_per_robot(self) -> float:
        """Normalised round count — the paper predicts an O(1) value."""
        return self.rounds / max(self.initial_n, 1)

    def summary(self) -> str:
        """One-line human-readable outcome."""
        state = "gathered" if self.gathered else ("STALLED" if self.stalled else "stopped")
        return (f"{state}: n={self.initial_n} -> {self.final_n} in {self.rounds} rounds "
                f"({self.rounds_per_robot:.2f} rounds/robot)")


@dataclass
class ChainOutcome:
    """Per-entry outcome of a *supervised* stream.

    Every stream index resolves to exactly one outcome: either a
    :class:`GatheringResult` (which may itself be degraded — stalled or
    budget-exhausted — but is still a result), or a structured error
    record for a chain the supervision tier quarantined instead of
    letting it abort the stream.  ``error`` is the exception class name
    (``ChainError``, ``InvariantViolation``, ``WorkerCrashError``, or
    the injected ``FaultCrash``), ``stage`` says where it was caught
    (``admit``, ``round``, ``worker``, ``intake``), and ``retries``
    counts the solo worker deaths that convicted a ``worker``-stage
    quarantine.
    """

    index: int
    result: Optional[GatheringResult] = None
    error: Optional[str] = None
    message: str = ""
    stage: str = ""
    retries: int = 0
    quarantined: bool = False

    @property
    def ok(self) -> bool:
        return self.error is None

    def unwrap(self) -> GatheringResult:
        """The result, or :class:`~repro.errors.QuarantinedChainError`."""
        if self.result is not None:
            return self.result
        from repro.errors import QuarantinedChainError
        raise QuarantinedChainError(
            f"chain {self.index} quarantined at {self.stage or '?'}: "
            f"{self.error}: {self.message}",
            index=self.index, stage=self.stage)

    def to_doc(self) -> dict:
        """JSON-ready form (dead-letter ledger / service frames)."""
        doc = {"kind": "chain", "chain": self.index,
               "quarantined": self.quarantined}
        if self.error is not None:
            doc["error"] = self.error
            doc["message"] = self.message
            doc["stage"] = self.stage
            if self.retries:
                doc["retries"] = self.retries
        return doc

    @classmethod
    def from_doc(cls, doc: dict) -> "ChainOutcome":
        return cls(index=int(doc["chain"]),
                   error=doc.get("error"),
                   message=str(doc.get("message", "")),
                   stage=str(doc.get("stage", "")),
                   retries=int(doc.get("retries", 0)),
                   quarantined=bool(doc.get("quarantined", False)))
