"""Simulation outcome dataclasses.

:class:`GatheringResult` is produced by every execution tier — the
single-chain :class:`~repro.core.simulator.Simulator`, the shared-array
:class:`~repro.core.engine_fleet.FleetKernel` and the
:class:`~repro.core.batch.BatchSimulator` fan-out — so it lives below
all of them: the simulator facade imports the kernel engine, which
imports the fleet kernel, which must not import the facade back.
(Import it from :mod:`repro.core.simulator` or :mod:`repro.core` as
before; both re-export it.)

:func:`outcome_row` is the one wire form of a finished stream entry:
service frames and results ledger, ``repro batch --stream``/``--json``
output and the dead letter all write its row unchanged (DESIGN.md
§2.15).  :class:`ResultLedger` is the one consumer that makes rows
durable: ``repro batch --stream`` and the service write through it.
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Set

from repro.grid.lattice import Vec
from repro.core.config import Parameters
from repro.core.events import RoundReport, Trace
from repro.errors import ChainError


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
        """The outcome's result row (:func:`outcome_row`)."""
        return outcome_row(self.index, self)

    @classmethod
    def from_doc(cls, doc: dict) -> "ChainOutcome":
        """Read a quarantined row back (the dead-letter reader)."""
        return cls(index=int(doc["chain"]),
                   error=doc.get("error"),
                   message=str(doc.get("message", "")),
                   stage=str(doc.get("stage", "")),
                   retries=int(doc.get("retries", 0)),
                   quarantined=bool(doc.get("quarantined", False)))


def positions_digest(positions: Iterable[Vec]) -> int:
    """CRC32 of positions in chain order packed as little-endian int64
    ``x, y`` pairs: recomputable in any language."""
    flat = [v for p in positions for v in p]
    return zlib.crc32(struct.pack(f"<{len(flat)}q", *flat))


def outcome_row(index: int, payload) -> dict:
    """The result row (DESIGN.md §2.15) of stream entry ``index``, from
    a :class:`GatheringResult` or a :class:`ChainOutcome`: ``kind``,
    ``chain`` and ``quarantined``, then a result's counts and final-
    position ``digest`` or a quarantine's ``error``/``message``/``stage``."""
    if isinstance(payload, ChainOutcome):
        if payload.error is not None:
            row = {"kind": "chain", "chain": index,
                   "quarantined": payload.quarantined,
                   "error": payload.error, "message": payload.message,
                   "stage": payload.stage}
            if payload.retries:
                row["retries"] = payload.retries
            return row
        payload = payload.result
    return {"kind": "chain", "chain": index, "quarantined": False,
            "n": payload.initial_n, "final_n": payload.final_n,
            "rounds": payload.rounds, "gathered": payload.gathered,
            "rounds_per_robot": round(payload.rounds_per_robot, 3),
            "digest": positions_digest(payload.final_positions)}


def read_ndjson(path: str) -> List[dict]:
    """The complete lines of a crash-prone NDJSON log, before appending
    to it; a missing file reads as empty.  A crash tears at most the
    trailing line: it is dropped, and cut from the file so that appends
    start on a fresh line.  A complete line that does not parse is
    corruption and raises :class:`~repro.errors.ChainError` before
    anything is cut."""
    if not os.path.exists(path):
        return []
    with open(path, "rb") as fh:
        data = fh.read()
    keep = data.rfind(b"\n") + 1
    try:
        docs = [json.loads(line) for line in data[:keep].splitlines()
                if line.strip()]
    except ValueError as exc:
        raise ChainError(f"{path}: corrupt NDJSON line cannot be "
                         f"resumed: {exc}") from None
    if keep < len(data):
        with open(path, "r+b") as fh:
            fh.truncate(keep)
    return docs


class ResultLedger:
    """The one consumer that makes result rows durable (DESIGN.md
    §2.12, §2.13): ``repro batch --stream`` and the service pass every
    yielded ``(index, payload)`` to :meth:`write`, which also keeps the
    totals the CLI prints.

    ``path`` is the NDJSON results ledger.  With ``resume`` its torn
    tail is dropped, a corrupt complete line raises ``ChainError``, and
    the indices it holds (:attr:`seen`) are not written again.
    ``dead_letter`` takes quarantined rows and rejected input lines
    (:meth:`bad_line`); without it quarantined rows go to ``path``.
    A line is flushed before the call returns, so a WAL yield record,
    appended when the consumer re-enters the stream, always implies a
    durable row.  ``compact`` picks the separators of ``path``: the
    service writes compact lines, ``repro batch --out`` the
    ``json.dumps`` defaults.  Dead-letter lines are compact.
    """

    def __init__(self, path: Optional[str] = None, resume: bool = False,
                 dead_letter: Optional[str] = None, compact: bool = True):
        self.seen: Set[int] = set()
        self.total = self.gathered = self.rounds = self.robots = 0
        self.quarantined = self.bad_lines = 0
        self._separators = (",", ":") if compact else None
        self._out = self._dead = None
        if path is not None and resume:
            try:
                self.seen = {doc["chain"] for doc in read_ndjson(path)}
            except (KeyError, TypeError):
                raise ChainError(f"{path}: a line without a chain index "
                                 f"cannot be resumed") from None
        try:
            if dead_letter is not None:
                os.makedirs(os.path.dirname(os.path.abspath(dead_letter)),
                            exist_ok=True)
                self._dead = open(dead_letter, "a", encoding="utf-8")
            if path is not None:
                self._out = open(path, "a" if resume else "w",
                                 encoding="utf-8")
        except BaseException:
            self.close()
            raise

    def write(self, index: int, payload) -> dict:
        """Route stream entry ``index``'s row, flushed; return the row."""
        row = outcome_row(index, payload)
        if row["quarantined"]:
            self.quarantined += 1
            if self._dead is not None:
                self._append(self._dead, row)
                return row
        else:
            self.total += 1
            self.gathered += row["gathered"]
            self.rounds += row["rounds"]
            self.robots += row["n"]
        if self._out is not None and index not in self.seen:
            self._append(self._out, row, self._separators)
        return row

    def bad_line(self, lineno: int, error, raw: str) -> None:
        """Count a rejected input line, which consumed no stream index,
        and append it to the dead letter, which must be open."""
        self.bad_lines += 1
        self._append(self._dead, {"kind": "bad-line", "line": lineno,
                                  "error": str(error), "raw": raw[:200]})

    @staticmethod
    def _append(fh, doc: dict, separators=(",", ":")) -> None:
        fh.write(json.dumps(doc, separators=separators) + "\n")
        fh.flush()

    def close(self) -> None:
        for fh in (self._out, self._dead):
            if fh is not None:
                fh.close()

    def __enter__(self) -> "ResultLedger":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
