"""The supervision tier: crash-surviving, quarantining stream execution.

DESIGN.md §2.13.  The streaming scheduler (§2.11) and the durability
tier (§2.12) make a stream fast and resumable; this layer makes it
*survive* — a production stream must outlive every failure class we
can inject:

* **worker crashes** — with ``workers >= 2`` every stream runs on the
  shard tier (:mod:`repro.core.shards`, §2.16), which respawns a dead
  worker, re-feeds the chains it had in flight one at a time and so
  convicts a chain that keeps killing its worker by itself.
* **poison chains** — an input that fails chain validation, a chain
  pinned by an invariant violation mid-round, or a chain convicted of
  killing its worker is *quarantined*: yielded as a structured
  :class:`~repro.core.results.ChainOutcome` error record and appended
  to a dead-letter NDJSON ledger, while the rest of the stream runs
  on.  Stalls and budget exhaustion were already degraded results,
  never aborts.

Everything here is deterministic on the good-chain subset: a
supervised stream with injected kills and poison entries yields
bit-identical results for the surviving chains as an unfaulted run
(property-tested in ``tests/test_supervisor.py``).
"""

from __future__ import annotations

import json
import os
from typing import Any, Callable, Dict, Iterable, Iterator, Optional

from repro.core.config import DEFAULT_PARAMETERS, Parameters
from repro.core.results import ChainOutcome


# ----------------------------------------------------------------------
# dead-letter ledger
# ----------------------------------------------------------------------
class DeadLetterWriter:
    """Append-only NDJSON ledger of quarantined work.

    One line per quarantined chain (or rejected intake line), flushed
    per record; the file is opened in append mode so successive
    supervised runs accumulate into one ledger.
    """

    def __init__(self, path: str):
        self.path = path
        parent = os.path.dirname(os.path.abspath(path))
        os.makedirs(parent, exist_ok=True)
        self._fh = open(path, "a", encoding="utf-8")
        self.count = 0

    def write(self, doc: Dict[str, Any]) -> None:
        self._fh.write(json.dumps(doc, separators=(",", ":")) + "\n")
        self._fh.flush()
        self.count += 1

    def write_outcome(self, outcome: ChainOutcome) -> None:
        self.write(outcome.to_doc())

    def close(self) -> None:
        self._fh.close()


# ----------------------------------------------------------------------
# the user-facing supervisor
# ----------------------------------------------------------------------
class StreamSupervisor:
    """Run a chain stream under full supervision.

    The library face of the supervision tier: wraps
    :meth:`BatchSimulator.run_stream` in quarantine mode (in-process
    with one worker, on the shard tier with more), normalises every
    delivery to a :class:`ChainOutcome`, and appends quarantined
    outcomes to the ``dead_letter`` ledger.  After the stream drains,
    :attr:`stats` holds the merged scheduler + supervision telemetry.
    """

    def __init__(self, params: Parameters = DEFAULT_PARAMETERS,
                 workers: Optional[int] = None,
                 slots: int = 256,
                 max_rounds: Optional[int] = None,
                 check_invariants: bool = False,
                 keep_reports: bool = False,
                 validate_initial: bool = True,
                 wal_dir: Optional[str] = None,
                 snapshot_every: int = 512,
                 faults=None,
                 dead_letter: Optional[str] = None,
                 resume: bool = False):
        self.params = params
        self.workers = int(workers) if workers else 1
        self.slots = slots
        self.max_rounds = max_rounds
        self.check_invariants = check_invariants
        self.keep_reports = keep_reports
        self.validate_initial = validate_initial
        self.wal_dir = wal_dir
        self.snapshot_every = snapshot_every
        self.faults = faults
        self.dead_letter = dead_letter
        self.resume = resume
        self.stats: Dict[str, int] = {}

    def run(self, chains: Iterable = (),
            progress: Optional[Callable[[int, int], None]] = None
            ) -> Iterator[ChainOutcome]:
        """Stream ``chains``; yield one :class:`ChainOutcome` per entry
        (injected intake crashes excepted — they are gaps, as always).
        """
        from repro.core.batch import BatchSimulator
        sim = BatchSimulator([], params=self.params, engine="kernel",
                             check_invariants=self.check_invariants,
                             workers=self.workers,
                             keep_reports=self.keep_reports,
                             validate_initial=self.validate_initial)
        dl = DeadLetterWriter(self.dead_letter) if self.dead_letter else None
        quarantined = 0
        try:
            for ext, payload in sim.run_stream(
                    chains, slots=self.slots, max_rounds=self.max_rounds,
                    progress=progress, wal_dir=self.wal_dir,
                    snapshot_every=self.snapshot_every, faults=self.faults,
                    resume=self.resume, on_error="quarantine"):
                if isinstance(payload, ChainOutcome):
                    outcome = payload
                else:
                    outcome = ChainOutcome(index=ext, result=payload)
                if not outcome.ok:
                    quarantined += 1
                    if dl is not None:
                        dl.write_outcome(outcome)
                yield outcome
        finally:
            if dl is not None:
                dl.close()
        self.stats = dict(sim.last_stream_stats or {})
        self.stats["quarantined_total"] = quarantined


def supervise_stream(chains: Iterable, **kwargs) -> Iterator[ChainOutcome]:
    """One-call supervised streaming (see :class:`StreamSupervisor`)."""
    progress = kwargs.pop("progress", None)
    return StreamSupervisor(**kwargs).run(chains, progress=progress)
