"""The supervision tier: crash-surviving, quarantining stream execution.

DESIGN.md §2.13.  The streaming scheduler (§2.11) and the durability
tier (§2.12) make a stream fast and resumable; this layer makes it
*survive* — a production stream must outlive every failure class we
can inject:

* **worker crashes** — the supervised pool tracks in-flight chunks,
  detects a dead worker (``BrokenProcessPool``), respawns the pool
  and re-dispatches the lost chunks with bounded retry and
  exponential backoff.  With a WAL directory, each worker logs to its
  own ``shard-<k>/`` sub-WAL plus a per-result ledger, so a
  re-dispatched chunk *resumes from its own snapshot* instead of
  re-running from scratch, and re-delivered results deduplicate by
  stream index exactly like top-level WAL resume.
* **poison chains** — an input that fails chain validation, a chain
  pinned by an invariant violation mid-round, or a chunk that keeps
  killing workers until retries are exhausted (bisected to the single
  offending chain) is *quarantined*: yielded as a structured
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
import pickle
import shutil
import time
from collections import deque
from dataclasses import replace
from typing import (Any, Callable, Dict, Iterable, Iterator, List, Optional,
                    Tuple)

from repro.core.config import DEFAULT_PARAMETERS, Parameters
from repro.core.results import ChainOutcome
from repro.errors import WorkerCrashError

#: Extra re-dispatches granted to an isolated single-chain chunk — by
#: the time a chunk is bisected to one chain the pool has already died
#: ``max_retries`` times on it, so one more corpse is proof enough.
SOLO_RETRIES = 1

#: Name of the per-shard results ledger (delivered results, one JSON
#: line each, flushed per record like the WAL itself).
LEDGER_NAME = "results.ndjson"

#: Env hook for deterministic worker-kill injection (tests and the
#: crash harness): ``<counter-file>:<idx>[,<idx>...]`` — a worker that
#: is handed a chunk containing a listed stream index SIGKILLs itself,
#: decrementing the counter file first; at zero the hook disarms (a
#: negative count never disarms: a poison chain that always kills).
KILL_SPEC_ENV = "REPRO_KILL_SPEC"


def _maybe_test_kill(indices: List[int]) -> None:
    """Fault-injection hook: die by SIGKILL if armed for this chunk."""
    spec = os.environ.get(KILL_SPEC_ENV)
    if not spec:
        return
    path, _, idx_part = spec.partition(":")
    targets = {int(x) for x in idx_part.split(",") if x}
    if not targets.intersection(indices):
        return
    import fcntl
    import signal
    with open(path, "r+", encoding="utf-8") as fh:
        fcntl.flock(fh, fcntl.LOCK_EX)
        count = int(fh.read().strip() or 0)
        if count == 0:
            return
        if count > 0:
            fh.seek(0)
            fh.truncate()
            fh.write(str(count - 1))
            fh.flush()
    os.kill(os.getpid(), signal.SIGKILL)


def mid_run_faults_doc(faults) -> Optional[dict]:
    """The mid-run half of a fault plan, as a doc for worker kernels.

    Intake decisions need the global enumeration, so the parent
    scheduler makes them before sharding; a worker keeps only the
    mid-run faults, decided under global indices via ``ext_indices``.
    ``None`` when the plan has no mid-run half.
    """
    if faults is None or (faults.mid_crash <= 0.0
                          and faults.mid_restart <= 0.0):
        return None
    return replace(faults, crash=0.0, perturb=0.0).to_doc()


# ----------------------------------------------------------------------
# shard results ledger
# ----------------------------------------------------------------------
def _ledger_line(ext: int, payload) -> str:
    """One delivered outcome as a ledger line (result or quarantine)."""
    from repro.io.serialization import result_to_json
    if isinstance(payload, ChainOutcome):
        return json.dumps({"chain": ext, "q": payload.to_doc()},
                          separators=(",", ":"))
    return json.dumps({"chain": ext, "res": json.loads(
        result_to_json(payload))}, separators=(",", ":"))


def _read_ledger(path: str) -> Tuple[List[Tuple[int, Any]], set]:
    """Load a shard's delivered results (tolerates one torn tail line)."""
    from repro.io.serialization import result_from_json
    out: List[Tuple[int, Any]] = []
    seen: set = set()
    if not os.path.exists(path):
        return out, seen
    with open(path, "rb") as fh:
        data = fh.read()
    nl = data.rfind(b"\n")
    if nl < 0:
        return out, seen
    for line in data[:nl].split(b"\n"):
        doc = json.loads(line.decode("utf-8"))
        ext = int(doc["chain"])
        if "q" in doc:
            payload: Any = ChainOutcome.from_doc(doc["q"])
        else:
            payload = result_from_json(json.dumps(doc["res"]))
        out.append((ext, payload))
        seen.add(ext)
    return out, seen


# ----------------------------------------------------------------------
# the supervised chunk job (runs in a pool worker)
# ----------------------------------------------------------------------
#: One supervised chunk: global indices + chains + run configuration +
#: the shard WAL directory (None: volatile, re-runs from scratch).
_SupJob = Tuple[List[int], List[List[tuple]], Parameters, int, bool,
                Optional[int], bool, bool, Optional[str],
                Optional[dict], str, int]


def _supervised_stream_job(job: _SupJob) -> List[Tuple[int, Any]]:
    """Stream one chunk through a bounded kernel, durably if sharded.

    With a shard directory the chunk write-ahead-logs itself
    (§2.12 machinery, chunk-scoped) and appends every delivered
    outcome to a results ledger *before* the kernel's yield record
    can cover it — so on re-dispatch after a kill the job restores
    its own snapshot, re-reads the ledger, and returns exactly one
    outcome per stream index no matter where the previous attempt
    died.  Top-level function: must pickle for pools.
    """
    (indices, positions, params, slots, check, max_rounds, validate,
     keep, shard_dir, faults_doc, on_error, snapshot_every) = job
    _maybe_test_kill(indices)
    from repro.core.engine_fleet import FleetKernel
    from repro.core.faults import FaultPlan
    faults = FaultPlan.from_doc(faults_doc) if faults_doc else None

    if shard_dir is None:
        fleet = FleetKernel([], params=params, check_invariants=check,
                            keep_reports=keep, validate_initial=validate)
        return list(fleet.run_stream(positions, slots=slots,
                                     max_rounds=max_rounds, release=True,
                                     faults=faults, on_error=on_error,
                                     ext_indices=indices))

    from repro.errors import WalError
    from repro.io.wal import LOG_NAME, WalReader, WalWriter
    ledger = os.path.join(shard_dir, LEDGER_NAME)
    out: List[Tuple[int, Any]] = []
    seen: set = set()
    gen = None
    if os.path.exists(os.path.join(shard_dir, LOG_NAME)):
        # a previous attempt at this same chunk died mid-flight;
        # resume from its shard snapshot instead of re-running
        try:
            snap = WalReader(shard_dir).last_snapshot()
        except WalError:
            snap = None
        if snap is not None:
            out, seen = _read_ledger(ledger)
            _, gen = FleetKernel.restore_stream(shard_dir, positions,
                                                ext_indices=indices)
    if gen is None:
        # fresh dispatch (or the previous attempt died before its
        # baseline snapshot landed): start the shard log over
        if os.path.isdir(shard_dir):
            shutil.rmtree(shard_dir)
        wal = WalWriter(shard_dir)
        fleet = FleetKernel([], params=params, check_invariants=check,
                            keep_reports=keep, validate_initial=validate)
        gen = fleet.run_stream(positions, slots=slots,
                               max_rounds=max_rounds, release=True,
                               wal=wal, snapshot_every=snapshot_every,
                               faults=faults, on_error=on_error,
                               ext_indices=indices)
    with open(ledger, "a", encoding="utf-8") as fh:
        for ext, payload in gen:
            if ext in seen:
                continue               # ledgered but not yield-logged
            fh.write(_ledger_line(ext, payload) + "\n")
            fh.flush()
            out.append((ext, payload))
    return out


# ----------------------------------------------------------------------
# the supervised pool engine
# ----------------------------------------------------------------------
class _Chunk:
    """One dispatchable unit: a slice of the stream bound to a worker
    slot, its retry count, and its (stable-across-retries) shard dir."""

    __slots__ = ("worker", "indices", "positions", "retries", "attempts",
                 "solo", "shard_dir")

    def __init__(self, worker: int, indices: List[int],
                 positions: List[List[tuple]], shard_dir: Optional[str],
                 solo: bool = False):
        self.worker = worker
        self.indices = indices
        self.positions = positions
        self.shard_dir = shard_dir
        self.solo = solo
        self.retries = 0       # attributed crashes (charges the budget)
        self.attempts = 0      # dispatches, attributed or not


def pool_stream(stream: Iterable,
                params: Parameters = DEFAULT_PARAMETERS,
                workers: int = 2,
                slots: int = 256,
                max_rounds: Optional[int] = None,
                check_invariants: bool = False,
                keep_reports: bool = False,
                validate_initial: bool = True,
                faults=None,
                wal_dir: Optional[str] = None,
                snapshot_every: int = 512,
                on_error: str = "raise",
                max_retries: int = 3,
                backoff: float = 0.05,
                progress: Optional[Callable[[int, int], None]] = None,
                stats: Optional[Dict[str, int]] = None,
                as_positions: Optional[Callable] = None
                ) -> Iterator[Tuple[int, Any]]:
    """Shard a chain stream across a *supervised* process pool.

    The crash-recovery state machine (§2.13): chain ``i`` belongs to
    worker slot ``i % workers``; each slot streams chunk after chunk
    through ``slots // workers`` arena slots of its own, at most one
    chunk in flight per slot.  When the pool breaks — a worker
    SIGKILLed, OOMed, or its pipe torn — every in-flight chunk is
    collected, the pool is respawned after an exponential backoff
    (``backoff * 2**(crashes-1)``, capped at 2 s), and the casualties
    re-dispatch.  A crash is *charged* against a chunk's retry budget
    only when that chunk was alone in flight — with several chunks in
    flight the killer cannot be identified, so the casualties requeue
    uncharged and the pool enters serial *probation* (one chunk in
    flight at a time) until every suspect has completed, making the
    next crash attributable.  No innocent chunk can therefore exhaust
    its budget on collateral damage.  A chunk that exhausts
    ``max_retries`` attributed crashes is bisected to single-chain
    chunks (the poison hunt); a single chain that *still* kills
    workers is quarantined as a :class:`ChainOutcome` error record
    (``on_error="quarantine"``) or raised as :class:`WorkerCrashError`
    (``"raise"``).

    With ``wal_dir``, chunks log to ``shard-<k>/`` (isolated chunks to
    ``solo-<i>/``) and re-dispatches resume from the shard snapshot —
    see :func:`_supervised_stream_job` for the exactly-once ledger.

    Yields ``(stream_index, payload)`` pairs where payload is a
    :class:`GatheringResult` or a :class:`ChainOutcome` error record.
    ``stats`` (when given) accumulates supervision telemetry in place.
    """
    from concurrent.futures import (FIRST_COMPLETED, BrokenExecutor, Future,
                                    ProcessPoolExecutor, wait)
    from repro.core.engine_fleet import intake_fault
    if as_positions is None:
        as_positions = lambda c: c                        # noqa: E731
    workers = min(workers, slots)
    per_slots = slots // workers
    chunk_size = per_slots * 4             # amortise per-job startup
    st = stats if stats is not None else {}
    for key in ("worker_crashes", "redispatches", "isolated",
                "quarantined_worker", "fault_crashed", "fault_perturbed"):
        st.setdefault(key, 0)

    chunk_faults_doc = mid_run_faults_doc(faults)

    def job_of(ch: _Chunk) -> _SupJob:
        return (ch.indices, ch.positions, params, per_slots,
                check_invariants, max_rounds, validate_initial,
                keep_reports, ch.shard_dir, chunk_faults_doc, on_error,
                snapshot_every)

    pool = ProcessPoolExecutor(max_workers=workers)
    inflight: Dict[Any, _Chunk] = {}
    pending: List[deque] = [deque() for _ in range(workers)]
    buffers: List[list] = [[] for _ in range(workers)]
    busy = [False] * workers
    crashes = 0
    done = 0
    probation = 0      # suspect chunks that must complete serially

    def shard_path(k: int) -> Optional[str]:
        if wal_dir is None:
            return None
        return os.path.join(wal_dir, f"shard-{k}")

    def solo_path(idx: int) -> Optional[str]:
        if wal_dir is None:
            return None
        return os.path.join(wal_dir, f"solo-{idx}")

    def dispatch(k: int) -> None:
        if busy[k] or not pending[k]:
            return
        ch = pending[k].popleft()
        if ch.attempts == 0 and ch.shard_dir is not None \
                and os.path.isdir(ch.shard_dir):
            # a never-dispatched chunk re-uses its slot's shard dir
            # serially; wipe the previous chunk's completed log so any
            # log the worker finds is its own crashed attempt
            shutil.rmtree(ch.shard_dir)
        ch.attempts += 1
        busy[k] = True
        try:
            fut = pool.submit(_supervised_stream_job, job_of(ch))
        except BrokenExecutor as exc:
            # a worker died after the last wait (between jobs, or with
            # its future not yet collected): fail this dispatch like an
            # in-flight casualty, so drain() respawns the pool and
            # requeues the chunk
            fut = Future()
            fut.set_exception(exc)
        inflight[fut] = ch

    def dispatch_all() -> None:
        if probation > 0:
            # serial probation: at most one chunk in flight, so the
            # next crash convicts exactly one suspect
            if not inflight:
                for k in range(workers):
                    if pending[k]:
                        dispatch(k)
                        break
            return
        for k in range(workers):
            dispatch(k)

    def queue_fresh(k: int) -> None:
        ch = _Chunk(k, [i for i, _ in buffers[k]],
                    [p for _, p in buffers[k]], shard_path(k))
        buffers[k] = []
        pending[k].append(ch)

    def handle_casualty(ch: _Chunk) -> List[Tuple[int, Any]]:
        ch.retries += 1
        st["redispatches"] += 1
        budget = SOLO_RETRIES if ch.solo else max_retries
        if ch.retries <= budget:
            pending[ch.worker].appendleft(ch)
            return []
        if len(ch.indices) > 1:
            # the chunk keeps killing workers: bisect to singletons so
            # the poison chain convicts itself and the innocent
            # majority of the chunk completes normally
            st["isolated"] += len(ch.indices)
            for idx, pos in zip(reversed(ch.indices),
                                reversed(ch.positions)):
                pending[ch.worker].appendleft(
                    _Chunk(ch.worker, [idx], [pos], solo_path(idx),
                           solo=True))
            return []
        idx = ch.indices[0]
        msg = (f"chain {idx} killed worker slot {ch.worker} on every "
               f"attempt ({ch.retries} dispatches)")
        if on_error != "quarantine":
            raise WorkerCrashError(msg, worker=ch.worker,
                                   indices=ch.indices, retries=ch.retries)
        st["quarantined_worker"] += 1
        return [(idx, ChainOutcome(index=idx, error="WorkerCrashError",
                                   message=msg, stage="worker",
                                   retries=ch.retries, quarantined=True))]

    def drain(min_inflight: int):
        nonlocal crashes, done, pool, probation
        while len(inflight) > min_inflight:
            ready, _ = wait(set(inflight), return_when=FIRST_COMPLETED)
            casualties: List[_Chunk] = []
            broke = False
            for fut in ready:
                ch = inflight.pop(fut)
                exc = fut.exception()
                if exc is None:
                    busy[ch.worker] = False
                    if probation > 0:
                        probation -= 1
                    for pair in fut.result():
                        done += 1
                        yield pair
                    if progress is not None:
                        progress(done, -1)
                elif isinstance(exc, (BrokenExecutor, EOFError, OSError)):
                    broke = True
                    casualties.append(ch)
                elif isinstance(exc, pickle.PicklingError):
                    # deterministic transport failure: retrying cannot
                    # help, but callers still get the taxonomy class
                    raise WorkerCrashError(
                        f"chunk for worker slot {ch.worker} failed to "
                        f"cross the process boundary: {exc}",
                        worker=ch.worker, indices=ch.indices,
                        retries=ch.retries) from exc
                else:
                    # the job itself failed (strict-mode chain error, a
                    # bug): not a worker death, no retry
                    raise exc
            if broke:
                # the pool is dead: every other in-flight future
                # resolves immediately — harvest the finished ones,
                # everything else is a casualty
                for fut, ch in list(inflight.items()):
                    del inflight[fut]
                    if fut.exception() is None:
                        busy[ch.worker] = False
                        for pair in fut.result():
                            done += 1
                            yield pair
                    else:
                        casualties.append(ch)
                crashes += 1
                st["worker_crashes"] += 1
                pool.shutdown(wait=False, cancel_futures=True)
                time.sleep(min(backoff * (2 ** (crashes - 1)), 2.0))
                pool = ProcessPoolExecutor(max_workers=workers)
                for k in range(workers):
                    busy[k] = False
                if len(casualties) == 1:
                    # alone in flight: the crash is this chunk's fault
                    for pair in handle_casualty(casualties[0]):
                        done += 1
                        yield pair
                else:
                    # several suspects — the killer is unidentifiable,
                    # so nobody's budget is charged; requeue and let
                    # probation re-run them one at a time
                    for ch in casualties:
                        st["redispatches"] += 1
                        pending[ch.worker].appendleft(ch)
                # everything queued right now re-runs serially so the
                # next crash has exactly one possible culprit
                probation = sum(len(q) for q in pending)
            dispatch_all()

    try:
        for i, c in enumerate(stream):
            if faults is not None:
                kind, c = intake_fault(faults, i, c, validate_initial,
                                       on_error == "quarantine", st)
                if kind == "quarantine":
                    done += 1
                    yield i, c
                    continue
                if kind == "crash":
                    continue
            k = i % workers
            buffers[k].append((i, as_positions(c)))
            if len(buffers[k]) >= chunk_size:
                queue_fresh(k)
                dispatch_all()
                # bounded pipeline: park intake while every slot is
                # busy (or probation serialises them) and work is
                # still queued behind them
                while any(pending) and (all(busy) or probation > 0):
                    if not inflight:
                        dispatch_all()
                    yield from drain(max(len(inflight) - 1, 0))
        for k in range(workers):
            if buffers[k]:
                queue_fresh(k)
        dispatch_all()
        while any(pending) or inflight:
            yield from drain(0)
            dispatch_all()
    finally:
        pool.shutdown(wait=False, cancel_futures=True)
    if progress is not None:
        progress(done, done)


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
    with one worker; with more, the supervised pool for a finite
    iterable and the shard tier for an admission source), normalises
    every delivery to a :class:`ChainOutcome`, and appends quarantined
    outcomes to the ``dead_letter`` ledger.  After the stream drains, :attr:`stats`
    holds the merged scheduler + supervision telemetry.
    """

    def __init__(self, params: Parameters = DEFAULT_PARAMETERS,
                 workers: Optional[int] = None,
                 slots: int = 256,
                 max_rounds: Optional[int] = None,
                 check_invariants: bool = False,
                 keep_reports: bool = False,
                 validate_initial: bool = True,
                 max_retries: int = 3,
                 backoff: float = 0.05,
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
        self.max_retries = max_retries
        self.backoff = backoff
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
                             validate_initial=self.validate_initial,
                             backend="fleet")
        dl = DeadLetterWriter(self.dead_letter) if self.dead_letter else None
        quarantined = 0
        try:
            for ext, payload in sim.run_stream(
                    chains, slots=self.slots, max_rounds=self.max_rounds,
                    progress=progress, wal_dir=self.wal_dir,
                    snapshot_every=self.snapshot_every, faults=self.faults,
                    resume=self.resume, on_error="quarantine",
                    max_retries=self.max_retries, backoff=self.backoff):
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
