"""The shard tier: every multi-process stream, K kernel worker processes.

DESIGN.md §2.16.  :meth:`BatchSimulator.run_stream` sends every stream
here when ``workers >= 2``: a live admission source (the service's
queue, §2.15, that is ``repro serve --workers K``) and a finite
iterable alike (every multi-process ``run()`` batch and ``repro batch
--workers K``).  A plain iterable is read with ``next()`` as a source
that is closed from the start.  In the paper's model a robot sees only
its own chain, so chains never interact and K workers share no state:
each steps a streaming :class:`~repro.core.engine_fleet.FleetKernel` of
its own and the parent only routes.

* **Pipes.**  The parent pulls intake bursts from the source, decides
  intake faults under the consumed stream index, places each entry on
  the shard with the fewest chains in flight and sends ``(stream
  index, payload)`` bursts down that worker's control pipe.  The
  worker kernel admits them through the ordinary batched intake (parse,
  validate, quarantine) under the global indices and sends the pairs
  it yields back up its result pipe, one message per scheduling pass.
  A reader thread in the worker drains the control pipe, so neither
  side's blocking send can wait on the other's.
* **Respawn and attribution.**  The parent keeps each shard's
  in-flight entries in admission order.  A dead worker is respawned
  with fresh pipes and those entries become *suspects*, re-fed one at
  a time in admission order while the other shards keep admitting;
  replay from round 0 is deterministic, so results stay bit-identical.
  A death with exactly one entry in flight is a strike against that
  entry, and the strike after :data:`_MAX_STRIKES` quarantines it
  (``on_error="quarantine"``) or raises
  :class:`~repro.errors.WorkerCrashError`.
* **Teardown.**  Workers close their inherited copies of sibling pipe
  ends and watch their parent's pid, so the workers of a SIGKILLed
  parent drain and exit; the generator's ``finally`` stops them on any
  exit, abandonment included.
"""

from __future__ import annotations

import os
import pickle
import threading
import time
import traceback
from collections import deque
from dataclasses import replace
from multiprocessing import connection, get_context
from typing import Dict, Iterator, List, Optional, Tuple

from repro.core.admission import Starved, is_admission_source
from repro.core.config import DEFAULT_PARAMETERS, Parameters
from repro.core.engine_fleet import FleetKernel, intake_fault
from repro.core.faults import FaultPlan
from repro.core.results import ChainOutcome
from repro.errors import WorkerCrashError

#: solo worker deaths (one entry in flight) an entry survives; the next
#: one convicts it as the killer.  A death from outside lands on
#: whichever entry happens to run alone, so a lower cap risks
#: convicting an innocent chain (DESIGN.md §2.13).
_MAX_STRIKES = 5

#: Env hook for deterministic worker-kill injection (tests and the
#: crash harness): ``<counter-file>:<idx>[,<idx>...]`` — a worker that
#: takes a listed stream index SIGKILLs itself, decrementing the
#: counter file first; at zero the hook disarms (a negative count
#: never disarms: a poison chain that always kills).
KILL_SPEC_ENV = "REPRO_KILL_SPEC"


def _maybe_test_kill(ext: int) -> None:
    """Fault-injection hook: die by SIGKILL if armed for stream index
    ``ext``."""
    spec = os.environ.get(KILL_SPEC_ENV)
    if not spec:
        return
    path, _, idx_part = spec.partition(":")
    if ext not in {int(x) for x in idx_part.split(",") if x}:
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
    mid-run faults, decided under the global indices it is fed.
    ``None`` when the plan has no mid-run half.
    """
    if faults is None or (faults.mid_crash <= 0.0
                          and faults.mid_restart <= 0.0):
        return None
    return replace(faults, crash=0.0, perturb=0.0).to_doc()


# ----------------------------------------------------------------------
# worker side
# ----------------------------------------------------------------------

class _PipeSource:
    """Admission source (``take``/``Starved`` protocol) over the control
    pipe.  A reader thread drains the pipe whatever the kernel is doing
    — a parent blocked sending a large burst must never wait on a
    worker blocked sending results — into a buffer of ``(index,
    payload)`` entries.  ``("c",)`` closes the source (``StopIteration``
    once drained), and so does a vanished parent, so orphaned workers
    drain and exit.  ``exts`` lists the stream index of every taken
    entry — the worker kernel's ``ext_indices``, read one per take.
    ``flush`` runs before a blocking take, so results never wait in
    the worker while it parks."""

    def __init__(self, conn, flush) -> None:
        self._conn = conn
        self._flush = flush
        self._buf: deque = deque()
        self._closed = False
        self._ready = threading.Condition()
        self._ppid = os.getppid()
        self.exts: List[int] = []
        threading.Thread(target=self._read, daemon=True).start()

    def __iter__(self):
        return self

    def __next__(self):
        # run_stream drives the take/Starved protocol; the iterator
        # face exists only so iter() accepts the source
        return self.take(block=True)

    def _read(self) -> None:
        try:
            while True:
                # parent-death watchdog: EOF alone is not a reliable
                # death signal while another process still holds an
                # inherited copy of this pipe's write end
                while not self._conn.poll(1.0):
                    if os.getppid() != self._ppid:
                        return
                msg = self._conn.recv()
                if msg[0] != "a":
                    return
                with self._ready:
                    self._buf.extend(msg[1])
                    self._ready.notify()
        except (EOFError, OSError):
            pass
        finally:
            with self._ready:
                self._closed = True
                self._ready.notify()

    def take(self, block: bool = False, timeout: Optional[float] = None):
        if block:
            self._flush()
        with self._ready:
            if block:
                self._ready.wait_for(lambda: self._buf or self._closed,
                                     timeout)
            if not self._buf:
                if self._closed:
                    raise StopIteration
                raise Starved
            ext, payload = self._buf.popleft()
        # fault-matrix hook: die by SIGKILL when armed for this stream
        # index — at take time, so the chain is mid-admission when the
        # shard dies
        _maybe_test_kill(ext)
        self.exts.append(ext)
        return payload


def _shard_worker_main(cfg: dict, ctl, res) -> None:
    """One shard worker: the ordinary streaming kernel over the pipes.

    Same scheduler and mid-run fault machinery as the in-process
    stream, fed by :class:`_PipeSource`; it writes no log.  The pairs a
    scheduling pass yields go back as one ``("r", [(index, payload),
    ...])`` message — sent from the kernel's ``progress`` callback,
    before a blocking take and at stream end — the final kernel stats
    as ``("x", stats)`` and a failure as ``("e", exception,
    traceback)``.
    """
    for c in cfg.pop("fork_close", ()):
        c.close()
    try:
        kernel = FleetKernel([], params=cfg["params"],
                             check_invariants=cfg["check_invariants"],
                             keep_reports=cfg["keep_reports"],
                             validate_initial=cfg["validate_initial"])
        out: List[Tuple[int, object]] = []

        def flush(*_) -> None:
            if out:
                res.send(("r", out))     # pickled here: safe to clear
                out.clear()

        src = _PipeSource(ctl, flush)
        faults = FaultPlan.from_doc(cfg["faults"]) if cfg["faults"] else None
        for pair in kernel.run_stream(
                src, slots=cfg["slots"], max_rounds=cfg["max_rounds"],
                progress=flush, release=True, faults=faults,
                on_error=cfg["on_error"], ext_indices=src.exts):
            out.append(pair)
        flush()
        stats = dict(kernel.stream_stats)
        stats["rounds"] = int(kernel.round_index)
        stats["peak_live_chains"] = int(kernel.arena.peak_live)
        stats["peak_cells"] = int(kernel.arena.peak_cells)
        res.send(("x", stats))
    except (BrokenPipeError, EOFError):
        pass                           # parent died: no one to report to
    except Exception as exc:           # noqa: BLE001 — shipped to parent
        try:
            pickle.dumps(exc)
        except Exception:
            exc = None
        try:
            res.send(("e", exc, traceback.format_exc()))
        except Exception:
            pass
    finally:
        res.close()


# ----------------------------------------------------------------------
# parent side
# ----------------------------------------------------------------------

class _Shard:
    """Parent-side state of one shard: process, pipes, in-flight table."""

    __slots__ = ("k", "proc", "ctl", "res", "inflight", "suspects",
                 "completed", "respawns", "closed_sent", "done", "stats")

    def __init__(self, k: int):
        self.k = k
        self.proc = None
        self.ctl = None
        self.res = None
        #: index -> payload; dict order == admission order, which is the
        #: deterministic re-feed order on respawn
        self.inflight: Dict[int, object] = {}
        #: ``(index, payload)`` in flight at a worker death, unresolved;
        #: the head runs alone, and the shard takes no new entries and
        #: no close message until the queue is empty
        self.suspects: deque = deque()
        self.completed = 0
        self.respawns = 0
        self.closed_sent = False
        self.done = False
        self.stats: Optional[dict] = None


def shard_stream(source, *,
                 params: Parameters = DEFAULT_PARAMETERS,
                 workers: int = 2,
                 slots: int = 256,
                 max_rounds: Optional[int] = None,
                 check_invariants: bool = False,
                 keep_reports: bool = False,
                 validate_initial: bool = True,
                 faults=None,
                 on_error: str = "raise",
                 progress=None,
                 stats: Optional[dict] = None,
                 ) -> Iterator[Tuple[int, object]]:
    """The shard scheduler: pump a source or an iterable through K workers.

    Mirrors the in-process scheduler's intake discipline — pull bursts
    up to the free slot budget (``slots // workers`` per shard, with
    never more shards than ``slots``), blocking only when nothing is in
    flight anywhere, and decide intake faults at pull time under the
    consumed index — then routes each entry to the least-loaded shard
    that has no suspects.  Yields ``(index, payload)`` pairs in
    completion order; per index they are bit-identical to the
    in-process stream.  ``stats`` (when given) is updated live, so a
    service can read per-shard occupancy mid-stream.
    """
    if on_error not in ("raise", "quarantine"):
        raise ValueError("on_error must be 'raise' or 'quarantine'")
    quarantine = on_error == "quarantine"
    # slots caps the total residency: one slot per shard at the least
    workers = max(1, min(int(workers), int(slots)))
    slots_per = max(1, int(slots) // workers)
    if stats is None:
        stats = {}
    stats.update({
        "workers": workers, "slots_per_worker": slots_per,
        "admitted": 0, "quarantined": 0, "fault_crashed": 0,
        "fault_perturbed": 0, "mid_crashed": 0, "mid_restarted": 0,
        "respawns": 0,
    })
    per_shard = [{"shard": k, "live": 0, "completed": 0, "respawns": 0,
                  "chains_per_s": 0.0} for k in range(workers)]
    stats["per_shard"] = per_shard

    if is_admission_source(source):
        take = source.take
    else:
        # a finite iterable is a source that is closed from the start
        it = iter(source)

        def take(block: bool = False):
            return next(it)

    ctx = get_context()
    worker_faults = mid_run_faults_doc(faults)
    shards = [_Shard(k) for k in range(workers)]
    strikes: Dict[int, int] = {}    # stream index -> solo worker deaths
    submitted = 0               # stream indices consumed
    delivered = 0               # results yielded
    exhausted = False
    t0 = time.perf_counter()

    def total_inflight() -> int:
        return sum(len(s.inflight) for s in shards)

    def free_slots() -> int:
        """Room on the shards that take new entries (no suspects)."""
        return sum(slots_per - len(s.inflight) for s in shards
                   if not s.suspects)

    def refresh_shard_stats() -> None:
        dt = time.perf_counter() - t0
        for s in shards:
            row = per_shard[s.k]
            row["live"] = len(s.inflight)
            row["completed"] = s.completed
            row["respawns"] = s.respawns
            row["chains_per_s"] = round(s.completed / dt, 2) if dt > 0 \
                else 0.0

    def send(s: _Shard, msg) -> None:
        try:
            s.ctl.send(msg)
        except OSError:
            pass        # dead worker: respawn re-feeds its in-flight set

    def spawn(s: _Shard) -> None:
        ctl_r, ctl_w = ctx.Pipe(duplex=False)
        res_r, res_w = ctx.Pipe(duplex=False)
        cfg = {"slots": slots_per, "params": params,
               "check_invariants": check_invariants,
               "keep_reports": keep_reports,
               "validate_initial": validate_initial,
               "max_rounds": max_rounds, "on_error": on_error,
               "faults": worker_faults}
        if ctx.get_start_method() == "fork":
            # the fork inherits every open parent fd: this shard's own
            # parent-side pipe ends plus every sibling's.  Left open in
            # the child they defeat EOF-based death detection (a dead
            # parent's pipes stay open through the sibling copies) and
            # keep orphaned workers alive; the child closes them on entry
            inherited = [ctl_w, res_r]
            for other in shards:
                for c in (other.ctl, other.res):
                    if c is not None and not c.closed:
                        inherited.append(c)
            cfg["fork_close"] = inherited
        proc = ctx.Process(target=_shard_worker_main,
                           args=(cfg, ctl_r, res_w), daemon=True)
        proc.start()
        ctl_r.close()
        res_w.close()
        s.proc, s.ctl, s.res = proc, ctl_w, res_r
        s.closed_sent = False
        s.done = False
        s.stats = None

    def pull():
        """Pull entries up to the free slot budget.  Intake faults fire
        here, at consume time, under the consumed index — identical to
        the in-process scheduler.  Returns ``(pulled, early)``: entries
        to place, and outcomes quarantined before placement."""
        nonlocal submitted, exhausted
        pulled: List[Tuple[int, object]] = []
        early: List[Tuple[int, ChainOutcome]] = []
        free = free_slots()
        while len(pulled) < free:
            try:
                nxt = take(block=(not pulled and not early
                                  and total_inflight() == 0))
            except Starved:
                break
            except StopIteration:
                exhausted = True
                break
            idx = submitted
            submitted += 1
            if faults is not None:
                kind, nxt = intake_fault(faults, idx, nxt, validate_initial,
                                         quarantine, stats)
                if kind == "quarantine":
                    stats["quarantined"] += 1
                    early.append((idx, nxt))
                    continue
                if kind == "crash":
                    continue
            pulled.append((idx, nxt))
        return pulled, early

    def place(pulled) -> None:
        """Least-loaded placement over the shards without suspects
        (chains in flight, lowest shard on ties); one control-pipe
        burst per shard."""
        open_ = [s for s in shards if not s.suspects]
        bursts: Dict[int, list] = {}
        for idx, payload in pulled:
            s = min(open_, key=lambda s: len(s.inflight))
            s.inflight[idx] = payload
            bursts.setdefault(s.k, []).append((idx, payload))
        for k, burst in bursts.items():
            send(shards[k], ("a", burst))
        stats["admitted"] += len(pulled)

    def feed(s: _Shard) -> None:
        """Run the head suspect alone once nothing else is in flight."""
        if s.suspects and not s.inflight:
            idx, payload = s.suspects[0]
            s.inflight[idx] = payload
            send(s, ("a", [(idx, payload)]))

    def receive(s: _Shard):
        """Read one message from a running worker, and every message
        left in the pipe of one that has exited; returns ``(pairs,
        crashed)``."""
        out = []
        failure = None
        try:
            while True:
                alive = s.proc.is_alive()
                if not alive and not s.res.poll(0):
                    return out, True
                msg = s.res.recv()
                if msg[0] == "x":
                    s.stats = msg[1]
                    s.done = True
                    break
                if msg[0] != "r":
                    failure = msg
                    break
                for idx, payload in msg[1]:
                    s.inflight.pop(idx, None)
                    if s.suspects and s.suspects[0][0] == idx:
                        s.suspects.popleft()
                    if isinstance(payload, ChainOutcome):
                        # a mid-run fault crash counts under both, as
                        # the in-process kernel counts it
                        stats["quarantined"] += 1
                        if payload.stage == "fault":
                            stats["mid_crashed"] += 1
                        elif payload.stage == "admit":
                            stats["admitted"] -= 1
                    s.completed += 1
                    out.append((idx, payload))
                if alive:
                    break
        except (EOFError, OSError):
            return out, True
        if failure is not None:
            s.done = True
            if failure[1] is not None:
                raise failure[1]
            raise WorkerCrashError(
                f"shard {s.k} failed:\n{failure[2]}", worker=s.k,
                indices=list(s.inflight))
        feed(s)
        return out, False

    def respawn(s: _Shard):
        """Crash recovery: strike a lone in-flight entry (convicting it
        on the strike after ``_MAX_STRIKES``), make the rest suspects,
        respawn the worker and re-feed the head suspect."""
        out = []
        s.proc.join(timeout=5.0)
        s.ctl.close()
        s.res.close()
        if len(s.inflight) == 1:
            (idx, _), = s.inflight.items()
            strikes[idx] = strikes.get(idx, 0) + 1
            if strikes[idx] > _MAX_STRIKES:
                msg = (f"chain {idx} killed shard worker {s.k} each time "
                       f"it ran alone ({strikes[idx]} deaths)")
                if not quarantine:
                    s.done = True
                    raise WorkerCrashError(msg, worker=s.k, indices=[idx],
                                           retries=strikes[idx])
                s.inflight.clear()
                if s.suspects and s.suspects[0][0] == idx:
                    s.suspects.popleft()
                stats["quarantined"] += 1
                s.completed += 1
                out.append((idx, ChainOutcome(
                    index=idx, error="WorkerCrashError", message=msg,
                    stage="worker", retries=strikes[idx],
                    quarantined=True)))
        if not s.suspects:
            # a probation head is already queued; otherwise everything
            # in flight is a suspect, in admission order
            s.suspects.extend(s.inflight.items())
        s.inflight.clear()
        s.respawns += 1
        stats["respawns"] += 1
        spawn(s)
        feed(s)
        return out

    def pump(timeout):
        """Wait on result pipes and process sentinels; collect results,
        respawn dead workers."""
        waitables = {}
        for s in shards:
            if not s.done:
                waitables[s.res] = s
                waitables[s.proc.sentinel] = s
        if not waitables:
            return []
        ready = {}
        for r in connection.wait(list(waitables), timeout):
            ready[waitables[r].k] = waitables[r]
        out = []
        for s in ready.values():
            pairs, crashed = receive(s)
            out.extend(pairs)
            if crashed:
                out.extend(respawn(s))
        return out

    def emit(pairs):
        nonlocal delivered
        if not pairs:
            return
        # results become externally visible at the yield (the service
        # writes frames from them before this generator resumes):
        # refresh the per-shard rows first, so a status probe racing
        # the last frame already counts these completions
        refresh_shard_stats()
        for pair in pairs:
            yield pair
            delivered += 1
        if progress is not None:
            progress(delivered, submitted if exhausted else -1)

    try:
        for s in shards:
            spawn(s)
        while True:
            if not exhausted:
                pulled, early = pull()
                if pulled:
                    place(pulled)
                yield from emit(early)
            if exhausted:
                for s in shards:
                    if not s.closed_sent and not s.suspects:
                        send(s, ("c",))
                        s.closed_sent = True
                if all(s.done for s in shards):
                    break
            # a starved source with room to admit: poll the pipes
            # briefly, then retry the pull; otherwise wait for results
            timeout = 0.02 if not exhausted and free_slots() > 0 else None
            yield from emit(pump(timeout))
            refresh_shard_stats()
    finally:
        for s in shards:
            for c in (s.ctl, s.res):
                if c is not None:
                    c.close()
        for s in shards:
            if s.proc is not None and s.proc.is_alive():
                s.proc.terminate()
        for s in shards:
            if s.proc is not None:
                s.proc.join(timeout=5.0)
                if s.proc.is_alive():
                    s.proc.kill()
                    s.proc.join(timeout=5.0)
        refresh_shard_stats()
        for s in shards:
            if s.stats:
                row = per_shard[s.k]
                row["rounds"] = s.stats["rounds"]
                row["peak_live"] = s.stats["peak_live_chains"]
                row["peak_cells"] = s.stats["peak_cells"]
                stats["mid_restarted"] += s.stats["mid_restarted"]
        stats["rounds"] = sum(r.get("rounds", 0) for r in per_shard)
        stats["peak_live_chains"] = sum(r.get("peak_live", 0)
                                        for r in per_shard)
        stats["peak_cells"] = sum(r.get("peak_cells", 0)
                                  for r in per_shard)
        dt = time.perf_counter() - t0
        stats["chains_per_s"] = round(delivered / dt, 2) if dt > 0 else 0.0
