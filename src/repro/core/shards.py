"""The shard tier: one live admission source, K kernel worker processes.

DESIGN.md §2.16.  :meth:`BatchSimulator.run_stream` sends an admission
source (the service's queue, §2.15) here when ``workers >= 2`` — that
is ``repro serve --workers K``.  In the paper's model a robot sees only
its own chain, so chains never interact and K workers share no state:
each steps a streaming :class:`~repro.core.engine_fleet.FleetKernel` of
its own and the parent only routes.

* **Pipes.**  The parent pulls intake bursts from the source, decides
  intake faults under the consumed stream index, places each entry on
  the shard with the fewest chains in flight and sends ``(stream
  index, positions)`` bursts down that worker's control pipe.  The
  worker kernel admits them through the ordinary batched intake (parse,
  validate, quarantine) under the global indices (``ext_indices``) and
  sends every yielded ``(index, payload)`` back up its result pipe.  A
  served chain is a few KB next to a multi-millisecond gather, so plain
  pickling is all the transport needs.  A reader thread in the worker
  drains the control pipe, so neither side's blocking send can wait on
  the other's.
* **Respawn.**  The parent keeps each shard's in-flight entries in
  admission order.  A dead worker is respawned with fresh pipes and
  those entries are re-fed in that order; replay from round 0 is
  deterministic, so results stay bit-identical.  A shard that keeps
  dying without delivering anything quarantines its residents
  (``on_error="quarantine"``) or raises
  :class:`~repro.errors.WorkerCrashError`.
* **Teardown.**  Workers close their inherited copies of sibling pipe
  ends and watch their parent's pid, so the workers of a SIGKILLed
  parent drain and exit; the generator's ``finally`` stops them on any
  exit, abandonment included.

Finite batches take the supervised pool instead (§2.13), which bisects
poison chains and resumes per-chunk WALs.
"""

from __future__ import annotations

import os
import pickle
import threading
import time
import traceback
from collections import deque
from multiprocessing import connection, get_context
from typing import Dict, Iterator, List, Optional, Tuple

from repro.core.admission import Starved
from repro.core.config import DEFAULT_PARAMETERS, Parameters
from repro.core.engine_fleet import FleetKernel, intake_fault
from repro.core.faults import FaultPlan
from repro.core.results import ChainOutcome
from repro.core.supervisor import _maybe_test_kill, mid_run_faults_doc
from repro.errors import WorkerCrashError

#: consecutive no-progress worker deaths a shard survives; the next one
#: quarantines its residents (or aborts the stream)
_MAX_BARREN = 2


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
    entry — the worker kernel's ``ext_indices``, read one per take."""

    def __init__(self, conn) -> None:
        self._conn = conn
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
        with self._ready:
            if block:
                self._ready.wait_for(lambda: self._buf or self._closed,
                                     timeout)
            if not self._buf:
                if self._closed:
                    raise StopIteration
                raise Starved
            ext, payload = self._buf.popleft()
        # fault-matrix hook (same env spec as the pool tier): die by
        # SIGKILL when armed for this stream index — at take time, so
        # the chain is mid-admission when the shard dies
        _maybe_test_kill([ext])
        self.exts.append(ext)
        return payload


def _shard_worker_main(cfg: dict, ctl, res) -> None:
    """One shard worker: the ordinary streaming kernel over the pipes.

    Same scheduler, WAL records and mid-run fault machinery as the
    in-process stream, fed by :class:`_PipeSource`; every yielded pair
    goes back as ``("r", index, payload)``, the final kernel stats as
    ``("x", stats)`` and a failure as ``("e", exception, traceback)``.
    """
    wal = None
    for c in cfg.pop("fork_close", ()):
        c.close()
    try:
        kernel = FleetKernel([], params=cfg["params"],
                             check_invariants=cfg["check_invariants"],
                             keep_reports=cfg["keep_reports"],
                             validate_initial=cfg["validate_initial"])
        if cfg["wal_dir"] is not None:
            from repro.io.wal import WalWriter
            wal = WalWriter(os.path.join(cfg["wal_dir"], cfg["wal_name"]))
        src = _PipeSource(ctl)
        faults = FaultPlan.from_doc(cfg["faults"]) if cfg["faults"] else None
        for ext, payload in kernel.run_stream(
                src, slots=cfg["slots"], max_rounds=cfg["max_rounds"],
                release=True, wal=wal, snapshot_every=cfg["snapshot_every"],
                faults=faults, on_error=cfg["on_error"],
                ext_indices=src.exts):
            res.send(("r", ext, payload))
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
        if wal is not None:
            wal.close()
        res.close()


# ----------------------------------------------------------------------
# parent side
# ----------------------------------------------------------------------

class _Shard:
    """Parent-side state of one shard: process, pipes, in-flight table."""

    __slots__ = ("k", "proc", "ctl", "res", "inflight", "completed",
                 "since_spawn", "respawns", "barren", "closed_sent", "done",
                 "stats")

    def __init__(self, k: int):
        self.k = k
        self.proc = None
        self.ctl = None
        self.res = None
        #: index -> payload; dict order == admission order, which is the
        #: deterministic re-feed order on respawn
        self.inflight: Dict[int, object] = {}
        self.completed = 0
        self.since_spawn = 0
        self.respawns = 0
        self.barren = 0
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
                 wal_dir: Optional[str] = None,
                 snapshot_every: int = 512,
                 on_error: str = "raise",
                 progress=None,
                 stats: Optional[dict] = None,
                 ) -> Iterator[Tuple[int, object]]:
    """The shard scheduler: pump an admission source through K workers.

    Mirrors the in-process scheduler's intake discipline — pull bursts
    up to the free slot budget (``slots // workers`` per shard),
    blocking only when nothing is in flight anywhere, and decide intake
    faults at pull time under the consumed index — then routes each
    entry to the least-loaded shard.  Yields ``(index, payload)`` pairs
    in completion order; per index they are bit-identical to the
    in-process stream.  ``stats`` (when given) is updated live, so a
    service can read per-shard occupancy mid-stream.
    """
    if on_error not in ("raise", "quarantine"):
        raise ValueError("on_error must be 'raise' or 'quarantine'")
    quarantine = on_error == "quarantine"
    workers = max(1, int(workers))
    slots_per = max(1, int(slots) // workers)
    capacity = workers * slots_per
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
    if wal_dir is not None:
        os.makedirs(wal_dir, exist_ok=True)

    ctx = get_context()
    take = source.take
    worker_faults = mid_run_faults_doc(faults)
    shards = [_Shard(k) for k in range(workers)]
    submitted = 0               # stream indices consumed
    delivered = 0               # results yielded
    exhausted = False
    t0 = time.perf_counter()

    def total_inflight() -> int:
        return sum(len(s.inflight) for s in shards)

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
        wal_name = f"shard-{s.k}" + (f"-r{s.respawns}" if s.respawns
                                     else "")
        if wal_dir is not None:
            # worker WALs are effect logs, never resumed in place — a
            # re-fed stream (service-level resume) gets fresh suffixed
            # directories instead of colliding with the dead run's
            cand, m = wal_name, 1
            while os.path.exists(os.path.join(wal_dir, cand)):
                cand = f"{wal_name}.{m}"
                m += 1
            wal_name = cand
        cfg = {"slots": slots_per, "params": params,
               "check_invariants": check_invariants,
               "keep_reports": keep_reports,
               "validate_initial": validate_initial,
               "max_rounds": max_rounds, "on_error": on_error,
               "faults": worker_faults, "wal_dir": wal_dir,
               "snapshot_every": snapshot_every, "wal_name": wal_name}
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
        s.since_spawn = 0
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
        free = capacity - total_inflight()
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
        """Least-loaded placement (chains in flight, lowest shard on
        ties); one control-pipe burst per shard."""
        bursts: Dict[int, list] = {}
        for idx, payload in pulled:
            s = min(shards, key=lambda s: len(s.inflight))
            s.inflight[idx] = payload
            bursts.setdefault(s.k, []).append((idx, payload))
        for k, burst in bursts.items():
            send(shards[k], ("a", burst))
        stats["admitted"] += len(pulled)

    def receive(s: _Shard):
        """Drain one result pipe; returns ``(pairs, crashed)``."""
        out = []
        failure = None
        try:
            while failure is None and s.res.poll(0):
                msg = s.res.recv()
                if msg[0] == "r":
                    idx, payload = msg[1], msg[2]
                    s.inflight.pop(idx, None)
                    if isinstance(payload, ChainOutcome):
                        if payload.stage == "fault":
                            stats["mid_crashed"] += 1
                        else:
                            stats["quarantined"] += 1
                            if payload.stage == "admit":
                                stats["admitted"] -= 1
                    s.completed += 1
                    s.since_spawn += 1
                    out.append((idx, payload))
                elif msg[0] == "x":
                    s.stats = msg[1]
                    s.done = True
                else:
                    failure = msg
        except (EOFError, OSError):
            return out, True
        if failure is not None:
            s.done = True
            if failure[1] is not None:
                raise failure[1]
            raise WorkerCrashError(
                f"shard {s.k} failed:\n{failure[2]}", worker=s.k,
                indices=list(s.inflight))
        return out, False

    def respawn(s: _Shard):
        """Crash recovery: respawn the worker, re-feed its in-flight
        entries in admission order (deterministic replay from round 0)."""
        out = []
        s.proc.join(timeout=5.0)
        s.ctl.close()
        s.res.close()
        s.barren = s.barren + 1 if s.since_spawn == 0 else 0
        if s.barren > _MAX_BARREN and s.inflight:
            # crash-looping without progress: the residents are the
            # suspects.  Quarantine them (supervised mode) or abort.
            idxs = list(s.inflight)
            if not quarantine:
                s.done = True
                raise WorkerCrashError(
                    f"shard {s.k} died {s.barren} times without "
                    f"progress; in-flight chains {idxs}",
                    worker=s.k, indices=idxs)
            for idx in idxs:
                stats["quarantined"] += 1
                out.append((idx, ChainOutcome(
                    index=idx, error="WorkerCrashError",
                    message=(f"shard worker {s.k} kept dying with this "
                             f"chain in flight"),
                    stage="round", quarantined=True)))
            s.inflight.clear()
            s.barren = 0
        s.respawns += 1
        stats["respawns"] += 1
        spawn(s)
        if s.inflight:
            send(s, ("a", list(s.inflight.items())))
        if s.closed_sent:
            send(s, ("c",))
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
            if not s.done and (crashed or not s.proc.is_alive()):
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
                    if not s.closed_sent:
                        send(s, ("c",))
                        s.closed_sent = True
                if all(s.done for s in shards):
                    break
            # a starved source with room to admit: poll the pipes
            # briefly, then retry the pull; otherwise wait for results
            timeout = 0.02 if not exhausted \
                and total_inflight() < capacity else None
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
