"""Shared-memory fleet sharding: one arena slab, N kernel workers.

The zero-copy scale-out tier (DESIGN.md §2.16).  The process-pool
streaming path (§2.13) pickles every chain twice — once into the
worker, once back out as a result.  This tier removes both copies:

* **One slab.**  The parent allocates a single
  ``multiprocessing.shared_memory`` segment holding ``workers``
  disjoint shard regions.  Each region is a full set of arena cell
  buffers (positions, edge codes, ids, index, owner) plus a
  fixed-size *result ledger ring*.  Workers attach the same segment
  by name and wrap their region in a :class:`ChainArena` via its
  ``buffers=`` hook — the arena they step *is* the slab.
* **Zero-copy admission.**  The parent pulls intake bursts from the
  single streaming source (the ``take``/``Starved`` seam of
  :mod:`repro.core.admission`), parses and validates each burst once
  (:func:`repro.core.engine_fleet.parse_burst` — the identical code
  path the in-process fleet runs), writes positions and edge codes
  straight into the chosen shard's region and hands the worker a
  :class:`~repro.core.engine_fleet.SlotTicket` — five integers.  The
  worker adopts the dictated range in place
  (:meth:`ChainArena.adopt_slots`); no robot ever crosses the pipe.
* **Zero-copy results.**  Workers run their kernels with
  ``slim_results=True``: a retired chain publishes one eight-word row
  (stream index, slab base, sizes, rounds, gathered flag) into its
  shard's ledger ring and rings a doorbell byte down the result pipe.
  The parent materialises the :class:`GatheringResult` by reading the
  final positions out of the slab — nothing is unpickled.

Ownership protocol (who may touch what):

* The parent is the *sole allocator*: it keeps a per-shard free-list
  mirror and dictates every placement.  Workers carve exactly the
  dictated ranges (``adopt_slots``) and never compact or grow.
* A worker frees a slot in its own free list when the chain retires
  (before publishing the ledger row); the parent frees its mirror
  only after *consuming* the row.  Parent frees thus always trail
  worker frees, so every parent carve is guaranteed to succeed in
  the worker — and retired cell data stays untouched in the slab
  until the parent has read the final positions out of it.
* Ledger ring: ``head`` is worker-written (publish count), ``tail``
  parent-written (consume count).  The parent only reads rows after
  receiving the doorbell message — the pipe round-trip is the memory
  barrier — and the ring is sized to ``2 * slots_per_shard + 8``
  rows, which bounds worker-side occupancy, so publishing never
  blocks.

Crash recovery composes with the supervision tier: a dead worker's
published-but-unconsumed rows are salvaged (those chains finished),
the survivor set is re-placed into a reset region and re-fed as fresh
tickets to a respawned worker mapping the *same* slab region —
deterministic replay from round 0 yields bit-identical results.  A
shard that keeps dying without progress quarantines its residents
(``on_error="quarantine"``) or raises
:class:`~repro.errors.WorkerCrashError`.

Teardown: the parent owns the segment (created → registered with the
``resource_tracker``, so even a SIGKILLed parent leaks nothing — the
tracker unlinks it); workers attach and immediately *unregister* so
their exit cannot unlink a live slab.  The parent's ``finally`` block
closes pipes, terminates workers and ``close()``/``unlink()``s the
slab, covering generator abandonment too.
"""

from __future__ import annotations

import os
import time
import traceback
from collections import deque
from multiprocessing import connection, get_context, resource_tracker, \
    shared_memory
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.core.admission import Starved
from repro.core.arena import ChainArena
from repro.core.chain import ClosedChain
from repro.core.config import DEFAULT_PARAMETERS, Parameters
from repro.core.engine_fleet import (FleetKernel, SlimResult, SlotTicket,
                                     parse_burst)
from repro.core.results import ChainOutcome, GatheringResult
from repro.errors import ChainError, WorkerCrashError

#: int64 words per ledger row: ext, base, n0, final_n, rounds, gathered,
#: spare, spare
_ROW_W = 8
#: int64 words of ledger header: head (worker-written publish count),
#: tail (parent-written consume count), spare, spare
_HDR_W = 4
#: consecutive no-progress worker deaths before the shard's residents
#: are quarantined (or the stream aborts)
_MAX_BARREN = 2


def _cell_words(cells: int) -> int:
    """int64 words of one shard's arena buffers (pos pad row included)."""
    return (cells + 1) * 2 + 4 * cells


class FleetSlab:
    """One shared segment of ``workers`` shard regions + ledger rings.

    Layout per shard (all int64, offsets in words)::

        pos[(cells+1) * 2] | codes[cells] | ids[cells] | index[cells]
        | owner[cells] | ledger header[4] | ledger rows[ring_rows * 8]

    The creating process registers the segment with the resource
    tracker (leak-proof under SIGKILL); attaching processes must use
    :func:`attach_slab`, which unregisters immediately so a worker's
    exit can never unlink a slab the parent still steps.
    """

    def __init__(self, workers: int, cells: int, ring_rows: int,
                 name: Optional[str] = None):
        self.workers = int(workers)
        self.cells = int(cells)
        self.ring_rows = int(ring_rows)
        self.shard_words = _cell_words(self.cells) \
            + _HDR_W + self.ring_rows * _ROW_W
        if name is None:
            nbytes = max(self.workers * self.shard_words * 8, 8)
            self.shm = shared_memory.SharedMemory(create=True, size=nbytes)
            self.created = True
        else:
            self.shm = shared_memory.SharedMemory(name=name)
            self.created = False
        self.name = self.shm.name
        self._arr: Optional[np.ndarray] = np.frombuffer(
            self.shm.buf, dtype=np.int64,
            count=self.workers * self.shard_words)

    def shard_buffers(self, k: int) -> Dict[str, np.ndarray]:
        """Shard ``k``'s arena cell buffers (``ChainArena(buffers=...)``)."""
        c = self.cells
        o = k * self.shard_words
        a = self._arr
        out = {"pos": a[o:o + (c + 1) * 2].reshape(c + 1, 2)}
        o += (c + 1) * 2
        for field in ("codes", "ids", "index", "owner"):
            out[field] = a[o:o + c]
            o += c
        return out

    def ledger(self, k: int) -> Tuple[np.ndarray, np.ndarray]:
        """Shard ``k``'s result ring as ``(header[4], rows[ring, 8])``."""
        o = k * self.shard_words + _cell_words(self.cells)
        hdr = self._arr[o:o + _HDR_W]
        rows = self._arr[o + _HDR_W:o + _HDR_W + self.ring_rows * _ROW_W]
        return hdr, rows.reshape(self.ring_rows, _ROW_W)

    def close(self) -> None:
        """Drop this process's mapping (keep the segment for others)."""
        self._arr = None
        _close_seg(self.shm)

    def unlink(self) -> None:
        """Remove the segment name (idempotent; creator-side teardown)."""
        try:
            self.shm.unlink()
        except FileNotFoundError:
            pass


def attach_slab(name: str, workers: int, cells: int,
                ring_rows: int) -> FleetSlab:
    """Attach an existing slab without disturbing leak protection.

    Python 3.11 registers a segment with the resource tracker on
    *attach* as well as create (bpo-39959).  Under ``spawn`` each
    process has its own tracker, so the attacher must unregister or
    its clean exit unlinks the slab the parent still steps.  Under
    ``fork`` the tracker process is shared with the creator and its
    cache is a set — the attach-register is a no-op, and unregistering
    here would strip the *parent's* leak protection (and make the
    parent's eventual ``unlink`` double-unregister).
    """
    slab = FleetSlab(workers, cells, ring_rows, name=name)
    try:
        import multiprocessing
        if multiprocessing.get_start_method(allow_none=True) != "fork":
            resource_tracker.unregister(slab.shm._name, "shared_memory")
    except Exception:
        pass
    return slab


def _close_seg(shm: shared_memory.SharedMemory) -> None:
    """Close a raw segment handle, tolerating pinned numpy views: on
    ``BufferError`` the handle is neutralised (so ``__del__`` cannot
    retry noisily) and the descriptor released; the mapping itself
    dies with the process."""
    try:
        shm.close()
    except BufferError:
        shm._buf = None
        shm._mmap = None
        if getattr(shm, "_fd", -1) >= 0:
            try:
                os.close(shm._fd)
            except OSError:
                pass
            shm._fd = -1


# ----------------------------------------------------------------------
# worker side
# ----------------------------------------------------------------------

class _TicketSource:
    """Admission source (``take``/``Starved`` protocol) over the
    control pipe: the worker kernel's ``run_stream`` pulls
    :class:`SlotTicket` descriptors from it exactly as the in-process
    scheduler pulls payloads from a queue.  ``("c",)`` closes the
    source (→ ``StopIteration`` once drained); a vanished parent
    (EOF) closes it too, so orphaned workers drain and exit."""

    def __init__(self, conn) -> None:
        from repro.core.supervisor import _maybe_test_kill
        self._conn = conn
        self._kill = _maybe_test_kill
        self._buf: deque = deque()
        self._closed = False
        self._ppid = os.getppid()

    def __iter__(self):
        return self

    def __next__(self):
        # run_stream drives the take/Starved protocol; the iterator
        # face exists only so iter() accepts the source
        try:
            return self.take(block=True)
        except StopIteration:
            raise StopIteration from None

    def _pump(self, timeout) -> None:
        try:
            if timeout is None:
                # indefinite park: poll in slices with a parent-death
                # watchdog — EOF alone is not a reliable death signal
                # (a sibling worker forked later holds an inherited
                # copy of this pipe's write end until it too exits)
                while not self._conn.poll(1.0):
                    if os.getppid() != self._ppid:
                        self._closed = True
                        return
                # fall through to drain
            elif not self._conn.poll(timeout):
                if os.getppid() != self._ppid:
                    self._closed = True
                return
            while True:
                msg = self._conn.recv()
                if msg[0] == "a":
                    self._buf.extend(msg[1])
                elif msg[0] == "c":
                    self._closed = True
                if not self._conn.poll(0):
                    return
        except (EOFError, OSError):
            self._closed = True

    def take(self, block: bool = False, timeout: Optional[float] = None):
        self._pump(0)
        while not self._buf:
            if self._closed:
                raise StopIteration
            if not block:
                raise Starved
            self._pump(timeout)
            if timeout is not None and not self._buf:
                if self._closed:
                    raise StopIteration
                raise Starved
        t = self._buf.popleft()
        # fault-matrix hook (same env spec as the pool tier): die by
        # SIGKILL when armed for this stream index — at take time, so
        # the chain is mid-admission when the shard dies
        self._kill([t.ext])
        return t


def _shard_worker_main(cfg: dict, ctl, res) -> None:
    """One shard worker: attach the slab, step a kernel over tickets.

    Everything after attach is the ordinary streaming kernel — same
    scheduler, same WAL records, same mid-fault machinery — fed by
    :class:`_TicketSource` and publishing :class:`SlimResult` rows
    into the shard's ledger ring (doorbell per row on the result
    pipe).  Quarantined chains and terminal stats travel over the
    pipe (rare, small); positions never do.
    """
    slab = None
    wal = None
    for c in cfg.pop("fork_close", ()):
        try:
            c.close()
        except OSError:
            pass
    try:
        slab = attach_slab(cfg["slab"], cfg["workers"], cfg["cells"],
                           cfg["ring_rows"])
        k = cfg["shard"]
        ring = slab.ring_rows
        hdr, rows = slab.ledger(k)
        arena = ChainArena([], capacity=cfg["cells"],
                           buffers=slab.shard_buffers(k))
        kernel = FleetKernel([], params=cfg["params"],
                             check_invariants=cfg["check_invariants"],
                             keep_reports=False,
                             validate_initial=cfg["validate_initial"])
        kernel.arena = arena
        kernel.slim_results = True
        if cfg["wal_dir"] is not None:
            from repro.io.wal import WalWriter
            wal = WalWriter(os.path.join(cfg["wal_dir"], cfg["wal_name"]))
        src = _TicketSource(ctl)
        for ext, payload in kernel.run_stream(
                src, slots=cfg["slots"], max_rounds=cfg["max_rounds"],
                release=True, wal=wal, snapshot_every=cfg["snapshot_every"],
                on_error=cfg["on_error"]):
            if type(payload) is SlimResult:
                head = int(hdr[0])
                if head - int(hdr[1]) >= ring:
                    # structurally unreachable: ring rows ≥ 2x the
                    # shard's occupancy bound; fail loudly over silent
                    # row corruption
                    raise RuntimeError("shm result ring overflow")
                row = rows[head % ring]
                row[0] = ext
                row[1] = payload.base
                row[2] = payload.initial_n
                row[3] = payload.final_n
                row[4] = payload.rounds
                row[5] = 1 if payload.gathered else 0
                hdr[0] = head + 1      # publish, then ring the doorbell
                res.send(("r",))
            else:                      # ChainOutcome (quarantine/mid-crash)
                res.send(("q", ext, payload))
        stats = dict(kernel.stream_stats)
        stats["rounds"] = int(kernel.round_index)
        stats["peak_live_chains"] = int(arena.peak_live)
        stats["peak_cells"] = int(arena.peak_cells)
        res.send(("x", stats))
    except (BrokenPipeError, EOFError):
        pass                           # parent died: no one to report to
    except BaseException as exc:       # noqa: BLE001 — shipped to parent
        try:
            import pickle
            try:
                pickle.dumps(exc)
                payload = exc
            except Exception:
                payload = None
            res.send(("e", payload, traceback.format_exc()))
        except Exception:
            pass
    finally:
        if wal is not None:
            try:
                wal.close()
            except Exception:
                pass
        if slab is not None:
            slab.close()
        try:
            res.close()
        except Exception:
            pass


# ----------------------------------------------------------------------
# parent side
# ----------------------------------------------------------------------

def _carve(free: List[Tuple[int, int]], n: int) -> int:
    """Best-fit carve of ``n`` cells (parent's allocator mirror); the
    hole choice is the parent's alone — workers adopt dictated ranges,
    so mirror and worker free lists track the same hole set."""
    best = -1
    best_size = 0
    for i, (off, size) in enumerate(free):
        if size >= n and (best < 0 or size < best_size):
            best, best_size = i, size
            if size == n:
                break
    if best < 0:
        return -1
    off, size = free[best]
    if size == n:
        del free[best]
    else:
        free[best] = (off + n, size - n)
    return off


def _release(free: List[Tuple[int, int]], off: int, size: int) -> None:
    """Return a hole to the mirror, coalescing neighbours."""
    lo, hi = 0, len(free)
    while lo < hi:
        mid = (lo + hi) // 2
        if free[mid][0] < off:
            lo = mid + 1
        else:
            hi = mid
    free.insert(lo, (off, size))
    if lo + 1 < len(free) and off + size == free[lo + 1][0]:
        free[lo] = (off, size + free[lo + 1][1])
        del free[lo + 1]
    if lo > 0 and free[lo - 1][0] + free[lo - 1][1] == off:
        free[lo - 1] = (free[lo - 1][0],
                        free[lo - 1][1] + free[lo][1])
        del free[lo]


class _Shard:
    """Parent-side state of one shard: process, pipes, allocator
    mirror, in-flight table (admission order) and ledger views."""

    __slots__ = ("k", "proc", "ctl", "res", "free", "inflight", "pos",
                 "codes", "hdr", "rows", "completed", "since_spawn",
                 "respawns", "barren", "closed_sent", "done", "stats",
                 "failure")

    def __init__(self, k: int):
        self.k = k
        self.proc = None
        self.ctl = None
        self.res = None
        self.free: List[Tuple[int, int]] = []
        #: ext -> (base, n, zc, mid, arr, codes); dict order == admission
        #: order, which is the deterministic re-feed order on respawn
        self.inflight: Dict[int, tuple] = {}
        self.pos = None
        self.codes = None
        self.hdr = None
        self.rows = None
        self.completed = 0
        self.since_spawn = 0
        self.respawns = 0
        self.barren = 0
        self.closed_sent = False
        self.done = False
        self.stats: Optional[dict] = None
        self.failure: Optional[tuple] = None


def shm_stream(stream, *,
               params: Parameters = DEFAULT_PARAMETERS,
               workers: int = 2,
               slots: int = 256,
               max_rounds: Optional[int] = None,
               check_invariants: bool = False,
               validate_initial: bool = True,
               faults=None,
               wal_dir: Optional[str] = None,
               snapshot_every: int = 512,
               on_error: str = "raise",
               progress=None,
               stats: Optional[dict] = None,
               shard_cells: Optional[int] = None,
               ) -> Iterator[Tuple[int, object]]:
    """The shard scheduler: pump one stream through K slab workers.

    The parent mirrors the in-process scheduler's intake discipline —
    pull bursts (blocking only when nothing is in flight anywhere),
    decide intake faults at pull time under the consumed index, parse
    with :func:`parse_burst`, quarantine rejects through the identical
    per-chain constructor — then *places* instead of admitting: least
    loaded shard with a fitting hole, cells written by the parent,
    ticket sent down the control pipe.  Results are consumed from the
    ledger rings and yielded as ``(ext, GatheringResult)`` without a
    byte of IPC payload.

    The slab is sized lazily from the first burst (``slots_per_shard
    * max_n * 2`` cells per shard) unless ``shard_cells`` pins it; a
    chain that cannot ever fit its shard region errors (or
    quarantines) instead of deadlocking.  Entries that cannot fit
    *right now* wait in a FIFO backlog for retirements.
    """
    if on_error not in ("raise", "quarantine"):
        raise ValueError("on_error must be 'raise' or 'quarantine'")
    quarantine = on_error == "quarantine"
    workers = max(1, int(workers))
    slots_per = max(1, int(slots) // workers)
    ring = 2 * slots_per + 8
    if stats is None:
        stats = {}
    stats.update({
        "workers": workers, "slots_per_worker": slots_per,
        "admitted": 0, "quarantined": 0, "fault_crashed": 0,
        "fault_perturbed": 0, "mid_crashed": 0, "mid_restarted": 0,
        "respawns": 0, "salvaged": 0,
    })
    per_shard = [{"shard": k, "live": 0, "completed": 0, "respawns": 0,
                  "chains_per_s": 0.0} for k in range(workers)]
    stats["per_shard"] = per_shard
    if wal_dir is not None:
        os.makedirs(wal_dir, exist_ok=True)

    ctx = get_context()
    it = iter(stream)
    take = getattr(it, "take", None)
    if take is not None and not callable(take):
        take = None

    slab: Optional[FleetSlab] = None
    cells = 0
    shards: List[_Shard] = []
    backlog: deque = deque()    # prepared (ext, arr, codes, zc, mid)
    submitted = 0               # stream indices consumed
    delivered = 0               # results yielded
    exhausted = False
    t0 = time.perf_counter()

    def total_inflight() -> int:
        return sum(len(s.inflight) for s in shards)

    def capacity_free() -> int:
        cap = workers * slots_per
        return cap - total_inflight() - len(backlog)

    def elapsed() -> float:
        return time.perf_counter() - t0

    def refresh_shard_stats() -> None:
        dt = elapsed()
        for s in shards:
            row = per_shard[s.k]
            row["live"] = len(s.inflight)
            row["completed"] = s.completed
            row["respawns"] = s.respawns
            row["chains_per_s"] = round(s.completed / dt, 2) if dt > 0 \
                else 0.0

    def as_chain(payload) -> ClosedChain:
        # identical normalisation to FleetKernel._as_chain — rejected
        # entries must produce the exact same error type and message
        # the in-process fleet would
        if not isinstance(payload, ClosedChain):
            return ClosedChain(payload,
                               require_disjoint_neighbors=validate_initial)
        if validate_initial:
            payload.validate(initial=True)
        return payload

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
        cfg = {"slab": slab.name, "workers": workers, "cells": cells,
               "ring_rows": ring, "shard": s.k, "slots": slots_per,
               "params": params, "check_invariants": check_invariants,
               "validate_initial": validate_initial,
               "max_rounds": max_rounds, "on_error": on_error,
               "wal_dir": wal_dir, "snapshot_every": snapshot_every,
               "wal_name": wal_name}
        if ctx.get_start_method() == "fork":
            # the fork inherits every open parent fd: this shard's own
            # parent-side pipe ends plus every sibling's.  Left open in
            # the child they defeat EOF-based death detection (a dead
            # parent's pipes stay writable/readable through the
            # sibling copies) and keep orphaned workers — and the slab
            # they pin — alive forever; the child closes them on entry
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

    def build_slab(quantum: int) -> None:
        nonlocal slab, cells
        cells = shard_cells if shard_cells is not None \
            else max(slots_per * quantum * 2, quantum)
        slab = FleetSlab(workers, cells, ring)
        for k in range(workers):
            s = _Shard(k)
            s.free = [(0, cells)]
            bufs = slab.shard_buffers(k)
            s.pos, s.codes = bufs["pos"], bufs["codes"]
            s.hdr, s.rows = slab.ledger(k)
            shards.append(s)
            spawn(s)

    def place(entry) -> bool:
        ext, arr, codes_a, zc, mid = entry
        n = len(arr)
        cands = [s for s in shards
                 if len(s.inflight) < slots_per
                 and any(sz >= n for _o, sz in s.free)]
        if not cands:
            return False
        s = min(cands, key=lambda s: (len(s.inflight), s.k))
        base = _carve(s.free, n)
        s.pos[base:base + n] = arr
        s.codes[base:base + n] = codes_a
        s.inflight[ext] = (base, n, zc, mid, arr, codes_a)
        # slab writes land before the ticket send: the pipe round-trip
        # orders them for the worker
        try:
            s.ctl.send(("a", [SlotTicket(ext=ext, base=base, n=n, zc=zc,
                                         mid=mid)]))
        except (BrokenPipeError, OSError):
            pass        # dead worker: the sentinel path re-feeds inflight
        stats["admitted"] += 1
        return True

    def misfit(entry):
        # a chain no shard region can ever hold: error out rather than
        # deadlock the backlog
        ext, arr = entry[0], entry[1]
        exc = ChainError(
            f"chain of {len(arr)} robots exceeds the shm shard capacity "
            f"({cells} cells per shard); raise slots or shard_cells")
        if not quarantine:
            raise exc
        stats["quarantined"] += 1
        return (ext, ChainOutcome(index=ext, error=type(exc).__name__,
                                  message=str(exc), stage="admit",
                                  quarantined=True))

    def prep(burst):
        """Parse one pulled burst; returns (prepared, quarantine pairs)."""
        prepared = []
        qpairs = []
        payloads, arrs, code, starts, offs, ns, zcs, bad = parse_burst(
            [p for _e, p in burst], validate_initial)
        seg = 0
        for j, (ext, _payload) in enumerate(burst):
            a = arrs[j]
            if a is not None:
                g = seg
                seg += 1
                if not bad[g]:
                    mid = faults.decide_mid(ext) if faults is not None \
                        else None
                    prepared.append((ext, a, code[starts[g]:offs[g]],
                                     int(zcs[g]), mid))
                    continue
                retry = a          # rejected: per-chain for its exact error
            else:
                retry = payloads[j]
            try:
                c = as_chain(retry)
            except (ChainError, ValueError, TypeError) as exc:
                if not quarantine:
                    raise
                stats["quarantined"] += 1
                qpairs.append((ext, ChainOutcome(
                    index=ext, error=type(exc).__name__,
                    message=str(exc), stage="admit", quarantined=True)))
                continue
            arr = np.array(c.positions_array(), dtype=np.int64)
            codes_a = np.array(c.edge_codes(), dtype=np.int64)
            mid = faults.decide_mid(ext) if faults is not None else None
            prepared.append((ext, arr, codes_a,
                             int((codes_a == -1).sum()), mid))
        return prepared, qpairs

    def pull_burst():
        """Pull stream entries up to free capacity; intake faults fire
        here, at consume time, under the consumed index — identical to
        the in-process scheduler."""
        nonlocal submitted, exhausted
        pulled = []
        while not exhausted and capacity_free() - len(pulled) > 0:
            try:
                if take is None:
                    nxt = next(it)
                else:
                    nxt = take(block=(total_inflight() == 0
                                      and not pulled and not backlog))
            except Starved:
                break
            except StopIteration:
                exhausted = True
                break
            idx = submitted
            submitted += 1
            if faults is not None:
                kind = faults.decide(idx)
                if kind == "crash":
                    stats["fault_crashed"] += 1
                    continue
                if kind == "perturb":
                    try:
                        c = as_chain(nxt)
                    except (ChainError, ValueError, TypeError) as exc:
                        if not quarantine:
                            raise
                        stats["quarantined"] += 1
                        pulled.append((idx, _Quarantined(exc)))
                        continue
                    nxt = faults.mutate(idx, c.positions)
                    stats["fault_perturbed"] += 1
            pulled.append((idx, nxt))
        return pulled

    def drain_ring(s: _Shard):
        """Consume published ledger rows → materialised results."""
        out = []
        head = int(s.hdr[0])
        tail = int(s.hdr[1])
        while tail < head:
            row = s.rows[tail % ring]
            ext = int(row[0])
            fl = s.inflight.pop(ext, None)
            tail += 1
            if fl is None:
                continue               # already salvaged / stale
            fn = int(row[3])
            base = int(row[1])
            pts = [tuple(p) for p in s.pos[base:base + fn].tolist()]
            res = GatheringResult(
                gathered=bool(row[5]), rounds=int(row[4]),
                initial_n=int(row[2]), final_n=fn, final_positions=pts,
                params=params, reports=[], trace=None,
                stalled=not bool(row[5]), wall_time=elapsed())
            # free the mirror only after the positions are out of the
            # slab: parent frees trail worker frees by construction
            _release(s.free, fl[0], fl[1])
            s.completed += 1
            s.since_spawn += 1
            out.append((ext, res))
        s.hdr[1] = tail
        return out

    def handle_msgs(s: _Shard):
        """Drain the result pipe; returns yields, flags crash via EOF."""
        out = []
        crashed = False
        try:
            while s.res.poll(0):
                msg = s.res.recv()
                tag = msg[0]
                if tag == "r":
                    pass               # doorbell; ring drained below
                elif tag == "q":
                    ext, outcome = msg[1], msg[2]
                    fl = s.inflight.pop(ext, None)
                    if fl is not None:
                        _release(s.free, fl[0], fl[1])
                    if getattr(outcome, "stage", "") == "fault":
                        stats["mid_crashed"] += 1
                    else:
                        stats["quarantined"] += 1
                    s.completed += 1
                    s.since_spawn += 1
                    out.append((ext, outcome))
                elif tag == "x":
                    s.stats = msg[1]
                    s.done = True
                elif tag == "e":
                    s.failure = (msg[1], msg[2])
                    s.done = True
        except (EOFError, OSError):
            crashed = True
        out.extend(drain_ring(s))
        return out, crashed

    def respawn(s: _Shard):
        """Crash recovery: salvage, reset the region, re-feed, respawn."""
        out = []
        try:
            s.proc.join(timeout=5.0)
        except Exception:
            pass
        out.extend(drain_ring(s))      # rows published before the crash
        stats["salvaged"] += len(out)
        if s.since_spawn == 0 and not out:
            s.barren += 1
        else:
            s.barren = 0
        for c in (s.ctl, s.res):
            try:
                c.close()
            except Exception:
                pass
        if s.barren > _MAX_BARREN and s.inflight:
            # crash-looping without progress: the residents are the
            # suspects.  Quarantine them (supervised mode) or abort.
            exts = list(s.inflight)
            if not quarantine:
                s.done = True
                raise WorkerCrashError(
                    f"shm shard {s.k} died {s.barren} times without "
                    f"progress; in-flight chains {exts}",
                    worker=s.k, indices=exts)
            for ext, fl in list(s.inflight.items()):
                _release(s.free, fl[0], fl[1])
                stats["quarantined"] += 1
                out.append((ext, ChainOutcome(
                    index=ext, error="WorkerCrashError",
                    message=(f"shard worker {s.k} kept dying with this "
                             f"chain in flight"),
                    stage="round", quarantined=True)))
            s.inflight.clear()
            s.barren = 0
        s.respawns += 1
        stats["respawns"] += 1
        # reset the region's allocator and ring, re-place the survivors
        # in admission order and re-feed them as fresh tickets — replay
        # from round 0 is deterministic, so results stay bit-identical
        s.free = [(0, cells)]
        s.hdr[0] = 0
        s.hdr[1] = 0
        tickets = []
        survivors = {}
        for ext, (base, n, zc, mid, arr, codes_a) in s.inflight.items():
            nb = _carve(s.free, n)
            s.pos[nb:nb + n] = arr
            s.codes[nb:nb + n] = codes_a
            survivors[ext] = (nb, n, zc, mid, arr, codes_a)
            tickets.append(SlotTicket(ext=ext, base=nb, n=n, zc=zc,
                                      mid=mid))
        s.inflight = survivors
        spawn(s)
        try:
            if tickets:
                s.ctl.send(("a", tickets))
            if s.closed_sent:
                s.ctl.send(("c",))
        except (BrokenPipeError, OSError):
            pass                       # died again: next wait loops back
        return out

    def pump(timeout):
        """Wait on pipes/sentinels; handle messages, rings, crashes."""
        live = [s for s in shards if not s.done]
        if not live:
            return []
        rmap = {}
        for s in live:
            rmap[s.res] = s
            rmap[s.proc.sentinel] = s
        ready = connection.wait(list(rmap), timeout)
        out = []
        seen = set()
        for r in ready:
            s = rmap[r]
            if s.k in seen:
                continue
            seen.add(s.k)
            ylds, crashed = handle_msgs(s)
            out.extend(ylds)
            if s.failure is not None:
                exc, tb = s.failure
                if exc is not None:
                    raise exc
                raise WorkerCrashError(
                    f"shm shard {s.k} failed:\n{tb}", worker=s.k,
                    indices=list(s.inflight))
            if not s.done and (crashed or not s.proc.is_alive()):
                out.extend(respawn(s))
        return out

    def emit(pairs):
        nonlocal delivered
        if pairs:
            # results become externally visible at the yield (the
            # service writes frames from them before this generator
            # resumes): refresh the per-shard rows first, so a status
            # probe racing the last frame already counts these
            # completions
            refresh_shard_stats()
        for pair in pairs:
            yield pair
            delivered += 1
        if pairs and progress is not None:
            progress(delivered, submitted if exhausted else -1)

    try:
        while True:
            # --- admission ------------------------------------------
            if not exhausted or backlog:
                burst = pull_burst()
                if burst:
                    real = [(e, p) for e, p in burst
                            if type(p) is not _Quarantined]
                    prepared, qpairs = prep(real) if real else ([], [])
                    yield from emit(
                        [(e, ChainOutcome(index=e,
                                          error=type(p.exc).__name__,
                                          message=str(p.exc),
                                          stage="admit", quarantined=True))
                         for e, p in burst if type(p) is _Quarantined])
                    yield from emit(qpairs)
                    backlog.extend(prepared)
                if backlog and slab is None:
                    build_slab(max(len(e[1]) for e in backlog))
                while backlog and place(backlog[0]):
                    backlog.popleft()
                # permanently-unplaceable head: nothing in flight can
                # free enough cells for it
                while backlog and total_inflight() == 0 \
                        and len(backlog[0][1]) > cells:
                    yield from emit([misfit(backlog.popleft())])
            # --- close propagation ----------------------------------
            if exhausted and not backlog:
                if slab is None:
                    break              # empty stream: nothing ever ran
                for s in shards:
                    if not s.done and not s.closed_sent:
                        try:
                            s.ctl.send(("c",))
                        except (BrokenPipeError, OSError):
                            pass
                        s.closed_sent = True
            # --- termination ----------------------------------------
            if shards and all(s.done for s in shards) and exhausted \
                    and not backlog and total_inflight() == 0:
                break
            # --- wait for events ------------------------------------
            timeout = None
            if not exhausted and capacity_free() > 0:
                # a starved admission source with work in flight:
                # poll the pipes briefly, then re-try the pull
                timeout = 0.02 if take is not None else 0.0
            elif backlog:
                timeout = 0.05
            yield from emit(pump(timeout))
            refresh_shard_stats()
    finally:
        for s in shards:
            for c in (s.ctl, s.res):
                try:
                    c.close()
                except Exception:
                    pass
        for s in shards:
            if s.proc is not None and s.proc.is_alive():
                s.proc.terminate()
        for s in shards:
            if s.proc is not None:
                s.proc.join(timeout=5.0)
                if s.proc.is_alive():
                    s.proc.kill()
                    s.proc.join(timeout=5.0)
        if slab is not None:
            for s in shards:
                s.pos = s.codes = s.hdr = s.rows = None
            slab.close()
            slab.unlink()
        refresh_shard_stats()
        rounds = 0
        for s in shards:
            if s.stats:
                per_shard[s.k]["rounds"] = s.stats.get("rounds", 0)
                rounds += s.stats.get("rounds", 0)
                stats["mid_restarted"] += s.stats.get("mid_restarted", 0)
                per_shard[s.k]["peak_live"] = \
                    s.stats.get("peak_live_chains", 0)
                per_shard[s.k]["peak_cells"] = \
                    s.stats.get("peak_cells", 0)
        stats["rounds"] = rounds
        stats["peak_live_chains"] = sum(
            r.get("peak_live", 0) for r in per_shard)
        stats["peak_cells"] = sum(
            r.get("peak_cells", 0) for r in per_shard)
        stats["arena_span"] = workers * cells
        dt = elapsed()
        stats["chains_per_s"] = round(delivered / dt, 2) if dt > 0 else 0.0


class _Quarantined:
    """Marker for an entry quarantined at pull time (perturb-validate
    failure): carries the original exception through the burst list so
    intake order — and therefore index gaps — match the in-process
    scheduler exactly."""

    __slots__ = ("exc",)

    def __init__(self, exc):
        self.exc = exc
