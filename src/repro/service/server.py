"""The gathering service: asyncio TCP front-end over ``run_stream``.

DESIGN.md §2.15.  :class:`GatherService` binds an NDJSON TCP listener
(:mod:`repro.service.protocol`), pushes accepted submissions through a
:class:`~repro.service.queue.FairAdmissionQueue`, and bridges the
synchronous streaming kernel with ``loop.run_in_executor``: the kernel
thread blocks in ``BatchSimulator.run_stream(queue, ...)`` — parking
in a blocking ``take`` whenever the arena is empty and the wire idle —
while finished chains are handed back to the loop thread with
``call_soon_threadsafe`` and pushed to their submitting client as
``result`` / ``quarantined`` frames.  The service always runs the
supervision tier (``on_error="quarantine"``): hostile input degrades
into structured frames, never a dead server loop.

Durability (``wal_dir``): three logs, plus the kernel's resume log
(``wal.ndjson`` and its snapshots) when the kernel runs in-process —

``submissions.jsonl``
    one line per *accepted* submission (``{"k": accept_index,
    "chain": [...]}``), flushed before the ``queued`` ack.
``intake.jsonl``
    one line per kernel *take* (``{"k": ...}``), appended under the
    queue lock in exact admission order — the replayable record of
    the fair interleaving, which is what the kernel's WAL cursor
    counts.
``results.ndjson``
    the results ledger (§2.12): every row, quarantined ones included,
    written through :class:`~repro.core.results.ResultLedger` in the
    kernel thread *before* the generator is re-entered, so a recorded
    WAL yield always implies a durable ledger line.

A killed service resumes with ``resume=True``: each log's torn tail is
cut, accepted submissions are replayed to the queue in logged intake
order (then any never-taken accepts in accept order), the in-process
kernel restores its snapshot and fast-forwards through the replay,
and the ledger skips the indices it already holds.  The lines
completed before the kill stay verbatim, every chain lands exactly
once and each row equals a clean run's (§2.15); resumed entries have
no live client and complete into the ledger only.  ``service.json``
records the worker count, so a killed ``--workers K`` service
restores its full shard set (the queue is an admission source, so
``run_stream`` runs it on the shard tier, §2.16).  The shard workers
write no log: they re-run the whole replay deterministically from
scratch, and the ledger's skip alone provides exactly-once.

Result frames are written without awaiting ``drain()`` (they originate
on the kernel thread); a client that stops reading accumulates server
send-buffer, bounded in practice by ``slots`` in-flight results.
"""

from __future__ import annotations

import asyncio
import json
import os
import time
from typing import Dict, List, Optional, Tuple

from repro.core.config import DEFAULT_PARAMETERS, Parameters
from repro.core.results import ResultLedger, read_ndjson
from repro.service.protocol import (MAX_CHAIN, MAX_LINE, PROTOCOL_VERSION,
                                    ProtocolError, encode_frame,
                                    parse_positions, read_frames)
from repro.service.queue import FairAdmissionQueue

SUBMISSIONS_LOG = "submissions.jsonl"
INTAKE_LOG = "intake.jsonl"
RESULTS_LEDGER = "results.ndjson"
#: Service WAL header: the topology a --resume must restore (worker
#: count decides the execution tier, which no per-stream log records)
SERVICE_HEADER = "service.json"


class _Client:
    """Per-connection bookkeeping."""

    __slots__ = ("cid", "writer", "accepted", "delivered", "draining",
                 "bad_lines")

    def __init__(self, cid: str, writer):
        self.cid = cid
        self.writer = writer
        self.accepted = 0    # submissions admitted to the queue
        self.delivered = 0   # result/quarantined frames pushed back
        self.draining = False
        self.bad_lines = 0


class GatherService:
    """NDJSON-over-TCP submission front-end for the streaming tier."""

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 slots: int = 256, workers: int = 1,
                 queue_capacity: Optional[int] = None,
                 params: Parameters = DEFAULT_PARAMETERS,
                 wal_dir: Optional[str] = None, resume: bool = False,
                 snapshot_every: int = 512,
                 max_rounds: Optional[int] = None,
                 max_chain: int = MAX_CHAIN, max_line: int = MAX_LINE,
                 check_invariants: bool = False):
        if resume and wal_dir is None:
            raise ValueError("resume=True needs wal_dir")
        self.host = host
        self.port = port
        self.slots = slots
        self.workers = workers
        self.queue_capacity = (queue_capacity if queue_capacity is not None
                               else max(slots, 1))
        self.params = params
        self.wal_dir = wal_dir
        self.resume = resume
        self.snapshot_every = snapshot_every
        self.max_rounds = max_rounds
        self.max_chain = max_chain
        self.max_line = max_line
        self.check_invariants = check_invariants

        self.queue: Optional[FairAdmissionQueue] = None
        self.sim = None
        self.served = 0
        self.kernel_error: Optional[BaseException] = None
        self._loop = None
        self._server = None
        self._kernel_task = None
        self._clients: Dict[str, _Client] = {}
        self._next_cid = 0
        self._accept_index = 0
        self._subs_fh = None
        self._intake_fh = None
        self._ledger: Optional[ResultLedger] = None
        self._finished = None
        self._shutting_down = False
        self._t0 = 0.0

    # -- lifecycle -----------------------------------------------------
    async def start(self) -> None:
        """Load any WAL, bind the listener, then start the kernel
        thread; a start that fails closes what it opened."""
        try:
            await self._start()
        except BaseException:
            await self._close()
            raise

    async def _start(self) -> None:
        from repro.core.batch import BatchSimulator
        self._loop = asyncio.get_running_loop()
        self._finished = asyncio.Event()
        self._t0 = time.monotonic()

        replay: List[Tuple[Optional[int], object, bool]] = []
        ledger_path = None
        if self.wal_dir is not None:
            os.makedirs(self.wal_dir, exist_ok=True)
            subs_path = os.path.join(self.wal_dir, SUBMISSIONS_LOG)
            intake_path = os.path.join(self.wal_dir, INTAKE_LOG)
            header_path = os.path.join(self.wal_dir, SERVICE_HEADER)
            if self.resume and os.path.exists(header_path):
                # the recorded topology wins: a killed --workers K
                # service restores its full shard set, not the default
                with open(header_path, "r", encoding="utf-8") as fh:
                    header = json.load(fh)
                self.workers = int(header.get("workers", self.workers))
            else:
                with open(header_path, "w", encoding="utf-8") as fh:
                    json.dump({"workers": self.workers,
                               "slots": self.slots}, fh)
                    fh.write("\n")
            if self.resume:
                accepts = [[tuple(p) for p in doc["chain"]]
                           for doc in read_ndjson(subs_path)]
                takes = [int(doc["k"]) for doc in read_ndjson(intake_path)
                         if int(doc["k"]) < len(accepts)]
                taken = set(takes)
                # logged takes replay in admission order (the kernel's
                # WAL cursor counts exactly these), then never-taken
                # accepts in accept order — both without live owners
                replay = [(k, accepts[k], False) for k in takes]
                replay += [(k, accepts[k], True)
                           for k in range(len(accepts)) if k not in taken]
                self._accept_index = len(accepts)
            mode = "a" if self.resume else "w"
            self._subs_fh = open(subs_path, mode, encoding="utf-8")
            self._intake_fh = open(intake_path, mode, encoding="utf-8")
            ledger_path = os.path.join(self.wal_dir, RESULTS_LEDGER)
        self._ledger = ResultLedger(ledger_path, self.resume)

        self.queue = FairAdmissionQueue(
            capacity=self.queue_capacity, loop=self._loop,
            on_take=self._log_take if self._intake_fh is not None else None)
        if replay:
            self.queue.feed_replay(replay)
        # the queue is an admission source, so workers >= 2 runs the
        # shard tier (§2.16): K kernel processes fed over pipes,
        # crash-respawning shards that write no log
        self.sim = BatchSimulator(
            [], params=self.params, engine="kernel",
            workers=self.workers, keep_reports=False,
            check_invariants=self.check_invariants)
        self._server = await asyncio.start_server(
            self._on_client, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]
        self._kernel_task = self._loop.run_in_executor(
            None, self._kernel_main)

    async def wait_finished(self) -> None:
        """Block until the stream ends (shutdown op, signal, or kernel
        death); then reap the kernel thread and release the logs."""
        await self._finished.wait()
        await self._close()
        if self.kernel_error is not None:
            raise self.kernel_error

    async def _close(self) -> None:
        """Close admission, wait for the kernel thread, release the
        listener and logs.  Also the failing exit of :meth:`start` and
        :func:`serve`: a kernel thread left parked in the queue's
        ``take`` would keep ``asyncio.run`` from ever returning."""
        if self.queue is not None:
            self.queue.close()
        if self._kernel_task is not None:
            try:
                await self._kernel_task
            except BaseException:
                pass  # already captured in kernel_error
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for fh in (self._subs_fh, self._intake_fh, self._ledger):
            if fh is not None:
                fh.close()

    def begin_shutdown(self) -> None:
        """Close admission; the kernel drains the backlog and exits.
        Safe to call repeatedly / from signal handlers (loop thread)."""
        if self._shutting_down:
            return
        self._shutting_down = True
        self.queue.close()

    # -- kernel bridge (executor thread) -------------------------------
    def _log_take(self, accept_index: Optional[int]) -> None:
        # called by the queue, under its lock, in exact take order
        if accept_index is None:
            return
        self._intake_fh.write(
            json.dumps({"k": accept_index}, separators=(",", ":")) + "\n")
        self._intake_fh.flush()

    def _kernel_main(self) -> None:
        try:
            # only an in-process kernel keeps a resume log; on the
            # shard tier exactly-once on resume comes from the
            # service-level replay (queue feed_replay) plus the
            # results-ledger dedup below, so the stream re-runs
            # deterministically and only unseen indices append
            inprocess = self.workers <= 1
            gen = self.sim.run_stream(
                self.queue, slots=self.slots, max_rounds=self.max_rounds,
                wal_dir=self.wal_dir if inprocess else None,
                snapshot_every=self.snapshot_every,
                resume=self.resume and inprocess, on_error="quarantine")
            for idx, payload in gen:
                # durable before the generator is re-entered: a WAL
                # yield record always implies a ledger line (§2.12)
                row = self._ledger.write(idx, payload)
                self._loop.call_soon_threadsafe(self._deliver, idx, row)
        except BaseException as exc:  # noqa: BLE001 — surfaced to caller
            self.kernel_error = exc
            self._loop.call_soon_threadsafe(self._stream_ended, exc)
        else:
            self._loop.call_soon_threadsafe(self._stream_ended, None)

    # -- loop-thread delivery ------------------------------------------
    def _deliver(self, idx: int, row: dict) -> None:
        self.served += 1
        owner = self.queue.owner_of(idx)
        if owner is None:
            return  # resumed entry: ledger-only, original client is gone
        cs = self._clients.get(owner[0])
        if cs is None:
            return
        # a frame is the result row plus the client's addressing
        status = "quarantined" if row["quarantined"] else "result"
        self._write(cs, {**row, "status": status, "seq": owner[1]})
        cs.delivered += 1
        if cs.draining and cs.delivered >= cs.accepted:
            cs.draining = False
            self._write(cs, {"status": "drained",
                             "delivered": cs.delivered})

    def _stream_ended(self, exc: Optional[BaseException]) -> None:
        if exc is not None:
            frame = {"status": "error", "error": type(exc).__name__,
                     "message": str(exc)}
            for cs in self._clients.values():
                self._write(cs, frame)
        for cs in self._clients.values():
            if cs.draining:
                cs.draining = False
                self._write(cs, {"status": "drained",
                                 "delivered": cs.delivered})
            if not cs.writer.is_closing():
                cs.writer.close()
        self._finished.set()

    def _write(self, cs: _Client, doc: dict) -> None:
        if not cs.writer.is_closing():
            cs.writer.write(encode_frame(doc))

    # -- connection handling -------------------------------------------
    async def _on_client(self, reader, writer) -> None:
        cid = f"c{self._next_cid}"
        self._next_cid += 1
        cs = _Client(cid, writer)
        self._clients[cid] = cs
        try:
            await self._send(cs, {
                "status": "hello", "service": "repro-serve",
                "version": PROTOCOL_VERSION, "slots": self.slots,
                "workers": self.workers,
                "queue_capacity": self.queue_capacity,
                "max_chain": self.max_chain, "max_line": self.max_line})
            async for lineno, parsed in read_frames(reader, self.max_line):
                if isinstance(parsed, ProtocolError):
                    cs.bad_lines += 1
                    await self._send(cs, {
                        "status": "bad-line", "line": lineno,
                        "error": parsed.code, "message": str(parsed)})
                    continue
                await self._dispatch(cs, lineno, parsed)
        except (ConnectionError, asyncio.IncompleteReadError, OSError):
            pass  # mid-frame disconnects are a client's prerogative
        finally:
            self._clients.pop(cid, None)
            if not writer.is_closing():
                writer.close()

    async def _dispatch(self, cs: _Client, lineno: int, doc: dict) -> None:
        op = doc.get("op")
        if op == "submit":
            await self._op_submit(cs, lineno, doc)
        elif op == "status":
            await self._send(cs, self.status_doc())
        elif op == "drain":
            if cs.delivered >= cs.accepted:
                await self._send(cs, {"status": "drained",
                                      "delivered": cs.delivered})
            else:
                cs.draining = True
        elif op == "shutdown":
            await self._send(cs, {"status": "bye"})
            self.begin_shutdown()
        else:
            cs.bad_lines += 1
            await self._send(cs, {
                "status": "bad-line", "line": lineno, "error": "unknown-op",
                "message": f"unknown op {op!r}"})

    async def _op_submit(self, cs: _Client, lineno: int, doc: dict) -> None:
        try:
            pts = parse_positions(doc.get("chain"), self.max_chain)
        except ProtocolError as exc:
            cs.bad_lines += 1
            await self._send(cs, {"status": "bad-line", "line": lineno,
                                  "error": exc.code, "message": str(exc)})
            return
        if self.queue.closed:
            await self._send(cs, {
                "status": "bad-line", "line": lineno, "error": "closed",
                "message": "service is draining; submission rejected"})
            return
        ack = doc.get("ack") is not False
        k = None
        if self._subs_fh is not None:
            # accept log flushed before the item can possibly be taken:
            # an intake.jsonl line always has its submissions.jsonl line
            k = self._accept_index
            self._accept_index += 1
            self._subs_fh.write(json.dumps(
                {"k": k, "chain": [list(p) for p in pts]},
                separators=(",", ":")) + "\n")
            self._subs_fh.flush()
        seq = cs.accepted
        parked = self.queue.submit(cs.cid, seq, k, pts)
        cs.accepted += 1
        if parked is not None:
            if ack:
                await self._send(cs, {
                    "status": "backpressure", "seq": seq,
                    "queued": self.queue.qsize(),
                    "capacity": self.queue_capacity})
            try:
                # the handler stalls here, so this connection's TCP
                # stream stalls too: wire-level backpressure
                await parked
            except ConnectionAbortedError:
                await self._send(cs, {
                    "status": "bad-line", "line": lineno, "error": "closed",
                    "message": "service closed while submission parked"})
                return
        if ack:
            await self._send(cs, {"status": "queued", "seq": seq,
                                  "queued": self.queue.qsize()})

    async def _send(self, cs: _Client, doc: dict) -> None:
        if cs.writer.is_closing():
            return
        cs.writer.write(encode_frame(doc))
        try:
            await cs.writer.drain()
        except (ConnectionError, OSError):
            pass

    # -- health --------------------------------------------------------
    def status_doc(self) -> dict:
        """The ``status`` frame: /healthz for NDJSON consumers.

        Kernel scalars (occupancy, rounds, topology telemetry) are read
        racily across threads — single word-sized reads of monotone
        counters, documented as approximate.
        """
        up = time.monotonic() - self._t0
        doc = {
            "status": "status", "uptime_s": round(up, 3),
            "slots": self.slots, "workers": self.workers,
            "clients": len(self._clients), "served": self.served,
            "accepted": self.queue.accepted,
            "queue_depth": self.queue.qsize(),
            "queue_capacity": self.queue_capacity,
            "peak_queue_depth": self.queue.peak_depth,
            "parked": self.queue.parked(),
            "replay_backlog": self.queue.replay_backlog(),
            "draining": self.queue.closed,
            "chains_per_s": round(self.served / up, 2) if up > 0 else 0.0,
        }
        kernel = getattr(self.sim, "stream_kernel", None)
        if kernel is not None:
            arena = kernel.arena
            doc.update({
                "occupancy": int(arena.n_live),
                "rounds": int(kernel.round_index),
                "topo_rebuilds": int(arena.topo_stats["rebuilds"]),
                "topo_delta_ops": int(arena.topo_stats["delta_ops"]),
                "topo_delta_cells": int(arena.topo_stats["delta_cells"]),
            })
        stream_stats = getattr(self.sim, "last_stream_stats", None)
        if stream_stats and "per_shard" in stream_stats:
            # shard tier: the parent scheduler maintains these live —
            # per-shard occupancy, throughput and respawn counts make
            # the scale-out observable from a status frame
            doc.update({
                "occupancy": sum(r["live"]
                                 for r in stream_stats["per_shard"]),
                "respawns": stream_stats.get("respawns", 0),
                "per_shard": [dict(r)
                              for r in stream_stats["per_shard"]],
            })
        return doc


async def serve(service: GatherService, ready=None,
                install_signals: bool = True) -> GatherService:
    """Start a service, print/announce readiness, run it to completion.

    ``ready`` (when given) is called with the service once the port is
    bound — the CLI prints its parse-friendly ready line there.
    SIGINT/SIGTERM trigger a graceful drain-and-exit.
    """
    import signal
    await service.start()
    try:
        if install_signals:
            loop = asyncio.get_running_loop()
            for sig in (signal.SIGINT, signal.SIGTERM):
                try:
                    loop.add_signal_handler(sig, service.begin_shutdown)
                except (NotImplementedError, RuntimeError):
                    break
        if ready is not None:
            ready(service)
        await service.wait_finished()
    except BaseException:
        await service._close()
        raise
    return service
