"""Bounded, per-client-fair admission queue for the service tier.

DESIGN.md §2.15.  :class:`FairAdmissionQueue` implements the
admission-source protocol of :mod:`repro.core.admission` — ``take`` /
``Starved`` / ``StopIteration`` / ``close`` plus blocking iteration —
so it plugs straight into ``BatchSimulator.run_stream``: the in-process
kernel with one worker, the shard tier (:mod:`repro.core.shards`) with
more.  On top of the plain :class:`QueueSource` contract it adds:

**Fairness.**  Submissions are held in per-client FIFO deques and the
consumer side round-robins across clients, so one client pipelining a
million chains cannot starve another's trickle.  Per-client order is
preserved; cross-client order is interleaved by take order, which is
the global ``chain`` index clients see in result frames.

**Backpressure with handoff.**  ``capacity`` bounds the *aggregate*
client backlog.  A submission arriving at capacity is parked:
:meth:`submit` returns an asyncio future the connection handler
awaits (after sending a ``backpressure`` frame).  When the kernel
takes an item, the freed slot is handed directly to the oldest parked
submission under the queue lock — depth can never overshoot the bound,
and parked arrival order is preserved.

**Intake logging.**  ``on_take`` (when set) is called with each
entry's accept index *inside* ``take``, under the lock, before the
item is returned — giving the server a durable record of the exact
kernel admission order, which crash-resume replays verbatim
(:mod:`repro.service.server`).  Replayed entries carry a per-entry
flag so already-logged takes are not logged twice.

Thread model: ``submit``/``close`` run on the asyncio loop thread,
``take`` on the kernel executor thread; the single lock plus
``loop.call_soon_threadsafe`` for future resolution keeps the handoff
race-free.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.admission import Starved


class FairAdmissionQueue:
    """Admission source with per-client round-robin and a hard bound."""

    def __init__(self, capacity: Optional[int] = None, loop=None,
                 on_take: Optional[Callable[[Optional[int]], None]] = None):
        if capacity is not None and capacity < 1:
            raise ValueError("capacity must be >= 1 (or None: unbounded)")
        self.capacity = capacity
        self._loop = loop
        self._on_take = on_take
        self._lock = threading.Lock()
        self._not_empty = threading.Condition(self._lock)
        # client id -> FIFO of (seq, accept_index, item)
        self._queues: Dict[str, deque] = {}
        self._rr: deque = deque()        # round-robin rotation of client ids
        self._replay: deque = deque()    # (accept_index, item, log) — resume
        self._waiters: deque = deque()   # parked (future, client, seq, k, item)
        self._depth = 0                  # live client backlog (bounded)
        self._closed = False
        #: take order -> (client_id, seq) or None (replayed entries)
        self.owners: List[Optional[Tuple[str, int]]] = []
        self.accepted = 0
        self.taken = 0
        self.peak_depth = 0

    # -- producer side (asyncio loop thread) ---------------------------
    def submit(self, client: str, seq: int, accept_index: Optional[int],
               item):
        """Enqueue a client submission.

        Returns ``None`` when the item entered the queue, or an asyncio
        future (submission parked at capacity) that resolves once the
        item has been admitted; the future raises if the queue closes
        first.
        """
        with self._lock:
            if self._closed:
                raise ValueError("admission queue is closed")
            if (self.capacity is not None
                    and self._depth >= self.capacity):
                if self._loop is None:
                    raise BlockingIOError("admission queue full")
                fut = self._loop.create_future()
                self._waiters.append((fut, client, seq, accept_index, item))
                return fut
            self._enqueue_locked(client, seq, accept_index, item)
            return None

    def feed_replay(self, entries) -> None:
        """Preload resume-replay entries: ``(accept_index, item, log)``
        triples, served before any live submission, exempt from the
        capacity bound (they were admitted before the crash)."""
        with self._lock:
            for k, item, log in entries:
                self._replay.append((k, item, log))
                self.accepted += 1
            self._not_empty.notify_all()

    def _enqueue_locked(self, client, seq, k, item) -> None:
        q = self._queues.get(client)
        if q is None:
            q = self._queues[client] = deque()
            self._rr.append(client)
        q.append((seq, k, item))
        self._depth += 1
        self.accepted += 1
        if self._depth > self.peak_depth:
            self.peak_depth = self._depth
        self._not_empty.notify()

    def close(self) -> None:
        """Stop admission; the backlog still drains through ``take``.
        Parked submissions are failed (their accept-log line, if any,
        makes them eligible for resume replay instead)."""
        with self._lock:
            self._closed = True
            waiters, self._waiters = list(self._waiters), deque()
            self._not_empty.notify_all()
        for fut, *_ in waiters:
            self._call_in_loop(fut, ConnectionAbortedError(
                "admission queue closed"))

    @property
    def closed(self) -> bool:
        return self._closed

    # -- consumer side (kernel executor thread) ------------------------
    def take(self, block: bool = False, timeout: Optional[float] = None):
        with self._not_empty:
            if block:
                if not self._not_empty.wait_for(
                        lambda: (self._replay or self._rr
                                 or self._closed), timeout):
                    raise Starved
            if self._replay or self._rr:
                return self._take_locked()
            if self._closed:
                raise StopIteration
            raise Starved

    def _take_locked(self):
        if self._replay:
            k, item, log = self._replay.popleft()
            owner = None
        else:
            client = self._rr.popleft()
            q = self._queues[client]
            seq, k, item = q.popleft()
            if q:
                self._rr.append(client)
            else:
                del self._queues[client]
            self._depth -= 1
            owner = (client, seq)
            log = True
            self._promote_locked()
        if log and self._on_take is not None:
            self._on_take(k)
        self.owners.append(owner)
        self.taken += 1
        return item

    def _promote_locked(self) -> None:
        # hand freed space straight to the oldest parked submission —
        # under the lock, so depth never overshoots the bound
        while self._waiters and (self.capacity is None
                                 or self._depth < self.capacity):
            fut, client, seq, k, item = self._waiters.popleft()
            self._enqueue_locked(client, seq, k, item)
            self._call_in_loop(fut, None)

    def _call_in_loop(self, fut, exc) -> None:
        def _resolve():
            if fut.done():
                return
            if exc is None:
                fut.set_result(None)
            else:
                fut.set_exception(exc)
        if self._loop is not None:
            self._loop.call_soon_threadsafe(_resolve)
        else:
            _resolve()

    # -- introspection -------------------------------------------------
    def owner_of(self, index: int) -> Optional[Tuple[str, int]]:
        """Map a global chain index (take order) to ``(client, seq)``."""
        if 0 <= index < len(self.owners):
            return self.owners[index]
        return None

    def qsize(self) -> int:
        with self._lock:
            return self._depth

    def replay_backlog(self) -> int:
        with self._lock:
            return len(self._replay)

    def parked(self) -> int:
        with self._lock:
            return len(self._waiters)

    # -- iterable face (restore fast-forward) --------------------------
    def __iter__(self):
        return self

    def __next__(self):
        while True:
            try:
                return self.take(block=True)
            except Starved:
                continue
