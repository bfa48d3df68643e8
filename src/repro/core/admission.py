"""Admission sources: live, open-ended intake for the streaming tier.

DESIGN.md §2.15.  :meth:`FleetKernel.run_stream` was built around a
*finite* iterator of chains — ``next()`` either returns the next chain
or raises ``StopIteration``, and the scheduler treats the latter as
"no more work, ever".  A service front-end needs a third answer:
*"nothing right now, but keep the stream open"* — live chains must
keep stepping while the wire is idle, and a fully drained arena must
park (not exit) until the next submission or an explicit close.

An **admission source** is any object exposing::

    take(block=False, timeout=None) -> chain-or-positions
        Non-blocking by default.  Raises :class:`Starved` when the
        source is open but momentarily empty (``block=True`` waits —
        up to ``timeout`` seconds, then :class:`Starved` again);
        raises ``StopIteration`` once the source is closed *and*
        drained.
    close()
        No further submissions; pending items still drain.

plus plain (blocking) iteration, so every existing consumer of a chain
iterable — ``FleetKernel.restore_stream``'s fast-forward — keeps
working unchanged.  The schedulers detect the protocol by the ``take``
attribute; plain iterables keep the exact pre-§2.15 code path.  With
``workers >= 2``, ``BatchSimulator.run_stream`` sends every stream to
the shard tier (:mod:`repro.core.shards`), whose parent pulls from a
source the same way and reads a plain iterable as a source that is
closed from the start.

:class:`QueueSource` is the reference implementation: a bounded,
thread-safe FIFO whose producer side is fed from another thread (the
asyncio service loop, a test driver) while the fleet kernel consumes
it from its own thread.  The service tier's fair queue
(:class:`repro.service.queue.FairAdmissionQueue`) implements the same
protocol with per-client round-robin on top.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Iterable, Iterator, Optional


class Starved(Exception):
    """An admission source is open but has nothing to hand out.

    Distinct from ``StopIteration`` (closed and drained): the
    scheduler reacts by stepping the live fleet (work remains) or by
    parking in a blocking :meth:`~QueueSource.take` (arena empty).
    """


def is_admission_source(obj) -> bool:
    """Duck-typed protocol check used by the streaming schedulers."""
    return callable(getattr(obj, "take", None))


class QueueSource:
    """Bounded thread-safe admission queue implementing the protocol.

    Producers call :meth:`put` (blocking when the queue is at
    ``capacity``) or :meth:`put_nowait`; the consumer — the fleet
    kernel's pull loop — calls :meth:`take`.  :meth:`close` ends the
    stream once the backlog drains.  ``capacity=None`` is unbounded
    (replay feeds).
    """

    def __init__(self, capacity: Optional[int] = None):
        if capacity is not None and capacity < 1:
            raise ValueError("capacity must be >= 1 (or None: unbounded)")
        self.capacity = capacity
        self._items: deque = deque()
        self._lock = threading.Lock()
        self._not_empty = threading.Condition(self._lock)
        self._not_full = threading.Condition(self._lock)
        self._closed = False
        #: total items ever accepted (producer side)
        self.accepted = 0
        #: total items ever taken (consumer side)
        self.taken = 0
        #: high-water mark of the backlog
        self.peak_depth = 0

    # -- producer side -------------------------------------------------
    def put(self, item, timeout: Optional[float] = None) -> None:
        """Enqueue; block while at capacity.  Raises ``ValueError`` on
        a closed source and ``TimeoutError`` when ``timeout`` expires
        at capacity."""
        with self._not_full:
            while (not self._closed and self.capacity is not None
                   and len(self._items) >= self.capacity):
                if not self._not_full.wait(timeout):
                    raise TimeoutError("admission queue full")
            if self._closed:
                raise ValueError("admission source is closed")
            self._append(item)

    def put_nowait(self, item) -> None:
        """Enqueue or raise ``BlockingIOError`` when at capacity."""
        with self._lock:
            if self._closed:
                raise ValueError("admission source is closed")
            if (self.capacity is not None
                    and len(self._items) >= self.capacity):
                raise BlockingIOError("admission queue full")
            self._append(item)

    def _append(self, item) -> None:
        self._items.append(item)
        self.accepted += 1
        if len(self._items) > self.peak_depth:
            self.peak_depth = len(self._items)
        self._not_empty.notify()

    # -- consumer side -------------------------------------------------
    def take(self, block: bool = False, timeout: Optional[float] = None):
        """Dequeue per the admission-source protocol (see module doc)."""
        with self._not_empty:
            if block:
                if not self._not_empty.wait_for(
                        lambda: self._items or self._closed, timeout):
                    raise Starved
            if self._items:
                self.taken += 1
                item = self._items.popleft()
                self._not_full.notify()
                return item
            if self._closed:
                raise StopIteration
            raise Starved

    def close(self) -> None:
        """End the stream; queued items still drain through ``take``."""
        with self._lock:
            self._closed = True
            self._not_empty.notify_all()
            self._not_full.notify_all()

    @property
    def closed(self) -> bool:
        return self._closed

    def qsize(self) -> int:
        with self._lock:
            return len(self._items)

    # -- iterable face (restore fast-forward) --------------------------
    def __iter__(self) -> Iterator:
        return self

    def __next__(self):
        # blocking iteration: the classic iterator contract on top of
        # the protocol — parks while open-but-empty, ends on close
        while True:
            try:
                return self.take(block=True)
            except Starved:
                continue


def feed_queue(source: QueueSource, chains: Iterable,
               close: bool = True) -> None:
    """Feed a finite iterable through a source (testing convenience)."""
    for c in chains:
        source.put(c)
    if close:
        source.close()
