"""Asyncio client library for the gathering service (§2.15).

:class:`GatherClient` wraps one NDJSON connection: a background reader
task demultiplexes incoming frames into per-kind queues, so callers
can pipeline submissions while results stream back concurrently.

    async with await GatherClient.connect(host, port) as cli:
        for chain in chains:
            await cli.submit(chain)          # waits through backpressure
        async for frame in cli.results(expect=len(chains)):
            ...

The protocol and fairness test suites drive the service exclusively
through this class, so it doubles as the reference protocol
implementation.
"""

from __future__ import annotations

import asyncio
from typing import AsyncIterator, List, Optional, Sequence, Tuple

from repro.service.protocol import encode_frame

#: frame kinds that answer one specific request, in request order
_ACK_KINDS = ("queued", "backpressure")
_RESULT_KINDS = ("result", "quarantined")


class ServiceError(RuntimeError):
    """The service reported a fatal ``error`` frame or hung up."""


class GatherClient:
    """One NDJSON connection to a :class:`GatherService`."""

    def __init__(self, reader, writer):
        self._reader = reader
        self._writer = writer
        self.hello: Optional[dict] = None
        self._acks: asyncio.Queue = asyncio.Queue()
        self._results: asyncio.Queue = asyncio.Queue()
        self._status: asyncio.Queue = asyncio.Queue()
        self._drained: asyncio.Queue = asyncio.Queue()
        self._bad: List[dict] = []
        self._eof = asyncio.Event()
        self.error: Optional[dict] = None
        self.submitted = 0
        self.backpressure_seen = 0
        self._pump: Optional[asyncio.Task] = None

    @classmethod
    async def connect(cls, host: str, port: int,
                      timeout: float = 10.0) -> "GatherClient":
        reader, writer = await asyncio.wait_for(
            asyncio.open_connection(host, port), timeout)
        cli = cls(reader, writer)
        cli._pump = asyncio.ensure_future(cli._pump_frames())
        cli.hello = await asyncio.wait_for(cli._status.get(), timeout)
        if cli.hello.get("status") != "hello":
            raise ServiceError(f"expected hello banner, got {cli.hello}")
        return cli

    async def _pump_frames(self) -> None:
        import json
        try:
            while True:
                raw = await self._reader.readline()
                if not raw:
                    break
                raw = raw.strip()
                if not raw:
                    continue
                frame = json.loads(raw.decode("utf-8"))
                kind = frame.get("status")
                if kind in _RESULT_KINDS:
                    self._results.put_nowait(frame)
                elif kind in _ACK_KINDS:
                    if kind == "backpressure":
                        self.backpressure_seen += 1
                    self._acks.put_nowait(frame)
                elif kind == "bad-line":
                    self._bad.append(frame)
                elif kind == "drained":
                    self._drained.put_nowait(frame)
                elif kind == "error":
                    self.error = frame
                else:  # hello, status, bye
                    self._status.put_nowait(frame)
        except (ConnectionError, OSError, asyncio.IncompleteReadError):
            pass  # server died or hung up: surfaced as EOF sentinels
        finally:
            self._eof.set()
            # unblock pending result/ack waiters with the EOF sentinel
            self._results.put_nowait(None)
            self._acks.put_nowait(None)
            self._drained.put_nowait(None)
            self._status.put_nowait(None)

    # -- submission ----------------------------------------------------
    def _send(self, doc: dict) -> None:
        if self._eof.is_set():
            raise ServiceError("connection closed")
        self._writer.write(encode_frame(doc))

    async def submit(self, chain: Sequence[Tuple[int, int]]) -> dict:
        """Submit one chain; wait for its ack, riding out backpressure.

        Returns the terminal ``queued`` frame for this submission.
        """
        self._send({"op": "submit", "chain": [list(p) for p in chain]})
        await self._writer.drain()
        self.submitted += 1
        while True:
            ack = await self._acks.get()
            if ack is None:
                raise ServiceError(
                    f"connection closed awaiting ack ({self.error})")
            if ack["status"] == "queued":
                return ack
            # backpressure: the queued frame follows once space frees

    async def submit_nowait(self, chain: Sequence[Tuple[int, int]]) -> None:
        """Pipeline a submission with acks suppressed (``ack: false``) —
        backpressure is exerted through TCP flow control only."""
        self._send({"op": "submit", "chain": [list(p) for p in chain],
                    "ack": False})
        await self._writer.drain()
        self.submitted += 1

    # -- results -------------------------------------------------------
    async def next_result(self, timeout: Optional[float] = None) -> dict:
        """The next ``result``/``quarantined`` frame (any submission)."""
        frame = await asyncio.wait_for(self._results.get(), timeout)
        if frame is None:
            raise ServiceError(
                f"connection closed awaiting results ({self.error})")
        return frame

    async def results(self, expect: int,
                      timeout: Optional[float] = None
                      ) -> AsyncIterator[dict]:
        """Yield exactly ``expect`` result/quarantined frames."""
        for _ in range(expect):
            yield await self.next_result(timeout)

    @property
    def bad_lines(self) -> List[dict]:
        """``bad-line`` frames received so far (rejected submissions)."""
        return self._bad

    # -- control ops ---------------------------------------------------
    async def status(self, timeout: float = 10.0) -> dict:
        self._send({"op": "status"})
        await self._writer.drain()
        frame = await asyncio.wait_for(self._status.get(), timeout)
        if frame is None:
            raise ServiceError("connection closed awaiting status")
        return frame

    async def drain(self, timeout: Optional[float] = None) -> dict:
        """Block until every submission on this connection delivered."""
        self._send({"op": "drain"})
        await self._writer.drain()
        frame = await asyncio.wait_for(self._drained.get(), timeout)
        if frame is None:
            raise ServiceError(
                f"connection closed awaiting drain ({self.error})")
        return frame

    async def shutdown(self, timeout: float = 10.0) -> dict:
        """Ask the service to drain and exit; returns the ``bye``."""
        self._send({"op": "shutdown"})
        await self._writer.drain()
        frame = await asyncio.wait_for(self._status.get(), timeout)
        if frame is None:
            raise ServiceError("connection closed awaiting bye")
        return frame

    async def close(self) -> None:
        if self._pump is not None:
            self._pump.cancel()
            try:
                await self._pump
            except (asyncio.CancelledError, Exception):
                pass
        if not self._writer.is_closing():
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def __aenter__(self) -> "GatherClient":
        return self

    async def __aexit__(self, *exc) -> None:
        await self.close()
