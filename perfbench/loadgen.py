"""serve_open: ``repro serve`` under an open-loop, then a flood, load.

The server runs as a subprocess (``python -m repro serve --slots 256``,
or ``serve_traced.py`` for the traced run).  One generator process
drives it over two TCP connections with the benchmark's own minimal
NDJSON client, so a change to the program's client library cannot move
the load:

1. fixed-rate phase (60 % of the time) — submissions go out on a
   fixed schedule (``RATE`` per second, a quarter to a half of the
   flood capacity measured on a 2-vCPU x86 container) whether or not
   the server keeps up; each latency runs from the submission's
   *scheduled* send time to its result frame, and the generator's own
   lateness is recorded;
2. flood phase (40 %) — closed loop with ``WINDOW`` submissions
   outstanding; chains/s is read from one-second windows (stats.py).

Every submission is a pool chain translated by a seeded offset; its
result frame must carry the pool chain's expected robot count, round
count and gathered flag.
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import signal
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

from stats import percentile

HERE = os.path.dirname(os.path.abspath(__file__))

SLOTS = 256
RATE = 200.0          # chains/s offered in the fixed-rate phase
FLOOD_GUESS = 500.0   # flood chains/s, for encoding submissions ahead
WINDOW = 2 * SLOTS    # outstanding submissions in the flood phase
LAG_LIMIT_MS = 50.0   # a run whose generator ran later than this is invalid
SETUP_LAUNCHES = 3
BLOCK = 1000          # fixed-rate submissions per latency block


class Server:
    """A ``repro serve`` subprocess, started and read until ready."""

    def __init__(self, argv: List[str], env: Dict[str, str]):
        t_launch = time.perf_counter()
        self.proc = subprocess.Popen(argv, stdout=subprocess.PIPE,
                                     stderr=subprocess.PIPE, env=env,
                                     text=True)
        line = self.proc.stdout.readline()
        self.ready_s = time.perf_counter() - t_launch
        if not line.startswith("serving on "):
            self.stop()
            raise RuntimeError(f"server did not come up: {line!r} "
                               f"{self.proc.stderr.read()[-2000:]!r}")
        self.port = int(line.split()[2].split(":")[1])

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> None:
        """Graceful drain-and-exit (SIGTERM); killed if it hangs."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self.proc.stderr.close()


def server_argv(trace_out: Optional[str] = None) -> List[str]:
    args = ["serve", "--slots", str(SLOTS), "--port", "0"]
    if trace_out is None:
        return [sys.executable, "-m", "repro"] + args
    return [sys.executable, os.path.join(HERE, "serve_traced.py"),
            trace_out] + args


class Submissions:
    """Seeded submissions, pre-encoded: ``frame(i)`` / ``pool_id(i)``.

    Pool chains in shuffled epochs, each translated by a seeded offset.
    ``extend`` encodes ahead of time (outside the timed phases); a
    flood that outruns the encoded stock encodes on demand.
    """

    def __init__(self, pool, seed: int, tag: str):
        self.pool = pool
        self.rng = random.Random(f"serve/{tag}/{seed}")
        self.order: List[int] = []
        self.frames: List[bytes] = []
        self.ids: List[int] = []

    def extend(self, count: int) -> None:
        from inputs import SHIFT
        rng, pool = self.rng, self.pool
        while len(self.frames) < count:
            if not self.order:
                self.order = list(range(len(pool)))
                rng.shuffle(self.order)
            k = self.order.pop()
            dx, dy = rng.randrange(-SHIFT, SHIFT), rng.randrange(-SHIFT, SHIFT)
            chain = [[x + dx, y + dy] for x, y in pool[k]]
            self.frames.append((json.dumps(
                {"op": "submit", "chain": chain, "ack": False},
                separators=(",", ":")) + "\n").encode())
            self.ids.append(k)

    def frame(self, i: int) -> bytes:
        if i >= len(self.frames):
            self.extend(i + 256)
        return self.frames[i]

    def pool_id(self, i: int) -> int:
        return self.ids[i]


class _Conn:
    def __init__(self, reader, writer):
        self.reader, self.writer = reader, writer
        self.sent: List[int] = []       # submission ids in seq order


class LoadGen:
    """Open-loop and flood phases against one server."""

    def __init__(self, port: int, subs, refs):
        self.port = port
        self.subs = subs
        self.refs = refs
        self.sched: Dict[int, float] = {}
        self.sent_at: Dict[int, float] = {}
        self.done_at: Dict[int, float] = {}
        self.frames: Dict[int, dict] = {}
        self.next_sub = 0
        self.flood_until = 0.0
        self.conns: List[_Conn] = []
        self.errors: List[str] = []

    async def _connect(self) -> None:
        for _ in range(2):
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", self.port, limit=1 << 20)
            hello = json.loads(await reader.readline())
            if hello.get("status") != "hello":
                raise RuntimeError(f"expected hello, got {hello}")
            self.conns.append(_Conn(reader, writer))

    def _send(self, conn: _Conn) -> None:
        i = self.next_sub
        self.next_sub += 1
        conn.sent.append(i)
        conn.writer.write(self.subs.frame(i))
        self.sent_at[i] = time.perf_counter()

    async def _read(self, conn: _Conn) -> None:
        clock = time.perf_counter
        while True:
            line = await conn.reader.readline()
            if not line:
                return
            frame = json.loads(line)
            status = frame.get("status")
            if status in ("result", "quarantined"):
                i = conn.sent[frame["seq"]]
                self.done_at[i] = clock()
                self.frames[i] = frame
                if clock() < self.flood_until:
                    self._send(conn)
            elif status in ("bad-line", "error"):
                self.errors.append(json.dumps(frame)[:200])

    async def _wait_done(self, upto: int, timeout: float) -> None:
        t_end = time.perf_counter() + timeout
        while len(self.done_at) < upto and time.perf_counter() < t_end:
            await asyncio.sleep(0.01)

    async def fixed_rate(self, rate: float, seconds: float) -> None:
        count = int(rate * seconds)
        start = self.next_sub
        clock = time.perf_counter
        t0 = clock() + 0.05
        k = 0
        while k < count:
            now = clock()
            due = t0 + k / rate
            if due > now:
                await asyncio.sleep(due - now)
                continue
            while k < count and t0 + k / rate <= now:
                self.sched[start + k] = t0 + k / rate
                self._send(self.conns[k % 2])
                k += 1
        await self._wait_done(start + count, 60.0)

    async def flood(self, seconds: float) -> Tuple[float, float]:
        self.flood_until = time.perf_counter() + seconds
        t0 = time.perf_counter()
        first = self.next_sub
        for k in range(WINDOW):
            self._send(self.conns[k % 2])
        while time.perf_counter() < self.flood_until:
            await asyncio.sleep(0.05)
        await self._wait_done(self.next_sub, 60.0)
        return t0, first

    async def session(self, phases):
        await self._connect()
        readers = [asyncio.ensure_future(self._read(c)) for c in self.conns]
        try:
            out = []
            for name, arg in phases:
                if name == "rate":
                    out.append(await self.fixed_rate(RATE, arg))
                else:
                    out.append(await self.flood(arg))
            return out
        finally:
            for c in self.conns:
                c.writer.close()
            for task in readers:
                task.cancel()
            await asyncio.gather(*readers, return_exceptions=True)

    # -- figures ---------------------------------------------------------
    def flood_rates(self, t0: float, first: int,
                    seconds: float) -> Tuple[float, float]:
        """Fast-decile chains/s and robot-rounds/s of the flood."""
        from stats import Windows
        wins = Windows(t0, seconds)
        for i, t in self.done_at.items():
            if i >= first:
                ref = self.refs[self.subs.pool_id(i)]
                wins.add(t, ref["n"] * ref["rounds"])
        return wins.rates()

    def check(self) -> Tuple[int, int, List[str]]:
        import inputs
        failed, notes = 0, list(self.errors[:3])
        for i in range(self.next_sub):
            ref = self.refs[self.subs.pool_id(i)]
            frame = self.frames.get(i)
            ok = (frame is not None and frame.get("status") == "result"
                  and frame.get("gathered") is True
                  and frame.get("n") == ref["n"]
                  and inputs.digest(i, frame["rounds"], []) ==
                  inputs.digest(i, ref["rounds"], []))
            if not ok:
                failed += 1
                if len(notes) < 5:
                    notes.append(f"submission {i}: {frame}"[:200])
        return self.next_sub, failed, notes


def block_percentiles(sched: Dict[int, float], done_at: Dict[int, float]
                      ) -> Tuple[float, float]:
    """p50 and p99 of the fixed-rate phase, by the fast block.

    The phase is cut into consecutive blocks of ``BLOCK`` submissions —
    enough for ten samples beyond the p99 — and the block with the
    lowest percentile is reported (see stats.py on slow episodes).
    """
    ids = sorted(sched)
    lat = [(done_at[i] - sched[i]) * 1e3 for i in ids if i in done_at]
    blocks = [lat[k:k + BLOCK] for k in range(0, len(lat), BLOCK)]
    if len(blocks) > 1 and len(blocks[-1]) < BLOCK:
        blocks[-2].extend(blocks.pop())
    return (min(percentile(b, 50) for b in blocks),
            min(percentile(b, 99) for b in blocks))


def run_serve(pool, refs, seed: int, seconds: float, trace: bool,
              env: Dict[str, str], tmp: str) -> dict:
    subs = Submissions(pool, seed, "main")
    subs.extend(int(RATE * seconds + 2 * FLOOD_GUESS * seconds))
    setups: List[float] = []
    if trace:
        # untraced flood baseline on a plain server, then the traced server
        third = seconds / 3
        srv = Server(server_argv(), env)
        try:
            base_subs = Submissions(pool, seed, "base")
            base_subs.extend(int(2 * FLOOD_GUESS * third))
            base = LoadGen(srv.port, base_subs, refs)
            (t0, first), = asyncio.run(base.session([("flood", third)]))
            base_rate, _w = base.flood_rates(t0, first, third)
        finally:
            srv.stop()
        trace_path = os.path.join(tmp, "server-trace.json")
        srv = Server(server_argv(trace_path), env)
        phases = [("rate", third), ("flood", third)]
        flood_s = third
    else:
        for _ in range(SETUP_LAUNCHES - 1):
            probe = Server(server_argv(), env)
            setups.append(probe.ready_s)
            probe.stop()
        srv = Server(server_argv(), env)
        setups.append(srv.ready_s)
        # the latency percentiles need the longer phase (see BLOCK)
        flood_s = seconds * 0.4
        phases = [("rate", seconds - flood_s), ("flood", flood_s)]
    try:
        gen = LoadGen(srv.port, subs, refs)
        _none, (t0, first) = asyncio.run(gen.session(phases))
        rss = srv.peak_rss_mb()
    finally:
        srv.stop()
    chains_per_s, rr_per_s = gen.flood_rates(t0, first, flood_s)
    p50, p99 = block_percentiles(gen.sched, gen.done_at)
    lag99 = percentile([(gen.sent_at[i] - s) * 1e3
                        for i, s in gen.sched.items()], 99)
    attempted, failed, notes = gen.check()
    valid = lag99 <= LAG_LIMIT_MS
    if not valid:
        notes.append(f"generator fell behind its schedule: lag p99 "
                     f"{lag99:.1f} ms > {LAG_LIMIT_MS} ms")
    out = {
        "attempted": attempted, "failed": failed, "notes": notes,
        "valid": valid, "samples": len(gen.sched),
        "metrics": {
            "chains_per_s": chains_per_s,
            "robot_rounds_per_s": rr_per_s,
            "latency_p50_ms": p50,
            "latency_p99_ms": p99,
            "peak_rss_mb": rss,
        },
    }
    if setups:
        out["metrics"]["setup_s"] = statistics.median(setups)
    if trace:
        with open(trace_path, "r", encoding="utf-8") as fh:
            layers = json.load(fh)["metrics"]
        layers["loadgen.lag_p99_ms"] = lag99
        layers["trace.overhead_ratio"] = base_rate / chains_per_s
        out["per_layer"] = layers
    return out
