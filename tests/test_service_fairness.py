"""Load behaviour of the gathering service: backpressure, fairness,
and kill/resume durability (DESIGN.md §2.15).

Three contracts:

* the admission backlog never exceeds the configured capacity — parked
  submissions get explicit ``backpressure`` frames and are admitted in
  arrival order as space frees;
* a client pipelining thousands of chains cannot starve another
  client's trickle: takes round-robin across clients, so a late
  joiner's results land within a bounded window of its submissions;
* a SIGKILLed ``repro serve --wal`` process, restarted with
  ``--resume``, completes its ``results.ndjson``: the lines written
  before the kill are kept verbatim, every chain is delivered exactly
  once, and each row equals an uninterrupted run's.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.chains import square_ring
from repro.service.client import GatherClient
from repro.service.queue import FairAdmissionQueue
from repro.service.server import GatherService

RING8 = square_ring(8)
RING16 = square_ring(16)
#: about a second of kernel work: it holds its slot while a test's
#: submissions arrive, so the backlog they test exists by construction
RING_LONG = square_ring(200)


def run(coro):
    return asyncio.run(coro)


async def _stop(svc: GatherService) -> None:
    svc.begin_shutdown()
    await asyncio.wait_for(svc.wait_finished(), 120)


class TestBackpressure:
    def test_backlog_never_exceeds_capacity(self):
        # two long chains fill both slots, so the queue fills and the
        # fourth ring after them parks
        async def main():
            svc = GatherService(slots=2, queue_capacity=3)
            await svc.start()
            try:
                cli = await GatherClient.connect("127.0.0.1", svc.port)
                for chain in [RING_LONG] * 2 + [RING8] * 25:
                    ack = await cli.submit(chain)
                    assert ack["status"] == "queued"
                    assert ack["queued"] <= 3
                await cli.drain(timeout=120)
                assert svc.queue.peak_depth <= 3
                assert cli.backpressure_seen > 0
                await cli.shutdown()
                await cli.close()
            finally:
                await _stop(svc)
        run(main())

    def test_parked_submissions_admitted_in_arrival_order(self):
        q = FairAdmissionQueue(capacity=2)
        q.submit("a", 0, None, "a0")
        q.submit("a", 1, None, "a1")
        with pytest.raises(BlockingIOError):
            # parking needs a loop to create the wait future; without
            # one the queue refuses instead of blocking the caller
            q.submit("a", 2, None, "a2")

        async def main():
            loop = asyncio.get_running_loop()
            q2 = FairAdmissionQueue(capacity=2, loop=loop)
            q2.submit("a", 0, None, "a0")
            q2.submit("a", 1, None, "a1")
            f2 = q2.submit("a", 2, None, "a2")
            f3 = q2.submit("b", 0, None, "b0")
            assert f2 is not None and f3 is not None
            assert q2.parked() == 2
            assert q2.take() == "a0"          # frees one slot -> a2 enters
            await asyncio.wait_for(f2, 5)
            assert not f3.done()
            assert q2.qsize() == 2
            assert q2.take() == "a1"
            await asyncio.wait_for(f3, 5)
            # round-robin resumes over the promoted entries
            assert [q2.take(), q2.take()] == ["a2", "b0"]
            assert q2.peak_depth == 2
        run(main())

    def test_close_fails_parked_submitters(self):
        async def main():
            loop = asyncio.get_running_loop()
            q = FairAdmissionQueue(capacity=1, loop=loop)
            q.submit("a", 0, None, "a0")
            fut = q.submit("a", 1, None, "a1")
            q.close()
            with pytest.raises(ConnectionAbortedError):
                await asyncio.wait_for(fut, 5)
            assert q.take() == "a0"
            with pytest.raises(StopIteration):
                q.take()
        run(main())


class TestFairness:
    def test_late_client_not_starved_by_pipeliner(self):
        # A floods a long chain and 24 rings; B then submits 4.  With
        # slots=1 the long chain holds the only slot while they
        # arrive, so A's backlog persists and B's chains must
        # interleave into the round-robin window instead of queueing
        # behind all of A's.
        async def main():
            svc = GatherService(slots=1, queue_capacity=64)
            await svc.start()
            try:
                a = await GatherClient.connect("127.0.0.1", svc.port)
                for chain in [RING_LONG] + [RING16] * 24:
                    await a.submit(chain)
                b = await GatherClient.connect("127.0.0.1", svc.port)
                for _ in range(4):
                    await b.submit(RING8)
                b_idx = []
                async for fr in b.results(expect=4, timeout=120):
                    assert fr["status"] == "result"
                    b_idx.append(fr["chain"])
                await a.drain(timeout=120)
                await a.shutdown()
                await a.close()
                await b.close()
            finally:
                await _stop(svc)
            return b_idx
        b_idx = run(main())
        # FIFO would admit B's chains at global indices 25..28; fair
        # round-robin alternates them with A's remaining backlog well
        # inside A's range even allowing for takes that happened
        # before B connected
        assert max(b_idx) < 24, b_idx

    def test_round_robin_window_bound(self):
        # pure queue-level check, fully deterministic: once both
        # clients have backlog, any K consecutive takes contain at
        # least floor(K/2) from each live client
        q = FairAdmissionQueue()
        for i in range(50):
            q.submit("flood", i, None, ("flood", i))
        for i in range(5):
            q.submit("trickle", i, None, ("trickle", i))
        takes = [q.take() for _ in range(10)]
        trickle_served = [t for t in takes if t[0] == "trickle"]
        assert len(trickle_served) == 5
        assert takes.index(("trickle", 4)) <= 9


class TestServiceKillResume:
    N = 30
    #: RING8s, then two long chains at the tail: the kill after seven
    #: results lands mid-stream by construction, as the long chains
    #: are still running however fast the kernel gets through the rest
    CHAINS = [RING8] * (N - 2) + [RING_LONG] * 2

    def _start(self, tmp_path, extra):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(os.getcwd(), "src")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
             "--slots", "4", "--snapshot-every", "8"] + extra,
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True, env=env, cwd=os.getcwd())
        self._procs.append(proc)
        line = proc.stdout.readline()
        assert "serving on" in line, line
        port = int(line.split("(")[0].rsplit(":", 1)[1])
        return proc, port

    def setup_method(self, method):
        self._procs = []

    def teardown_method(self, method):
        for proc in self._procs:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=60)
            proc.stdout.close()

    @staticmethod
    def _read(path):
        with open(path, "rb") as fh:
            return fh.read()

    def test_sigkill_resume_ledger_byte_identical(self, tmp_path):
        clean = str(tmp_path / "clean")
        killed = str(tmp_path / "killed")

        async def feed(port, read_results, shutdown):
            cli = await GatherClient.connect("127.0.0.1", port)
            for chain in self.CHAINS:
                await cli.submit(chain)
            for _ in range(read_results):
                await cli.next_result(timeout=60)
            if shutdown:
                await cli.drain(timeout=120)
                await cli.shutdown()
            await cli.close()

        async def shutdown_only(port):
            cli = await GatherClient.connect("127.0.0.1", port)
            await cli.shutdown()
            await cli.close()

        # reference: uninterrupted service over the same submissions.
        # Live admission is wire-paced, so completion *order* is
        # timing-dependent across independent runs; per-chain rows are
        # deterministic and (single client) global indices equal the
        # submission order in both runs.
        proc, port = self._start(tmp_path, ["--wal", clean])
        run(feed(port, 0, shutdown=True))
        assert proc.wait(timeout=60) == 0
        ref_rows = [json.loads(l) for l in self._read(
            os.path.join(clean, "results.ndjson")).splitlines()]
        assert len(ref_rows) == self.N

        # kill mid-stream: some results delivered, the long chains
        # still running
        proc, port = self._start(tmp_path, ["--wal", killed])
        run(feed(port, 7, shutdown=False))
        os.kill(proc.pid, signal.SIGKILL)
        proc.wait(timeout=60)
        pre = self._read(os.path.join(killed, "results.ndjson"))
        pre = pre[:pre.rfind(b"\n") + 1]  # drop any torn trailing line
        assert 0 < len(pre.splitlines()) < self.N

        # resume: the same ledger completes — already-written lines
        # preserved verbatim, every chain delivered exactly once, each
        # row identical to the uninterrupted run's
        proc, port = self._start(tmp_path, ["--wal", killed, "--resume"])
        run(shutdown_only(port))
        assert proc.wait(timeout=120) == 0
        got = self._read(os.path.join(killed, "results.ndjson"))
        assert got.startswith(pre)
        rows = [json.loads(l) for l in got.splitlines()]
        assert sorted(r["chain"] for r in rows) == list(range(self.N))
        assert (sorted(rows, key=lambda r: r["chain"])
                == sorted(ref_rows, key=lambda r: r["chain"]))

    def test_resume_requires_wal_dir(self):
        # multi-worker resume is supported (the service.json header
        # restores the shard set and the results ledger dedupes the
        # re-run); only a missing wal_dir is rejected
        GatherService(wal_dir="x", resume=True, workers=2)
        with pytest.raises(ValueError, match="wal_dir"):
            GatherService(resume=True)
