"""Protocol conformance for the gathering service (DESIGN.md §2.15).

The contract under test: every hostile wire line — malformed JSON,
oversized frames, invalid or oversized chains, unknown ops, mid-frame
disconnects — produces a structured ``bad-line`` frame (or a silent
hangup the *client* chose), never a dead server loop and never a
leaked slot; and results delivered over TCP are bit-identical to
``run_stream`` on the same submission order.

No pytest-asyncio in the image: each test drives its own event loop
through ``asyncio.run`` with the service bound to an ephemeral port on
loopback.
"""

from __future__ import annotations

import asyncio
import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.chains import outline, random_polyomino, square_ring
from repro.core.admission import QueueSource, Starved, feed_queue
from repro.core.batch import BatchSimulator
from repro.service.client import GatherClient, ServiceError
from repro.service.protocol import (ProtocolError, decode_line,
                                    parse_positions, read_frames)
from repro.service.queue import FairAdmissionQueue
from repro.service.server import GatherService

RING8 = square_ring(8)
RING12 = square_ring(12)


def run(coro):
    return asyncio.run(coro)


class _Service:
    """Async context manager: a live service + one connected client."""

    def __init__(self, **kw):
        kw.setdefault("slots", 4)
        self.kw = kw
        self.service = None
        self.client = None

    async def __aenter__(self):
        self.service = GatherService(**self.kw)
        await self.service.start()
        self.client = await GatherClient.connect(
            "127.0.0.1", self.service.port)
        return self

    async def __aexit__(self, *exc):
        try:
            if exc[0] is None and not self.service.queue.closed:
                await self.client.shutdown()
                await asyncio.wait_for(self.service.wait_finished(), 60)
            else:
                self.service.begin_shutdown()
                await asyncio.wait_for(self.service.wait_finished(), 60)
        finally:
            await self.client.close()


def stream_reference(chains, slots=4):
    """What ``run_stream`` yields for the same admission order."""
    sim = BatchSimulator([], engine="kernel", keep_reports=False)
    ref = {}
    for idx, r in sim.run_stream(iter(chains), slots=slots):
        ref[idx] = {"chain": idx, "n": r.initial_n, "rounds": r.rounds,
                    "gathered": r.gathered,
                    "rounds_per_robot": round(r.rounds_per_robot, 3)}
    return ref


# ---------------------------------------------------------------------------
# wire basics
# ---------------------------------------------------------------------------

class TestWireBasics:
    def test_hello_banner(self):
        async def main():
            async with _Service(slots=3, queue_capacity=7) as ctx:
                h = ctx.client.hello
                assert h["status"] == "hello"
                assert h["slots"] == 3
                assert h["queue_capacity"] == 7
                assert h["version"] == 1
        run(main())

    def test_tcp_results_bit_identical_to_run_stream(self):
        chains = [RING8, RING12, RING8, outline(random_polyomino(9)),
                  RING12, RING8]
        slots = 4

        async def main():
            async with _Service(slots=slots) as ctx:
                for c in chains:
                    ack = await ctx.client.submit(c)
                    assert ack["status"] == "queued"
                frames = {}
                async for fr in ctx.client.results(expect=len(chains),
                                                   timeout=60):
                    assert fr["status"] == "result"
                    frames[fr["chain"]] = {
                        k: fr[k] for k in ("chain", "n", "rounds",
                                           "gathered", "rounds_per_robot")}
            return frames, ctx.service.sim.last_stream_stats
        frames, stats = run(main())
        assert frames == stream_reference(chains, slots=slots)
        # occupancy stays inside the slot budget end to end
        assert stats["peak_live_chains"] <= slots
        assert stats["peak_cells"] <= slots * max(len(c) for c in chains)

    def test_seq_maps_submissions_to_results(self):
        async def main():
            async with _Service() as ctx:
                for _ in range(5):
                    await ctx.client.submit(RING8)
                seqs = set()
                async for fr in ctx.client.results(expect=5, timeout=60):
                    seqs.add(fr["seq"])
                assert seqs == set(range(5))
        run(main())

    def test_status_frame_reports_health(self):
        async def main():
            async with _Service() as ctx:
                for _ in range(3):
                    await ctx.client.submit(RING8)
                await ctx.client.drain(timeout=60)
                st_doc = await ctx.client.status()
                assert st_doc["served"] == 3
                assert st_doc["accepted"] == 3
                assert st_doc["queue_depth"] == 0
                assert st_doc["occupancy"] == 0
                assert st_doc["rounds"] > 0
                assert "topo_rebuilds" in st_doc
                assert st_doc["chains_per_s"] >= 0
        run(main())

    def test_drain_and_shutdown(self):
        async def main():
            svc = GatherService(slots=2)
            await svc.start()
            cli = await GatherClient.connect("127.0.0.1", svc.port)
            await cli.submit(RING8)
            drained = await cli.drain(timeout=60)
            assert drained["delivered"] == 1
            bye = await cli.shutdown()
            assert bye["status"] == "bye"
            await asyncio.wait_for(svc.wait_finished(), 60)
            await cli.close()
        run(main())


# ---------------------------------------------------------------------------
# hostile input: every bad line a structured frame, never a dead loop
# ---------------------------------------------------------------------------

BAD_SUBMISSIONS = [
    ({"op": "submit"}, "bad-chain"),                      # missing chain
    ({"op": "submit", "chain": "nope"}, "bad-chain"),
    ({"op": "submit", "chain": []}, "bad-chain"),
    ({"op": "submit", "chain": [[0, 0], [1]]}, "bad-position"),
    ({"op": "submit", "chain": [[0, 0], "x"]}, "bad-position"),
    ({"op": "submit", "chain": [[0.5, 0], [1, 0]]}, "bad-position"),
    ({"op": "submit", "chain": [[True, 0], [1, 0]]}, "bad-position"),
    ({"op": "submit", "chain": [[0, 2 ** 62], [1, 0]]}, "bad-position"),
    ({"op": "submit", "chain": [[0, 0]] * 50}, "chain-too-long"),
    ({"op": "frobnicate"}, "unknown-op"),
    ({"noop": 1}, "unknown-op"),
]


class TestHostileFrames:
    def test_each_bad_line_gets_a_structured_frame(self):
        async def main():
            async with _Service(max_chain=40) as ctx:
                cli = ctx.client
                for doc, _ in BAD_SUBMISSIONS:
                    cli._send(doc)
                cli._writer.write(b"not json at all\n")
                cli._writer.write(b'[1, 2, 3]\n')       # JSON, not an object
                await cli._writer.drain()
                # the loop survives: a real submission still round-trips
                await cli.submit(RING8)
                fr = await cli.next_result(timeout=60)
                assert fr["status"] == "result"
                st_doc = await cli.status()
                assert len(cli.bad_lines) == len(BAD_SUBMISSIONS) + 2
                codes = [b["error"] for b in cli.bad_lines]
                for (_, want), got in zip(BAD_SUBMISSIONS, codes):
                    assert got == want
                assert "bad-json" in codes and "not-object" in codes
                # and nothing leaked a slot or a queue entry
                assert st_doc["occupancy"] == 0
                assert st_doc["queue_depth"] == 0
                assert st_doc["served"] == 1
        run(main())

    def test_oversized_line_rejected_connection_survives(self):
        async def main():
            async with _Service(max_line=512) as ctx:
                cli = ctx.client
                cli._writer.write(b"x" * 2048 + b"\n")
                await cli._writer.drain()
                await cli.submit(RING8)
                fr = await cli.next_result(timeout=60)
                assert fr["status"] == "result"
                assert any(b["error"] == "line-too-long"
                           for b in cli.bad_lines)
        run(main())

    def test_mid_frame_disconnect_leaves_server_alive(self):
        async def main():
            svc = GatherService(slots=4)
            await svc.start()
            try:
                # half a frame, then vanish
                r, w = await asyncio.open_connection("127.0.0.1", svc.port)
                await r.readline()  # hello
                w.write(b'{"op": "submit", "chain": [[0, 0')
                await w.drain()
                w.close()
                # a second client gets full service
                cli = await GatherClient.connect("127.0.0.1", svc.port)
                await cli.submit(RING8)
                fr = await cli.next_result(timeout=60)
                assert fr["status"] == "result"
                st_doc = await cli.status()
                assert st_doc["occupancy"] == 0
                await cli.shutdown()
                await asyncio.wait_for(svc.wait_finished(), 60)
                await cli.close()
            finally:
                svc.begin_shutdown()
        run(main())

    def test_poison_chain_quarantined_not_fatal(self):
        # structurally valid wire payload, semantically not a closed
        # chain: the kernel's admission validation quarantines it and
        # the service keeps streaming
        async def main():
            async with _Service() as ctx:
                await ctx.client.submit([(0, 0), (1, 0), (2, 0)])
                await ctx.client.submit(RING8)
                frames = [await ctx.client.next_result(timeout=60)
                          for _ in range(2)]
                by_status = {f["status"]: f for f in frames}
                assert set(by_status) == {"quarantined", "result"}
                bad = by_status["quarantined"]
                assert bad["error"]
                assert bad["stage"] == "admit"
        run(main())

    @settings(max_examples=20, deadline=None)
    @given(st.text(alphabet=st.characters(blacklist_characters="\n\r"),
                   min_size=1, max_size=200))
    def test_fuzzed_lines_never_kill_the_loop(self, line):
        # arbitrary junk lines: either ignored (blank), rejected with a
        # structured frame, or — if they happen to parse as a valid op —
        # answered; in every case the connection still serves afterwards
        async def main():
            async with _Service() as ctx:
                cli = ctx.client
                cli._writer.write(line.encode("utf-8", "ignore") + b"\n")
                await cli._writer.drain()
                await cli.submit(RING8)
                fr = await cli.next_result(timeout=60)
                assert fr["status"] == "result"
        run(main())


# ---------------------------------------------------------------------------
# protocol layer units (fast hypothesis targets)
# ---------------------------------------------------------------------------

_JSONISH = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)
    | st.text(max_size=20),
    lambda inner: st.lists(inner, max_size=5)
    | st.dictionaries(st.text(max_size=8), inner, max_size=5),
    max_leaves=20)


class TestProtocolUnits:
    @settings(max_examples=100, deadline=None)
    @given(_JSONISH)
    def test_parse_positions_total(self, payload):
        # total over arbitrary JSON: a position list or ProtocolError,
        # never any other exception
        try:
            pts = parse_positions(payload, max_chain=64)
        except ProtocolError:
            return
        assert pts and all(isinstance(x, int) and isinstance(y, int)
                           for x, y in pts)

    @settings(max_examples=100, deadline=None)
    @given(st.binary(max_size=200))
    def test_decode_line_total(self, raw):
        try:
            doc = decode_line(raw)
        except ProtocolError:
            return
        assert isinstance(doc, dict)

    def test_read_frames_resyncs_after_oversize(self):
        async def main():
            reader = asyncio.StreamReader()
            reader.feed_data(b"y" * 900 + b"\n")       # oversized
            reader.feed_data(b'{"op": "status"}\n')    # next line intact
            reader.feed_data(b"\r\n")                  # blank: skipped
            reader.feed_data(b'{"op": "drain"}\r\n')   # CRLF tolerated
            reader.feed_eof()
            return [f async for f in read_frames(reader, max_line=256)]
        frames = run(main())
        assert len(frames) == 3
        assert isinstance(frames[0][1], ProtocolError)
        assert frames[0][1].code == "line-too-long"
        assert frames[1][1] == {"op": "status"}
        assert frames[2][1] == {"op": "drain"}

    def test_read_frames_split_across_chunks(self):
        async def main():
            reader = asyncio.StreamReader()
            whole = b'{"op": "status"}\n{"op": "drain"}\n'
            for i in range(0, len(whole), 7):
                reader.feed_data(whole[i:i + 7])
            reader.feed_eof()
            return [doc async for _, doc in read_frames(reader)]
        assert run(main()) == [{"op": "status"}, {"op": "drain"}]


# ---------------------------------------------------------------------------
# admission machinery (the §2.15 seam under the service)
# ---------------------------------------------------------------------------

class TestAdmissionSeam:
    def test_queue_source_protocol(self):
        src = QueueSource(capacity=2)
        with pytest.raises(Starved):
            src.take()
        src.put("a")
        src.put("b")
        with pytest.raises(BlockingIOError):
            src.put_nowait("c")
        assert src.take() == "a"
        src.close()
        with pytest.raises(ValueError):
            src.put("d")
        assert src.take() == "b"
        with pytest.raises(StopIteration):
            src.take()
        assert src.peak_depth == 2

    def test_thread_fed_queue_source_bit_identical(self):
        import threading
        chains = [RING8, RING12, RING8, RING12]
        src = QueueSource(capacity=2)
        feeder = threading.Thread(target=feed_queue, args=(src, chains))
        feeder.start()
        sim = BatchSimulator([], engine="kernel", keep_reports=False)
        got = {}
        for idx, r in sim.run_stream(src, slots=2):
            got[idx] = {"chain": idx, "n": r.initial_n, "rounds": r.rounds,
                        "gathered": r.gathered,
                        "rounds_per_robot": round(r.rounds_per_robot, 3)}
        feeder.join()
        assert got == stream_reference(chains, slots=2)

    def test_constructor_chains_conflict_with_source(self):
        sim = BatchSimulator([RING8], engine="kernel", keep_reports=False)
        with pytest.raises(ValueError, match="admission source"):
            next(iter(sim.run_stream(QueueSource())))

    def test_fair_queue_round_robins_across_clients(self):
        q = FairAdmissionQueue()
        for i in range(4):
            q.submit("a", i, None, f"a{i}")
        for i in range(2):
            q.submit("b", i, None, f"b{i}")
        order = [q.take() for _ in range(6)]
        assert order == ["a0", "b0", "a1", "b1", "a2", "a3"]
        assert q.owner_of(1) == ("b", 0)
        assert q.owner_of(5) == ("a", 3)

    def test_fair_queue_close_drains_then_stops(self):
        q = FairAdmissionQueue()
        q.submit("a", 0, None, "x")
        q.close()
        assert q.take() == "x"
        with pytest.raises(StopIteration):
            q.take()

    def test_fair_queue_replay_served_first_without_owner(self):
        q = FairAdmissionQueue()
        q.feed_replay([(0, "r0", False), (1, "r1", False)])
        q.submit("a", 0, None, "live")
        assert [q.take() for _ in range(3)] == ["r0", "r1", "live"]
        assert q.owner_of(0) is None
        assert q.owner_of(2) == ("a", 0)

    def test_fair_queue_take_logging_skips_replayed_entries(self):
        logged = []
        q = FairAdmissionQueue(on_take=logged.append)
        q.feed_replay([(7, "old", False), (8, "retry", True)])
        q.submit("a", 0, 9, "new")
        for _ in range(3):
            q.take()
        assert logged == [8, 9]
