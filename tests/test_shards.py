"""The shard tier (DESIGN.md §2.16).

Covers routing — ``run_stream`` sends every ``workers >= 2`` stream,
admission source or finite iterable, to the shards — the shard
scheduler's conformance guarantee (bit-identical to the in-process
fleet per stream index, under mixed sizes, faults, quarantine and kept
reports), the slot budget, results that never wait for a later round,
crash recovery (SIGKILLed shard workers respawn and replay their
in-flight chains with identical results; a chain that keeps killing
its worker is convicted alone; no worker outlives its stream or a
killed parent), and the service tier on top: multi-worker resume,
per-shard status, and chains of any admissible size.
"""

import asyncio
import json
import multiprocessing
import os
import random
import signal
import struct
import subprocess
import sys
import textwrap
import threading
import time
import zlib

import pytest

from repro.chains import random_chain, square_ring
from repro.core.admission import QueueSource, feed_queue
from repro.core.batch import BatchSimulator
from repro.core.engine_fleet import FleetKernel
from repro.core.faults import FaultPlan
from repro.core.results import ChainOutcome
from repro.core.shards import KILL_SPEC_ENV, shard_stream
from repro.errors import WorkerCrashError

needs_proc = pytest.mark.skipif(not os.path.isdir("/proc"),
                                reason="no /proc to inspect processes")


def mixed_chains(count, invalid_every=0):
    out = []
    for i in range(count):
        if invalid_every and i % invalid_every == invalid_every - 1:
            out.append([(0, 0), (1, 0), (1, 1)])       # odd length: rejected
        else:
            ring = square_ring(3 + i % 4)
            out.append([(x + i, y - i) for x, y in ring])
    return out


def closed_source(chains):
    """A filled and closed admission source."""
    src = QueueSource()
    feed_queue(src, chains)
    return src


def result_key(res):
    if isinstance(res, ChainOutcome):
        return ("outcome", res.index, res.error, res.message, res.stage,
                res.quarantined)
    return (res.gathered, res.stalled, res.rounds, res.initial_n,
            res.final_n, res.final_positions)


def fleet_reference(chains, slots, **kw):
    return dict(FleetKernel([]).run_stream(iter(chains), slots=slots,
                                           release=True, **kw))


def assert_same(got, ref):
    assert set(got) == set(ref)
    for k in ref:
        assert result_key(got[k]) == result_key(ref[k]), f"chain {k}"


def alive(pid):
    """Whether ``pid`` runs (an exited orphan may linger as a zombie
    until a reaper collects it)."""
    try:
        with open(f"/proc/{pid}/stat", "rb") as fh:
            state = fh.read().rsplit(b")", 1)[1].split()[0]
    except OSError:
        return False
    return state not in (b"Z", b"X")


# ---------------------------------------------------------------------------
# routing: the input picks the multi-process path
# ---------------------------------------------------------------------------

class TestRouting:
    def test_source_and_iterable_both_to_shards(self):
        chains = mixed_chains(16)
        ref = fleet_reference(chains, slots=8)
        for stream in (closed_source(chains), list(chains)):
            sim = BatchSimulator([], workers=2, keep_reports=False)
            assert_same(dict(sim.run_stream(stream, slots=8)), ref)
            rows = sim.last_stream_stats["per_shard"]
            assert sum(r["completed"] for r in rows) == len(chains)
            assert sim.last_stream_stats["respawns"] == 0

    def test_reports_through_shards_match_in_process(self):
        chains = mixed_chains(8)
        ref = dict(FleetKernel([], keep_reports=True).run_stream(
            iter(chains), slots=4, release=True))
        sim = BatchSimulator([], workers=2, keep_reports=True)
        got = dict(sim.run_stream(closed_source(chains), slots=4))
        assert_same(got, ref)
        for k in ref:
            assert ref[k].reports
            assert got[k].reports == ref[k].reports, f"chain {k}"


# ---------------------------------------------------------------------------
# conformance: shards === in-process fleet per stream index
# ---------------------------------------------------------------------------

class TestShardConformance:
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_stream_bit_identical_to_fleet(self, workers):
        chains = mixed_chains(36)
        ref = fleet_reference(chains, slots=12)
        got = dict(shard_stream(closed_source(chains), workers=workers,
                                slots=12))
        assert_same(got, ref)

    def test_quarantine_and_faults_identical(self):
        chains = mixed_chains(48, invalid_every=9)
        fp = dict(seed=5, crash=0.08, perturb=0.1, mid_crash=0.05,
                  mid_restart=0.05)
        ref = fleet_reference(chains, slots=10, faults=FaultPlan(**fp),
                              on_error="quarantine")
        got = dict(shard_stream(closed_source(chains), workers=2, slots=10,
                                faults=FaultPlan(**fp),
                                on_error="quarantine"))
        assert_same(got, ref)

    def test_stream_stats_counters_identical(self):
        # a mid-run fault crash is a quarantine: the shards count it
        # under quarantined and mid_crashed, as the kernel does
        rng = random.Random(5)
        chains = [random_chain(rng.choice([8, 12, 16, 20]), rng=rng)
                  for _ in range(60)]
        chains.insert(30, [(0, 0), (1, 0)])
        keys = ("admitted", "quarantined", "fault_crashed",
                "fault_perturbed", "mid_crashed", "mid_restarted")
        stats = {}
        for workers in (1, 2):
            sim = BatchSimulator([], workers=workers, keep_reports=False)
            outs = list(sim.run_stream(
                chains, slots=8, on_error="quarantine",
                faults=FaultPlan(seed=3, mid_crash=0.2, window=4)))
            stats[workers] = {k: sim.last_stream_stats[k] for k in keys}
            assert stats[workers]["quarantined"] == \
                sum(isinstance(p, ChainOutcome) for _, p in outs)
        assert stats[1] == stats[2]
        assert stats[1]["mid_crashed"] > 0

    def test_poison_raises_in_strict_mode(self):
        from repro.errors import ChainError
        chains = mixed_chains(12, invalid_every=6)
        with pytest.raises(ChainError):
            list(shard_stream(closed_source(chains), workers=2, slots=4))

    def test_stream_stats_per_shard(self):
        sim = BatchSimulator([], engine="kernel", workers=2,
                             keep_reports=False)
        out = dict(sim.run_stream(closed_source(mixed_chains(20)), slots=8))
        assert len(out) == 20
        stats = sim.last_stream_stats
        assert stats["workers"] == 2
        shard_rows = stats["per_shard"]
        assert [r["shard"] for r in shard_rows] == [0, 1]
        assert sum(r["completed"] for r in shard_rows) == 20
        assert all(r["chains_per_s"] >= 0 for r in shard_rows)
        assert stats["admitted"] == 20 and stats["respawns"] == 0

    def test_stress_more_workers_than_cores(self):
        """Three workers on a two-core box, a tiny thread switch
        interval (inherited by the forked workers, whose pipe reader
        thread shares the entry buffer with the kernel) and retire
        batches whose results outgrow a pipe buffer (8 chains of ~11 KB
        with reports per shard): every chain must come back exactly
        once, bit-identical with its reports, within the time bound."""
        chains = [[(x + 5 * i, y) for x, y in square_ring(30)]
                  for i in range(48)]
        ref = dict(FleetKernel([], keep_reports=True).run_stream(
            iter(chains), slots=24, release=True))
        sim = BatchSimulator([], workers=3, keep_reports=True)
        got = {}
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            runner = threading.Thread(target=lambda: got.update(
                sim.run_stream(closed_source(chains), slots=24)),
                daemon=True)
            runner.start()
            runner.join(timeout=120)
        finally:
            sys.setswitchinterval(old)
        assert not runner.is_alive()
        assert_same(got, ref)
        for k in ref:
            assert got[k].reports == ref[k].reports, f"chain {k}"

    def test_rejects_resume(self):
        sim = BatchSimulator([], engine="kernel", workers=2,
                             keep_reports=False)
        with pytest.raises(ValueError, match="resum"):
            list(sim.run_stream(closed_source([]), wal_dir="x",
                                resume=True))

    def test_empty_stream(self):
        assert list(shard_stream(closed_source([]), workers=2,
                                 slots=4)) == []

    def test_shard_count_clamped_to_slot_budget(self):
        # slots caps the total residency: three workers on two slots
        # would hold three chains, so the shards shrink to two
        chains = mixed_chains(12)
        stats = {}
        got = dict(shard_stream(closed_source(chains), workers=3, slots=2,
                                stats=stats))
        assert_same(got, fleet_reference(chains, slots=2))
        assert stats["workers"] == 2
        assert stats["peak_live_chains"] <= 2
        batch = BatchSimulator(chains[:2], workers=3).run()
        assert batch.workers == 2
        assert [result_key(r) for r in batch] == \
            [result_key(fleet_reference(chains[:2], slots=2)[k])
             for k in range(2)]

    def test_admit_quarantine_not_held_for_a_later_round(self):
        # one large ring per shard, then a poison entry: the shard that
        # takes it ships the admit-stage outcome with the pass that
        # rejected it, while both rings are still gathering
        src = QueueSource()
        for c in (square_ring(200), square_ring(201), [(0, 0), (1, 0)]):
            src.put(c)
        stats = {}
        gen = shard_stream(src, workers=2, slots=4, on_error="quarantine",
                           stats=stats)
        try:
            idx, first = next(gen)
            live = sum(r["live"] for r in stats["per_shard"])
        finally:
            src.close()
        rest = dict(gen)
        assert idx == 2 and isinstance(first, ChainOutcome)
        assert first.stage == "admit"
        assert live == 2
        assert sorted(rest) == [0, 1]


# ---------------------------------------------------------------------------
# crash recovery
# ---------------------------------------------------------------------------

class TestShardCrash:
    def test_worker_sigkill_respawns_identical(self, tmp_path, monkeypatch):
        chains = mixed_chains(40)
        cnt = tmp_path / "kills"
        cnt.write_text("2")
        monkeypatch.setenv(KILL_SPEC_ENV, f"{cnt}:9,17")
        stats = {}
        got = dict(shard_stream(closed_source(chains), workers=2, slots=8,
                                stats=stats))
        monkeypatch.delenv(KILL_SPEC_ENV)
        assert_same(got, fleet_reference(chains, slots=8))
        assert stats["respawns"] == 2

    def test_crash_loop_quarantines_only_the_culprit(self, tmp_path,
                                                     monkeypatch):
        # the poison chain shares its shard with an innocent one; the
        # suspects re-run one at a time, so only the killer is convicted
        chains = mixed_chains(8)
        cnt = tmp_path / "kills"
        cnt.write_text("-1")           # never disarms: a poison chain
        monkeypatch.setenv(KILL_SPEC_ENV, f"{cnt}:3")
        got = dict(shard_stream(closed_source(chains), workers=2, slots=4,
                                on_error="quarantine"))
        monkeypatch.delenv(KILL_SPEC_ENV)
        assert set(got) == set(range(8))
        bad = [k for k, r in got.items()
               if isinstance(r, ChainOutcome) and r.quarantined]
        assert bad == [3]
        assert (got[3].error, got[3].stage, got[3].retries) == \
            ("WorkerCrashError", "worker", 6)
        ref = fleet_reference(chains, slots=4)
        del ref[3]
        del got[3]
        assert_same(got, ref)

    def test_crash_loop_raises_in_strict_mode(self, tmp_path, monkeypatch):
        chains = mixed_chains(8)
        cnt = tmp_path / "kills"
        cnt.write_text("-1")
        monkeypatch.setenv(KILL_SPEC_ENV, f"{cnt}:3")
        with pytest.raises(WorkerCrashError) as exc:
            list(shard_stream(closed_source(chains), workers=2, slots=4))
        monkeypatch.delenv(KILL_SPEC_ENV)
        assert exc.value.indices == [3] and exc.value.retries == 6

    @needs_proc
    def test_parent_sigkill_orphans_exit(self, tmp_path):
        """SIGKILLing the *parent* mid-stream must not strand its shard
        workers: forked siblings close their inherited copies of each
        other's pipe ends on entry (so EOF fires) and the pipe source's
        parent-death watchdog covers the parked case — the workers
        drain and exit."""
        script = tmp_path / "runner.py"
        script.write_text(textwrap.dedent("""
            import multiprocessing
            from repro.chains import square_ring
            from repro.core.admission import QueueSource, feed_queue
            from repro.core.shards import shard_stream
            src = QueueSource()
            feed_queue(src, [square_ring(12) for _ in range(400)])
            for i, _ in enumerate(shard_stream(src, workers=2, slots=4)):
                if i == 0:
                    print(" ".join(str(p.pid) for p in
                                   multiprocessing.active_children()),
                          flush=True)
        """))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            "src")
        proc = subprocess.Popen([sys.executable, str(script)],
                                stdout=subprocess.PIPE, text=True, env=env)
        try:
            pids = [int(p) for p in proc.stdout.readline().split()]
            os.kill(proc.pid, signal.SIGKILL)
        finally:
            proc.wait(timeout=30)
            proc.stdout.close()
        assert len(pids) == 2
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline and any(map(alive, pids)):
            time.sleep(0.25)
        assert not any(map(alive, pids))

    def test_abandoned_stream_stops_workers(self):
        before = {p.pid for p in multiprocessing.active_children()}
        gen = shard_stream(closed_source(mixed_chains(30)), workers=2,
                           slots=8)
        next(gen)
        kids = [p for p in multiprocessing.active_children()
                if p.pid not in before]
        assert len(kids) == 2
        gen.close()                     # consumer walks away mid-stream
        assert not any(p.is_alive() for p in kids)


# ---------------------------------------------------------------------------
# service tier: multi-worker resume, per-shard status, chain sizes
# ---------------------------------------------------------------------------

async def serve_one_by_one(workers, rings):
    """Submit each ring and wait for its frame before the next one."""
    from repro.service.server import GatherService
    svc = GatherService(slots=4, workers=workers)
    await svc.start()
    frames = []
    try:
        reader, writer = await asyncio.open_connection(svc.host, svc.port)
        await reader.readline()                # hello
        for ring in rings:
            writer.write((json.dumps(
                {"op": "submit", "chain": [list(p) for p in ring],
                 "ack": False}) + "\n").encode())
            await writer.drain()
            while True:
                doc = json.loads(await asyncio.wait_for(reader.readline(),
                                                        60))
                if doc.get("status") in ("result", "quarantined"):
                    frames.append(doc)
                    break
        writer.close()
    finally:
        # shutdown must run even when something above fails — an
        # abandoned service wedges asyncio.run() teardown on the parked
        # kernel executor thread and turns the failure into a hang
        svc.begin_shutdown()
        await asyncio.wait_for(svc.wait_finished(), 60)
    return frames


class TestShardService:
    def test_serve_workers_keep_only_service_logs(self, tmp_path):
        """``repro serve --workers 2 --wal D``: the shard workers write
        no log, so D holds the service's own logs and nothing else."""
        from repro.service.client import GatherClient
        wal = tmp_path / "wal"
        src = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "src")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--slots", "4", "--workers", "2", "--wal", str(wal)],
            env={**os.environ, "PYTHONPATH": src}, stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT, text=True)
        try:
            line = proc.stdout.readline()
            assert "serving on" in line, line
            port = int(line.split("(")[0].rsplit(":", 1)[1])

            async def feed():
                cli = await GatherClient.connect("127.0.0.1", port)
                for ring in mixed_chains(6):
                    await cli.submit(ring)
                await cli.drain(timeout=60)
                await cli.shutdown()
                await cli.close()

            asyncio.run(feed())
            assert proc.wait(timeout=60) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=60)
            proc.stdout.close()
        assert sorted(p.name for p in wal.iterdir()) == [
            "intake.jsonl", "results.ndjson", "service.json",
            "submissions.jsonl"]
        rows = (wal / "results.ndjson").read_text().splitlines()
        assert sorted(json.loads(r)["chain"] for r in rows) == list(range(6))

    def test_service_multiworker_resume_restores_shards(self, tmp_path):
        """A killed --workers K --wal service resumes with its full
        shard set (service.json header) and completes the results
        ledger exactly-once from a genuinely partial state."""
        from repro.service.server import GatherService
        wal = tmp_path / "svc"
        wal.mkdir()
        chains = mixed_chains(10)
        # forge the crashed run's durable state: all 10 accepted and
        # taken, only 3 results ledgered before the kill
        with open(wal / "submissions.jsonl", "w") as fh:
            for k, pts in enumerate(chains):
                fh.write(json.dumps(
                    {"k": k, "chain": [list(p) for p in pts]}) + "\n")
        with open(wal / "intake.jsonl", "w") as fh:
            for k in range(10):
                fh.write(json.dumps({"k": k}) + "\n")
        ref = fleet_reference(chains, slots=8)

        def digest(positions):
            flat = [v for p in positions for v in p]
            return zlib.crc32(struct.pack(f"<{len(flat)}q", *flat))

        rows = {k: {"kind": "chain", "chain": k, "quarantined": False,
                    "n": ref[k].initial_n, "final_n": ref[k].final_n,
                    "rounds": ref[k].rounds, "gathered": ref[k].gathered,
                    "rounds_per_robot":
                    round(ref[k].rounds / ref[k].initial_n, 3),
                    "digest": digest(ref[k].final_positions)}
                for k in range(10)}
        with open(wal / "results.ndjson", "w") as fh:
            for k in range(3):
                fh.write(json.dumps(rows[k], separators=(",", ":")) + "\n")
        with open(wal / "service.json", "w") as fh:
            json.dump({"workers": 2, "slots": 8}, fh)

        svc = GatherService(slots=8, workers=1, wal_dir=str(wal),
                            resume=True)

        async def resume():
            await svc.start()
            try:
                assert svc.workers == 2        # restored from the header
            finally:
                svc.begin_shutdown()
                await asyncio.wait_for(svc.wait_finished(), 60)

        asyncio.run(resume())
        assert [r["shard"] for r in
                svc.sim.last_stream_stats["per_shard"]] == [0, 1]
        ledger = [json.loads(l) for l in
                  (wal / "results.ndjson").read_text().splitlines()]
        assert [d["chain"] for d in ledger[:3]] == [0, 1, 2]
        assert sorted(d["chain"] for d in ledger) == list(range(10))
        assert len(ledger) == 10               # exactly-once, no dups
        for d in ledger:
            assert d == rows[d["chain"]]       # bit-identical rows

    def test_status_doc_reports_per_shard(self):
        from repro.service.server import GatherService

        async def main():
            svc = GatherService(slots=8, workers=2)
            await svc.start()
            try:
                reader, writer = await asyncio.open_connection(svc.host,
                                                               svc.port)
                await reader.readline()        # hello
                for pts in mixed_chains(6):
                    writer.write((json.dumps(
                        {"op": "submit", "chain": [list(p) for p in pts],
                         "ack": False}) + "\n").encode())
                await writer.drain()
                got = 0
                while got < 6:
                    doc = json.loads(await asyncio.wait_for(
                        reader.readline(), 60))
                    if doc.get("status") == "result":
                        got += 1
                doc = svc.status_doc()
                assert [r["shard"] for r in doc["per_shard"]] == [0, 1]
                assert sum(r["completed"] for r in doc["per_shard"]) == 6
                assert doc["workers"] == 2
                writer.close()
            finally:
                svc.begin_shutdown()
                await asyncio.wait_for(svc.wait_finished(), 60)

        asyncio.run(main())

    def test_killer_submission_quarantined_alone(self, tmp_path,
                                                 monkeypatch):
        """A submission that kills its shard worker every time comes
        back as the only quarantined frame; every other submission,
        its shard-mates included, gets its ordinary result."""
        from repro.service.server import GatherService
        chains = mixed_chains(8)
        cnt = tmp_path / "kills"
        cnt.write_text("-1")
        monkeypatch.setenv(KILL_SPEC_ENV, f"{cnt}:2")

        async def main():
            svc = GatherService(slots=4, workers=2)
            await svc.start()
            frames = {}
            try:
                reader, writer = await asyncio.open_connection(svc.host,
                                                               svc.port)
                await reader.readline()        # hello
                for pts in chains:
                    writer.write((json.dumps(
                        {"op": "submit", "chain": [list(p) for p in pts],
                         "ack": False}) + "\n").encode())
                await writer.drain()
                while len(frames) < len(chains):
                    doc = json.loads(await asyncio.wait_for(
                        reader.readline(), 60))
                    if doc.get("status") in ("result", "quarantined"):
                        frames[doc["chain"]] = doc
                writer.close()
            finally:
                svc.begin_shutdown()
                await asyncio.wait_for(svc.wait_finished(), 60)
            return frames

        frames = asyncio.run(main())
        assert [k for k, f in sorted(frames.items())
                if f["status"] == "quarantined"] == [2]
        assert (frames[2]["error"], frames[2]["stage"]) == \
            ("WorkerCrashError", "worker")
        ref = fleet_reference(chains, slots=4)
        for k, f in frames.items():
            if k != 2:
                assert (f["rounds"], f["gathered"]) == \
                    (ref[k].rounds, ref[k].gathered)

    def test_late_chain_larger_than_first_burst(self):
        """Regression: shard capacity was once fixed from the first
        intake burst (slots // workers × largest n × 2 cells per
        shard), so a later, larger chain came back quarantined — 156
        robots against 32 cells here — although one worker gathers it
        and --max-chain admits it.  Worker arenas now grow like the
        in-process one."""
        rings = [square_ring(3), square_ring(40)]      # 8, then 156 robots
        sharded = asyncio.run(serve_one_by_one(2, rings))
        single = asyncio.run(serve_one_by_one(1, rings))
        assert [f["status"] for f in sharded] == ["result", "result"]
        assert sharded == single
