"""The zero-copy shared-memory shard tier (DESIGN.md §2.16).

Covers the slab primitives (:class:`FleetSlab` region/ledger views,
:meth:`ChainArena.adopt_slots` coherence), the shard scheduler's
conformance guarantee — ``backend="shm"`` is bit-identical to
``backend="fleet"`` per external stream index, under mixed sizes,
faults and quarantine — crash recovery (SIGKILLed shard workers
respawn, salvage their published rows and replay the survivors with
identical results, leaking no ``/dev/shm`` segments), and the service
tier's multi-worker resume (the ``service.json`` header restores the
shard set; the results ledger completes exactly-once).
"""

import glob
import json
import os
import signal
import subprocess
import sys
import textwrap
import time

import numpy as np
import pytest

from repro.chains import square_ring
from repro.core.arena import ChainArena
from repro.core.batch import BatchSimulator, gather_batch
from repro.core.chain import ClosedChain
from repro.core.engine_fleet import FleetKernel
from repro.core.faults import FaultPlan
from repro.core.results import ChainOutcome
from repro.core.shm import FleetSlab, shm_stream
from repro.core.supervisor import KILL_SPEC_ENV
from repro.errors import WorkerCrashError

from tests.test_arena_lifecycle import assert_arena_coherent

SHM_DIR = "/dev/shm"
needs_dev_shm = pytest.mark.skipif(not os.path.isdir(SHM_DIR),
                                   reason="no /dev/shm to scan")


def shm_segments():
    return set(glob.glob(os.path.join(SHM_DIR, "psm_*")))


def mixed_chains(count, invalid_every=0):
    out = []
    for i in range(count):
        if invalid_every and i % invalid_every == invalid_every - 1:
            out.append([(0, 0), (1, 0), (1, 1)])       # odd length: rejected
        else:
            ring = square_ring(3 + i % 4)
            out.append([(x + i, y - i) for x, y in ring])
    return out


def result_key(res):
    if isinstance(res, ChainOutcome):
        return ("outcome", res.index, res.error, res.message, res.stage,
                res.quarantined)
    return (res.gathered, res.stalled, res.rounds, res.initial_n,
            res.final_n, res.final_positions)


def fleet_reference(chains, slots, **kw):
    return dict(FleetKernel([]).run_stream(iter(chains), slots=slots,
                                           release=True, **kw))


# ---------------------------------------------------------------------------
# slab primitives
# ---------------------------------------------------------------------------

class TestFleetSlab:
    def test_regions_disjoint_and_shaped(self):
        slab = FleetSlab(workers=3, cells=32, ring_rows=8)
        try:
            seen = []
            for k in range(3):
                bufs = slab.shard_buffers(k)
                hdr, rows = slab.ledger(k)
                assert bufs["pos"].shape == (33, 2)
                for f in ("codes", "ids", "index", "owner"):
                    assert bufs[f].shape == (32,)
                assert hdr.shape == (4,) and rows.shape == (8, 8)
                bufs["pos"][:] = k
                bufs["codes"][:] = k
                rows[:] = k
                seen.append((bufs, rows))
            # writes to one shard never bleed into another
            for k, (bufs, rows) in enumerate(seen):
                assert (bufs["pos"] == k).all()
                assert (bufs["codes"] == k).all()
                assert (rows == k).all()
        finally:
            slab.close()
            slab.unlink()

    @needs_dev_shm
    def test_attach_sees_creator_writes(self):
        before = shm_segments()
        slab = FleetSlab(workers=2, cells=16, ring_rows=4)
        try:
            slab.shard_buffers(1)["codes"][:] = 7
            other = FleetSlab(workers=2, cells=16, ring_rows=4,
                              name=slab.name)
            assert (other.shard_buffers(1)["codes"] == 7).all()
            other.close()
        finally:
            slab.close()
            slab.unlink()
        assert shm_segments() == before

    def test_adopt_slots_coherent(self):
        slab = FleetSlab(workers=1, cells=128, ring_rows=4)
        try:
            arena = ChainArena([], capacity=128,
                               buffers=slab.shard_buffers(0))
            chains = [ClosedChain([(x + i, y) for x, y in square_ring(3)])
                      for i in range(3)]
            bases, off = [], 0
            for c in chains:
                arr = np.asarray(c.positions_array())
                codes = np.asarray(c.edge_codes())
                arena.pos[off:off + c.n] = arr
                arena.codes[off:off + c.n] = codes
                bases.append(off)
                off += c.n
            cis = arena.adopt_slots(bases, [c.n for c in chains], [0, 0, 0])
            assert len(cis) == 3
            for ci, c, b in zip(cis, chains, bases):
                assert int(arena.base[ci]) == b
                assert arena.chains[ci].positions == c.positions
            assert_arena_coherent(arena)
        finally:
            slab.close()
            slab.unlink()


# ---------------------------------------------------------------------------
# conformance: shm === fleet per stream index
# ---------------------------------------------------------------------------

class TestShmConformance:
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_stream_bit_identical_to_fleet(self, workers):
        chains = mixed_chains(36)
        ref = fleet_reference(chains, slots=12)
        got = dict(shm_stream(iter(chains), workers=workers, slots=12))
        assert set(got) == set(ref)
        for k in ref:
            assert result_key(got[k]) == result_key(ref[k]), f"chain {k}"

    def test_quarantine_and_faults_identical(self):
        chains = mixed_chains(48, invalid_every=9)
        fp = dict(seed=5, crash=0.08, perturb=0.1, mid_crash=0.05,
                  mid_restart=0.05)
        ref = fleet_reference(chains, slots=10, faults=FaultPlan(**fp),
                              on_error="quarantine")
        got = dict(shm_stream(iter(chains), workers=2, slots=10,
                              faults=FaultPlan(**fp),
                              on_error="quarantine"))
        assert set(got) == set(ref)
        for k in ref:
            assert result_key(got[k]) == result_key(ref[k]), f"chain {k}"

    def test_poison_raises_in_strict_mode(self):
        from repro.errors import ChainError
        chains = mixed_chains(12, invalid_every=6)
        with pytest.raises(ChainError):
            list(shm_stream(iter(chains), workers=2, slots=4))

    def test_batch_backend_one_shot(self):
        chains = mixed_chains(20)
        got = BatchSimulator(chains, engine="kernel", backend="shm",
                             workers=2, keep_reports=False).run()
        ref = gather_batch(chains, keep_reports=False)
        assert [result_key(r) for r in got.results] == \
            [result_key(r) for r in ref.results]

    def test_stream_stats_per_shard(self):
        sim = BatchSimulator([], engine="kernel", backend="shm", workers=2,
                             keep_reports=False)
        out = dict(sim.run_stream(iter(mixed_chains(20)), slots=8))
        assert len(out) == 20
        stats = sim.last_stream_stats
        assert stats["workers"] == 2
        shard_rows = stats["per_shard"]
        assert [r["shard"] for r in shard_rows] == [0, 1]
        assert sum(r["completed"] for r in shard_rows) == 20
        assert all(r["chains_per_s"] >= 0 for r in shard_rows)
        assert stats["admitted"] == 20 and stats["respawns"] == 0

    def test_shm_rejects_resume_and_reports(self):
        sim = BatchSimulator([], engine="kernel", backend="shm", workers=2,
                             keep_reports=False)
        with pytest.raises(ValueError, match="resum"):
            list(sim.run_stream((), wal_dir="x", resume=True))
        bad = BatchSimulator([], engine="kernel", backend="shm", workers=2,
                             keep_reports=True)
        with pytest.raises(ValueError, match="keep_reports"):
            list(bad.run_stream(()))
        with pytest.raises(ValueError, match="shard_cells"):
            list(BatchSimulator([], engine="kernel", backend="fleet")
                 .run_stream((), shard_cells=64))

    def test_shm_requires_kernel_engine(self):
        with pytest.raises(ValueError, match="kernel"):
            BatchSimulator([], engine="reference", backend="shm")

    def test_empty_stream(self):
        assert list(shm_stream(iter(()), workers=2, slots=4)) == []


# ---------------------------------------------------------------------------
# crash recovery
# ---------------------------------------------------------------------------

class TestShmCrash:
    @needs_dev_shm
    def test_worker_sigkill_respawns_identical_no_leaks(self, tmp_path,
                                                        monkeypatch):
        before = shm_segments()
        chains = mixed_chains(40)
        cnt = tmp_path / "kills"
        cnt.write_text("2")
        monkeypatch.setenv(KILL_SPEC_ENV, f"{cnt}:9,17")
        stats = {}
        got = dict(shm_stream(iter(chains), workers=2, slots=8,
                              stats=stats))
        monkeypatch.delenv(KILL_SPEC_ENV)
        ref = fleet_reference(chains, slots=8)
        assert set(got) == set(ref)
        for k in ref:
            assert result_key(got[k]) == result_key(ref[k]), f"chain {k}"
        assert stats["respawns"] == 2
        assert shm_segments() == before

    def test_crash_loop_quarantines_shard_residents(self, tmp_path,
                                                    monkeypatch):
        chains = mixed_chains(8)
        cnt = tmp_path / "kills"
        cnt.write_text("-1")           # never disarms: a poison shard
        monkeypatch.setenv(KILL_SPEC_ENV, f"{cnt}:3")
        got = dict(shm_stream(iter(chains), workers=2, slots=4,
                              on_error="quarantine"))
        monkeypatch.delenv(KILL_SPEC_ENV)
        assert set(got) == set(range(8))
        bad = [k for k, r in got.items()
               if isinstance(r, ChainOutcome) and r.quarantined]
        assert 3 in bad
        for k in bad:
            assert got[k].error == "WorkerCrashError"
        for k in set(got) - set(bad):
            assert got[k].gathered

    def test_crash_loop_raises_in_strict_mode(self, tmp_path, monkeypatch):
        chains = mixed_chains(8)
        cnt = tmp_path / "kills"
        cnt.write_text("-1")
        monkeypatch.setenv(KILL_SPEC_ENV, f"{cnt}:3")
        with pytest.raises(WorkerCrashError):
            list(shm_stream(iter(chains), workers=2, slots=4))
        monkeypatch.delenv(KILL_SPEC_ENV)

    @needs_dev_shm
    def test_parent_sigkill_orphans_exit_and_unlink(self, tmp_path):
        """SIGKILLing the *parent* mid-stream must not strand shard
        workers pinning the slab: forked siblings close their
        inherited copies of each other's pipe ends on entry (so EOF
        fires) and the ticket source's parent-death watchdog covers
        the parked case — the workers drain, exit, and the resource
        tracker unlinks the orphaned segment."""
        before = shm_segments()
        script = tmp_path / "runner.py"
        script.write_text(textwrap.dedent("""
            from repro.chains import square_ring
            from repro.core.shm import shm_stream
            chains = [square_ring(12) for _ in range(400)]
            for i, _ in enumerate(shm_stream(iter(chains), workers=2,
                                             slots=4)):
                if i == 0:
                    print("go", flush=True)
        """))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            "src")
        proc = subprocess.Popen([sys.executable, str(script)],
                                stdout=subprocess.PIPE, text=True, env=env)
        try:
            assert proc.stdout.readline().strip() == "go"
            os.kill(proc.pid, signal.SIGKILL)
        finally:
            proc.wait(timeout=30)
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            if shm_segments() <= before:
                break
            time.sleep(0.25)
        assert shm_segments() <= before

    @needs_dev_shm
    def test_abandoned_stream_cleans_up(self):
        before = shm_segments()
        gen = shm_stream(iter(mixed_chains(30)), workers=2, slots=8)
        next(gen)
        gen.close()                     # consumer walks away mid-stream
        assert shm_segments() == before

    def test_per_shard_wals_written(self, tmp_path):
        wal = tmp_path / "wal"
        got = dict(shm_stream(iter(mixed_chains(12)), workers=2, slots=6,
                              wal_dir=str(wal)))
        assert len(got) == 12
        shards = sorted(p.name for p in wal.iterdir())
        assert shards == ["shard-0", "shard-1"]
        for s in shards:
            assert (wal / s / "wal.ndjson").exists()


# ---------------------------------------------------------------------------
# service tier: multi-worker resume + per-shard status
# ---------------------------------------------------------------------------

class TestShmService:
    def _run(self, coro):
        import asyncio
        return asyncio.run(coro)

    def test_service_multiworker_resume_restores_shards(self, tmp_path):
        """A killed --workers K --wal service resumes with its full
        shard set (service.json header) and completes the results
        ledger exactly-once from a genuinely partial state."""
        import asyncio
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
        rows = {k: {"chain": k, "n": ref[k].initial_n,
                    "rounds": ref[k].rounds, "gathered": ref[k].gathered,
                    "rounds_per_robot":
                    round(ref[k].rounds / ref[k].initial_n, 3)}
                for k in range(10)}
        with open(wal / "results.ndjson", "w") as fh:
            for k in range(3):
                fh.write(json.dumps(rows[k], separators=(",", ":")) + "\n")
        with open(wal / "service.json", "w") as fh:
            json.dump({"workers": 2, "slots": 8}, fh)

        async def resume():
            svc = GatherService(slots=8, workers=1, wal_dir=str(wal),
                                resume=True)
            await svc.start()
            try:
                assert svc.workers == 2        # restored from the header
                assert svc.sim.backend == "shm"
            finally:
                # shut down even on assertion failure: an abandoned
                # service wedges asyncio.run() teardown on the kernel
                # executor thread and turns the failure into a hang
                svc.begin_shutdown()
                await asyncio.wait_for(svc.wait_finished(), 60)

        self._run(resume())
        ledger = [json.loads(l) for l in open(wal / "results.ndjson")]
        assert [d["chain"] for d in ledger[:3]] == [0, 1, 2]
        assert sorted(d["chain"] for d in ledger) == list(range(10))
        assert len(ledger) == 10               # exactly-once, no dups
        for d in ledger:
            assert d == rows[d["chain"]]       # bit-identical rows

    def test_status_doc_reports_per_shard(self):
        import asyncio
        from repro.service.server import GatherService

        async def main():
            svc = GatherService(slots=8, workers=2)
            await svc.start()
            try:
                reader, writer = await asyncio.open_connection(svc.host,
                                                               svc.port)
                await reader.readline()        # hello
                for i, pts in enumerate(mixed_chains(6)):
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
                # shutdown must run even when an assert above fails —
                # otherwise asyncio.run() teardown joins the parked
                # kernel executor thread forever and the failure
                # presents as a suite hang
                svc.begin_shutdown()
                await asyncio.wait_for(svc.wait_finished(), 60)

        self._run(main())
