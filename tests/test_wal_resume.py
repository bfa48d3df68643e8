"""Crash/resume determinism for the WAL streaming tier (DESIGN.md §2.12).

The contract under test: SIGKILL a WAL-enabled stream at any point,
resume it from the latest snapshot plus log replay, and the combined
output — every result, every per-round report — is bit-identical to
the uninterrupted run.  Crashes here abandon the generator mid-flight
(the in-process equivalent of process death; the subprocess SIGKILL
variant lives in ``scripts/crash_harness.py`` and CI).
"""

import gc
import json
import os
import random
import warnings

import numpy as np
import pytest

from repro.cli import main
from repro.core.batch import BatchSimulator, gather_stream
from repro.core.engine_fleet import FleetKernel
from repro.core.faults import FaultPlan
from repro.chains import random_chain
from repro.errors import WalError
from repro.io import WalReader, WalWriter

#: Snapshot meta key of the retired decision-tier knob (older WALs).
LEGACY_KEY = "numpy_min_runs"


def _stream_pts(n=60, seed=3):
    rng = random.Random(seed)
    return [random_chain(rng.choice([8, 12, 16, 20]), rng)
            for _ in range(n)]


def _clean_run(pts, slots=8, **kw):
    kernel = FleetKernel([], keep_reports=True)
    return dict(kernel.run_stream(iter(pts), slots=slots, **kw))


def _collect_dedup(results, gen):
    """Drain ``gen`` into ``results``, asserting duplicates re-deliver
    bit-identically (the crash-window contract)."""
    for ext, res in gen:
        if ext in results:
            prev = results[ext]
            assert prev.rounds == res.rounds
            assert prev.final_positions == res.final_positions
        results[ext] = res
    return results


def _wal_fds(wal_dir):
    """This process's open descriptors on ``wal_dir``'s log."""
    log = os.path.realpath(os.path.join(wal_dir, "wal.ndjson"))
    fds = []
    for fd in os.listdir("/proc/self/fd"):
        try:
            if os.readlink(f"/proc/self/fd/{fd}") == log:
                fds.append(fd)
        except OSError:
            pass                         # closed while listing
    return fds


def _assert_same(clean, recovered):
    assert sorted(clean) == sorted(recovered)
    for ext, c in clean.items():
        r = recovered[ext]
        assert r.gathered == c.gathered, f"chain {ext}"
        assert r.stalled == c.stalled, f"chain {ext}"
        assert r.rounds == c.rounds, f"chain {ext}"
        assert r.final_n == c.final_n, f"chain {ext}"
        assert r.final_positions == c.final_positions, f"chain {ext}"
        # RoundReport is a slots dataclass: == is full field equality,
        # so this is the lockstep per-round comparison
        assert r.reports == c.reports, f"chain {ext}"


class TestCrashResume:
    def test_wal_run_matches_no_wal(self, tmp_path):
        pts = _stream_pts(40)
        clean = _clean_run(pts)
        kernel = FleetKernel([], keep_reports=True)
        walled = dict(kernel.run_stream(
            iter(pts), slots=8, wal=WalWriter(str(tmp_path)),
            snapshot_every=16))
        _assert_same(clean, walled)
        types = {r["type"] for r in WalReader(str(tmp_path)).records()}
        assert types == {"stream_start", "snapshot", "admit", "round",
                         "retire", "yield", "stream_end"}

    @pytest.mark.parametrize("cut", [1, 7, 25, 59])
    def test_crash_then_resume_bit_identical(self, cut, tmp_path):
        pts = _stream_pts(60)
        clean = _clean_run(pts)

        kernel = FleetKernel([], keep_reports=True)
        gen = kernel.run_stream(iter(pts), slots=8,
                                wal=WalWriter(str(tmp_path)),
                                snapshot_every=5)
        results = {}
        for _ in range(cut):
            ext, res = next(gen)
            results[ext] = res
        gen.close()                                   # "SIGKILL"

        _, resumed = FleetKernel.restore_stream(str(tmp_path), iter(pts))
        _collect_dedup(results, resumed)
        _assert_same(clean, results)

    def test_legacy_snapshot_meta_key_restores(self, tmp_path):
        # snapshots written while the kernel still had a decision-tier
        # knob carry its meta key; resume ignores the key
        pts = _stream_pts(40)
        clean = _clean_run(pts)
        kernel = FleetKernel([], keep_reports=True)
        gen = kernel.run_stream(iter(pts), slots=8,
                                wal=WalWriter(str(tmp_path)),
                                snapshot_every=5)
        results = {}
        for _ in range(11):
            ext, res = next(gen)
            results[ext] = res
        gen.close()

        reader = WalReader(str(tmp_path))
        path = reader.snapshot_path(reader.last_snapshot())
        with np.load(path) as z:
            arrays = {k: z[k] for k in z.files}
        meta = json.loads(str(arrays["meta"]))
        assert LEGACY_KEY not in meta
        meta[LEGACY_KEY] = None
        arrays["meta"] = np.array(json.dumps(meta))
        with open(path, "wb") as fh:
            np.savez(fh, **arrays)

        _, resumed = FleetKernel.restore_stream(str(tmp_path), iter(pts))
        _collect_dedup(results, resumed)
        _assert_same(clean, results)

    def test_double_crash(self, tmp_path):
        pts = _stream_pts(80, seed=9)
        clean = _clean_run(pts)
        results = {}

        kernel = FleetKernel([], keep_reports=True)
        gen = kernel.run_stream(iter(pts), slots=8,
                                wal=WalWriter(str(tmp_path)),
                                snapshot_every=7)
        for _ in range(13):
            ext, res = next(gen)
            results[ext] = res
        gen.close()

        _, gen = FleetKernel.restore_stream(str(tmp_path), iter(pts))
        for _ in range(9):
            ext, res = next(gen)
            results[ext] = res
        gen.close()

        _, gen = FleetKernel.restore_stream(str(tmp_path), iter(pts))
        _collect_dedup(results, gen)
        _assert_same(clean, results)

    def test_faulty_stream_resumes_identically(self, tmp_path):
        pts = _stream_pts(60, seed=5)
        faults = FaultPlan(seed=7, crash=0.1, perturb=0.2, mutations=3)
        clean = _clean_run(pts, faults=faults)
        assert len(clean) < 60          # some entries crashed out

        kernel = FleetKernel([], keep_reports=True)
        gen = kernel.run_stream(iter(pts), slots=8,
                                wal=WalWriter(str(tmp_path)),
                                snapshot_every=6, faults=faults)
        results = {}
        for _ in range(11):
            ext, res = next(gen)
            results[ext] = res
        gen.close()

        # the fault plan rides in the WAL's stream_start record —
        # restore_stream reconstructs it without being told
        _, gen = FleetKernel.restore_stream(str(tmp_path), iter(pts))
        _collect_dedup(results, gen)
        _assert_same(clean, results)

    def test_resume_reconsumes_iterator_from_cursor(self, tmp_path):
        pts = _stream_pts(30, seed=2)
        kernel = FleetKernel([], keep_reports=True)
        gen = kernel.run_stream(iter(pts), slots=4,
                                wal=WalWriter(str(tmp_path)),
                                snapshot_every=3)
        for _ in range(5):
            next(gen)
        gen.close()

        pulls = 0

        def counting():
            nonlocal pulls
            for p in pts:
                pulls += 1
                yield p

        _, gen = FleetKernel.restore_stream(str(tmp_path), counting())
        list(gen)
        assert pulls == 30              # fast-forward + live tail, no more


class TestResumeErrors:
    def test_resume_empty_log(self, tmp_path):
        # crash before the generator ever ran: nothing to resume
        WalWriter(str(tmp_path)).close()
        with pytest.raises(WalError):
            FleetKernel.restore_stream(str(tmp_path), iter([]))

    def test_resume_without_snapshot(self, tmp_path):
        writer = WalWriter(str(tmp_path))
        writer.append("stream_start", slots=4, snapshot_every=16,
                      max_rounds=None, release=False, params=None,
                      faults=None)
        writer.close()
        with pytest.raises(WalError):
            FleetKernel.restore_stream(str(tmp_path), iter([]))

    def test_resume_with_short_stream(self, tmp_path):
        pts = _stream_pts(20, seed=4)
        kernel = FleetKernel([], keep_reports=True)
        gen = kernel.run_stream(iter(pts), slots=4,
                                wal=WalWriter(str(tmp_path)),
                                snapshot_every=2)
        for _ in range(6):
            next(gen)
        gen.close()
        with pytest.raises(WalError):
            FleetKernel.restore_stream(str(tmp_path), iter(pts[:2]))

    def test_snapshot_every_validated(self, tmp_path):
        kernel = FleetKernel([], keep_reports=False)
        with pytest.raises(ValueError):
            next(kernel.run_stream(iter([]), slots=4, snapshot_every=0))


class TestBatchWiring:
    def test_gather_stream_with_wal(self, tmp_path):
        pts = _stream_pts(25, seed=8)
        clean = list(gather_stream(iter(pts), slots=6))
        walled = list(gather_stream(iter(pts), slots=6,
                                    wal_dir=str(tmp_path)))
        assert [(i, r.rounds, r.final_positions) for i, r in clean] == \
               [(i, r.rounds, r.final_positions) for i, r in walled]

    def test_batch_resume_roundtrip(self, tmp_path):
        pts = _stream_pts(30, seed=6)
        wal_dir = str(tmp_path / "wal")
        sim = BatchSimulator([], engine="kernel")
        gen = sim.run_stream(iter(pts), slots=6, wal_dir=wal_dir,
                             snapshot_every=4)
        results = {}
        for _ in range(7):
            ext, res = next(gen)
            results[ext] = res
        gen.close()

        sim2 = BatchSimulator([], engine="kernel")
        for ext, res in sim2.run_stream(iter(pts), slots=6, wal_dir=wal_dir,
                                        resume=True):
            results.setdefault(ext, res)
        clean = dict(BatchSimulator([], engine="kernel")
                     .run_stream(iter(pts), slots=6))
        assert sorted(results) == sorted(clean)
        for ext in clean:
            assert results[ext].rounds == clean[ext].rounds
            assert results[ext].final_positions == clean[ext].final_positions
        stats = sim2.last_stream_stats
        assert "fault_crashed" in stats and "fault_perturbed" in stats

    def test_wal_multiprocess_keeps_reports(self, tmp_path):
        # the shards ship per-round reports with their results, so a
        # 2-worker WAL stream keeps them, equal to the in-process ones
        pts = _stream_pts(12, seed=9)
        solo = dict(BatchSimulator([], engine="kernel")
                    .run_stream(iter(pts), slots=4))
        sharded = dict(BatchSimulator([], engine="kernel", workers=2)
                       .run_stream(iter(pts), slots=4,
                                   wal_dir=str(tmp_path)))
        assert sorted(sharded) == sorted(solo)
        for ext in solo:
            assert solo[ext].reports
            assert sharded[ext].reports == solo[ext].reports
        assert sorted(p.name for p in tmp_path.iterdir()) == \
            ["shard-0", "shard-1"]

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                        reason="lists descriptors through /proc")
    def test_stream_closes_its_wal(self, tmp_path):
        # fresh and resumed streams, abandoned and exhausted: each
        # closes its log writer when it ends, not the collector
        pts = _stream_pts(24, seed=4)
        sims = []                 # keep the kernels, and their writers

        def stream(wal_dir, resume, steps=None):
            sim = BatchSimulator([], engine="kernel", keep_reports=False)
            sims.append(sim)
            gen = sim.run_stream(iter(pts), slots=4, wal_dir=wal_dir,
                                 snapshot_every=3, resume=resume)
            if steps is None:
                list(gen)
            else:
                for _ in range(steps):
                    next(gen)
                gen.close()
            assert _wal_fds(wal_dir) == []

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            killed = str(tmp_path / "killed")
            stream(killed, resume=False, steps=5)
            stream(killed, resume=True, steps=4)
            stream(killed, resume=True)
            stream(str(tmp_path / "clean"), resume=False)
            del sims[:]
            gc.collect()
        assert not [w for w in caught if "wal.ndjson" in str(w.message)]

    def test_resume_requires_wal_dir(self):
        sim = BatchSimulator([], engine="kernel")
        with pytest.raises(ValueError):
            next(sim.run_stream(iter([]), slots=4, resume=True))

    def test_cli_wal_matches_clean_and_resumes(self, tmp_path, capsys):
        pts = _stream_pts(30, seed=13)
        jl = tmp_path / "chains.jsonl"
        jl.write_text("".join(json.dumps([list(p) for p in c]) + "\n"
                              for c in pts))
        clean = tmp_path / "clean.ndjson"
        assert main(["batch", "--stream", str(jl), "--slots", "6",
                     "--out", str(clean)]) == 0

        # crash a WAL-enabled run mid-stream through the kernel API,
        # leaving a partially-written out file with a torn last line
        wal_dir = tmp_path / "wal"
        kernel = FleetKernel([], keep_reports=False)
        gen = kernel.run_stream(
            (list(p) for p in pts), slots=6,
            wal=WalWriter(str(wal_dir)), snapshot_every=4)
        out = tmp_path / "out.ndjson"
        clean_lines = clean.read_text().splitlines(keepends=True)
        delivered = [ext for _, (ext, _res) in zip(range(7), gen)]
        gen.close()
        by_idx = {json.loads(l)["chain"]: l for l in clean_lines}
        partial = "".join(by_idx[e] for e in delivered[:-1])
        out.write_text(partial + by_idx[delivered[-1]][:-10])  # torn

        assert main(["batch", "--stream", str(jl), "--slots", "6",
                     "--wal", str(wal_dir), "--resume",
                     "--out", str(out)]) == 0
        assert out.read_bytes() == clean.read_bytes()
        capsys.readouterr()

    def test_cli_faults_flag(self, tmp_path, capsys):
        pts = _stream_pts(20, seed=14)
        jl = tmp_path / "chains.jsonl"
        jl.write_text("".join(json.dumps([list(p) for p in c]) + "\n"
                              for c in pts))
        assert main(["batch", "--stream", str(jl), "--slots", "4",
                     "--faults", "seed=3,crash=0.3", "--json"]) == 0
        lines = [json.loads(l) for l in
                 capsys.readouterr().out.strip().splitlines()
                 if l.startswith("{")]
        assert 0 < len(lines) < 20          # some entries crashed out

    def test_cli_flag_validation(self, tmp_path):
        jl = tmp_path / "c.jsonl"
        jl.write_text("")
        with pytest.raises(SystemExit):
            main(["batch", "--stream", str(jl), "--resume"])
        # --wal with --workers is the sharded supervision tier now;
        # only top-level --resume stays single-process
        with pytest.raises(SystemExit):
            main(["batch", "--stream", str(jl), "--wal",
                  str(tmp_path / "w"), "--workers", "2", "--resume"])
        with pytest.raises(SystemExit):
            main(["batch", "--stream", str(jl), "--skip-bad-lines"])
        with pytest.raises(SystemExit):
            main(["batch", "--stream", str(jl), "--faults", "bogus=1"])
        with pytest.raises(SystemExit):
            main(["batch", "--wal", str(tmp_path / "w")])  # needs --stream

    def test_pool_faults_match_inprocess(self):
        pts = _stream_pts(40, seed=12)
        faults = FaultPlan(seed=3, crash=0.15, perturb=0.15)
        solo = dict(BatchSimulator([], engine="kernel")
                    .run_stream(iter(pts), slots=8, faults=faults))
        pool = dict(BatchSimulator([], engine="kernel", workers=2)
                    .run_stream(iter(pts), slots=8, faults=faults))
        assert sorted(solo) == sorted(pool)
        for ext in solo:
            assert solo[ext].rounds == pool[ext].rounds
            assert solo[ext].final_positions == pool[ext].final_positions
