"""The supervision tier (DESIGN.md §2.13): crash recovery + quarantine.

Worker kills, poison chains, mid-run robot faults and intake
corruption must never abort a supervised stream, and the surviving
good chains must be *bit-identical* (wall time excepted) to an
unfaulted run — property-tested here with real SIGKILLed pool workers
via the REPRO_KILL_SPEC hook.
"""

import json
import os

import pytest
from hypothesis import given, settings, strategies as st

from repro.chains import random_chain, square_ring
from repro.core.engine_fleet import FleetKernel
from repro.core.faults import FaultPlan
from repro.core.results import ChainOutcome
from repro.core.supervisor import (
    KILL_SPEC_ENV,
    DeadLetterWriter,
    StreamSupervisor,
    pool_stream,
    supervise_stream,
)
from repro.errors import (
    InvariantViolation,
    QuarantinedChainError,
    WorkerCrashError,
)
from repro.io.serialization import result_to_json

import random


def canon(result) -> str:
    """Serialized result with the one nondeterministic field zeroed."""
    doc = json.loads(result_to_json(result))
    doc["wall_time"] = 0.0
    return json.dumps(doc, sort_keys=True)


def ring_stream(count, seed=7):
    rng = random.Random(seed)
    return [random_chain(rng.choice([8, 12, 16]), rng=rng)
            for _ in range(count)]


POISON = [(0, 0), (1, 0)]          # fails closed-chain validation


@pytest.fixture
def baseline():
    chains = ring_stream(24)
    ref = {o.index: canon(o.result)
           for o in StreamSupervisor(slots=6).run(chains)}
    return chains, ref


class TestChainOutcome:
    def test_ok_unwrap_roundtrip(self):
        from repro.core.simulator import gather
        res = gather(square_ring(8))
        out = ChainOutcome(index=3, result=res)
        assert out.ok and out.unwrap() is res
        doc = out.to_doc()
        assert doc["chain"] == 3 and not doc["quarantined"]

    def test_error_unwrap_raises(self):
        out = ChainOutcome(index=9, error="ChainError", message="bad",
                           stage="admit", quarantined=True)
        assert not out.ok
        with pytest.raises(QuarantinedChainError) as exc:
            out.unwrap()
        assert exc.value.index == 9
        back = ChainOutcome.from_doc(out.to_doc())
        assert back.error == "ChainError" and back.stage == "admit"


class TestQuarantineInProcess:
    def test_poison_admission_quarantined(self, tmp_path, baseline):
        chains, ref = baseline
        dl = tmp_path / "dead.ndjson"
        sup = StreamSupervisor(slots=6, dead_letter=str(dl))
        outs = {o.index: o for o in
                sup.run(chains[:10] + [POISON] + chains[10:])}
        assert len(outs) == len(chains) + 1
        bad = outs[10]
        assert bad.quarantined and bad.error == "ChainError" \
            and bad.stage == "admit"
        # the dead letter carries the same structured record
        docs = [json.loads(line) for line in dl.read_text().splitlines()]
        assert docs == [bad.to_doc()]
        assert sup.stats["quarantined_total"] == 1
        # survivors shift by one stream position past the poison entry
        for i, o in outs.items():
            if o.ok:
                assert canon(o.result) == ref[i if i < 10 else i - 1]

    def test_strict_mode_still_raises(self):
        from repro.errors import ChainError
        fleet = FleetKernel([])
        with pytest.raises(ChainError):
            list(fleet.run_stream([POISON], slots=2))

    def test_invariant_violation_quarantined(self, monkeypatch, baseline):
        chains, ref = baseline
        real = FleetKernel._check_invariants
        tripped = []

        def boom(self, *args, **kwargs):
            if self.round_index == 3 and not tripped:
                tripped.append(True)
                exc = InvariantViolation("planted violation")
                exc.chain_index = int(self.arena.live_indices()[0])
                raise exc
            return real(self, *args, **kwargs)

        monkeypatch.setattr(FleetKernel, "_check_invariants", boom)
        sup = StreamSupervisor(slots=6, check_invariants=True)
        outs = {o.index: o for o in sup.run(chains)}
        bad = [o for o in outs.values() if not o.ok]
        assert len(bad) == 1 and bad[0].error == "InvariantViolation" \
            and bad[0].stage == "round"
        for i, o in outs.items():
            if o.ok:
                assert canon(o.result) == ref[i]

    def test_dead_letter_accumulates(self, tmp_path):
        dl = DeadLetterWriter(str(tmp_path / "dl.ndjson"))
        dl.write({"kind": "bad-line", "line": 4, "error": "x", "raw": "!"})
        dl.write_outcome(ChainOutcome(index=1, error="E", quarantined=True))
        dl.close()
        dl2 = DeadLetterWriter(str(tmp_path / "dl.ndjson"))
        dl2.write({"kind": "bad-line", "line": 9, "error": "y", "raw": "?"})
        dl2.close()
        lines = (tmp_path / "dl.ndjson").read_text().splitlines()
        assert len(lines) == 3 and json.loads(lines[0])["line"] == 4


class TestMidRunFaults:
    def test_decide_mid_deterministic_and_windowed(self):
        plan = FaultPlan(seed=3, mid_crash=0.2, mid_restart=0.3, window=5)
        fates = [plan.decide_mid(i) for i in range(200)]
        assert fates == [plan.decide_mid(i) for i in range(200)]
        kinds = {f[0] for f in fates if f}
        assert kinds == {"mid_crash", "mid_restart"}
        assert all(1 <= f[1] <= 5 for f in fates if f)

    def test_mid_crash_quarantines_mid_restart_degrades(self, baseline):
        chains, ref = baseline
        plan = FaultPlan(seed=10, mid_crash=0.15, mid_restart=0.15, window=4)
        sup = StreamSupervisor(slots=6, faults=plan)
        outs = {o.index: o for o in sup.run(chains)}
        crashed = {i for i, o in outs.items() if o.error == "FaultCrash"}
        # a fault only fires while its chain is still running: a chain
        # that gathers before the trigger round retires untouched
        expect_crash = set()
        for i in range(len(chains)):
            kind, trig = plan.decide_mid(i) or ("", 0)
            if kind == "mid_crash" and trig < json.loads(ref[i])["rounds"]:
                expect_crash.add(i)
        assert crashed == expect_crash
        assert sup.stats["mid_crashed"] == len(crashed)
        assert sup.stats["mid_restarted"] > 0
        # restarted chains still finish (their rounds differ from ref)
        assert all(o.ok for i, o in outs.items() if i not in crashed)
        # untouched chains stay bit-identical
        for i, o in outs.items():
            if o.ok and plan.decide_mid(i) is None:
                assert canon(o.result) == ref[i]

    def test_mid_faults_identical_across_pool(self, baseline):
        chains, _ = baseline
        plan = FaultPlan(seed=5, mid_crash=0.1, mid_restart=0.2, window=4)
        solo = {o.index: (o.error, o.ok and canon(o.result))
                for o in StreamSupervisor(slots=6, faults=plan).run(chains)}
        pooled = {o.index: (o.error, o.ok and canon(o.result))
                  for o in StreamSupervisor(slots=6, workers=2,
                                            faults=plan).run(chains)}
        assert solo == pooled


class TestIntakeFaults:
    def test_perturb_selected_poison_quarantines_on_every_scheduler(self):
        # one intake-fault policy: an invalid entry that the plan picks
        # for perturbation is validated before it is mutated, so it
        # quarantines at admit in-process, on the pool and on the
        # shards alike instead of aborting the stream
        from repro.core.admission import QueueSource, feed_queue
        stream = [square_ring(4), POISON, square_ring(5)]
        plan = FaultPlan(seed=3, perturb=1.0)

        def outcomes(workers, chains):
            sup = StreamSupervisor(slots=4, workers=workers, faults=plan)
            return {o.index: (o.error, o.message, o.stage,
                              o.ok and canon(o.result))
                    for o in sup.run(chains)}

        solo = outcomes(1, stream)
        assert sorted(solo) == [0, 1, 2]
        assert solo[1][:3] == ("ChainError",
                               "initial closed chain needs n >= 4, got 2",
                               "admit")
        assert solo[0][3] and solo[2][3]
        assert outcomes(2, stream) == solo            # the supervised pool
        source = QueueSource()
        feed_queue(source, stream)
        assert outcomes(2, source) == solo            # the shard tier


class TestSupervisedPool:
    def _arm(self, tmp_path, count, *indices):
        counter = tmp_path / "kills"
        counter.write_text(str(count))
        os.environ[KILL_SPEC_ENV] = \
            f"{counter}:{','.join(str(i) for i in indices)}"

    def teardown_method(self, method):
        os.environ.pop(KILL_SPEC_ENV, None)

    @settings(max_examples=3, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10),
           kills=st.integers(min_value=1, max_value=2))
    def test_worker_kills_bit_identical(self, seed, kills):
        import pathlib
        import tempfile
        chains = ring_stream(16, seed=seed)
        ref = {o.index: canon(o.result)
               for o in StreamSupervisor(slots=8).run(chains)}
        target = seed % len(chains)
        tmp = pathlib.Path(tempfile.mkdtemp(prefix="sup-kill-"))
        self._arm(tmp, kills, target)
        try:
            sup = StreamSupervisor(slots=8, workers=2, backoff=0.01,
                                   wal_dir=str(tmp / "wal"))
            outs = {o.index: o for o in sup.run(chains)}
        finally:
            os.environ.pop(KILL_SPEC_ENV, None)
        assert sup.stats["worker_crashes"] >= 1   # the hook really fired
        assert sorted(outs) == list(range(len(chains)))
        assert all(o.ok for o in outs.values())
        assert {i: canon(o.result) for i, o in outs.items()} == ref

    def test_poison_worker_isolated_then_quarantined(self, tmp_path):
        chains = ring_stream(12)
        ref = {o.index: canon(o.result)
               for o in StreamSupervisor(slots=4).run(chains)}
        self._arm(tmp_path, -1, 5)                # never disarms
        sup = StreamSupervisor(slots=4, workers=2, max_retries=1,
                               backoff=0.01)
        outs = {o.index: o for o in sup.run(chains)}
        bad = {i for i, o in outs.items() if not o.ok}
        assert bad == {5}
        assert outs[5].error == "WorkerCrashError" \
            and outs[5].stage == "worker"
        assert sup.stats["quarantined_worker"] == 1
        for i, o in outs.items():
            if o.ok:
                assert canon(o.result) == ref[i]

    def test_raise_mode_surfaces_worker_crash(self, tmp_path):
        chains = ring_stream(8)
        self._arm(tmp_path, -1, 3)
        with pytest.raises(WorkerCrashError) as exc:
            list(pool_stream(chains, workers=2, slots=4, max_retries=0,
                             backoff=0.01))
        assert 3 in exc.value.indices

    def test_submit_to_broken_pool_recovers(self, monkeypatch, baseline):
        # a worker can die between the last wait and the next submit:
        # the submit itself then raises BrokenProcessPool, which must be
        # absorbed like any worker death, not abort the stream
        import concurrent.futures as cf
        chains, ref = baseline
        broke = []

        class BreaksOnce(cf.ProcessPoolExecutor):
            def submit(self, *args, **kwargs):
                if not broke:
                    broke.append(True)
                    raise cf.process.BrokenProcessPool("worker died")
                return super().submit(*args, **kwargs)

        monkeypatch.setattr(cf, "ProcessPoolExecutor", BreaksOnce)
        sup = StreamSupervisor(slots=6, workers=2, backoff=0.01)
        outs = {o.index: o for o in sup.run(chains)}
        assert sup.stats["worker_crashes"] == 1
        assert {i: canon(o.result) for i, o in outs.items()} == ref

    def test_pool_poison_chain_quarantined(self, tmp_path, baseline):
        chains, ref = baseline
        dl = tmp_path / "dead.ndjson"
        outs = {o.index: o for o in supervise_stream(
            chains[:6] + [POISON] + chains[6:], slots=8, workers=2,
            dead_letter=str(dl))}
        assert not outs[6].ok and outs[6].stage == "admit"
        assert len([o for o in outs.values() if o.ok]) == len(chains)
        docs = [json.loads(line) for line in dl.read_text().splitlines()]
        assert docs[0]["chain"] == 6


class TestShardedWalRestrictions:
    def test_pool_wal_with_reports_rejected(self):
        from repro.core.batch import BatchSimulator
        sim = BatchSimulator([], engine="kernel", workers=2,
                             keep_reports=True)
        with pytest.raises(ValueError):
            list(sim.run_stream(ring_stream(2), slots=2, wal_dir="/tmp/x"))

    def test_top_level_resume_single_process_only(self):
        from repro.core.batch import BatchSimulator
        sim = BatchSimulator([], engine="kernel", workers=2)
        with pytest.raises(ValueError):
            list(sim.run_stream(ring_stream(2), slots=2, wal_dir="/tmp/x",
                                resume=True))

    def test_shard_dirs_created_per_worker(self, tmp_path):
        wal = tmp_path / "wal"
        outs = {o.index: o for o in supervise_stream(
            ring_stream(10), slots=4, workers=2, wal_dir=str(wal))}
        assert len(outs) == 10 and all(o.ok for o in outs.values())
        shards = sorted(p.name for p in wal.iterdir())
        assert shards == ["shard-0", "shard-1"]
        assert (wal / "shard-0" / "results.ndjson").exists()
