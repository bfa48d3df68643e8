"""The supervision tier (DESIGN.md §2.13): crash recovery + quarantine.

Worker kills, poison chains, mid-run robot faults and intake
corruption must never abort a supervised stream, and the surviving
good chains must be *bit-identical* (wall time excepted) to an
unfaulted run — property-tested here with real SIGKILLed shard workers
via the REPRO_KILL_SPEC hook.  A supervised stream is
``BatchSimulator.run_stream(on_error="quarantine")`` consumed through a
:class:`~repro.core.results.ResultLedger`, as ``repro batch --stream
--dead-letter`` consumes it.
"""

import dataclasses
import json
import os

import pytest
from hypothesis import given, settings, strategies as st

from repro.chains import random_chain, square_ring
from repro.core.batch import BatchSimulator
from repro.core.engine_fleet import FleetKernel
from repro.core.faults import FaultPlan
from repro.core.results import ChainOutcome, ResultLedger
from repro.core.shards import KILL_SPEC_ENV, shard_stream
from repro.errors import (
    InvariantViolation,
    QuarantinedChainError,
    WorkerCrashError,
)

import random


def canon(result) -> str:
    """The result's fields, final positions included, as canonical JSON
    (wall time, the one nondeterministic field, left out)."""
    return json.dumps({
        "gathered": result.gathered, "rounds": result.rounds,
        "initial_n": result.initial_n, "final_n": result.final_n,
        "final_positions": [list(p) for p in result.final_positions],
        "stalled": result.stalled,
        "params": dataclasses.asdict(result.params)}, sort_keys=True)


def ring_stream(count, seed=7):
    rng = random.Random(seed)
    return [random_chain(rng.choice([8, 12, 16]), rng=rng)
            for _ in range(count)]


POISON = [(0, 0), (1, 0)]          # fails closed-chain validation


def supervised(chains, workers=1, check_invariants=False, dead_letter=None,
               **stream):
    """Run ``chains`` with ``on_error="quarantine"`` through a ledger;
    return the :class:`ChainOutcome` of every index, the stream stats
    and the ledger."""
    sim = BatchSimulator([], workers=workers, keep_reports=False,
                         check_invariants=check_invariants)
    outs = {}
    with ResultLedger(dead_letter=dead_letter) as ledger:
        for idx, payload in sim.run_stream(chains, on_error="quarantine",
                                           **stream):
            ledger.write(idx, payload)
            outs[idx] = (payload if isinstance(payload, ChainOutcome)
                         else ChainOutcome(index=idx, result=payload))
    return outs, sim.last_stream_stats, ledger


@pytest.fixture
def baseline():
    chains = ring_stream(24)
    ref = {i: canon(o.result)
           for i, o in supervised(chains, slots=6)[0].items()}
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
        outs, _, ledger = supervised(chains[:10] + [POISON] + chains[10:],
                                     slots=6, dead_letter=str(dl))
        assert len(outs) == len(chains) + 1
        bad = outs[10]
        assert bad.quarantined and bad.error == "ChainError" \
            and bad.stage == "admit"
        # the dead letter carries the same structured record
        docs = [json.loads(line) for line in dl.read_text().splitlines()]
        assert docs == [bad.to_doc()]
        assert ledger.quarantined == 1
        # survivors shift by one stream position past the poison entry
        for i, o in outs.items():
            if o.ok:
                assert canon(o.result) == ref[i if i < 10 else i - 1]

    def test_admit_quarantine_reports_progress(self):
        # a pass whose only delivery is an admit-stage quarantine calls
        # progress at once, not after the ring beside it retires
        calls = []
        fleet = FleetKernel([])
        got = list(fleet.run_stream(
            [square_ring(8), POISON], slots=2, on_error="quarantine",
            progress=lambda done, total: calls.append((done, total))))
        assert [i for i, _ in got] == [1, 0]
        assert calls == [(1, 2), (2, 2)]

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
        outs, _, _ = supervised(chains, slots=6, check_invariants=True)
        bad = [o for o in outs.values() if not o.ok]
        assert len(bad) == 1 and bad[0].error == "InvariantViolation" \
            and bad[0].stage == "round"
        for i, o in outs.items():
            if o.ok:
                assert canon(o.result) == ref[i]

    def test_dead_letter_accumulates(self, tmp_path):
        path = str(tmp_path / "dl.ndjson")
        with ResultLedger(dead_letter=path) as dl:
            dl.bad_line(4, "x", "!")
            dl.write(1, ChainOutcome(index=1, error="E", quarantined=True))
        with ResultLedger(dead_letter=path) as dl2:
            dl2.bad_line(9, "y", "?")
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
        outs, stats, _ = supervised(chains, slots=6, faults=plan)
        crashed = {i for i, o in outs.items() if o.error == "FaultCrash"}
        # a fault only fires while its chain is still running: a chain
        # that gathers before the trigger round retires untouched
        expect_crash = set()
        for i in range(len(chains)):
            kind, trig = plan.decide_mid(i) or ("", 0)
            if kind == "mid_crash" and trig < json.loads(ref[i])["rounds"]:
                expect_crash.add(i)
        assert crashed == expect_crash
        assert stats["mid_crashed"] == len(crashed)
        assert stats["mid_restarted"] > 0
        # restarted chains still finish (their rounds differ from ref)
        assert all(o.ok for i, o in outs.items() if i not in crashed)
        # untouched chains stay bit-identical
        for i, o in outs.items():
            if o.ok and plan.decide_mid(i) is None:
                assert canon(o.result) == ref[i]

    def test_mid_faults_identical_across_pool(self, baseline):
        chains, _ = baseline
        plan = FaultPlan(seed=5, mid_crash=0.1, mid_restart=0.2, window=4)
        solo = {i: (o.error, o.ok and canon(o.result)) for i, o in
                supervised(chains, slots=6, faults=plan)[0].items()}
        sharded = {i: (o.error, o.ok and canon(o.result)) for i, o in
                   supervised(chains, workers=2, slots=6,
                              faults=plan)[0].items()}
        assert solo == sharded


class TestIntakeFaults:
    def test_perturb_selected_poison_quarantines_on_every_scheduler(self):
        # one intake-fault policy: an invalid entry that the plan picks
        # for perturbation is validated before it is mutated, so it
        # quarantines at admit in-process and on the shards, fed a
        # list or a source, instead of aborting the stream
        from repro.core.admission import QueueSource, feed_queue
        stream = [square_ring(4), POISON, square_ring(5)]
        plan = FaultPlan(seed=3, perturb=1.0)

        def outcomes(workers, chains):
            outs, _, _ = supervised(chains, workers=workers, slots=4,
                                    faults=plan)
            return {i: (o.error, o.message, o.stage,
                        o.ok and canon(o.result))
                    for i, o in outs.items()}

        solo = outcomes(1, stream)
        assert sorted(solo) == [0, 1, 2]
        assert solo[1][:3] == ("ChainError",
                               "initial closed chain needs n >= 4, got 2",
                               "admit")
        assert solo[0][3] and solo[2][3]
        assert outcomes(2, stream) == solo            # a finite list
        source = QueueSource()
        feed_queue(source, stream)
        assert outcomes(2, source) == solo            # an admission source


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
        ref = {i: canon(o.result)
               for i, o in supervised(chains, slots=8)[0].items()}
        target = seed % len(chains)
        tmp = pathlib.Path(tempfile.mkdtemp(prefix="sup-kill-"))
        self._arm(tmp, kills, target)
        try:
            outs, stats, _ = supervised(chains, workers=2, slots=8,
                                        wal_dir=str(tmp / "wal"))
        finally:
            os.environ.pop(KILL_SPEC_ENV, None)
        assert stats["respawns"] >= 1             # the hook really fired
        assert sorted(outs) == list(range(len(chains)))
        assert all(o.ok for o in outs.values())
        assert {i: canon(o.result) for i, o in outs.items()} == ref

    def test_poison_worker_isolated_then_quarantined(self, tmp_path):
        chains = ring_stream(12)
        ref = {i: canon(o.result)
               for i, o in supervised(chains, slots=4)[0].items()}
        self._arm(tmp_path, -1, 5)                # never disarms
        outs, stats, _ = supervised(chains, workers=2, slots=4)
        bad = {i for i, o in outs.items() if not o.ok}
        assert bad == {5}
        assert outs[5].error == "WorkerCrashError" \
            and outs[5].stage == "worker"
        assert stats["quarantined"] == 1
        for i, o in outs.items():
            if o.ok:
                assert canon(o.result) == ref[i]

    def test_raise_mode_surfaces_worker_crash(self, tmp_path):
        chains = ring_stream(8)
        self._arm(tmp_path, -1, 3)
        with pytest.raises(WorkerCrashError) as exc:
            list(shard_stream(chains, workers=2, slots=4))
        assert 3 in exc.value.indices

    def test_pool_poison_chain_quarantined(self, tmp_path, baseline):
        chains, ref = baseline
        dl = tmp_path / "dead.ndjson"
        outs, _, _ = supervised(chains[:6] + [POISON] + chains[6:],
                                workers=2, slots=8, dead_letter=str(dl))
        assert not outs[6].ok and outs[6].stage == "admit"
        assert len([o for o in outs.values() if o.ok]) == len(chains)
        docs = [json.loads(line) for line in dl.read_text().splitlines()]
        assert docs[0]["chain"] == 6


class TestShardedWalRestrictions:
    def test_top_level_resume_single_process_only(self):
        from repro.core.batch import BatchSimulator
        sim = BatchSimulator([], engine="kernel", workers=2)
        with pytest.raises(ValueError):
            list(sim.run_stream(ring_stream(2), slots=2, wal_dir="/tmp/x",
                                resume=True))

    def test_shard_dirs_created_per_worker(self, tmp_path):
        wal = tmp_path / "wal"
        outs, _, _ = supervised(ring_stream(10), workers=2, slots=4,
                                wal_dir=str(wal))
        assert len(outs) == 10 and all(o.ok for o in outs.values())
        shards = sorted(p.name for p in wal.iterdir())
        assert shards == ["shard-0", "shard-1"]
