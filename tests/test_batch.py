"""BatchSimulator: fleet gathering, ordering, worker and engine parity."""

import random

import pytest

from repro.core.batch import BatchResult, BatchSimulator, gather_batch
from repro.core.simulator import Simulator, gather
from repro.chains import crenellation, random_chain, square_ring


def _fleet(sizes=(8, 12, 16)):
    return [square_ring(s) for s in sizes]


class TestBatchBasics:
    def test_results_in_input_order(self):
        batch = gather_batch(_fleet())
        assert [r.initial_n for r in batch] == [4 * (s - 1) for s in (8, 12, 16)]
        assert batch.all_gathered
        assert batch.gathered_count == batch.n_chains == 3

    def test_matches_single_simulator(self):
        pts = square_ring(10)
        batch = gather_batch([pts], engine="reference")
        single = gather(list(pts), engine="reference")
        assert batch[0].rounds == single.rounds
        assert batch[0].final_positions == single.final_positions

    def test_engines_agree(self):
        rng = random.Random(7)
        chains = [random_chain(48, rng) for _ in range(3)]
        ref = gather_batch(chains, engine="reference")
        ker = gather_batch(chains, engine="kernel")
        assert [r.rounds for r in ref] == [r.rounds for r in ker]
        assert [r.final_positions for r in ref] == [r.final_positions for r in ker]

    def test_keep_reports_false_strips_reports(self):
        batch = gather_batch(_fleet((8,)), keep_reports=False)
        assert batch[0].reports == []
        assert batch[0].gathered

    def test_aggregates_and_summary(self):
        batch = gather_batch(_fleet())
        assert batch.total_robots == sum(r.initial_n for r in batch)
        assert batch.total_rounds == sum(r.rounds for r in batch)
        assert batch.max_rounds_per_robot > 0
        assert "3/3 gathered" in batch.summary()

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError):
            BatchSimulator(_fleet(), engine="warp")

    def test_bad_workers_rejected(self):
        with pytest.raises(ValueError):
            BatchSimulator(_fleet(), workers=0)

    def test_reference_batch_refuses_workers(self):
        with pytest.raises(ValueError, match="gathers in-process"):
            BatchSimulator(_fleet(), engine="reference", workers=2)
        # one worker is the in-process loop itself
        assert gather_batch(_fleet(), engine="reference",
                            workers=1).all_gathered

    def test_empty_fleet(self):
        batch = gather_batch([])
        assert batch.n_chains == 0
        assert batch.all_gathered            # vacuously

    def test_max_rounds_propagates(self):
        batch = gather_batch([square_ring(20)], max_rounds=1)
        assert not batch[0].gathered
        assert batch[0].rounds == 1


def _result_key(r):
    return (r.gathered, r.stalled, r.rounds, r.initial_n, r.final_n,
            tuple(r.final_positions),
            tuple((rep.round_index, rep.n_before, rep.n_after, rep.hops,
                   rep.runs_started, tuple(sorted(
                       (k.value, v) for k, v in rep.runs_terminated.items())),
                   rep.active_runs, tuple(rep.merges))
                  for rep in r.reports))


class TestBackendDeterminism:
    """Every engine × workers combination is bit-deterministic.

    The simulation itself is deterministic (no RNG inside the round
    pipeline), so kernel batches (in-process fleet or shard
    workers), reference batches and fleet-of-one kernel runs must produce
    identical per-chain results — including full report streams —
    under any ``workers`` sharding, and must not consume or perturb
    the caller's RNG streams.
    """

    FLEET = staticmethod(lambda: (
        [random_chain(40 + 12 * k, random.Random(100 + k)) for k in range(3)]
        + [crenellation(5, 1, 4), square_ring(10)]))

    def test_backends_and_sharding_identical(self):
        chains = self.FLEET()
        combos = [("kernel", 1), ("kernel", 2), ("kernel", 3),
                  ("reference", 1)]
        keys = [_result_key(Simulator(list(c), engine="kernel").run())
                for c in chains]
        for engine, workers in combos:
            batch = gather_batch([list(c) for c in chains], engine=engine,
                                 workers=workers)
            got = [_result_key(r) for r in batch]
            assert got == keys, f"engine={engine} workers={workers}"

    def test_single_chain_auto_is_fleet_of_one(self):
        # the default kernel batch runs one chain as a fleet of one;
        # must equal the reference batch bit for bit
        pts = crenellation(6, 1, 5)
        auto = gather_batch([list(pts)])
        ref = gather_batch([list(pts)], engine="reference")
        assert BatchSimulator([list(pts)]).engine == "kernel"
        assert [_result_key(r) for r in auto] == \
            [_result_key(r) for r in ref]

    def test_rng_streams_untouched(self):
        # gathering must not advance or reseed the global RNG streams
        # (sweeps interleave chain generation with batch runs)
        import numpy as np
        random.seed(0xDEAD)
        np.random.seed(0xBEEF)
        state_py = random.getstate()
        state_np = np.random.get_state()
        for engine, workers in [("kernel", 1), ("kernel", 2),
                                ("reference", 1)]:
            gather_batch(self.FLEET(), engine=engine, workers=workers,
                         keep_reports=False)
        assert random.getstate() == state_py
        fresh = np.random.get_state()
        assert fresh[0] == state_np[0]
        assert (fresh[1] == state_np[1]).all()
        assert fresh[2:] == state_np[2:]

    def test_repeated_runs_identical(self):
        chains = self.FLEET()
        a = gather_batch([list(c) for c in chains])
        b = gather_batch([list(c) for c in chains])
        assert [_result_key(r) for r in a] == [_result_key(r) for r in b]

    def test_stream_matches_batch_any_slots_and_workers(self):
        # the streaming pipeline (bounded arena, mid-run admission,
        # slot reuse) is the same per-chain computation: every slot
        # budget and worker sharding reproduces gather_batch bit for bit
        chains = [list(c) for c in self.FLEET()]
        want = [_result_key(r) for r in gather_batch(chains)]
        for slots, workers in [(1, 1), (2, 1), (len(chains), 1), (2, 2)]:
            sim = BatchSimulator([], engine="kernel", workers=workers)
            got = dict(sim.run_stream(iter(chains), slots=slots))
            assert [_result_key(got[i]) for i in range(len(chains))] \
                == want, f"slots={slots} workers={workers}"

    def test_gather_stream_convenience(self):
        from repro.core.batch import gather_stream
        chains = [list(square_ring(8)), list(crenellation(4, 1, 4))]
        want = [_result_key(r) for r in gather_batch(chains)]
        got = dict(gather_stream(iter(chains), slots=1))
        assert [_result_key(got[i]) for i in range(len(chains))] == want


class TestProcessPool:
    def test_parallel_equals_serial(self):
        chains = _fleet((8, 10, 12, 14))
        serial = gather_batch(chains, workers=1)
        parallel = gather_batch(chains, workers=2)
        assert parallel.workers == 2
        assert [r.rounds for r in serial] == [r.rounds for r in parallel]
        assert [r.final_positions for r in serial] == \
            [r.final_positions for r in parallel]

    def test_workers_capped_by_fleet_size(self):
        batch = gather_batch([square_ring(8)], workers=8)
        assert batch.workers == 1

    def test_worker_kill_recovered(self, tmp_path, monkeypatch):
        # a multi-worker batch runs on the shards: a SIGKILLed worker
        # is respawned and its chains re-fed, so the batch still equals
        # the in-process run bit for bit
        from repro.core.shards import KILL_SPEC_ENV
        chains = _fleet((8, 10, 12, 14))
        serial = gather_batch(chains, workers=1)
        counter = tmp_path / "kills"
        counter.write_text("1")
        monkeypatch.setenv(KILL_SPEC_ENV, f"{counter}:1")
        sim = BatchSimulator(chains, workers=2)
        parallel = sim.run()
        assert [_result_key(r) for r in parallel] == \
            [_result_key(r) for r in serial]
        assert sim.last_stream_stats["respawns"] >= 1
