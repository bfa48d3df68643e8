"""Fleet kernel ≡ per-chain kernel engine, chain for chain.

The fleet tier (DESIGN.md §2.10) advances many chains per round in
shared arrays; these tests pin **bit-identical** per-chain results
against running each chain through ``Simulator(engine="kernel")``:
gathered/stalled state, round counts, final positions and full
round-report content (hops, merge records, run starts/terminations
with exact stop reasons, conflict counters) — on generator families,
random blobs, perturbed shapes, hypothesis-generated fleets, fleets
whose members gather in different rounds, and both engines' batches.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.batch import BatchSimulator, gather_batch
from repro.core.engine_fleet import FleetKernel, gather_fleet
from repro.core.simulator import Simulator
from repro.chains import (
    comb, crenellation, perturb, random_chain, serpentine_ring, spiral,
    square_ring, staircase_ring, stairway_octagon,
)

from tests.conftest import closed_chain_positions, merge_dense_chain_positions


def _report_key(report):
    return (report.n_before, report.n_after, report.hops,
            report.merge_patterns, report.merges, report.runs_started,
            report.runs_terminated, report.active_runs,
            report.merge_conflicts, report.runner_hop_conflicts)


def assert_fleet_equals_singles(fleet_pts, max_rounds=None,
                                check_invariants=True):
    """Gather the fleet in shared arrays and each chain alone; compare."""
    singles = [Simulator(list(p), engine="kernel",
                         check_invariants=check_invariants).run(
                             max_rounds=max_rounds)
               for p in fleet_pts]
    results = gather_fleet([list(p) for p in fleet_pts],
                           check_invariants=check_invariants,
                           keep_reports=True, max_rounds=max_rounds)
    assert len(results) == len(singles)
    for i, (s, f) in enumerate(zip(singles, results)):
        assert f.gathered == s.gathered, f"chain {i}"
        assert f.stalled == s.stalled, f"chain {i}"
        assert f.rounds == s.rounds, f"chain {i}"
        assert f.initial_n == s.initial_n, f"chain {i}"
        assert f.final_n == s.final_n, f"chain {i}"
        assert f.final_positions == s.final_positions, f"chain {i}"
        assert len(f.reports) == len(s.reports), f"chain {i}"
        for r, (ra, rb) in enumerate(zip(s.reports, f.reports)):
            assert _report_key(ra) == _report_key(rb), \
                f"chain {i} round {r}"
    return results


class TestFamilies:
    def test_mixed_family_fleet(self):
        # members gather in very different rounds, so the fleet runs
        # long past the first retirements
        assert_fleet_equals_singles([
            square_ring(8), square_ring(16), square_ring(40),
            stairway_octagon(12, 2), comb(4), spiral(1),
            staircase_ring(4), serpentine_ring(3, 10, 4),
        ])

    def test_homogeneous_fleet(self):
        # many identical chains merge in the same rounds — the
        # worst case for the shared contraction/planning stages
        assert_fleet_equals_singles([square_ring(16)] * 12)

    def test_perturbed_and_random(self):
        rng = random.Random(404)
        pts = [perturb(list(square_ring(14)), 10),
               perturb(list(stairway_octagon(8, 2)), 10)]
        pts += [random_chain(50 + 30 * k, rng) for k in range(4)]
        assert_fleet_equals_singles(pts)

    def test_merge_dense_fleet(self):
        # every tooth of every chain spike-merges in the same rounds:
        # the contraction stage folds long runs of simultaneous merge
        # events across many chains (the vectorised survivor pass)
        assert_fleet_equals_singles(
            [crenellation(8, 1, 4)] * 6
            + [crenellation(4, 1, 8), crenellation(12, 1, 3), comb(3)])

    def test_merge_dense_mixed_with_rings(self):
        assert_fleet_equals_singles(
            [crenellation(6, 1, 5), square_ring(16),
             crenellation(3, 1, 9), square_ring(8)])

    def test_single_chain_fleet(self):
        assert_fleet_equals_singles([square_ring(12)])

    def test_single_chain_fleet_merge_dense(self):
        # a fleet of one takes the single-segment tiers (per-chain
        # detector, scalar decisions, chain movement scatter)
        assert_fleet_equals_singles([crenellation(10, 1, 6)])

    def test_empty_fleet(self):
        assert gather_fleet([]) == []

    def test_max_rounds_budget_stalls(self):
        # chains retire by budget, not gathering; reports still match
        assert_fleet_equals_singles([square_ring(20), square_ring(8)],
                                    max_rounds=5)


class TestHypothesisFleets:
    @settings(max_examples=10)
    @given(st.lists(closed_chain_positions(max_cells=25),
                    min_size=2, max_size=5))
    def test_property_fleets(self, fleet_pts):
        assert_fleet_equals_singles(fleet_pts, check_invariants=False)

    @settings(max_examples=10)
    @given(st.lists(merge_dense_chain_positions(max_teeth=6),
                    min_size=2, max_size=4))
    def test_merge_dense_fleets(self, fleet_pts):
        assert_fleet_equals_singles(fleet_pts, check_invariants=False)

    @settings(max_examples=8)
    @given(st.lists(st.one_of(closed_chain_positions(max_cells=20),
                              merge_dense_chain_positions(max_teeth=5)),
                    min_size=2, max_size=4))
    def test_mixed_merge_dense_fleets(self, fleet_pts):
        assert_fleet_equals_singles(fleet_pts, check_invariants=False)


class TestBatchBackend:
    def test_fleet_backend_matches_process(self):
        rng = random.Random(7)
        chains = [random_chain(48, rng) for _ in range(3)]
        a = gather_batch(chains)
        b = gather_batch(chains, engine="reference")
        assert [r.rounds for r in a] == [r.rounds for r in b]
        assert [r.final_positions for r in a] == \
            [r.final_positions for r in b]
        assert [[_report_key(rep) for rep in r.reports] for r in a] == \
            [[_report_key(rep) for rep in r.reports] for r in b]

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            BatchSimulator([square_ring(8)], backend="warp")

    def test_backend_keyword_accepts_only_fleet_and_auto(self):
        # the compatibility keyword selects nothing: "fleet" and "auto"
        # run the same kernel batch, and the retired "process" is refused
        chains = [square_ring(8), square_ring(10)]
        want = [[_report_key(rep) for rep in r.reports]
                for r in gather_batch(chains)]
        for backend in ("fleet", "auto"):
            got = BatchSimulator(chains, engine="kernel",
                                 backend=backend).run()
            assert [[_report_key(rep) for rep in r.reports]
                    for r in got] == want
        with pytest.raises(ValueError):
            BatchSimulator(chains, backend="process")

    def test_workers_shard_the_fleet(self):
        chains = [square_ring(s) for s in (8, 10, 12, 14, 16)]
        serial = gather_batch(chains, workers=1)
        sharded = gather_batch(chains, workers=2)
        assert sharded.workers == 2
        assert [r.rounds for r in serial] == [r.rounds for r in sharded]
        assert [r.final_positions for r in serial] == \
            [r.final_positions for r in sharded]

    def test_keep_reports_false_strips(self):
        batch = gather_batch([square_ring(8)], keep_reports=False)
        assert batch[0].reports == []
        assert batch[0].gathered

    def test_progress_callback(self):
        calls = []
        batch = gather_batch([square_ring(s) for s in (8, 10, 12)],
                             keep_reports=False,
                             progress=lambda done, total:
                             calls.append((done, total)))
        assert batch.all_gathered
        assert calls and calls[-1] == (3, 3)
        assert all(t == 3 for _, t in calls)
        assert [d for d, _ in calls] == sorted(d for d, _ in calls)


class TestFleetKernelDirect:
    def test_validation_enforced(self):
        from repro.errors import ChainError
        with pytest.raises(ChainError):
            FleetKernel([[(0, 0), (1, 0), (1, 1)]])   # odd length

    def test_results_in_input_order(self):
        sizes = (16, 8, 12)
        results = gather_fleet([square_ring(s) for s in sizes])
        assert [r.initial_n for r in results] == [4 * (s - 1) for s in sizes]
