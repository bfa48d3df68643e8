"""Cross-engine differential conformance suite.

One parametrized harness replacing the scattered per-engine
equivalence tests: every engine variant runs every scenario family in
lockstep with the reference engine and must produce **bit-identical**
rounds — positions, ids, full :class:`RoundReport` content (hops,
merge records, run starts/terminations with exact stop reasons,
conflict counters) and the live run-registry states themselves.

Families: rings, stairways, serpentines, blobs, perturbed shapes,
merge-dense crenellations/combs, and mid-gathering snapshots (states
captured partway through a reference gathering, restarted under every
engine) — both as fresh position lists and as the reference's own
chain objects, whose merged robots leave gaps in the id space, on
every engine and on the fleet's batch and stream paths.  Both kernel
decision paths (adaptive scalar and forced NumPy) are exercised, as
are the hypothesis-generated random and merge-dense chains.  The
detector-level equivalence (reference scan vs NumPy scan) rides
along, since the engines' conformance rests on it.
"""

import random

import pytest
from hypothesis import given, settings

from repro.core.engine_fleet import FleetKernel, gather_fleet
from repro.core.engine_vectorized import find_merge_patterns_np
from repro.core.patterns import find_merge_patterns
from repro.core.runs import RunRegistry
from repro.core.simulator import ENGINES, Simulator
from repro.chains import (
    comb,
    crenellation,
    needle,
    perturb,
    random_chain,
    serpentine_ring,
    spiral,
    square_ring,
    staircase_ring,
    stairway_octagon,
)

from tests.conftest import closed_chain_positions, merge_dense_chain_positions

#: Engines measured against the reference implementation.
VARIANT_ENGINES = [e for e in ENGINES if e != "reference"]

#: Scenario families (deterministic generators so every engine sees
#: the identical chain and failures reproduce).
SCENARIOS = {
    "ring_small": lambda: square_ring(16),
    "ring_large": lambda: square_ring(40),
    "stairway": lambda: stairway_octagon(12, 2),
    "staircase": lambda: staircase_ring(4),
    "serpentine": lambda: serpentine_ring(3, 10, 4),
    "comb": lambda: comb(4),
    "spiral": lambda: spiral(1),
    "blob": lambda: random_chain(110, random.Random(1234)),
    "perturbed": lambda: perturb(list(square_ring(14)), 10,
                                 random.Random(99)),
    "merge_dense": lambda: crenellation(12, 1, 6),
    "merge_dense_tall": lambda: crenellation(6, 1, 10),
}

#: (family, round) pairs for the mid-gathering snapshot states: deep
#: enough that runs, merges and travels are in flight, shallow enough
#: that the chain is still far from gathered.
MID_GATHERING = [("ring_large", 5), ("stairway", 8), ("merge_dense", 2),
                 ("blob", 3)]

#: (family, round) pairs whose reference chain has merged robots by
#: then: it keeps the survivors' ids, so its ids are no longer 0..n-1
#: and its id space (``_next_id``) exceeds its length.
MERGED = [("merge_dense", 1), ("merge_dense_tall", 1), ("ring_large", 17),
          ("blob", 1)]


def _registry_state(registry: RunRegistry):
    return sorted(
        (r.robot_id, r.direction, r.mode.value, r.target_id,
         r.travel_steps_left, r.axis)
        for r in registry.active_runs())


def _report_key(report):
    return (report.n_before, report.n_after, report.hops,
            report.merge_patterns, report.merges, report.runs_started,
            report.runs_terminated, report.active_runs,
            report.merge_conflicts, report.runner_hop_conflicts)


def assert_conformance(pts, engine, max_rounds=4000, numpy_min_runs=None,
                       check_invariants=True, validate_initial=True):
    """Run one engine in lockstep with the reference; compare every round."""
    a = Simulator(list(pts), engine="reference",
                  check_invariants=check_invariants,
                  validate_initial=validate_initial)
    b = Simulator(list(pts), engine=engine,
                  check_invariants=check_invariants,
                  validate_initial=validate_initial)
    if numpy_min_runs is not None:
        b.engine.numpy_min_runs = numpy_min_runs
    for i in range(max_rounds):
        if a.is_gathered() and b.is_gathered():
            break
        ra = a.step()
        rb = b.step()
        assert a.chain.positions == b.chain.positions, f"round {i}"
        assert a.chain.ids == b.chain.ids, f"round {i}"
        assert _report_key(ra) == _report_key(rb), f"round {i}"
        assert _registry_state(a.engine.registry) == \
            _registry_state(b.engine.registry), f"round {i}"
    assert a.is_gathered() and b.is_gathered()
    return a.round_index


def _mid_state(family, rounds):
    """Positions of a family chain after ``rounds`` reference rounds."""
    sim = Simulator(list(SCENARIOS[family]()), engine="reference",
                    check_invariants=False)
    for _ in range(rounds):
        if sim.is_gathered():
            break
        sim.step()
    return sim.chain.positions


def _merged_chain(family, rounds):
    """The reference engine's own chain after ``rounds`` rounds."""
    sim = Simulator(list(SCENARIOS[family]()), engine="reference",
                    check_invariants=False)
    for _ in range(rounds):
        sim.step()
    chain = sim.chain
    assert chain.n < chain._next_id and not sim.is_gathered()
    return chain


def _result_key(res):
    return (res.gathered, res.stalled, res.rounds, res.initial_n,
            res.final_n, res.final_positions,
            [_report_key(r) for r in res.reports])


def _reference_outcome(chain):
    """(result key, final ids) of the reference gathering a copy."""
    sim = Simulator(chain.copy(), engine="reference",
                    check_invariants=False, validate_initial=False)
    return _result_key(sim.run()), sim.chain.ids


class TestScenarioFamilies:
    @pytest.mark.parametrize("engine", VARIANT_ENGINES)
    @pytest.mark.parametrize("family", sorted(SCENARIOS))
    def test_lockstep(self, family, engine):
        assert_conformance(SCENARIOS[family](), engine)

    @pytest.mark.parametrize("engine", VARIANT_ENGINES)
    @pytest.mark.parametrize("family,rounds", MID_GATHERING,
                             ids=lambda v: str(v))
    def test_mid_gathering_snapshots(self, family, rounds, engine):
        # mid-gathering states need not satisfy the paper's initial
        # assumptions; every engine must accept and continue them
        pts = _mid_state(family, rounds)
        assert_conformance(pts, engine, validate_initial=False)

    def test_full_run_equivalence_all_engines(self):
        pts = square_ring(20)
        results = [Simulator(list(pts), engine=e,
                             check_invariants=False).run()
                   for e in ENGINES]
        assert len({r.rounds for r in results}) == 1
        assert len({tuple(r.final_positions) for r in results}) == 1


class TestMergedChains:
    """Chains whose robots have merged, gathered from the chain object.

    Every engine and fleet path adopts a ``copy()`` of the chain (ids
    and id space intact) and must finish exactly like the reference:
    rounds, final positions, final ids and every report.
    """

    @pytest.mark.parametrize("engine", VARIANT_ENGINES)
    @pytest.mark.parametrize("family,rounds", MERGED, ids=lambda v: str(v))
    def test_engines(self, family, rounds, engine):
        chain = _merged_chain(family, rounds)
        ref = _reference_outcome(chain)
        sim = Simulator(chain.copy(), engine=engine, check_invariants=True,
                        validate_initial=False)
        assert (_result_key(sim.run()), sim.chain.ids) == ref

    def test_gather_fleet(self):
        chains = [_merged_chain(f, r) for f, r in MERGED]
        copies = [c.copy() for c in chains]
        results = gather_fleet(copies, check_invariants=True,
                               validate_initial=False)
        for chain, copy, res in zip(chains, copies, results):
            assert (_result_key(res), copy.ids) == _reference_outcome(chain)

    def test_run_stream_payloads(self):
        # two slots for four chains: later chains land in recycled rows
        chains = [_merged_chain(f, r) for f, r in MERGED]
        copies = [c.copy() for c in chains]
        kernel = FleetKernel([], check_invariants=True,
                             validate_initial=False)
        got = dict(kernel.run_stream(iter(copies), slots=2))
        assert sorted(got) == list(range(len(chains)))
        for i, chain in enumerate(chains):
            assert (_result_key(got[i]), copies[i].ids) == \
                _reference_outcome(chain)


class TestKernelDecisionPaths:
    """The kernel's adaptive scalar/NumPy crossover, pinned both ways."""

    @pytest.mark.parametrize("family", ["ring_small", "merge_dense",
                                        "stairway"])
    def test_forced_numpy(self, family):
        assert_conformance(SCENARIOS[family](), "kernel", numpy_min_runs=0)

    @pytest.mark.parametrize("family", ["ring_small", "merge_dense"])
    def test_forced_scalar(self, family):
        assert_conformance(SCENARIOS[family](), "kernel",
                           numpy_min_runs=1 << 30)


class TestPropertyConformance:
    @pytest.mark.parametrize("engine", VARIANT_ENGINES)
    @settings(max_examples=15)
    @given(pts=closed_chain_positions(max_cells=30))
    def test_random_chains(self, engine, pts):
        assert_conformance(pts, engine, check_invariants=False)

    @pytest.mark.parametrize("engine", VARIANT_ENGINES)
    @settings(max_examples=15)
    @given(pts=merge_dense_chain_positions())
    def test_merge_dense_chains(self, engine, pts):
        assert_conformance(pts, engine, check_invariants=False)

    @settings(max_examples=10)
    @given(pts=merge_dense_chain_positions())
    def test_merge_dense_forced_numpy(self, pts):
        assert_conformance(pts, "kernel", check_invariants=False,
                           numpy_min_runs=0)


class TestDetectorConformance:
    """Reference vs NumPy merge detector, pattern for pattern."""

    @staticmethod
    def _normalize(patterns):
        return sorted((p.first_black, p.k, p.direction) for p in patterns)

    @pytest.mark.parametrize("k_max", [1, 2, 3, 10])
    @pytest.mark.parametrize("pts", [
        square_ring(8), square_ring(16), needle(12), comb(3),
        crenellation(4), stairway_octagon(8, 2), spiral(1),
    ], ids=["sq8", "sq16", "needle", "comb", "cren", "oct", "spiral"])
    def test_families(self, pts, k_max):
        assert self._normalize(find_merge_patterns(pts, k_max)) == \
            self._normalize(find_merge_patterns_np(pts, k_max))

    @given(closed_chain_positions(max_cells=35))
    def test_random_chains(self, pts):
        for k_max in (2, 10):
            assert self._normalize(find_merge_patterns(pts, k_max)) == \
                self._normalize(find_merge_patterns_np(pts, k_max))

    @given(merge_dense_chain_positions())
    def test_merge_dense_chains(self, pts):
        for k_max in (1, 10):
            assert self._normalize(find_merge_patterns(pts, k_max)) == \
                self._normalize(find_merge_patterns_np(pts, k_max))

    def test_tiny_chains(self):
        for pts in ([(0, 0), (1, 0)], [(0, 0), (1, 0), (1, 1), (0, 1)]):
            assert self._normalize(find_merge_patterns(pts, 10)) == \
                self._normalize(find_merge_patterns_np(pts, 10))
