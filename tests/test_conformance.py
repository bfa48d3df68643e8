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
every engine and on the fleet's batch and stream paths.  Every
single-segment tier switch of the kernel (merge plan and movement
scatter, decisions) is pinned both ways, and the hypothesis-generated
random and merge-dense chains run on every engine.  The
detector-level equivalence (reference scan vs NumPy scan) rides
along, since the engines' conformance rests on it.
"""

import random

import pytest
from hypothesis import given, settings

from repro.core import engine_fleet
from repro.core.chain import ClosedChain
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


def assert_conformance(pts, engine, max_rounds=4000,
                       check_invariants=True, validate_initial=True):
    """Run one engine in lockstep with the reference; compare every round.

    ``pts`` is a position list or a :class:`ClosedChain`, of which each
    engine gathers its own copy (ids and id space intact).
    """
    def fresh():
        return pts.copy() if isinstance(pts, ClosedChain) else list(pts)

    a = Simulator(fresh(), engine="reference",
                  check_invariants=check_invariants,
                  validate_initial=validate_initial)
    b = Simulator(fresh(), engine=engine,
                  check_invariants=check_invariants,
                  validate_initial=validate_initial)
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


#: Each single-segment tier switch of the kernel forced one way, as
#: (``engine_fleet`` module constant, value).  ``ARRAY_MIN_PATTERNS``
#: picks the merge plan and movement scatter tier, ``NUMPY_MIN_RUNS``
#: the decision (and run advance) tier.
FORCED = {
    "array": ("ARRAY_MIN_PATTERNS", 0),        # fleet array stages
    "chain": ("ARRAY_MIN_PATTERNS", 1 << 30),  # per-chain tier
    "numpy": ("NUMPY_MIN_RUNS", 0),
    "scalar": ("NUMPY_MIN_RUNS", 1 << 30),
}

#: Scenario families every forced tier runs on.
PINNED = ["ring_small", "ring_large", "stairway", "blob", "perturbed",
          "merge_dense", "merge_dense_tall"]


def assert_forced_conformance(tier, pts, **kwargs):
    """Lockstep conformance of the kernel with one tier switch forced.

    A context-managed monkeypatch rather than the fixture, because
    hypothesis rejects function-scoped fixtures in ``@given`` bodies.
    """
    name, value = FORCED[tier]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine_fleet, name, value)
        return assert_conformance(pts, "kernel", **kwargs)


class TestKernelDecisionPaths:
    """The kernel's single-segment tier switches, each pinned both ways."""

    @pytest.mark.parametrize("family", PINNED)
    def test_forced_array(self, family):
        assert_forced_conformance("array", SCENARIOS[family]())

    @pytest.mark.parametrize("family", PINNED)
    def test_forced_chain(self, family):
        assert_forced_conformance("chain", SCENARIOS[family]())

    @pytest.mark.parametrize("family", PINNED)
    def test_forced_numpy(self, family):
        assert_forced_conformance("numpy", SCENARIOS[family]())

    @pytest.mark.parametrize("family", PINNED)
    def test_forced_scalar(self, family):
        assert_forced_conformance("scalar", SCENARIOS[family]())

    @pytest.mark.parametrize("tier", sorted(FORCED))
    @pytest.mark.parametrize("family,rounds", MERGED, ids=lambda v: str(v))
    def test_merged_chains(self, family, rounds, tier):
        assert_forced_conformance(tier, _merged_chain(family, rounds),
                                  validate_initial=False)

    @pytest.mark.parametrize("tier", sorted(FORCED))
    @settings(max_examples=10)
    @given(pts=merge_dense_chain_positions())
    def test_merge_dense_chains(self, tier, pts):
        assert_forced_conformance(tier, pts)

    def test_tier_switches_on_activity(self):
        # crenellation(24, 1, 6) (n=156) starts quiet, runs merge-dense
        # rounds, then quiets down: at the default crossover the merge
        # and movement stages must enter the array tier and leave it
        # again, in lockstep with the reference throughout
        tiers = []
        scatters = []
        fleet_scan = engine_fleet._fleet_merge_candidates
        chain_plan = FleetKernel._merge_plan_single
        apply_moves = engine_fleet.ChainArena.apply_moves

        def array_scan(*args):
            tiers.append("array")
            return fleet_scan(*args)

        def chain_scan(self, k_max):
            tiers.append("chain")
            return chain_plan(self, k_max)

        def arena_scatter(self, *args):
            scatters.append(len(tiers))
            return apply_moves(self, *args)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(engine_fleet, "_fleet_merge_candidates", array_scan)
            mp.setattr(FleetKernel, "_merge_plan_single", chain_scan)
            mp.setattr(engine_fleet.ChainArena, "apply_moves",
                       arena_scatter)
            assert_conformance(crenellation(24, 1, 6), "kernel")
        first = tiers.index("array")
        assert "chain" in tiers[first:]
        # the arena scatter runs exactly on the array-tier rounds
        assert [tiers[k - 1] for k in scatters] == \
            ["array"] * tiers.count("array")


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
