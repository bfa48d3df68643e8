"""Arena slot lifecycle and the streaming fleet scheduler.

The streaming tier (DESIGN.md §2.11) turns the arena's fixed segments
into reclaimable slots: :meth:`ChainArena.retire_batch` returns slots
to a coalescing free list, :meth:`ChainArena.reserve_batch` best-fit
packs incoming chains into holes (landed by
:meth:`ChainArena.attach_batch`), and :meth:`ChainArena.compact`
re-bases the live slots when fragmentation blocks a fit.  These tests
drive random retire → reclaim → admit → compact cycles and assert the
arena's structural invariants — fleet-unique robot keys, coherent
owner/id/index tables, coherent topology arrays — plus the scheduler
property that matters most: chains admitted mid-run through
``FleetKernel.run_stream`` produce **bit-identical** per-chain
``RoundReport`` streams to ``Simulator(engine="kernel")``.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.arena import ChainArena, ScratchPool
from repro.core.batch import BatchSimulator, gather_batch, gather_stream
from repro.core.chain import ClosedChain
from repro.core.engine_fleet import FleetKernel
from repro.core.runs import RunRegistry
from repro.core.simulator import Simulator
from repro.chains import crenellation, random_chain, square_ring

from tests.conftest import closed_chain_positions


# ---------------------------------------------------------------------------
# batched-intake helpers and coherence assertions
# ---------------------------------------------------------------------------

def admit(arena: ChainArena, chain: ClosedChain) -> int:
    """Admit one chain through the batched intake, adopted in place.

    Returns its row, or -1 when no hole fits (the caller may compact
    or grow and retry).
    """
    got = arena.reserve_batch([chain._next_id])
    if not got:
        return -1
    arena.attach_batch(got, [chain._arr], [chain.edge_codes()],
                       [chain._invalid_edges], [chain])
    return got[0]


def arena_of(chains, capacity: int = 0) -> ChainArena:
    """An arena holding ``chains`` back to back, in order (plus any
    spare ``capacity``), as a kernel's constructor lays out its
    members."""
    arena = ChainArena(max(capacity, sum(c._next_id for c in chains)))
    for chain in chains:
        admit(arena, chain)
    return arena


def assert_arena_coherent(arena: ChainArena) -> None:
    """Structural invariants of the slot lifecycle.

    Live slots are disjoint and exactly ``n0`` cells; the owner table
    maps every live cell to its chain; ids are unique per chain with an
    exact id → index table, so ``base + robot_id`` keys are
    fleet-unique; chain views alias the arena buffers; free holes are
    sorted, disjoint from the slots, coalesced, and account for every
    unoccupied cell.
    """
    live = arena.live_indices()
    claimed = np.zeros(arena.span, dtype=bool)
    keys = set()
    for ci in live.tolist():
        b = int(arena.base[ci])
        n0 = int(arena.n0[ci])
        n = int(arena.length[ci])
        assert 0 < n <= n0
        assert not claimed[b:b + n0].any(), "overlapping slots"
        claimed[b:b + n0] = True
        assert (arena.owner[b:b + n0] == ci).all()
        chain = arena.chains[ci]
        assert chain.n == n
        assert np.shares_memory(chain._arr, arena.pos)
        ids = arena.ids[b:b + n].tolist()
        assert len(set(ids)) == n, "duplicate robot ids in slot"
        assert all(0 <= rid < n0 for rid in ids)
        for k, rid in enumerate(ids):
            assert arena.index[b + rid] == k
            key = b + rid
            assert key not in keys, "fleet robot key collision"
            keys.add(key)
        # removed ids resolve to -1
        for rid in set(range(n0)) - set(ids):
            assert arena.index[b + rid] == -1
    # retired rows all sit on the recycling list, exactly once
    assert sorted(arena.free_ids) == [ci for ci in range(len(arena.chains))
                                      if not arena.live[ci]]
    # free holes: sorted, coalesced, disjoint from slots, complete
    prev_end = None
    free_cells = 0
    for off, size in arena.free:
        assert size > 0
        assert not claimed[off:off + size].any(), "hole overlaps a slot"
        claimed[off:off + size] = True
        if prev_end is not None:
            assert off > prev_end, "free list not coalesced/sorted"
        prev_end = off + size
        free_cells += size
    assert free_cells == arena.free_cells
    assert arena.live_cells == int(arena.n0[live].sum())
    # topology arrays: one entry per live robot, cyclic and chain-closed
    cells, cell_chain, prev_pos, next_pos = arena.topology()
    assert len(cells) == int(arena.length[live].sum())
    idx = np.arange(len(cells))
    assert (next_pos[prev_pos] == idx).all()
    assert (prev_pos[next_pos] == idx).all()
    assert (cell_chain[prev_pos] == cell_chain).all()
    assert (arena.owner[cells] == cell_chain).all()


def _report_key(report):
    return (report.round_index, report.n_before, report.n_after, report.hops,
            report.merge_patterns, report.merges, report.runs_started,
            report.runs_terminated, report.active_runs,
            report.merge_conflicts, report.runner_hop_conflicts)


def _result_key(res):
    return (res.gathered, res.stalled, res.rounds, res.initial_n,
            res.final_n, res.final_positions,
            [_report_key(r) for r in res.reports])


def assert_stream_equals_singles(fleet_pts, slots, max_rounds=None,
                                 check_invariants=True, workers=None):
    """Stream the chains through a bounded arena; compare each result
    against its own ``Simulator(engine="kernel")`` run."""
    singles = [Simulator(list(p), engine="kernel",
                         check_invariants=check_invariants).run(
                             max_rounds=max_rounds)
               for p in fleet_pts]
    sim = BatchSimulator([], engine="kernel",
                         check_invariants=check_invariants,
                         keep_reports=True, workers=workers)
    got = dict(sim.run_stream([list(p) for p in fleet_pts], slots=slots,
                              max_rounds=max_rounds))
    assert sorted(got) == list(range(len(fleet_pts)))
    for i, s in enumerate(singles):
        assert _result_key(got[i]) == _result_key(s), f"chain {i}"
    return sim


# ---------------------------------------------------------------------------
# scratch pool
# ---------------------------------------------------------------------------

class TestScratchPool:
    def test_reuse_and_fill(self):
        pool = ScratchPool()
        a = pool.take("mask", 64, bool, fill=False)
        a[:] = True
        b = pool.take("mask", 64, bool, fill=False)
        assert b is not None and not b.any()        # refilled
        assert np.shares_memory(a, b)               # same storage
        c = pool.take("mask", 32, bool, fill=False)
        assert len(c) == 32 and np.shares_memory(b, c)

    def test_distinct_tags_distinct_buffers(self):
        pool = ScratchPool()
        a = pool.take("a", 16, np.int64, fill=0)
        b = pool.take("b", 16, np.int64, fill=7)
        assert not np.shares_memory(a, b)
        assert (b == 7).all() and (a == 0).all()

    def test_growth(self):
        pool = ScratchPool()
        a = pool.take("m", 8, np.int64, fill=1)
        b = pool.take("m", 1024, np.int64, fill=2)
        assert len(b) == 1024 and (b == 2).all()
        assert not np.shares_memory(a, b)


# ---------------------------------------------------------------------------
# slot lifecycle (direct arena driving)
# ---------------------------------------------------------------------------

class TestSlotLifecycle:
    def test_retire_reclaims_and_admit_reuses(self):
        chains = [ClosedChain(square_ring(8)) for _ in range(4)]
        arena = arena_of(chains)
        n = chains[0].n
        base1 = int(arena.base[1])
        assert arena.free_cells == 0
        arena.retire_batch([1])
        assert arena.free_cells == n
        ci = admit(arena, ClosedChain(square_ring(8)))
        assert ci == 1                      # row recycled, tables bounded
        assert int(arena.base[ci]) == base1  # slot reused
        assert arena.free_cells == 0
        assert len(arena.chains) == 4
        assert_arena_coherent(arena)

    def test_best_fit_prefers_smallest_hole(self):
        chains = [ClosedChain(square_ring(20)),   # big slot
                  ClosedChain(square_ring(6)),    # keeper between holes
                  ClosedChain(square_ring(8)),    # small slot
                  ClosedChain(square_ring(6))]
        arena = arena_of(chains)
        arena.retire_batch([0])
        arena.retire_batch([2])  # two non-adjacent holes
        assert len(arena.free) == 2
        small = ClosedChain(square_ring(8))
        ci = admit(arena, small)
        assert int(arena.base[ci]) == int(arena.base[2]),  \
            "best fit must pick the smaller hole"
        assert_arena_coherent(arena)

    def test_free_list_coalesces(self):
        chains = [ClosedChain(square_ring(8)) for _ in range(3)]
        arena = arena_of(chains)
        arena.retire_batch([0])
        arena.retire_batch([2])
        assert len(arena.free) == 2
        arena.retire_batch([1])  # bridges both neighbours
        assert len(arena.free) == 1
        assert arena.free[0] == (0, arena.span)

    def test_admit_returns_minus_one_when_fragmented(self):
        chains = [ClosedChain(square_ring(8)) for _ in range(4)]
        arena = arena_of(chains)
        arena.retire_batch([0])
        arena.retire_batch([2])  # two disjoint small holes
        big = ClosedChain(square_ring(14))
        assert big.n > chains[0].n
        assert admit(arena, big) == -1
        if arena.free_cells >= big.n:
            arena.compact()
            assert admit(arena, big) >= 0
        assert_arena_coherent(arena)

    def test_compact_rebases_and_repoints(self):
        chains = [ClosedChain(square_ring(8)) for _ in range(5)]
        arena = arena_of(chains)
        positions = {ci: arena.chains[ci].positions for ci in (1, 3, 4)}
        arena.retire_batch([0])
        arena.retire_batch([2])
        reclaimed = arena.compact()
        assert reclaimed >= 0
        assert len(arena.free) == 1
        # slots packed into the prefix, content preserved, views live
        assert int(arena.base[1]) == 0
        for ci, pos in positions.items():
            assert arena.chains[ci].positions == pos
        assert_arena_coherent(arena)

    def test_grow_preserves_content(self):
        chains = [ClosedChain(square_ring(8)) for _ in range(2)]
        arena = arena_of(chains)
        before = [c.positions for c in chains]
        old_span = arena.span
        arena.grow(old_span * 3)
        assert arena.span == old_span * 3
        assert [c.positions for c in arena.chains] == before
        assert_arena_coherent(arena)
        # the new tail is a single admissible hole
        ci = admit(arena, ClosedChain(square_ring(8)))
        assert ci == 2
        assert_arena_coherent(arena)

    def test_empty_chain_needs_no_hole(self):
        # a chain with no robots lands even when no cell is free:
        # compacting or growing cannot make room for zero cells, so an
        # intake that waited for a hole would spin forever
        kernel = FleetKernel([ClosedChain([], validate=False)],
                             validate_initial=False)
        assert kernel.arena.span == 0 and kernel.arena.n_live == 1
        arena = arena_of([ClosedChain(square_ring(3))])
        assert arena.free_cells == 0
        assert admit(arena, ClosedChain([], validate=False)) == 1
        assert int(arena.n0[1]) == 0 and arena.free_cells == 0

    def test_kernel_admit_grows_past_fragmented_free_space(self):
        # free space smaller than the incoming chain *and* fragmented:
        # the kernel's grow target must leave a tail hole that fits the
        # chain on its own
        kernel = FleetKernel([square_ring(6), square_ring(6),
                              square_ring(6)], validate_initial=False)
        kernel.arena.retire_batch([0])
        kernel.arena.retire_batch([2])  # two disjoint 20-cell holes
        big = ClosedChain(square_ring(20))  # n = 76 > free total
        assert kernel.arena.free_cells < big.n
        (ci,), _ = kernel._admit_batch([(3, big)], None, False)
        assert ci >= 0
        assert kernel.stream_stats["grows"] == 1
        assert_arena_coherent(kernel.arena)

    def test_capacity_preprovisions_free_space(self):
        chains = [ClosedChain(square_ring(8))]
        arena = arena_of(chains, capacity=chains[0].n * 4)
        assert arena.free_cells == chains[0].n * 3
        assert_arena_coherent(arena)

    @settings(max_examples=20, deadline=None)
    @given(st.data())
    def test_random_lifecycle_cycles(self, data):
        """Random retire → reclaim → admit → compact cycles stay coherent."""
        rng_seed = data.draw(st.integers(0, 2 ** 16))
        rng = random.Random(rng_seed)
        sizes = [6, 8, 10, 14]
        arena = arena_of([ClosedChain(square_ring(rng.choice(sizes)))
                          for _ in range(data.draw(st.integers(1, 5)))])
        live = set(range(len(arena.chains)))
        ops = data.draw(st.lists(
            st.sampled_from(["retire", "admit", "compact", "grow"]),
            min_size=1, max_size=25))
        for op in ops:
            if op == "retire" and live:
                ci = rng.choice(sorted(live))
                live.discard(ci)
                arena.retire_batch([ci])
            elif op == "admit":
                chain = ClosedChain(square_ring(rng.choice(sizes)))
                ci = admit(arena, chain)
                if ci < 0 and arena.free_cells >= chain.n:
                    arena.compact()
                    ci = admit(arena, chain)
                if ci < 0:
                    arena.grow(arena.span + chain.n)
                    ci = admit(arena, chain)
                assert ci >= 0
                live.add(ci)
            elif op == "compact":
                arena.compact()
            elif op == "grow":
                arena.grow(arena.span + rng.choice(sizes))
            assert_arena_coherent(arena)
        assert sorted(live) == arena.live_indices().tolist()


# ---------------------------------------------------------------------------
# registry row compaction
# ---------------------------------------------------------------------------

class TestRegistryCompaction:
    def test_compact_rows_preserves_relative_age(self):
        reg = RunRegistry()
        reg.keep_stopped = False
        for k in range(8):
            reg.start(robot_id=k, direction=1 if k % 2 else -1,
                      axis=(1, 0), round_index=0)
        reg.stop_slot(0, 1, 1)
        reg.stop_slot(3, 1, 1)
        reg.stop_slot(4, 1, 1)
        survivors = [int(reg.robot[rid]) for rid in reg._active]
        dirs = [int(reg.dirn[rid]) for rid in reg._active]
        reg.compact_rows()
        assert reg._active == [0, 1, 2, 3, 4]
        assert reg._count == 5
        assert [int(reg.robot[rid]) for rid in reg._active] == survivors
        assert [int(reg.dirn[rid]) for rid in reg._active] == dirs

    def test_compact_rows_shrinks_matrix(self):
        reg = RunRegistry()
        reg.keep_stopped = False
        for k in range(300):
            reg.start_fleet_bulk(np.array([[0, k, 1, 1, 1, 0]]), 0)
        slots = reg.active_slots()
        reg.stop_slots(slots[:-2], np.ones(len(slots) - 2, np.int64), 1)
        assert len(reg._data) >= 300
        reg.compact_rows()
        assert reg._count == 2
        assert len(reg._data) < 300

    def test_compact_rows_refuses_with_stopped_views(self):
        reg = RunRegistry()                 # keep_stopped defaults True
        reg.start(0, 1, (1, 0), 0)
        with pytest.raises(ValueError):
            reg.compact_rows()


# ---------------------------------------------------------------------------
# streaming scheduler: bit-identical admissions
# ---------------------------------------------------------------------------

class TestStreamingEquivalence:
    def test_mixed_stream_small_slots(self):
        # members retire in very different rounds, so admissions land
        # at staggered birth phases relative to the start interval
        pts = [square_ring(8), square_ring(16), crenellation(5, 1, 4),
               square_ring(24), crenellation(3, 1, 8), square_ring(10),
               square_ring(12), crenellation(8, 1, 3)]
        sim = assert_stream_equals_singles(pts, slots=3)
        stats = sim.last_stream_stats
        assert stats["peak_live_chains"] <= 3
        assert stats["admitted"] == len(pts)

    def test_stream_matches_gather_batch(self):
        rng = random.Random(11)
        pts = [random_chain(40 + 10 * k, rng) for k in range(6)]
        batch = gather_batch([list(p) for p in pts], keep_reports=True)
        got = dict(gather_stream([list(p) for p in pts], slots=2,
                                 keep_reports=True))
        for i, b in enumerate(batch):
            assert _result_key(got[i]) == _result_key(b)

    def test_budget_stalls_stream(self):
        pts = [square_ring(20), square_ring(8), square_ring(16)]
        assert_stream_equals_singles(pts, slots=2, max_rounds=5)

    def test_slots_one_serialises(self):
        pts = [square_ring(8), crenellation(4, 1, 4), square_ring(12)]
        sim = assert_stream_equals_singles(pts, slots=1)
        assert sim.last_stream_stats["peak_live_chains"] == 1

    def test_uniform_stream_spans_slot_budget(self):
        # uniform chains: one provisioning grow to slots × n cells,
        # perfect slot recycling afterwards — the bounded-memory claim
        n_chains, slots = 40, 8
        sim = BatchSimulator([], engine="kernel", keep_reports=False)
        results = list(sim.run_stream(
            (square_ring(10) for _ in range(n_chains)), slots=slots))
        assert len(results) == n_chains
        stats = sim.last_stream_stats
        n = len(square_ring(10))
        assert stats["peak_live_chains"] <= slots
        assert stats["peak_cells"] <= slots * n
        assert stats["arena_span"] <= slots * n
        assert stats["grows"] <= 1

    def test_long_stream_bounds_registry(self):
        kernel = FleetKernel([], keep_reports=False, validate_initial=False)
        total = 0
        for _ci, res in kernel.run_stream(
                (square_ring(12) for _ in range(300)), slots=8,
                release=True):
            total += 1
            assert res.gathered
        assert total == 300
        # row recycling kept the registry matrix *and* the per-chain
        # tables bounded by the live fleet, not by chains ever admitted
        assert len(kernel.registry._data) < 4096
        assert len(kernel.arena.chains) <= 8
        assert len(kernel.reports) <= 8
        assert kernel.stream_stats["admitted"] == 300

    def test_workers_round_robin_identical(self):
        pts = [square_ring(8 + 2 * (k % 6)) for k in range(12)] \
            + [crenellation(4, 1, 4)] * 3
        sim = assert_stream_equals_singles(pts, slots=4, workers=2)
        assert sim.last_stream_stats["workers"] == 2

    def test_constructor_chains_run_ahead_of_stream(self):
        head = [square_ring(8), square_ring(12)]
        tail = [square_ring(16), crenellation(3, 1, 5)]
        singles = [Simulator(list(p), engine="kernel").run()
                   for p in head + tail]
        sim = BatchSimulator([list(p) for p in head], engine="kernel",
                             keep_reports=True)
        got = dict(sim.run_stream([list(p) for p in tail], slots=2))
        for i, s in enumerate(singles):
            assert _result_key(got[i]) == _result_key(s)

    def test_max_rounds_cap_does_not_leak_across_runs(self):
        # a capped stream must not poison later admissions or a later
        # uncapped run with its cap (budgets stay the params' bounds)
        kernel = FleetKernel([], validate_initial=False)
        capped = list(kernel.run_stream([list(square_ring(20))], slots=1,
                                        max_rounds=2))
        assert capped[0][1].stalled and capped[0][1].rounds == 2
        uncapped = dict(kernel.run_stream([list(square_ring(20))], slots=1))
        single = Simulator(list(square_ring(20)), engine="kernel").run()
        assert uncapped[1].gathered
        assert uncapped[1].rounds == single.rounds

    def test_empty_stream(self):
        sim = BatchSimulator([], engine="kernel")
        assert list(sim.run_stream((), slots=4)) == []

    def test_stream_requires_fleet_backend(self):
        sim = BatchSimulator([], engine="reference")
        with pytest.raises(ValueError):
            list(sim.run_stream([square_ring(8)], slots=2))

    def test_invalid_slots(self):
        kernel = FleetKernel([])
        with pytest.raises(ValueError):
            list(kernel.run_stream([square_ring(8)], slots=0))
        sim = BatchSimulator([], engine="kernel", workers=2)
        with pytest.raises(ValueError):       # shard path validates too
            list(sim.run_stream([square_ring(8)], slots=0))

    def test_pool_honours_total_slot_budget(self):
        # slots < workers must not multiply residency to one per
        # worker: the shards shrink to `slots` workers instead
        pts = [square_ring(8 + 2 * (k % 4)) for k in range(8)]
        singles = [Simulator(list(p), engine="kernel").run() for p in pts]
        sim = BatchSimulator([], engine="kernel", workers=4)
        got = dict(sim.run_stream([list(p) for p in pts], slots=2))
        assert sim.last_stream_stats["workers"] == 2
        for i, s in enumerate(singles):
            assert _result_key(got[i]) == _result_key(s)

    def test_progress_reports_unknown_total(self):
        calls = []
        sim = BatchSimulator([], engine="kernel", keep_reports=False)
        list(sim.run_stream([square_ring(8) for _ in range(5)], slots=2,
                            progress=lambda d, t: calls.append((d, t))))
        assert calls and calls[-1] == (5, 5)   # total == chains submitted,
        assert all(t in (-1, 5) for _, t in calls)  # not peak rows
        assert all(d1 <= d2 for (d1, _), (d2, _)
                   in zip(calls, calls[1:]))

    @settings(max_examples=8, deadline=None)
    @given(st.lists(closed_chain_positions(max_cells=20),
                    min_size=2, max_size=6),
           st.integers(min_value=1, max_value=3))
    def test_property_streams(self, fleet_pts, slots):
        assert_stream_equals_singles(fleet_pts, slots=slots,
                                     check_invariants=True)


# ---------------------------------------------------------------------------
# incremental topology (DESIGN.md §2.14)
# ---------------------------------------------------------------------------

class TestIncrementalTopology:
    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def test_random_ops_match_reference(self, data):
        """Random retire/admit/move/contract/compact/grow sequences:
        the delta-maintained arrays equal a from-scratch rebuild after
        every single operation."""
        rng = random.Random(data.draw(st.integers(0, 2 ** 16)))
        sizes = [6, 8, 10, 14]
        arena = arena_of([ClosedChain(square_ring(rng.choice(sizes)))
                          for _ in range(data.draw(st.integers(2, 5)))])
        arena.topology()               # materialise the maintained state
        live = set(range(len(arena.chains)))
        ops = data.draw(st.lists(
            st.sampled_from(["retire", "admit", "move", "contract",
                             "compact", "grow", "read"]),
            min_size=1, max_size=30))
        for op in ops:
            if op == "retire" and live:
                ci = rng.choice(sorted(live))
                live.discard(ci)
                arena.retire_batch([ci])
            elif op == "admit":
                chain = ClosedChain(square_ring(rng.choice(sizes)))
                ci = admit(arena, chain)
                if ci < 0:
                    arena.grow(arena.span + chain.n)
                    ci = admit(arena, chain)
                live.add(ci)
            elif op == "move" and live:
                # robots moving never touches the topology arrays
                ci = rng.choice(sorted(live))
                b, n = int(arena.base[ci]), int(arena.length[ci])
                arena.pos[b:b + n] += rng.choice([-1, 1])
            elif op == "contract" and live:
                # shrink like the contraction stage: lengths drop
                # first, then one topo_contract covers every row
                cis = [ci for ci in sorted(live)
                       if int(arena.length[ci]) >= 6
                       and rng.random() < 0.5]
                if not cis:
                    continue
                for ci in cis:
                    arena.length[ci] -= 2
                arena.topo_contract(np.array(cis, dtype=np.int64))
            elif op == "compact":
                arena.compact()
            elif op == "grow":
                arena.grow(arena.span + rng.choice(sizes))
            elif op == "read":
                arena.topology()       # resolve pending damage mid-run
            arena.verify_topology()

    def test_retire_admit_patches_without_rebuild(self):
        arena = arena_of([ClosedChain(square_ring(8))
                          for _ in range(4)])
        arena.topology()
        builds0 = arena.topo_stats["rebuilds"]
        arena.retire_batch([1])
        arena.verify_topology()
        ci = admit(arena, ClosedChain(square_ring(8)))
        assert ci == 1
        arena.verify_topology()
        assert arena.topo_stats["rebuilds"] == builds0, \
            "retire/admit churn must patch, not rebuild"
        assert arena.topo_stats["delta_ops"] > 0

    def test_batch_admission_stamps_conservative_keys(self):
        # attach_batch stamps every burst row with the burst's
        # lowest insertion position; the next topology() call must
        # resolve them all to exact block starts
        arena = arena_of([ClosedChain(square_ring(8))
                          for _ in range(5)])
        arena.topology()
        arena.retire_batch(np.array([1, 3]))
        arena.verify_topology()
        got = arena.reserve_batch([28, 28])
        assert got == [1, 3]
        chains = [ClosedChain(square_ring(8)) for _ in got]
        arena.attach_batch(got,
                           [c.positions_array() for c in chains],
                           [c.edge_codes() for c in chains],
                           [0, 0], [None, None])
        arena.verify_topology()
        assert_arena_coherent(arena)

    def test_churn_stream_bounds_rebuilds(self):
        """Full rebuilds scale with compactions + grows, not rounds —
        the bounded-rebuild claim of the delta algebra."""
        sim = BatchSimulator([], engine="kernel", keep_reports=False)
        rings = [square_ring(3), square_ring(4)]
        done = sum(1 for _ in sim.run_stream(
            (list(rings[i % 2]) for i in range(400)), slots=16))
        assert done == 400
        stats = sim.last_stream_stats
        assert stats["rounds"] > 20
        assert stats["topo_delta_ops"] > 0
        assert stats["topo_delta_cells"] > 0
        assert stats["topo_rebuilds"] <= \
            stats["compactions"] + stats["grows"] + 2
        assert stats["topo_rebuilds"] < stats["rounds"] // 4
        assert stats["rounds_per_s"] > 0

    def test_streaming_with_invariant_checks_verifies_topology(self):
        # check_invariants=True runs verify_topology every round; a
        # churny mixed stream must survive the cross-check end to end
        pts = [square_ring(8), square_ring(12), square_ring(8),
               crenellation(3, 1, 4), square_ring(10), square_ring(8)]
        assert_stream_equals_singles(pts, slots=2, check_invariants=True)


# ---------------------------------------------------------------------------
# batched intake (reserve_batch / attach_batch bursts)
# ---------------------------------------------------------------------------

class TestBatchIntake:
    def test_burst_with_bad_entries_quarantines_in_stream_order(self):
        broken = [(0, 0), (5, 5), (1, 0), (1, 1)]      # non-unit edge
        stream = [list(square_ring(8)), list(broken),
                  list(square_ring(10)), [], list(square_ring(12))]
        kernel = FleetKernel([], keep_reports=False)
        outs = list(kernel.run_stream(iter(stream), slots=8,
                                      on_error="quarantine"))
        by_idx = dict(outs)
        assert sorted(by_idx) == [0, 1, 2, 3, 4]
        assert not by_idx[1].ok and by_idx[1].quarantined
        assert not by_idx[3].ok and by_idx[3].quarantined
        # quarantine outcomes surface before any gathered result
        order = [idx for idx, _ in outs]
        assert order.index(1) < min(order.index(i) for i in (0, 2, 4))
        for i in (0, 2, 4):
            single = Simulator(stream[i], engine="kernel").run()
            got = by_idx[i]
            res = got.result if hasattr(got, "result") else got
            assert res.rounds == single.rounds
            assert res.final_positions == single.final_positions

    def test_burst_error_messages_match_per_chain_constructor(self):
        broken = [(0, 0), (5, 5), (1, 0), (1, 1)]
        kernel = FleetKernel([], keep_reports=False)
        outs = dict(kernel.run_stream(iter([list(broken)]), slots=4,
                                      on_error="quarantine"))
        try:
            ClosedChain(list(broken))
            raise AssertionError("constructor should reject this chain")
        except Exception as exc:           # noqa: BLE001 - mirror check
            assert outs[0].message == str(exc)
            assert outs[0].error == type(exc).__name__

    def test_burst_mixed_payload_types(self):
        # ndarray, ClosedChain and list payloads in one burst all land
        # identically to their per-chain admissions
        pts = [square_ring(8), square_ring(10), square_ring(12)]
        payloads = [np.array(pts[0]), ClosedChain(pts[1]), list(pts[2])]
        singles = [Simulator(list(p), engine="kernel").run() for p in pts]
        sim = BatchSimulator([], engine="kernel", keep_reports=True)
        got = dict(sim.run_stream(iter(payloads), slots=3))
        for i, s in enumerate(singles):
            assert _result_key(got[i]) == _result_key(s)

    @settings(max_examples=10, deadline=None)
    @given(st.lists(closed_chain_positions(max_cells=18),
                    min_size=3, max_size=8),
           st.integers(min_value=2, max_value=4))
    def test_property_burst_admissions(self, fleet_pts, slots):
        # property drive of the batched intake: whatever the burst
        # geometry (hole reuse, grows, splits), results stay
        # bit-identical to single-chain runs
        assert_stream_equals_singles(fleet_pts, slots=slots,
                                     check_invariants=False)
