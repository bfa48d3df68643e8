"""Kernel engine wiring: the fleet-of-one behind ``engine="kernel"``.

Behavioural equivalence lives in the cross-engine conformance suite
(``tests/test_conformance.py``); this module pins the plumbing —
simulator/batch acceptance, the fleet-of-one substrate, trace capture
and the SSYNC scheduler-hook fallback.
"""

import pytest

from repro.core.engine import Engine
from repro.core.engine_kernel import KernelEngine
from repro.core.simulator import Simulator
from repro.core.config import DEFAULT_PARAMETERS
from repro.chains import square_ring


class TestKernelWiring:
    def test_simulator_accepts_kernel(self):
        result = Simulator(square_ring(12), engine="kernel").run()
        assert result.gathered

    def test_batch_accepts_kernel(self):
        from repro.core.batch import gather_batch
        batch = gather_batch([square_ring(8), square_ring(10)],
                             engine="kernel", keep_reports=False)
        assert batch.all_gathered

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError):
            Simulator(square_ring(8), engine="warp")

    def test_kernel_trace_matches_reference(self):
        pts = square_ring(12)
        a = Simulator(list(pts), engine="reference", record_trace=True).run()
        b = Simulator(list(pts), engine="kernel", record_trace=True).run()
        assert len(a.trace.snapshots) == len(b.trace.snapshots)
        for sa, sb in zip(a.trace.snapshots, b.trace.snapshots):
            assert sa.positions == sb.positions
            assert sa.ids == sb.ids
            assert [(r.robot_id, r.direction, r.mode) for r in sa.runs] == \
                [(r.robot_id, r.direction, r.mode) for r in sb.runs]


class TestFleetOfOneSubstrate:
    def test_kernel_runs_on_single_segment_arena(self):
        from repro.core.chain import ClosedChain
        engine = KernelEngine(ClosedChain(square_ring(10)),
                              DEFAULT_PARAMETERS)
        assert engine._fleet is not None
        assert len(engine._fleet.arena.chains) == 1
        assert engine.registry is engine._fleet.registry

    def test_ssync_hook_subclass_falls_back(self):
        """A subclass overriding _select_moves routes through the
        reference pipeline and still sees every move offered."""
        seen = []

        class Hooked(KernelEngine):
            def _select_moves(self, moves):
                seen.append(dict(moves))
                return moves

        from repro.core.chain import ClosedChain
        pts = square_ring(12)
        engine = Hooked(ClosedChain(list(pts)), DEFAULT_PARAMETERS,
                        check_invariants=False)
        assert engine._fleet is None       # legacy path selected
        reference = Simulator(list(pts), engine="reference",
                              check_invariants=False)
        for _ in range(30):
            if engine.chain.is_gathered():
                break
            engine.step()
            reference.step()
            assert engine.chain.positions == reference.chain.positions
        assert seen and any(m for m in seen)

    def test_plain_kernel_has_no_legacy_hook(self):
        from repro.core.chain import ClosedChain
        engine = KernelEngine(ClosedChain(square_ring(8)),
                              DEFAULT_PARAMETERS)
        assert type(engine)._select_moves is Engine._select_moves
