"""The kernel engine: a fleet-of-one on the shared fleet substrate.

The array rendering of the ``"reference"`` engine (DESIGN.md §2.9):
the round pipeline of :class:`~repro.core.engine_fleet.FleetKernel`
driven over a single-segment :class:`~repro.core.arena.ChainArena`.
Merge detection and planning, the fused decision stage, the movement
scatter, the segmented contraction pass and the bulk run
advancement/starts all execute the fleet code paths with one chain in
the arena.  The stages stay adaptive on per-round activity: a round
after one that executed fewer than
:data:`~repro.core.engine_fleet.ARRAY_MIN_PATTERNS` merge patterns
plans and scatters on the per-chain tier, and below
:data:`~repro.core.decisions_vectorized.NUMPY_MIN_RUNS` active runs
decisions drop to the tight scalar fold
(:func:`~repro.core.decisions_vectorized.decide_and_apply_scalar`), so
small chains keep their low per-round latency while merge-dense rounds
run on the fleet's array stages.

The rounds produced are bit-identical to the reference engine —
property-tested trace-for-trace and report-for-report in
``tests/test_conformance.py``.

Scheduler hooks: the fleet pipeline never calls
:meth:`~repro.core.engine.Engine._select_moves`, so a subclass that
overrides it raises :class:`TypeError` at construction; activation
policies (:mod:`repro.schedulers`) subclass the reference
:class:`~repro.core.engine.Engine`.
"""

from __future__ import annotations

from typing import Optional

from repro.core.chain import ClosedChain
from repro.core.config import Parameters
from repro.core.engine import Engine
from repro.core.engine_fleet import FleetKernel
from repro.core.events import RoundReport, Trace


class KernelEngine(Engine):
    """Array-native FSYNC engine (behaviourally identical to reference).

    Parameters match :class:`~repro.core.engine.Engine`; the round
    pipeline is the fleet kernel's, over a single-segment arena.
    """

    def __init__(self, chain: ClosedChain, params: Parameters,
                 check_invariants: bool = True,
                 trace: Optional[Trace] = None):
        if type(self)._select_moves is not Engine._select_moves:
            raise TypeError(
                f"{type(self).__name__} overrides _select_moves, which the "
                "kernel pipeline never calls; subclass the reference "
                "Engine for scheduler hooks")
        super().__init__(chain, params, check_invariants=check_invariants,
                         trace=trace)
        self._fleet = FleetKernel(
            [chain], params=params, check_invariants=check_invariants,
            keep_reports=True, validate_initial=False)
        # engine semantics: terminated-run views stay observable
        self._fleet.registry.keep_stopped = True
        self.registry = self._fleet.registry

    # ------------------------------------------------------------------
    def step(self) -> RoundReport:
        """Execute one full FSYNC round and return its report."""
        fleet = self._fleet
        if self.trace is not None:
            self.trace.record_snapshot(self.snapshot())
        fleet.round_index = self.round_index
        fleet._step_round()
        # the fleet defers the chain's Python-side id bookkeeping;
        # settle it every round so observers (simulator, traces,
        # tests) read coherent ids/index between steps
        fleet._sync_ids(0)
        report = fleet.reports[0][-1]
        if self.trace is not None:
            self.trace.record_report(report)
        self.round_index += 1
        return report
