"""The kernel engine: a fleet-of-one on the shared fleet substrate.

Third engine variant (after ``"reference"`` and ``"vectorized"``,
DESIGN.md §2.9).  Since the fleet tier (DESIGN.md §2.10) exists, the
whole array-native round pipeline lives in one place —
:class:`~repro.core.engine_fleet.FleetKernel` — and the single-chain
kernel engine is simply that pipeline driven over a single-segment
:class:`~repro.core.arena.ChainArena`: merge detection and planning,
the fused decision stage, the movement scatter, the segmented
contraction pass and the bulk run advancement/starts all execute the
fleet code paths with one chain in the arena.  The bespoke per-chain
round loop this module used to carry is gone; what the unification
buys concretely:

* one vectorised pipeline to maintain and test instead of two
  (``merge/move/advance`` stages existed once per tier before);
* the fleet's fully vectorised rare-case handling — ``INIT_CORNER``
  op (c) hops, run-start corner refinement, the contraction survivor
  rule — replaces the per-window / per-event Python fallbacks the
  single-chain loop still contained;
* the stages stay adaptive on per-round activity: a round after one
  that executed fewer than
  :data:`~repro.core.engine_fleet.ARRAY_MIN_PATTERNS` merge patterns
  plans and scatters on the per-chain tier, and below
  :data:`~repro.core.decisions_vectorized.NUMPY_MIN_RUNS` active runs
  decisions drop to the tight scalar fold
  (:func:`~repro.core.decisions_vectorized.decide_and_apply_scalar`),
  so small chains keep their low per-round latency while merge-dense
  rounds run on the fleet's array stages.

The rounds produced are bit-identical to the reference engine —
property-tested trace-for-trace and report-for-report in
``tests/test_conformance.py``.

Scheduler compatibility: a subclass overriding
:meth:`~repro.core.engine.Engine._select_moves` (the SSYNC hook) is
detected at construction and routed through the reference round
pipeline with the vectorised scanners (the ``"vectorized"`` engine's
configuration — behaviourally identical rounds), so activation
policies keep working at the cost of the per-robot loop.
"""

from __future__ import annotations

from typing import Optional

from repro.core.chain import ClosedChain
from repro.core.config import Parameters
from repro.core.engine import Engine
from repro.core.engine_fleet import FleetKernel
from repro.core.engine_vectorized import find_merge_patterns_np, scan_run_starts
from repro.core.events import RoundReport, Trace


class KernelEngine(Engine):
    """Array-native FSYNC engine (behaviourally identical to reference).

    Parameters match :class:`~repro.core.engine.Engine`; the round
    pipeline is the fleet kernel's, over a single-segment arena.
    """

    def __init__(self, chain: ClosedChain, params: Parameters,
                 check_invariants: bool = True,
                 trace: Optional[Trace] = None):
        super().__init__(chain, params,
                         merge_detector=find_merge_patterns_np,
                         start_scanner=scan_run_starts,
                         check_invariants=check_invariants,
                         trace=trace)
        if type(self)._select_moves is not Engine._select_moves:
            # scheduler-hook compatibility: partial-activation
            # subclasses run the reference pipeline (vectorised
            # scanners), which funnels every move through the hook
            self._fleet: Optional[FleetKernel] = None
            return
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
        if fleet is None:                  # SSYNC-hook subclass
            return Engine.step(self)
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
