"""Simulation facade: gather a chain and collect results.

:class:`Simulator` wires a chain, parameters and an engine variant
together; :func:`gather` is the one-call convenience API used by the
examples and experiments.
"""

from __future__ import annotations

import time
from typing import List, Optional, Sequence, Union

from repro.errors import StallError
from repro.grid.lattice import Vec
from repro.core.chain import ClosedChain
from repro.core.config import DEFAULT_PARAMETERS, Parameters
from repro.core.engine import Engine
from repro.core.engine_kernel import KernelEngine
from repro.core.events import RoundReport, Trace
from repro.core.results import GatheringResult

__all__ = ["ENGINES", "GatheringResult", "Simulator", "gather"]

ENGINES = ("reference", "kernel")


class Simulator:
    """Run the gathering algorithm on one closed chain.

    Parameters
    ----------
    chain:
        A :class:`ClosedChain` or a sequence of positions.
    params:
        Algorithm constants (defaults to the paper's).
    engine:
        ``"reference"`` (every robot decides through its own window,
        the executable specification) or ``"kernel"`` (the fleet
        substrate driven over a single-segment arena — the whole
        round pipeline on arrays).  Both are behaviourally identical
        (property-tested in ``tests/test_conformance.py``).
    check_invariants:
        Verify model invariants every round.
    record_trace:
        Keep full per-round snapshots (memory-heavy for large chains).
    """

    def __init__(self, chain: Union[ClosedChain, Sequence[Vec]],
                 params: Parameters = DEFAULT_PARAMETERS,
                 engine: str = "reference",
                 check_invariants: bool = True,
                 record_trace: bool = False,
                 validate_initial: bool = True):
        if not isinstance(chain, ClosedChain):
            chain = ClosedChain(chain, require_disjoint_neighbors=validate_initial)
        elif validate_initial:
            chain.validate(initial=True)
        if engine not in ENGINES:
            raise ValueError(f"unknown engine {engine!r}; choose from {ENGINES}")
        self.trace = Trace() if record_trace else None
        engine_cls = KernelEngine if engine == "kernel" else Engine
        self.engine: Engine = engine_cls(
            chain, params, check_invariants=check_invariants,
            trace=self.trace)
        self.initial_n = chain.n
        self.reports: List[RoundReport] = []

    @property
    def chain(self) -> ClosedChain:
        """The (mutating) chain under simulation."""
        return self.engine.chain

    @property
    def params(self) -> Parameters:
        return self.engine.params

    @property
    def round_index(self) -> int:
        return self.engine.round_index

    def step(self) -> RoundReport:
        """Advance one FSYNC round."""
        report = self.engine.step()
        self.reports.append(report)
        return report

    def is_gathered(self) -> bool:
        """Paper's global termination condition (observer-side check)."""
        return self.chain.is_gathered()

    def run(self, max_rounds: Optional[int] = None,
            raise_on_stall: bool = False) -> GatheringResult:
        """Simulate until gathered or the round budget is exhausted."""
        budget = max_rounds if max_rounds is not None else \
            self.params.round_budget(self.initial_n)
        t0 = time.perf_counter()
        chain = self.chain
        gathered = False
        while self.round_index < budget:
            # a bounding-box side shrinks by at most 2 cells per round
            # (each robot hops Chebyshev <= 1), so after observing extent
            # M > 2 the chain provably cannot gather for the next
            # (M - 3) // 2 rounds — skip the termination check for them.
            box = chain.bounding_box()
            if box.fits_in(2, 2):
                gathered = True
                break
            unreachable = (max(box.width, box.height) - 3) // 2
            self.step()
            for _ in range(min(unreachable, budget - self.round_index)):
                self.step()
        else:
            gathered = self.is_gathered()
        wall = time.perf_counter() - t0
        stalled = not gathered
        if stalled and raise_on_stall:
            raise StallError(
                f"no gathering within {budget} rounds (n={self.initial_n})",
                round_index=self.round_index, n=self.chain.n,
                positions=self.chain.positions)
        return GatheringResult(
            gathered=gathered,
            rounds=self.round_index,
            initial_n=self.initial_n,
            final_n=self.chain.n,
            final_positions=self.chain.positions,
            params=self.params,
            reports=self.reports,
            trace=self.trace,
            stalled=stalled,
            wall_time=wall,
        )


def gather(chain: Union[ClosedChain, Sequence[Vec]],
           params: Parameters = DEFAULT_PARAMETERS,
           engine: str = "reference",
           check_invariants: bool = False,
           record_trace: bool = False,
           max_rounds: Optional[int] = None,
           raise_on_stall: bool = False) -> GatheringResult:
    """Gather a closed chain and return the result (convenience API)."""
    sim = Simulator(chain, params=params, engine=engine,
                    check_invariants=check_invariants,
                    record_trace=record_trace)
    return sim.run(max_rounds=max_rounds, raise_on_stall=raise_on_stall)
