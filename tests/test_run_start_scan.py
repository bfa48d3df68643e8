"""Kernel run-start stage ≡ per-robot reference recogniser.

The kernel engine replaces the per-robot
:func:`repro.core.patterns.run_start_decisions` loop with one pass over
the arena's cached edge codes
(:func:`repro.core.engine_fleet._fleet_run_starts`).  The contract is
exact behavioural equivalence including emission order (ascending
chain index, direction +1 before -1), property-tested here on a
one-chain fleet over random polyomino blobs and perturbed shapes.
"""

import random

import pytest
from hypothesis import given, strategies as st

from repro.core.chain import CODE_TO_DIR, ClosedChain
from repro.core.engine_fleet import FleetKernel, _fleet_run_starts
from repro.core.patterns import RunStart, run_start_decisions
from repro.core.runs import MODE_INIT_CORNER, MODE_NORMAL
from repro.core.view import ChainWindow
from repro.chains import (
    comb, crenellation, needle, perturb, spiral, square_ring,
    stairway_octagon,
)

from tests.conftest import closed_chain_positions

V = 11

#: Run mode code of a fresh run -> Fig. 5 shape that started it.
_KIND = {MODE_INIT_CORNER: "ii", MODE_NORMAL: "i"}


def reference_starts(chain):
    """Per-robot reference scan: (index, RunStart) pairs in engine order."""
    out = []
    for i in range(chain.n):
        window = ChainWindow(chain, i, V)
        for rs in run_start_decisions(window):
            out.append((i, rs))
    return out


def kernel_starts(chain):
    """The kernel's run-start stage over a one-chain fleet of a copy,
    mapped back to (index, RunStart) pairs in emission order."""
    kernel = FleetKernel([chain.copy()], validate_initial=False)
    starts = _fleet_run_starts(kernel.arena)
    if starts is None:
        return []
    _, _, rids, dirs, modes, axes = starts
    return [(chain.index_of_id(rid), RunStart(d, _KIND[m], CODE_TO_DIR[a]))
            for rid, d, m, a in zip(rids.tolist(), dirs.tolist(),
                                    modes.tolist(), axes.tolist())]


class TestScanEquivalence:
    @pytest.mark.parametrize("pts", [
        square_ring(8), square_ring(24), needle(12), comb(4),
        crenellation(5), stairway_octagon(10, 2), spiral(1),
    ], ids=["sq8", "sq24", "needle", "comb", "cren", "oct", "spiral"])
    def test_families(self, pts):
        chain = ClosedChain(pts)
        assert kernel_starts(chain) == reference_starts(chain)

    @given(closed_chain_positions(max_cells=40))
    def test_random_blobs(self, pts):
        chain = ClosedChain(pts)
        assert kernel_starts(chain) == reference_starts(chain)

    @given(closed_chain_positions(max_cells=30),
           st.integers(min_value=0, max_value=2 ** 16))
    def test_perturbed_shapes(self, pts, seed):
        mutated = perturb(list(pts), mutations=6, rng=random.Random(seed))
        chain = ClosedChain(mutated)
        assert kernel_starts(chain) == reference_starts(chain)

    def test_mid_gathering_states(self):
        """Equivalence must also hold on chains with coincident robots
        (post-merge states are not valid *initial* chains)."""
        from repro.core.simulator import Simulator
        sim = Simulator(square_ring(12), engine="reference",
                        check_invariants=True)
        for _ in range(40):
            if sim.is_gathered():
                break
            sim.step()
            chain = sim.chain
            assert kernel_starts(chain) == reference_starts(chain)

    def test_small_wrapping_chain(self):
        # the window wraps the whole chain: modular indexing paths
        chain = ClosedChain(square_ring(3))     # n = 8 < V
        assert kernel_starts(chain) == reference_starts(chain)
