"""Serialization round-trips."""

import json

import pytest

from repro.errors import ChainError
from repro.core.chain import ClosedChain
from repro.core.simulator import Simulator
from repro.chains import square_ring, stairway_octagon
from repro.io import (
    chain_from_json,
    chain_to_json,
    load_chain,
    load_trace,
    save_chain,
    save_trace,
    trace_from_json,
    trace_to_json,
)


class TestChainSerialization:
    def test_round_trip(self):
        chain = ClosedChain(square_ring(7))
        restored = chain_from_json(chain_to_json(chain))
        assert restored.positions == chain.positions

    def test_file_round_trip(self, tmp_path):
        chain = ClosedChain(stairway_octagon(5, 2))
        path = save_chain(str(tmp_path / "c.json"), chain)
        assert load_chain(path).positions == chain.positions

    def test_wrong_format_rejected(self):
        with pytest.raises(ChainError):
            chain_from_json(json.dumps({"format": "other", "positions": []}))

    def test_invalid_positions_rejected(self):
        doc = json.dumps({"format": "repro.chain", "version": 1,
                          "positions": [[0, 0], [5, 5]]})
        with pytest.raises(ChainError):
            chain_from_json(doc)


class TestTraceSerialization:
    def test_round_trip(self):
        sim = Simulator(square_ring(16), record_trace=True)
        for _ in range(15):
            sim.step()
        restored = trace_from_json(trace_to_json(sim.trace))
        assert len(restored.snapshots) == len(sim.trace.snapshots)
        for a, b in zip(restored.snapshots, sim.trace.snapshots):
            assert a.positions == b.positions
            assert a.ids == b.ids
            assert len(a.runs) == len(b.runs)
            for ra, rb in zip(a.runs, b.runs):
                assert (ra.run_id, ra.robot_id, ra.direction, ra.mode) == \
                    (rb.run_id, rb.robot_id, rb.direction, rb.mode)

    def test_file_round_trip(self, tmp_path):
        sim = Simulator(square_ring(8), record_trace=True)
        sim.run()
        path = save_trace(str(tmp_path / "t.json"), sim.trace)
        restored = load_trace(path)
        assert len(restored.snapshots) == len(sim.trace.snapshots)

    def test_wrong_format_rejected(self):
        with pytest.raises(ChainError):
            trace_from_json(json.dumps({"format": "nope", "snapshots": []}))
