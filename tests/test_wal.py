"""WAL record, snapshot and version-machinery round-trips (DESIGN.md §2.12).

Property-based round-trips for every WAL record type the streaming
tier emits, bit-identical arena/registry snapshot restoration, torn
and corrupt log handling, the versioned-document validation shared by
all JSON formats, and the deterministic fault plan.
"""

import json
import random
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.chains import random_chain, square_ring
from repro.core.arena import ChainArena
from repro.core.engine_fleet import FleetKernel
from repro.core.faults import FaultPlan
from repro.core.runs import RunRegistry
from repro.errors import ChainError, WalError
from repro.io import (
    WalReader,
    WalWriter,
    load_fleet_snapshot,
    save_fleet_snapshot,
    validate_document,
)
from repro.io.serialization import (
    SUPPORTED_VERSIONS,
    register_migration,
    unregister_migration,
)


small = st.integers(min_value=0, max_value=10**6)

# One strategy per WAL record type, matching the fields the engine emits.
RECORDS = st.one_of(
    st.fixed_dictionaries({"type": st.just("stream_start"),
                           "slots": small, "snapshot_every": small,
                           "release": st.booleans()}),
    st.fixed_dictionaries({"type": st.just("yield"),
                           "i": st.lists(small, min_size=1, max_size=8)}),
    st.fixed_dictionaries({"type": st.just("snapshot"),
                           "file": st.just("snapshot-0000000000.npz"),
                           "r": small, "cursor": small, "done": small,
                           "exhausted": st.booleans()}),
)


class TestWalRoundTrip:
    @settings(max_examples=40, deadline=None)
    @given(st.lists(RECORDS, min_size=1, max_size=12))
    def test_every_record_type_round_trips(self, docs):
        with tempfile.TemporaryDirectory() as wal_dir:
            self._round_trip(wal_dir, docs)

    @staticmethod
    def _round_trip(wal_dir, docs):
        writer = WalWriter(wal_dir)
        for doc in docs:
            fields = {k: v for k, v in doc.items() if k != "type"}
            writer.append(doc["type"], **fields)
        writer.close()
        recs = WalReader(wal_dir).records()
        assert len(recs) == len(docs)
        for lsn, (rec, doc) in enumerate(zip(recs, docs)):
            assert rec["lsn"] == lsn
            assert rec["format"] == "repro.wal"
            assert rec["version"] == 1
            for key, val in doc.items():
                assert rec[key] == val

    def test_numpy_scalars_serialize(self, tmp_path):
        writer = WalWriter(str(tmp_path))
        writer.append("yield", i=np.int64(3), f=np.float64(0.5),
                      b=np.bool_(True))
        writer.close()
        rec = WalReader(str(tmp_path)).records()[0]
        assert rec["i"] == 3 and rec["f"] == 0.5 and rec["b"] is True

    def test_torn_trailing_line_tolerated(self, tmp_path):
        writer = WalWriter(str(tmp_path))
        writer.append("stream_start", slots=4)
        writer.append("yield", i=0)
        writer.close()
        log = tmp_path / "wal.ndjson"
        with open(log, "ab") as fh:
            fh.write(b'{"lsn": 2, "type": "yi')   # crash mid-write
        reader = WalReader(str(tmp_path))
        assert len(reader.records()) == 2
        writer = reader.continue_writing()        # truncates the torn tail
        lsn = writer.append("yield", i=1)
        writer.close()
        assert lsn == 2
        assert len(WalReader(str(tmp_path)).records()) == 3

    def test_lsn_break_rejected(self, tmp_path):
        writer = WalWriter(str(tmp_path))
        writer.append("stream_start", slots=4)
        writer.close()
        with open(tmp_path / "wal.ndjson", "a") as fh:
            fh.write(json.dumps({"lsn": 5, "format": "repro.wal",
                                 "version": 1, "type": "yield", "i": 0})
                     + "\n")
        with pytest.raises(WalError):
            WalReader(str(tmp_path)).records()

    def test_corrupt_complete_line_rejected(self, tmp_path):
        writer = WalWriter(str(tmp_path))
        writer.append("stream_start", slots=4)
        writer.close()
        with open(tmp_path / "wal.ndjson", "a") as fh:
            fh.write("not json at all\n")
        with pytest.raises(WalError):
            WalReader(str(tmp_path)).records()

    def test_unknown_record_version_rejected(self, tmp_path):
        with open(tmp_path / "wal.ndjson", "w") as fh:
            fh.write(json.dumps({"lsn": 0, "format": "repro.wal",
                                 "version": 99, "type": "stream_start"})
                     + "\n")
        with pytest.raises(ChainError):
            WalReader(str(tmp_path)).records()

    def test_existing_log_not_clobbered(self, tmp_path):
        writer = WalWriter(str(tmp_path))
        writer.append("stream_start", slots=4)
        writer.close()
        with pytest.raises(WalError):
            WalWriter(str(tmp_path))

    def test_missing_log_rejected(self, tmp_path):
        with pytest.raises(WalError):
            WalReader(str(tmp_path)).records()

    def test_yields_after(self, tmp_path):
        writer = WalWriter(str(tmp_path))
        writer.append("stream_start", slots=4)
        writer.append("yield", i=7)            # scalar and batched forms
        cut = writer.append("yield", i=[8])
        writer.append("yield", i=[9, 10])
        writer.close()
        reader = WalReader(str(tmp_path))
        assert reader.yields_after(cut) == {9, 10}
        assert reader.yields_after(0) == {7, 8, 9, 10}


def _stepped_kernel(seed=0, rounds=6, n_chains=5):
    rng = random.Random(seed)
    pts = [random_chain(rng.choice([8, 12, 16]), rng) for _ in range(n_chains)]
    kernel = FleetKernel(pts, keep_reports=True)
    for _ in range(rounds):
        kernel._step_round()
        kernel.round_index += 1
    return kernel


class TestSnapshotRoundTrip:
    def test_arena_buffers_bit_identical(self):
        arena = _stepped_kernel().arena
        arrays, meta = arena.snapshot_state()
        restored = ChainArena.restore_state(arrays, meta)
        span = int(np.sum(arrays["length"]))
        np.testing.assert_array_equal(restored.pos[:span], arena.pos[:span])
        np.testing.assert_array_equal(restored.codes, arena.codes)
        np.testing.assert_array_equal(restored.ids, arena.ids)
        np.testing.assert_array_equal(restored.index, arena.index)
        np.testing.assert_array_equal(restored.owner, arena.owner)
        np.testing.assert_array_equal(restored.base, arena.base)
        np.testing.assert_array_equal(restored.length, arena.length)
        np.testing.assert_array_equal(restored.live, arena.live)
        assert restored.free == arena.free

    def test_arena_restore_does_not_alias(self):
        arena = _stepped_kernel().arena
        arrays, meta = arena.snapshot_state()
        restored = ChainArena.restore_state(arrays, meta)
        before = restored.codes.copy()
        arena.codes[:] = -1
        np.testing.assert_array_equal(restored.codes, before)

    def test_revived_chains_match(self):
        arena = _stepped_kernel().arena
        arrays, meta = arena.snapshot_state()
        restored = ChainArena.restore_state(arrays, meta)
        # compare against the arena arrays (the ground truth the
        # snapshot preserves), not the possibly-stale chain proxies
        for ci in np.flatnonzero(arena.live):
            b, n = int(arena.base[ci]), int(arena.length[ci])
            chain = restored.revive_chain(int(ci))
            assert len(chain) == n
            np.testing.assert_array_equal(chain.positions_array(),
                                          arena.pos[b:b + n])
            assert chain.ids == arena.ids[b:b + n].tolist()

    def test_registry_round_trip(self):
        reg = _stepped_kernel().registry
        arrays, meta = reg.snapshot_state()
        restored = RunRegistry.restore_state(arrays, meta)
        np.testing.assert_array_equal(restored._data[:restored._count],
                                      reg._data[:reg._count])
        assert restored._active == reg._active
        assert restored.keep_stopped == reg.keep_stopped

    def test_fleet_snapshot_file_round_trip(self, tmp_path):
        kernel = _stepped_kernel(seed=3, rounds=4)
        stream = {"consumed": 5, "done": 0, "exhausted": False,
                  "slots": 8, "max_rounds": None, "release": False,
                  "snapshot_every": 16}
        path = str(tmp_path / "snap.npz")
        save_fleet_snapshot(path, kernel, stream)
        restored, stream2 = load_fleet_snapshot(path)
        assert stream2 == stream
        assert restored.round_index == kernel.round_index
        np.testing.assert_array_equal(restored.arena.codes,
                                      kernel.arena.codes)
        np.testing.assert_array_equal(
            restored.registry._data[:restored.registry._count],
            kernel.registry._data[:kernel.registry._count])
        # restored kernel steps identically to the original
        for _ in range(3):
            kernel._step_round()
            kernel.round_index += 1
            restored._step_round()
            restored.round_index += 1
        np.testing.assert_array_equal(restored.arena.codes,
                                      kernel.arena.codes)
        np.testing.assert_array_equal(restored.arena.length,
                                      kernel.arena.length)

    def test_unknown_snapshot_version_rejected(self, tmp_path):
        kernel = _stepped_kernel(rounds=1, n_chains=2)
        path = str(tmp_path / "snap.npz")
        save_fleet_snapshot(path, kernel, {"consumed": 2, "done": 0,
                                           "exhausted": True, "slots": 2,
                                           "max_rounds": None,
                                           "release": False,
                                           "snapshot_every": 16})
        with np.load(path, allow_pickle=False) as z:
            data = {k: z[k] for k in z.files}
        meta = json.loads(str(data["meta"]))
        meta["version"] = 99
        data["meta"] = np.array(json.dumps(meta))
        np.savez(path[:-4], **data)
        with pytest.raises(ChainError):
            load_fleet_snapshot(path)


class TestVersionMachinery:
    def test_unknown_version_rejected(self):
        for fmt in SUPPORTED_VERSIONS:
            with pytest.raises(ChainError):
                validate_document({"format": fmt, "version": 99}, fmt)

    def test_non_int_versions_rejected(self):
        for bad in (None, "1", 1.0, True):
            with pytest.raises(ChainError):
                validate_document({"format": "repro.chain", "version": bad},
                                  "repro.chain")

    def test_migration_hook_walks_old_versions(self):
        register_migration("repro.chain", 0)(
            lambda doc: {**doc, "version": 1, "migrated": True})
        try:
            doc = validate_document({"format": "repro.chain", "version": 0},
                                    "repro.chain")
            assert doc["migrated"] and doc["version"] == 1
        finally:
            unregister_migration("repro.chain", 0)

    def test_migration_must_advance(self):
        register_migration("repro.chain", 0)(lambda doc: dict(doc))
        try:
            with pytest.raises(ChainError):
                validate_document({"format": "repro.chain", "version": 0},
                                  "repro.chain")
        finally:
            unregister_migration("repro.chain", 0)


class TestFaultPlan:
    def test_decisions_deterministic(self):
        plan = FaultPlan(seed=7, crash=0.1, perturb=0.2)
        again = FaultPlan(seed=7, crash=0.1, perturb=0.2)
        fates = [plan.decide(i) for i in range(200)]
        assert fates == [again.decide(i) for i in range(200)]
        assert "crash" in fates and "perturb" in fates and None in fates

    def test_mutate_deterministic_and_valid(self):
        plan = FaultPlan(seed=1, perturb=1.0, mutations=6)
        pts = square_ring(6)
        mutated = plan.mutate(3, pts)
        assert mutated == plan.mutate(3, pts)
        assert mutated != list(pts)
        from repro.core.chain import ClosedChain
        ClosedChain(mutated)   # still a valid closed chain

    def test_doc_round_trip(self):
        plan = FaultPlan(seed=7, crash=0.02, perturb=0.1, mutations=3)
        assert FaultPlan.from_doc(plan.to_doc()) == plan

    def test_parse(self):
        plan = FaultPlan.parse("seed=7, crash=0.02, perturb=0.1,mutations=3")
        assert plan == FaultPlan(seed=7, crash=0.02, perturb=0.1, mutations=3)
        assert FaultPlan.parse("") == FaultPlan()
        with pytest.raises(ValueError):
            FaultPlan.parse("bogus=1")
        with pytest.raises(ValueError):
            FaultPlan.parse("seed")

    def test_invalid_probabilities_rejected(self):
        with pytest.raises(ValueError):
            FaultPlan(crash=0.7, perturb=0.7)
        with pytest.raises(ValueError):
            FaultPlan(crash=-0.1)
        with pytest.raises(ValueError):
            FaultPlan(mutations=0)


class TestReaderEdgeCases:
    def test_two_torn_trailing_lines_rejected(self, tmp_path):
        # per-record flushing can tear at most ONE line; two broken
        # trailing lines mean something other than a crash mangled the
        # log, and the complete-but-corrupt one must be rejected
        writer = WalWriter(str(tmp_path))
        writer.append("stream_start", slots=4)
        writer.close()
        with open(tmp_path / "wal.ndjson", "ab") as fh:
            fh.write(b'{"lsn": 1, "type": "yi\n')   # complete but corrupt
            fh.write(b'{"lsn": 2, "type": "yi')     # torn tail
        with pytest.raises(WalError):
            WalReader(str(tmp_path)).records()

    def test_missing_newest_snapshot_falls_back(self, tmp_path):
        # snapshot GC keeps KEEP_SNAPSHOTS files, but last_snapshot
        # must skip a record whose file vanished (e.g. deleted by hand)
        # and fall back to the next-newest that is still on disk
        kernel = _stepped_kernel()
        writer = WalWriter(str(tmp_path))
        writer.append("stream_start", slots=4)
        first = writer.write_snapshot(kernel, _stream_state())
        second = writer.write_snapshot(kernel, _stream_state())
        writer.close()
        (tmp_path / second).unlink()
        reader = WalReader(str(tmp_path))
        rec = reader.last_snapshot()
        assert rec is not None and rec["file"] == first
        (tmp_path / first).unlink()
        assert WalReader(str(tmp_path)).last_snapshot() is None


def _stream_state(**over):
    state = {"consumed": 0, "done": 0, "exhausted": False, "slots": 4,
             "max_rounds": None, "release": True, "snapshot_every": 4,
             "on_error": "raise"}
    state.update(over)
    return state
