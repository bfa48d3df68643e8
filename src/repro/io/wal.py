"""Write-ahead log and snapshots for the streaming scheduler.

The durability tier (DESIGN.md §2.12): a WAL directory holds one
append-only NDJSON log (``wal.ndjson``) of versioned delta records
with monotonic LSNs, plus periodic full snapshots of the fleet state
(``snapshot-<lsn>.npz``).  The log records each round's *effects* —
moves, removals, run starts/stops, retire/admit/fault events, stream
yields — which makes a long stream auditable record by record; the
snapshots capture everything the scheduler's behaviour depends on, so
resume restores the latest snapshot and *re-executes* rounds through
the one engine code path (determinism is what makes the continuation
bit-identical, and the re-executed rounds re-log, so a resumed log
stays a valid audit trail).

Durability policy: every record is flushed to the OS page cache as it
is appended — a SIGKILL of the process loses at most the line being
written (readers tolerate exactly one torn trailing line).  Snapshots
are written to a temp file and atomically renamed, so a crash never
leaves a half-written snapshot under a live name.  Power-loss
durability (fsync) is out of scope for the reproduction harness.
"""

from __future__ import annotations

import base64
import json
import os
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Set, Tuple

import numpy as np

from repro.errors import WalError
from repro.io.serialization import (
    params_from_doc,
    params_to_doc,
    report_from_doc,
    report_to_doc,
    validate_document,
)

WAL_FORMAT = "repro.wal"
WAL_VERSION = 1
SNAPSHOT_FORMAT = "repro.fleet-snapshot"
SNAPSHOT_VERSION = 1

LOG_NAME = "wal.ndjson"
#: Snapshot files retained in the directory (older ones are pruned —
#: resume only ever reads the newest one whose file exists).
KEEP_SNAPSHOTS = 2


def _np_default(o):
    """json.dumps fallback: NumPy scalars in payloads become plain."""
    if isinstance(o, np.integer):
        return int(o)
    if isinstance(o, np.floating):
        return float(o)
    if isinstance(o, np.bool_):
        return bool(o)
    raise TypeError(f"not JSON-serializable: {o!r}")


def pack_ints(values) -> str:
    """Bulk-array encoding for WAL v1 round deltas: a width tag
    (``h`` = little-endian int16, ``i`` = int32) plus base64 payload.

    Round records carry thousands of small integers per line (every
    hop of every live chain); encoding them as JSON int lists costs
    one Python object per integer and dominated WAL overhead.  A
    packed blob keeps both ends on the C fast path, and the int16 form
    — which slot indices, robot ids and direction deltas virtually
    always fit — halves the bytes the log scans and writes.
    """
    a = np.ascontiguousarray(np.asarray(values, dtype=np.int64))
    if a.size == 0:
        return "h"
    lo, hi = int(a.min()), int(a.max())
    if -32768 <= lo and hi <= 32767:
        tag, dtype = "h", "<i2"
    else:
        tag, dtype = "i", "<i4"
    return tag + base64.b64encode(a.astype(dtype).tobytes()).decode("ascii")


def unpack_ints(blob: str) -> np.ndarray:
    """Inverse of :func:`pack_ints` (int64 array, host order)."""
    if not blob or blob[0] not in "hi":
        raise WalError(f"packed int blob has no width tag: {blob[:8]!r}")
    raw = base64.b64decode(blob[1:].encode("ascii"))
    dtype = "<i2" if blob[0] == "h" else "<i4"
    return np.frombuffer(raw, dtype=dtype).astype(np.int64)


class WalWriter:
    """Append versioned delta records to a WAL directory.

    Creating a writer on a directory that already holds a non-empty
    log raises :class:`WalError` — an interrupted stream must be
    continued through :meth:`WalReader.continue_writing`, never
    silently overwritten.
    """

    def __init__(self, wal_dir: str, _next_lsn: int = 0,
                 _append: bool = False):
        os.makedirs(wal_dir, exist_ok=True)
        self.dir = wal_dir
        self.path = os.path.join(wal_dir, LOG_NAME)
        if not _append and os.path.exists(self.path) \
                and os.path.getsize(self.path) > 0:
            raise WalError(
                f"{self.path} already holds a log; resume it with "
                f"WalReader.continue_writing() or point at a fresh directory")
        self._fh = open(self.path, "a", encoding="utf-8")
        self.lsn = _next_lsn                # next LSN to hand out

    def append(self, rtype: str, **fields: Any) -> int:
        """Write one record; returns its LSN.  Flushed per record."""
        rec: Dict[str, Any] = {"lsn": self.lsn, "format": WAL_FORMAT,
                               "version": WAL_VERSION, "type": rtype}
        rec.update(fields)
        self._fh.write(json.dumps(rec, separators=(",", ":"),
                                  default=_np_default) + "\n")
        self._fh.flush()
        lsn = self.lsn
        self.lsn = lsn + 1
        return lsn

    def write_snapshot(self, kernel, stream: Dict[str, Any]) -> str:
        """Full fleet snapshot + its log record; prunes old snapshots.

        The snapshot file is named after the LSN of its own record, so
        the record→file association survives any crash ordering: the
        file is fully on disk (atomic rename) before the record that
        names it is appended, and a record whose file is missing is
        simply skipped by :meth:`WalReader.last_snapshot`.
        """
        name = f"snapshot-{self.lsn:010d}.npz"
        save_fleet_snapshot(os.path.join(self.dir, name), kernel, stream)
        self.append("snapshot", file=name, r=kernel.round_index,
                    cursor=stream["consumed"], done=stream["done"],
                    exhausted=stream["exhausted"])
        self._prune_snapshots()
        return name

    def _prune_snapshots(self) -> None:
        snaps = sorted(f for f in os.listdir(self.dir)
                       if f.startswith("snapshot-") and f.endswith(".npz"))
        for f in snaps[:-KEEP_SNAPSHOTS]:
            os.remove(os.path.join(self.dir, f))

    def close(self) -> None:
        self._fh.close()


class WalReader:
    """Parse and validate a WAL directory's log."""

    def __init__(self, wal_dir: str):
        self.dir = wal_dir
        self.path = os.path.join(wal_dir, LOG_NAME)
        if not os.path.exists(self.path):
            raise WalError(f"no log at {self.path}")
        self._records: Optional[List[dict]] = None
        self._good_bytes = 0

    def records(self) -> List[dict]:
        """All complete records, LSN-checked and version-validated.

        A crash can tear at most the trailing line (records are
        flushed one line at a time), so a non-newline-terminated tail
        is silently dropped; a malformed *complete* line or a break in
        the LSN sequence means real corruption and raises
        :class:`WalError`.
        """
        if self._records is not None:
            return self._records
        with open(self.path, "rb") as fh:
            data = fh.read()
        nl = data.rfind(b"\n")
        self._good_bytes = nl + 1
        recs: List[dict] = []
        if nl >= 0:
            for line in data[:nl].split(b"\n"):
                try:
                    doc = json.loads(line.decode("utf-8"))
                except (ValueError, UnicodeDecodeError) as exc:
                    raise WalError(
                        f"{self.path}: corrupt record after lsn "
                        f"{len(recs) - 1}: {exc}") from exc
                doc = validate_document(doc, WAL_FORMAT)
                if doc.get("lsn") != len(recs) or "type" not in doc:
                    raise WalError(
                        f"{self.path}: broken LSN sequence — expected "
                        f"{len(recs)}, found {doc.get('lsn')!r}")
                recs.append(doc)
        self._records = recs
        return recs

    def stream_start(self) -> dict:
        """The log's opening record (stream configuration)."""
        recs = self.records()
        if not recs or recs[0]["type"] != "stream_start":
            raise WalError(f"{self.path}: log does not open with a "
                           f"stream_start record")
        return recs[0]

    def last_snapshot(self) -> Optional[dict]:
        """Newest snapshot record whose file is still on disk."""
        for rec in reversed(self.records()):
            if rec["type"] == "snapshot" \
                    and os.path.exists(self.snapshot_path(rec)):
                return rec
        return None

    def snapshot_path(self, rec: dict) -> str:
        return os.path.join(self.dir, rec["file"])

    def yields_after(self, lsn: int) -> Set[int]:
        """Stream indices already delivered after the given record.

        A yield record is appended only once the consumer has resumed
        past its whole batch, so this set is exactly what an
        idempotent resume must re-execute but *not* re-deliver.
        """
        out: Set[int] = set()
        for rec in self.records():
            if rec["type"] == "yield" and rec["lsn"] > lsn:
                i = rec["i"]
                out.update(i if isinstance(i, list) else (i,))
        return out

    def continue_writing(self) -> WalWriter:
        """Truncate any torn tail and return an appending writer."""
        recs = self.records()
        size = os.path.getsize(self.path)
        if size > self._good_bytes:
            with open(self.path, "r+b") as fh:
                fh.truncate(self._good_bytes)
        return WalWriter(self.dir, _next_lsn=len(recs), _append=True)


# ----------------------------------------------------------------------
# fleet snapshots
# ----------------------------------------------------------------------
def save_fleet_snapshot(path: str, kernel, stream: Dict[str, Any]) -> str:
    """Write the kernel's complete streaming state to one ``.npz``.

    Captures the arena and registry buffers, the kernel's per-chain
    scheduling columns, the admission cursor and yield count, and —
    when the kernel keeps reports — the live chains' RoundReport
    history (so a resumed chain's result carries its full report list,
    identical to an uninterrupted run).  Written atomically: temp file
    then rename, and ``np.savez`` gets an open file object so the
    temp name is used exactly as given.
    """
    arena_arrays, arena_meta = kernel.arena.snapshot_state()
    reg_arrays, reg_meta = kernel.registry.snapshot_state()
    meta: Dict[str, Any] = {
        "format": SNAPSHOT_FORMAT,
        "version": SNAPSHOT_VERSION,
        "params": params_to_doc(kernel.params),
        "round_index": kernel.round_index,
        "submitted": kernel._submitted,
        "single": kernel._single,
        "check": kernel._check,
        "keep": kernel._keep,
        "validate": kernel._validate,
        "n0": list(kernel._n0),
        "ext_of": list(kernel._ext_of),
        "stream_stats": dict(kernel.stream_stats),
        # pending mid-run fault triggers: fired entries are removed
        # before the snapshot boundary, so resume cannot re-fire them
        "mid_faults": {str(ci): [kind, trig]
                       for ci, (kind, trig) in kernel._mid_faults.items()},
        "arena": arena_meta,
        "registry": reg_meta,
        "stream": dict(stream),
    }
    if kernel._keep:
        meta["reports"] = {
            str(ci): [report_to_doc(r) for r in kernel.reports[ci]]
            for ci in kernel.arena.live_indices().tolist()}
    payload = {"arena_" + k: v for k, v in arena_arrays.items()}
    payload.update(("reg_" + k, v) for k, v in reg_arrays.items())
    payload["k_birth"] = np.array(kernel.birth, dtype=np.int64)
    payload["k_budgets"] = np.array(kernel._budgets, dtype=np.int64)
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        np.savez(fh, meta=json.dumps(meta, default=_np_default), **payload)
    os.replace(tmp, path)
    return path


def load_fleet_snapshot(path: str) -> Tuple[Any, Dict[str, Any]]:
    """Rebuild a :class:`FleetKernel` from a snapshot file.

    Returns ``(kernel, stream_state)`` — the kernel with every live
    chain revived over the restored arena, and the stream-progress
    mapping (consumed/done/exhausted plus the run_stream arguments)
    recorded when the snapshot was taken.
    """
    from repro.core.arena import ChainArena
    from repro.core.engine_fleet import FleetKernel
    from repro.core.runs import RunRegistry

    if not os.path.exists(path):
        raise WalError(f"snapshot file missing: {path}")
    with np.load(path, allow_pickle=False) as z:
        meta = validate_document(json.loads(str(z["meta"])), SNAPSHOT_FORMAT)
        arena_arrays = {k[6:]: np.array(z[k]) for k in z.files
                        if k.startswith("arena_")}
        reg_arrays = {k[4:]: np.array(z[k]) for k in z.files
                      if k.startswith("reg_")}
        birth = np.array(z["k_birth"], dtype=np.int64)
        budgets = np.array(z["k_budgets"], dtype=np.int64)

    kernel = FleetKernel([], params=params_from_doc(meta["params"]),
                         check_invariants=bool(meta["check"]),
                         keep_reports=bool(meta["keep"]),
                         validate_initial=bool(meta["validate"]))
    arena = ChainArena.restore_state(arena_arrays, meta["arena"])
    count = len(arena.chains)
    kernel.arena = arena
    kernel.registry = RunRegistry.restore_state(reg_arrays, meta["registry"])
    kernel.round_index = int(meta["round_index"])
    kernel._single = bool(meta["single"])
    kernel._n0 = [int(n) for n in meta["n0"]]
    kernel._birth_buf = birth
    kernel._budget_buf = budgets
    kernel.birth = birth[:count]
    kernel._budgets = budgets[:count]
    kernel.reports = [[] for _ in range(count)]
    for ci, docs in meta.get("reports", {}).items():
        kernel.reports[int(ci)] = [report_from_doc(d) for d in docs]
    kernel.results = [None] * count
    kernel._ext_of = [int(x) for x in meta["ext_of"]]
    kernel._submitted = int(meta["submitted"])
    kernel.stream_stats.update(
        (k, int(v)) for k, v in meta["stream_stats"].items())
    kernel._mid_faults = {int(ci): (str(kind), int(trig))
                          for ci, (kind, trig)
                          in meta.get("mid_faults", {}).items()}
    for ci in arena.live_indices().tolist():
        arena.revive_chain(ci)
    return kernel, dict(meta["stream"])


# ----------------------------------------------------------------------
# machine-checkable audit (§2.13)
# ----------------------------------------------------------------------
#: Record types the audit compares — the deterministic effect trail.
#: ``stream_start``/``snapshot``/``resume`` are control records whose
#: timing legitimately differs between a run and its re-execution.
AUDIT_TYPES = frozenset({"round", "admit", "retire", "yield", "fault",
                         "quarantine", "stream_end"})


@dataclass
class AuditReport:
    """Outcome of :func:`audit_wal`.

    ``ok`` — every audited record the log holds matches the
    re-execution.  ``complete`` — the log ends with ``stream_end``
    (an incomplete log is the crash window: the audit validates the
    prefix and reports ok).  On failure ``divergent_lsn`` is the LSN
    of the first logged record the re-execution contradicts (or the
    LSN just past the log when records are missing) and ``reason``
    says how.
    """

    ok: bool
    checked: int
    audited_from_lsn: int
    complete: bool
    divergent_lsn: Optional[int] = None
    reason: str = ""

    def summary(self) -> str:
        span = f"{self.checked} records from lsn {self.audited_from_lsn}"
        if self.ok:
            tail = "" if self.complete else " (log ends mid-stream)"
            return f"audit ok: {span} re-executed and matched{tail}"
        return (f"audit FAILED at lsn {self.divergent_lsn} after {span}: "
                f"{self.reason}")


class AuditDivergence(Exception):
    """Internal: the re-execution contradicted a logged record."""

    def __init__(self, lsn: int, reason: str):
        super().__init__(f"lsn {lsn}: {reason}")
        self.lsn = lsn
        self.reason = reason


class _AuditLogEnd(Exception):
    """Internal: the re-execution ran past the last logged record."""


def _describe_mismatch(regen: Dict[str, Any],
                       logged: Dict[str, Any]) -> str:
    if regen.get("type") != logged.get("type"):
        return (f"re-execution produced a {regen.get('type')!r} record "
                f"where the log holds {logged.get('type')!r}")
    keys = sorted(set(regen) | set(logged))
    for key in keys:
        if regen.get(key) != logged.get(key):
            return (f"{logged.get('type')} record field {key!r} differs: "
                    f"log has {_clip(logged.get(key))}, re-execution "
                    f"produced {_clip(regen.get(key))}")
    return "records differ"


def _clip(value: Any, limit: int = 80) -> str:
    text = repr(value)
    return text if len(text) <= limit else text[:limit] + "…"


class WalAuditor:
    """A drop-in :class:`WalWriter` that *compares* instead of writes.

    Handed to ``run_stream`` in place of the real writer, it checks
    each record the re-execution generates against the logged sequence
    — same types, same payloads, in order — raising
    :class:`AuditDivergence` at the first contradiction and
    :class:`_AuditLogEnd` when the log has no more records to compare
    (the crash-truncation window).  Snapshots are a no-op: the audit
    never touches the directory it is checking.
    """

    def __init__(self, expected: List[dict]):
        self._expected = expected
        self._pos = 0
        self.checked = 0

    def append(self, rtype: str, **fields: Any) -> int:
        if rtype not in AUDIT_TYPES:
            return -1
        if self._pos >= len(self._expected):
            raise _AuditLogEnd()
        logged = self._expected[self._pos]
        self._pos += 1
        # normalise through one json round-trip so NumPy scalars and
        # tuples compare equal to the parsed log's plain lists/ints
        regen = json.loads(json.dumps(dict(fields, type=rtype),
                                      default=_np_default))
        ref = {k: v for k, v in logged.items()
               if k not in ("lsn", "format", "version")}
        if regen != ref:
            raise AuditDivergence(logged["lsn"],
                                  _describe_mismatch(regen, ref))
        self.checked += 1
        return int(logged["lsn"])

    def remaining(self) -> List[dict]:
        return self._expected[self._pos:]

    def write_snapshot(self, kernel, stream: Dict[str, Any]) -> str:
        return ""

    def close(self) -> None:
        pass


def audit_wal(wal_dir: str, chains: Iterable = ()) -> AuditReport:
    """Re-execute a logged stream and diff it against its own log.

    The machine-checkable half of the durability story: ``round``
    records are audit-only (resume re-executes, it never applies
    them), so nothing in normal operation would notice a tampered or
    torn effect trail.  The audit closes that gap — it restores the
    *oldest* snapshot still on disk after the last ``resume`` record,
    fast-forwards the (freshly re-created) ``chains`` stream to the
    recorded cursor, re-runs the one engine code path with a
    :class:`WalAuditor` in the writer seat, and reports the first
    logged record the deterministic re-execution contradicts.

    ``chains`` must be the same stream the logged run was fed (the
    log records effects, not inputs).  The log and its snapshots are
    never modified.
    """
    from repro.core.engine_fleet import FleetKernel  # noqa: F401 (cycle)
    from repro.core.faults import FaultPlan

    reader = WalReader(wal_dir)
    recs = reader.records()
    start = reader.stream_start()
    last_resume = max((r["lsn"] for r in recs if r["type"] == "resume"),
                      default=-1)
    snap_rec = None
    for rec in recs:
        if rec["type"] == "snapshot" and rec["lsn"] > last_resume \
                and os.path.exists(reader.snapshot_path(rec)):
            snap_rec = rec
            break
    if snap_rec is None:
        raise WalError(f"{wal_dir}: no on-disk snapshot after the last "
                       f"resume record — nothing to audit from")
    expected = [r for r in recs
                if r["lsn"] > snap_rec["lsn"] and r["type"] in AUDIT_TYPES]
    complete = bool(expected) and expected[-1]["type"] == "stream_end"

    kernel, stream = load_fleet_snapshot(reader.snapshot_path(snap_rec))
    skip = reader.yields_after(snap_rec["lsn"])
    consumed = int(stream["consumed"])
    it = iter(chains)
    for k in range(consumed):
        try:
            next(it)
        except StopIteration:
            raise WalError(
                f"{wal_dir}: chain stream ended after {k} entries but the "
                f"log recorded {consumed} consumed — the audit needs the "
                f"same stream the logged run was fed") from None
    fd = start.get("faults")
    faults = FaultPlan.from_doc(fd) if fd else None
    auditor = WalAuditor(expected)
    mr = stream["max_rounds"]
    gen = kernel.run_stream(
        it, slots=stream["slots"],
        max_rounds=None if mr is None else int(mr),
        release=bool(stream["release"]), wal=auditor,
        snapshot_every=int(stream["snapshot_every"]), faults=faults,
        on_error=str(stream.get("on_error", "raise")),
        _resume=(bool(stream["exhausted"]), int(stream["done"]),
                 consumed, skip))

    base = AuditReport(ok=True, checked=0,
                       audited_from_lsn=int(snap_rec["lsn"]) + 1,
                       complete=complete)
    try:
        for _ in gen:
            pass
    except AuditDivergence as exc:
        base.ok = False
        base.checked = auditor.checked
        base.divergent_lsn = exc.lsn
        base.reason = exc.reason
        return base
    except _AuditLogEnd:
        base.checked = auditor.checked
        if complete:
            # the log claims the stream ended, yet the re-execution
            # kept producing effects: records were deleted mid-trail
            base.ok = False
            base.divergent_lsn = int(expected[-1]["lsn"])
            base.reason = ("log missing records: re-execution produced "
                           "further effects before its stream_end")
        return base
    except (WalError, ValueError, KeyError) as exc:
        # a tampered log/snapshot can derail the kernel itself
        nxt = auditor.remaining()
        base.ok = False
        base.checked = auditor.checked
        base.divergent_lsn = int(nxt[0]["lsn"]) if nxt else None
        base.reason = f"re-execution failed: {exc}"
        return base
    base.checked = auditor.checked
    leftover = auditor.remaining()
    if leftover:
        base.ok = False
        base.divergent_lsn = int(leftover[0]["lsn"])
        base.reason = (f"log holds {len(leftover)} record(s) the "
                       f"re-execution never produced (first: "
                       f"{leftover[0]['type']!r})")
    return base
