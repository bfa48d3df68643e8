"""JSON (de)serialization for chains and traces.

The formats are deliberately simple and versioned so stall cases and
experiment outputs can be archived and replayed across library versions.
Every document carries ``format`` + ``version``; readers go through
:func:`validate_document`, which rejects unknown versions and applies
any :func:`register_migration` hooks for older ones, so formats can
evolve without orphaning archived files (the WAL and snapshot formats
of :mod:`repro.io.wal` ride the same machinery).
"""

from __future__ import annotations

import json
from typing import Any, Callable, Dict, Tuple

from repro.errors import ChainError
from repro.core.chain import ClosedChain, MergeRecord
from repro.core.config import Parameters
from repro.core.events import RoundReport, RunSnapshot, Snapshot, Trace
from repro.core.runs import StopReason

FORMAT_VERSION = 1

#: Current reader version per document format.  A document with a
#: *newer* version than listed here is rejected outright; an *older*
#: one is migrated stepwise through the registered hooks.
SUPPORTED_VERSIONS: Dict[str, int] = {
    "repro.chain": FORMAT_VERSION,
    "repro.trace": FORMAT_VERSION,
    "repro.wal": 1,
    "repro.fleet-snapshot": 1,
}

_MIGRATIONS: Dict[Tuple[str, int], Callable[[dict], dict]] = {}


def register_migration(fmt: str, from_version: int
                       ) -> Callable[[Callable[[dict], dict]],
                                     Callable[[dict], dict]]:
    """Register a one-step document migration (decorator).

    The hook receives a document at ``from_version`` and must return
    one at a strictly higher version (usually ``from_version + 1``);
    :func:`validate_document` chains hooks until the current version is
    reached.  This is how WAL/snapshot formats evolve: bump the entry
    in :data:`SUPPORTED_VERSIONS` and register the upgrade here.
    """
    def deco(fn: Callable[[dict], dict]) -> Callable[[dict], dict]:
        _MIGRATIONS[(fmt, int(from_version))] = fn
        return fn
    return deco


def unregister_migration(fmt: str, from_version: int) -> None:
    """Remove a registered migration hook (testing support)."""
    _MIGRATIONS.pop((fmt, int(from_version)), None)


def validate_document(doc: Any, fmt: str) -> dict:
    """Check a parsed document's format/version; migrate old versions.

    Raises :class:`ChainError` when the document is not of format
    ``fmt``, carries no integer version, is newer than this library
    reads, or is older with no migration path registered.  Returns the
    (possibly migrated) document at the current version.
    """
    if not isinstance(doc, dict) or doc.get("format") != fmt:
        raise ChainError(f"not a {fmt} document")
    current = SUPPORTED_VERSIONS[fmt]
    v = doc.get("version")
    if isinstance(v, bool) or not isinstance(v, int):
        raise ChainError(f"{fmt}: missing or non-integer version field")
    while v < current:
        fn = _MIGRATIONS.get((fmt, v))
        if fn is None:
            raise ChainError(
                f"{fmt}: unknown version {v} (current {current}, "
                f"no migration registered)")
        doc = fn(dict(doc))
        nv = doc.get("version") if isinstance(doc, dict) else None
        if isinstance(nv, bool) or not isinstance(nv, int) or nv <= v:
            raise ChainError(
                f"{fmt}: migration from version {v} must advance the version")
        v = nv
    if v != current:
        raise ChainError(
            f"{fmt}: unknown version {v} (this library reads up to {current})")
    return doc


def chain_to_json(chain: ClosedChain) -> str:
    """Serialize a chain (positions in chain order)."""
    doc = {
        "format": "repro.chain",
        "version": FORMAT_VERSION,
        "positions": [list(p) for p in chain.positions],
    }
    return json.dumps(doc)


def chain_from_json(text: str) -> ClosedChain:
    """Deserialize a chain; validates format, version and connectivity."""
    doc = validate_document(json.loads(text), "repro.chain")
    positions = [tuple(p) for p in doc["positions"]]
    return ClosedChain(positions)


def save_chain(path: str, chain: ClosedChain) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(chain_to_json(chain))
    return path


def load_chain(path: str) -> ClosedChain:
    with open(path, "r", encoding="utf-8") as fh:
        return chain_from_json(fh.read())


#: Parameters fields carried by every serialized document that embeds
#: an algorithm configuration (fleet snapshots, WAL headers).
_PARAM_FIELDS = ("viewing_path_length", "start_interval", "k_max",
                 "passing_distance", "travel_steps", "endpoint_guard",
                 "sequent_guard")


def params_to_doc(params: Parameters) -> Dict[str, Any]:
    """Parameters as a plain JSON-ready mapping."""
    return {f: getattr(params, f) for f in _PARAM_FIELDS}


def params_from_doc(doc: Dict[str, Any]) -> Parameters:
    """Rebuild Parameters from :func:`params_to_doc` output."""
    return Parameters(**{f: doc[f] for f in _PARAM_FIELDS})


def report_to_doc(report: RoundReport) -> Dict[str, Any]:
    """One RoundReport as a compact JSON-ready mapping (snapshot use)."""
    return {
        "r": report.round_index,
        "nb": report.n_before,
        "na": report.n_after,
        "hops": report.hops,
        "mp": report.merge_patterns,
        "merges": [[m.survivor_id, m.removed_id,
                    int(m.position[0]), int(m.position[1])]
                   for m in report.merges],
        "rs": report.runs_started,
        "rt": {str(reason.value): count
               for reason, count in report.runs_terminated.items()},
        "ar": report.active_runs,
        "mc": report.merge_conflicts,
        "rhc": report.runner_hop_conflicts,
    }


def report_from_doc(doc: Dict[str, Any]) -> RoundReport:
    """Rebuild a RoundReport from :func:`report_to_doc` output."""
    return RoundReport(
        round_index=int(doc["r"]),
        n_before=int(doc["nb"]),
        n_after=int(doc["na"]),
        hops=int(doc["hops"]),
        merge_patterns=int(doc["mp"]),
        merges=[MergeRecord(int(m[0]), int(m[1]), (int(m[2]), int(m[3])))
                for m in doc["merges"]],
        runs_started=int(doc["rs"]),
        runs_terminated={StopReason(int(k)): int(v)
                         for k, v in doc["rt"].items()},
        active_runs=int(doc["ar"]),
        merge_conflicts=int(doc["mc"]),
        runner_hop_conflicts=int(doc["rhc"]),
    )


def trace_to_json(trace: Trace) -> str:
    """Serialize a trace's snapshots (positions, ids, runs per round)."""
    doc: Dict[str, Any] = {
        "format": "repro.trace",
        "version": FORMAT_VERSION,
        "snapshots": [
            {
                "round": s.round_index,
                "positions": [list(p) for p in s.positions],
                "ids": list(s.ids),
                "runs": [[r.run_id, r.robot_id, r.direction, r.mode, r.born_round]
                         for r in s.runs],
            }
            for s in trace.snapshots
        ],
    }
    return json.dumps(doc)


def trace_from_json(text: str) -> Trace:
    doc = validate_document(json.loads(text), "repro.trace")
    trace = Trace()
    for s in doc["snapshots"]:
        runs = tuple(RunSnapshot(run_id=r[0], robot_id=r[1], direction=r[2],
                                 mode=r[3], born_round=r[4]) for r in s["runs"])
        trace.record_snapshot(Snapshot(
            round_index=s["round"],
            positions=tuple(tuple(p) for p in s["positions"]),
            ids=tuple(s["ids"]),
            runs=runs,
        ))
    return trace


def save_trace(path: str, trace: Trace) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(trace_to_json(trace))
    return path


def load_trace(path: str) -> Trace:
    with open(path, "r", encoding="utf-8") as fh:
        return trace_from_json(fh.read())
