"""Serialization: versioned JSON documents, WAL and fleet snapshots."""

from repro.io.serialization import (
    chain_from_json,
    chain_to_json,
    load_chain,
    load_trace,
    register_migration,
    save_chain,
    save_trace,
    trace_from_json,
    trace_to_json,
    validate_document,
)
from repro.io.wal import (
    WalReader,
    WalWriter,
    load_fleet_snapshot,
    save_fleet_snapshot,
)

__all__ = [
    "chain_to_json",
    "chain_from_json",
    "save_chain",
    "load_chain",
    "trace_to_json",
    "trace_from_json",
    "save_trace",
    "load_trace",
    "validate_document",
    "register_migration",
    "WalWriter",
    "WalReader",
    "save_fleet_snapshot",
    "load_fleet_snapshot",
]
