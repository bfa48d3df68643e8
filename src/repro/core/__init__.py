"""Core: the paper's gathering algorithm and its FSYNC execution model."""

from repro.core.batch import (BatchResult, BatchSimulator, gather_batch,
                              gather_stream)
from repro.core.chain import ClosedChain, MergeRecord
from repro.core.config import DEFAULT_PARAMETERS, PROOF_PARAMETERS, Parameters
from repro.core.engine import Engine
from repro.core.events import RoundReport, Snapshot, Trace
from repro.core.merges import MergePlan, plan_merges
from repro.core.patterns import (
    MergePattern,
    RunStart,
    find_merge_patterns,
    run_start_decisions,
    endpoint_visible_ahead,
    is_quasi_line,
    is_stairway,
)
from repro.core.results import ChainOutcome, ResultLedger
from repro.core.runs import RunMode, RunRegistry, RunState, StopReason
from repro.core.simulator import GatheringResult, Simulator, gather
from repro.core.view import ChainWindow

__all__ = [
    "BatchResult",
    "BatchSimulator",
    "gather_batch",
    "gather_stream",
    "ClosedChain",
    "MergeRecord",
    "Parameters",
    "DEFAULT_PARAMETERS",
    "PROOF_PARAMETERS",
    "Engine",
    "RoundReport",
    "Snapshot",
    "Trace",
    "MergePlan",
    "plan_merges",
    "MergePattern",
    "RunStart",
    "find_merge_patterns",
    "run_start_decisions",
    "endpoint_visible_ahead",
    "is_quasi_line",
    "is_stairway",
    "RunMode",
    "RunRegistry",
    "RunState",
    "StopReason",
    "GatheringResult",
    "Simulator",
    "gather",
    "ChainWindow",
    "ChainOutcome",
    "ResultLedger",
]
