"""Experiment harness: shared result type, registry, report generation.

Every paper artifact (theorem, lemma, table, figure) has an experiment
module exposing ``run(quick=False) -> ExperimentResult``.  The registry
maps experiment ids (DESIGN.md §4) to these runners;
:func:`run_experiments` executes a selection and
:func:`format_markdown_report` renders the EXPERIMENTS.md content.

Sweep-style experiments (Table 1 statistics, ablation grids, baseline
comparisons) route their fleets through :func:`sweep_gather`, the
harness front-end to :class:`repro.core.batch.BatchSimulator`: one
place controls the engine and the process-pool width (set globally by
the CLI's ``--workers``, see DESIGN.md §3).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Union


@dataclass
class ExperimentResult:
    """Outcome of one reproduction experiment."""

    experiment_id: str
    title: str
    paper_claim: str
    measured: str
    passed: bool
    table: str = ""                  # optional plain-text data table
    details: List[str] = field(default_factory=list)
    wall_time: float = 0.0

    def status(self) -> str:
        return "PASS" if self.passed else "FAIL"


#: Global registry: experiment id -> runner.
_REGISTRY: Dict[str, Callable[..., ExperimentResult]] = {}

#: Process-pool width used by :func:`sweep_gather` (None = in-process).
_DEFAULT_WORKERS: Optional[int] = None


def set_default_workers(workers: Optional[int]) -> None:
    """Set the fleet width for experiment sweeps (CLI ``--workers``)."""
    global _DEFAULT_WORKERS
    _DEFAULT_WORKERS = workers


def default_workers() -> Optional[int]:
    """Current process-pool width for experiment sweeps."""
    return _DEFAULT_WORKERS


def sweep_gather(chains: Sequence, *,
                 params=None,
                 engine: str = "kernel",
                 check_invariants: bool = False,
                 keep_reports: bool = True,
                 max_rounds: Optional[int] = None,
                 workers: Optional[int] = None):
    """Gather a fleet of chains for an experiment sweep.

    Thin wrapper over :func:`repro.core.batch.gather_batch` that applies
    the harness-wide worker default; returns a
    :class:`~repro.core.batch.BatchResult` (results in input order).
    With the default kernel engine, sweeps run on the shared-array
    fleet kernel — the Table 1 statistics and the ablation grids are
    exactly the many-small-chains workload it amortises (DESIGN.md
    §2.10).
    """
    from repro.core.batch import gather_batch
    from repro.core.config import DEFAULT_PARAMETERS
    return gather_batch(chains,
                        params=params if params is not None else DEFAULT_PARAMETERS,
                        engine=engine,
                        check_invariants=check_invariants,
                        keep_reports=keep_reports,
                        max_rounds=max_rounds,
                        workers=workers if workers is not None else _DEFAULT_WORKERS)


def register(experiment_id: str):
    """Decorator adding a runner to the registry."""

    def deco(fn: Callable[..., ExperimentResult]):
        _REGISTRY[experiment_id] = fn
        return fn

    return deco


def registered_ids() -> List[str]:
    """All experiment ids in registration order."""
    return list(_REGISTRY)


def run_experiments(ids: Optional[Sequence[str]] = None,
                    quick: bool = False,
                    verbose: bool = False,
                    workers: Optional[int] = None) -> List[ExperimentResult]:
    """Run a selection of experiments (default: all registered).

    ``workers`` sets the process-pool width used by sweep-style
    experiments for the duration of the call (the previous default is
    restored afterwards).
    """
    previous_workers = default_workers()
    if workers is not None:
        set_default_workers(workers)
    try:
        return _run_experiments(ids, quick, verbose)
    finally:
        set_default_workers(previous_workers)


def _run_experiments(ids: Optional[Sequence[str]],
                     quick: bool, verbose: bool) -> List[ExperimentResult]:
    # importing the experiment modules populates the registry
    from repro.experiments import (  # noqa: F401
        exp_theorem1, exp_figures, exp_lemmas, exp_table1,
        exp_ablations, exp_baselines, exp_engines, exp_verification,
        exp_ssync)

    chosen = list(ids) if ids else registered_ids()
    results: List[ExperimentResult] = []
    for eid in chosen:
        if eid not in _REGISTRY:
            raise KeyError(f"unknown experiment id {eid!r}; "
                           f"known: {registered_ids()}")
        t0 = time.perf_counter()
        res = _REGISTRY[eid](quick=quick)
        res.wall_time = time.perf_counter() - t0
        results.append(res)
        if verbose:
            print(f"[{res.status()}] {eid}: {res.title} ({res.wall_time:.1f}s)")
    return results


def format_markdown_report(results: Sequence[ExperimentResult],
                           header: str = "") -> str:
    """Render experiment results as the EXPERIMENTS.md body."""
    lines: List[str] = []
    if header:
        lines.append(header.rstrip())
        lines.append("")
    lines.append("| id | artifact | status | paper claim | measured |")
    lines.append("|---|---|---|---|---|")
    for r in results:
        lines.append(f"| {r.experiment_id} | {r.title} | {r.status()} | "
                     f"{r.paper_claim} | {r.measured} |")
    lines.append("")
    for r in results:
        lines.append(f"## {r.experiment_id} — {r.title}")
        lines.append("")
        lines.append(f"**Paper claim.** {r.paper_claim}")
        lines.append("")
        lines.append(f"**Measured.** {r.measured}")
        lines.append("")
        if r.details:
            for d in r.details:
                lines.append(f"- {d}")
            lines.append("")
        if r.table:
            lines.append("```")
            lines.append(r.table.rstrip())
            lines.append("```")
            lines.append("")
    return "\n".join(lines)
