"""Batch simulation: gather fleets of chains in one call.

Parameter sweeps (Table 1 statistics, ablation grids, baseline
comparisons, verification sweeps) all reduce to "gather many chains and
aggregate the outcomes".  :class:`BatchSimulator` is that layer: it
takes a list of initial chains, runs each through the engine of choice
and returns a :class:`BatchResult` keeping per-chain
:class:`~repro.core.simulator.GatheringResult` objects in input order.

Two backends execute the fleet (DESIGN.md §2.10):

* ``"fleet"`` — the shared-array fleet kernel
  (:class:`repro.core.engine_fleet.FleetKernel`) advances every chain
  round-for-round in one process.  Per-chain results are bit-identical
  to ``engine="kernel"`` single runs; throughput on fleets of small
  chains is several times the per-chain path because per-round
  interpreter costs amortise across the whole batch.
* ``"process"`` — one simulation per chain through
  :class:`~repro.core.simulator.Simulator` (any engine).

The streaming tier (DESIGN.md §2.11) lifts the fleet backend from
one-shot to pipeline: :meth:`BatchSimulator.run_stream` /
:func:`gather_stream` consume an *iterator* of chains, keep the arena
at a bounded slot occupancy — retired slots are reclaimed for the
next admissions — and yield ``(index, result)`` pairs as chains
finish, so a million-chain sweep runs in constant memory.  With
``workers >= 2`` the input picks the multi-process path: a finite
iterable shards round-robin across the supervised process pool
(:mod:`repro.core.supervisor`, DESIGN.md §2.13), dead workers
respawned and their chunks re-dispatched; a live admission source
(:mod:`repro.core.admission` — the service's queue) goes to the shard
tier (:mod:`repro.core.shards`, §2.16), K long-lived kernel workers
fed over pipes.  Per-chain results are bit-identical to
:func:`gather_batch` on every path.

``backend="auto"`` (the default) picks ``"fleet"`` whenever the
engine is ``"kernel"``.  A multi-process kernel batch is a stream:
with ``workers >= 2`` on the fleet backend, :meth:`BatchSimulator.run`
is :meth:`~BatchSimulator.run_stream` over the batch with one slot per
chain, collected in input order, so batches get the supervised pool's
crash recovery.  The process backend
distributes one-chain jobs over a plain process pool (simulations are
pure CPU-bound Python, so processes — not threads — are the scaling
unit).  Jobs are self-contained ``(positions, params, …)`` tuples and
results are plain dataclasses, so nothing but the standard pickling
machinery is involved; ``keep_reports=False`` strips the per-round
reports before results cross the process boundary, which bounds IPC
for large sweeps that only need the aggregate outcome.

See DESIGN.md §3 for how this layer relates to the single-chain
:class:`~repro.core.simulator.Simulator`.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from typing import (Callable, Dict, Iterable, Iterator, List, Optional,
                    Sequence, Tuple, Union)

from repro.core.chain import ClosedChain
from repro.core.config import DEFAULT_PARAMETERS, Parameters
from repro.core.simulator import ENGINES, GatheringResult, Simulator

#: Fleet execution backends accepted by :class:`BatchSimulator`.
BACKENDS = ("auto", "fleet", "process")

#: One batch job: everything a worker needs to gather one chain.
_Job = Tuple[List[tuple], Parameters, str, bool, Optional[int], bool, bool]


def _gather_job(job: _Job) -> GatheringResult:
    """Run one gathering simulation (top-level: must pickle for pools)."""
    (positions, params, engine, check_invariants, max_rounds,
     validate_initial, keep_reports) = job
    sim = Simulator(positions, params=params, engine=engine,
                    check_invariants=check_invariants,
                    validate_initial=validate_initial)
    result = sim.run(max_rounds=max_rounds)
    if not keep_reports:
        result.reports = []
    return result


def _pool_result(fut, index: int) -> GatheringResult:
    """Unwrap a one-chain pool future, lifting worker deaths and broken
    result pipes into the :class:`~repro.errors.WorkerCrashError`
    taxonomy so callers can catch one base class (``ReproError``)."""
    from concurrent.futures import BrokenExecutor
    try:
        return fut.result()
    except (BrokenExecutor, EOFError, OSError) as exc:
        from repro.errors import WorkerCrashError
        raise WorkerCrashError(
            f"pool worker died gathering chain {index}: "
            f"{type(exc).__name__}: {exc}",
            worker=-1, indices=[index]) from exc


@dataclass
class BatchResult:
    """Outcome of a fleet of gathering simulations (input order)."""

    results: List[GatheringResult] = field(default_factory=list)
    wall_time: float = 0.0
    workers: int = 1

    def __len__(self) -> int:
        return len(self.results)

    def __iter__(self):
        return iter(self.results)

    def __getitem__(self, i: int) -> GatheringResult:
        return self.results[i]

    @property
    def n_chains(self) -> int:
        return len(self.results)

    @property
    def gathered_count(self) -> int:
        """Chains that reached the 2x2 termination condition."""
        return sum(1 for r in self.results if r.gathered)

    @property
    def all_gathered(self) -> bool:
        return self.gathered_count == len(self.results)

    @property
    def total_rounds(self) -> int:
        return sum(r.rounds for r in self.results)

    @property
    def total_robots(self) -> int:
        return sum(r.initial_n for r in self.results)

    @property
    def max_rounds_per_robot(self) -> float:
        """Worst normalised round count — the paper predicts O(1)."""
        return max((r.rounds_per_robot for r in self.results), default=0.0)

    def summary(self) -> str:
        """One-line human-readable outcome."""
        return (f"{self.gathered_count}/{self.n_chains} gathered, "
                f"{self.total_robots} robots in {self.total_rounds} rounds total "
                f"({self.wall_time:.2f}s wall, workers={self.workers})")


class BatchSimulator:
    """Gather a fleet of chains in one call.

    Parameters
    ----------
    chains:
        Initial chains — :class:`ClosedChain` instances or position
        sequences.  Input order is preserved in the result.
    params:
        Algorithm constants shared by the whole fleet (sweeps over
        parameters run one batch per parameter setting).
    engine:
        ``"kernel"`` (default here — batches exist for throughput, and
        the kernel engine is the fastest behaviourally-identical
        variant), ``"vectorized"`` or ``"reference"``.
    backend:
        ``"fleet"`` (shared-array fleet kernel, kernel engine only),
        ``"process"`` (one simulation per chain), or ``"auto"``
        (default): fleet whenever the engine is ``"kernel"``.
    check_invariants:
        Per-round invariant checking for every simulation (slow).
    workers:
        Process count.  ``None`` or ``1`` runs in-process; ``>= 2``
        distributes over worker processes (the fleet backend streams
        a batch or any finite iterable through the supervised pool and
        an admission source through the shard tier; the process
        backend runs one chain per ``concurrent.futures`` job).
    keep_reports:
        Keep per-round :class:`RoundReport` lists on each result.  Turn
        off for large sweeps that only need aggregate outcomes (and to
        bound pickling when ``workers > 1``).
    validate_initial:
        Enforce the paper's initial-configuration assumptions on every
        chain before running.
    """

    def __init__(self, chains: Sequence[Union[ClosedChain, Sequence[tuple]]],
                 params: Parameters = DEFAULT_PARAMETERS,
                 engine: str = "kernel",
                 check_invariants: bool = False,
                 workers: Optional[int] = None,
                 keep_reports: bool = True,
                 validate_initial: bool = True,
                 backend: str = "auto"):
        if engine not in ENGINES:
            raise ValueError(f"unknown engine {engine!r}; choose from {ENGINES}")
        if backend not in BACKENDS:
            raise ValueError(
                f"unknown backend {backend!r}; choose from {BACKENDS}")
        if backend == "fleet" and engine != "kernel":
            raise ValueError(
                f"backend={backend!r} executes the kernel round pipeline; "
                f"engine {engine!r} needs backend='process'")
        if workers is not None and workers < 1:
            raise ValueError("workers must be >= 1")
        self.positions: List[List[tuple]] = [self._as_positions(c)
                                             for c in chains]
        self.params = params
        self.engine = engine
        self.backend = backend if backend != "auto" else (
            "fleet" if engine == "kernel" else "process")
        self.check_invariants = check_invariants
        self.workers = int(workers) if workers else 1
        self.keep_reports = keep_reports
        self.validate_initial = validate_initial
        #: occupancy telemetry of the last exhausted :meth:`run_stream`
        self.last_stream_stats: Optional[Dict[str, int]] = None
        #: the live in-process kernel of a running :meth:`run_stream`
        #: (None before the stream starts and on the pool path) — the
        #: service tier reads occupancy/topology telemetry off it for
        #: ``status`` frames (§2.15); reads are racy-but-monotone
        #: scalars, fine for metrics, not for control flow
        self.stream_kernel = None

    # ------------------------------------------------------------------
    @staticmethod
    def _as_positions(c) -> List[tuple]:
        """One chain input as a plain picklable position list.

        Lists of int tuples — the generator families' native output —
        pass through with a shallow copy; everything else (chains,
        iterables, NumPy scalars) normalises element-wise.
        """
        if isinstance(c, ClosedChain):
            return list(c.positions)
        if type(c) is list and (not c or (type(c[0]) is tuple
                                          and type(c[0][0]) is int)):
            return list(c)
        return [(int(x), int(y)) for x, y in c]

    # ------------------------------------------------------------------
    def _jobs(self, max_rounds: Optional[int]) -> List[_Job]:
        return [(pts, self.params, self.engine, self.check_invariants,
                 max_rounds, self.validate_initial, self.keep_reports)
                for pts in self.positions]

    def run(self, max_rounds: Optional[int] = None,
            progress: Optional[Callable[[int, int], None]] = None
            ) -> BatchResult:
        """Gather the whole fleet and return per-chain results in order.

        ``progress`` is called as ``progress(completed, total)`` as
        chains finish (per retirement batch on the in-process fleet
        backend, per completed chain otherwise).
        """
        t0 = time.perf_counter()
        total = len(self.positions)
        workers = min(self.workers, total) if total else 1
        if self.backend == "process":
            results = self._run_process(max_rounds, workers, progress, total)
        elif self.backend == "fleet" and workers <= 1:
            from repro.core.engine_fleet import FleetKernel
            fleet = FleetKernel(self.positions, params=self.params,
                                check_invariants=self.check_invariants,
                                keep_reports=self.keep_reports,
                                validate_initial=self.validate_initial)
            results = fleet.run(max_rounds=max_rounds, progress=progress)
        else:
            results = self._run_streamed(max_rounds, progress, total)
        return BatchResult(results=results,
                           wall_time=time.perf_counter() - t0,
                           workers=workers)

    # ------------------------------------------------------------------
    def run_stream(self, chains: Iterable = (),
                   slots: int = 256,
                   max_rounds: Optional[int] = None,
                   progress: Optional[Callable[[int, int], None]] = None,
                   wal_dir: Optional[str] = None,
                   snapshot_every: int = 512,
                   faults=None,
                   resume: bool = False,
                   on_error: str = "raise",
                   max_retries: int = 3,
                   backoff: float = 0.05
                   ) -> Iterator[Tuple[int, GatheringResult]]:
        """Stream chains through a bounded arena; yield as they finish.

        ``chains`` is any iterable of chains / position lists —
        consumed lazily, after any chains given to the constructor —
        and ``slots`` caps the *total* number of chains concurrently
        resident, so arbitrarily long streams run in bounded memory
        (retired slots and chain rows are reclaimed for the next
        admissions, DESIGN.md §2.11).  Yields ``(index, result)``
        pairs in completion order; ``index`` is the chain's stream
        position.
        Per-chain results are bit-identical to :meth:`run` /
        :func:`gather_batch` on the same inputs.

        ``workers >= 2`` runs ``slots // workers`` slots in each of
        ``workers`` kernel processes, on the path the input calls for.
        A finite iterable shards round-robin across the supervised
        pool — chain ``i`` goes to worker ``i % workers`` — with at
        most one in-flight chunk per worker plus one filling buffer,
        so the pipeline stays bounded end-to-end.  An admission source
        (§2.15) goes to the shard tier (§2.16): K long-lived workers
        fed over pipes, each entry placed on the least-loaded shard,
        with per-shard occupancy in :attr:`last_stream_stats`
        (``per_shard``) while the stream runs.  After exhaustion,
        :attr:`last_stream_stats` holds the occupancy telemetry (peak
        live chains / cells, admission and compaction counts).

        Streaming executes on the fleet backend only (the process
        backend has no shared arena to bound).

        Durability (§2.12): ``wal_dir`` write-ahead-logs the stream
        (one snapshot every ``snapshot_every`` rounds) so a killed run
        continues with ``resume=True`` — the recorded configuration
        (slots, params, faults, …) wins over the arguments, and
        ``chains`` must be the same stream the crashed run was fed.
        ``faults`` (a :class:`repro.core.faults.FaultPlan`) degrades
        the stream deterministically at intake on either worker
        topology, and mid-run (robot crash/restart) on either as well.
        With workers, ``wal_dir`` shards: each worker logs to
        ``wal_dir/shard-<k>/`` — a killed pool worker resumes from its
        own snapshot (supervision tier, §2.13), a respawned shard
        worker replays its re-fed chains into a fresh effect log;
        top-level ``resume=True`` stays in-process only.

        Supervision (§2.13): both multi-process paths survive worker
        deaths — lost pool chunks re-dispatch with bounded retry
        (``max_retries``) and exponential ``backoff``, a dead shard
        worker respawns and replays its in-flight chains.
        ``on_error="quarantine"`` additionally turns per-chain
        failures (poisoned inputs, invariant violations, chains that
        exhaust worker retries) into yielded
        :class:`~repro.core.results.ChainOutcome` error records;
        the strict default re-raises them (retry exhaustion as
        :class:`~repro.errors.WorkerCrashError`).  Injected mid-run
        fault *crashes* always yield ``ChainOutcome`` records — they
        are planned degradations, not errors.
        """
        if self.backend != "fleet":
            raise ValueError(
                "run_stream() executes on the fleet backend "
                f"(engine='kernel'); this simulator resolved to "
                f"backend={self.backend!r}")
        if slots < 1:
            raise ValueError("slots must be >= 1")
        if resume and wal_dir is None:
            raise ValueError("resume=True needs wal_dir")
        if resume and self.workers > 1:
            raise ValueError(
                "top-level resume is single-process (shard WALs already "
                "recover crashed workers under a live parent); set "
                "workers=1 to resume a killed run")
        if wal_dir is not None and self.workers > 1 and self.keep_reports:
            raise ValueError(
                "sharded WAL streaming cannot keep per-round reports "
                "(the shard results ledger archives scalar outcomes); "
                "set keep_reports=False")
        from repro.core.admission import is_admission_source
        source = is_admission_source(chains)
        if source:
            # admission-source protocol (§2.15): hand the source
            # through untouched so the kernel's pull loop sees its
            # ``take`` — wrapping it in itertools.chain would demote
            # it to a finite iterator and close the stream on the
            # first starvation
            if self.positions:
                raise ValueError(
                    "constructor chains cannot precede an admission "
                    "source; construct BatchSimulator([]) and submit "
                    "everything through the source")
            stream = chains
        else:
            stream = itertools.chain(iter(self.positions), iter(chains))
        if self.workers <= 1:
            yield from self._stream_inprocess(stream, slots, max_rounds,
                                              progress, wal_dir,
                                              snapshot_every, faults, resume,
                                              on_error)
        elif source:
            yield from self._stream_shards(stream, slots, max_rounds,
                                           progress, faults, wal_dir,
                                           snapshot_every, on_error)
        else:
            yield from self._stream_pool(stream, slots, max_rounds, progress,
                                         faults, wal_dir, snapshot_every,
                                         on_error, max_retries, backoff)

    def _stream_inprocess(self, stream, slots, max_rounds, progress,
                          wal_dir=None, snapshot_every=512, faults=None,
                          resume=False, on_error="raise"):
        import time as _time
        from repro.core.engine_fleet import FleetKernel
        t0 = _time.perf_counter()
        if resume:
            kernel, gen = FleetKernel.restore_stream(wal_dir, stream,
                                                     progress=progress)
            self.stream_kernel = kernel
            yield from gen
        else:
            kernel = FleetKernel([], params=self.params,
                                 check_invariants=self.check_invariants,
                                 keep_reports=self.keep_reports,
                                 validate_initial=self.validate_initial)
            wal = None
            if wal_dir is not None:
                from repro.io.wal import WalWriter
                wal = WalWriter(wal_dir)
            self.stream_kernel = kernel
            yield from kernel.run_stream(stream, slots=slots,
                                         max_rounds=max_rounds,
                                         progress=progress, release=True,
                                         wal=wal,
                                         snapshot_every=snapshot_every,
                                         faults=faults, on_error=on_error)
        arena = kernel.arena
        elapsed = _time.perf_counter() - t0
        self.last_stream_stats = {
            "workers": 1,
            "admitted": kernel.stream_stats["admitted"],
            "compactions": kernel.stream_stats["compactions"],
            "grows": kernel.stream_stats["grows"],
            "fault_crashed": kernel.stream_stats["fault_crashed"],
            "fault_perturbed": kernel.stream_stats["fault_perturbed"],
            "quarantined": kernel.stream_stats["quarantined"],
            "mid_crashed": kernel.stream_stats["mid_crashed"],
            "mid_restarted": kernel.stream_stats["mid_restarted"],
            "peak_live_chains": arena.peak_live,
            "peak_cells": arena.peak_cells,
            "arena_span": arena.span,
            "rounds": kernel.round_index,
            # incremental-topology telemetry (DESIGN.md §2.14): how
            # often the arena fell back to a full O(cells) rebuild vs
            # patching the damaged suffix, and how many cells those
            # patches spliced — the churn-efficiency signal the
            # stream_churn* bench rows record
            "topo_rebuilds": arena.topo_stats["rebuilds"],
            "topo_delta_ops": arena.topo_stats["delta_ops"],
            "topo_delta_cells": arena.topo_stats["delta_cells"],
            "rounds_per_s": round(kernel.round_index / elapsed, 1)
            if elapsed > 0 else 0.0,
        }

    def _stream_pool(self, stream, slots, max_rounds, progress, faults=None,
                     wal_dir=None, snapshot_every=512, on_error="raise",
                     max_retries=3, backoff=0.05):
        # the supervised pool engine (§2.13): shard-per-worker chunks,
        # crash recovery with bounded retry, poison isolation, and —
        # with wal_dir — per-shard WALs + results ledgers
        from repro.core.supervisor import pool_stream
        workers = min(self.workers, slots)
        stats: Dict[str, int] = {"workers": workers,
                                 "slots_per_worker": slots // workers}
        yield from pool_stream(stream, params=self.params, workers=workers,
                               slots=slots, max_rounds=max_rounds,
                               check_invariants=self.check_invariants,
                               keep_reports=self.keep_reports,
                               validate_initial=self.validate_initial,
                               faults=faults, wal_dir=wal_dir,
                               snapshot_every=snapshot_every,
                               on_error=on_error, max_retries=max_retries,
                               backoff=backoff, progress=progress,
                               stats=stats,
                               as_positions=self._as_positions)
        self.last_stream_stats = stats

    def _stream_shards(self, source, slots, max_rounds, progress,
                       faults=None, wal_dir=None, snapshot_every=512,
                       on_error="raise"):
        # the shard tier (§2.16): K long-lived kernel workers fed over
        # pipes.  The stats dict is installed *before* the stream runs
        # and updated live (per-shard occupancy and chains/s), so the
        # service tier can read it mid-stream.
        from repro.core.shards import shard_stream
        stats: Dict[str, object] = {}
        self.last_stream_stats = stats
        self.stream_kernel = None      # kernels live in the shard workers
        yield from shard_stream(source, params=self.params,
                                workers=self.workers, slots=slots,
                                max_rounds=max_rounds,
                                check_invariants=self.check_invariants,
                                keep_reports=self.keep_reports,
                                validate_initial=self.validate_initial,
                                faults=faults, wal_dir=wal_dir,
                                snapshot_every=snapshot_every,
                                on_error=on_error, progress=progress,
                                stats=stats)

    # ------------------------------------------------------------------
    def _run_streamed(self, max_rounds: Optional[int],
                      progress: Optional[Callable[[int, int], None]],
                      total: int) -> List[GatheringResult]:
        """Multi-process kernel batch: stream it with one slot per
        chain and reassemble the results in input order."""
        results: List[Optional[GatheringResult]] = [None] * total
        done = 0
        for idx, res in self.run_stream((), slots=max(1, total),
                                        max_rounds=max_rounds):
            results[idx] = res
            done += 1
            if progress is not None:
                progress(done, total)
        return results  # type: ignore[return-value]

    # ------------------------------------------------------------------
    def _run_process(self, max_rounds: Optional[int], workers: int,
                     progress: Optional[Callable[[int, int], None]],
                     total: int) -> List[GatheringResult]:
        """Process backend: one simulation per chain, any engine."""
        jobs = self._jobs(max_rounds)
        if workers > 1:
            from concurrent.futures import ProcessPoolExecutor, as_completed
            with ProcessPoolExecutor(max_workers=workers) as pool:
                if progress is None:
                    chunk = max(1, len(jobs) // (4 * workers))
                    from concurrent.futures import BrokenExecutor
                    try:
                        return list(pool.map(_gather_job, jobs,
                                             chunksize=chunk))
                    except (BrokenExecutor, EOFError, OSError) as exc:
                        from repro.errors import WorkerCrashError
                        raise WorkerCrashError(
                            f"pool worker died mid-batch: "
                            f"{type(exc).__name__}: {exc}") from exc
                results: List[Optional[GatheringResult]] = [None] * total
                futures = {pool.submit(_gather_job, job): k
                           for k, job in enumerate(jobs)}
                done = 0
                for fut in as_completed(futures):
                    k = futures[fut]
                    results[k] = _pool_result(fut, k)
                    done += 1
                    progress(done, total)
                return results  # type: ignore[return-value]
        results = []
        for k, job in enumerate(jobs):
            results.append(_gather_job(job))
            if progress is not None:
                progress(k + 1, total)
        return results


def gather_stream(chains: Iterable,
                  slots: int = 256,
                  params: Parameters = DEFAULT_PARAMETERS,
                  check_invariants: bool = False,
                  workers: Optional[int] = None,
                  keep_reports: bool = True,
                  max_rounds: Optional[int] = None,
                  validate_initial: bool = True,
                  progress=None,
                  wal_dir: Optional[str] = None,
                  snapshot_every: int = 512,
                  faults=None,
                  resume: bool = False,
                  on_error: str = "raise",
                  max_retries: int = 3,
                  backoff: float = 0.05
                  ) -> Iterator[Tuple[int, GatheringResult]]:
    """Stream a chain iterator through a bounded fleet (convenience API).

    Generator form of :func:`gather_batch` for workloads that do not
    fit — or should not sit — in memory at once: ``chains`` is
    consumed lazily, at most ``slots`` chains are resident in total
    (split ``slots // workers`` per worker kernel under a pool), and
    ``(index, result)`` pairs yield as chains finish.
    Kernel engine / fleet backend only (that is where the shared arena
    lives); per-chain results are bit-identical to
    :func:`gather_batch` on the same inputs.  ``wal_dir`` /
    ``snapshot_every`` / ``faults`` / ``resume`` pass through to
    :meth:`BatchSimulator.run_stream` (durability tier, §2.12), which
    also picks the multi-process path from ``chains``.
    """
    sim = BatchSimulator([], params=params, engine="kernel",
                         check_invariants=check_invariants,
                         workers=workers, keep_reports=keep_reports,
                         validate_initial=validate_initial)
    return sim.run_stream(chains, slots=slots, max_rounds=max_rounds,
                          progress=progress, wal_dir=wal_dir,
                          snapshot_every=snapshot_every, faults=faults,
                          resume=resume, on_error=on_error,
                          max_retries=max_retries, backoff=backoff)


def gather_batch(chains: Sequence[Union[ClosedChain, Sequence[tuple]]],
                 params: Parameters = DEFAULT_PARAMETERS,
                 engine: str = "kernel",
                 check_invariants: bool = False,
                 workers: Optional[int] = None,
                 keep_reports: bool = True,
                 max_rounds: Optional[int] = None,
                 validate_initial: bool = True,
                 backend: str = "auto",
                 progress=None) -> BatchResult:
    """Gather a fleet of chains (one-call convenience API)."""
    sim = BatchSimulator(chains, params=params, engine=engine,
                         check_invariants=check_invariants,
                         workers=workers, keep_reports=keep_reports,
                         validate_initial=validate_initial,
                         backend=backend)
    return sim.run(max_rounds=max_rounds, progress=progress)
