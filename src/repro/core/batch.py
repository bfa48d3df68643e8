"""Batch simulation: gather fleets of chains in one call.

Parameter sweeps (Table 1 statistics, ablation grids, baseline
comparisons, verification sweeps) all reduce to "gather many chains and
aggregate the outcomes".  :class:`BatchSimulator` is that layer: it
takes a list of initial chains, runs each through the engine of choice
and returns a :class:`BatchResult` keeping per-chain
:class:`~repro.core.simulator.GatheringResult` objects in input order.

Each engine has one batch path (DESIGN.md §2.10):

* ``engine="kernel"`` (the default) — the shared-array fleet kernel
  (:class:`repro.core.engine_fleet.FleetKernel`) advances every chain
  round-for-round in one process.  Per-chain results are bit-identical
  to ``engine="kernel"`` single runs; throughput on fleets of small
  chains is several times the per-chain path because per-round
  interpreter costs amortise across the whole batch.  With
  ``workers >= 2`` a batch is a stream: :meth:`BatchSimulator.run` is
  :meth:`~BatchSimulator.run_stream` over the batch with one slot per
  chain, collected in input order, so batches run on the shard tier
  and get its crash recovery.
* ``engine="reference"`` — the chains gather one after another,
  in-process, through :class:`~repro.core.simulator.Simulator`; the
  executable specification takes no ``workers``.

The streaming tier (DESIGN.md §2.11) lifts the fleet kernel from
one-shot to pipeline: :meth:`BatchSimulator.run_stream` /
:func:`gather_stream` consume an *iterator* of chains, keep the arena
at a bounded slot occupancy — retired slots are reclaimed for the
next admissions — and yield ``(index, result)`` pairs as chains
finish, so a million-chain sweep runs in constant memory.  With
``workers >= 2`` every stream — a finite iterable or a live admission
source (:mod:`repro.core.admission`, the service's queue) — runs on
the shard tier (:mod:`repro.core.shards`, DESIGN.md §2.16): K
long-lived kernel workers fed over pipes, dead workers respawned and
their chains re-fed.  Per-chain results are bit-identical to
:func:`gather_batch` on every path.

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
        variant) or ``"reference"`` (one chain after another,
        in-process).
    check_invariants:
        Per-round invariant checking for every simulation (slow).
    workers:
        Process count.  ``None`` or ``1`` runs in-process; ``>= 2``
        streams a kernel batch, a finite iterable or an admission
        source through the shard tier.  A reference batch takes no
        workers (``ValueError``).
    keep_reports:
        Keep per-round :class:`RoundReport` lists on each result.  Turn
        off for large sweeps that only need aggregate outcomes (and to
        bound pickling when ``workers > 1``).
    validate_initial:
        Enforce the paper's initial-configuration assumptions on every
        chain before running.
    backend:
        Accepted for compatibility: ``"auto"`` (default) or ``"fleet"``.
        It selects nothing — the engine picks the batch path — and any
        other value raises ``ValueError``.
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
        if backend not in ("auto", "fleet"):
            raise ValueError(
                f"unknown backend {backend!r}; the engine picks the batch "
                "path, so only 'auto' and 'fleet' are accepted")
        if workers is not None and workers < 1:
            raise ValueError("workers must be >= 1")
        if engine != "kernel" and workers is not None and workers > 1:
            raise ValueError(
                f"engine {engine!r} gathers in-process; workers shard "
                "kernel batches across processes")
        self.positions: List[List[tuple]] = [self._as_positions(c)
                                             for c in chains]
        self.params = params
        self.engine = engine
        self.check_invariants = check_invariants
        self.workers = int(workers) if workers else 1
        self.keep_reports = keep_reports
        self.validate_initial = validate_initial
        #: occupancy telemetry of the last exhausted :meth:`run_stream`
        self.last_stream_stats: Optional[Dict[str, int]] = None
        #: the live in-process kernel of a running :meth:`run_stream`
        #: (None before the stream starts and on the shards) — the
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
    def run(self, max_rounds: Optional[int] = None,
            progress: Optional[Callable[[int, int], None]] = None
            ) -> BatchResult:
        """Gather the whole fleet and return per-chain results in order.

        ``progress`` is called as ``progress(completed, total)`` as
        chains finish (per retirement batch on the in-process fleet
        kernel, per completed chain otherwise).
        """
        t0 = time.perf_counter()
        total = len(self.positions)
        workers = min(self.workers, total) if total else 1
        if self.engine != "kernel":
            results = self._run_reference(max_rounds, progress, total)
        elif workers <= 1:
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
                   on_error: str = "raise"
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

        ``workers >= 2`` runs the stream on the shard tier (§2.16):
        ``min(workers, slots)`` long-lived kernel processes with
        ``slots // workers`` slots each, fed over pipes, each entry
        placed on the least-loaded shard, with per-shard occupancy in
        :attr:`last_stream_stats` (``per_shard``) while the stream
        runs.  A finite iterable is a source that is closed from the
        start; an admission source (§2.15) stays open until closed.
        After exhaustion, :attr:`last_stream_stats` holds the
        occupancy telemetry (peak live chains / cells, admission and
        compaction counts).

        Streaming executes on the fleet kernel only (the reference
        engine has no shared arena to bound).

        Durability (§2.12): ``wal_dir`` write-ahead-logs the stream
        (one snapshot every ``snapshot_every`` rounds) so a killed run
        continues with ``resume=True`` — the recorded configuration
        (slots, params, faults, …) wins over the arguments, and
        ``chains`` must be the same stream the crashed run was fed.
        ``faults`` (a :class:`repro.core.faults.FaultPlan`) degrades
        the stream deterministically at intake on either worker
        topology, and mid-run (robot crash/restart) on either as well.
        With workers, ``wal_dir`` shards: each worker writes an effect
        log to ``wal_dir/shard-<k>/`` and a respawned worker replays
        its re-fed chains into a fresh one; top-level ``resume=True``
        stays in-process only.

        Supervision (§2.13): a dead shard worker respawns and replays
        its in-flight chains one at a time, so a chain that keeps
        killing its worker is convicted alone.
        ``on_error="quarantine"`` additionally turns per-chain
        failures (poisoned inputs, invariant violations, convicted
        worker killers) into yielded
        :class:`~repro.core.results.ChainOutcome` error records;
        the strict default re-raises them (a worker killer as
        :class:`~repro.errors.WorkerCrashError`).  Injected mid-run
        fault *crashes* always yield ``ChainOutcome`` records — they
        are planned degradations, not errors.
        """
        if self.engine != "kernel":
            raise ValueError(
                "run_stream() executes on the fleet kernel "
                f"(engine='kernel'), not engine={self.engine!r}")
        if slots < 1:
            raise ValueError("slots must be >= 1")
        if resume and wal_dir is None:
            raise ValueError("resume=True needs wal_dir")
        if resume and self.workers > 1:
            raise ValueError(
                "top-level resume is single-process (shard WALs are "
                "effect logs, never resumed); set workers=1 to resume a "
                "killed run")
        from repro.core.admission import is_admission_source
        if is_admission_source(chains):
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
        else:
            yield from self._stream_shards(stream, slots, max_rounds,
                                           progress, faults, wal_dir,
                                           snapshot_every, on_error)

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
            try:
                yield from kernel.run_stream(
                    stream, slots=slots, max_rounds=max_rounds,
                    progress=progress, release=True, wal=wal,
                    snapshot_every=snapshot_every, faults=faults,
                    on_error=on_error)
            finally:
                if wal is not None:
                    wal.close()
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

    def _stream_shards(self, stream, slots, max_rounds, progress,
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
        yield from shard_stream(stream, params=self.params,
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
    def _run_reference(self, max_rounds: Optional[int],
                       progress: Optional[Callable[[int, int], None]],
                       total: int) -> List[GatheringResult]:
        """Reference batch: one chain after another, in-process."""
        results = []
        for k, pts in enumerate(self.positions):
            result = Simulator(pts, params=self.params, engine=self.engine,
                               check_invariants=self.check_invariants,
                               validate_initial=self.validate_initial
                               ).run(max_rounds=max_rounds)
            if not self.keep_reports:
                result.reports = []
            results.append(result)
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
                  on_error: str = "raise"
                  ) -> Iterator[Tuple[int, GatheringResult]]:
    """Stream a chain iterator through a bounded fleet (convenience API).

    Generator form of :func:`gather_batch` for workloads that do not
    fit — or should not sit — in memory at once: ``chains`` is
    consumed lazily, at most ``slots`` chains are resident in total
    (split ``slots // workers`` per worker kernel on the shards), and
    ``(index, result)`` pairs yield as chains finish.
    Kernel engine only (that is where the shared arena lives);
    per-chain results are bit-identical to
    :func:`gather_batch` on the same inputs.  ``wal_dir`` /
    ``snapshot_every`` / ``faults`` / ``resume`` pass through to
    :meth:`BatchSimulator.run_stream` (durability tier, §2.12), which
    runs ``workers >= 2`` on the shard tier (§2.16).
    """
    sim = BatchSimulator([], params=params, engine="kernel",
                         check_invariants=check_invariants,
                         workers=workers, keep_reports=keep_reports,
                         validate_initial=validate_initial)
    return sim.run_stream(chains, slots=slots, max_rounds=max_rounds,
                          progress=progress, wal_dir=wal_dir,
                          snapshot_every=snapshot_every, faults=faults,
                          resume=resume, on_error=on_error)


def gather_batch(chains: Sequence[Union[ClosedChain, Sequence[tuple]]],
                 params: Parameters = DEFAULT_PARAMETERS,
                 engine: str = "kernel",
                 check_invariants: bool = False,
                 workers: Optional[int] = None,
                 keep_reports: bool = True,
                 max_rounds: Optional[int] = None,
                 validate_initial: bool = True,
                 progress=None) -> BatchResult:
    """Gather a fleet of chains (one-call convenience API)."""
    sim = BatchSimulator(chains, params=params, engine=engine,
                         check_invariants=check_invariants,
                         workers=workers, keep_reports=keep_reports,
                         validate_initial=validate_initial)
    return sim.run(max_rounds=max_rounds, progress=progress)
