"""The fleet kernel: the unified round pipeline in shared arrays.

The one array-native execution substrate (DESIGN.md §2.9/§2.10):
:class:`FleetKernel` advances a batch of chains round-for-round
inside one process — all per-robot state in one
:class:`~repro.core.arena.ChainArena`, all per-run state in one
chain-tagged :class:`~repro.core.runs.RunRegistry`, every pipeline
stage (merge detection and planning, run decisions, movement,
contraction, termination bookkeeping, run advancement and starts)
executing fleet-wide.  A fleet of 256 small chains presents the
decision stage with thousands of runs per round, which keeps it on
the NumPy path a per-chain loop could never reach; a *single-segment*
arena is the ``"kernel"`` engine (:mod:`repro.core.engine_kernel` is
a thin adapter), with per-chain tiers for the stages whose array
dispatch a quiet round of one chain cannot amortise: the tiers switch
on per-round activity (executed merge patterns, active runs), not on
chain count.

Per-chain results are **bit-identical** to running each chain through
``Simulator(engine="kernel")``: same rounds, same final positions,
same per-round :class:`~repro.core.events.RoundReport` content
(property-tested in ``tests/test_fleet_kernel.py``; the engine itself
conforms to the reference in ``tests/test_conformance.py``).  The
rare sub-cases run fleet-wide too: merge planning lifts over global
cells, ``INIT_CORNER`` corner-cuts, the run-start corner refinement
and the contraction survivor rule are all elementwise/segmented array
passes, and only the endpoint-grammar candidates drop to Python —
bounded by actual occurrences, not by fleet size.

Scheduling: FSYNC only (the fleet exists for batch throughput; SSYNC
ablations go through the reference pipeline's scheduler hook).
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.grid.lattice import Vec
from repro.core.admission import Starved
from repro.core.arena import ChainArena, append_cell
from repro.core.chain import CODE_TO_DIR, ClosedChain, MergeRecord
from repro.core.config import DEFAULT_PARAMETERS, Parameters
from repro.core.decisions_vectorized import (
    NUMPY_MIN_RUNS,
    FleetDecisions,
    decide_and_apply_fleet,
    decide_and_apply_scalar,
)
from repro.core.events import RoundReport
from repro.core.merges import plan_merges_arrays, segment_min_lookup
from repro.core.patterns import find_merge_patterns_np
from repro.core.results import ChainOutcome, GatheringResult
from repro.core.runs import (
    MODE_INIT_CORNER,
    MODE_NORMAL,
    MODE_PASSING,
    RunRegistry,
    StopReason,
)
from repro.core import invariants
from repro.errors import ChainError, InvariantViolation

_STOP_RUNNER_REMOVED = StopReason.RUNNER_REMOVED.value
_STOP_PASSING_TARGET = StopReason.PASSING_TARGET_REMOVED.value
_STOP_TRAVEL_TARGET = StopReason.TRAVEL_TARGET_REMOVED.value
_STOP_DUPLICATE = StopReason.DUPLICATE_DIRECTION.value

_CODE_TO_DIR = CODE_TO_DIR

#: Direction-code -> unit-vector table for the fleet planner.
_DIR_TABLE = np.array(CODE_TO_DIR, dtype=np.int64)

_EMPTY_CELLS = np.empty(0, dtype=np.int64)

#: Merge patterns executed in one round from which a single-segment
#: arena plans the next round's merges and scatters its moves on the
#: fleet array stages instead of the per-chain tier (DESIGN.md §2.9).
#: The measured break-even: the median per-round merge cost on the
#: seed-1 solo_mix round states, per-chain vs array tier, is 175 vs
#: 255 µs at 16-31 executed patterns and 350 vs 261 µs at 32-63.
#: Multi-chain fleets always run the array stages.
ARRAY_MIN_PATTERNS = 32


def as_chain(c: Union[ClosedChain, Sequence[Vec]],
             validate: bool) -> ClosedChain:
    """Normalise one stream entry for admission: a position sequence
    becomes a :class:`ClosedChain`, a chain is validated as an initial
    configuration when ``validate`` is set.  A rejected entry raises
    its exact per-chain error (the quarantine message)."""
    if not isinstance(c, ClosedChain):
        return ClosedChain(c, require_disjoint_neighbors=validate)
    if validate:
        c.validate(initial=True)
    return c


def admit_outcome(idx: int, exc: Exception) -> ChainOutcome:
    """The structured outcome of stream entry ``idx`` rejected at
    admission: its per-chain error class and message, quarantined."""
    return ChainOutcome(index=idx, error=type(exc).__name__,
                        message=str(exc), stage="admit", quarantined=True)


def intake_fault(faults, idx: int, entry, validate: bool, quarantine: bool,
                 stats: Dict[str, int]) -> Tuple[Optional[str], object]:
    """Apply a fault plan's intake decision to stream entry ``idx``.

    The one intake-fault policy of both schedulers — the in-process
    pull loop and the shard scheduler call it at pull time, under the
    consumed index.  Returns ``(kind, entry)``:
    ``kind`` is ``None`` (admit ``entry`` untouched), ``"crash"``
    (drop it; the index stays consumed), ``"perturb"`` (admit the
    returned mutated positions) or ``"quarantine"`` (``entry`` is the
    admit-stage :class:`ChainOutcome` to deliver in its place).  A
    perturb-selected entry is validated before it is mutated; an
    invalid one raises its per-chain error unless ``quarantine``.
    Drops and perturbations are counted in ``stats``; a quarantine is
    left to the caller's own accounting.
    """
    kind = faults.decide(idx)
    if kind == "crash":
        stats["fault_crashed"] += 1
        return kind, None
    if kind == "perturb":
        try:
            chain = as_chain(entry, validate)
        except (ChainError, ValueError, TypeError) as exc:
            if not quarantine:
                raise
            return "quarantine", admit_outcome(idx, exc)
        entry = faults.mutate(idx, chain.positions)
        stats["fault_perturbed"] += 1
    return kind, entry


def _id_space(c) -> int:
    """Slot cells a constructor member needs (its id space) — best
    effort before parsing: an unsized payload counts 0 and the intake
    grows the arena instead."""
    if isinstance(c, ClosedChain):
        return c._next_id
    try:
        return len(c)
    except TypeError:
        return 0


def parse_burst(payload_list: List[object], validate: bool):
    """Parse one intake burst into arrays (the batched-admission seam).

    Module-level so instrumentation can wrap it by name.

    Returns ``(payloads, arrs, code, starts, offs, ns, zcs, bad)``:
    ``arrs`` aligns with ``payloads`` (``None`` where the batch parse
    rejected the entry — those re-run through the per-chain
    constructor for its exact error); the remaining arrays describe
    the *good* subsequence segment-wise — concatenated edge ``code``
    with per-segment ``starts``/``offs`` bounds, lengths ``ns``,
    zero-edge counts ``zcs`` and the per-segment reject flag ``bad``
    (all ``None`` when nothing batch-parsed).
    """
    payloads: List[object] = []
    arrs: List[Optional[np.ndarray]] = []
    # fast path: a burst of plain point lists (the streaming tier's
    # normal diet) parses as ONE C-level array build over the
    # concatenated points; anything else — or a burst the combined
    # parse rejects — drops to the per-item parse below
    flat: Optional[List] = []
    counts: List[int] = []
    for payload in payload_list:
        if flat is not None and type(payload) is list and payload:
            flat.extend(payload)
            counts.append(len(payload))
        else:
            flat = None
    if flat is not None:
        try:
            combined = np.array(flat, dtype=np.int64)
        except (ValueError, TypeError):
            combined = None
        if combined is not None and combined.ndim == 2 \
                and combined.shape[1] == 2:
            payloads = list(payload_list)
            hi = 0
            for c in counts:
                lo = hi
                hi += c
                arrs.append(combined[lo:hi])
        else:
            flat = None
    if flat is None:
        for payload in payload_list:
            a = None
            if not isinstance(payload, ClosedChain):
                try:
                    if not isinstance(payload, np.ndarray):
                        payload = list(payload)
                    a = np.array(payload,
                                 dtype=np.int64).reshape(-1, 2)
                except (ValueError, TypeError):
                    a = None
                if a is not None and len(a) == 0:
                    a = None               # "empty chain": per-chain error
            payloads.append(payload)
            arrs.append(a)
    good = [i for i, a in enumerate(arrs) if a is not None]
    code = starts = offs = ns = zcs = bad = None
    if good:
        # the whole burst validates and edge-encodes as one
        # segmented array (same codes as encode_edges: -1 zero
        # edge, -2 broken), so per-chain work only remains for
        # rejected entries
        ns = np.fromiter((arrs[i].shape[0] for i in good), np.int64,
                         count=len(good))
        offs = np.cumsum(ns)
        starts = offs - ns
        pts = np.concatenate([arrs[i] for i in good]) \
            if len(good) > 1 else arrs[good[0]]
        succ = np.arange(1, len(pts) + 1, dtype=np.int64)
        succ[offs - 1] = starts            # cyclic wrap per segment
        e = pts[succ] - pts
        dx, dy = e[:, 0], e[:, 1]
        code = np.where(dy == 0, 1 - dx, 2 - dy)
        man = np.abs(dx) + np.abs(dy)
        code[man != 1] = -2
        code[man == 0] = -1
        zcs = np.add.reduceat((code == -1).astype(np.int64), starts)
        bad = np.add.reduceat((code == -2).astype(np.int64),
                              starts) > 0
        if validate:
            bad = bad | (zcs > 0) | (ns < 4) | (ns % 2 != 0)
    return payloads, arrs, code, starts, offs, ns, zcs, bad


def _sorted_unique(a: np.ndarray) -> np.ndarray:
    """Distinct values of an already-sorted array (boundary mask).

    The contraction's chain lists arrive sorted (zero cells ascend),
    so deduplication is one comparison — ``np.unique`` would re-sort
    and hash for nothing on the hot merge rounds.
    """
    if len(a) < 2:
        return a
    keep = np.empty(len(a), dtype=bool)
    keep[0] = True
    np.not_equal(a[1:], a[:-1], out=keep[1:])
    return a[keep]


def _fleet_merge_candidates(arena: ChainArena, eligible: np.ndarray,
                            k_max: int):
    """Merge-pattern candidates of every eligible chain, one RLE pass.

    Fleet rendering of the edge-code detector's run-length scan
    (:func:`repro.core.patterns._merge_patterns_rle`): run
    boundaries fall out of one ``codes[cell] != codes[prev]``
    comparison over the arena topology and the per-run spike/U-shape
    conditions are elementwise masks over the fleet-wide run arrays —
    no Python per chain, no pattern objects.  Returns ``(chain,
    first_black_local, k, direction_code)`` arrays (spikes then longs;
    the planner's decision content is order-independent), or ``None``
    when nothing fired.
    """
    cells, cell_chain, prev_pos, next_pos = arena.topology()
    if len(cells) == 0:
        return None
    cv = arena.codes[cells]
    starts_pos = np.flatnonzero(cv != cv[prev_pos])
    if len(starts_pos) == 0:
        return None
    run_chain = cell_chain[starts_pos]
    keep = eligible[run_chain]
    starts_pos = starts_pos[keep]
    if len(starts_pos) == 0:
        return None
    run_chain = run_chain[keep]
    run_codes = cv[starts_pos]
    local = cells[starts_pos] - arena.base[run_chain]
    n_of = arena.length[run_chain]

    # per-chain segmentation of the fleet-wide run list
    m = len(starts_pos)
    idx = np.arange(m, dtype=np.int64)
    first = np.empty(m, dtype=bool)
    first[0] = True
    np.not_equal(run_chain[1:], run_chain[:-1], out=first[1:])
    seg_first = np.flatnonzero(first)
    seg_last = np.empty(len(seg_first), dtype=np.int64)
    seg_last[:-1] = seg_first[1:] - 1
    seg_last[-1] = m - 1
    seg_id = np.cumsum(first) - 1
    prev_run = idx - 1
    prev_run[seg_first] = seg_last
    next_run = idx + 1
    next_run[seg_last] = seg_first
    runs_in_chain = (seg_last - seg_first + 1)[seg_id]

    prev_codes = run_codes[prev_run]
    next_codes = run_codes[next_run]
    k = (local[next_run] - local) % n_of + 1

    valid_prev = prev_codes >= 0
    valid = run_codes >= 0
    spike = valid_prev & valid & (run_codes == (prev_codes + 2) % 4)
    longm = (runs_in_chain >= 3) & valid_prev & valid \
        & (next_codes == (prev_codes + 2) % 4) \
        & (((run_codes ^ prev_codes) & 1) == 1) \
        & (k <= k_max) & (k + 2 <= n_of)

    sp = np.flatnonzero(spike)
    lg = np.flatnonzero(longm)
    if len(sp) == 0 and len(lg) == 0:
        return None
    pch = np.concatenate([run_chain[sp], run_chain[lg]])
    fb = np.concatenate([local[sp], local[lg]])
    kk = np.concatenate([np.ones(len(sp), dtype=np.int64), k[lg]])
    dcode = np.concatenate([run_codes[sp], next_codes[lg]])
    return pch, fb, kk, dcode


class FleetMergePlan:
    """One round's merge plan for the whole fleet (array form).

    Decision content per chain is identical to
    :func:`repro.core.merges.plan_merges_arrays` — short-pattern
    priority, Fig. 3 overlap resolution — computed fleet-wide over
    global arena cells.
    """

    __slots__ = ("part_flat", "hop_gidx", "hop_vec", "hop_chain",
                 "exec_count", "conflicts")

    def __init__(self, part_flat, hop_gidx, hop_vec, hop_chain, exec_count,
                 conflicts):
        #: participant mask by global arena cell
        self.part_flat = part_flat
        #: hopping blacks (global cells) and their (m, 2) hop vectors
        self.hop_gidx = hop_gidx
        self.hop_vec = hop_vec
        #: owning chain per hop
        self.hop_chain = hop_chain
        #: executing-pattern count per chain (round-report field)
        self.exec_count = exec_count
        #: chain -> frozen-robot count (impossible-overlap defensive path)
        self.conflicts = conflicts


def _fleet_plan_merges(arena: ChainArena, pch: np.ndarray, fb: np.ndarray,
                       kk: np.ndarray, dcode: np.ndarray) -> FleetMergePlan:
    """Fleet-wide merge planning over global cells.

    Lifts :func:`repro.core.merges._plan_arrays_np` to the arena:
    black expansion, the per-black minimum pattern length (the shared
    sort+reduceat fold, :func:`repro.core.merges.segment_min_lookup`),
    white-of-shorter-black cancellation and the Fig. 3a/3b hop
    resolution all run once for every pattern of every chain.  Segment
    bases keep chains disjoint, so the per-chain results match the
    per-chain planner exactly.
    """
    base = arena.base
    n = arena.length[pch]
    b = base[pch]
    m = len(pch)
    rep = np.repeat(np.arange(m, dtype=np.int64), kk)
    offs = np.arange(len(rep), dtype=np.int64) \
        - np.repeat(np.cumsum(kk) - kk, kk)
    black_g = b[rep] + (fb[rep] + offs) % n[rep]

    w0 = b + (fb - 1) % n
    w1 = b + (fb + kk) % n
    mk0, mk1 = segment_min_lookup(black_g, kk[rep], w0, w1)
    keep = ~((mk0 < kk) | (mk1 < kk))

    part_flat = arena.scratch.take("merge_part", arena.span, bool,
                                   fill=False)
    exec_count = np.bincount(pch[keep], minlength=len(arena.chains))
    if not keep.any():
        e = np.empty(0, dtype=np.int64)
        return FleetMergePlan(part_flat, e, e.reshape(0, 2), e,
                              exec_count, {})
    keep_rep = keep[rep]
    bidx = black_g[keep_rep]
    part_flat[bidx] = True
    part_flat[w0[keep]] = True
    part_flat[w1[keep]] = True

    # deduplicate (black cell, hop direction) pairs, then resolve each
    # robot by its distinct hop-direction count (Fig. 3a/3b); sorted
    # boundary masking beats np.unique's hash pass on these sizes
    key = _sorted_unique(np.sort(bidx * 4 + dcode[rep][keep_rep]))
    idx_u = key >> 2
    code_u = key & 3
    first = np.flatnonzero(np.r_[True, idx_u[1:] != idx_u[:-1]])
    counts = np.diff(np.append(first, len(idx_u)))

    conflicts: Dict[int, int] = {}
    single = first[counts == 1]
    hop_g = [idx_u[single]]
    hop_v = [_DIR_TABLE[code_u[single]]]
    double = first[counts == 2]
    if len(double):
        ca, cb = code_u[double], code_u[double + 1]
        perp = ((ca ^ cb) & 1) == 1
        hop_g.append(idx_u[double[perp]])
        hop_v.append(_DIR_TABLE[ca[perp]] + _DIR_TABLE[cb[perp]])
        for cell in idx_u[double[~perp]].tolist():   # impossible; freeze
            ci = int(arena.owner[cell])
            conflicts[ci] = conflicts.get(ci, 0) + 1
    for cell in idx_u[first[counts > 2]].tolist():
        ci = int(arena.owner[cell])
        conflicts[ci] = conflicts.get(ci, 0) + 1
    hop_gidx = np.concatenate(hop_g)
    hop_chain = arena.owner[hop_gidx]
    return FleetMergePlan(part_flat, hop_gidx, np.concatenate(hop_v),
                          hop_chain, exec_count, conflicts)


#: One round's run-start candidates in array form: ``(cells, chain,
#: robot_id, direction, mode_code, axis_code)``, reference-ordered.
FleetStarts = Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray,
                    np.ndarray, np.ndarray]


def _fleet_run_starts(arena: ChainArena,
                      eligible: Optional[np.ndarray] = None
                      ) -> Optional[FleetStarts]:
    """Every eligible chain's Fig. 5 run-start decisions, one fleet pass.

    Array rendering of :func:`repro.core.patterns.run_start_decisions`
    over every robot.  The window's shape conditions become edge-code
    comparisons gathered through the arena topology (axis-unit: a
    valid code; equal edges: equal codes; perpendicular: differing
    code parity), and the candidate refinement — the Fig. 5 (i)/(ii)
    corner grammar on the three codes behind each fired anchor — is a
    masked comparison over further topology gathers, evaluated only
    where the cheap base condition fired.  No per-candidate Python.
    ``eligible`` masks chains by id (mid-run admission staggers the
    start-interval phase across the fleet; ``None`` scans everyone).
    Returns ``(cells, chain, robot_id, direction, mode_code,
    axis_code)`` arrays in reference order — ascending chain,
    ascending index, direction +1 before -1 — with the robot captured
    at snapshot time (indices shift under the later contraction), or
    ``None`` when no start fires.
    """
    cells, cell_chain, prev_pos, next_pos = arena.topology()
    if len(cells) == 0:
        return None
    codes = arena.codes
    c0 = codes[cells]
    cm1 = c0[prev_pos]
    cm2 = cm1[prev_pos]
    cp1 = c0[next_pos]

    v0 = c0 >= 0
    vm1 = cm1 >= 0
    perp = ((c0 ^ cm1) & 1) == 1
    base_p = v0 & (cp1 == c0) & vm1 & perp
    base_m = vm1 & (cm2 == cm1) & v0 & perp
    if not (base_p.any() or base_m.any()):
        return None

    # refinement: Fig. 5(ii) needs two equal codes right behind the
    # anchor, Fig. 5(i) a perpendicular jog then the resumed axis
    cm3 = cm2[prev_pos]
    cp2 = cp1[next_pos]
    ii_p = base_p & (cm2 == cm1)
    i_p = base_p & ~ii_p & (cm2 >= 0) & (((cm2 ^ cm1) & 1) == 1) \
        & (cm3 == cm1)
    ii_m = base_m & (cp1 == c0)
    i_m = base_m & ~ii_m & (cp1 >= 0) & (((cp1 ^ c0) & 1) == 1) \
        & (cp2 == c0)

    fire_p = ii_p | i_p
    fire_m = ii_m | i_m
    if eligible is not None:
        ok = eligible[cell_chain]
        fire_p &= ok
        fire_m &= ok
    pi = np.flatnonzero(fire_p)
    mi = np.flatnonzero(fire_m)
    if len(pi) == 0 and len(mi) == 0:
        return None
    # reference order: ascending anchor, +1 before -1 at one anchor
    order = np.argsort(np.concatenate([2 * pi, 2 * mi + 1]), kind="stable")
    tpos = np.concatenate([pi, mi])[order]
    dirs = np.concatenate([np.ones(len(pi), dtype=np.int64),
                           np.full(len(mi), -1, dtype=np.int64)])[order]
    modes = np.concatenate([
        np.where(ii_p[pi], MODE_INIT_CORNER, MODE_NORMAL),
        np.where(ii_m[mi], MODE_INIT_CORNER, MODE_NORMAL)])[order]
    axc = np.concatenate([c0[pi], cm1[mi] ^ 2])[order]
    gcells = cells[tpos]
    return gcells, cell_chain[tpos], arena.ids[gcells], dirs, modes, axc


class FleetKernel:
    """Advance a fleet of chains round-for-round in shared arrays.

    Parameters
    ----------
    chains:
        Fleet members — :class:`ClosedChain` instances (adopted and
        mutated in place) or position sequences.
    params:
        Algorithm constants shared by the fleet.
    check_invariants:
        Per-chain model invariants after every round (slow; the
        property suite runs with it on).
    keep_reports:
        Build per-chain :class:`RoundReport` lists.  Off for pure
        throughput sweeps — the fleet then skips all per-chain report
        bookkeeping.
    validate_initial:
        Enforce the paper's initial-configuration assumptions.

    A *single-segment* arena (the fleet-of-one that backs
    ``Simulator(engine="kernel")``) runs per-chain tiers on its quiet
    rounds: the per-chain merge detector and movement scatter while
    the previous round executed fewer than :data:`ARRAY_MIN_PATTERNS`
    merge patterns, the scalar decision fold and run advance below
    :data:`~repro.core.decisions_vectorized.NUMPY_MIN_RUNS` active
    runs.  Multi-chain fleets always run the array stages.  Both
    tiers of every stage are behaviourally identical (the conformance
    suite pins each switch both ways).
    """

    def __init__(self, chains: Sequence[Union[ClosedChain, Sequence[Vec]]],
                 params: Parameters = DEFAULT_PARAMETERS,
                 check_invariants: bool = False,
                 keep_reports: bool = True,
                 validate_initial: bool = True):
        members = list(chains)
        self.params = params
        # sized to the members' id spaces, so the burst below packs
        # them back to back in input order with no grow or compaction
        self.arena = ChainArena(sum(_id_space(c) for c in members))
        self.registry = RunRegistry()
        self.registry.keep_stopped = False   # never read; skip view builds
        self.round_index = 0
        #: merge patterns the previous round executed: a single
        #: segment's merge and movement tier key on it.  Speed only,
        #: so snapshots do not carry it and a restored kernel starts
        #: on the per-chain tier
        self._prev_patterns = 0
        self._check = check_invariants
        self._keep = keep_reports
        self._validate = validate_initial
        #: per-chain initial length (``initial_n`` of the result)
        self._n0: List[int] = []
        #: global round each chain entered the fleet (0 for the initial
        #: members).  A chain's *local* round — what its own simulator
        #: would call ``round_index`` — is ``round_index - birth[ci]``;
        #: the start-interval phase, the round budget and the report
        #: numbering all run on local rounds, which is what makes
        #: mid-run admission bit-identical to a fresh single run.
        self.birth = np.empty(0, dtype=np.int64)
        #: per-chain round budgets from the parameters' stall bound; a
        #: ``max_rounds`` cap is applied at check time by the run that
        #: carries it, never written here (so one capped run cannot
        #: leak its cap into later admissions or runs)
        self._budgets = np.empty(0, dtype=np.int64)
        # amortised-doubling backing for the two admission-appended
        # columns (same pattern as the arena's per-chain tables)
        self._birth_buf = self.birth
        self._budget_buf = self._budgets
        self.reports: List[List[RoundReport]] = []
        self.results: List[Optional[GatheringResult]] = []
        #: internal chain row -> external stream position.  Rows are
        #: recycled after retirement (the per-chain tables stay sized
        #: to peak occupancy — million-chain streams must not decay as
        #: the tables grow), so the stream index a result is yielded
        #: under lives here; for the constructor members it is identity.
        self._ext_of: List[int] = []
        #: streaming telemetry (admissions, lifecycle churn, injected
        #: faults; peak occupancy lives on the arena)
        self.stream_stats: Dict[str, int] = {
            "admitted": 0, "compactions": 0, "grows": 0,
            "fault_crashed": 0, "fault_perturbed": 0,
            "quarantined": 0, "mid_crashed": 0, "mid_restarted": 0}
        #: per-size round-budget memo (admission hot path: a uniform
        #: stream re-derives the same handful of budgets all run)
        self._budget_memo: Dict[int, int] = {}
        #: pending mid-run fault triggers: chain row -> (kind, local
        #: round).  Registered at admission from the fault plan, fired
        #: at round boundaries, persisted in snapshots (a fired fault
        #: must not re-fire after resume).
        self._mid_faults: Dict[int, Tuple[str, int]] = {}
        #: external-index override for shard workers: when set,
        #: admissions consume global stream indices from this list
        #: instead of the local counter (shard tier, §2.16)
        self._ext_list: Optional[List[int]] = None
        self._ext_pos = 0
        #: active WAL writer and the round record under construction
        #: (durability tier, DESIGN.md §2.12; None outside WAL streams)
        self._wal = None
        self._wal_rec: Optional[Dict[str, list]] = None
        #: chains whose Python-side id list/index awaits _sync_ids —
        #: value None forces a full rebuild; a dict carries the round's
        #: splice plan (removed positions / survivor overwrites) so the
        #: sync can edit the live caches in place
        self._ids_dirty: Dict[int, Optional[dict]] = {}
        # the members enter like any stream burst (stream indices
        # 0..k-1), raising the first invalid member's error
        self._admit_batch(list(enumerate(members)), None, False)
        self._submitted = len(members)
        #: a fleet of one runs the single-segment tiers until the first
        #: stream admission
        self._single = len(members) == 1

    # ------------------------------------------------------------------
    def _register_rows(self, cis: List[int], ns: List[int],
                       exts: List[int]) -> None:
        """Fleet-side row bookkeeping for one reserved run.

        Recycled rows reset in place; fresh rows append (they come
        back from :meth:`ChainArena.reserve_batch` in ascending order,
        one past the current count each).  Every admitted chain starts
        at local round 0 with its size's round budget.
        """
        n0 = self._n0
        reports = self.reports
        results = self.results
        ext_of = self._ext_of
        memo = self._budget_memo
        rec: List[int] = []
        buds: List[int] = []
        for ci, n, ext in zip(cis, ns, exts):
            b = memo.get(n)
            if b is None:
                b = self.params.round_budget(n)
                memo[n] = b
            if ci < len(n0):               # recycled row: reset in place
                n0[ci] = n
                reports[ci] = []
                results[ci] = None
                ext_of[ci] = ext
                rec.append(ci)
                buds.append(b)
            else:
                n0.append(n)
                reports.append([])
                results.append(None)
                ext_of.append(ext)
                count = ci + 1
                self._birth_buf = append_cell(self._birth_buf, count,
                                              self.round_index)
                self._budget_buf = append_cell(self._budget_buf, count, b)
        count = len(n0)
        self.birth = self._birth_buf[:count]
        self._budgets = self._budget_buf[:count]
        if rec:
            idx = np.asarray(rec, dtype=np.int64)
            self.birth[idx] = self.round_index
            self._budgets[idx] = buds
        self.stream_stats["admitted"] += len(cis)

    # ------------------------------------------------------------------
    def _admit_batch(self, pulled: List[Tuple[int, object]],
                     slots_hint: Optional[int], quarantine: bool
                     ) -> Tuple[List[int], List[ChainOutcome]]:
        """Admit one intake burst: batched parse, validate and attach.

        The only way into the arena (DESIGN.md §2.14), for stream
        entries and constructor members alike.  ``pulled`` is the
        burst's ``(stream index, payload)`` list in stream order.  Raw
        point sequences parse, validate and edge-encode in one
        vectorised pass over the concatenated burst; ``ClosedChain``
        payloads are validated by their own
        :meth:`~ClosedChain.validate` and adopted in place, on a slot
        of their id space; entries the batch pass rejects re-run the
        per-chain constructor for its exact error.  Admissions reserve
        slots in stream order through
        :meth:`ChainArena.reserve_batch` — when no hole fits, the
        arena compacts (if the total free space would fit) or grows
        (``slots_hint`` provisions a uniform stream's whole working
        set — slot budget × this chain's size — in one step) — and
        land through :meth:`ChainArena.attach_batch`.  Under
        ``quarantine`` a rejected entry becomes an admit-stage outcome
        instead of raising.  Returns ``(admitted chain ids, quarantine
        outcomes)``.
        """
        arena = self.arena
        payloads, arrs, code, starts, offs, ns, zcs, bad = parse_burst(
            [payload for _ext, payload in pulled], self._validate)
        rejected: List[ChainOutcome] = []
        # admissible entries in stream order: (stream index, slot
        # cells, positions, codes, zero edges, chain to adopt or None)
        run: List[tuple] = []
        gpos = 0
        for i, (ext, _) in enumerate(pulled):
            a = arrs[i]
            if a is not None:
                j = gpos
                gpos += 1
                if not bad[j]:
                    run.append((ext, len(a), a, code[starts[j]:offs[j]],
                                int(zcs[j]), None))
                    continue
                payload = a                # rejected: re-run per chain
            else:
                payload = payloads[i]
            try:
                chain = as_chain(payload, self._validate)
            except (ChainError, ValueError, TypeError) as exc:
                if not quarantine:
                    raise
                rejected.append(admit_outcome(ext, exc))
                continue
            if chain._codes_cache is None \
                    or len(chain._codes_cache) != chain.n:
                # no live code cache: encode privately (never into the
                # buffer of an arena the chain was viewing before)
                chain._codes_buf = None
                chain._codes_cache = chain._codes_list_cache = None
                chain.edge_codes()
            run.append((ext, chain._next_id, chain._arr, chain._codes_cache,
                        chain._invalid_edges, chain))
        fresh: List[int] = []
        k = 0
        while k < len(run):
            tail = run[k:]
            got = arena.reserve_batch([e[1] for e in tail])
            if got:
                exts, _, pos, codes, zero, adopt = zip(*tail[:len(got)])
                arena.attach_batch(got, pos, codes, zero, adopt)
                self._register_rows(got, [len(p) for p in pos], exts)
                fresh.extend(got)
                k += len(got)
            if k < len(run):
                n = run[k][1]
                if arena.free_cells >= n:
                    arena.compact()
                    self.stream_stats["compactions"] += 1
                else:
                    want = arena.live_cells + n
                    if slots_hint is not None:
                        want = max(want, slots_hint * n)
                    # span + n guarantees the grown tail hole alone
                    # fits the chain even when the existing free space
                    # is fragmented
                    arena.grow(max(want, 2 * arena.span, arena.span + n))
                    self.stream_stats["grows"] += 1
        self._single = False
        return fresh, rejected

    # ------------------------------------------------------------------
    def run(self, max_rounds: Optional[int] = None,
            progress: Optional[Callable[[int, int], None]] = None
            ) -> List[GatheringResult]:
        """Gather the whole fleet; per-chain results in input order.

        Each chain retires exactly when its own
        ``Simulator(engine="kernel").run()`` would stop: the 2×2
        termination box observed at the start of a round, or its
        per-chain round budget (``max_rounds`` when given, the
        parameters' linear stall budget otherwise).  ``progress`` is
        called as ``progress(completed, total)`` whenever chains
        retire.
        """
        total = len(self.arena.chains)
        if total == 0:
            return []
        cb = None
        if progress is not None:
            def cb(done: int, _total: int) -> None:
                progress(done, total)
        for ci, res in self.run_stream((), max_rounds=max_rounds,
                                       progress=cb):
            self.results[ci] = res
        return list(self.results)

    # ------------------------------------------------------------------
    def run_stream(self, chains: Union[Sequence, object] = (),
                   slots: Optional[int] = None,
                   max_rounds: Optional[int] = None,
                   progress: Optional[Callable[[int, int], None]] = None,
                   release: bool = False,
                   wal=None,
                   snapshot_every: int = 512,
                   faults=None,
                   on_error: str = "raise",
                   ext_indices: Optional[Sequence[int]] = None,
                   _resume: Optional[tuple] = None):
        """Stream chains through the arena; yield results as chains finish.

        The scheduler core of the streaming tier (DESIGN.md §2.11): an
        admission queue fed by ``chains`` (any iterable — consumed
        lazily) is drained between rounds — whenever occupancy drops
        below the ``slots`` budget (``None``: admit everything
        immediately), the next chains are admitted into reclaimed
        arena slots, tagged with their birth round, and their first
        runs start in the next round's bulk start.  Chains already in
        the arena (constructor members) run ahead of the stream.

        Yields ``(chain_id, result)`` pairs the moment each chain
        retires; chain ids count up in admission order, so they are
        stream positions.  Per-chain results are bit-identical to
        ``gather_batch`` / ``Simulator(engine="kernel")`` on the same
        inputs.  ``release`` drops the kernel's own reference to each
        yielded chain and its reports (bounded-memory sweeps);
        ``progress`` is called as ``progress(done, total)`` after every
        scheduling pass that delivered anything, with ``total == -1``
        while the stream end is unknown.

        Durability (§2.12): ``wal`` — a :class:`repro.io.wal.WalWriter`
        — logs every round's effects and every admission/retire/yield,
        and writes a full state snapshot every ``snapshot_every``
        rounds, making the stream resumable after a hard kill via
        :meth:`FleetKernel.resume`.  ``faults`` — a
        :class:`repro.core.faults.FaultPlan` — degrades the stream
        deterministically at intake (entries dropped or perturbed by
        their stream index) and mid-run (seeded robot crash/restart at
        chain-local round boundaries).  ``_resume`` is the resume
        protocol's internal handoff (progress counters and the
        already-yielded skip set); use :meth:`resume`, never pass it
        directly.

        Supervision (§2.13): ``on_error="quarantine"`` turns per-chain
        failures — a poisoned input that fails chain validation at
        admission, or an :class:`InvariantViolation` pinned to one
        chain mid-round — into yielded
        :class:`~repro.core.results.ChainOutcome` error records
        instead of stream-aborting exceptions; mid-run fault crashes
        are always yielded that way.  ``ext_indices`` maps this
        kernel's admissions onto caller-chosen global stream indices
        (the shard workers, §2.16 — each worker's kernel sees only its
        share but logs, yields and fault-decides under global
        indices).  The list is read as the stream runs, not copied, so
        a caller feeding a live source may extend it as entries arrive.
        """
        if slots is not None and slots < 1:
            raise ValueError("slots must be >= 1")
        if snapshot_every < 1:
            raise ValueError("snapshot_every must be >= 1")
        if on_error not in ("raise", "quarantine"):
            raise ValueError("on_error must be 'raise' or 'quarantine'")
        quarantine = on_error == "quarantine"
        if ext_indices is not None:
            self._ext_list = ext_indices
            self._ext_pos = 0
        arena = self.arena
        it = iter(chains)
        # admission-source protocol (§2.15): a live source can answer
        # "nothing right now" (Starved) without ending the stream —
        # plain iterables keep the exact next()/StopIteration path
        take = getattr(it, "take", None)
        if take is not None and not callable(take):
            take = None
        self._wal = wal
        skip: set = set()
        consumed = 0
        exhausted = False
        done = 0
        if _resume is not None:
            exhausted, done, consumed, skip = _resume
        elif wal is not None:
            from repro.io.serialization import params_to_doc
            wal.append("stream_start",
                       params=params_to_doc(self.params),
                       slots=slots, max_rounds=max_rounds,
                       snapshot_every=snapshot_every, release=release,
                       keep_reports=self._keep,
                       check_invariants=self._check,
                       validate_initial=self._validate,
                       on_error=on_error,
                       faults=faults.to_doc() if faults is not None
                       else None)
        t0 = time.perf_counter()

        def snap() -> None:
            # full checkpoint at the between-round boundary: every
            # retire-eligible chain has retired and the arena either
            # sits at its slot budget or the stream is exhausted, so
            # resume re-enters the scheduling pass as a provable no-op
            wal.write_snapshot(self, {
                "consumed": consumed, "done": done, "exhausted": exhausted,
                "slots": slots, "max_rounds": max_rounds,
                "release": release, "snapshot_every": snapshot_every,
                "on_error": on_error})

        def emit(pairs):
            # idempotent yield protocol: one record per retire batch,
            # appended *after* the consumer has resumed past the whole
            # batch, so a logged yield implies the consumer fully
            # processed every listed result.  A crash between delivery
            # and record re-delivers that batch on resume (the
            # consumer side deduplicates by stream index, and
            # determinism makes re-deliveries bit-identical); a
            # recorded-but-undelivered result cannot exist.  Results
            # in the skip set were delivered before the crash — they
            # re-log (a later crash must still skip them) but are not
            # re-delivered.
            nonlocal done
            delivered: List[int] = []
            for ext, res in pairs:
                done += 1
                if ext in skip:
                    skip.discard(ext)
                else:
                    yield ext, res
                delivered.append(ext)
            if wal is not None and delivered:
                wal.append("yield", i=delivered)

        def quar(outcome):
            # poisoned stream entry: the input never became a live
            # chain, so quarantine consumes its stream index (gap,
            # never a shift) and yields a structured error outcome
            self.stream_stats["quarantined"] += 1
            if wal is not None:
                wal.append("quarantine", i=outcome.index,
                           r=self.round_index, stage="admit",
                           error=outcome.error)
            return emit([(outcome.index, outcome)])

        if wal is not None:
            snap()                         # baseline (or resume re-base)
        last_snap_round = self.round_index
        reported = done                    # ``done`` at the last progress
        while True:
            # --- between-round scheduling --------------------------------
            # one retire pass over the stepped fleet, then a top-up /
            # re-check loop over *fresh admissions only* (an admitted
            # chain that is already gathered — or has a zero budget —
            # retires at local round 0 without ever stepping, exactly
            # as its own simulator would)
            live = arena.live_indices()
            if len(live):
                live_ids, gathered = arena.gathered_mask()
                local = self.round_index - self.birth[live_ids]
                # a max_rounds cap applies for this run only — the
                # stored budgets stay the parameters' stall bounds
                retire = gathered | (local >= (self._budgets[live_ids]
                                               if max_rounds is None
                                               else max_rounds))
                if retire.any():
                    yield from emit(self._retire_batch(
                        live_ids[retire], gathered[retire], t0,
                        release=release))
            if self._mid_faults:
                pairs = self._apply_mid_faults()
                if pairs:
                    yield from emit(pairs)
            starved = False
            while True:
                fresh: List[int] = []
                while not exhausted and not starved \
                        and (slots is None or arena.n_live < slots):
                    # pull one intake burst, then admit it through one
                    # batched parse/validate/attach pass; quarantined
                    # and dropped entries free their budget for the
                    # outer loop's next burst
                    pulled: List[Tuple[int, object]] = []
                    while not exhausted and not starved and (
                            slots is None
                            or arena.n_live + len(pulled) < slots):
                        try:
                            if take is None:
                                nxt = next(it)
                            else:
                                # an open-but-empty source must not
                                # stall live chains: pull without
                                # blocking while anything can step or
                                # is already pulled, park only when
                                # the arena is fully drained
                                nxt = take(block=(arena.n_live == 0
                                                  and not pulled))
                        except Starved:
                            starved = True
                            break
                        except StopIteration:
                            exhausted = True
                            break
                        consumed += 1
                        # the stream index is consumed at pull time so
                        # every entry of the burst decides faults under
                        # its own index (dropped and quarantined
                        # entries keep theirs: gaps, never shifts)
                        if self._ext_list is None:
                            idx = self._submitted
                        else:
                            idx = int(self._ext_list[self._ext_pos])
                            self._ext_pos += 1
                        self._submitted += 1
                        if faults is not None:
                            kind, nxt = intake_fault(
                                faults, idx, nxt, self._validate,
                                quarantine, self.stream_stats)
                            if kind == "quarantine":
                                yield from quar(nxt)
                                continue
                            if kind is not None and wal is not None:
                                wal.append("fault", i=idx, kind=kind)
                            if kind == "crash":
                                continue
                        pulled.append((idx, nxt))
                    if not pulled:
                        continue
                    batch_fresh, rejected = self._admit_batch(
                        pulled, slots, quarantine)
                    if faults is not None:
                        for ci in batch_fresh:
                            mid = faults.decide_mid(self._ext_of[ci])
                            if mid is not None:
                                self._mid_faults[ci] = mid
                    fresh.extend(batch_fresh)
                    for outcome in rejected:
                        yield from quar(outcome)
                if wal is not None and fresh:
                    # one record per intake burst, not per chain
                    wal.append("admit", i=[self._ext_of[ci] for ci in fresh],
                               row=fresh, n=[self._n0[ci] for ci in fresh],
                               cursor=consumed)
                if not fresh:
                    break
                cis = np.asarray(fresh, dtype=np.int64)
                _, gathered = arena.gathered_mask(cis)
                # fresh admissions sit at local round 0; only a
                # non-positive budget can retire them unstepped
                if max_rounds is None:
                    retire = gathered | (self._budgets[cis] <= 0)
                else:
                    retire = gathered | np.full(len(cis), max_rounds <= 0)
                if not retire.any():
                    break
                yield from emit(self._retire_batch(cis[retire],
                                                   gathered[retire], t0,
                                                   release=release))
            # after every pass that delivered anything: an admit-stage
            # quarantine must not wait for an unrelated retirement
            if progress is not None and done != reported:
                reported = done
                progress(done, self._submitted if exhausted else -1)
            if wal is not None \
                    and self.round_index - last_snap_round >= snapshot_every:
                snap()
                last_snap_round = self.round_index
            if arena.n_live == 0:
                if exhausted:
                    break
                # an admission source is open but starved and nothing
                # is live: loop back into the (now blocking) pull
                # instead of ending the stream — unreachable for plain
                # iterables, whose pull loop only stops on exhaustion
                continue
            self._maybe_compact_registry()
            try:
                self._step_round()
            except InvariantViolation as exc:
                # the violation is detected after the round's effects
                # are applied and logged; when it can be pinned to one
                # chain, quarantine mode retires that chain as an error
                # outcome and the rest of the fleet streams on
                ci = getattr(exc, "chain_index", None)
                if not quarantine or ci is None or not arena.live[ci]:
                    raise
                self._mid_faults.pop(ci, None)
                pair = self._quarantine_chain(ci, type(exc).__name__,
                                              str(exc), "round")
                self.round_index += 1
                yield from emit([pair])
                continue
            self.round_index += 1
        if wal is not None:
            wal.append("stream_end", r=self.round_index, done=done)
        self._wal = None

    # ------------------------------------------------------------------
    @classmethod
    def restore_stream(cls, wal_dir: str,
                       chains: Union[Sequence, object] = (),
                       progress: Optional[Callable[[int, int], None]] = None
                       ) -> Tuple["FleetKernel", object]:
        """Rebuild a crashed stream from its WAL directory.

        Restores the newest snapshot, fast-forwards the (freshly
        re-created) ``chains`` iterator to the recorded admission
        cursor and returns ``(kernel, generator)``.  On its first step
        the generator truncates any torn log tail and appends a
        ``resume`` record; it then continues the stream through the
        one engine code path, so the continuation is bit-identical to
        the uninterrupted run; results delivered before the crash are
        re-executed but not re-yielded (yield records after the
        snapshot form the skip set).  It closes its log writer when it
        is exhausted or abandoned.
        """
        from repro.core.faults import FaultPlan
        from repro.io.wal import WalReader, load_fleet_snapshot
        from repro.errors import WalError

        reader = WalReader(wal_dir)
        start = reader.stream_start()
        snap = reader.last_snapshot()
        if snap is None:
            raise WalError(f"{wal_dir}: no usable snapshot to resume from")
        kernel, stream = load_fleet_snapshot(reader.snapshot_path(snap))
        skip = reader.yields_after(snap["lsn"])
        consumed = int(stream["consumed"])
        it = iter(chains)
        for k in range(consumed):
            try:
                next(it)
            except StopIteration:
                raise WalError(
                    f"{wal_dir}: chain stream ended after {k} entries but "
                    f"the log recorded {consumed} consumed — resume needs "
                    f"the same stream the crashed run was fed") from None
        fd = start.get("faults")
        faults = FaultPlan.from_doc(fd) if fd else None
        mr = stream["max_rounds"]

        def continued():
            writer = reader.continue_writing()
            try:
                writer.append("resume", snapshot_lsn=snap["lsn"],
                              r=kernel.round_index)
                yield from kernel.run_stream(
                    it, slots=stream["slots"],
                    max_rounds=None if mr is None else int(mr),
                    progress=progress, release=bool(stream["release"]),
                    wal=writer, snapshot_every=int(stream["snapshot_every"]),
                    faults=faults,
                    on_error=str(stream.get("on_error", "raise")),
                    _resume=(bool(stream["exhausted"]), int(stream["done"]),
                             consumed, skip))
            finally:
                writer.close()
        return kernel, continued()

    @classmethod
    def resume(cls, wal_dir: str, chains: Union[Sequence, object] = (),
               progress: Optional[Callable[[int, int], None]] = None):
        """Continue an interrupted WAL stream; yields the remaining
        ``(stream_index, result)`` pairs exactly as the uninterrupted
        ``run_stream`` would have from the crash point onward.
        """
        return cls.restore_stream(wal_dir, chains, progress=progress)[1]

    # ------------------------------------------------------------------
    def _maybe_compact_registry(self) -> None:
        """Reclaim dead registry rows once admission churn dominates.

        Run rows are append-only within a round; a long stream would
        grow the matrix with every run ever started.  Between rounds —
        when no stage holds row numbers — the live rows re-pack to the
        prefix (relative age preserved, so behaviour is unchanged),
        keeping registry memory bounded by the live fleet.
        """
        reg = self.registry
        if reg.keep_stopped or reg.stopped:
            return                         # engine surface holds views
        if reg._count >= 1024 and len(reg._active) * 4 <= reg._count:
            reg.compact_rows()

    # ------------------------------------------------------------------
    def _retire_batch(self, cis: np.ndarray, gathered: np.ndarray,
                      t0: float, release: bool = False
                      ) -> List[Tuple[int, GatheringResult]]:
        """Retire finished chains: one registry drop, one arena pass.

        All finishing chains' registry rows leave in a single masked
        ``drop_slots`` and their arena slots return to the free list in
        one :meth:`ChainArena.retire_batch` sweep — the per-chain work
        left is exactly the result materialisation.  ``release`` drops
        the kernel's references to the retired chain and its report
        list (the stream consumer owns the yielded result).
        """
        arena = self.arena
        registry = self.registry
        cis = np.asarray(cis, dtype=np.int64)
        if self._mid_faults:
            for ci in cis.tolist():
                self._mid_faults.pop(ci, None)
        slots = registry.active_slots()
        if len(slots):
            drop = slots[np.isin(registry.chain_col[slots], cis)]
            if len(drop):
                registry.drop_slots(drop)
        wall = time.perf_counter() - t0
        out: List[Tuple[int, GatheringResult]] = []
        for ci, g in zip(cis.tolist(), np.asarray(gathered).tolist()):
            self._sync_ids(ci)
            chain = arena.chains[ci]
            # the fleet-wide movement scatter leaves chain-level caches
            # to settle here, once per chain lifetime, not per round
            chain._pos_cache = None
            chain._codes_view_cache = None
            chain._codes_list_cache = None
            chain._invalid_edges = -1
            result = GatheringResult(
                gathered=bool(g),
                rounds=self.round_index - int(self.birth[ci]),
                initial_n=self._n0[ci],
                final_n=chain.n,
                final_positions=chain.positions,
                params=self.params,
                reports=self.reports[ci],
                trace=None,
                stalled=not g,
                wall_time=wall,
            )
            out.append((self._ext_of[ci], result))
            if release:
                self.reports[ci] = []
                arena.chains[ci] = None    # type: ignore[call-overload]
        if self._wal is not None:
            self._wal.append("retire", r=self.round_index,
                             c=cis.tolist(),
                             i=[self._ext_of[ci] for ci in cis.tolist()],
                             g=np.asarray(gathered, np.int64).tolist())
        arena.retire_batch(cis)
        return out

    # ------------------------------------------------------------------
    def _drop_runs(self, ci: int) -> None:
        """Drop every registry run riding chain ``ci`` (one masked pass)."""
        registry = self.registry
        slots = registry.active_slots()
        if len(slots):
            drop = slots[registry.chain_col[slots] == ci]
            if len(drop):
                registry.drop_slots(drop)

    def _quarantine_chain(self, ci: int, error: str, message: str,
                          stage: str) -> Tuple[int, ChainOutcome]:
        """Force-retire a live chain as a structured error outcome.

        The supervision tier's eviction path (§2.13): the chain's runs
        leave the registry, its arena slot returns to the free list and
        a ``quarantine`` record pins the eviction in the WAL — all
        deterministic, so resume and audit regenerate the exact same
        eviction.  Returns the ``(stream_index, outcome)`` pair for the
        idempotent yield protocol.
        """
        arena = self.arena
        self._drop_runs(ci)
        self._ids_dirty.pop(ci, None)
        ext = self._ext_of[ci]
        self.stream_stats["quarantined"] += 1
        if self._wal is not None:
            self._wal.append("quarantine", i=ext, r=self.round_index,
                             c=ci, stage=stage, error=error)
        self.reports[ci] = []
        arena.chains[ci] = None            # type: ignore[call-overload]
        arena.retire_batch(np.asarray([ci], dtype=np.int64))
        return ext, ChainOutcome(index=ext, error=error, message=message,
                                 stage=stage, quarantined=True)

    def _apply_mid_faults(self) -> List[Tuple[int, ChainOutcome]]:
        """Fire due mid-run robot faults at the between-round boundary.

        A chain whose local round has reached its seeded trigger either
        *crashes* (the whole chain of robots dies: quarantined as an
        error outcome) or *restarts* (volatile run state wiped, birth
        re-based so the gathering restarts from the current
        configuration).  Both are logged, so resume and audit replay
        them; entries for chains that retired normally first are
        dropped.
        """
        arena = self.arena
        out: List[Tuple[int, ChainOutcome]] = []
        for ci, (kind, trig) in sorted(self._mid_faults.items()):
            if not arena.live[ci]:
                del self._mid_faults[ci]
                continue
            local = self.round_index - int(self.birth[ci])
            if local < trig:
                continue
            del self._mid_faults[ci]
            if kind == "mid_restart":
                self._drop_runs(ci)
                self.birth[ci] = self.round_index
                self.stream_stats["mid_restarted"] += 1
                if self._wal is not None:
                    self._wal.append("fault", i=self._ext_of[ci],
                                     kind="mid_restart",
                                     r=self.round_index, c=ci)
                continue
            self.stream_stats["mid_crashed"] += 1
            out.append(self._quarantine_chain(
                ci, "FaultCrash",
                f"injected mid-run crash at local round {trig}", "fault"))
        return out

    # ------------------------------------------------------------------
    def _step_round(self) -> None:
        """One FSYNC round for every live chain (kernel-engine order).

        Each stage picks its own tier (per-chain or fleet arrays) from
        the round's activity; see :meth:`_chain_tier`, :meth:`_decide`
        and :meth:`_advance_stage`.
        """
        arena = self.arena
        round_index = self.round_index
        keep = self._keep
        if self._wal is not None:
            # one delta record per round, filled in by the pipeline
            # stages: mv = [chain, robot, dx, dy]*, rm = [chain,
            # removed_id]*, st = [chain, robot, dir, mode]*, tm =
            # [chain, stop_code]* — the audit form of the round's
            # effects (resume re-executes; it does not apply these).
            # All four ship as pack_ints blobs, not JSON int lists:
            # per-integer encoding dominated the WAL's overhead.
            self._wal_rec = {"mv": (), "rm": [], "st": (), "tm": ()}
        chains = arena.chains
        if self._single:
            # the per-chain tiers (detector, scalar decisions, movement
            # scatter, run advance) read the chain's Python-side views;
            # settle the deferred id bookkeeping first (no-op on
            # contraction-free rounds)
            self._sync_ids(0)
        live = arena.live_indices()
        live_list = live.tolist()
        n_before = dict(zip(live_list, arena.length[live].tolist()))
        if self._check:
            for ci in list(self._ids_dirty):
                self._sync_ids(ci)
            before = {ci: (chains[ci].ids_array().copy(),
                           chains[ci].positions_array().copy())
                      for ci in live_list}

        # (chain, stop-reason code) tallies for the round reports
        terminated: List[Tuple[int, int]] = []

        # 1-2. merge plan --------------------------------------------------
        plan = self._merge_stage(live)
        part_flat = plan.part_flat if plan is not None else None

        # 3, 5-6. run decisions, fused with their registry application ------
        dec = self._decide(part_flat, round_index)
        terminated.extend(dec.terminated)

        # 4. run starts ----------------------------------------------------
        starts = self._start_stage(live, part_flat)

        # 6'. simultaneous movement: merge hops + accepted runner hops ------
        move_g, move_c, zero_cells = self._move_stage(plan, dec)
        if self._single:
            # this round's executed patterns pick the next round's merge
            # and movement tier
            self._prev_patterns = int(plan.exec_count[0]) \
                if plan is not None else 0

        # 7-8. contraction + run/target removal, fleet-wide -----------------
        merges_by_chain: Dict[int, List[MergeRecord]] = {}
        if len(zero_cells):
            self._contract_fleet(zero_cells, move_g, move_c,
                                 merges_by_chain, terminated)

        # 9. move surviving runs one robot along their direction ------------
        moved, crowded = self._advance_stage(zero_cells)
        # contraction can push two same-direction runs onto one robot; a
        # robot cannot tell them apart, so the younger run dissolves.
        if crowded:
            terminated.extend(self._dissolve_duplicates(round_index))

        # 10. create the new runs decided in step 4 -------------------------
        started: Dict[int, int] = {}
        if starts is not None:
            self._apply_starts(starts, round_index, started)

        # 11. reports -------------------------------------------------------
        if keep:
            self._build_reports(live_list, n_before, plan, merges_by_chain,
                                move_c, terminated, dec.conflicts, started,
                                round_index)

        # 12. round delta record (durability tier) --------------------------
        # appended *before* the invariant pass: the round's effects are
        # already applied, so the log must carry them even when a check
        # below fails and the offending chain is quarantined (§2.13) —
        # a torn audit trail would make the violation unreproducible
        if self._wal_rec is not None:
            from repro.io.wal import pack_ints
            rec = self._wal_rec
            self._wal_rec = None
            self._wal.append(
                "round", r=round_index,
                mv=pack_ints(rec["mv"]), rm=pack_ints(rec["rm"]),
                st=pack_ints(rec["st"]),
                tm=pack_ints([x for t in terminated for x in t]))

        # 13. invariants ----------------------------------------------------
        if self._check:
            self._check_invariants(live_list, before, moved)

    # ------------------------------------------------------------------
    def _chain_tier(self) -> bool:
        """Whether this round plans merges and scatters moves on the
        per-chain tier: a single-segment arena whose previous round
        executed fewer than :data:`ARRAY_MIN_PATTERNS` merge patterns.
        Every other round runs the fleet array stages."""
        return self._single and self._prev_patterns < ARRAY_MIN_PATTERNS

    def _merge_stage(self, live: np.ndarray) -> Optional[FleetMergePlan]:
        """Merge detection and planning (kernel steps 1-2), per tier.

        The array tier is the fleet-wide RLE detection and planning
        (the kernel engine's n >= 4 gate applies per chain).  A
        single segment's quiet rounds route through the per-chain
        detector and planner (:meth:`_merge_plan_single`): same
        plan, a fraction of the dispatch on a handful of patterns.
        """
        arena = self.arena
        k_max = self.params.effective_k_max
        if self._chain_tier():
            return self._merge_plan_single(k_max) \
                if arena.length[0] >= 4 else None
        eligible = np.zeros(len(arena.chains), dtype=bool)
        eligible[live] = arena.length[live] >= 4
        if not eligible.any():
            return None
        cand = _fleet_merge_candidates(arena, eligible, k_max)
        return _fleet_plan_merges(arena, *cand) if cand is not None else None

    def _start_stage(self, live: np.ndarray,
                     part_flat: Optional[np.ndarray]
                     ) -> Optional[FleetStarts]:
        """Run-start candidates (kernel step 4) every L-th *local* round.

        Mid-run admission staggers the phase per chain, so a fleet's
        scan carries a chain eligibility mask whenever the fleet is out
        of phase; a single segment is born at round 0, so its phase is
        the global round's.
        """
        interval = self.params.start_interval
        mask = None
        if self._single:
            if self.round_index % interval:
                return None
        else:
            ph = (self.round_index - self.birth[live]) % interval == 0
            if not ph.any():
                return None
            if not ph.all():
                mask = np.zeros(len(self.arena.chains), dtype=bool)
                mask[live[ph]] = True
        starts = _fleet_run_starts(self.arena, mask)
        if starts is not None and part_flat is not None:
            # merge participants never start runs (Table 1.3); the
            # candidate cells are snapshot cells, so the mask applies
            # by direct global-cell lookup
            keep = ~part_flat[starts[0]]
            if not keep.all():
                starts = tuple(s[keep] for s in starts)
        return starts

    def _move_stage(self, plan: Optional[FleetMergePlan],
                    dec: FleetDecisions):
        """Simultaneous movement (kernel step 6'), per tier.

        The per-chain tier scatters through the chain's adaptive
        incremental-code path (scalar below ~32 movers), which keeps
        its Python-side caches coherent; the array tier is the
        arena-wide scatter, after which a single segment's tuple and
        code-list caches are stale and dropped.  Returns ``(move_g,
        move_c, zero_cells)``: the movers' global cells and chains and
        the cells of the edges that became zero.
        """
        arena = self.arena
        pidx = plan.hop_gidx if plan is not None else _EMPTY_CELLS
        didx = dec.move_gidx
        if not len(pidx):
            move_g, move_v = didx, dec.move_deltas
            move_c = dec.move_chain
        elif not len(didx):
            move_g, move_v, move_c = pidx, plan.hop_vec, plan.hop_chain
        else:
            move_g = np.concatenate(
                [pidx, np.asarray(didx, dtype=np.int64)])
            move_v = np.concatenate(
                [plan.hop_vec,
                 np.asarray(dec.move_deltas, dtype=np.int64).reshape(-1, 2)])
            move_c = np.concatenate(
                [plan.hop_chain, np.asarray(dec.move_chain, dtype=np.int64)])
        if self._wal_rec is not None and len(move_g):
            # captured before the scatter: ids are only rewritten by
            # the later contraction, and a single segment's chain
            # indices are its global cells, so arena.ids[move_g] is
            # the mover's robot id on both tiers
            mg = np.asarray(move_g, dtype=np.int64)
            self._wal_rec["mv"] = np.column_stack(
                [np.asarray(move_c, dtype=np.int64), arena.ids[mg],
                 np.asarray(move_v, dtype=np.int64).reshape(-1, 2)]
            ).ravel()
        if self._chain_tier():
            if not len(move_g):
                return move_g, move_c, _EMPTY_CELLS
            chain0 = arena.chains[0]
            chain0.apply_moves_indexed(move_g, move_v)
            # the dense scatter defers its re-encode; settle it into the
            # arena's code slice before any fleet-wide read
            chain0.edge_codes()
            zero_cells = np.flatnonzero(chain0._codes_cache == -1) \
                if chain0._invalid_edges else _EMPTY_CELLS
            return move_g, move_c, zero_cells
        move_g = np.asarray(move_g, dtype=np.int64)
        move_c = np.asarray(move_c, dtype=np.int64)
        zero_cells = arena.apply_moves(
            move_g, np.asarray(move_v, dtype=np.int64).reshape(-1, 2), move_c)
        if self._single and len(move_g):
            chain0 = arena.chains[0]
            chain0._pos_cache = None
            chain0._codes_list_cache = None
        return move_g, move_c, zero_cells

    def _advance_stage(self, zero_cells: np.ndarray):
        """Move surviving runs one robot along their direction (step 9).

        Adaptive like the decision stage: on contraction-free rounds of
        a single-segment arena with few runs, the chain's id views are
        still fresh and a scalar sweep beats the array dispatch.
        Returns ``(moved, crowded)`` (``moved`` only under invariant
        checking).
        """
        registry = self.registry
        if self._single and not self._check and not len(zero_cells) \
                and len(registry._active) < NUMPY_MIN_RUNS:
            chain0 = self.arena.chains[0]
            return None, registry.advance_active(chain0.ids_view(),
                                                 chain0.index_map())
        arena = self.arena
        return registry.advance_fleet(
            arena.base, arena.length, arena.ids, arena.index,
            collect_moved=self._check, scratch=arena.scratch)

    # ------------------------------------------------------------------
    def _merge_plan_single(self, k_max: int) -> Optional[FleetMergePlan]:
        """Merge stage of a single-segment arena via the per-chain path.

        Runs the edge-code detector
        (:func:`~repro.core.patterns.find_merge_patterns_np`) and the
        shared :func:`~repro.core.merges.plan_merges_arrays` planner over the
        one chain (identical plans to the fleet-wide scan, pinned by
        the conformance suite) and lifts the result into fleet terms —
        a single segment's chain indices are its global cells, so the
        lift is a handful of wrappers, not a copy.
        """
        chain = self.arena.chains[0]
        patterns = find_merge_patterns_np(chain.positions_view(), k_max,
                                          codes=chain.edge_codes(),
                                          codes_list=chain.edge_codes_list())
        if not patterns:
            return None
        kplan = plan_merges_arrays(patterns, chain.n)
        hop_gidx = np.asarray(kplan.hop_idx, dtype=np.int64)
        hop_vec = np.asarray(kplan.hop_vec,
                             dtype=np.int64).reshape(-1, 2)
        exec_count = np.array([len(kplan.patterns)], dtype=np.int64)
        conflicts = {0: kplan.conflicts} if kplan.conflicts else {}
        return FleetMergePlan(kplan.part_mask, hop_gidx, hop_vec,
                              np.zeros(len(hop_gidx), dtype=np.int64),
                              exec_count, conflicts)

    # ------------------------------------------------------------------
    def _decide(self, part_flat: Optional[np.ndarray],
                round_index: int) -> FleetDecisions:
        """Decision stage, adaptive on single-segment arenas.

        A fleet of one small chain (the kernel engine's substrate) has
        too few runs to amortise the NumPy dispatch; below the
        crossover it runs the scalar fold and lifts the outcome into
        fleet terms (a single segment's chain indices *are* its global
        cells).  Every multi-chain fleet takes the NumPy path.
        """
        registry = self.registry
        n_runs = len(registry._active)
        if not (self._single and 0 < n_runs < NUMPY_MIN_RUNS):
            return decide_and_apply_fleet(self.arena, registry, self.params,
                                          part_flat, round_index)
        # chain views are coherent: _step_round synced the segment
        adec = decide_and_apply_scalar(self.arena.chains[0], registry,
                                       self.params, part_flat, round_index)
        terminated = [(0, code) for code, count in adec.terminated.items()
                      for _ in range(count)]
        conflicts = {0: adec.runner_hop_conflicts} \
            if adec.runner_hop_conflicts else {}
        return FleetDecisions(terminated, adec.move_idx, adec.move_deltas,
                              [0] * len(adec.move_idx), conflicts)

    # ------------------------------------------------------------------
    def _sync_ids(self, ci: int) -> None:
        """Re-point a chain's Python-side state at its (shrunk) segment.

        The fleet contraction defers all O(n) per-chain bookkeeping —
        the id list/index rebuild *and* the view/cache re-pointing
        (the flat tables are already exact); it is required only where
        per-chain Python state is actually read: every round of a
        single-segment arena, retirement, and invariant checking.
        ``_invalid_edges`` settles to 0 because sync points sit at
        round starts, where the previous round's contraction has
        cleared every zero edge.

        When the contraction recorded a *splice plan* (single-segment
        arenas do — one round's worth of removed positions and
        survivor overwrites), the live tuple/code/id caches are edited
        in place: a handful of C-level ``del``/assignments instead of
        three O(n) list rebuilds per merge round, which is what keeps
        the merge-dense single-chain path at the old spliced-chain
        speed.
        """
        info = self._ids_dirty.pop(ci, False)
        if info is False:
            return
        arena = self.arena
        chain = arena.chains[ci]
        b = int(arena.base[ci])
        n = int(arena.length[ci])
        chain._arr = arena.pos[b:b + n]
        buf = arena.codes[b:b + n]
        chain._codes_buf = buf
        chain._codes_cache = buf
        chain._codes_view_cache = None
        chain._invalid_edges = 0
        if info is not None:
            drop_pos = info["drop_pos"]
            cl = chain._codes_list_cache
            if cl is not None:
                for e in reversed(info["drop_edges"]):
                    del cl[e]
            pc = chain._pos_cache
            if pc is not None:
                for p in reversed(drop_pos):
                    del pc[p]
            ids = chain._ids
            for p, rid in zip(info["over_pos"], info["over_ids"]):
                ids[p] = rid
            for p in reversed(drop_pos):
                del ids[p]
        else:
            chain._codes_list_cache = None
            chain._pos_cache = None
            chain._ids = arena.ids[b:b + n].tolist()
        chain._rebuild_index()

    # ------------------------------------------------------------------
    def _contract_fleet(self, zero_cells: np.ndarray, move_g: np.ndarray,
                        move_c: np.ndarray,
                        merges_by_chain: Dict[int, List[MergeRecord]],
                        terminated: List[Tuple[int, int]]) -> None:
        """Kernel steps 7-8 fleet-wide: merge coincident neighbours and
        terminate the runs that lost their carrier or target.

        ``zero_cells`` are the round's coincident neighbour pairs (one
        zero edge each, ascending).  Blocks of co-located robots fold
        as one segmented-minimum pass over the merge events: the
        reference survivor rule ("the mover survives; tie → lower id")
        is a total order on block members, so the block survivor is
        the key-minimum and every event's removed robot falls out of a
        segmented inclusive prefix minimum — no per-event Python.
        Everything structural — dropping merged robots, compacting
        each segment prefix, deleting the zero edge codes, refreshing
        the id → index table — is one batch of array passes over the
        contracting chains only.  A chain whose *wrap* edge went zero
        (robot n-1 meets robot 0) resolves after its interior blocks:
        once consecutive survivors are distinct, the reference wrap
        loop performs at most one merge, done here with a few array
        assignments per wrap chain.
        """
        arena = self.arena
        registry = self.registry
        base = arena.base
        length = arena.length
        chains = arena.chains
        pos = arena.pos
        ids_flat = arena.ids
        keep_recs = self._keep
        round_index = self.round_index

        zch = arena.owner[zero_cells]
        wrap = (zero_cells - base[zch]) == length[zch] - 1
        if wrap.any():
            # the wrap pair resolves last (reference scan order); its
            # chain's interior zeros still take the batch path below
            wrap_cis = _sorted_unique(zch[wrap])
            zf = zero_cells[~wrap]
            zcf = zch[~wrap]
        else:
            wrap_cis = None
            zf, zcf = zero_cells, zch

        # moved-robot membership in id space (survivor rule input)
        moved_flat = arena.scratch.take("contract_moved", arena.span, bool,
                                        fill=False)
        if len(move_g):
            moved_flat[base[move_c] + ids_flat[move_g]] = True

        wrap_removed: List[int] = []
        removed_interior = _EMPTY_CELLS
        contracted: List[int] = []

        if len(zf):
            # --- survivor rule, one segmented-minimum pass -------------
            # events partition into blocks of consecutive zero edges
            # (runs of co-located robots); the pairwise fold "mover
            # wins, tie -> lower id" is a total order with key
            # (not-moved, id), so the survivor of any prefix is its
            # key-minimum.  An offset-staircase cumulative minimum
            # resets at block boundaries (earlier blocks sit on
            # strictly larger offsets), yielding every event's running
            # survivor — and its removed robot as the pairwise loser —
            # without per-event Python.
            m = len(zf)
            blk_first = np.empty(m, dtype=bool)
            blk_first[0] = True
            np.logical_or(zf[1:] != zf[:-1] + 1, zcf[1:] != zcf[:-1],
                          out=blk_first[1:])
            blk_id = np.cumsum(blk_first) - 1
            first_idx = np.flatnonzero(blk_first)
            span = arena.span
            ev_base = base[zcf]
            top_cells = zf[first_idx]
            top_ids = ids_flat[top_cells]
            nxt_ids = ids_flat[zf + 1]
            top_key = np.where(moved_flat[ev_base[first_idx] + top_ids],
                               0, span) + top_ids
            nxt_key = np.where(moved_flat[ev_base + nxt_ids],
                               0, span) + nxt_ids
            nblk = len(first_idx)
            off = (nblk - blk_id) * (2 * span + 2)
            run_min = np.minimum.accumulate(nxt_key + off) - off
            pm = np.minimum(run_min, top_key[blk_id])   # running survivor
            prev_pm = np.empty(m, dtype=np.int64)
            prev_pm[1:] = pm[:-1]
            prev_pm[first_idx] = top_key
            removed_ids = np.maximum(prev_pm, nxt_key) % span
            removed_interior = ev_base + removed_ids
            if self._wal_rec is not None:
                self._wal_rec["rm"] = np.column_stack(
                    [zcf, removed_ids]).ravel().tolist()
            last_idx = np.empty(nblk, dtype=np.int64)
            last_idx[:-1] = first_idx[1:] - 1
            last_idx[-1] = m - 1
            ids_flat[top_cells] = pm[last_idx] % span   # block survivors

            if keep_recs:
                # merge records materialise from the computed arrays
                # (per-event survivor, loser, shared block position)
                zchl = zcf.tolist()
                surv_l = (pm % span).tolist()
                rem_l = removed_ids.tolist()
                pxl = pos[zf, 0].tolist()
                pyl = pos[zf, 1].tolist()
                for ci, s, r, x, y in zip(zchl, surv_l, rem_l, pxl, pyl):
                    merges_by_chain.setdefault(ci, []).append(
                        MergeRecord(s, r, (x, y)))

            # --- batch segment compaction over the contracting chains --
            zero_flag = arena.scratch.take("contract_zero", arena.span, bool,
                                           fill=False)
            zero_flag[zf] = True
            cis = _sorted_unique(zcf)
            lens_old = length[cis]
            total = int(lens_old.sum())
            rep = np.repeat(np.arange(len(cis), dtype=np.int64), lens_old)
            within = np.arange(total, dtype=np.int64) - \
                np.repeat(np.cumsum(lens_old) - lens_old, lens_old)
            cell = base[cis][rep] + within
            seg_first = within == 0
            # a robot merges away exactly when the edge before it is zero
            drop = zero_flag[cell - 1]
            drop[seg_first] = False
            shift = np.cumsum(drop) - drop
            shift -= np.repeat(shift[seg_first], lens_old)
            kr = np.flatnonzero(~drop)
            dst = base[cis][rep[kr]] + within[kr] - shift[kr]
            pos[dst] = pos[cell[kr]]
            ids_flat[dst] = ids_flat[cell[kr]]
            # the fused edge keeps the following edge's code: deleting
            # the -1 entries is exactly the reference np.delete carry
            ke = np.flatnonzero(~zero_flag[cell])
            eshift = np.cumsum(zero_flag[cell]) - zero_flag[cell]
            eshift -= np.repeat(eshift[seg_first], lens_old)
            arena.codes[base[cis][rep[ke]] + within[ke] - eshift[ke]] = \
                arena.codes[cell[ke]]
            # id -> index table: removed ids out, survivors re-ranked
            arena.index[removed_interior] = -1
            arena.index[base[cis][rep[kr]] + ids_flat[dst]] = \
                within[kr] - shift[kr]
            length[cis] = lens_old - np.bincount(
                zcf, minlength=len(chains))[cis]
            # per-chain Python state (view re-pointing, id list/dict
            # rebuild) defers wholesale to _sync_ids.  A single-segment
            # arena — synced every round, so never already dirty —
            # records the round's splice plan instead: _sync_ids then
            # edits the live caches in place rather than rebuilding
            cis_list = cis.tolist()
            if self._single and 0 not in self._ids_dirty:
                b0 = int(base[0])
                self._ids_dirty[0] = {
                    "drop_edges": (zf - b0).tolist(),
                    "drop_pos": (zf - b0 + 1).tolist(),
                    "over_pos": (top_cells - b0).tolist(),
                    "over_ids": (pm[last_idx] % span).tolist(),
                }
            else:
                for c in cis_list:
                    self._ids_dirty[c] = None
            contracted.extend(cis_list)

        # --- wrap-around pairs: after the interior collapse no two
        # consecutive survivors coincide, so the reference wrap loop
        # performs at most one merge — the tail survivor against the
        # head survivor — resolved here with a handful of array ops
        # per wrap chain instead of a full rescan ------------------------
        if wrap_cis is not None:
            codes = arena.codes
            for ci in wrap_cis.tolist():
                b = int(base[ci])
                nl = int(length[ci])
                if nl <= 1:
                    continue
                t_cell = b + nl - 1
                t_id = int(ids_flat[t_cell])
                h_id = int(ids_flat[b])
                a_m = moved_flat[b + t_id]
                b_m = moved_flat[b + h_id]
                keep_first = a_m if a_m != b_m else t_id < h_id
                p = (int(pos[t_cell, 0]), int(pos[t_cell, 1]))
                if keep_first:
                    removed = h_id
                    # drop the head entry: the segment shifts left and
                    # the new wrap edge inherits the old lead edge
                    pos[b:t_cell] = pos[b + 1:t_cell + 1].copy()
                    ids_flat[b:t_cell] = ids_flat[b + 1:t_cell + 1].copy()
                    lead = int(codes[b])
                    codes[b:t_cell - 1] = codes[b + 1:t_cell].copy()
                    codes[t_cell - 1] = lead
                    idx_seg = arena.index[b:b + int(arena.n0[ci])]
                    idx_seg[:] = -1
                    idx_seg[ids_flat[b:t_cell]] = \
                        np.arange(nl - 1, dtype=np.int64)
                    if keep_recs:
                        merges_by_chain.setdefault(ci, []).append(
                            MergeRecord(t_id, h_id, p))
                else:
                    removed = t_id
                    # drop the tail entry: the zero wrap edge vanishes
                    # and everything else stays in place
                    arena.index[b + t_id] = -1
                    if keep_recs:
                        merges_by_chain.setdefault(ci, []).append(
                            MergeRecord(h_id, t_id, p))
                if self._wal_rec is not None:
                    self._wal_rec["rm"].extend((ci, removed))
                wrap_removed.append(b + removed)
                length[ci] = nl - 1
                self._ids_dirty[ci] = None   # wrap shuffles; full rebuild
                contracted.append(ci)

        if contracted:
            # one suffix splice covers every contracted chain, now
            # that each length is final (interior and wrap alike)
            arena.topo_contract(np.asarray(contracted, dtype=np.int64))

        if not len(removed_interior) and not wrap_removed:
            return

        # --- Table 1.3 runner loss: runs whose carrier merged away -----
        removed_arr = np.concatenate(
            [removed_interior,
             np.asarray(wrap_removed, dtype=np.int64)]) \
            if wrap_removed else removed_interior
        slots = registry.active_slots()
        if len(slots):
            cc = registry.chain_col[slots]
            dead = np.flatnonzero(
                np.isin(base[cc] + registry.robot[slots], removed_arr))
            if len(dead):
                registry.stop_slots(
                    slots[dead],
                    np.full(len(dead), _STOP_RUNNER_REMOVED, np.int64),
                    round_index)
                for ci in cc[dead].tolist():
                    terminated.append((ci, _STOP_RUNNER_REMOVED))

        # --- Table 1.4/1.5: passing/travel targets merged away ---------
        slots = registry.active_slots()
        if len(slots):
            cc = registry.chain_col[slots]
            rows = np.flatnonzero(np.isin(cc, np.asarray(contracted)))
            if len(rows):
                targets = registry.target[slots[rows]]
                has_t = targets >= 0
                gone = has_t.copy()
                gone[has_t] = arena.index[
                    base[cc[rows[has_t]]] + targets[has_t]] < 0
                hit = rows[np.flatnonzero(gone)]
                if len(hit):
                    hs = slots[hit]
                    reasons = np.where(
                        registry.mode_code[hs] == MODE_PASSING,
                        _STOP_PASSING_TARGET, _STOP_TRAVEL_TARGET)
                    registry.stop_slots(hs, reasons, round_index)
                    for ci, code in zip(cc[hit].tolist(), reasons.tolist()):
                        terminated.append((ci, int(code)))

    # ------------------------------------------------------------------
    def _dissolve_duplicates(self, round_index: int
                             ) -> List[Tuple[int, int]]:
        """Duplicate-direction sweep over the fleet registry.

        Mirrors the kernel engine's crowded-run loop with robots keyed
        fleet-uniquely (``base + robot_id``); groups never span chains,
        so the per-chain dissolution order matches exactly.
        """
        registry = self.registry
        arena = self.arena
        slots = registry.active_slots()
        cc = registry.chain_col[slots]
        keys = arena.base[cc] + registry.robot[slots]
        by_robot: Dict[int, List[int]] = {}
        for s, k in zip(slots.tolist(), keys.tolist()):
            by_robot.setdefault(k, []).append(s)
        crowded = sorted(s for group in by_robot.values()
                         if len(group) > 1 for s in group)
        key_of = dict(zip(slots.tolist(), keys.tolist()))
        dirn = registry.dirn
        stopped: set = set()
        out: List[Tuple[int, int]] = []
        for s in crowded:
            if s in stopped:
                continue
            d = dirn[s]
            twins = [x for x in by_robot[key_of[s]]
                     if x not in stopped and dirn[x] == d]
            if len(twins) > 1:
                youngest = max(twins)
                registry.stop_slot(youngest, _STOP_DUPLICATE, round_index)
                stopped.add(youngest)
                out.append((int(registry.chain_col[youngest]),
                            _STOP_DUPLICATE))
        return out

    # ------------------------------------------------------------------
    def _apply_starts(self, starts: FleetStarts, round_index: int,
                      started: Dict[int, int]) -> None:
        """Kernel step 10 fleet-wide: capacity-checked run creation.

        The per-robot capacity rule (at most two runs, never two with
        one direction) vectorises: the scan yields at most one
        candidate per direction per robot, so the reference registry's
        dynamic check reduces to "no same-direction run yet, and fewer
        than two existing runs" — one scatter of the live registry
        rows, no per-candidate Python.
        """
        registry = self.registry
        arena = self.arena
        base = arena.base
        _, ci, rid, dirs, modes, axc = starts
        keys = base[ci] + rid
        # robots merged away this round fail the index lookup
        accept = arena.index[keys] >= 0
        slots = registry.active_slots()
        if len(slots):
            ekeys = base[registry.chain_col[slots]] + registry.robot[slots]
            counts = arena.scratch.take("start_counts", arena.span,
                                        np.int64, fill=0)
            np.add.at(counts, ekeys, 1)
            fwd_on = arena.scratch.take("start_fwd", arena.span, bool,
                                        fill=False)
            bwd_on = arena.scratch.take("start_bwd", arena.span, bool,
                                        fill=False)
            ed = registry.dirn[slots]
            fwd_on[ekeys[ed == 1]] = True
            bwd_on[ekeys[ed != 1]] = True
            accept &= counts[keys] <= 1
            accept &= ~np.where(dirs == 1, fwd_on[keys], bwd_on[keys])
        hit = np.flatnonzero(accept)
        if len(hit) == 0:
            return
        rows = np.empty((len(hit), 6), dtype=np.int64)
        rows[:, 0] = ci[hit]
        rows[:, 1] = rid[hit]
        rows[:, 2] = dirs[hit]
        rows[:, 3] = modes[hit]
        rows[:, 4:6] = _DIR_TABLE[axc[hit]]
        if self._wal_rec is not None:
            self._wal_rec["st"] = rows[:, :4].ravel()
        registry.start_fleet_bulk(rows, round_index)
        per = np.bincount(ci[hit])
        for c in np.flatnonzero(per).tolist():
            started[c] = int(per[c])

    # ------------------------------------------------------------------
    def _build_reports(self, live_list: List[int], n_before: Dict[int, int],
                       plan: Optional[FleetMergePlan],
                       merges_by_chain: Dict[int, List[MergeRecord]],
                       move_c: np.ndarray,
                       terminated: List[Tuple[int, int]],
                       conflicts: Dict[int, int],
                       started: Dict[int, int], round_index: int) -> None:
        """Assemble per-chain RoundReports identical to the kernel's."""
        registry = self.registry
        n_chains = len(self.arena.chains)
        if n_chains == 1:                  # fleet-of-one: no bincounts
            hops = (len(move_c),)
            active = (len(registry._active),)
        else:
            hops = np.bincount(move_c, minlength=n_chains) if len(move_c) \
                else np.zeros(n_chains, dtype=np.int64)
            slots = registry.active_slots()
            active = np.bincount(registry.chain_col[slots],
                                 minlength=n_chains) if len(slots) \
                else np.zeros(n_chains, dtype=np.int64)
        term_by_chain: Dict[int, Dict[StopReason, int]] = {}
        for ci, code in terminated:
            d = term_by_chain.setdefault(ci, {})
            reason = StopReason(code)
            d[reason] = d.get(reason, 0) + 1
        length = self.arena.length
        birth = self.birth
        for ci in live_list:
            self.reports[ci].append(RoundReport(
                round_index=round_index - int(birth[ci]),
                n_before=n_before[ci],
                n_after=int(length[ci]),
                hops=int(hops[ci]),
                merge_patterns=int(plan.exec_count[ci])
                if plan is not None else 0,
                merges=merges_by_chain.get(ci, []),
                runs_started=started.get(ci, 0),
                runs_terminated=term_by_chain.get(ci, {}),
                active_runs=int(active[ci]),
                merge_conflicts=plan.conflicts.get(ci, 0)
                if plan is not None else 0,
                runner_hop_conflicts=conflicts.get(ci, 0)))

    # ------------------------------------------------------------------
    def _check_invariants(self, live_list: List[int], before: Dict,
                          moved) -> None:
        """Per-chain model invariants over the fleet state."""
        registry = self.registry
        arena = self.arena
        # the delta-maintained topology must equal a from-scratch
        # rebuild every round (DESIGN.md §2.14) — the cross-check that
        # catches a bad splice the same round it happens
        arena.verify_topology()
        for ci in list(self._ids_dirty):
            self._sync_ids(ci)
        if not self._single:
            # the fleet-wide movement scatter leaves the per-chain
            # tuple caches stale (they settle at sync/retire); the
            # connectivity check reads them, so drop them here
            for ci in live_list:
                arena.chains[ci]._pos_cache = None
        slots = registry.active_slots()
        cc = registry.chain_col[slots] if len(slots) else slots
        for ci in live_list:
            chain = arena.chains[ci]
            ids_b, pos_b = before[ci]
            try:
                invariants.check_connectivity(chain)
                invariants.check_monotone_count(len(ids_b), chain.n)
                invariants.check_hop_lengths_arrays(
                    ids_b, pos_b, chain.ids_array(),
                    chain.positions_array())
                if len(slots):
                    mine = registry.robot[slots[cc == ci]]
                    if len(mine):
                        idx = chain.index_array()
                        if (idx[mine] < 0).any():
                            raise InvariantViolation(
                                f"fleet chain {ci}: run rides removed "
                                f"robot")
                        # sorted-boundary triple check (a value repeated
                        # 3x sits 2 apart in sorted order) — same dedup
                        # idiom as the contraction sweeps, no np.unique
                        # hash pass
                        srt = np.sort(mine)
                        if len(srt) > 2 and (srt[2:] == srt[:-2]).any():
                            raise InvariantViolation(
                                f"fleet chain {ci}: robot carries more "
                                f"than two runs")
            except InvariantViolation as exc:
                # pin the violation to its chain so quarantine mode can
                # evict exactly the offender (§2.13)
                exc.chain_index = ci
                raise
        if moved is not None:
            mc, old, new, dirs = moved
            for ci in _sorted_unique(np.sort(mc)).tolist():
                if not arena.live[ci]:
                    continue
                rows = mc == ci
                try:
                    invariants.check_run_speed(
                        arena.chains[ci],
                        list(zip(old[rows].tolist(), new[rows].tolist(),
                                 dirs[rows].tolist())))
                except InvariantViolation as exc:
                    exc.chain_index = ci
                    raise


def gather_fleet(chains: Sequence[Union[ClosedChain, Sequence[Vec]]],
                 params: Parameters = DEFAULT_PARAMETERS,
                 check_invariants: bool = False,
                 keep_reports: bool = True,
                 max_rounds: Optional[int] = None,
                 validate_initial: bool = True,
                 progress: Optional[Callable[[int, int], None]] = None
                 ) -> List[GatheringResult]:
    """Gather a fleet in one shared-array pass (convenience API)."""
    fleet = FleetKernel(chains, params=params,
                        check_invariants=check_invariants,
                        keep_reports=keep_reports,
                        validate_initial=validate_initial)
    return fleet.run(max_rounds=max_rounds, progress=progress)
