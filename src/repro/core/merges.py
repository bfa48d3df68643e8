"""Merge planning: from patterns to simultaneous hops.

Implements §3.1 of the paper including the overlap cases of Fig. 3:

* a robot black in one pattern and white in another hops as black
  (Fig. 3a — the pure whites stand still and absorb the merges);
* a robot black in two patterns (necessarily with perpendicular hop
  directions) hops diagonally (Fig. 3b).

**Short-pattern priority [D].** The paper's overlap rules cover
patterns of equal length overlapping pairwise.  On degenerate
self-overlapping chains (a doubled flat chain with end spikes, found by
the exhaustive verifier in :mod:`repro.verification`) every white is
simultaneously a black of a *longer* pattern; under a naive
everyone-hops rule the whole configuration swap-oscillates with period
2 and never merges.  We therefore cancel a pattern when one of its
whites is a black of a strictly shorter pattern: shortest patterns are
never cancelled (so some pattern always executes), cancelled patterns
keep all their blacks stationary (full-pattern execution keeps the
chain connected), and for equal lengths the paper's Fig. 3a behaviour
is bit-for-bit unchanged.  See DESIGN.md §2.2.

Opposite hop directions for one robot are geometrically impossible for
U-patterns (a robot has only two incident edges); the planner asserts
this and, defensively, freezes such a robot while counting the event.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Set

import numpy as np

from repro.grid.lattice import Vec, add, are_perpendicular
from repro.core.chain import CODE_TO_DIR
from repro.core.patterns import MergePattern, find_merge_patterns

#: Unit hop vector -> direction code (same encoding as the chain's edge
#: codes; parity of the code gives the axis).
_VEC_TO_CODE: Dict[Vec, int] = {v: c for c, v in enumerate(CODE_TO_DIR)}

#: Direction-code -> unit-vector table for the vectorised planner.
_DIR_TABLE = np.array(CODE_TO_DIR, dtype=np.int64)


@dataclass
class MergePlan:
    """Result of merge planning for one round.

    ``hops`` maps robot ids to hop vectors; ``participants`` contains
    every robot (black or white) taking part in some *executing*
    pattern — their runs terminate by Table 1.3 and they neither
    reshape nor start runs this round.  ``cancelled`` counts patterns
    suppressed by the short-pattern priority rule.
    """

    hops: Dict[int, Vec] = field(default_factory=dict)
    participants: Set[int] = field(default_factory=set)
    patterns: List[MergePattern] = field(default_factory=list)
    conflicts: int = 0
    cancelled: int = 0

    @property
    def any(self) -> bool:
        """True when at least one merge pattern fires this round."""
        return bool(self.patterns)


def plan_merges(positions: Sequence[Vec], ids: Sequence[int], k_max: int,
                patterns: List[MergePattern] | None = None) -> MergePlan:
    """Combine all merge patterns into one simultaneous hop assignment.

    ``patterns`` may pass the detector's output when the caller has
    already scanned; otherwise the reference detector runs.
    """
    n = len(positions)
    if patterns is None:
        patterns = find_merge_patterns(positions, k_max)
    if not patterns:
        return MergePlan()

    # short-pattern priority: cancel patterns whose white is a black of
    # a strictly shorter pattern (see module docstring)
    black_min_k: Dict[int, int] = {}
    for pat in patterns:
        fb, k = pat.first_black, pat.k
        for j in range(k):
            b = (fb + j) % n
            prev = black_min_k.get(b)
            if prev is None or k < prev:
                black_min_k[b] = k
    executing: List[MergePattern] = []
    cancelled = 0
    get_min_k = black_min_k.get
    for pat in patterns:
        fb, k = pat.first_black, pat.k
        if get_min_k((fb - 1) % n, k) < k or get_min_k((fb + k) % n, k) < k:
            cancelled += 1
        else:
            executing.append(pat)

    plan = MergePlan(patterns=executing, cancelled=cancelled)
    if not executing:
        return plan

    participants = plan.participants
    directions: Dict[int, Set[Vec]] = {}
    for pat in executing:
        fb, k = pat.first_black, pat.k
        participants.add(ids[(fb - 1) % n])
        participants.add(ids[(fb + k) % n])
        for j in range(k):
            b = (fb + j) % n
            dirs = directions.get(b)
            if dirs is None:
                directions[b] = {pat.direction}
            else:
                dirs.add(pat.direction)
            participants.add(ids[b])

    for idx, dirs in directions.items():
        if len(dirs) == 1:
            (d,) = dirs
            plan.hops[ids[idx]] = d
        elif len(dirs) == 2:
            a, b = sorted(dirs)
            if are_perpendicular(a, b):
                plan.hops[ids[idx]] = add(a, b)     # Fig. 3b diagonal hop
            else:
                plan.conflicts += 1                 # impossible; freeze robot
        else:
            plan.conflicts += 1
    return plan


@dataclass
class KernelMergePlan:
    """Array rendering of a round's merge plan (kernel engine).

    Same decision content as :class:`MergePlan` — property-tested
    equivalent — addressed by chain index instead of robot id:
    ``hop_idx``/``hop_vec`` are the hopping blacks and their hop
    vectors (NumPy arrays from the vectorised planner, plain lists
    from the small-case path — the engine's movement step handles
    both), ``part_mask`` flags every participant of an executing
    pattern.  ``patterns`` keeps the executing patterns in detector
    order (the reference plan's ``patterns`` list).
    """

    patterns: List[MergePattern]
    hop_idx: Sequence[int]
    hop_vec: Sequence[Vec]
    part_mask: np.ndarray
    conflicts: int = 0
    cancelled: int = 0

    def participant_ids(self, ids_array: np.ndarray) -> Set[int]:
        """The participants as a robot-id set (reference plan rendering)."""
        return set(ids_array[self.part_mask].tolist())


#: Below this many patterns the planner runs as a tight Python loop
#: over indices: per-call NumPy dispatch overhead (~25 array ops)
#: exceeds the loop until pattern sets get this large.  Both paths are
#: behaviourally identical (shared property tests, same contract as
#: the detector's ``_NUMPY_MIN_N``).
_NUMPY_MIN_PATTERNS = 32


def _plan_arrays_py(patterns: List[MergePattern], n: int) -> KernelMergePlan:
    """Small-case :func:`plan_merges_arrays`: reference logic on indices."""
    black_min_k: Dict[int, int] = {}
    for pat in patterns:
        fb, k = pat.first_black, pat.k
        for j in range(k):
            b = (fb + j) % n
            prev = black_min_k.get(b)
            if prev is None or k < prev:
                black_min_k[b] = k
    executing: List[MergePattern] = []
    cancelled = 0
    get_min_k = black_min_k.get
    for pat in patterns:
        fb, k = pat.first_black, pat.k
        if get_min_k((fb - 1) % n, k) < k or get_min_k((fb + k) % n, k) < k:
            cancelled += 1
        else:
            executing.append(pat)
    part_mask = np.zeros(n, dtype=bool)
    if not executing:
        return KernelMergePlan(executing, np.empty(0, np.int64),
                               np.empty((0, 2), np.int64), part_mask,
                               cancelled=cancelled)
    directions: Dict[int, Set[Vec]] = {}
    for pat in executing:
        fb, k = pat.first_black, pat.k
        part_mask[(fb - 1) % n] = True
        part_mask[(fb + k) % n] = True
        d = pat.direction
        for j in range(k):
            b = (fb + j) % n
            dirs = directions.get(b)
            if dirs is None:
                directions[b] = {d}
            else:
                dirs.add(d)
            part_mask[b] = True
    hop_idx: List[int] = []
    hop_vec: List[Vec] = []
    conflicts = 0
    for idx, dirs in directions.items():
        if len(dirs) == 1:
            (d,) = dirs
            hop_idx.append(idx)
            hop_vec.append(d)
        elif len(dirs) == 2:
            a, b = sorted(dirs)
            if are_perpendicular(a, b):
                hop_idx.append(idx)
                hop_vec.append(add(a, b))   # Fig. 3b diagonal hop
            else:
                conflicts += 1              # impossible; freeze robot
        else:
            conflicts += 1
    # hops stay Python lists on this path: the engine's small-move
    # branch consumes them without round-tripping through arrays
    return KernelMergePlan(executing, hop_idx, hop_vec, part_mask,
                           conflicts=conflicts, cancelled=cancelled)


def plan_merges_arrays(patterns: List[MergePattern], n: int) -> KernelMergePlan:
    """Vectorised :func:`plan_merges` over chain indices.

    Black-index expansion, the short-pattern priority rule and the
    Fig. 3 overlap resolution all run as array passes: blacks unroll
    via ``np.repeat``, the per-black minimum pattern length folds with
    the sort+reduceat pass of :func:`segment_min_lookup` (no atomic
    scatter), and robots black in two patterns resolve
    their (necessarily perpendicular) diagonal hop by grouping the
    deduplicated ``(index, direction)`` pairs.  Small pattern sets take
    an equivalent tight Python loop instead (``_NUMPY_MIN_PATTERNS``).
    Requires at least one pattern; the caller skips merge-free rounds
    entirely.
    """
    if len(patterns) < _NUMPY_MIN_PATTERNS:
        return _plan_arrays_py(patterns, n)
    return _plan_arrays_np(patterns, n)


def segment_min_lookup(keys: np.ndarray, values: np.ndarray,
                       *queries: np.ndarray) -> List[np.ndarray]:
    """Per-key minimum of ``values``, read back at each query array.

    The sort+reduceat formulation of the planner's per-black
    minimum-k fold (DESIGN.md §2.14), shared by the per-chain and
    fleet planners: sort the (key, value) pairs once, segment-reduce
    with ``np.minimum.reduceat`` at the run starts, then binary-search
    the query cells against the distinct keys.  Keys absent from
    ``keys`` read as INT64_MAX ("no pattern covers this cell").
    Bit-identical to the ``np.minimum.at`` scatter it replaces, with
    two O(m log m) passes instead of a buffered atomic scatter plus a
    key-space-sized scratch fill.
    """
    order = np.argsort(keys)               # min is order-independent
    ks = keys[order]
    first = np.empty(len(ks), dtype=bool)
    first[0] = True
    np.not_equal(ks[1:], ks[:-1], out=first[1:])
    seg = np.flatnonzero(first)
    uk = ks[seg]
    mins = np.minimum.reduceat(values[order], seg)
    q = np.concatenate(queries) if len(queries) > 1 else queries[0]
    j = np.searchsorted(uk, q)
    np.minimum(j, len(uk) - 1, out=j)
    res = np.where(uk[j] == q, mins[j], np.iinfo(np.int64).max)
    if len(queries) == 1:
        return [res]
    return np.split(res, np.cumsum([len(x) for x in queries])[:-1])


def _plan_arrays_np(patterns: List[MergePattern], n: int) -> KernelMergePlan:
    """The NumPy body of :func:`plan_merges_arrays` (any pattern count)."""
    m = len(patterns)
    fb = np.fromiter((p.first_black for p in patterns), np.int64, m)
    k = np.fromiter((p.k for p in patterns), np.int64, m)
    dircode = np.fromiter((_VEC_TO_CODE[p.direction] for p in patterns),
                          np.int64, m)

    # black-index expansion: pattern p contributes blacks fb[p] .. fb[p]+k[p]-1
    rep = np.repeat(np.arange(m), k)
    offsets = np.arange(len(rep)) - np.repeat(np.cumsum(k) - k, k)
    black_idx = (fb[rep] + offsets) % n

    # short-pattern priority: cancel a pattern whose white is a black of
    # a strictly shorter pattern (see module docstring)
    w0 = (fb - 1) % n
    w1 = (fb + k) % n
    mk0, mk1 = segment_min_lookup(black_idx, k[rep], w0, w1)
    cancel = (mk0 < k) | (mk1 < k)
    cancelled = int(np.count_nonzero(cancel))
    executing = [p for p, c in zip(patterns, cancel.tolist()) if not c]

    part_mask = np.zeros(n, dtype=bool)
    if not executing:
        return KernelMergePlan(executing, np.empty(0, np.int64),
                               np.empty((0, 2), np.int64), part_mask,
                               cancelled=cancelled)

    keep = ~cancel
    keep_rep = keep[rep]
    bidx = black_idx[keep_rep]
    part_mask[bidx] = True
    part_mask[w0[keep]] = True
    part_mask[w1[keep]] = True

    # deduplicate (black index, hop direction) pairs, then resolve each
    # robot by its distinct hop-direction count (Fig. 3a/3b)
    key = np.unique(bidx * 4 + dircode[rep][keep_rep])
    idx_u = key >> 2
    code_u = key & 3
    first = np.flatnonzero(np.r_[True, idx_u[1:] != idx_u[:-1]])
    counts = np.diff(np.append(first, len(idx_u)))

    conflicts = 0
    single = first[counts == 1]
    hop_idx = [idx_u[single]]
    hop_vec = [_DIR_TABLE[code_u[single]]]
    double = first[counts == 2]
    if len(double):
        ca, cb = code_u[double], code_u[double + 1]
        perp = ((ca ^ cb) & 1) == 1
        hop_idx.append(idx_u[double[perp]])
        hop_vec.append(_DIR_TABLE[ca[perp]] + _DIR_TABLE[cb[perp]])
        conflicts += int(np.count_nonzero(~perp))   # impossible; freeze robot
    conflicts += int(np.count_nonzero(counts > 2))

    return KernelMergePlan(executing, np.concatenate(hop_idx),
                           np.concatenate(hop_vec), part_mask,
                           conflicts=conflicts, cancelled=cancelled)
