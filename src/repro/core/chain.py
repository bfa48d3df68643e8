"""The closed chain of robots.

A :class:`ClosedChain` is a cyclic sequence of robots with stable
integer identities.  Chain neighbours must occupy the same or
4-adjacent grid points at all times (the paper's connectivity
condition).  Merging — the removal of one of two co-located chain
neighbours, combining their neighbourhoods — is realised by
:meth:`ClosedChain.contract_coincident`.

Storage model (DESIGN.md §2.8): positions live in a NumPy ``(n, 2)``
int64 array.  Two derived representations are cached and invalidated
by a dirty flag on mutation:

* a list of ``(x, y)`` tuples serving the per-robot scalar read paths
  (:meth:`position`, :class:`~repro.core.view.ChainWindow`), so callers
  keep the original tuple semantics;
* the edge-code array (0=E, 1=N, 2=W, 3=S, -1=zero edge, -2=broken)
  consumed by the edge-code merge detector
  (:func:`repro.core.patterns.find_merge_patterns_np`).

Both caches are rebuilt at most once per round, which keeps the scalar
paths as fast as the original list-backed chain while giving the
vectorised round pipeline zero-copy array access.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Container, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ChainError
from repro.grid.lattice import (
    Vec,
    BoundingBox,
    manhattan,
    sub,
)

#: Edge-code -> unit-vector lookup shared by the edge-code scanners.
CODE_TO_DIR: Tuple[Vec, ...] = ((1, 0), (0, 1), (-1, 0), (0, -1))


def encode_edges(positions, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Direction code (0=E, 1=N, 2=W, 3=S) of every cyclic edge.

    Accepts a position sequence or an ``(n, 2)`` integer array.  A zero
    edge (coincident neighbours) encodes as ``-1``; any other non-unit
    delta — diagonal or longer, only possible on structurally broken
    chains — encodes as ``-2`` so downstream defensive branches can
    tell "transient merge residue" from "chain is broken" exactly as
    the vector-based recognisers do.

    ``out`` may pass a length-``n`` int64 buffer receiving the codes
    (the chain arena points it at a slice of the fleet-wide code
    array, :mod:`repro.core.arena`); the returned array is ``out``.
    """
    p = np.asarray(positions, dtype=np.int64)
    n = len(p)
    if n == 0:
        return np.empty(0, dtype=np.int64) if out is None else out
    e = np.empty_like(p)
    np.subtract(p[1:], p[:-1], out=e[:-1])
    e[-1] = p[0] - p[-1]
    dx, dy = e[:, 0], e[:, 1]
    # E(1,0)->0, W(-1,0)->2 via 1-dx; N(0,1)->1, S(0,-1)->3 via 2-dy
    code = np.where(dy == 0, 1 - dx, 2 - dy)
    manhattan_len = np.abs(dx) + np.abs(dy)
    code[manhattan_len != 1] = -2
    code[manhattan_len == 0] = -1
    if out is not None:
        out[:] = code
        return out
    return code


@dataclass(frozen=True)
class MergeRecord:
    """One neighbourhood contraction: ``removed_id`` merged into ``survivor_id``."""

    survivor_id: int
    removed_id: int
    position: Vec


class ClosedChain:
    """Cyclic sequence of robots on the integer grid.

    Robots are addressed either by chain index (0 … n-1, shifting as
    robots are removed) or by a stable id assigned at construction.
    """

    __slots__ = ("_arr", "_ids", "_next_id", "_index_of_id",
                 "_pos_cache", "_codes_cache", "_codes_list_cache",
                 "_codes_view_cache", "_invalid_edges", "_codes_buf",
                 "_ids_arr_cache", "_index_arr_cache")

    def __init__(self, positions: Sequence[Vec], validate: bool = True,
                 require_disjoint_neighbors: bool = False):
        # one C-level parse; the tuple-list rendering rebuilds lazily
        if isinstance(positions, np.ndarray):
            arr = np.array(positions, dtype=np.int64).reshape(-1, 2)
        else:
            arr = np.array(list(positions), dtype=np.int64).reshape(-1, 2)
        self._arr = arr
        self._pos_cache: Optional[List[Vec]] = None
        self._codes_cache: Optional[np.ndarray] = None
        self._codes_view_cache: Optional[np.ndarray] = None
        self._codes_list_cache: Optional[List[int]] = None
        self._invalid_edges = -1           # -1: unknown until codes built
        #: External edge-code buffer (a slice of the arena's fleet-wide
        #: code array).  When set — and still the right length — the
        #: lazy re-encode writes into it, keeping the arena coherent.
        self._codes_buf: Optional[np.ndarray] = None
        self._ids: List[int] = list(range(len(arr)))
        self._next_id = len(arr)
        self._rebuild_index()
        if validate:
            self.validate(initial=require_disjoint_neighbors)

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_edges(cls, start: Vec, edges: Iterable[Vec], validate: bool = True) -> "ClosedChain":
        """Build a chain from a start point and a closed edge sequence.

        The edge vectors must sum to zero (the chain is closed); the
        final wrap-around edge is implicit.
        """
        pts = [tuple(start)]
        for e in edges:
            last = pts[-1]
            pts.append((last[0] + e[0], last[1] + e[1]))
        if pts[-1] != pts[0]:
            raise ChainError(f"edge sequence does not close: ends at {pts[-1]}, started {pts[0]}")
        return cls(pts[:-1], validate=validate)

    def copy(self) -> "ClosedChain":
        """Deep copy preserving robot ids."""
        c = ClosedChain.__new__(ClosedChain)
        c._arr = self._arr.copy()
        c._pos_cache = None
        c._codes_cache = None
        c._codes_view_cache = None
        c._codes_list_cache = None
        c._invalid_edges = -1
        c._codes_buf = None
        c._ids = list(self._ids)
        c._next_id = self._next_id
        c._rebuild_index()
        return c

    # ------------------------------------------------------------------
    # cache plumbing
    # ------------------------------------------------------------------
    def _invalidate(self) -> None:
        self._pos_cache = None
        self._codes_cache = None
        self._codes_view_cache = None
        self._codes_list_cache = None
        self._invalid_edges = -1

    def _pos_list(self) -> List[Vec]:
        """The cached tuple-list rendering of the position array."""
        pos = self._pos_cache
        if pos is None:
            a = self._arr
            pos = list(zip(a[:, 0].tolist(), a[:, 1].tolist()))
            self._pos_cache = pos
        return pos

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """Current number of robots."""
        return len(self._ids)

    def __len__(self) -> int:
        return len(self._ids)

    @property
    def positions(self) -> List[Vec]:
        """Positions in chain order (fresh list; safe to mutate)."""
        return list(self._pos_list())

    @property
    def ids(self) -> List[int]:
        """Robot ids in chain order (fresh list)."""
        return list(self._ids)

    def positions_view(self) -> List[Vec]:
        """Positions in chain order, zero-copy.

        The returned list is the chain's internal cache — treat it as
        read-only and do not hold it across mutations.  This is the read
        path for the per-round hot loops (DESIGN.md §2.8).
        """
        return self._pos_list()

    def ids_view(self) -> List[int]:
        """Robot ids in chain order, zero-copy (read-only contract).

        Public accessor for bulk scans such as
        :meth:`~repro.core.view.ChainWindow.runs_ahead`; do not mutate
        and do not hold across mutations.
        """
        return self._ids

    def index_map(self) -> Dict[int, int]:
        """The id -> chain index mapping, zero-copy (read-only contract).

        Bulk form of :meth:`index_of_id` for per-round loops; do not
        mutate and do not hold across mutations.
        """
        return self._index_of_id

    def positions_array(self) -> np.ndarray:
        """The backing ``(n, 2)`` int64 position array (read-only view)."""
        v = self._arr.view()
        v.flags.writeable = False
        return v

    def ids_array(self) -> np.ndarray:
        """Robot ids in chain order as a cached int64 array (read-only).

        Array rendering of :meth:`ids_view` for the kernel engine's
        bulk id gathers; invalidated only when robots are removed
        (moves never change the id sequence).
        """
        arr = self._ids_arr_cache
        if arr is None:
            arr = np.asarray(self._ids, dtype=np.int64)
            arr.flags.writeable = False
            self._ids_arr_cache = arr
        return arr

    def index_array(self) -> np.ndarray:
        """The id -> chain index mapping as a cached int64 array.

        ``index_array()[robot_id]`` is the chain index of a live robot
        and ``-1`` for a removed one — the array rendering of
        :meth:`index_map` (ids are assigned densely at construction, so
        the array has one entry per id ever issued).  Read-only; do not
        hold across contractions.
        """
        arr = self._index_arr_cache
        if arr is None:
            arr = np.full(self._next_id, -1, dtype=np.int64)
            arr[self.ids_array()] = np.arange(len(self._ids), dtype=np.int64)
            arr.flags.writeable = False
            self._index_arr_cache = arr
        return arr

    def edge_codes(self) -> np.ndarray:
        """Cached direction codes of all cyclic edges (read-only).

        Codes follow :func:`encode_edges`; the cache is invalidated by
        every mutation and rebuilt lazily, so within one FSYNC snapshot
        the merge detector and the run-start scanner share one encoding
        pass.
        """
        view = self._codes_view_cache
        if view is not None:
            return view
        codes = self._codes_cache
        if codes is None:
            buf = self._codes_buf
            if buf is not None and len(buf) == len(self._arr):
                codes = encode_edges(self._arr, out=buf)
            else:
                codes = encode_edges(self._arr)
            self._codes_cache = codes
            self._invalid_edges = int(np.count_nonzero(codes == -1))
        view = codes.view()
        view.flags.writeable = False
        self._codes_view_cache = view
        return view

    def edge_codes_list(self) -> List[int]:
        """The edge codes as a cached Python list (read-only contract).

        Serves the per-robot scalar paths (the window's
        :meth:`~repro.core.view.ChainWindow.ahead_codes`), where list
        indexing beats NumPy element access by an order of magnitude.
        """
        lst = self._codes_list_cache
        if lst is None:
            lst = self.edge_codes().tolist()
            self._codes_list_cache = lst
        return lst

    def position(self, index: int) -> Vec:
        """Position of the robot at a (cyclic) chain index."""
        pos = self._pos_cache
        if pos is None:
            pos = self._pos_list()
        return pos[index % len(pos)]

    def id_at(self, index: int) -> int:
        """Stable id of the robot at a (cyclic) chain index."""
        return self._ids[index % len(self._ids)]

    def index_of_id(self, robot_id: int) -> int:
        """Chain index currently held by a robot id.

        Raises ``KeyError`` for removed robots.
        """
        return self._index_of_id[robot_id]

    def has_id(self, robot_id: int) -> bool:
        """True while the robot has not been merged away."""
        return robot_id in self._index_of_id

    def position_of_id(self, robot_id: int) -> Vec:
        """Position of a robot addressed by id."""
        return self._pos_list()[self._index_of_id[robot_id]]

    def edge(self, index: int) -> Vec:
        """Vector from robot ``index`` to its successor (cyclic)."""
        pos = self._pos_list()
        n = len(pos)
        return sub(pos[(index + 1) % n], pos[index % n])

    def edges(self) -> List[Vec]:
        """All ``n`` cyclic edge vectors."""
        pos = self._pos_list()
        n = len(pos)
        return [sub(pos[(i + 1) % n], pos[i]) for i in range(n)]

    def bounding_box(self) -> BoundingBox:
        """Axis-aligned bounding box of all robots."""
        if len(self._ids) == 0:
            raise ValueError("bounding_box() of empty point set")
        a = self._arr
        return BoundingBox(int(a[:, 0].min()), int(a[:, 1].min()),
                           int(a[:, 0].max()), int(a[:, 1].max()))

    def is_gathered(self) -> bool:
        """Paper's termination condition: everything inside a 2×2 subgrid."""
        a = self._arr
        x = a[:, 0]
        if int(x.max()) - int(x.min()) > 1:
            return False
        y = a[:, 1]
        return int(y.max()) - int(y.min()) <= 1

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def apply_moves(self, moves: Dict[int, Vec]) -> None:
        """Simultaneously displace robots (``robot_id -> displacement``).

        Displacements must be single-round hops (Chebyshev ≤ 1); the
        caller is responsible for chain-safety, which :meth:`validate`
        re-checks.
        """
        if not moves:
            return
        pos = self._pos_list()
        n = len(pos)
        index_of = self._index_of_id
        idxs: List[int] = []
        vals: List[Vec] = []
        for robot_id, d in moves.items():
            dx, dy = d
            if dx > 1 or dx < -1 or dy > 1 or dy < -1:
                raise ChainError(f"illegal hop {d!r} for robot {robot_id}")
            i = index_of[robot_id]
            p = pos[i]
            new_p = (p[0] + dx, p[1] + dy)
            pos[i] = new_p               # keep the tuple cache coherent
            idxs.append(i)
            vals.append(new_p)
        if len(idxs) == 1:
            self._arr[idxs[0]] = vals[0]
        else:
            self._arr[idxs] = vals       # one batched scatter write
        self._post_move_codes(idxs, pos, n)

    def apply_moves_indexed(self, indices: Sequence[int], deltas) -> None:
        """Bulk scatter displacement addressed by chain index.

        Kernel-engine counterpart of :meth:`apply_moves`: ``indices``
        and ``deltas`` are parallel sequences (chain indices, ``(m, 2)``
        single-round hops — lists or arrays).  Same semantics —
        including the incremental edge-code maintenance — without the
        per-robot id → index dict probes; small batches run as a scalar
        loop (array dispatch only amortises over enough movers).
        """
        m = len(indices)
        if m == 0:
            return
        if m < 32:
            idx_list = indices.tolist() if isinstance(indices, np.ndarray) \
                else list(indices)
            if isinstance(deltas, np.ndarray):
                deltas = deltas.tolist()
            pos = self._pos_list()
            n = len(pos)
            for i, (dx, dy) in zip(idx_list, deltas):
                if dx > 1 or dx < -1 or dy > 1 or dy < -1:
                    # validated before any cache write so a bad batch
                    # leaves the chain untouched (the >= 32 tier checks
                    # all deltas up front too)
                    raise ChainError(
                        f"illegal hop ({dx}, {dy}) for robot at chain index {i}")
            vals: List[Vec] = []
            for i, (dx, dy) in zip(idx_list, deltas):
                p = pos[i]
                new_p = (p[0] + dx, p[1] + dy)
                pos[i] = new_p           # keep the tuple cache coherent
                vals.append(new_p)
            if m == 1:
                self._arr[idx_list[0]] = vals[0]
            else:
                self._arr[idx_list] = vals   # one batched scatter write
            self._post_move_codes(idx_list, pos, n)
            return
        idx = np.asarray(indices, dtype=np.int64)
        d = np.asarray(deltas, dtype=np.int64)
        hop_len = np.abs(d).max(axis=1)
        if int(hop_len.max()) > 1:
            bad = int(idx[int(np.argmax(hop_len))])
            raise ChainError(f"illegal hop for robot at chain index {bad}")
        pos = self._pos_list()
        n = len(pos)
        new_pos = self._arr[idx] + d
        self._arr[idx] = new_pos
        idx_list = idx.tolist()
        for i, x, y in zip(idx_list, new_pos[:, 0].tolist(),
                           new_pos[:, 1].tolist()):
            pos[i] = (x, y)              # keep the tuple cache coherent
        self._post_move_codes(idx_list, pos, n)

    def _post_move_codes(self, idxs: List[int], pos: List[Vec], n: int) -> None:
        """Edge-code cache maintenance after a scatter displacement."""
        codes = self._codes_cache
        if codes is None or len(idxs) * 4 >= n:
            # dense rounds: a fresh vectorised encoding (lazily, at the
            # next edge_codes access) beats per-edge bookkeeping.  Since
            # contraction learned to keep the caches alive the coherent
            # cache is worth more, so the crossover sits higher than the
            # raw encode-vs-loop break-even
            self._codes_cache = None
            self._codes_view_cache = None
            self._codes_list_cache = None
            self._invalid_edges = -1
        elif len(idxs) >= 24:
            # mid-size batches: recompute the affected edges with array
            # ops against the (already updated) position array.  Only
            # the list rendering is dropped (one lazy ``tolist`` later)
            # — the code array and the zero-edge counter stay exact
            idx = np.asarray(idxs, dtype=np.int64)
            e = np.unique(np.concatenate([idx - 1, idx]))
            if e[0] < 0:
                e[0] = n - 1
                e.sort()
                e = e[:-1] if e[-2] == n - 1 else e
            b = e + 1
            b[-1] = b[-1] % n
            d = self._arr[b] - self._arr[e]
            dx, dy = d[:, 0], d[:, 1]
            nc = np.full(len(e), -2, dtype=codes.dtype)
            horiz = (dy == 0) & ((dx == 1) | (dx == -1))
            nc[horiz] = 1 - dx[horiz]
            vert = (dx == 0) & ((dy == 1) | (dy == -1))
            nc[vert] = 2 - dy[vert]
            nc[(dx == 0) & (dy == 0)] = -1
            oc = codes[e]
            changed = oc != nc
            if changed.any():
                codes[e[changed]] = nc[changed]
                self._invalid_edges += \
                    int(np.count_nonzero(nc[changed] == -1)) \
                    - int(np.count_nonzero(oc[changed] == -1))
                self._codes_list_cache = None
        else:
            # incremental code maintenance: only the two edges incident
            # to each mover can change; recompute them from the updated
            # tuple cache (Python-side, against the list rendering) and
            # sync the array with one scatter, keeping the zero-edge
            # counter exact.  Neighbouring movers revisit a shared edge,
            # but the second visit sees the updated code and no-ops, so
            # no dedup set is needed
            cl = self._codes_list_cache
            if cl is None:
                cl = codes.tolist()
                self._codes_list_cache = cl
            upd_idx: List[int] = []
            upd_val: List[int] = []
            invalid = self._invalid_edges
            for i in idxs:
                for e in (i - 1 if i else n - 1, i):
                    a = pos[e]
                    b = pos[e + 1 if e + 1 < n else 0]
                    dx = b[0] - a[0]
                    dy = b[1] - a[1]
                    if dy == 0 and (dx == 1 or dx == -1):
                        nc = 1 - dx
                    elif dx == 0 and (dy == 1 or dy == -1):
                        nc = 2 - dy
                    elif dx == 0 and dy == 0:
                        nc = -1
                    else:
                        nc = -2          # broken edge (see encode_edges)
                    oc = cl[e]
                    if oc != nc:
                        cl[e] = nc
                        upd_idx.append(e)
                        upd_val.append(nc)
                        invalid += (1 if nc == -1 else 0) \
                            - (1 if oc == -1 else 0)
            if upd_idx:
                if len(upd_idx) == 1:
                    codes[upd_idx[0]] = upd_val[0]
                else:
                    codes[upd_idx] = upd_val
            self._invalid_edges = invalid

    def contract_coincident(self, moved_ids: Optional[Container[int]] = None) -> List[MergeRecord]:
        """Merge every co-located chain-neighbour pair until none remain.

        The surviving robot of a pair is the one that moved this round
        (the paper removes the stationary *white* robot); if both or
        neither moved, the lower id survives.  Returns the merge records
        in the order performed.

        One linear pass over the chain: within a block of co-located
        robots the earliest pair always merges first, which reproduces
        the restart-scan order of the original implementation, and the
        wrap-around pair is resolved last (it can only coincide once no
        interior pair does).  See DESIGN.md §2.8.
        """
        if len(self._ids) < 2:
            return []
        # fast path: a coincident neighbour pair is exactly a zero edge,
        # i.e. a -1 edge code on a connected chain.  The chain keeps an
        # exact count of -1 codes alongside the code cache (rebuilt here
        # if stale), so on merge-free rounds — the common case — this
        # check is O(1), and the encoding it may force is the same one
        # the next round's detector and run-start scanner consume.
        if self._invalid_edges < 0:
            self.edge_codes()              # rebuild cache + counter
        if self._invalid_edges == 0:
            return []

        pos = self._pos_list()
        moved = moved_ids or set()
        ids = self._ids
        records: List[MergeRecord] = []

        def keep_first(id_a: int, id_b: int) -> bool:
            # pair order (a, b) = (lower chain index, higher chain index)
            a_moved = id_a in moved
            b_moved = id_b in moved
            if a_moved != b_moved:
                return a_moved
            return id_a < id_b

        # vectorised fast path: isolated coincident pairs — no block of
        # three-plus co-located robots (adjacent zero edges) and no
        # wrap-around pair — rebuild with one mask instead of the
        # linear rescan.  Removing the second robot of an isolated pair
        # cannot create a new coincident neighbour pair, so one sweep
        # suffices; record order (ascending index) and survivor choice
        # match the general pass below (pinned by test_contract_linear).
        n = len(ids)
        zs = np.flatnonzero(self._codes_cache == -1)
        if len(zs) and zs[-1] != n - 1 \
                and (len(zs) == 1 or int(np.diff(zs).min()) > 1):
            ia = self.ids_array().copy()
            keep = np.ones(n, dtype=bool)
            zs_list = zs.tolist()
            for e in zs_list:
                top, rid = ids[e], ids[e + 1]
                p = pos[e]
                if keep_first(top, rid):
                    records.append(MergeRecord(top, rid, p))
                else:
                    records.append(MergeRecord(rid, top, p))
                    ia[e] = rid
                keep[e + 1] = False
            self._arr = self._arr[keep]
            self._ids = ia[keep].tolist()
            # removing robot e+1 fuses zero edge e with edge e+1 into one
            # edge that keeps edge e+1's (non-zero) code, so the cached
            # renderings survive the contraction: the code array just
            # loses its -1 entries and the position list the duplicates —
            # no full re-encode next round
            self._codes_cache = np.delete(self._codes_cache, zs)
            self._codes_view_cache = None
            cl = self._codes_list_cache
            if cl is not None:
                for e in reversed(zs_list):
                    del cl[e]
            if self._pos_cache is not None:
                for e in reversed(zs_list):
                    del self._pos_cache[e + 1]
            self._invalid_edges = 0
            self._rebuild_index()
            return records

        out_pos: List[Vec] = []
        out_ids: List[int] = []
        for p, rid in zip(pos, ids):
            if out_pos and out_pos[-1] == p:
                top = out_ids[-1]
                if keep_first(top, rid):
                    records.append(MergeRecord(top, rid, p))
                else:
                    records.append(MergeRecord(rid, top, p))
                    out_ids[-1] = rid
            else:
                out_pos.append(p)
                out_ids.append(rid)
        # wrap-around pair: (last, first) in scan order
        head = 0
        while len(out_pos) - head > 1 and out_pos[-1] == out_pos[head]:
            last_id, first_id = out_ids[-1], out_ids[head]
            if keep_first(last_id, first_id):
                records.append(MergeRecord(last_id, first_id, out_pos[-1]))
                head += 1
            else:
                records.append(MergeRecord(first_id, last_id, out_pos[head]))
                out_pos.pop()
                out_ids.pop()

        if head:
            out_pos = out_pos[head:]
            out_ids = out_ids[head:]
        if not records:
            return []                      # counter was conservative; no change
        self._arr = np.asarray(out_pos, dtype=np.int64).reshape(len(out_pos), 2)
        self._pos_cache = out_pos
        self._codes_cache = None
        self._codes_view_cache = None
        self._codes_list_cache = None
        self._invalid_edges = -1
        self._ids = out_ids
        self._rebuild_index()
        return records

    # ------------------------------------------------------------------
    # navigation by id (post-contraction adjacency)
    # ------------------------------------------------------------------
    def neighbor_id(self, robot_id: int, direction: int) -> int:
        """Id of the chain neighbour of ``robot_id`` toward ``direction`` (+1/-1)."""
        if direction not in (1, -1):
            raise ValueError("direction must be +1 or -1")
        i = self._index_of_id[robot_id]
        return self._ids[(i + direction) % len(self._ids)]

    # ------------------------------------------------------------------
    # validation
    # ------------------------------------------------------------------
    def validate(self, initial: bool = False) -> None:
        """Check closed-chain structural invariants.

        ``initial`` additionally enforces the paper's starting
        assumption that no two chain neighbours coincide (which forces
        even ``n``) and that the chain has at least 4 robots.
        """
        n = len(self._ids)
        if n == 0:
            raise ChainError("empty chain")
        if initial:
            if n < 4:
                raise ChainError(f"initial closed chain needs n >= 4, got {n}")
            if n % 2 != 0:
                raise ChainError(
                    f"a closed chain with unit edges has even length, got n = {n}")
        # one pass over the cached edge codes (-2: broken, -1: zero
        # edge); the first offending edge — in scan order, matching the
        # original per-robot loop — picks the message
        codes = self.edge_codes()
        bad = codes == -2
        if initial:
            bad = bad | (codes == -1)
        if bad.any():
            i = int(np.argmax(bad))
            pos = self._pos_list()
            a = pos[i]
            if codes[i] == -1:
                raise ChainError(
                    f"initial chain has coincident neighbours at index {i} {a}")
            b = pos[(i + 1) % n]
            raise ChainError(
                f"chain broken between index {i} {a} and {(i + 1) % n} {b}")
        if len(set(self._ids)) != n:
            raise ChainError("duplicate robot ids")

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def __getattr__(self, name):
        # the id -> index dict materialises lazily: chains that are
        # only ever driven through the arena's flat tables (the fleet
        # tier's streaming intake and retirement) never pay the build
        if name == "_index_of_id":
            d = {rid: i for i, rid in enumerate(self._ids)}
            self._index_of_id = d
            return d
        raise AttributeError(name)

    def _rebuild_index(self) -> None:
        try:
            del self._index_of_id
        except AttributeError:
            pass
        self._ids_arr_cache = None
        self._index_arr_cache = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ClosedChain(n={self.n}, bbox={self.bounding_box()})"
