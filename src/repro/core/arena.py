"""The chain arena: struct-of-arrays storage for a fleet of chains.

The fleet execution tier (DESIGN.md §2.10/§2.11) advances many closed
chains round-for-round inside one process.  Its storage is this arena:
every fleet member's positions, edge codes, robot ids and id → index
tables live in contiguous fleet-wide arrays, one *slot* per chain, and
each :class:`~repro.core.chain.ClosedChain` stays a thin view — its
``_arr`` *is* a slice of the arena's position buffer and its edge-code
cache *is* a slice of the arena's code buffer, so every in-place
mutation the chain performs (indexed scatter moves, incremental code
maintenance) keeps the fleet-wide arrays coherent for free.

Layout.  A chain's slot base simultaneously offsets its *cells*
(``base + chain_index``) and its *id space* (``base + robot_id`` —
ids never grow after a chain is built), so one fixed table serves
both addressings and ``base[c] + robot_id`` is a fleet-unique robot
key.  Slots are exactly ``n0`` cells, the chain's id-space size: its
length for a fresh chain, more for an adopted chain whose robots have
already merged.  Contraction shrinks a chain within its slot (the
chain re-packs into the slot prefix).

Lifecycle (DESIGN.md §2.11).  Slots are *reclaimable*:
:meth:`retire_batch` returns finished chains' slots to a coalescing
free list, :meth:`reserve_batch` packs incoming chains into free
slots (best fit over hole sizes) and :meth:`attach_batch` lands them
in one scatter — the only way into the arena — and :meth:`compact`
re-bases the live slots into the buffer prefix — re-pointing every
chain view — when fragmentation blocks an admission that would
otherwise fit.  Because admission reuses holes, slot bases are *not*
ordered by chain id; the span-sized :attr:`owner` table maps any
live cell back to its owning chain (the fixed ``searchsorted(base)``
lookup of the fixed-fleet arena would be wrong after the first
out-of-order admission).

The compact *topology arrays* — the live cells in fleet order with
per-cell cyclic predecessor/successor and owning chain — are rebuilt
lazily whenever the layout changed.  Every fleet-wide stage (merge
detection, run-start scan, decision windows, movement, termination
checks) indexes through these arrays, so retired slots cost nothing.
Per-round span-sized masks come from a :class:`ScratchPool` so
steady-state rounds allocate nothing.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.chain import ClosedChain

#: The four topology arrays: (cells, cell_chain, prev_pos, next_pos).
Topology = Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]

#: "No pending topology damage" sentinel — larger than any compact
#: position, so ``min(damage, p0)`` accumulates naturally.
_TOPO_CLEAN = 1 << 62


def append_cell(buf: np.ndarray, count: int, value) -> np.ndarray:
    """Write ``value`` at row ``count - 1`` of an append-only column.

    The amortised-doubling idiom shared by every admission-appended
    per-chain table (the arena's base/length tables, the scheduler's
    birth/budget columns): the caller keeps the returned buffer and
    re-slices its ``[:count]`` view, so a long stream pays O(1) per
    admitted chain instead of a full table copy.
    """
    if len(buf) < count:
        grown = np.empty(max(count, 2 * len(buf), 8), dtype=buf.dtype)
        grown[:count - 1] = buf[:count - 1]
        buf = grown
    buf[count - 1] = value
    return buf


class ScratchPool:
    """Reusable scratch buffers for the per-round span-sized masks.

    The fleet pipeline needs a handful of span-sized work arrays every
    round (participant masks, mover flags, zero-edge flags, run-count
    scatters).  Allocating them anew each round costs page-zeroing on
    large arenas; the pool hands out one persistent buffer per ``(tag,
    dtype, shape)`` use site instead — refilled, never reallocated
    while the requested size fits — so steady-state rounds allocate
    nothing.  Tags are unique per call site, which is what makes the
    reuse safe: two buffers live at the same time never share a tag.
    Buffers only ever grow (to the largest size a tag requested), and
    the returned view is not safe to hold across rounds.
    """

    __slots__ = ("_bufs",)

    def __init__(self) -> None:
        self._bufs: Dict[tuple, np.ndarray] = {}

    def take(self, tag: str, size: int, dtype, fill=None) -> np.ndarray:
        """A length-``size`` scratch array for ``tag``, optionally filled."""
        key = (tag, np.dtype(dtype).str)
        buf = self._bufs.get(key)
        if buf is None or len(buf) < size:
            buf = np.empty(max(size, 16), dtype=dtype)
            self._bufs[key] = buf
        view = buf[:size]
        if fill is not None:
            view.fill(fill)
        return view


class ChainArena:
    """Fleet-wide struct-of-arrays storage with reclaimable slots.

    Parameters
    ----------
    capacity:
        Initial cell capacity, one free hole.  Chains enter only
        through :meth:`reserve_batch` + :meth:`attach_batch` (the fleet
        kernel's batched intake), which grow-or-compact on demand; a
        kernel sizes the arena to its members' id spaces up front.
    """

    __slots__ = ("chains", "base", "n0", "length", "pos", "codes", "ids",
                 "index", "owner", "live", "free", "free_ids", "scratch",
                 "live_cells", "peak_cells", "peak_live", "_topo",
                 "_topo_dirty", "_base_buf", "_n0_buf", "_len_buf",
                 "_live_buf", "n_live", "_topo_bufs", "_topo_len",
                 "_topo_start_buf", "_topo_start", "_topo_p0",
                 "topo_stats")

    def __init__(self, capacity: int = 0):
        cap = int(capacity)
        self.chains: List[Optional[ClosedChain]] = []
        # one padding row so reduceat segment ends may equal the span
        self.pos = np.empty((cap + 1, 2), dtype=np.int64)
        self.codes = np.empty(cap, dtype=np.int64)
        self.ids = np.empty(cap, dtype=np.int64)
        self.index = np.full(cap, -1, dtype=np.int64)
        self.owner = np.full(cap, -1, dtype=np.int64)
        # the per-chain tables are views of amortised-doubling buffers
        # (admission appends a row; a growing stream must not pay a
        # full table copy per admitted chain)
        self._base_buf = np.empty(0, dtype=np.int64)
        self._n0_buf = np.empty(0, dtype=np.int64)
        self._len_buf = np.empty(0, dtype=np.int64)
        self._live_buf = np.empty(0, dtype=bool)
        self.base = self._base_buf
        self.n0 = self._n0_buf
        self.length = self._len_buf
        self.live = self._live_buf
        #: free holes as (offset, size) pairs, ascending by offset
        self.free: List[Tuple[int, int]] = [(0, cap)] if cap else []
        #: retired chain rows available for reuse, ascending.  Row
        #: recycling is what keeps every per-chain table — and every
        #: per-round count-sized pass over them — bounded by *peak
        #: occupancy* instead of by chains ever admitted; a stream of
        #: millions must not decay as its chain tables grow.
        self.free_ids: List[int] = []
        self.scratch = ScratchPool()
        self.live_cells = 0
        self.peak_cells = 0
        self.n_live = 0
        self.peak_live = 0
        self._topo: Optional[Topology] = None
        self._topo_dirty = True
        # incremental-topology state: persistent compact-array buffers,
        # the live length of their prefix, and each chain row's block
        # start within the compact arrays (-1 when absent).  Valid
        # exactly while ``_topo_dirty`` is clear — every delta op
        # (retire/admit/contract) keeps them exact; the full-rebuild
        # sites only flag dirty and let :meth:`topology` reset them.
        self._topo_bufs: Optional[List[np.ndarray]] = None
        self._topo_len = 0
        self._topo_p0 = _TOPO_CLEAN
        self._topo_start_buf = np.empty(0, dtype=np.int64)
        self._topo_start = self._topo_start_buf
        #: rebuild/delta instrumentation (streaming stats surface):
        #: full rebuilds vs suffix splices and total cells respliced
        self.topo_stats: Dict[str, int] = {
            "rebuilds": 0, "delta_ops": 0, "delta_cells": 0}

    # ------------------------------------------------------------------
    @property
    def span(self) -> int:
        """Total arena cell capacity (live slots + free holes)."""
        return len(self.codes)

    @property
    def free_cells(self) -> int:
        """Cells currently sitting in free holes."""
        return sum(size for _, size in self.free)

    @property
    def largest_hole(self) -> int:
        """Size of the largest free hole (0 when the arena is full)."""
        return max((size for _, size in self.free), default=0)

    def live_indices(self) -> np.ndarray:
        """Chain ids of the live fleet members, ascending."""
        return np.flatnonzero(self.live)

    # ------------------------------------------------------------------
    # slot lifecycle
    # ------------------------------------------------------------------
    def reserve_batch(self, ns: Sequence[int]) -> List[int]:
        """Reserve slots of ``ns`` cells each, in order (best fit).

        Per entry, the smallest hole that fits is split (an exact fit
        ends the search) and the lowest retired row is recycled — so
        the per-chain tables stay sized to peak occupancy — or a fresh
        row is appended; the row-table writes batch into a few
        fancy-index stores.  Stops at the first entry no hole fits —
        the caller compacts (when the total free space would fit) or
        grows and retries the remainder — and returns the reserved
        chain ids of the fitted prefix, in order.  The rows' chains
        are ``None`` until :meth:`attach_batch` lands them.
        """
        free = self.free
        free_ids = self.free_ids
        chains = self.chains
        out: List[int] = []
        rec_ci: List[int] = []
        rec_off: List[int] = []
        rec_n: List[int] = []
        live_cells = self.live_cells
        n_live = self.n_live
        for n in ns:
            best = -1
            best_size = 0
            for i, (_, size) in enumerate(free):
                if size >= n and (best < 0 or size < best_size):
                    best = i
                    best_size = size
                    if size == n:          # exact fit: cannot do better
                        break
            if best < 0:
                if n:
                    break
                off = self.span            # an empty slot needs no hole
            else:
                off, size = free[best]
                if size == n:
                    del free[best]
                else:
                    free[best] = (off + n, size - n)
            if free_ids:
                ci = free_ids.pop(0)       # lowest first: deterministic
                chains[ci] = None
                rec_ci.append(ci)
                rec_off.append(off)
                rec_n.append(n)
            else:
                ci = len(chains)
                chains.append(None)
                count = ci + 1
                self._base_buf = append_cell(self._base_buf, count, off)
                self._n0_buf = append_cell(self._n0_buf, count, n)
                self._len_buf = append_cell(self._len_buf, count, n)
                self._live_buf = append_cell(self._live_buf, count, True)
                self._topo_start_buf = append_cell(self._topo_start_buf,
                                                   count, -1)
                self.base = self._base_buf[:count]
                self.n0 = self._n0_buf[:count]
                self.length = self._len_buf[:count]
                self.live = self._live_buf[:count]
                self._topo_start = self._topo_start_buf[:count]
            out.append(ci)
            live_cells += n
            n_live += 1
        if rec_ci:
            # recycled rows: one fancy-index store per table (appended
            # rows were already written through append_cell)
            rec = np.asarray(rec_ci, dtype=np.int64)
            self.base[rec] = rec_off
            self.n0[rec] = rec_n
            self.length[rec] = rec_n
            self.live[rec] = True
        self.live_cells = live_cells
        if live_cells > self.peak_cells:
            self.peak_cells = live_cells
        self.n_live = n_live
        if n_live > self.peak_live:
            self.peak_live = n_live
        return out

    def attach_batch(self, cis: Sequence[int],
                     arrs: Sequence[np.ndarray],
                     codes: Sequence[np.ndarray],
                     zero_counts: Sequence[int],
                     chains: Sequence[Optional[ClosedChain]]) -> None:
        """Land a burst of reserved slots in one splice.

        The lists run parallel to ``cis`` (slots from
        :meth:`reserve_batch`): each chain's positions and edge codes
        arrive through a single fleet-wide scatter.  ``chains[j]`` is
        ``None`` for a fresh chain — ids ``0..n-1`` in chain order, so
        the id and index tables fill from the identity layout, and the
        chain object is a lightweight view over the slot (no per-chain
        encode, validation or dict build) carrying ``zero_counts[j]``
        zero edges.  Otherwise it is the :class:`ClosedChain` to adopt
        in place: its own ids fill the tables (merged-away ids resolve
        to -1 across the rest of its id space), its arrays become
        views of the slot, and its Python-side caches and zero-edge
        counter carry over (``codes[j]`` must be its live code cache).

        The burst's blocks join the topology through one damage stamp
        (no-op while a full rebuild is pending).  A block belongs
        between its chain-id neighbours, at the smallest block start
        among live rows with a larger id (the topology tail length
        when there is none); every row of the burst is stamped with
        the burst's lowest such position rather than its own — a
        conservative membership key (>= the damage mark at stamp time,
        <= the row's true position, so the ``key >= damage``
        membership test stays exact and the next patch recomputes
        every stamped start) — so one tail scan serves the burst.
        """
        if self._topo_live():
            tail = self._topo_start[min(cis) + 1:]
            present = tail[tail >= 0]
            p0 = int(present.min()) if len(present) else self._topo_len
            self._topo_start[cis] = p0
            if p0 < self._topo_p0:
                self._topo_p0 = p0
        k = len(cis)
        cis_a = np.asarray(cis, dtype=np.int64)
        ns = np.fromiter((len(a) for a in arrs), np.int64, count=k)
        total = int(ns.sum())
        rep = np.repeat(np.arange(k, dtype=np.int64), ns)
        within = np.arange(total, dtype=np.int64) \
            - np.repeat(np.cumsum(ns) - ns, ns)
        dst = self.base[cis_a][rep] + within
        self.pos[dst] = np.concatenate(arrs) if k > 1 else arrs[0]
        self.codes[dst] = np.concatenate(codes) if k > 1 else codes[0]
        self.length[cis_a] = ns
        # fresh slots are exactly n cells (n0 == n): the identity
        # id/index layout covers the whole slot, no -1 backfill needed
        self.ids[dst] = within
        self.index[dst] = within
        self.owner[dst] = cis_a[rep]
        for j in range(k):
            ci = int(cis_a[j])
            n = int(ns[j])
            chain = chains[j]
            if chain is None:
                self._chain_view(ci, int(zero_counts[j]), list(range(n)), n)
                continue
            b = int(self.base[ci])
            n0 = int(self.n0[ci])
            ids = chain.ids_array()
            self.ids[b:b + n] = ids
            idx_seg = self.index[b:b + n0]
            idx_seg[:] = -1
            idx_seg[ids] = np.arange(n, dtype=np.int64)
            self.owner[b:b + n0] = ci
            self.chains[ci] = chain
            self._repoint(ci)

    def _chain_view(self, ci: int, invalid_edges: int, ids: List[int],
                    next_id: int) -> ClosedChain:
        """A new :class:`ClosedChain` viewing slot ``ci`` as it stands.

        The slot's positions and codes are exact, so the view adopts
        them as its arrays and code cache (no copy, no encode); its
        Python-side caches start cold — the lazy ``__getattr__``
        builds the id dict on first by-id access.
        """
        b = int(self.base[ci])
        n = int(self.length[ci])
        chain = ClosedChain.__new__(ClosedChain)
        chain._arr = self.pos[b:b + n]
        buf = self.codes[b:b + n]
        chain._codes_buf = buf
        chain._codes_cache = buf
        chain._codes_list_cache = None
        chain._codes_view_cache = None
        chain._pos_cache = None
        chain._invalid_edges = invalid_edges
        chain._next_id = next_id
        chain._ids = ids
        chain._ids_arr_cache = None
        chain._index_arr_cache = None
        self.chains[ci] = chain
        return chain

    def _release_slot(self, off: int, size: int) -> None:
        """Insert a hole into the free list, coalescing neighbours."""
        free = self.free
        lo, hi = 0, len(free)
        while lo < hi:                     # bisect by offset
            mid = (lo + hi) // 2
            if free[mid][0] < off:
                lo = mid + 1
            else:
                hi = mid
        free.insert(lo, (off, size))
        # merge with successor, then predecessor
        if lo + 1 < len(free) and off + size == free[lo + 1][0]:
            free[lo] = (off, size + free[lo + 1][1])
            del free[lo + 1]
        if lo > 0 and free[lo - 1][0] + free[lo - 1][1] == off:
            free[lo - 1] = (free[lo - 1][0], free[lo - 1][1] + free[lo][1])
            del free[lo]

    def retire_batch(self, cis: np.ndarray) -> None:
        """Return finished chains' slots (and rows) to the free lists.

        The retiring slots and the existing holes are both sorted and
        disjoint, so one linear two-list merge — coalescing adjacent
        entries as it goes — replaces per-chain bisect-inserts (a
        draining stream retires most of a fleet in a few of these
        calls).
        """
        cis = np.asarray(cis, dtype=np.int64)
        if len(cis) == 0:
            return
        self.live[cis] = False
        self.live_cells -= int(self.n0[cis].sum())
        self.n_live -= len(cis)
        self.free_ids = sorted(self.free_ids + cis.tolist())
        holes = sorted(zip(self.base[cis].tolist(), self.n0[cis].tolist()))
        old = self.free
        merged: List[Tuple[int, int]] = []
        i = j = 0
        while i < len(old) or j < len(holes):
            if j >= len(holes) or (i < len(old)
                                   and old[i][0] < holes[j][0]):
                nxt = old[i]
                i += 1
            else:
                nxt = holes[j]
                j += 1
            if merged and merged[-1][0] + merged[-1][1] == nxt[0]:
                merged[-1] = (merged[-1][0], merged[-1][1] + nxt[1])
            else:
                merged.append(nxt)
        self.free = merged
        if self._topo_live():
            p0 = int(self._topo_start[cis].min())
            self._topo_start[cis] = -1
            if p0 < self._topo_p0:
                self._topo_p0 = p0
        else:
            self._topo_dirty = True

    # ------------------------------------------------------------------
    def _repoint(self, ci: int) -> None:
        """Re-point a live chain's views at its (possibly moved) slot.

        Content-preserving: the slot already holds the chain's exact
        positions/codes/ids, so only the array views change — the
        Python-side caches (tuple list, code list, id list/index) stay
        valid exactly as they were (stale ones stay stale and settle
        at the kernel's usual sync points).
        """
        chain = self.chains[ci]
        b = int(self.base[ci])
        n = int(self.length[ci])
        chain._arr = self.pos[b:b + n]
        buf = self.codes[b:b + n]
        had = chain._codes_cache is not None and len(chain._codes_cache) == n
        chain._codes_buf = buf
        chain._codes_cache = buf if had else None
        chain._codes_view_cache = None

    def compact(self) -> int:
        """Re-base live slots into the buffer prefix; one tail hole.

        Moves slots in ascending base order (every destination is at
        or below its source), rebuilds the owner and index tables for
        the moved slots and re-points every moved chain's views.
        Returns the number of cells reclaimed into the tail hole.
        """
        live = self.live_indices()
        order = live[np.argsort(self.base[live], kind="stable")]
        before = self.largest_hole
        cursor = 0
        for ci in order.tolist():
            b = int(self.base[ci])
            n0 = int(self.n0[ci])
            n = int(self.length[ci])
            if b != cursor:
                self.pos[cursor:cursor + n] = self.pos[b:b + n].copy()
                self.codes[cursor:cursor + n] = self.codes[b:b + n].copy()
                seg_ids = self.ids[b:b + n].copy()
                self.ids[cursor:cursor + n] = seg_ids
                idx_seg = self.index[cursor:cursor + n0]
                idx_seg[:] = -1
                idx_seg[seg_ids] = np.arange(n, dtype=np.int64)
                self.owner[cursor:cursor + n0] = ci
                self.base[ci] = cursor
                self._repoint(ci)
            cursor += n0
        cap = self.span
        self.owner[cursor:] = -1
        self.free = [(cursor, cap - cursor)] if cap > cursor else []
        self._topo_dirty = True
        return self.largest_hole - before

    def grow(self, min_capacity: int) -> None:
        """Reallocate the buffers to at least ``min_capacity`` cells.

        Slot bases are unchanged; every live chain's views re-point at
        the new buffers and the tail hole absorbs the added cells.
        Rare by construction — the streaming tier provisions capacity
        from its slot budget and reuses retired slots.
        """
        old = self.span
        cap = max(int(min_capacity), old)
        if cap == old:
            return
        pos = np.empty((cap + 1, 2), dtype=np.int64)
        pos[:old] = self.pos[:old]
        self.pos = pos
        for name in ("codes", "ids"):
            buf = np.empty(cap, dtype=np.int64)
            buf[:old] = getattr(self, name)
            setattr(self, name, buf)
        for name in ("index", "owner"):
            buf = np.full(cap, -1, dtype=np.int64)
            buf[:old] = getattr(self, name)
            setattr(self, name, buf)
        self._release_slot(old, cap - old)
        for ci in self.live_indices().tolist():
            self._repoint(ci)
        self._topo_dirty = True

    # ------------------------------------------------------------------
    def topology(self) -> Topology:
        """Compact live-cell arrays, incrementally maintained.

        Returns ``(cells, cell_chain, prev_pos, next_pos)``: the global
        cell indices of every live robot in fleet order, the owning
        chain id per cell, and each cell's cyclic within-chain
        predecessor/successor as *positions into these compact arrays*
        (so multi-step neighbour lookups compose by repeated gathering).
        The fleet-wide recognisers (merge RLE scan, run-start scan)
        evaluate their rolled-code comparisons through these instead of
        per-chain ``np.roll`` calls.

        Layout churn no longer forces a from-scratch rebuild: retire,
        admit and contraction splice their deltas into persistent
        buffers (:meth:`_topo_patch`), and only :meth:`compact`,
        :meth:`grow` and :meth:`restore_state` — the sites that move
        slot bases wholesale — still flag ``_topo_dirty`` and pay the
        full O(live span) pass here.  The returned views alias the
        internal buffers: hold them within one pipeline stage only,
        never across a layout change.
        """
        if not self._topo_dirty and self._topo is not None:
            if self._topo_p0 != _TOPO_CLEAN:
                self._topo_patch(self._topo_p0)
            return self._topo
        self._topo_start.fill(-1)
        self._topo_fill(0, self.live_indices())
        self._topo_dirty = False
        self._topo_p0 = _TOPO_CLEAN
        self.topo_stats["rebuilds"] += 1
        return self._topo

    # ------------------------------------------------------------------
    # incremental topology (DESIGN.md §2.14)
    # ------------------------------------------------------------------
    def _topo_live(self) -> bool:
        """Whether the compact arrays (and block starts) are exact."""
        return self._topo is not None and not self._topo_dirty

    def _topo_buffers(self, total: int, keep: int) -> List[np.ndarray]:
        """The four persistent buffers, grown to ``total`` cells.

        ``keep`` is the prefix length that must survive a
        reallocation (the untouched part of a suffix splice); growth
        doubles, so a steady stream of patches never reallocates.
        """
        bufs = self._topo_bufs
        if bufs is None or len(bufs[0]) < total:
            cap = max(total, 2 * len(bufs[0]) if bufs is not None else 0, 16)
            grown = [np.empty(cap, dtype=np.int64) for _ in range(4)]
            if bufs is not None and keep:
                for dst, src in zip(grown, bufs):
                    dst[:keep] = src[:keep]
            self._topo_bufs = bufs = grown
        return bufs

    def _topo_fill(self, p0: int, rows: np.ndarray) -> None:
        """Recompute the compact arrays from position ``p0`` onward.

        ``rows`` are the chain rows whose blocks occupy positions
        ``p0:`` in fleet order (ascending chain id — blocks are laid
        out by chain id, so among suffix rows ascending id *is*
        ascending block start).  One vectorised repeat/cumsum pass —
        the same math as the old full rebuild, restricted to the
        suffix — recomputes cells, owners and the cyclic prev/next
        positions, and refreshes ``_topo_start`` for the moved rows.
        """
        lens = self.length[rows]
        tail = int(lens.sum())
        total = p0 + tail
        bufs = self._topo_buffers(total, p0)
        starts = p0 + np.cumsum(lens) - lens
        self._topo_start[rows] = starts
        rep = np.repeat(np.arange(len(rows), dtype=np.int64), lens)
        within = np.arange(tail, dtype=np.int64) - \
            np.repeat(starts - p0, lens)
        lr = lens[rep]
        cells_b, chain_b, prev_b, next_b = bufs
        cells_b[p0:total] = self.base[rows][rep] + within
        chain_b[p0:total] = rows[rep]
        idx = np.arange(p0, total, dtype=np.int64)
        pv = idx - 1
        first = within == 0
        pv[first] = (idx + lr - 1)[first]
        prev_b[p0:total] = pv
        nx = idx + 1
        last = within == lr - 1
        nx[last] = (idx - lr + 1)[last]
        next_b[p0:total] = nx
        self._topo_len = total
        self._topo = (cells_b[:total], chain_b[:total],
                      prev_b[:total], next_b[:total])

    def _topo_patch(self, p0: int) -> None:
        """Z-set style suffix splice: re-derive positions ``p0:``.

        Every layout delta — a retired block deleted, an admitted
        block inserted, contracted blocks shrunk — leaves the compact
        arrays exact below the first affected position; the rows still
        present at or above it are exactly those whose recorded block
        start is ``>= p0`` (deleted rows were reset to -1 first, an
        inserted row was stamped with its insertion position, and
        recorded starts — stale in *value* above the damage point —
        stay exact as membership/order keys, since blocks only shift
        within the damaged suffix and fleet order among them is
        ascending chain id).  Deltas accumulate as a single damage
        low-water mark (``_topo_p0``), so a whole churn round's worth
        of retires, admissions and contractions costs one vectorised
        suffix rewrite of O(cells after the lowest edit) — not O(live
        span), and not one pass per operation.
        """
        rows = np.flatnonzero(self._topo_start >= p0)
        self._topo_fill(p0, rows)
        self._topo_p0 = _TOPO_CLEAN
        self.topo_stats["delta_ops"] += 1
        self.topo_stats["delta_cells"] += self._topo_len - p0

    def topo_contract(self, cis: np.ndarray) -> None:
        """Re-splice after contraction shrank ``cis``'s lengths.

        Called by the fleet contraction once per round, after
        ``length`` is final for every contracted chain; one suffix
        splice from the lowest affected block start covers them all.
        """
        if not self._topo_live():
            self._topo_dirty = True
            return
        cis = np.asarray(cis, dtype=np.int64)
        p0 = int(self._topo_start[cis].min())
        if p0 < self._topo_p0:
            self._topo_p0 = p0

    def topology_reference(self) -> Topology:
        """From-scratch topology (the debug cross-check oracle).

        Recomputes all four arrays from ``base``/``length`` exactly as
        the pre-incremental rebuild did, without touching the
        maintained buffers; :meth:`verify_topology` compares the two.
        """
        live = self.live_indices()
        lens = self.length[live]
        total = int(lens.sum())
        rep = np.repeat(np.arange(len(live), dtype=np.int64), lens)
        within = np.arange(total, dtype=np.int64) - \
            np.repeat(np.cumsum(lens) - lens, lens)
        lr = lens[rep]
        cells = self.base[live][rep] + within
        idx = np.arange(total, dtype=np.int64)
        prev_pos = idx - 1
        first = within == 0
        prev_pos[first] = (idx + lr - 1)[first]
        next_pos = idx + 1
        last = within == lr - 1
        next_pos[last] = (idx - lr + 1)[last]
        return cells, live[rep], prev_pos, next_pos

    def verify_topology(self) -> None:
        """Assert the maintained topology equals a from-scratch rebuild.

        The debug cross-check of the delta algebra: element-equality
        of all four compact arrays, plus block-start consistency when
        the maintained state is live.  Raises ``AssertionError`` on
        the first mismatch (used by the invariant-checking tier and
        the lifecycle property tests; never on the hot path).
        """
        ref = self.topology_reference()
        cur = self.topology()
        names = ("cells", "cell_chain", "prev_pos", "next_pos")
        for name, a, b in zip(names, cur, ref):
            if not np.array_equal(a, b):
                raise AssertionError(
                    f"incremental topology diverged in {name}: "
                    f"maintained {a!r} != rebuilt {b!r}")
        if self._topo_live():
            live = self.live_indices()
            lens = self.length[live]
            starts = np.cumsum(lens) - lens
            if not np.array_equal(self._topo_start[live], starts):
                raise AssertionError("topology block starts diverged")

    # ------------------------------------------------------------------
    def gathered_mask(self, cis: Optional[np.ndarray] = None
                      ) -> Tuple[np.ndarray, np.ndarray]:
        """Per-chain 2×2-subgrid termination check, one reduceat pass.

        Returns ``(chain_ids, gathered)`` — all live chains by
        default, or just ``cis`` (the streaming scheduler re-checks
        only fresh admissions between rounds).  Segment bounds are
        interleaved ``[start, end, start, end, ...]`` so the even
        reduceat groups are exactly the per-chain reductions — the odd
        (inter-segment) groups absorb free holes and retired cells and
        are discarded.  Admission may hand out bases out of chain-id
        order; an out-of-order odd group then degenerates to a single
        element (reduceat's ``start >= end`` rule), which is discarded
        all the same, so the even groups stay exact.
        """
        live = self.live_indices() if cis is None \
            else np.asarray(cis, dtype=np.int64)
        b = self.base[live]
        bounds = np.empty(2 * len(live), dtype=np.int64)
        bounds[0::2] = b
        bounds[1::2] = b + self.length[live]
        mn = np.minimum.reduceat(self.pos, bounds, axis=0)[0::2]
        mx = np.maximum.reduceat(self.pos, bounds, axis=0)[0::2]
        return live, ((mx - mn) <= 1).all(axis=1)

    # ------------------------------------------------------------------
    # snapshot / restore (durability tier, DESIGN.md §2.12)
    # ------------------------------------------------------------------
    def snapshot_state(self) -> Tuple[Dict[str, np.ndarray], Dict[str, int]]:
        """The arena's complete state as plain arrays + scalar metadata.

        Everything the streaming scheduler's behaviour depends on is
        captured: the cell buffers (positions without the padding row,
        whose contents are never defined), the per-chain tables at
        their current count, and the two free lists — hole *order*
        controls where the next admission lands, so it is part of
        bit-identical resume.  Scratch buffers, topology arrays and
        the chain views are derived state and rebuild on restore.
        """
        span = self.span
        count = len(self.chains)
        arrays = {
            "pos": self.pos[:span].copy(),
            "codes": self.codes.copy(),
            "ids": self.ids.copy(),
            "index": self.index.copy(),
            "owner": self.owner.copy(),
            "base": self.base.copy(),
            "n0": self.n0.copy(),
            "length": self.length.copy(),
            "live": self.live.copy(),
            "free": np.array(self.free, dtype=np.int64).reshape(-1, 2),
            "free_ids": np.array(self.free_ids, dtype=np.int64),
        }
        meta = {
            "count": count,
            "live_cells": int(self.live_cells),
            "peak_cells": int(self.peak_cells),
            "n_live": int(self.n_live),
            "peak_live": int(self.peak_live),
            # instrumentation counters ride along so resumed streams
            # report cumulative rebuild/delta totals, not post-crash
            # partials (the arrays themselves are derived state and
            # rebuild on restore)
            "topo_rebuilds": int(self.topo_stats["rebuilds"]),
            "topo_delta_ops": int(self.topo_stats["delta_ops"]),
            "topo_delta_cells": int(self.topo_stats["delta_cells"]),
        }
        return arrays, meta

    @classmethod
    def restore_state(cls, arrays: Dict[str, np.ndarray],
                      meta: Dict[str, int]) -> "ChainArena":
        """Rebuild an arena from :meth:`snapshot_state` output.

        Builds through the constructor, then copies every buffer in
        (the restored arena never aliases the snapshot arrays).  Chain
        objects are *not* revived here — the ``chains`` list holds
        ``None`` placeholders until the kernel calls
        :meth:`revive_chain` for each live slot.
        """
        count = int(meta["count"])
        span = len(arrays["codes"])
        self = cls(span)
        self.pos[:span] = arrays["pos"]
        self.codes[:] = arrays["codes"]
        self.ids[:] = arrays["ids"]
        self.index[:] = arrays["index"]
        self.owner[:] = arrays["owner"]
        self._base_buf = np.array(arrays["base"], dtype=np.int64)
        self._n0_buf = np.array(arrays["n0"], dtype=np.int64)
        self._len_buf = np.array(arrays["length"], dtype=np.int64)
        self._live_buf = np.array(arrays["live"], dtype=bool)
        self._topo_start_buf = np.full(count, -1, dtype=np.int64)
        self.base = self._base_buf[:count]
        self.n0 = self._n0_buf[:count]
        self.length = self._len_buf[:count]
        self.live = self._live_buf[:count]
        self._topo_start = self._topo_start_buf
        self.free = [(int(o), int(s))
                     for o, s in np.asarray(arrays["free"]).reshape(-1, 2)]
        self.free_ids = [int(i) for i in arrays["free_ids"]]
        self.chains = [None] * count
        self.live_cells = int(meta["live_cells"])
        self.peak_cells = int(meta["peak_cells"])
        self.n_live = int(meta["n_live"])
        self.peak_live = int(meta["peak_live"])
        self.topo_stats.update(
            rebuilds=int(meta.get("topo_rebuilds", 0)),
            delta_ops=int(meta.get("topo_delta_ops", 0)),
            delta_cells=int(meta.get("topo_delta_cells", 0)))
        return self

    def revive_chain(self, ci: int) -> ClosedChain:
        """Reconstruct the ClosedChain view over a restored live slot.

        Snapshots are taken at round boundaries, where the arena's
        position and code buffers are exact, so the revived chain
        adopts them directly (no zero edges) and rebuilds only its
        Python-side id list.  The slot spans the chain's id space, so
        ``_next_id`` is the slot's ``n0``.
        """
        b = int(self.base[ci])
        n = int(self.length[ci])
        return self._chain_view(ci, 0, self.ids[b:b + n].tolist(),
                                int(self.n0[ci]))

    # ------------------------------------------------------------------
    def apply_moves(self, gidx: np.ndarray, deltas: np.ndarray,
                    mover_chain: np.ndarray) -> np.ndarray:
        """Fleet-wide simultaneous movement: one scatter, codes kept exact.

        ``gidx`` are global cells of the hopping robots (unique — a
        robot hops at most once per round), ``deltas`` the single-round
        hop vectors, ``mover_chain`` the owning chain ids.  The scatter
        writes through every chain's position view; the two edges
        incident to each mover are re-encoded in bulk (the fleet-wide
        form of :meth:`ClosedChain._post_move_codes`).  Per-chain
        Python-side caches (tuple lists, zero-edge counters) are *not*
        maintained here — the flat arrays are the fleet's source of
        truth and chain-level state settles at the fleet's sync points
        (``FleetKernel._sync_ids`` / retirement), so a round costs no
        per-chain loop.  A single-segment arena's quiet rounds move
        through :meth:`ClosedChain.apply_moves_indexed` instead, which
        *does* keep the chain caches coherent; its merge-dense rounds
        scatter here and the fleet drops the chain's stale caches.

        Returns the global cells of the edges that *became* zero this
        round, ascending — exactly the fleet's coincident neighbour
        pairs, since contraction clears every zero edge each round.
        """
        if len(gidx) == 0:
            return np.empty(0, dtype=np.int64)
        pos = self.pos
        pos[gidx] += deltas
        base_m = self.base[mover_chain]
        len_m = self.length[mover_chain]
        local = gidx - base_m
        e_prev = np.where(local == 0, len_m - 1, local - 1) + base_m
        # dedup by scatter-mark (adjacent movers share an edge); the
        # owning chain re-derives from the owner table
        emask = self.scratch.take("move_edges", self.span, bool, fill=False)
        emask[e_prev] = True
        emask[gidx] = True
        E = np.flatnonzero(emask)
        ec = self.owner[E]
        lb = self.base[ec]
        el = E - lb
        nxt = np.where(el + 1 == self.length[ec], 0, el + 1) + lb
        d = pos[nxt] - pos[E]
        dx, dy = d[:, 0], d[:, 1]
        nc = np.full(len(E), -2, dtype=np.int64)
        horiz = (dy == 0) & ((dx == 1) | (dx == -1))
        nc[horiz] = 1 - dx[horiz]
        vert = (dx == 0) & ((dy == 1) | (dy == -1))
        nc[vert] = 2 - dy[vert]
        nc[(dx == 0) & (dy == 0)] = -1
        oc = self.codes[E]
        ch = oc != nc
        if ch.any():
            self.codes[E[ch]] = nc[ch]
        return E[nc == -1]
