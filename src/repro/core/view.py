"""Local views: what a single robot is allowed to see.

The paper's locality model is the heart of the contribution: a robot
sees only its next ``V`` chain neighbours in each direction (their
relative positions, plus — for the run mechanics — the run states they
carry, since run states are handed between neighbours and a runner can
"see the next sequent run in front of it").

:class:`ChainWindow` is the only interface through which the policy
code reads the chain.  Any access beyond ±``V`` raises
:class:`~repro.errors.LocalityViolation`, which makes locality a
structural property of the implementation rather than a convention.

The window binds the chain's zero-copy position/id views at
construction (windows are per-round temporaries built from one FSYNC
snapshot, see DESIGN.md §2.8), so the per-offset reads on the measured
hot path are plain list indexing.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple

from repro.errors import LocalityViolation
from repro.grid.lattice import Vec


class ChainWindow:
    """A robot-centred sliding window over the chain.

    Offsets are chain offsets relative to the anchor robot; positive
    offsets follow increasing chain index.  ``runs_at`` exposes the
    directions of run states carried by visible robots (empty when no
    run registry is attached).
    """

    __slots__ = ("_chain", "_anchor", "_limit", "_runs_of", "_pos", "_ids",
                 "_n", "_carriers")

    def __init__(self, chain, anchor_index: int, viewing_path_length: int,
                 runs_of: Optional[Callable[[int], Sequence[int]]] = None,
                 carriers: Optional[Tuple[List[int], List[int]]] = None):
        self._chain = chain
        self._pos = chain.positions_view()
        self._ids = chain.ids_view()
        self._n = len(self._pos)
        self._anchor = anchor_index % self._n
        self._limit = viewing_path_length
        self._runs_of = runs_of
        self._carriers = carriers

    def reanchor(self, anchor_index: int) -> "ChainWindow":
        """Move the window to another robot of the same snapshot.

        The engine slides one window over all deciding robots per round
        instead of allocating one each (windows are immutable snapshots
        otherwise; the chain must not have mutated since construction).
        """
        self._anchor = anchor_index % self._n
        return self

    @property
    def anchor_index(self) -> int:
        """Chain index of the anchored robot."""
        return self._anchor

    @property
    def limit(self) -> int:
        """Viewing path length ``V``."""
        return self._limit

    def _check(self, offset: int) -> None:
        limit = self._limit
        if offset > limit or -offset > limit:
            raise LocalityViolation(
                f"offset {offset} exceeds viewing path length {limit}")

    def pos(self, offset: int) -> Vec:
        """Absolute position of the robot ``offset`` steps along the chain.

        The policy only ever uses *differences* of these values, so the
        absolute frame does not leak global information.
        """
        self._check(offset)
        return self._pos[(self._anchor + offset) % self._n]

    def rel(self, offset: int) -> Vec:
        """Position of a visible robot relative to the anchor."""
        self._check(offset)
        pos = self._pos
        a = pos[self._anchor]
        b = pos[(self._anchor + offset) % self._n]
        return (b[0] - a[0], b[1] - a[1])

    def edge(self, offset: int, direction: int) -> Vec:
        """Edge vector from robot at ``offset`` to the next one toward ``direction``.

        ``direction`` must be +1 or -1.  Both endpoints must be within
        the window.
        """
        limit = self._limit
        far = offset + direction
        if abs(offset) > limit or abs(far) > limit:
            self._check(offset)
            self._check(far)
        pos = self._pos
        n = self._n
        a = pos[(self._anchor + offset) % n]
        b = pos[(self._anchor + far) % n]
        return (b[0] - a[0], b[1] - a[1])

    def id_at(self, offset: int) -> int:
        """Stable id of a visible robot (used to track travel targets).

        Identity here is positional bookkeeping for the simulator; the
        modelled robots remain anonymous — no rule compares ids of
        distinct robots.
        """
        self._check(offset)
        return self._ids[(self._anchor + offset) % self._n]

    def run_directions_at(self, offset: int) -> Tuple[int, ...]:
        """Chain directions (+1/-1) of run states on a visible robot."""
        self._check(offset)
        if self._runs_of is None:
            return ()
        dirs = self._runs_of(self._ids[(self._anchor + offset) % self._n])
        return tuple(dirs) if dirs else ()

    def runs_ahead(self, direction: int, limit: int) -> Tuple[Optional[int], Optional[int]]:
        """Nearest sequent and oncoming runs ahead (bulk scan).

        Returns ``(sequent_offset, oncoming_offset)`` — the smallest
        1-based offsets toward ``direction`` carrying a run moving with
        resp. against ``direction`` (``None`` when absent).  Semantically
        identical to probing :meth:`run_directions_at` offset by offset;
        implemented as one pass because this scan dominates the round
        cost of the per-run policy engines (timed by EXP-P1).
        """
        self._check(limit * direction)
        n = self._n
        carriers = self._carriers
        if carriers is not None:
            # per-round carrier index lists split by run direction: visit
            # the few run-carrying robots instead of probing every offset
            fwd, bwd = carriers
            anchor = self._anchor
            sequent = oncoming = None
            for ci in (fwd if direction == 1 else bwd):
                off = ((ci - anchor) * direction) % n
                if off == 0:
                    off = n                # the anchor re-appears after a lap
                if off <= limit and (sequent is None or off < sequent):
                    sequent = off
            for ci in (bwd if direction == 1 else fwd):
                off = ((ci - anchor) * direction) % n
                if off == 0:
                    off = n
                if off <= limit and (oncoming is None or off < oncoming):
                    oncoming = off
            return (sequent, oncoming)
        if self._runs_of is None:
            return (None, None)
        ids = self._ids
        runs_of = self._runs_of
        sequent = oncoming = None
        i = self._anchor
        for off in range(1, limit + 1):
            i += direction
            if i >= n:
                i -= n
            elif i < 0:
                i += n
            dirs = runs_of(ids[i])
            if dirs:
                if sequent is None and direction in dirs:
                    sequent = off
                if oncoming is None and -direction in dirs:
                    oncoming = off
                if sequent is not None and oncoming is not None:
                    break
        return (sequent, oncoming)

    # convenience predicates used by the policy ------------------------------
    def ahead_edges(self, direction: int, count: int) -> List[Vec]:
        """The first ``count`` edge vectors ahead in ``direction``.

        Edge ``j`` (1-based) points from the robot at offset
        ``(j-1)*direction`` to the robot at ``j*direction``.
        """
        self._check(count * direction)
        pos = self._pos
        n = self._n
        anchor = self._anchor
        prev = pos[anchor]
        out: List[Vec] = []
        for j in range(1, count + 1):
            cur = pos[(anchor + j * direction) % n]
            out.append((cur[0] - prev[0], cur[1] - prev[1]))
            prev = cur
        return out

    def ahead_codes(self, direction: int, count: int) -> List[int]:
        """Direction codes of the first ``count`` edges ahead.

        Code semantics follow :meth:`ClosedChain.edge_codes` (0=E, 1=N,
        2=W, 3=S, -1=zero edge); toward ``direction = -1`` the chain's
        forward codes are flipped to the walking direction (the opposite
        of a valid code is ``code ^ 2``).  Against a connected chain this
        is the integer rendering of :meth:`ahead_edges`; the policy's
        shape checks parse these codes on the measured hot path.
        """
        self._check(count * direction)
        codes = self._chain.edge_codes_list()
        n = self._n
        anchor = self._anchor
        if count > n:                      # window laps the (short) chain
            if direction == 1:
                return [codes[(anchor + j) % n] for j in range(count)]
            return [c ^ 2 if c >= 0 else c
                    for j in range(1, count + 1)
                    for c in (codes[(anchor - j) % n],)]
        if direction == 1:
            end = anchor + count
            if end <= n:
                return codes[anchor:end]
            return codes[anchor:] + codes[:end - n]
        start = anchor - count
        if start >= 0:
            seg = codes[start:anchor]
        else:
            seg = codes[start + n:] + codes[:anchor]
        return [c ^ 2 if c >= 0 else c for c in reversed(seg)]

    def code_toward(self, direction: int) -> int:
        """Code of the anchor's first edge toward ``direction``.

        Scalar fast path for ``ahead_codes(direction, 1)[0]``.
        """
        self._check(direction)
        codes = self._chain.edge_codes_list()
        if direction == 1:
            return codes[self._anchor]
        c = codes[self._anchor - 1]
        return c ^ 2 if c >= 0 else c

    def wraps(self) -> bool:
        """True when the window covers the entire (short) chain.

        Robots cannot *detect* this — it is used only by tests and
        analysis tooling, never by the policy.
        """
        return 2 * self._limit + 1 >= self._n
