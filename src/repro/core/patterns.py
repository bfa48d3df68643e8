"""Local shape recognition: merges, run starts, quasi lines.

Everything the algorithm does is triggered by the *shape* of a short
subchain.  This module contains the three recognisers:

* **merge patterns** (paper Fig. 2): U-shaped windows whose edge
  sequence reads ``(-d, u, …, u, +d)`` with ``u ⊥ d`` — the black
  robots between the flanks hop by ``d`` onto the white endpoints;
* **run-start shapes** (paper Fig. 5): the two local patterns marking
  the endpoint of a quasi line, at which robots elect themselves to
  start runs;
* the **quasi-line edge grammar** (paper Def. 1 and Fig. 16) used to
  detect the endpoint of a quasi line ahead of a run (termination
  condition 2 of Table 1).

All recognisers are pure functions of edge vectors, so they apply
unchanged under every rotation/reflection (the vectors carry the
orientation).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.grid.lattice import (
    Vec,
    ZERO,
    add,
    are_perpendicular,
    is_axis_unit,
    neg,
    sub,
)
from repro.core.view import ChainWindow


# ---------------------------------------------------------------------------
# merge patterns
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MergePattern:
    """A merge opportunity (paper Fig. 2).

    ``first_black`` is the chain index of the first black robot; there
    are ``k`` blacks hopping by ``direction``; the whites sit at chain
    indices ``first_black - 1`` and ``first_black + k``.
    """

    first_black: int
    k: int
    direction: Vec

    def black_indices(self, n: int) -> List[int]:
        """Chain indices of the black robots."""
        return [(self.first_black + j) % n for j in range(self.k)]

    def white_indices(self, n: int) -> Tuple[int, int]:
        """Chain indices of the two white robots."""
        return ((self.first_black - 1) % n, (self.first_black + self.k) % n)

    def participant_indices(self, n: int) -> List[int]:
        """All robots taking part in the merge operation."""
        w0, w1 = self.white_indices(n)
        return [w0, *self.black_indices(n), w1]


def find_merge_patterns(positions: Sequence[Vec], k_max: int) -> List[MergePattern]:
    """All merge patterns in a closed chain (reference implementation).

    A pattern with ``k`` blacks occupies ``k + 2`` consecutive robots
    whose ``k + 1`` edges read ``(-d, u × (k-1), +d)`` with ``u ⊥ d``.
    For ``k = 1`` the two whites coincide (the paper's "length 1" case).
    The visibility constraint caps ``k`` at ``k_max``.
    """
    n = len(positions)
    if n < 4:
        return []
    edges = [sub(positions[(i + 1) % n], positions[i]) for i in range(n)]
    patterns: List[MergePattern] = []
    for i in range(n):
        lead = edges[(i - 1) % n]          # edge from white_l into the first black
        if not is_axis_unit(lead):
            continue
        d = neg(lead)                      # blacks hop toward the whites' side
        # k = 1 spike: the very next edge already points back by +d.
        if edges[i] == d:
            patterns.append(MergePattern(first_black=i, k=1, direction=d))
            continue
        # k >= 2: walk the straight middle run (perpendicular to d).
        u = edges[i]
        if not is_axis_unit(u) or not are_perpendicular(u, d):
            continue
        j = i
        middle = 0
        while middle < k_max - 1 and edges[j % n] == u:
            middle += 1
            j += 1
            if edges[j % n] == d:
                k = middle + 1
                if k + 2 <= n:             # pattern must not lap the chain
                    patterns.append(MergePattern(first_black=i, k=k, direction=d))
                break
    return patterns


# ---------------------------------------------------------------------------
# run-start shapes (paper Fig. 5)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RunStart:
    """A run-start decision at the window's anchor robot.

    ``direction`` is the chain direction the run will move along;
    ``kind`` is ``"i"`` (quasi line meets a stairway, Fig. 5(i)) or
    ``"ii"`` (two quasi lines meet at a corner, Fig. 5(ii) — the corner
    fires once per direction, so a (ii) corner yields two RunStarts).
    ``axis`` is the unit vector of the quasi line's first segment as
    seen from the start (stored in the run's constant memory).
    """

    direction: int
    kind: str
    axis: Vec


def run_start_decisions(window: ChainWindow) -> List[RunStart]:
    """Run starts fired by the anchor robot (checked every L-th round).

    For each chain direction σ the anchor starts a run toward σ when it
    is the last robot of a ≥3-aligned segment extending toward σ while
    the shape behind it ends the quasi line:

    * Fig. 5(ii): the two robots behind continue perpendicularly (the
      anchor is the corner shared with a perpendicular quasi line);
    * Fig. 5(i): one perpendicular step, one axis step, then another
      perpendicular step in the same rotational sense — a stairway.
    """
    starts: List[RunStart] = []
    for sigma in (1, -1):
        e1 = window.edge(0, sigma)
        if not is_axis_unit(e1):
            continue
        if window.edge(sigma, sigma) != e1:
            continue                       # anchor, m1, m2 must be aligned
        g1 = window.edge(0, -sigma)
        if not (is_axis_unit(g1) and are_perpendicular(g1, e1)):
            continue
        g2 = window.edge(-sigma, -sigma)
        if g2 == g1:
            # perpendicular segment of >= 3 robots behind: Fig. 5(ii)
            starts.append(RunStart(direction=sigma, kind="ii", axis=e1))
            continue
        if not (is_axis_unit(g2) and are_perpendicular(g2, g1)):
            continue                       # axis step expected next
        g3 = window.edge(-2 * sigma, -sigma)
        if g3 == g1:
            # same rotational sense: a stairway begins behind: Fig. 5(i)
            starts.append(RunStart(direction=sigma, kind="i", axis=e1))
    return starts


# ---------------------------------------------------------------------------
# quasi-line grammar (paper Def. 1) and endpoint visibility (Table 1.2)
# ---------------------------------------------------------------------------

def _axis_of(v: Vec) -> str:
    return "x" if v[1] == 0 else "y"


#: Unit edge -> direction code (parity of the code gives the axis);
#: ``-1`` marks a zero edge, missing entries are diagonals.  The grammar
#: below parses integer codes instead of vector tuples because the
#: endpoint scan runs for every live run every round.
_VEC_TO_CODE = {(1, 0): 0, (0, 1): 1, (-1, 0): 2, (0, -1): 3, (0, 0): -1}

_DIAGONAL = -2

#: Memo for the endpoint grammar: (code tuple, axis parity, k_max) ->
#: verdict.  The parse is pure and windows repeat heavily (a run on a
#: straight quasi line sees the same code window for many rounds), so
#: the hit rate is high on the measured hot path.  Bounded: cleared
#: when it outgrows _ENDPOINT_CACHE_MAX distinct windows.
_ENDPOINT_CACHE: dict = {}
_ENDPOINT_CACHE_MAX = 1 << 15


def endpoint_visible_ahead(window: ChainWindow, direction: int, axis: Vec,
                           k_max: int,
                           edges: Optional[List[Vec]] = None,
                           codes: Optional[List[int]] = None) -> bool:
    """Termination condition 2: the quasi line ends within view ahead.

    Walks the visible edges ahead of the runner and parses them with the
    quasi-line grammar.  The quasi line (axis ``axis``) ends where the
    grammar breaks irrecoverably:

    * two equal consecutive perpendicular edges (a perpendicular segment
      of ≥ 3 robots — a perpendicular quasi line starts), or
    * a stairway step ``(⊥w, axis, ⊥w)``.

    Mergeable U-shapes (``(⊥w, axis×m, ⊥-w)`` with ``m + 1 ≤ k_max``)
    and legal jogs/wiggles (segments of ≥ 3 robots between jogs) do not
    end the line: the former resolve by merging, the latter are part of
    the quasi line.

    ``edges`` may pass a pre-fetched ``window.ahead_edges(direction,
    window.limit)`` scan to share it with the caller's operation checks;
    ``codes`` may pass the equivalent ``window.ahead_codes`` scan
    directly (the engine's hot path).
    """
    limit = window.limit
    if codes is None:
        if edges is None:
            edges = window.ahead_edges(direction, limit)
        to_code = _VEC_TO_CODE.get
        codes = [to_code(e, _DIAGONAL) for e in edges]
    apar = 0 if axis[1] == 0 else 1        # parity of the quasi-line axis
    return endpoint_visible_codes(codes, limit, apar, k_max)


def endpoint_visible_codes(codes: List[int], limit: int, apar: int,
                           k_max: int) -> bool:
    """Memoised endpoint verdict on a raw walking-direction code window.

    Window-free entry point for :func:`endpoint_visible_ahead`, shared
    with the kernel engine's vectorised decision stage (its flagged
    candidates parse through the exact same grammar and memo —
    DESIGN.md §2.9).  ``apar`` is the parity of the quasi-line axis
    (0 = x, 1 = y).
    """
    key = (tuple(codes), limit, apar, k_max)
    cached = _ENDPOINT_CACHE.get(key)
    if cached is not None:
        return cached
    verdict = _parse_endpoint(codes, limit, apar, k_max)
    if len(_ENDPOINT_CACHE) >= _ENDPOINT_CACHE_MAX:
        _ENDPOINT_CACHE.clear()
    _ENDPOINT_CACHE[key] = verdict
    return verdict


def _parse_endpoint(codes: List[int], limit: int, apar: int, k_max: int) -> bool:
    """The quasi-line grammar parse behind :func:`endpoint_visible_ahead`."""
    j = 0
    while j < limit:
        c = codes[j]
        if c == -1:
            return False                   # transient merge residue; re-check next round
        if c == _DIAGONAL:
            return True                    # diagonal edge: structurally broken (defensive)
        if (c & 1) == apar:
            j += 1
            continue
        # perpendicular edge: classify the feature it opens
        if j + 1 >= limit:
            return False                   # unresolved at the horizon
        nxt = codes[j + 1]
        if nxt < 0:
            return nxt == _DIAGONAL
        if (nxt & 1) != apar:
            if nxt == c:
                return True                # ⊥⊥ same: perpendicular segment of >= 3
            j += 2                         # spike (k=1 U): merge resolves it
            continue
        # perpendicular edge followed by an axis run of length m
        m = 0
        t = j + 1
        while t < limit and codes[t] == nxt:
            m += 1
            t += 1
        if t >= limit:
            return False                   # axis run reaches the horizon: unresolved
        closing = codes[t]
        if closing < 0:
            return closing == _DIAGONAL
        if (closing & 1) == apar:
            # axis run with a direction change inside — a spike on the
            # axis; treat conservatively as unresolved structure.
            j = t
            continue
        if closing == c:
            if m == 1:
                return True                # stairway step
            j = t                          # legal jog; closing edge opens next feature
            continue
        # closing == c ^ 2 (the opposite flank): a U with m middle edges
        # (k = m + 1 blacks)
        if m + 1 <= k_max:
            j = t + 1                      # mergeable: both flanks consumed
        else:
            j = t                          # legal wiggle; closing edge re-parsed
    return False


def quasi_line_segments(positions: Sequence[Vec]) -> List[Tuple[str, int, int]]:
    """Decompose a chain's edges into maximal straight segments.

    Returns ``(axis, start_edge, length)`` triples in chain order, used
    by the quasi-line analysis tooling and the generators' validators.
    """
    n = len(positions)
    edges = [sub(positions[(i + 1) % n], positions[i]) for i in range(n)]
    segs: List[Tuple[str, int, int]] = []
    i = 0
    while i < n:
        e = edges[i]
        if e == ZERO:
            i += 1
            continue
        axis = _axis_of(e)
        j = i
        while j + 1 < n and edges[j + 1] == e:
            j += 1
        segs.append((axis, i, j - i + 1))
        i = j + 1
    return segs


def is_quasi_line(positions: Sequence[Vec], axis: str) -> bool:
    """Definition 1 check for an *open* subchain given as positions.

    A horizontal (axis ``"x"``) quasi line: first and last three robots
    aligned on the axis, every axis segment has ≥ 3 robots, every
    perpendicular segment has ≤ 2 robots.
    """
    pts = list(positions)
    if len(pts) < 3:
        return False
    edges = [sub(pts[i + 1], pts[i]) for i in range(len(pts) - 1)]
    if not all(is_axis_unit(e) for e in edges):
        return False
    # first and last three robots aligned on the axis
    for probe in (edges[:2], edges[-2:]):
        if len(probe) < 2 or probe[0] != probe[1] or _axis_of(probe[0]) != axis:
            return False
    # segment length constraints
    i = 0
    while i < len(edges):
        e = edges[i]
        j = i
        while j + 1 < len(edges) and edges[j + 1] == e:
            j += 1
        seg_edges = j - i + 1
        if _axis_of(e) == axis:
            if seg_edges < 2:
                return False               # axis segment of 2 robots
        else:
            if seg_edges > 1:
                return False               # perpendicular segment of >= 3 robots
        i = j + 1
    return True


def is_stairway(positions: Sequence[Vec]) -> bool:
    """True for a subchain of alternating left and right turns (Fig. 16).

    Every edge is a unit step and consecutive edges are perpendicular
    with a consistent alternation (each pair of same-axis edges points
    the same way — the staircase always advances).
    """
    pts = list(positions)
    if len(pts) < 3:
        return False
    edges = [sub(pts[i + 1], pts[i]) for i in range(len(pts) - 1)]
    if not all(is_axis_unit(e) for e in edges):
        return False
    for a, b in zip(edges, edges[1:]):
        if not are_perpendicular(a, b):
            return False
    for a, b in zip(edges, edges[2:]):
        if a != b:
            return False
    return True
