"""Per-robot decision logic — the algorithm of paper Fig. 15.

Every round each robot executes, from the same FSYNC snapshot:

1. **Merge** — if it participates in a visible merge pattern it performs
   the pattern's hop (blacks) or stands still (whites); its runs
   terminate (Table 1.3).
2. **Run operations** — termination conditions (Table 1), run passing
   (Fig. 8/14), travel continuation, and the reshapement operations of
   Fig. 11.
3. **Start new runs** — every L-th round, at the shapes of Fig. 5.

The functions here are *pure*: they read the snapshot through
:class:`~repro.core.view.ChainWindow` (which enforces the viewing path
length) and return decision records that the engine applies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Set

from repro.grid.lattice import Vec, add, are_perpendicular, is_axis_unit
from repro.core.chain import CODE_TO_DIR
from repro.core.config import Parameters
from repro.core.patterns import endpoint_visible_ahead
from repro.core.runs import RunMode, RunState, StopReason
from repro.core.view import ChainWindow


@dataclass(slots=True)
class RunDecision:
    """The action a run takes this round (engine applies it)."""

    run: RunState
    stop_reason: Optional[StopReason] = None
    hop: Optional[Vec] = None
    mode_after: Optional[RunMode] = None
    target_after_set: bool = False
    target_after: Optional[int] = None
    travel_steps_after: Optional[int] = None

    @property
    def moves(self) -> bool:
        """Surviving runs always advance one robot (Lemma 3.1)."""
        return self.stop_reason is None


#: Shared "keep moving, nothing special" decision (no hop, no stop,
#: NORMAL mode, target cleared) — the most common outcome, returned as a
#: singleton to keep the per-run hot path allocation-free.  Its ``run``
#: field is None: the engine pairs decisions with runs positionally.
_CONTINUE = RunDecision(None, mode_after=RunMode.NORMAL)


def _oncoming_run_offset(window: ChainWindow, direction: int, limit: int) -> Optional[int]:
    """Smallest offset (1-based, toward ``direction``) carrying an oncoming run."""
    return window.runs_ahead(direction, limit)[1]


def decide_run(run, window: ChainWindow, params: Parameters,
               merge_participants: Set[int]) -> RunDecision:
    """Compute a run's action for this round (paper Fig. 15, step 2).

    ``run`` is anything exposing the decision-hot read attributes
    (``robot_id``, ``direction``, ``axis``, ``mode``, ``target_id``,
    ``travel_steps_left``): a :class:`~repro.core.runs.RunState` or the
    engine's row-local :class:`~repro.core.runs.DecisionRow` snapshot
    (the function only reads — application is the engine's job).
    """
    sigma = run.direction
    v = params.viewing_path_length
    self_id = run.robot_id               # == window.id_at(0) by construction

    # Table 1.3 — the carrier takes part in a merge operation.
    if self_id in merge_participants:
        return RunDecision(run, stop_reason=StopReason.MERGE_PARTICIPATION)

    sequent, oncoming_far = window.runs_ahead(sigma, v)

    # Table 1.1 — sequent run visible in front.  With the sequent guard,
    # a sequent run at or beyond the approaching partner is receding on
    # the far side of the quasi line and is ignored (DESIGN.md §2.7).
    if sequent is not None:
        guarded = (params.sequent_guard and oncoming_far is not None
                   and sequent >= oncoming_far)
        if not guarded:
            return RunDecision(run, stop_reason=StopReason.SEQUENT_RUN_AHEAD)

    # Table 1.2 — endpoint of the quasi line visible in front.  With the
    # endpoint guard and an oncoming run in view the verdict would be
    # discarded anyway, so the scan and the grammar parse are skipped;
    # otherwise one bulk edge-code scan serves the grammar and the
    # operation shape checks below (measured hot path, timed by EXP-P1)
    if params.endpoint_guard and oncoming_far is not None:
        ahead = None
    else:
        ahead = window.ahead_codes(sigma, v)
        if endpoint_visible_ahead(window, sigma, run.axis,
                                  params.effective_k_max, codes=ahead):
            return RunDecision(run, stop_reason=StopReason.ENDPOINT_VISIBLE)

    # --- arrival bookkeeping: leaving passing/travel when on target -------
    mode = run.mode
    target = run.target_id
    steps = run.travel_steps_left
    if mode is RunMode.PASSING and target is not None and self_id == target:
        mode, target = RunMode.NORMAL, None
    if mode is RunMode.TRAVEL and ((target is not None and self_id == target)
                                   or steps <= 0):
        mode, target, steps = RunMode.NORMAL, None, 0

    # --- run passing (Fig. 8 / Fig. 14) ------------------------------------
    if mode is RunMode.PASSING:
        return RunDecision(run, mode_after=RunMode.PASSING,
                           target_after_set=True, target_after=target)
    pd = params.passing_distance
    if pd <= v:
        # the bulk scan above already found the nearest oncoming run
        # within the full viewing range; the passing check only narrows
        # the horizon, so no second scan is needed
        oncoming = oncoming_far if (oncoming_far is not None
                                    and oncoming_far <= pd) else None
    else:
        oncoming = _oncoming_run_offset(window, sigma, pd)
    if oncoming is not None and mode is not RunMode.INIT_CORNER:
        if mode is RunMode.TRAVEL and target is not None:
            # Fig. 14: an interrupted operation keeps its settled target.
            passing_target = target
        else:
            passing_target = window.id_at(oncoming * sigma)
        return RunDecision(run, mode_after=RunMode.PASSING,
                           target_after_set=True, target_after=passing_target)

    # --- continue an operation already in progress (Fig. 11 b/c) -----------
    if mode is RunMode.TRAVEL:
        return RunDecision(run, mode_after=RunMode.TRAVEL,
                           target_after_set=True, target_after=target,
                           travel_steps_after=steps - 1)

    # --- operation (c): corner-cut hop of a fresh Fig. 5(ii) run -----------
    if mode is RunMode.INIT_CORNER:
        u = window.edge(0, 1)
        w_ = window.edge(0, -1)
        hop = None
        if is_axis_unit(u) and is_axis_unit(w_) and are_perpendicular(u, w_):
            hop = add(u, w_)
        return RunDecision(run, hop=hop, mode_after=RunMode.NORMAL)

    # --- normal operation: (a) reshape or (b) travel ------------------------
    if ahead is None:
        ahead = window.ahead_codes(sigma, 3)   # only the shape checks remain
    c1 = ahead[0]
    if c1 >= 0:                            # lead edge is an axis unit
        aligned2 = ahead[1] == c1
        aligned3 = aligned2 and ahead[2] == c1
        if aligned3:
            # operation (a): runner and next >= 3 robots on a straight line
            behind = window.code_toward(-sigma)
            if behind >= 0 and ((behind ^ c1) & 1):
                return RunDecision(run,
                                   hop=add(CODE_TO_DIR[behind], CODE_TO_DIR[c1]),
                                   mode_after=RunMode.NORMAL)
            return _CONTINUE
        if aligned2:
            # operation (b): move hop-less to the corner three robots ahead
            return RunDecision(run, mode_after=RunMode.TRAVEL,
                               target_after_set=True,
                               target_after=window.id_at(3 * sigma),
                               travel_steps_after=params.travel_steps)
    # defensive default: keep moving at speed one without reshaping
    return _CONTINUE
