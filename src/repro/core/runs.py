"""Run states and the run registry (struct-of-arrays store).

A *run* is the moving token of the paper's reshapement machinery
(§3.2/§4.1): it travels along the chain one robot per round in a fixed
chain direction; the robot currently carrying it (the *runner*) may
perform reshapement hops.  Runs occupy constant memory per robot (at
most two runs, each a handful of scalars), honouring the paper's
constant-memory model.

Storage model (DESIGN.md §2.9): the registry owns one ``(capacity,
11)`` int64 matrix — one row per run ever started, indexed by
``run_id`` (ids are handed out sequentially, so the id *is* the row),
one column per field (see the ``COL_*`` constants).  The kernel engine
(:mod:`repro.core.engine_kernel`) and the bulk decision stage
(:mod:`repro.core.decisions_vectorized`) read and write columns of
this matrix in bulk; the scalar decision path extracts the live rows
as plain Python lists with a single gather.  :class:`RunState` is a
thin per-run view object over one row, keeping the original attribute
API for the reference engine, the policy code and the tests.  A
:class:`RunState` constructed directly (outside a registry) carries
its own scalar storage, so the class remains usable standalone.
"""

from __future__ import annotations

import enum
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.grid.lattice import Vec


class RunMode(enum.Enum):
    """Operating mode of a run (paper Fig. 11 and Fig. 8)."""

    #: Fresh run from a Fig. 5(ii) corner: performs the corner-cut
    #: diagonal hop in its first acting round (operation (c)).
    INIT_CORNER = "init_corner"
    #: Default: reshapement hops whenever the local shape allows (op (a)).
    NORMAL = "normal"
    #: Hop-less movement toward a settled target corner (op (b)/(c)).
    TRAVEL = "travel"
    #: Run passing (Fig. 8/14): hop-less movement through an oncoming run.
    PASSING = "passing"


class StopReason(enum.Enum):
    """Why a run terminated — Table 1 of the paper."""

    SEQUENT_RUN_AHEAD = 1        # Table 1.1
    ENDPOINT_VISIBLE = 2         # Table 1.2
    MERGE_PARTICIPATION = 3      # Table 1.3
    PASSING_TARGET_REMOVED = 4   # Table 1.4
    TRAVEL_TARGET_REMOVED = 5    # Table 1.5
    RUNNER_REMOVED = 6           # carrier merged away (subsumed by 3 in the paper)
    DUPLICATE_DIRECTION = 7      # safety: two same-direction runs on one robot


#: Integer encodings used by the registry matrix (and the kernel
#: engine's decision stage).  Mode codes index ``MODE_FROM_CODE``;
#: stop-reason code 0 means "still active", otherwise the code is the
#: :class:`StopReason` value.
MODE_INIT_CORNER, MODE_NORMAL, MODE_TRAVEL, MODE_PASSING = 0, 1, 2, 3
MODE_FROM_CODE: Tuple[RunMode, ...] = (
    RunMode.INIT_CORNER, RunMode.NORMAL, RunMode.TRAVEL, RunMode.PASSING)
MODE_TO_CODE: Dict[RunMode, int] = {m: i for i, m in enumerate(MODE_FROM_CODE)}
STOP_FROM_CODE: Tuple[Optional[StopReason], ...] = (
    None,) + tuple(StopReason(v) for v in range(1, 8))

#: Columns of the registry matrix.  The seven decision-hot fields come
#: first so the scalar decision path and the row-snapshot builder
#: gather ``[:, :7]`` only.  ``COL_CHAIN`` tags the owning fleet
#: member (always 0 for single-chain engines) so one registry can hold
#: every live run of a fleet (:mod:`repro.core.engine_fleet`).
(COL_ROBOT, COL_DIRN, COL_MODE, COL_TARGET, COL_STEPS, COL_AXY,
 COL_AXX, COL_BORN, COL_HOPS, COL_STOP, COL_STOPPED, COL_CHAIN) = range(12)
_COLS = 12
_HOT_COLS = 7

#: target_id / stopped_round sentinel for "None" in the int matrix.
_NONE = -1


class RunState:
    """One run token (view over a registry row, or standalone).

    Attributes
    ----------
    run_id: unique id for tracing (equals the registry row).
    robot_id: the robot currently carrying the run.
    direction: chain direction of movement (+1/-1).
    axis: unit vector of the quasi line's segment at start time — the
        constant-memory orientation reference used by the endpoint
        grammar (Table 1.2).
    mode: current :class:`RunMode`.
    target_id: robot identity of the travel/passing target corner.
    travel_steps_left: remaining hop-less moves of operation (b).
    born_round: round the run was started (for pipelining analysis).
    hops: reshapement hops performed so far (analysis only).
    """

    __slots__ = ("run_id", "_reg", "_f", "direction", "axis", "born_round")

    def __init__(self, run_id: int, robot_id: int, direction: int, axis: Vec,
                 mode: RunMode = RunMode.NORMAL,
                 target_id: Optional[int] = None,
                 travel_steps_left: int = 0,
                 born_round: int = 0,
                 hops: int = 0,
                 stop_reason: Optional[StopReason] = None,
                 stopped_round: Optional[int] = None):
        # standalone construction; registry views are built by
        # RunRegistry._view, bypassing __init__.  direction/axis/
        # born_round are immutable per run, so they live as plain
        # attributes in both flavours (hot-path reads skip the
        # array-backed property machinery).
        self.run_id = run_id
        self._reg = None
        self.direction = direction
        self.axis = (int(axis[0]), int(axis[1]))
        self.born_round = born_round
        self._f = {"robot_id": robot_id, "mode": mode,
                   "target_id": target_id,
                   "travel_steps_left": travel_steps_left,
                   "hops": hops, "stop_reason": stop_reason,
                   "stopped_round": stopped_round}

    # -- field access (matrix-backed or standalone) ------------------------
    @property
    def robot_id(self) -> int:
        r = self._reg
        return int(r._data[self.run_id, COL_ROBOT]) \
            if r is not None else self._f["robot_id"]

    @robot_id.setter
    def robot_id(self, value: int) -> None:
        r = self._reg
        if r is not None:
            r._data[self.run_id, COL_ROBOT] = value
        else:
            self._f["robot_id"] = value

    @property
    def mode(self) -> RunMode:
        r = self._reg
        if r is not None:
            return MODE_FROM_CODE[r._data[self.run_id, COL_MODE]]
        return self._f["mode"]

    @mode.setter
    def mode(self, value: RunMode) -> None:
        r = self._reg
        if r is not None:
            r._data[self.run_id, COL_MODE] = MODE_TO_CODE[value]
        else:
            self._f["mode"] = value

    @property
    def target_id(self) -> Optional[int]:
        r = self._reg
        if r is not None:
            t = int(r._data[self.run_id, COL_TARGET])
            return None if t == _NONE else t
        return self._f["target_id"]

    @target_id.setter
    def target_id(self, value: Optional[int]) -> None:
        r = self._reg
        if r is not None:
            r._data[self.run_id, COL_TARGET] = _NONE if value is None else value
        else:
            self._f["target_id"] = value

    @property
    def travel_steps_left(self) -> int:
        r = self._reg
        return int(r._data[self.run_id, COL_STEPS]) \
            if r is not None else self._f["travel_steps_left"]

    @travel_steps_left.setter
    def travel_steps_left(self, value: int) -> None:
        r = self._reg
        if r is not None:
            r._data[self.run_id, COL_STEPS] = value
        else:
            self._f["travel_steps_left"] = value

    @property
    def hops(self) -> int:
        r = self._reg
        return int(r._data[self.run_id, COL_HOPS]) \
            if r is not None else self._f["hops"]

    @hops.setter
    def hops(self, value: int) -> None:
        r = self._reg
        if r is not None:
            r._data[self.run_id, COL_HOPS] = value
        else:
            self._f["hops"] = value

    @property
    def stop_reason(self) -> Optional[StopReason]:
        r = self._reg
        if r is not None:
            return STOP_FROM_CODE[r._data[self.run_id, COL_STOP]]
        return self._f["stop_reason"]

    @property
    def stopped_round(self) -> Optional[int]:
        r = self._reg
        if r is not None:
            sr = int(r._data[self.run_id, COL_STOPPED])
            return None if sr == _NONE else sr
        return self._f["stopped_round"]

    @property
    def active(self) -> bool:
        """True until the run terminates."""
        r = self._reg
        if r is not None:
            return r._data[self.run_id, COL_STOP] == 0
        return self._f["stop_reason"] is None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"RunState(run_id={self.run_id}, robot_id={self.robot_id}, "
                f"direction={self.direction}, mode={self.mode.value}, "
                f"active={self.active})")


class DecisionRow:
    """Row-local snapshot of one run's decision-hot fields.

    The reference decision loop reads each field once or twice per
    round; going through :class:`RunState`'s matrix-backed properties
    costs a NumPy scalar read per access.  A ``DecisionRow`` is built
    from one bulk row gather (:meth:`RunRegistry.decision_rows`) and
    serves those reads as plain attribute access —
    :func:`repro.core.algorithm.decide_run` accepts either flavour
    (it only reads; state application still goes through the view).
    """

    __slots__ = ("run_id", "robot_id", "direction", "axis", "mode",
                 "target_id", "travel_steps_left")

    def __init__(self, run_id: int, robot_id: int, direction: int, axis: Vec,
                 mode: RunMode, target_id: Optional[int],
                 travel_steps_left: int):
        self.run_id = run_id
        self.robot_id = robot_id
        self.direction = direction
        self.axis = axis
        self.mode = mode
        self.target_id = target_id
        self.travel_steps_left = travel_steps_left


class RunRegistry:
    """All live runs, indexed by carrier robot.

    The registry lives in the simulator; each robot's slice of it is
    bounded (≤ 2 runs), preserving the constant-memory model.  State is
    one ``(capacity, 11)`` int64 matrix (row == run id, columns are the
    ``COL_*`` fields); the per-robot index is derived lazily so bulk
    matrix updates (the kernel engine's advance/stop sweeps) never pay
    for it.
    """

    __slots__ = ("_data", "_count", "_active", "_active_arr",
                 "_by_robot", "_by_robot_dirty", "_views", "stopped",
                 "keep_stopped")

    _INITIAL_CAP = 16

    def __init__(self) -> None:
        self._data = np.zeros((self._INITIAL_CAP, _COLS), dtype=np.int64)
        self._count = 0                    # runs ever started (next run id)
        self._active: List[int] = []       # live run ids, ascending
        self._active_arr: Optional[np.ndarray] = None
        self._by_robot: Dict[int, List[int]] = {}
        self._by_robot_dirty = False
        self._views: Dict[int, RunState] = {}
        self.stopped: List[RunState] = []
        #: keep view objects of terminated runs on ``stopped`` (the
        #: engines' trace/debug surface).  The fleet engine turns this
        #: off — it never reads ``stopped`` and skips the view builds.
        self.keep_stopped = True

    # -- column views (bulk access API) ------------------------------------
    @property
    def robot(self) -> np.ndarray:
        """Carrier robot ids, indexed by run id (writable column view)."""
        return self._data[:, COL_ROBOT]

    @property
    def dirn(self) -> np.ndarray:
        """Chain directions (+1/-1), indexed by run id."""
        return self._data[:, COL_DIRN]

    @property
    def mode_code(self) -> np.ndarray:
        """Mode codes (``MODE_*`` constants), indexed by run id."""
        return self._data[:, COL_MODE]

    @property
    def target(self) -> np.ndarray:
        """Target robot ids (-1 = none), indexed by run id."""
        return self._data[:, COL_TARGET]

    @property
    def steps(self) -> np.ndarray:
        """Travel steps left, indexed by run id."""
        return self._data[:, COL_STEPS]

    @property
    def stop_code(self) -> np.ndarray:
        """Stop-reason codes (0 = active), indexed by run id."""
        return self._data[:, COL_STOP]

    @property
    def chain_col(self) -> np.ndarray:
        """Owning fleet-chain ids (0 for single-chain engines), by run id."""
        return self._data[:, COL_CHAIN]

    # -- internals ---------------------------------------------------------
    def _grow(self) -> None:
        new = np.zeros((len(self._data) * 2, _COLS), dtype=np.int64)
        new[:len(self._data)] = self._data
        self._data = new

    # -- snapshot / restore (durability tier, DESIGN.md §2.12) -------------
    def snapshot_state(self) -> Tuple[Dict[str, np.ndarray], Dict[str, int]]:
        """Registry state as plain arrays + scalar metadata.

        The run matrix rows up to ``_count`` and the live-run id list
        capture everything the scheduler reads; view objects, the
        by-robot index and the stopped list are derived or debug-only
        state and are not part of a snapshot.
        """
        arrays = {
            "data": self._data[:self._count].copy(),
            "active": np.array(self._active, dtype=np.int64),
        }
        meta = {"count": int(self._count),
                "keep_stopped": int(self.keep_stopped)}
        return arrays, meta

    @classmethod
    def restore_state(cls, arrays: Dict[str, np.ndarray],
                      meta: Dict[str, int]) -> "RunRegistry":
        """Rebuild a registry from :meth:`snapshot_state` output."""
        self = cls()
        count = int(meta["count"])
        cap = self._INITIAL_CAP
        while cap < count:
            cap *= 2
        if cap > len(self._data):
            self._data = np.zeros((cap, _COLS), dtype=np.int64)
        self._data[:count] = arrays["data"]
        self._count = count
        self._active = [int(r) for r in arrays["active"]]
        self._active_arr = None
        self._by_robot_dirty = True
        self.keep_stopped = bool(meta["keep_stopped"])
        return self

    def _view(self, run_id: int) -> RunState:
        view = self._views.get(run_id)
        if view is None:
            row = self._data[run_id]
            view = RunState.__new__(RunState)
            view.run_id = run_id
            view._reg = self
            view._f = None
            view.direction = int(row[COL_DIRN])
            view.axis = (int(row[COL_AXX]), int(row[COL_AXY]))
            view.born_round = int(row[COL_BORN])
            self._views[run_id] = view
        return view

    def _ensure_by_robot(self) -> Dict[int, List[int]]:
        if self._by_robot_dirty:
            by_robot: Dict[int, List[int]] = {}
            data = self._data
            for rid in self._active:
                by_robot.setdefault(int(data[rid, COL_ROBOT]), []).append(rid)
            self._by_robot = by_robot
            self._by_robot_dirty = False
        return self._by_robot

    # -- queries -----------------------------------------------------------
    def __len__(self) -> int:
        return len(self._active)

    def active_runs(self) -> List[RunState]:
        """All live runs (stable order by run id)."""
        view = self._view
        return [view(rid) for rid in self._active]

    def active_slots(self) -> np.ndarray:
        """Live run ids (== matrix rows) as an ascending int64 array.

        The kernel engine's bulk reads index the registry matrix with
        this; the array is cached until the live set changes.
        """
        arr = self._active_arr
        if arr is None:
            arr = np.array(self._active, dtype=np.int64)
            self._active_arr = arr
        return arr

    def active_rows(self) -> List[List[int]]:
        """The live decision-hot matrix rows as Python lists (one gather).

        Scalar-path counterpart of :meth:`active_slots`: the decision
        stage reads the first ``_HOT_COLS`` fields of each live row as
        list indexing instead of NumPy scalar access (an order of
        magnitude faster per element).
        """
        return self._data[self.active_slots(), :_HOT_COLS].tolist()

    def decision_rows(self) -> List[DecisionRow]:
        """Row-local read snapshots of all live runs (stable run-id order).

        One bulk gather serving the reference decision loop: every
        field :func:`~repro.core.algorithm.decide_run` reads becomes a
        plain attribute instead of a matrix-backed property
        (DESIGN.md §2.9 — the SoA refactor's scalar-read tax on the
        reference/vectorized engines).
        """
        return [
            DecisionRow(rid, row[COL_ROBOT], row[COL_DIRN],
                        (row[COL_AXX], row[COL_AXY]),
                        MODE_FROM_CODE[row[COL_MODE]],
                        None if row[COL_TARGET] == _NONE else row[COL_TARGET],
                        row[COL_STEPS])
            for rid, row in zip(self._active, self.active_rows())]

    def runs_on(self, robot_id: int) -> List[RunState]:
        """Live runs carried by a robot."""
        view = self._view
        return [view(rid) for rid in self._ensure_by_robot().get(robot_id, ())]

    def crowded_runs(self) -> List[RunState]:
        """Runs on robots carrying more than one run (stable order).

        Only these can violate the one-run-per-direction rule, so the
        engine's duplicate-direction sweep scans this (usually empty)
        list instead of every active run.
        """
        out = [self._view(rid)
               for rids in self._ensure_by_robot().values() if len(rids) > 1
               for rid in rids]
        out.sort(key=lambda r: r.run_id)
        return out

    def directions_on(self, robot_id: int) -> Tuple[int, ...]:
        """Chain directions of the runs carried by a robot."""
        data = self._data
        return tuple(int(data[rid, COL_DIRN])
                     for rid in self._ensure_by_robot().get(robot_id, ()))

    def round_state(self, index_map: Dict[int, int]
                    ) -> Tuple[Callable[[int], Tuple[int, ...]],
                               List[int], List[int]]:
        """Per-round window inputs, derived straight from the matrix.

        Returns ``(runs_of, fwd_carriers, bwd_carriers)``: the
        ``robot_id -> directions`` lookup the windows probe, plus the
        carrier chain indices split by run direction for the windows'
        bulk ``runs_ahead`` scans.  One pass over the live rows — the
        engine previously rebuilt a dict of tuples and two lists from
        :class:`RunState` objects every round.
        """
        run_dirs: Dict[int, Tuple[int, ...]] = {}
        fwd: List[int] = []
        bwd: List[int] = []
        for rid, row in zip(self._active, self.active_rows()):
            robot_id = row[COL_ROBOT]
            d = row[COL_DIRN]
            prev = run_dirs.get(robot_id)
            run_dirs[robot_id] = (d,) if prev is None else prev + (d,)
            (fwd if d == 1 else bwd).append(index_map[robot_id])
        return run_dirs.get, fwd, bwd

    # -- lifecycle ---------------------------------------------------------
    def start(self, robot_id: int, direction: int, axis: Vec, round_index: int,
              mode: RunMode = RunMode.NORMAL) -> Optional[RunState]:
        """Create a run unless the robot is already at capacity.

        A robot stores at most two runs and never two with the same
        direction (it could not tell them apart).
        """
        data = self._data
        existing = self._ensure_by_robot().get(robot_id, ())
        if len(existing) >= 2 or any(
                int(data[rid, COL_DIRN]) == direction for rid in existing):
            return None
        run_id = self._count
        if run_id >= len(data):
            self._grow()
            data = self._data
        self._count = run_id + 1
        data[run_id] = (robot_id, direction, MODE_TO_CODE[mode], _NONE, 0,
                        axis[1], axis[0], round_index, 0, 0, _NONE, 0)
        self._active.append(run_id)
        self._active_arr = None
        if not self._by_robot_dirty:
            self._by_robot.setdefault(robot_id, []).append(run_id)
        return self._view(run_id)

    def start_fleet_bulk(self, rows, round_index: int) -> None:
        """Create many chain-tagged runs in one matrix write.

        Fleet counterpart of :meth:`start`: ``rows`` is an ``(m, 6)``
        int64 array (or equivalent sequence of tuples) of ``(chain_id,
        robot_id, direction, mode_code, axis_x, axis_y)`` rows,
        pre-checked by the caller against fleet-unique ``(chain,
        robot)`` capacity keys (robot ids collide across chains, so
        the robot-keyed ``_by_robot`` index stays permanently dirty —
        a multi-chain fleet registry must not be queried through
        :meth:`runs_on` / :meth:`directions_on` / :meth:`crowded_runs`).
        Run ids are assigned in row order.
        """
        m = len(rows)
        if m == 0:
            return
        first = self._count
        while first + m > len(self._data):
            self._grow()
        block = np.empty((m, _COLS), dtype=np.int64)
        r = np.asarray(rows, dtype=np.int64)
        block[:, COL_CHAIN] = r[:, 0]
        block[:, COL_ROBOT] = r[:, 1]
        block[:, COL_DIRN] = r[:, 2]
        block[:, COL_MODE] = r[:, 3]
        block[:, COL_AXX] = r[:, 4]
        block[:, COL_AXY] = r[:, 5]
        block[:, COL_TARGET] = _NONE
        block[:, COL_STEPS] = 0
        block[:, COL_BORN] = round_index
        block[:, COL_HOPS] = 0
        block[:, COL_STOP] = 0
        block[:, COL_STOPPED] = _NONE
        self._data[first:first + m] = block
        self._count = first + m
        self._active.extend(range(first, first + m))
        self._active_arr = None
        self._by_robot_dirty = True

    def compact_rows(self) -> None:
        """Re-pack the live rows into the matrix prefix (streaming tier).

        Run ids are renumbered 0..m-1 in their current (ascending, ==
        age) order, so every relative-age comparison — the
        duplicate-direction sweep's "youngest run dissolves", the
        ascending-id stop ordering — is preserved and per-chain
        behaviour stays bit-identical.  Only valid on a registry that
        keeps no terminated-run surface (``keep_stopped`` off and
        nothing on ``stopped``): stopped views hold absolute row
        numbers and would dangle.  The fleet scheduler calls this
        between rounds when admission has left the matrix mostly dead
        rows, which is what keeps registry memory bounded by the live
        fleet instead of by every run ever started.
        """
        if self.keep_stopped or self.stopped:
            raise ValueError("compact_rows() requires keep_stopped=False "
                             "and no retained stopped views")
        live = self.active_slots()
        m = len(live)
        data = self._data
        if m:
            data[:m] = data[live]
        # shrink a matrix that admission churn left mostly dead
        cap = len(data)
        target = cap
        while target > self._INITIAL_CAP and m * 4 <= target:
            target //= 2
        if target < cap:
            self._data = data[:target].copy()
        self._count = m
        self._active = list(range(m))
        self._active_arr = None
        self._by_robot = {}
        self._by_robot_dirty = True
        self._views.clear()

    def drop_slots(self, run_ids) -> None:
        """Remove runs from the live set without stop bookkeeping.

        Used when a fleet chain retires (gathered or out of budget):
        the per-chain engine would simply stop stepping, so its runs
        disappear from the fleet without a Table 1 termination record.
        """
        dead = set(int(r) for r in run_ids)
        if not dead:
            return
        self._active = [rid for rid in self._active if rid not in dead]
        self._active_arr = None
        self._by_robot_dirty = True

    def stop(self, run: RunState, reason: StopReason, round_index: int) -> None:
        """Terminate a run (Table 1)."""
        if not run.active:
            return
        self.stop_slot(run.run_id, reason.value, round_index)

    def stop_slot(self, run_id: int, reason_code: int, round_index: int) -> None:
        """Terminate a run addressed by matrix row (kernel fast path)."""
        data = self._data
        if data[run_id, COL_STOP] != 0:
            return
        data[run_id, COL_STOP] = reason_code
        data[run_id, COL_STOPPED] = round_index
        self._active.remove(run_id)
        self._active_arr = None
        if not self._by_robot_dirty:
            robot_id = int(data[run_id, COL_ROBOT])
            robot_runs = self._by_robot.get(robot_id)
            if robot_runs and run_id in robot_runs:
                robot_runs.remove(run_id)
                if not robot_runs:
                    del self._by_robot[robot_id]
        if self.keep_stopped:
            self.stopped.append(self._view(run_id))

    def stop_slots(self, run_ids: np.ndarray, reason_codes: np.ndarray,
                   round_index: int) -> None:
        """Bulk :meth:`stop_slot` (kernel engine mass-termination path).

        ``run_ids`` must be live run ids in ascending order (the kernel
        decision stage hands over active-slot subsets, which are);
        stopped views append in that order, matching the reference
        engine's ascending-id termination sweeps.
        """
        if len(run_ids) == 0:
            return
        self._data[run_ids, COL_STOP] = reason_codes
        self._data[run_ids, COL_STOPPED] = round_index
        dead = set(run_ids.tolist())
        self._active = [rid for rid in self._active if rid not in dead]
        self._active_arr = None
        self._by_robot_dirty = True
        if self.keep_stopped:
            view = self._view
            for rid in sorted(dead):
                self.stopped.append(view(rid))

    def advance_runs(self, post_ids: List[int], post_index: Dict[int, int]
                     ) -> List[Tuple[int, int, int]]:
        """Hand every live run to its next robot in one sweep.

        Bulk form of :meth:`move` for the engine's step 9: all runs move
        simultaneously, so the per-robot index rebuilds as one pass.
        Returns ``(old_robot_id, new_robot_id, direction)`` triples so
        the run-speed invariant can re-derive the expected neighbour
        independently (Lemma 3.1).
        """
        n = len(post_ids)
        data = self._data
        by_robot: Dict[int, List[int]] = {}
        moved: List[Tuple[int, int, int]] = []
        for rid in self._active:
            old = int(data[rid, COL_ROBOT])
            d = int(data[rid, COL_DIRN])
            nxt = post_ids[(post_index[old] + d) % n]
            data[rid, COL_ROBOT] = nxt
            moved.append((old, nxt, d))
            lst = by_robot.get(nxt)
            if lst is None:
                by_robot[nxt] = [rid]
            else:
                lst.append(rid)
        self._by_robot = by_robot
        self._by_robot_dirty = False
        return moved

    def advance_active(self, post_ids: List[int], post_index: Dict[int, int]
                       ) -> bool:
        """Scalar-tier advance: one gather, one comprehension, one scatter.

        Single-segment counterpart of :meth:`advance_fleet` for rounds
        with a handful of runs and fresh chain views (the fleet's
        adaptive tier, mirroring the decision stage's scalar path).
        Returns the crowded flag — derived from the new carrier list
        for free, so the duplicate-direction gate costs nothing.
        Leaves the per-robot index stale (rebuilt lazily on the next
        query).
        """
        slots_arr = self.active_slots()
        if len(slots_arr) == 0:
            return False
        pairs = self._data[slots_arr, :2].tolist()   # (robot, direction)
        n = len(post_ids)
        news = [post_ids[(post_index[o] + d) % n] for o, d in pairs]
        self._data[slots_arr, COL_ROBOT] = news
        self._by_robot_dirty = True
        return len(set(news)) < len(news)

    def advance_fleet(self, base: np.ndarray, length: np.ndarray,
                      ids_flat: np.ndarray, index_flat: np.ndarray,
                      collect_moved: bool = False, scratch=None):
        """Advance every live run fleet-wide over the arena's flat tables.

        ``base``/``length`` are the arena's per-chain segment tables,
        ``ids_flat``/``index_flat`` its id and id → index arrays; runs
        resolve their next carrier through their chain column.  Returns
        ``(moved, crowded)`` where ``moved`` is ``(chain, old, new,
        dirs)`` arrays when requested (the run-speed invariant) and
        ``crowded`` flags a robot now carrying more than one run.
        ``scratch`` may pass the arena's
        :class:`~repro.core.arena.ScratchPool` so the span-sized
        duplicate mask reuses its buffer round over round.
        """
        slots = self.active_slots()
        if len(slots) == 0:
            return None, False
        data = self._data
        cc = data[slots, COL_CHAIN]
        old = data[slots, COL_ROBOT]
        dirs = data[slots, COL_DIRN]
        bs = base[cc]
        new = ids_flat[bs + (index_flat[bs + old] + dirs) % length[cc]]
        data[slots, COL_ROBOT] = new
        self._by_robot_dirty = True
        keys = bs + new
        # duplicate detection by scatter-mark (keys are fleet-unique
        # robot slots, so a sort-based unique would be overkill)
        if scratch is not None:
            seen = scratch.take("advance_seen", len(ids_flat), bool,
                                fill=False)
        else:
            seen = np.zeros(len(ids_flat), dtype=bool)
        seen[keys] = True
        crowded = int(np.count_nonzero(seen)) < len(keys)
        if collect_moved:
            return (cc, old, new, dirs), crowded
        return None, crowded

    def move(self, run: RunState, new_robot_id: int) -> None:
        """Hand a run to the next robot along its direction."""
        if not run.active:
            raise ValueError("cannot move a stopped run")
        run_id = run.run_id
        data = self._data
        if not self._by_robot_dirty:
            by_robot = self._by_robot
            old_robot = int(data[run_id, COL_ROBOT])
            old = by_robot.get(old_robot)
            if old and run_id in old:
                old.remove(run_id)
                if not old:
                    del by_robot[old_robot]
            by_robot.setdefault(new_robot_id, []).append(run_id)
        data[run_id, COL_ROBOT] = new_robot_id

    def runs_lookup(self):
        """Callable ``robot_id -> tuple of run directions`` for views."""
        return self.directions_on
