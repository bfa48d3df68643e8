"""The FSYNC round engine (reference implementation).

Executes the round pipeline of DESIGN.md §2.8: one snapshot, all
decisions from it, simultaneous movement, merging, run maintenance.
Every robot decides through its own :class:`ChainWindow`, exactly as
the paper's local rule reads; the kernel engine
(:mod:`repro.core.engine_kernel`) is the array rendering of this
pipeline and must match it round for round.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.grid.lattice import Vec
from repro.core.algorithm import RunDecision, decide_run
from repro.core.chain import ClosedChain
from repro.core.config import Parameters
from repro.core.events import RoundReport, RunSnapshot, Snapshot, Trace
from repro.core.merges import MergePlan, plan_merges
from repro.core.patterns import RunStart, find_merge_patterns, run_start_decisions
from repro.core.runs import RunMode, RunRegistry, RunState, StopReason
from repro.core.view import ChainWindow
from repro.core import invariants

#: Shared empty plan for merge-free rounds (the common case).  Never
#: mutated: the engine only reads ``participants``/``hops``/``patterns``.
_EMPTY_MERGE_PLAN = MergePlan()


class Engine:
    """Drives one closed chain through FSYNC rounds.

    Parameters
    ----------
    chain:
        The chain to gather (mutated in place).
    params:
        Algorithm constants.
    check_invariants:
        Verify model invariants after every round (slower; on in tests).
    trace:
        Optional :class:`Trace` receiving snapshots and reports.
    """

    def __init__(self, chain: ClosedChain, params: Parameters,
                 check_invariants: bool = True,
                 trace: Optional[Trace] = None):
        self.chain = chain
        self.params = params
        self.registry = RunRegistry()
        self.round_index = 0
        self._check = check_invariants
        self.trace = trace

    # ------------------------------------------------------------------
    def snapshot(self) -> Snapshot:
        """Observable state at the current instant."""
        runs = tuple(
            RunSnapshot(r.run_id, r.robot_id, r.direction, r.mode.value, r.born_round)
            for r in self.registry.active_runs())
        return Snapshot(self.round_index, tuple(self.chain.positions_view()),
                        tuple(self.chain.ids_view()), runs)

    # ------------------------------------------------------------------
    def _select_moves(self, moves: Dict[int, Vec]) -> Dict[int, Vec]:
        """Scheduler hook: which computed moves actually execute.

        FSYNC executes everything; the SSYNC ablation engine
        (:mod:`repro.schedulers`) overrides this to model partial
        activation.
        """
        return moves

    # ------------------------------------------------------------------
    def step(self) -> RoundReport:
        """Execute one full FSYNC round and return its report."""
        chain, params, registry = self.chain, self.params, self.registry
        round_index = self.round_index
        n0 = chain.n
        terminated: Dict[StopReason, int] = {}
        runner_hop_conflicts = 0
        runs_started = 0
        if self.trace is not None:
            self.trace.record_snapshot(self.snapshot())
        if self._check:
            # array snapshots for the hop-length invariant (the former
            # id -> position dicts made checking quadratic per gathering)
            ids_before = chain.ids_array().copy()
            pos_before = chain.positions_array().copy()

        ids = chain.ids_view()
        positions = chain.positions_view()
        index_map = chain.index_map()
        # run placement once per round, straight from the registry's
        # struct-of-arrays state: the robot_id -> directions lookup the
        # windows probe (missing robots yield None, which the window
        # treats as "no runs") and the carrier chain indices split by
        # run direction for the windows' bulk runs_ahead scans.
        active = registry.active_runs()
        lookup, fwd_carriers, bwd_carriers = registry.round_state(index_map)
        carriers = (fwd_carriers, bwd_carriers)

        # 1-2. merge plan (no patterns below n = 4) --------------------------
        k_eff = params.effective_k_max
        patterns = find_merge_patterns(positions, k_eff)
        mplan = plan_merges(positions, ids, k_eff, patterns=patterns) \
            if patterns else _EMPTY_MERGE_PLAN

        # 3. run decisions ----------------------------------------------------
        # decide_run reads row-local snapshots (one bulk gather) instead
        # of the views' matrix-backed properties — the per-read NumPy
        # scalar tax of the SoA registry was the measured ~10% overhead
        # of this loop on mid-size chains (DESIGN.md §2.9)
        decisions: List[RunDecision] = []
        rows = registry.decision_rows() if active else []
        if active:
            # one window slides over all runners; every decision reads the
            # same pre-move snapshot, so re-anchoring is safe
            window = ChainWindow(chain, 0, params.viewing_path_length, lookup,
                                 carriers=carriers)
            participants = mplan.participants
            for row in rows:
                window.reanchor(index_map[row.robot_id])
                decisions.append(decide_run(row, window, params, participants))

        # 4. run starts (every L-th round) -------------------------------------
        starts: List[Tuple[int, RunStart]] = []
        if round_index % params.start_interval == 0:
            participants = mplan.participants
            window = ChainWindow(chain, 0, params.viewing_path_length, lookup)
            for i in range(chain.n):
                rid = ids[i]
                if rid in participants:
                    continue
                for rs in run_start_decisions(window.reanchor(i)):
                    starts.append((rid, rs))

        # 5-6. resolve hops; run terminations and mode transitions --------------
        # decisions are paired with `active` positionally; the shared
        # _CONTINUE decision carries no run reference.  State transitions
        # and hop collection fuse into one pass: run state never reads
        # the chain, so its order against the movement is immaterial.
        moves: Dict[int, Vec] = dict(mplan.hops)
        runner_hops: Dict[int, List[Tuple[RunState, Vec]]] = {}
        participants = mplan.participants
        for run, row, dec in zip(active, rows, decisions):
            stop = dec.stop_reason
            if stop is not None:
                registry.stop(run, stop, round_index)
                terminated[stop] = terminated.get(stop, 0) + 1
                continue
            hop = dec.hop
            robot_id = row.robot_id
            if hop is not None and robot_id not in participants:
                runner_hops.setdefault(robot_id, []).append((run, hop))
            mode_after = dec.mode_after
            if mode_after is not None:
                run.mode = mode_after
            if dec.target_after_set:
                run.target_id = dec.target_after
            elif mode_after is RunMode.NORMAL:
                run.target_id = None
            if dec.travel_steps_after is not None:
                run.travel_steps_left = dec.travel_steps_after
            elif mode_after is RunMode.TRAVEL and row.travel_steps_left <= 0:
                run.travel_steps_left = params.travel_steps
        for rid, pairs in runner_hops.items():
            if len({hop for _, hop in pairs}) == 1:
                moves[rid] = pairs[0][1]
                for r, _ in pairs:
                    r.hops += 1
            else:
                runner_hop_conflicts += 1
        moves = self._select_moves(moves)
        chain.apply_moves(moves)

        # 7. contraction (merging co-located chain neighbours) --------------------
        records = chain.contract_coincident(moves.keys())
        if records:
            # a run can only lose its carrier or target through this
            # round's contraction, so both checks are no-ops without one
            removed = {r.removed_id for r in records}
            for run in registry.active_runs():
                if run.robot_id in removed:
                    registry.stop(run, StopReason.RUNNER_REMOVED, round_index)
                    terminated[StopReason.RUNNER_REMOVED] = \
                        terminated.get(StopReason.RUNNER_REMOVED, 0) + 1

            # 8. target-removal terminations (Table 1.4/1.5) -----------------------
            for run in registry.active_runs():
                if run.target_id is not None and not chain.has_id(run.target_id):
                    reason = (StopReason.PASSING_TARGET_REMOVED
                              if run.mode is RunMode.PASSING
                              else StopReason.TRAVEL_TARGET_REMOVED)
                    registry.stop(run, reason, round_index)
                    terminated[reason] = terminated.get(reason, 0) + 1

        # 9. move surviving runs one robot along their direction --------------------
        moved_pairs = registry.advance_runs(chain.ids_view(), chain.index_map())
        # contraction can push two same-direction runs onto one robot; a
        # robot cannot tell them apart, so the younger run dissolves.
        for run in registry.crowded_runs():
            if not run.active:
                continue
            twins = [r for r in registry.runs_on(run.robot_id)
                     if r.direction == run.direction]
            if len(twins) > 1:
                youngest = max(twins, key=lambda r: r.run_id)
                registry.stop(youngest, StopReason.DUPLICATE_DIRECTION,
                              round_index)
                terminated[StopReason.DUPLICATE_DIRECTION] = \
                    terminated.get(StopReason.DUPLICATE_DIRECTION, 0) + 1

        # 10. create the new runs decided in step 4 ----------------------------------
        for rid, rs in starts:
            if not chain.has_id(rid):
                continue
            mode = RunMode.INIT_CORNER if rs.kind == "ii" else RunMode.NORMAL
            created = registry.start(rid, rs.direction, rs.axis,
                                     round_index, mode=mode)
            if created is not None:
                runs_started += 1

        # 11. invariants and bookkeeping ----------------------------------------------
        report = RoundReport(round_index=round_index, n_before=n0,
                             n_after=chain.n, hops=len(moves),
                             merge_patterns=len(mplan.patterns),
                             merges=records, runs_started=runs_started,
                             runs_terminated=terminated,
                             active_runs=len(registry),
                             merge_conflicts=mplan.conflicts,
                             runner_hop_conflicts=runner_hop_conflicts)
        if self._check:
            invariants.check_connectivity(chain)
            invariants.check_monotone_count(n0, chain.n)
            invariants.check_hop_lengths_arrays(
                ids_before, pos_before,
                chain.ids_array(), chain.positions_array())
            invariants.check_runs_alive(chain, registry)
            invariants.check_run_speed(chain, moved_pairs)
        if self.trace is not None:
            self.trace.record_report(report)
        self.round_index += 1
        return report
