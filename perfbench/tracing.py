"""Span recorder for the benchmark's traced run.

The traced run wraps the calls into each layer of the program from the
benchmark's own files: a function is replaced where its caller looks it
up (a module global for module-level functions, the class attribute for
methods), records one span per call — stage name, start, end, parent
span and chain/request id — and bumps work counters next to it.  Spans
stay in memory and are written out when the run ends.  Untraced runs
never import this module's ``install_*`` functions, so they run the
program unwrapped.

Per-stage figures derived from the spans:

* ``busy_s`` — total time in the stage's outermost spans (a stage that
  calls itself, such as ``runs.start`` → ``start_fleet_bulk``, is not
  counted twice);
* ``self_s`` — span time minus the time covered by direct child spans.
"""

from __future__ import annotations

import inspect
import itertools
import json
import os
import threading
import time
from typing import Callable, Dict, List, Optional

from stats import percentile

#: Every per-layer metric a traced run reports, with its unit.  The
#: ``per_layer`` list of BENCHMARK.json mirrors this table.
PER_LAYER = [
    ("engine_fleet.round.calls", "count"),
    ("engine_fleet.round.busy_s", "s"),
    ("engine_fleet.round.self_s", "s"),
    ("engine_fleet.round.live_chains_mean", "count"),
    ("engine_fleet.merge_scan.busy_s", "s"),
    ("engine_fleet.merge_scan.self_s", "s"),
    ("engine_fleet.merge_scan.candidates", "count"),
    ("engine_fleet.merge_scan.exec_ratio", "ratio"),
    ("merges.plan.busy_s", "s"),
    ("merges.plan.candidates", "count"),
    ("merges.plan.exec_ratio", "ratio"),
    ("engine_fleet.contract.busy_s", "s"),
    ("engine_fleet.contract.zero_edges", "count"),
    ("decisions.fleet.busy_s", "s"),
    ("decisions.fleet.runs", "count"),
    ("decisions.scalar.busy_s", "s"),
    ("decisions.scalar.runs", "count"),
    ("runs.advance.busy_s", "s"),
    ("runs.advance.rows", "count"),
    ("runs.start.busy_s", "s"),
    ("runs.start.rows", "count"),
    ("engine_fleet.intake.busy_s", "s"),
    ("engine_fleet.intake.self_s", "s"),
    ("engine_fleet.intake.chains", "count"),
    ("engine_fleet.retire.busy_s", "s"),
    ("engine_fleet.retire.self_s", "s"),
    ("engine_fleet.retire.chains", "count"),
    ("arena.topology.busy_s", "s"),
    ("arena.topology.cells", "count"),
    ("arena.apply_moves.busy_s", "s"),
    ("arena.apply_moves.cells", "count"),
    ("arena.reserve_batch.busy_s", "s"),
    ("arena.reserve_batch.cells", "count"),
    ("arena.retire_batch.busy_s", "s"),
    ("arena.retire_batch.cells", "count"),
    ("arena.topo_rebuilds", "count"),
    ("arena.topo_delta_cells", "count"),
    ("arena.compact.calls", "count"),
    ("arena.grow.calls", "count"),
    ("wal.append.calls", "count"),
    ("wal.append.busy_s", "s"),
    ("wal.append.bytes", "B"),
    ("wal.snapshot.calls", "count"),
    ("wal.snapshot.busy_s", "s"),
    ("wal.snapshot.bytes", "B"),
    ("service.protocol.busy_s", "s"),
    ("service.protocol.frames", "count"),
    ("service.queue.wait_ms_p50", "ms"),
    ("service.queue.wait_ms_p99", "ms"),
    ("service.queue.depth_max", "count"),
    ("service.queue.parked", "count"),
    ("service.deliver.calls", "count"),
    ("service.deliver.busy_s", "s"),
    ("loadgen.lag_p99_ms", "ms"),
    ("trace.spans", "count"),
    ("trace.overhead_ratio", "ratio"),
]

#: stages whose self time is reported (they have child spans)
SELF_STAGES = ("engine_fleet.round", "engine_fleet.merge_scan",
               "engine_fleet.intake", "engine_fleet.retire")


class Recorder:
    """In-memory spans and counters of one traced run."""

    def __init__(self) -> None:
        #: (span id, stage, start, end, parent span id, chain/request id)
        self.spans: List[tuple] = []
        self.counts: Dict[str, float] = {}
        self.samples: Dict[str, List[float]] = {}
        #: chain/request id stamped on spans opened by a single-threaded
        #: driver (the solo workload sets it per gather call)
        self.rid: Optional[int] = None
        self.topo_stats: List[dict] = []
        self.wal_logs: List[str] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._undo: List[tuple] = []

    # -- recording -----------------------------------------------------
    def add(self, name: str, value: float) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + value

    def sample(self, name: str, value: float) -> None:
        with self._lock:
            self.samples.setdefault(name, []).append(value)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, stage: str, rid: Optional[int] = None):
        """Context manager for a span opened by the benchmark itself."""
        return _Span(self, stage, rid)

    def _wrap(self, fn: Callable, stage: Optional[str],
              pre: Optional[Callable], post: Optional[Callable],
              rid: Optional[Callable]) -> Callable:
        rec = self
        clock = time.perf_counter

        if inspect.isasyncgenfunction(fn):
            async def agen(*args, **kwargs):
                async for item in fn(*args, **kwargs):
                    if post is not None:
                        post(args, item)
                    yield item
            return agen

        def wrapper(*args, **kwargs):
            if pre is not None:
                pre(args)
            if stage is None:
                out = fn(*args, **kwargs)
            else:
                stack = rec._stack()
                sid = next(rec._ids)
                parent = stack[-1] if stack else None
                stack.append(sid)
                t0 = clock()
                try:
                    out = fn(*args, **kwargs)
                finally:
                    t1 = clock()
                    stack.pop()
                    rec.spans.append((sid, stage, t0, t1, parent,
                                      rid(args) if rid else rec.rid))
            if post is not None:
                post(args, out)
            return out
        return wrapper

    def patch(self, owner, attr: str, stage: Optional[str],
              pre: Optional[Callable] = None,
              post: Optional[Callable] = None,
              rid: Optional[Callable] = None) -> None:
        """Replace the function ``owner.attr`` with a recording wrapper
        (``stage=None`` records no span, only the ``pre``/``post``
        hooks)."""
        raw = vars(owner)[attr]
        self._undo.append((owner, attr, raw))
        setattr(owner, attr, self._wrap(raw, stage, pre, post, rid))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)

    # -- reduction -----------------------------------------------------
    def stage_times(self) -> Dict[str, Dict[str, float]]:
        """Per stage: outermost busy time, self time and span count."""
        by_id = {s[0]: s for s in self.spans}
        child_time: Dict[int, float] = {}
        for sid, _stage, t0, t1, parent, _rid in self.spans:
            if parent is not None:
                child_time[parent] = child_time.get(parent, 0.0) + (t1 - t0)
        out: Dict[str, Dict[str, float]] = {}
        for sid, stage, t0, t1, parent, _rid in self.spans:
            agg = out.setdefault(stage, {"busy_s": 0.0, "self_s": 0.0,
                                         "calls": 0})
            agg["calls"] += 1
            agg["self_s"] += (t1 - t0) - child_time.get(sid, 0.0)
            p = parent
            nested = False
            while p is not None and p in by_id:
                if by_id[p][1] == stage:
                    nested = True
                    break
                p = by_id[p][4]
            if not nested:
                agg["busy_s"] += t1 - t0
        return out

    def metrics(self) -> Dict[str, float]:
        """Every :data:`PER_LAYER` value (zero where a layer did no work)."""
        st = self.stage_times()
        c = dict(self.counts)
        for stats in self.topo_stats:
            c["arena.topo_rebuilds"] = \
                c.get("arena.topo_rebuilds", 0) + stats["rebuilds"]
            c["arena.topo_delta_cells"] = \
                c.get("arena.topo_delta_cells", 0) + stats["delta_cells"]
        c["wal.append.bytes"] = sum(os.path.getsize(p)
                                    for p in self.wal_logs
                                    if os.path.exists(p))
        for stage, agg in st.items():
            c[f"{stage}.busy_s"] = agg["busy_s"]
            c[f"{stage}.calls"] = agg["calls"]
            if stage in SELF_STAGES:
                c[f"{stage}.self_s"] = agg["self_s"]
        rounds = c.get("engine_fleet.round.calls", 0)
        if rounds:
            c["engine_fleet.round.live_chains_mean"] = \
                c.get("engine_fleet.round.live_chains", 0) / rounds
        for stage in ("engine_fleet.merge_scan", "merges.plan"):
            cand = c.get(f"{stage}.candidates", 0)
            if cand:
                c[f"{stage}.exec_ratio"] = c.get(f"{stage}.executed", 0) / cand
        waits = self.samples.get("service.queue.wait_ms", [])
        c["service.queue.wait_ms_p50"] = percentile(waits, 50)
        c["service.queue.wait_ms_p99"] = percentile(waits, 99)
        c["trace.spans"] = len(self.spans)
        return {name: float(c.get(name, 0.0)) for name, _unit in PER_LAYER}

    def write(self, path: str) -> None:
        """Write spans, counters and reduced metrics as one JSON file."""
        doc = {"metrics": self.metrics(), "counts": self.counts,
               "spans": self.spans}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))


class _Span:
    def __init__(self, rec: Recorder, stage: str, rid: Optional[int]):
        self.rec, self.stage, self.rid = rec, stage, rid

    def __enter__(self):
        stack = self.rec._stack()
        self.sid = next(self.rec._ids)
        self.parent = stack[-1] if stack else None
        stack.append(self.sid)
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        t1 = time.perf_counter()
        self.rec._stack().pop()
        self.rec.spans.append((self.sid, self.stage, self.t0, t1,
                               self.parent, self.rid))
        return False


def install_kernel_layers(rec: Recorder) -> None:
    """Wrap the fleet kernel, decisions, merges, arena, runs and WAL."""
    import repro.core.arena as arena_mod
    import repro.core.engine_fleet as ef
    import repro.core.runs as runs_mod
    import repro.io.wal as wal_mod
    K = ef.FleetKernel
    A = arena_mod.ChainArena
    R = runs_mod.RunRegistry
    W = wal_mod.WalWriter
    add = rec.add

    # engine_fleet: the round and its stages
    rec.patch(K, "_step_round", "engine_fleet.round",
              pre=lambda a: add("engine_fleet.round.live_chains",
                                a[0].arena.n_live))
    rec.patch(ef, "_fleet_merge_candidates", "engine_fleet.merge_scan",
              post=lambda a, out: out is not None and add(
                  "engine_fleet.merge_scan.candidates", len(out[0])))

    def executed(a, plan):
        if plan is not None:
            add("engine_fleet.merge_scan.executed", int(plan.exec_count.sum()))
    rec.patch(ef, "_fleet_plan_merges", "engine_fleet.merge_scan",
              post=executed)
    rec.patch(K, "_merge_plan_single", "engine_fleet.merge_scan",
              post=executed)

    def plan_pre(a):
        # the single-segment planner sees the chain's candidates
        add("merges.plan.candidates", len(a[0]))
        add("engine_fleet.merge_scan.candidates", len(a[0]))
    rec.patch(ef, "plan_merges_arrays", "merges.plan", pre=plan_pre,
              post=lambda a, out: add("merges.plan.executed",
                                      len(out.patterns)))
    rec.patch(ef, "segment_min_lookup", "merges.plan")
    rec.patch(K, "_contract_fleet", "engine_fleet.contract",
              pre=lambda a: add("engine_fleet.contract.zero_edges",
                                len(a[1])))
    rec.patch(K, "_admit_batch", "engine_fleet.intake",
              pre=lambda a: add("engine_fleet.intake.chains", len(a[1])))
    rec.patch(ef, "parse_burst", "engine_fleet.intake")
    rec.patch(K, "_retire_batch", "engine_fleet.retire",
              pre=lambda a: add("engine_fleet.retire.chains", len(a[1])))

    # decisions_vectorized: both tiers, looked up by the fleet kernel
    rec.patch(ef, "decide_and_apply_fleet", "decisions.fleet",
              pre=lambda a: add("decisions.fleet.runs", len(a[1]._active)))
    rec.patch(ef, "decide_and_apply_scalar", "decisions.scalar",
              pre=lambda a: add("decisions.scalar.runs", len(a[1]._active)))

    # runs: advancement and starts
    rec.patch(R, "advance_fleet", "runs.advance",
              pre=lambda a: add("runs.advance.rows", len(a[0]._active)))
    rec.patch(R, "advance_active", "runs.advance",
              pre=lambda a: add("runs.advance.rows", len(a[0]._active)))
    rec.patch(R, "start_fleet_bulk", "runs.start",
              pre=lambda a: add("runs.start.rows", len(a[1])))
    rec.patch(ef, "_fleet_run_starts", "runs.start")
    rec.patch(K, "_apply_starts", "runs.start")

    # arena: topology reads, scatters, slot lifecycle
    rec.patch(A, "__init__", None,
              post=lambda a, out: rec.topo_stats.append(a[0].topo_stats))
    rec.patch(A, "topology", "arena.topology",
              post=lambda a, out: add("arena.topology.cells", len(out[0])))
    rec.patch(A, "apply_moves", "arena.apply_moves",
              pre=lambda a: add("arena.apply_moves.cells", len(a[1])))
    rec.patch(A, "reserve_batch", "arena.reserve_batch",
              pre=lambda a: add("arena.reserve_batch.cells",
                                int(sum(a[1]))))
    rec.patch(A, "retire_batch", "arena.retire_batch",
              pre=lambda a: add("arena.retire_batch.cells",
                                int(a[0].length[a[1]].sum())))
    rec.patch(A, "compact", "arena.compact")
    rec.patch(A, "grow", "arena.grow")

    # io.wal: record appends and snapshots
    rec.patch(W, "__init__", None,
              post=lambda a, out: rec.wal_logs.append(a[0].path))
    rec.patch(W, "append", "wal.append")
    rec.patch(W, "write_snapshot", "wal.snapshot",
              post=lambda a, name: add("wal.snapshot.bytes", os.path.getsize(
                  os.path.join(a[0].dir, name))))


def install_service_layers(rec: Recorder) -> None:
    """Wrap the service's protocol codec, admission queue and delivery."""
    import repro.service.protocol as proto
    import repro.service.queue as queue_mod
    import repro.service.server as srv
    Q = queue_mod.FairAdmissionQueue
    add = rec.add
    clock = time.perf_counter
    submitted: Dict[int, float] = {}

    frame = lambda a, out: add("service.protocol.frames", 1)  # noqa: E731
    rec.patch(srv, "read_frames", None, post=frame)
    rec.patch(proto, "decode_line", "service.protocol")
    rec.patch(srv, "parse_positions", "service.protocol")
    rec.patch(srv, "encode_frame", "service.protocol", post=frame)

    def on_submit(a, fut):
        submitted[id(a[4])] = clock()
        if fut is not None:
            add("service.queue.parked", 1)
        depth = a[0].peak_depth
        with rec._lock:
            if depth > rec.counts.get("service.queue.depth_max", 0):
                rec.counts["service.queue.depth_max"] = depth

    def on_take(a, item):
        t = submitted.pop(id(item), None)
        if t is not None:
            rec.sample("service.queue.wait_ms", (clock() - t) * 1e3)
    rec.patch(Q, "submit", None, post=on_submit)
    rec.patch(Q, "take", None, post=on_take)
    rec.patch(srv.GatherService, "_deliver", "service.deliver",
              rid=lambda a: a[1])
