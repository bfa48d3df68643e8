"""Process under test for the in-process workloads.

Started by ``run.py`` as ``python perfbench/worker.py WORKLOAD INPUTS
OUT --seconds S --trace 0|1 [--setup-only]``.  It imports the program,
reads the inputs ``run.py`` generated (that read is timed separately
and excluded from set-up), constructs the simulator and prints
``ready <input_read_s>``.  With ``--setup-only`` it exits there;
otherwise it runs the workload, checks every output against the
expected outcomes and writes its figures to ``OUT`` as JSON.

``solo_mix`` gathers a fixed cycle of chains one after another with
``Simulator(engine="kernel")``, one caller in a closed loop.
``stream_churn_wal`` pushes a lazy seeded stream of small chains
through ``BatchSimulator(backend="fleet").run_stream`` with a WAL.

With ``--trace 1`` the first half of the time runs unwrapped and the
second half under the span recorder; the ratio of the two rates is the
tracing overhead.
"""

from __future__ import annotations

import json
import os
import random
import resource
import shutil
import statistics
import sys
import time
from contextlib import nullcontext

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

#: rounds between WAL snapshots in stream_churn_wal
SNAPSHOT_EVERY = 128
STREAM_SLOTS = 512


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- solo_mix ----------------------------------------------------------
def _solo_cycles(Simulator, chains, seconds, min_cycles, rec=None):
    """Gather the cycle repeatedly; per-chain call times and outcomes."""
    times = [[] for _ in chains]
    outcomes = []
    t_end = time.perf_counter() + seconds
    cycles = 0
    while cycles < min_cycles or time.perf_counter() < t_end:
        for i, pts in enumerate(chains):
            if rec is not None:
                rec.rid = i
            with rec.span("solo.gather", i) if rec else nullcontext():
                t0 = time.perf_counter()
                res = Simulator(pts, engine="kernel",
                                check_invariants=False).run()
                times[i].append(time.perf_counter() - t0)
            outcomes.append((i, res.gathered, res.rounds,
                             res.final_positions))
        cycles += 1
    return times, outcomes


def run_solo(doc, seconds, trace, Simulator):
    import inputs
    chains, refs = doc["chains"], doc["refs"]
    # warm-up: the cheaper half of the cycle, untimed
    for pts in chains[:len(chains) // 2]:
        Simulator(pts, engine="kernel", check_invariants=False).run()

    rec = None
    if trace:
        from tracing import Recorder, install_kernel_layers
        base_times, _o = _solo_cycles(Simulator, chains, seconds / 2, 1)
        rec = Recorder()
        install_kernel_layers(rec)
        times, outcomes = _solo_cycles(Simulator, chains, seconds / 2, 1,
                                       rec)
        rec.uninstall()
        base = sum(min(t) for t in base_times)
    else:
        times, outcomes = _solo_cycles(Simulator, chains, seconds, 3)

    # the box's slow episodes only ever add time, so every figure uses
    # each chain's best call over the run's cycles (see stats.py)
    best = [min(t) for t in times]
    cycle_s = sum(best)
    work = sum(r["n"] * r["rounds"] for r in refs)
    failed, notes = 0, []
    for i, gathered, rounds, final in outcomes:
        if not gathered or inputs.digest(i, rounds, final) != \
                inputs.expected_digest(i, refs[i]):
            failed += 1
            if len(notes) < 5:
                notes.append(f"chain {i}: gathered={gathered} rounds={rounds}"
                             f" expected {refs[i]['rounds']}")
    out = {
        "attempted": len(outcomes), "failed": failed, "notes": notes,
        "samples": len(outcomes),
        "metrics": {
            "chains_per_s": len(chains) / cycle_s,
            "robot_rounds_per_s": work / cycle_s,
            "latency_p50_ms": statistics.median(best) * 1e3,
            "latency_p99_ms": max(best) * 1e3,
            "peak_rss_mb": _peak_rss_mb(),
        },
    }
    if rec is not None:
        out["per_layer"] = rec.metrics()
        out["per_layer"]["trace.overhead_ratio"] = cycle_s / base
        out["recorder"] = rec
    return out


# -- stream_churn_wal --------------------------------------------------
class _Stream:
    """Lazy seeded stream: pool chains in shuffled epochs, each
    translated by a seeded offset; stops being consumed at a deadline.
    Only chains in flight keep bookkeeping, so memory stays flat."""

    def __init__(self, pool, seed, deadline=None, limit=None):
        self.pool = pool
        self.rng = random.Random(f"stream/{seed}")
        self.deadline = deadline
        self.limit = limit
        self.pulled = 0
        self.pending = {}   # index -> (pool id, dx, dy, hand-over time)

    def __iter__(self):
        from inputs import SHIFT
        rng, pool = self.rng, self.pool
        order = []
        clock = time.perf_counter
        while True:
            if self.limit is not None and self.pulled >= self.limit:
                return
            if self.deadline is not None and clock() >= self.deadline:
                return
            if not order:
                order = list(range(len(pool)))
                rng.shuffle(order)
            k = order.pop()
            dx, dy = rng.randrange(-SHIFT, SHIFT), rng.randrange(-SHIFT, SHIFT)
            pts = [(x + dx, y + dy) for x, y in pool[k]]
            self.pending[self.pulled] = (k, dx, dy, clock())
            self.pulled += 1
            yield pts


def _stream_pass(BatchSimulator, pool, refs, seed, wal_dir, seconds=None,
                 limit=None):
    """One run_stream pass, each chain checked and tallied on return."""
    from inputs import digest, expected_digest
    from stats import Windows
    sim = BatchSimulator([], engine="kernel", backend="fleet",
                         keep_reports=False)
    clock = time.perf_counter
    t0 = clock()
    stream = _Stream(pool, seed,
                     deadline=None if seconds is None else t0 + seconds,
                     limit=limit)
    wins = Windows(t0, seconds or 1.0)
    work = [r["n"] * r["rounds"] for r in refs]
    failed, notes = 0, []
    for idx, res in sim.run_stream(iter(stream), slots=STREAM_SLOTS,
                                   wal_dir=wal_dir,
                                   snapshot_every=SNAPSHOT_EVERY):
        t = clock()
        k, dx, dy, t_in = stream.pending.pop(idx)
        wins.add(t, work[k], (t - t_in) * 1e3)
        if not (getattr(res, "gathered", False)
                and digest(idx, res.rounds, res.final_positions)
                == expected_digest(idx, refs[k], dx, dy)):
            failed += 1
            if len(notes) < 5:
                notes.append(f"chain {idx}: not gathered to its expected "
                             f"outcome: {res!r}"[:200])
    if stream.pending:
        failed += len(stream.pending)
        notes.append(f"{len(stream.pending)} chains never came back")
    return {"attempted": stream.pulled, "failed": failed, "notes": notes,
            "windows": wins}


def run_stream(doc, seconds, trace, BatchSimulator, tmp):
    pool, refs, seed = doc["pool"], doc["refs"], doc["seed"]
    wal_root = os.path.join(tmp, "wal")

    def fresh(name):
        path = os.path.join(wal_root, name)
        shutil.rmtree(path, ignore_errors=True)
        return path

    # warm-up: a short untimed stream through the same path
    _stream_pass(BatchSimulator, pool, refs, seed + 1, fresh("warm"),
                 limit=2048)
    shutil.rmtree(wal_root, ignore_errors=True)

    rec = None
    if trace:
        from tracing import Recorder, install_kernel_layers
        base = _stream_pass(BatchSimulator, pool, refs, seed, fresh("base"),
                            seconds / 2)
        base_rate, _w = base["windows"].rates()
        shutil.rmtree(wal_root, ignore_errors=True)
        rec = Recorder()
        install_kernel_layers(rec)
        with rec.span("stream.run_stream"):
            run = _stream_pass(BatchSimulator, pool, refs, seed,
                               fresh("traced"), seconds / 2)
        rec.uninstall()
    else:
        run = _stream_pass(BatchSimulator, pool, refs, seed, fresh("run"),
                           seconds)
    wins = run.pop("windows")
    chains_per_s, rr_per_s = wins.rates()
    out = dict(run, samples=sum(wins.done), metrics={
        "chains_per_s": chains_per_s,
        "robot_rounds_per_s": rr_per_s,
        "latency_p50_ms": wins.latency(50),
        "latency_p99_ms": wins.latency(99),
        "peak_rss_mb": _peak_rss_mb(),
    })
    if rec is not None:
        out["per_layer"] = rec.metrics()
        out["per_layer"]["trace.overhead_ratio"] = base_rate / chains_per_s
        out["recorder"] = rec
    shutil.rmtree(wal_root, ignore_errors=True)
    return out


def main(argv):
    import argparse
    ap = argparse.ArgumentParser()
    ap.add_argument("workload", choices=("solo_mix", "stream_churn_wal"))
    ap.add_argument("inputs")
    ap.add_argument("out")
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    # set-up: import the program and construct the entry point
    if args.workload == "solo_mix":
        from repro.core.simulator import Simulator as entry
    else:
        from repro.core.batch import BatchSimulator as entry
    t_read = time.perf_counter()
    with open(args.inputs, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    read_s = time.perf_counter() - t_read
    if args.workload == "solo_mix":
        entry(doc["chains"][0], engine="kernel", check_invariants=False)
    else:
        entry([], engine="kernel", backend="fleet", keep_reports=False)
    print(f"ready {read_s:.6f}", flush=True)
    if args.setup_only:
        return 0

    if args.workload == "solo_mix":
        out = run_solo(doc, args.seconds, args.trace, entry)
    else:
        out = run_stream(doc, args.seconds, args.trace, entry,
                         os.path.dirname(os.path.abspath(args.out)))
    rec = out.pop("recorder", None)
    if rec is not None:
        rec.write(args.out + ".trace.json")
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
