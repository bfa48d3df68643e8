"""The repository benchmark: three seeded workloads behind one command.

Run from the repository root::

    python3 perfbench/run.py --workload solo_mix --seed 1 --seconds 20 --trace 0

Workloads (see ``perfbench/README.md`` for why each exists and which
layers it loads):

* ``solo_mix`` — one caller gathers a seeded mix of chains (n 60..3626)
  one after another with ``Simulator(engine="kernel")``;
* ``stream_churn_wal`` — a lazy seeded stream of small chains through
  ``BatchSimulator(backend="fleet").run_stream`` with a WAL;
* ``serve_open`` — ``repro serve`` driven open loop at a fixed rate,
  then flooded closed loop.

The command builds the workload's inputs from ``--seed``, gathers each
distinct input once with a fresh ``Simulator(engine="kernel")`` for its
expected outcome (untimed), runs the workload for ``--seconds`` and
checks every output.  It prints one line per metric (name, value,
unit), then as its last line a JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a traced run with ``--trace 1``.
It exits 1 when any output was wrong or the run was invalid, and 2 when
the program's source is not at ``./src``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))

WORKLOADS = ("solo_mix", "stream_churn_wal", "serve_open")
END_TO_END = [
    ("setup_s", "s"),
    ("chains_per_s", "1/s"),
    ("robot_rounds_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("peak_rss_mb", "MB"),
]
SETUP_LAUNCHES = 7
WORKER_TIMEOUT_S = 150


def program_env(root: str) -> dict:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def run_worker(workload: str, doc: dict, seconds: float, trace: int,
               env: dict, tmp: str) -> dict:
    """Set-up launches of the worker, the last of which runs the load."""
    inputs_path = os.path.join(tmp, "inputs.json")
    out_path = os.path.join(tmp, "worker.json")
    with open(inputs_path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    launches = 1 if trace else SETUP_LAUNCHES
    setups = []
    for k in range(launches):
        argv = [sys.executable, os.path.join(HERE, "worker.py"), workload,
                inputs_path, out_path, "--seconds", str(seconds),
                "--trace", str(trace)]
        if k < launches - 1:
            argv.append("--setup-only")
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, env=env, text=True)
        try:
            line = proc.stdout.readline()
            ready = time.perf_counter()
            _out, err = proc.communicate(timeout=WORKER_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if not line.startswith("ready ") or proc.returncode != 0:
            raise RuntimeError(f"{workload} worker failed "
                               f"(exit {proc.returncode}): {err[-2000:]}")
        setups.append(ready - t0 - float(line.split()[1]))
    with open(out_path, "r", encoding="utf-8") as fh:
        out = json.load(fh)
    if not trace:
        out["metrics"]["setup_s"] = statistics.median(setups)
    if os.path.exists(out_path + ".trace.json"):
        os.replace(out_path + ".trace.json",
                   os.path.join(tmp, "trace.json"))
    return out


def run_workload(workload: str, seed: int, seconds: float, trace: int,
                 corrupt: int, root: str, tmp: str) -> dict:
    import inputs
    env = program_env(root)
    if workload == "solo_mix":
        chains = inputs.solo_inputs(seed)
        refs = inputs.expected(chains)
        doc = {"chains": chains, "refs": refs}
    elif workload == "stream_churn_wal":
        chains = inputs.stream_pool(seed)
        refs = inputs.expected(chains)
        doc = {"pool": chains, "refs": refs, "seed": seed}
    else:
        chains = inputs.serve_pool(seed)
        refs = inputs.expected(chains)
    inputs.corrupt(refs, corrupt)
    if workload != "serve_open":
        return run_worker(workload, doc, seconds, trace, env, tmp)
    import loadgen
    out = loadgen.run_serve(chains, refs, seed, seconds, bool(trace), env,
                            tmp)
    if os.path.exists(os.path.join(tmp, "server-trace.json")):
        os.replace(os.path.join(tmp, "server-trace.json"),
                   os.path.join(tmp, "trace.json"))
    return out


def report(workload: str, seed: int, trace: int, out: dict) -> dict:
    """Print the metric table; return the result object."""
    from tracing import PER_LAYER
    attempted, failed = int(out["attempted"]), int(out["failed"])
    correct = failed == 0 and out.get("valid", True)
    print(f"# {workload} seed={seed} trace={trace}: attempted={attempted} "
          f"failed={failed} samples={out.get('samples')}"
          f"{'' if out.get('valid', True) else ' INVALID'}")
    for note in out.get("notes", []):
        print(f"# {note}")
    table = PER_LAYER if trace else END_TO_END
    source = out["per_layer"] if trace else out["metrics"]
    metrics = {name: {"value": float(source[name]), "unit": unit}
               for name, unit in table}
    rows = list(metrics.items())
    if not trace:
        rows.append(("failed_frac", {"value": failed / max(attempted, 1),
                                     "unit": "1"}))
    for name, m in rows:
        print(f"{name:40s} {m['value']:16.6f} {m['unit']}")
    return {"correct": bool(correct), "attempted": attempted,
            "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--corrupt", type=int, default=0, metavar="N",
                    help="falsify N expected outcomes (self-test of the "
                         "output check)")
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        print("perfbench: no program at ./src/repro — run from the "
              "repository root", file=sys.stderr)
        return 2
    sys.path[:0] = [os.path.join(root, "src"), HERE]
    work_dir = os.path.join(root, ".perfbench")
    tmp = os.path.join(work_dir, f"run-{os.getpid()}")
    os.makedirs(tmp, exist_ok=True)
    try:
        out = run_workload(args.workload, args.seed, args.seconds,
                           args.trace, args.corrupt, root, tmp)
        if os.path.exists(os.path.join(tmp, "trace.json")):
            os.replace(os.path.join(tmp, "trace.json"),
                       os.path.join(work_dir, f"trace-{args.workload}.json"))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    result = report(args.workload, args.seed, args.trace, out)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
