"""Fast self-test of the benchmark (about a minute).

Run from the repository root::

    python3 perfbench/selftest.py

It checks ``BENCHMARK.json`` against the metric tables in ``run.py``
and ``tracing.py``, runs every workload briefly untraced and traced
(asserting every metric name and unit, ``failed == 0`` and exit 0, and
that ``wal.*`` work shows only on ``stream_churn_wal`` and
``service.*`` only on ``serve_open``), runs one workload against
falsified expected outcomes (``failed_frac`` must rise and the exit
code must be non-zero), and runs the command in a directory that holds
only the benchmark (it must fail without printing a result).
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from run import END_TO_END, WORKLOADS  # noqa: E402
from tracing import PER_LAYER  # noqa: E402

SEED = 3
SECONDS = "2"
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def bench(root, workload, trace, *extra):
    argv = [sys.executable, os.path.join(root, "perfbench", "run.py"),
            "--workload", workload, "--seed", str(SEED),
            "--seconds", SECONDS, "--trace", str(trace), *extra]
    proc = subprocess.run(argv, cwd=root, capture_output=True, text=True,
                          timeout=300)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return proc, lines, result


def check_manifest(root):
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}, set(spec)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    for w in spec["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200, w
    e2e = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
    assert e2e == END_TO_END, e2e
    layers = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    assert layers == PER_LAYER, layers
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}, m
        assert 0 < m["bound"] <= min(0.25, setup["bound"]), m
    for m in spec["end_to_end"] + spec["per_layer"] + spec["workloads"]:
        assert NAME.match(m["name"]), m["name"]
    return spec


def check_result(workload, trace, proc, lines, result):
    assert proc.returncode == 0, (workload, trace, proc.stderr[-2000:])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, result
    assert result["attempted"] >= 1
    table = PER_LAYER if trace else END_TO_END
    got = [(name, m["unit"]) for name, m in result["metrics"].items()]
    assert got == table, (workload, got)
    printed = "\n".join(lines[:-1])
    for name, unit in table + ([] if trace else [("failed_frac", "1")]):
        assert re.search(rf"^{re.escape(name)}\s+\S+\s+{re.escape(unit)}$",
                         printed, re.M), (workload, name)
    if not trace:
        for name, m in result["metrics"].items():
            assert m["value"] > 0, (workload, name, m)
        return
    values = {name: m["value"] for name, m in result["metrics"].items()}
    wal = any(v for name, v in values.items() if name.startswith("wal."))
    svc = any(v for name, v in values.items()
              if name.startswith("service."))
    assert wal == (workload == "stream_churn_wal"), (workload, "wal")
    assert svc == (workload == "serve_open"), (workload, "service")
    assert values["engine_fleet.round.calls"] > 0
    assert values["trace.overhead_ratio"] > 0


def main() -> int:
    root = os.path.dirname(HERE)
    check_manifest(root)
    for workload in WORKLOADS:
        for trace in (0, 1):
            check_result(workload, trace, *bench(root, workload, trace))
            print(f"ok {workload} trace={trace}", flush=True)

    proc, lines, result = bench(root, "stream_churn_wal", 0, "--corrupt", "4")
    assert proc.returncode != 0 and result["correct"] is False
    assert result["failed"] >= 1, result
    frac = [ln for ln in lines if ln.startswith("failed_frac")]
    assert frac and float(frac[0].split()[1]) > 0, frac
    print("ok corrupted digests are counted and fail the run", flush=True)

    os.makedirs(os.path.join(root, ".perfbench"), exist_ok=True)
    bare = tempfile.mkdtemp(dir=os.path.join(root, ".perfbench"))
    try:
        shutil.copy(os.path.join(root, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc, lines, result = bench(bare, "solo_mix", 0)
        assert proc.returncode != 0 and not lines, (proc.returncode, lines)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("ok without the program the command fails and prints no result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
