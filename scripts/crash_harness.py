#!/usr/bin/env python
"""Kill-and-recover harness for the WAL streaming + supervision tiers.

Proves the durability contract of DESIGN.md §2.12 and the supervision
contract of §2.13 end to end, through the real CLI and real process
death.  Five modes:

``cli-kill`` (default)
    SIGKILL the whole CLI process at seeded WAL rounds, ``--resume``
    after each kill, and byte-compare the recovered NDJSON against an
    uninterrupted run's.  Finishes with ``repro wal audit`` over the
    surviving log.

``worker-kill``
    Run a multi-worker batch stream (``--workers --wal``, the shard
    tier) and SIGKILL individual *shard workers* (found via /proc) at
    seeded shard-WAL rounds.  The run itself must complete rc=0 with
    zero lost or duplicated results and per-chain output identical to
    the unfaulted run's.

``service-kill``
    Run ``repro serve --wal``, submit the stream over TCP, SIGKILL the
    service at seeded WAL rounds and restart it with ``--resume``.
    The finished ``results.ndjson`` ledger must keep every line each
    killed run had completed, verbatim, hold every chain exactly once,
    and equal an uninterrupted service's rows chain by chain; the
    service logs must be consistent (every take a logged accept, none
    taken twice).  ``repro wal audit`` does not apply: live admission
    is wire-paced, so re-execution against a file stream admits
    differently (§2.15).

``poison``
    Plant invalid chains at seeded stream positions and run with
    ``--dead-letter``: every poison entry must quarantine to the
    ledger (never abort the stream), and the good chains' results
    must match the clean run's under the index remap.  Then run the
    poisoned stream again under ``--faults seed=<seed>,perturb=0.25``,
    once with ``--workers 1`` and once with ``--workers <workers>``: a
    planted entry the plan picks for perturbation must still
    quarantine, both dead letters must hold exactly the planted
    positions, and both runs must deliver identical survivor rows.
    Last, run the clean stream with ``--workers <workers>`` while one
    seeded entry kills its shard worker every time it is taken
    (``REPRO_KILL_SPEC``): the dead letter must hold exactly that
    entry, as a ``WorkerCrashError`` of stage ``worker``, and every
    other row must equal the clean run's.

``shard-kill``
    Run ``repro serve --workers --wal`` (the shard tier, §2.16), submit
    the stream over TCP and SIGKILL individual *shard workers* at
    seeded shard-WAL rounds.  The service must respawn each shard and
    re-feed its in-flight chains: it exits rc=0 after the feeder's
    shutdown, with every chain exactly once in ``results.ndjson`` and
    rows identical to a clean ``--workers 1`` service run's.

Every row these modes compare is a result row (DESIGN.md §2.15) and
carries a digest of the chain's final positions, so each comparison
also checks where every chain gathered; a clean-run row without a
digest fails the harness, so a row change cannot drop that check
silently.

Exit status 0 iff the mode's contract held.

Usage::

    PYTHONPATH=src python scripts/crash_harness.py \
        --mode worker-kill --chains 120 --slots 16 --kills 3 --seed 11
"""

from __future__ import annotations

import argparse
import json
import os
import random
import signal
import subprocess
import sys
import tempfile
import threading
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def make_stream(path: str, chains: int, seed: int) -> None:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from repro.chains.random_blobs import random_chain

    rng = random.Random(seed)
    with open(path, "w", encoding="utf-8") as fh:
        for _ in range(chains):
            chain = random_chain(rng.choice([8, 12, 16, 20, 24]), rng=rng)
            fh.write(json.dumps([list(p) for p in chain]) + "\n")


def batch_cmd(jsonl: str, out: str, slots: int, wal: str | None,
              resume: bool = False, workers: int | None = None,
              dead_letter: str | None = None,
              faults: str | None = None) -> list:
    cmd = [sys.executable, "-m", "repro.cli", "batch", "--stream", jsonl,
           "--slots", str(slots), "--out", out, "--snapshot-every", "16"]
    if wal:
        cmd += ["--wal", wal]
    if resume:
        cmd.append("--resume")
    if workers:
        cmd += ["--workers", str(workers)]
    if dead_letter:
        cmd += ["--dead-letter", dead_letter]
    if faults:
        cmd += ["--faults", faults]
    return cmd


def wal_round(log: str) -> int:
    """Highest round index recorded so far (-1 before the first)."""
    try:
        with open(log, "rb") as fh:
            data = fh.read()
    except OSError:
        return -1
    last = -1
    for line in data[:data.rfind(b"\n") + 1].splitlines():
        try:
            doc = json.loads(line)
        except ValueError:
            continue
        if doc.get("type") == "round":
            last = doc["r"]
    return last


def shard_round(wal_dir: str) -> int:
    """Highest round logged by any shard sub-WAL under ``wal_dir``."""
    best = -1
    try:
        entries = os.listdir(wal_dir)
    except OSError:
        return best
    for name in entries:
        if name.startswith("shard-"):
            best = max(best, wal_round(os.path.join(wal_dir, name,
                                                    "wal.ndjson")))
    return best


def child_pids(pid: int) -> list:
    """Live direct children of ``pid`` (via /proc), minus zombies
    awaiting their reaper and the multiprocessing resource tracker —
    killing workers is the test, killing the tracker is just noise."""
    kids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "rb") as fh:
                stat = fh.read()
            state, ppid = stat[stat.rfind(b")") + 2:].split()[:2]
            if int(ppid) != pid or state == b"Z":
                continue
            with open(f"/proc/{entry}/cmdline", "rb") as fh:
                cmd = fh.read()
            if b"resource_tracker" in cmd:
                continue
            kids.append(int(entry))
        except (OSError, ValueError, IndexError):
            continue
    return kids


def load_ndjson(path: str) -> list:
    return [json.loads(line) for line in open(path, "rb").read().splitlines()
            if line.strip()]


def require_digest(rows: list) -> list:
    """``rows``, once every one carries its final-position digest."""
    missing = [r.get("chain") for r in rows if "digest" not in r]
    if missing:
        raise SystemExit(f"[crash-harness] clean-run rows without a "
                         f"final-position digest: chains {missing[:5]}")
    return rows


# ----------------------------------------------------------------------
# mode: cli-kill (§2.12 resume)
# ----------------------------------------------------------------------
def run_until_round(cmd: list, env: dict, log: str, target: int) -> str:
    """Run ``cmd``; SIGKILL it once the WAL reaches round ``target``.

    Returns 'killed' or 'finished' (the run completed before the
    target round was reached — possible near the stream's tail).
    """
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE)
    try:
        while True:
            rc = proc.poll()
            if rc is not None:
                if rc != 0:
                    sys.stderr.write(proc.stderr.read().decode())
                    raise SystemExit(f"worker exited rc={rc} before kill")
                return "finished"
            if wal_round(log) >= target:
                proc.send_signal(signal.SIGKILL)
                proc.wait()
                return "killed"
            time.sleep(0.005)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


def mode_cli_kill(args, tmp: str, jsonl: str, env: dict) -> int:
    clean = os.path.join(tmp, "clean.ndjson")
    subprocess.run(batch_cmd(jsonl, clean, args.slots, wal=None),
                   env=env, check=True, stdout=subprocess.DEVNULL)
    clean_bytes = open(clean, "rb").read()
    require_digest(load_ndjson(clean))

    # Kill targets: seeded, sorted so each resume makes forward progress.
    wal = os.path.join(tmp, "wal")
    log = os.path.join(wal, "wal.ndjson")
    out = os.path.join(tmp, "recovered.ndjson")
    hi = args.max_round
    if hi is None:
        last = max((json.loads(l)["rounds"] for l in clean_bytes.splitlines()),
                   default=1)
        hi = max(1, 2 * last)
    rng = random.Random(args.seed ^ 0x5EED)
    targets = sorted(rng.randrange(hi) for _ in range(args.kills))
    print(f"[crash-harness] {args.chains} chains, slots={args.slots}, "
          f"kill rounds {targets}")

    resume = False
    for target in targets:
        fate = run_until_round(batch_cmd(jsonl, out, args.slots, wal, resume),
                               env, log, target)
        print(f"[crash-harness] round>={target}: {fate}")
        if fate == "finished":
            break
        resume = True
    if resume:
        subprocess.run(batch_cmd(jsonl, out, args.slots, wal, resume=True),
                       env=env, check=True, stdout=subprocess.DEVNULL)

    recovered = open(out, "rb").read()
    if recovered != clean_bytes:
        a = clean_bytes.decode().splitlines()
        b = recovered.decode().splitlines()
        print(f"[crash-harness] MISMATCH: clean {len(a)} lines, "
              f"recovered {len(b)} lines", file=sys.stderr)
        for i, (x, y) in enumerate(zip(a, b)):
            if x != y:
                print(f"  first diff at line {i}:\n   clean: {x}\n   "
                      f"recov: {y}", file=sys.stderr)
                break
        return 1
    # the surviving log must also pass the machine audit (§2.13)
    audit = subprocess.run(
        [sys.executable, "-m", "repro.cli", "wal", "audit", wal,
         "--stream", jsonl], env=env, capture_output=True, text=True)
    print(f"[crash-harness] {audit.stdout.strip()}")
    if audit.returncode != 0:
        print(f"[crash-harness] WAL AUDIT FAILED rc={audit.returncode}",
              file=sys.stderr)
        return 1
    print(f"[crash-harness] OK: recovered NDJSON byte-identical "
          f"({len(clean_bytes)} bytes, {len(targets)} kill points)")
    return 0


# ----------------------------------------------------------------------
# mode: service-kill (§2.15 service WAL resume)
# ----------------------------------------------------------------------
def start_service(wal: str, slots: int, env: dict, resume: bool,
                  workers: int | None = None):
    """Launch ``repro serve`` on an ephemeral port; return (proc, port)."""
    cmd = [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
           "--slots", str(slots), "--wal", wal, "--snapshot-every", "16"]
    if resume:
        cmd.append("--resume")
    if workers:
        cmd += ["--workers", str(workers)]
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT, text=True)
    line = proc.stdout.readline()
    if "serving on" not in line:
        proc.kill()
        raise SystemExit(f"service failed to start: {line!r}")
    return proc, int(line.split("(")[0].rsplit(":", 1)[1])


def feed_service(port: int, chains: list, start_at: int) -> None:
    """Submit ``chains[start_at:]``, drain, then ask for shutdown.

    Runs in a daemon thread; a SIGKILL landing on the service mid-feed
    surfaces here as a connection error, which is the point — the
    resumed cycle picks up from the accept log.
    """
    import asyncio

    async def go():
        from repro.service.client import GatherClient
        cli = await GatherClient.connect("127.0.0.1", port)
        for c in chains[start_at:]:
            await cli.submit(c)
        await cli.drain(timeout=600)
        await cli.shutdown()
        await cli.close()

    try:
        asyncio.run(go())
    except Exception:
        pass


def run_service(wal: str, args, env: dict, chains: list,
                resume: bool = False, workers: int | None = None,
                kill_now=None) -> str:
    """One service incarnation fed ``chains`` (from the accept log's
    count on) by a TCP client that drains and then asks for shutdown.

    ``kill_now(proc)`` is polled while the service runs; when it
    returns True the service is SIGKILLed.  Returns 'killed' or
    'finished'; a nonzero exit aborts the harness.
    """
    subs = os.path.join(wal, "submissions.jsonl")
    accepted = len(load_ndjson(subs)) if os.path.exists(subs) else 0
    proc, port = start_service(wal, args.slots, env, resume, workers)
    feeder = threading.Thread(target=feed_service,
                              args=(port, chains, accepted), daemon=True)
    feeder.start()
    try:
        while True:
            rc = proc.poll()
            if rc is not None:
                if rc != 0:
                    sys.stderr.write(proc.stdout.read())
                    raise SystemExit(f"service exited rc={rc}")
                return "finished"
            if kill_now is not None and kill_now(proc):
                proc.send_signal(signal.SIGKILL)
                proc.wait()
                return "killed"
            time.sleep(0.005)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        feeder.join(timeout=30)


def mode_service_kill(args, tmp: str, jsonl: str, env: dict) -> int:
    chains = [[tuple(p) for p in doc] for doc in load_ndjson(jsonl)]

    def run_cycle(wal: str, target: int | None, resume: bool) -> str:
        log = os.path.join(wal, "wal.ndjson")
        return run_service(
            wal, args, env, chains, resume=resume,
            kill_now=lambda proc: target is not None
            and wal_round(log) >= target)

    # clean reference: an uninterrupted service over the same stream.
    # Live admission is paced by the wire, so *completion order* is
    # timing-dependent across independent runs; per-chain rows are
    # deterministic (stream results are bit-identical to gather_batch
    # per chain), and a single client makes global indices == the
    # submission order in every run.  The killed lineage itself must
    # stay byte-consistent: each resume appends to the same ledger.
    clean = os.path.join(tmp, "svc-clean")
    run_cycle(clean, target=None, resume=False)
    clean_rows = require_digest(sorted(
        load_ndjson(os.path.join(clean, "results.ndjson")),
        key=lambda d: d["chain"]))
    if len(clean_rows) != len(chains):
        raise SystemExit("clean service run lost results")

    hi = args.max_round
    if hi is None:
        last = max((d["rounds"] for d in clean_rows), default=1)
        hi = max(1, 2 * last)
    rng = random.Random(args.seed ^ 0x5E17)
    targets = sorted(rng.randrange(hi) for _ in range(args.kills))
    print(f"[crash-harness] service-kill: {len(chains)} chains, "
          f"slots={args.slots}, kill rounds {targets}")

    wal = os.path.join(tmp, "svc-wal")
    ledger = os.path.join(wal, "results.ndjson")
    resume = False
    prefixes = []
    for target in targets:
        fate = run_cycle(wal, target, resume)
        print(f"[crash-harness] round>={target}: {fate}")
        if fate == "finished":
            break
        resume = True
        # the next incarnation must keep every completed line verbatim
        # (only a torn trailing line may be truncated away)
        data = open(ledger, "rb").read()
        prefixes.append(data[:data.rfind(b"\n") + 1])

    if resume:
        run_cycle(wal, target=None, resume=True)

    recovered = open(ledger, "rb").read()
    for prefix in prefixes:
        if not recovered.startswith(prefix):
            print("[crash-harness] resumed ledger rewrote completed "
                  "lines", file=sys.stderr)
            return 1
    rows = load_ndjson(ledger)
    indices = [d["chain"] for d in rows]
    if len(set(indices)) != len(indices):
        print("[crash-harness] DUPLICATED ledger entries after resume",
              file=sys.stderr)
        return 1
    rows = sorted(rows, key=lambda d: d["chain"])
    if rows != clean_rows:
        print(f"[crash-harness] MISMATCH: clean {len(clean_rows)} rows, "
              f"recovered {len(rows)} rows", file=sys.stderr)
        for x, y in zip(clean_rows, rows):
            if x != y:
                print(f"  first diff:\n   clean: {x}\n   recov: {y}",
                      file=sys.stderr)
                break
        return 1

    # The kernel-WAL machine audit does not apply here: live admission
    # is wire-paced (the scheduler admits whatever has *arrived*), so
    # re-executing against a never-starved file stream legitimately
    # produces different admit cursors.  The service's own logs carry
    # the §2.15 durability evidence instead — check them structurally:
    # every take refers to a logged accept, no accept was admitted
    # twice, and every accepted chain reached the ledger exactly once.
    accepts = load_ndjson(os.path.join(wal, "submissions.jsonl"))
    takes = [d["k"] for d in load_ndjson(os.path.join(wal, "intake.jsonl"))]
    if sorted(takes) != sorted(set(takes)) \
            or any(k >= len(accepts) for k in takes):
        print(f"[crash-harness] intake log inconsistent: {len(takes)} "
              f"takes over {len(accepts)} accepts", file=sys.stderr)
        return 1
    if len(accepts) != len(chains) or len(rows) != len(accepts):
        print(f"[crash-harness] lost work: {len(chains)} submitted, "
              f"{len(accepts)} accepted, {len(rows)} delivered",
              file=sys.stderr)
        return 1
    print(f"[crash-harness] OK: {len(rows)} results exactly-once, "
          f"rows identical to clean service run, completed prefixes "
          f"preserved across {len(targets)} kill points")
    return 0


# ----------------------------------------------------------------------
# mode: worker-kill (§2.13 crash recovery on the shard tier)
# ----------------------------------------------------------------------
def mode_worker_kill(args, tmp: str, jsonl: str, env: dict) -> int:
    clean = os.path.join(tmp, "clean.ndjson")
    subprocess.run(batch_cmd(jsonl, clean, args.slots, wal=None),
                   env=env, check=True, stdout=subprocess.DEVNULL)
    clean_rows = require_digest(sorted(load_ndjson(clean),
                                       key=lambda d: d["chain"]))

    wal = os.path.join(tmp, "wal")
    out = os.path.join(tmp, "supervised.ndjson")
    rng = random.Random(args.seed ^ 0xDEAD)
    hi = args.max_round if args.max_round else 12
    targets = sorted(rng.randrange(1, 1 + hi) for _ in range(args.kills))
    print(f"[crash-harness] worker-kill: {args.chains} chains, "
          f"workers={args.workers}, shard-round targets {targets}")

    proc = subprocess.Popen(
        batch_cmd(jsonl, out, args.slots, wal, workers=args.workers),
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    delivered = 0
    try:
        while proc.poll() is None:
            if delivered < len(targets) \
                    and shard_round(wal) >= targets[delivered]:
                kids = child_pids(proc.pid)
                if kids:
                    victim = rng.choice(kids)
                    try:
                        os.kill(victim, signal.SIGKILL)
                    except OSError:
                        continue           # worker raced to exit; retry
                    delivered += 1
                    print(f"[crash-harness] SIGKILL worker pid={victim} "
                          f"(shard round >= {targets[delivered - 1]})")
            time.sleep(0.002)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr.read().decode())
        print(f"[crash-harness] supervised run died rc={proc.returncode} "
              f"— supervision failed to absorb the kills", file=sys.stderr)
        return 1
    if delivered < len(targets):
        print(f"[crash-harness] note: only {delivered}/{len(targets)} kills "
              f"delivered (run finished first)")

    rows = load_ndjson(out)
    indices = [d["chain"] for d in rows]
    if len(set(indices)) != len(indices):
        print("[crash-harness] DUPLICATED results after recovery",
              file=sys.stderr)
        return 1
    rows = sorted(rows, key=lambda d: d["chain"])
    if rows != clean_rows:
        print(f"[crash-harness] MISMATCH: clean {len(clean_rows)} rows, "
              f"supervised {len(rows)} rows", file=sys.stderr)
        for x, y in zip(clean_rows, rows):
            if x != y:
                print(f"  first diff:\n   clean: {x}\n   super: {y}",
                      file=sys.stderr)
                break
        return 1
    print(f"[crash-harness] OK: {len(rows)} results, zero lost/duplicated, "
          f"identical to unfaulted run ({delivered} worker kills)")
    return 0


# ----------------------------------------------------------------------
# mode: shard-kill (§2.16 shard respawn)
# ----------------------------------------------------------------------
def mode_shard_kill(args, tmp: str, jsonl: str, env: dict) -> int:
    chains = [[tuple(p) for p in doc] for doc in load_ndjson(jsonl)]
    # clean reference: an uninterrupted single-worker service (per-chain
    # rows are deterministic; completion order is wire-paced)
    clean = os.path.join(tmp, "svc-clean")
    run_service(clean, args, env, chains)
    clean_rows = require_digest(sorted(
        load_ndjson(os.path.join(clean, "results.ndjson")),
        key=lambda d: d["chain"]))
    if len(clean_rows) != len(chains):
        raise SystemExit("clean service run lost results")

    wal = os.path.join(tmp, "svc-shards")
    rng = random.Random(args.seed ^ 0x51AB)
    hi = args.max_round if args.max_round else 12
    targets = sorted(rng.randrange(1, 1 + hi) for _ in range(args.kills))
    print(f"[crash-harness] shard-kill: {len(chains)} chains, "
          f"workers={args.workers}, shard-round targets {targets}")
    kills = []

    def kill_shard(proc) -> bool:
        # SIGKILL one shard worker per target; the service itself lives
        if len(kills) < len(targets) \
                and shard_round(wal) >= targets[len(kills)]:
            victims = child_pids(proc.pid)
            if victims:
                victim = rng.choice(victims)
                try:
                    os.kill(victim, signal.SIGKILL)
                except OSError:
                    return False       # worker raced to exit; retry
                kills.append(victim)
                print(f"[crash-harness] SIGKILL shard worker pid={victim} "
                      f"(shard round >= {targets[len(kills) - 1]})")
        return False

    run_service(wal, args, env, chains, workers=args.workers,
                kill_now=kill_shard)
    if len(kills) < len(targets):
        print(f"[crash-harness] note: only {len(kills)}/{len(targets)} "
              f"kills delivered (run finished first)")

    rows = load_ndjson(os.path.join(wal, "results.ndjson"))
    indices = [d["chain"] for d in rows]
    if len(set(indices)) != len(indices):
        print("[crash-harness] DUPLICATED results after shard respawn",
              file=sys.stderr)
        return 1
    rows = sorted(rows, key=lambda d: d["chain"])
    if rows != clean_rows:
        print(f"[crash-harness] MISMATCH: clean {len(clean_rows)} rows, "
              f"sharded {len(rows)} rows", file=sys.stderr)
        for x, y in zip(clean_rows, rows):
            if x != y:
                print(f"  first diff:\n   clean: {x}\n   shard: {y}",
                      file=sys.stderr)
                break
        return 1
    print(f"[crash-harness] OK: {len(rows)} results exactly-once, rows "
          f"identical to a clean single-worker service ({len(kills)} "
          f"shard-worker kills)")
    return 0


# ----------------------------------------------------------------------
# mode: poison (§2.13 quarantine)
# ----------------------------------------------------------------------
def mode_poison(args, tmp: str, jsonl: str, env: dict) -> int:
    clean = os.path.join(tmp, "clean.ndjson")
    subprocess.run(batch_cmd(jsonl, clean, args.slots, wal=None),
                   env=env, check=True, stdout=subprocess.DEVNULL)
    clean_rows = require_digest(sorted(load_ndjson(clean),
                                       key=lambda d: d["chain"]))

    # plant poison entries (valid JSON, invalid chains) at seeded
    # positions of a new stream file
    rng = random.Random(args.seed ^ 0xBAD)
    npoison = max(1, args.kills)
    good = open(jsonl, "r", encoding="utf-8").read().splitlines()
    total = len(good) + npoison
    slots_at = sorted(rng.sample(range(total), npoison))
    poisoned = os.path.join(tmp, "poisoned.jsonl")
    remap = {}                      # faulted stream index -> clean index
    git = iter(range(len(good)))
    with open(poisoned, "w", encoding="utf-8") as fh:
        gi = 0
        for pos in range(total):
            if pos in slots_at:
                fh.write(json.dumps([[0, 0], [1, 0]]) + "\n")
            else:
                fh.write(good[gi] + "\n")
                remap[pos] = gi
                gi += 1
    del git
    print(f"[crash-harness] poison: {npoison} invalid chains at stream "
          f"positions {slots_at} of {total}")

    out = os.path.join(tmp, "survived.ndjson")
    dl = os.path.join(tmp, "dead.ndjson")
    proc = subprocess.run(
        batch_cmd(poisoned, out, args.slots, wal=None,
                  workers=args.workers, dead_letter=dl),
        env=env, capture_output=True, text=True)
    # rc 2 is the documented "not everything gathered" signal; any
    # other nonzero means the stream aborted
    if proc.returncode not in (0, 2):
        sys.stderr.write(proc.stderr)
        print(f"[crash-harness] poisoned run ABORTED rc={proc.returncode}",
              file=sys.stderr)
        return 1
    dead = load_ndjson(dl)
    quarantined = {d["chain"] for d in dead if d.get("kind") == "chain"}
    if quarantined != set(slots_at):
        print(f"[crash-harness] dead letter mismatch: expected "
              f"{slots_at}, ledger has {sorted(quarantined)}",
              file=sys.stderr)
        return 1

    rows = load_ndjson(out)
    mapped = sorted(({**d, "chain": remap[d["chain"]]} for d in rows),
                    key=lambda d: d["chain"])
    if mapped != clean_rows:
        print(f"[crash-harness] MISMATCH: clean {len(clean_rows)} rows, "
              f"survived {len(mapped)} rows", file=sys.stderr)
        for x, y in zip(clean_rows, mapped):
            if x != y:
                print(f"  first diff:\n   clean: {x}\n   survi: {y}",
                      file=sys.stderr)
                break
        return 1
    print(f"[crash-harness] OK: {npoison} poison chains quarantined to the "
          f"dead letter, {len(mapped)} good chains identical to clean run")

    # the same stream under an intake perturb plan: both schedulers
    # validate a perturb-selected entry before mutating it, so planted
    # entries still quarantine in-process and on the shards alike
    faults = f"seed={args.seed},perturb=0.25"
    survivors = {}
    for workers in (1, args.workers):
        out = os.path.join(tmp, f"perturbed-w{workers}.ndjson")
        dl = os.path.join(tmp, f"perturbed-dead-w{workers}.ndjson")
        proc = subprocess.run(
            batch_cmd(poisoned, out, args.slots, wal=None, workers=workers,
                      dead_letter=dl, faults=faults),
            env=env, capture_output=True, text=True)
        if proc.returncode not in (0, 2):
            sys.stderr.write(proc.stderr)
            print(f"[crash-harness] perturbed run (--workers {workers}) "
                  f"ABORTED rc={proc.returncode}", file=sys.stderr)
            return 1
        quarantined = {d["chain"] for d in load_ndjson(dl)
                       if d.get("kind") == "chain"}
        if quarantined != set(slots_at):
            print(f"[crash-harness] perturbed run (--workers {workers}) "
                  f"dead letter mismatch: expected {slots_at}, ledger has "
                  f"{sorted(quarantined)}", file=sys.stderr)
            return 1
        survivors[workers] = sorted(load_ndjson(out),
                                    key=lambda d: d["chain"])
    if survivors[1] != survivors[args.workers]:
        print(f"[crash-harness] perturbed runs disagree: --workers 1 "
              f"delivered {len(survivors[1])} rows, --workers "
              f"{args.workers} {len(survivors[args.workers])}",
              file=sys.stderr)
        return 1
    print(f"[crash-harness] OK: under --faults {faults} the planted chains "
          f"quarantined with --workers 1 and --workers {args.workers}, "
          f"{len(survivors[1])} survivor rows identical")

    # a chain that kills its worker every time it is taken (a negative
    # kill counter never disarms): the shards re-run suspects one at a
    # time, so only that chain dead-letters and the rest finish
    killer = rng.randrange(args.chains)
    counter = os.path.join(tmp, "kill-counter")
    with open(counter, "w", encoding="utf-8") as fh:
        fh.write("-1")
    kill_env = {**env, "REPRO_KILL_SPEC": f"{counter}:{killer}"}
    out = os.path.join(tmp, "killer.ndjson")
    dl = os.path.join(tmp, "killer-dead.ndjson")
    proc = subprocess.run(
        batch_cmd(jsonl, out, args.slots, wal=None, workers=args.workers,
                  dead_letter=dl),
        env=kill_env, capture_output=True, text=True)
    if proc.returncode not in (0, 2):
        sys.stderr.write(proc.stderr)
        print(f"[crash-harness] worker-killer run ABORTED "
              f"rc={proc.returncode}", file=sys.stderr)
        return 1
    dead = [(d.get("chain"), d.get("error"), d.get("stage"))
            for d in load_ndjson(dl)]
    if dead != [(killer, "WorkerCrashError", "worker")]:
        print(f"[crash-harness] worker-killer dead letter mismatch: "
              f"expected chain {killer} (WorkerCrashError, worker), "
              f"ledger has {dead}", file=sys.stderr)
        return 1
    rows = sorted(load_ndjson(out), key=lambda d: d["chain"])
    if rows != [d for d in clean_rows if d["chain"] != killer]:
        print(f"[crash-harness] worker-killer run MISMATCH: "
              f"{len(rows)} rows against {len(clean_rows) - 1} clean "
              f"survivors", file=sys.stderr)
        return 1
    print(f"[crash-harness] OK: chain {killer} killed its worker on every "
          f"run and alone was dead-lettered; {len(rows)} other rows "
          f"identical to the clean run")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--mode", choices=("cli-kill", "worker-kill", "poison",
                                       "service-kill", "shard-kill"),
                    default="cli-kill")
    ap.add_argument("--chains", type=int, default=120)
    ap.add_argument("--slots", type=int, default=16)
    ap.add_argument("--workers", type=int, default=2,
                    help="shard worker count for the worker-kill, "
                         "poison and shard-kill modes")
    ap.add_argument("--kills", type=int, default=3,
                    help="SIGKILLs (cli-kill/worker-kill) or poison "
                         "chains (poison) to inject")
    ap.add_argument("--seed", type=int, default=11)
    ap.add_argument("--max-round", type=int, default=None,
                    help="kill rounds are drawn from [0, max-round] "
                         "(default: clean run's final round)")
    args = ap.parse_args(argv)

    tmp = tempfile.mkdtemp(prefix="crash-harness-")
    jsonl = os.path.join(tmp, "chains.jsonl")
    make_stream(jsonl, args.chains, args.seed)
    env = {**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")}
    if args.mode == "service-kill":
        return mode_service_kill(args, tmp, jsonl, env)
    if args.mode == "worker-kill":
        return mode_worker_kill(args, tmp, jsonl, env)
    if args.mode == "shard-kill":
        return mode_shard_kill(args, tmp, jsonl, env)
    if args.mode == "poison":
        return mode_poison(args, tmp, jsonl, env)
    return mode_cli_kill(args, tmp, jsonl, env)


if __name__ == "__main__":
    sys.exit(main())
