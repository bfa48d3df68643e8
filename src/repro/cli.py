"""Command-line interface.

Usage examples::

    python -m repro gather --family square --n 80 --render
    python -m repro gather --chain my_chain.json --engine reference
    python -m repro batch --family square --sizes 16 32 64 --workers 4
    python -m repro batch --family random --sizes 96 --repeat 20 --json
    python -m repro render --family octagon --n 64 --svg out.svg
    python -m repro experiment --ids EXP-T1 EXP-FIG --quick --workers 2
    python -m repro serve --slots 256 --wal /var/lib/repro/wal
    python -m repro families
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional

from repro.core.config import Parameters
from repro.core.results import outcome_row
from repro.core.simulator import ENGINES, Simulator
from repro.chains import FAMILIES
from repro.io import load_chain
from repro.viz import render_ascii, save_svg
from repro.analysis import summarize


def _build_chain(args):
    if args.chain:
        return load_chain(args.chain).positions
    family = FAMILIES.get(args.family)
    if family is None:
        raise SystemExit(f"unknown family {args.family!r}; "
                         f"try one of {sorted(FAMILIES)}")
    return family(args.n)


class _Count(argparse.Action):
    """Store a count option (``--slots``, ``--workers``,
    ``--snapshot-every``); a value below 1 exits with one error line
    while the arguments are parsed, before anything starts."""

    def __call__(self, parser, namespace, value, option_string=None):
        if value < 1:
            parser.exit(2, f"{parser.prog}: error: {option_string} must be "
                           f">= 1, got {value}\n")
        setattr(namespace, self.dest, value)


def _params(args) -> Parameters:
    kwargs = {}
    if getattr(args, "viewing", None):
        kwargs["viewing_path_length"] = args.viewing
    if getattr(args, "interval", None):
        kwargs["start_interval"] = args.interval
    if getattr(args, "k_max", None):
        kwargs["k_max"] = args.k_max
    return Parameters(**kwargs)


def cmd_gather(args) -> int:
    positions = _build_chain(args)
    sim = Simulator(positions, params=_params(args), engine=args.engine,
                    check_invariants=args.check, record_trace=args.render)
    result = sim.run(max_rounds=args.max_rounds)
    print(result.summary())
    if args.json:
        print(json.dumps(summarize(result), indent=2))
    if args.render and result.trace is not None:
        from repro.viz import render_trace_strip
        print(render_trace_strip(result.trace.snapshots,
                                 every=max(1, result.rounds // 6), max_frames=6))
    return 0 if result.gathered else 2


def cmd_render(args) -> int:
    positions = _build_chain(args)
    if args.svg:
        save_svg(args.svg, positions, title=f"{args.family} n={len(positions)}")
        print(f"wrote {args.svg}")
    else:
        print(render_ascii(positions))
    return 0


def _batch_progress(every: int = 100):
    """Progress callback printing each ``every``-chain milestone.

    Long sweeps otherwise run silent; the callback is rate-limited to
    crossings of the milestone (and completion) so tight fleets do not
    flood the terminal.
    """
    last = [0]

    def cb(done: int, total: int) -> None:
        if done // every > last[0] // every or done == total:
            # a streaming batch reports total == -1 until its input
            # iterator is exhausted; elide the unknown
            of = "" if total < 0 else f"/{total}"
            print(f"  completed {done}{of} chains", flush=True)
        last[0] = done

    return cb


def _iter_jsonl_chains(path: str, skip_bad: bool = False, on_bad=None):
    """Yield position lists from a JSONL file ('-' reads stdin).

    One chain per line: a JSON array of ``[x, y]`` pairs.  Blank lines
    are skipped, so concatenated outputs stream through unchanged.
    A line that is not a position list aborts (strict default) or —
    with ``skip_bad`` — is quarantined: ``on_bad(lineno, error, raw)``
    is called and the stream continues.  Skipped lines consume no
    stream index (the scheduler never sees them), so the dead-letter
    line number is the only handle back to the input.
    """
    if path == "-":
        fh = sys.stdin
        # a detached or closed stdin (`0<&-`, daemonised parents) is an
        # *empty* stream, not a crash: the batch reports 0/0 and exits
        # 0, exactly like `printf '' |` — distinguishable from a parse
        # failure, which still aborts
        if fh is None or getattr(fh, "closed", False):
            return
    else:
        fh = open(path, "r", encoding="utf-8")
    try:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                pts = json.loads(line)
                yield [(int(x), int(y)) for x, y in pts]
            except (ValueError, TypeError) as exc:
                if not skip_bad:
                    raise SystemExit(
                        f"{path}:{lineno}: not a JSON position list: {exc}")
                if on_bad is not None:
                    on_bad(lineno, exc, line)
    finally:
        if fh is not sys.stdin:
            fh.close()


def cmd_batch_stream(args) -> int:
    """Bounded-memory streaming batch: JSONL chains in, results out."""
    from repro.core.batch import BatchSimulator
    from repro.core.results import ResultLedger
    from repro.errors import ChainError
    if args.engine != "kernel":
        raise SystemExit("--stream runs on the fleet kernel; it requires "
                         "--engine kernel")
    if args.resume and not args.wal:
        raise SystemExit("--resume continues a write-ahead-logged run; "
                         "it needs --wal DIR")
    if args.wal and args.workers and args.workers > 1:
        raise SystemExit("--wal logs an in-process stream; the shard "
                         "workers keep no WAL, drop --workers")
    if args.resume:
        from repro.io.wal import LOG_NAME
        log = os.path.join(args.wal, LOG_NAME)
        if not os.path.exists(log):
            raise SystemExit(f"--resume: no log at {log}; it continues "
                             f"a single-process --wal run")
    if args.skip_bad_lines and not args.dead_letter:
        raise SystemExit("--skip-bad-lines quarantines rejected input "
                         "lines; it needs --dead-letter FILE")
    faults = None
    if args.faults:
        from repro.core.faults import FaultPlan
        try:
            faults = FaultPlan.parse(args.faults)
        except ValueError as exc:
            raise SystemExit(f"--faults: {exc}")
    sim = BatchSimulator([], params=_params(args), engine="kernel",
                         check_invariants=args.check, workers=args.workers,
                         keep_reports=False)
    try:
        ledger = ResultLedger(args.out, args.resume,
                              dead_letter=args.dead_letter, compact=False)
    except ChainError as exc:
        raise SystemExit(str(exc))
    progress = _batch_progress() if args.progress else None
    chains = _iter_jsonl_chains(args.stream, skip_bad=args.skip_bad_lines,
                                on_bad=ledger.bad_line)
    # a dead-letter ledger turns on the supervision tier (§2.13):
    # poisoned chains quarantine to the ledger instead of aborting
    on_error = "quarantine" if args.dead_letter else "raise"
    with ledger:
        for idx, payload in sim.run_stream(chains, slots=args.slots,
                                           max_rounds=args.max_rounds,
                                           progress=progress,
                                           wal_dir=args.wal,
                                           snapshot_every=args.snapshot_every,
                                           faults=faults,
                                           resume=args.resume,
                                           on_error=on_error):
            # one NDJSON line per finished chain, in completion order,
            # durable before the generator appends its WAL yield record
            # (§2.12); quarantined rows never print
            row = ledger.write(idx, payload)
            if args.json and not args.out and not row["quarantined"]:
                print(json.dumps(row), flush=True)
    stats = sim.last_stream_stats or {}
    extras = ""
    if args.dead_letter or ledger.quarantined:
        extras = (f", quarantined={ledger.quarantined}, "
                  f"bad_lines={ledger.bad_lines}")
    if "topo_rebuilds" in stats:
        # single-worker streams report the incremental-topology
        # telemetry: delta splices vs full rebuilds plus round rate
        extras += (f", rounds_per_s={stats.get('rounds_per_s', 0.0)}, "
                   f"topo_rebuilds={stats['topo_rebuilds']}, "
                   f"topo_delta_ops={stats['topo_delta_ops']}, "
                   f"topo_delta_cells={stats['topo_delta_cells']}")
    print(f"{ledger.gathered}/{ledger.total} gathered, {ledger.robots} "
          f"robots in {ledger.rounds} rounds total (slots={args.slots}, "
          f"workers={sim.workers}, "
          f"peak_live={stats.get('peak_live_chains', 'n/a')}{extras})")
    return 0 if ledger.gathered == ledger.total and not ledger.quarantined \
        and not ledger.bad_lines else 2


def cmd_batch(args) -> int:
    import random
    from repro.core.batch import BatchSimulator
    if args.stream:
        return cmd_batch_stream(args)
    if args.wal or args.resume or args.out or args.faults \
            or args.dead_letter or args.skip_bad_lines:
        raise SystemExit("--wal/--resume/--out/--faults/--dead-letter/"
                         "--skip-bad-lines apply to streaming batches; "
                         "add --stream JSONL")
    if args.engine != "kernel" and args.workers and args.workers > 1:
        raise SystemExit("--workers shards kernel batches across worker "
                         "processes; --engine reference gathers "
                         "in-process, drop --workers")
    family = FAMILIES.get(args.family)
    if family is None:
        raise SystemExit(f"unknown family {args.family!r}; "
                         f"try one of {sorted(FAMILIES)}")
    from repro.chains import random_chain
    rng = random.Random(args.seed)
    chains = []
    for n in args.sizes:
        for _ in range(args.repeat):
            if args.family == "random":
                chains.append(random_chain(n, rng))  # deterministic via --seed
            else:
                chains.append(family(n))
    sim = BatchSimulator(chains, params=_params(args), engine=args.engine,
                         check_invariants=args.check, workers=args.workers,
                         keep_reports=False)
    progress = _batch_progress() if args.progress else None
    batch = sim.run(max_rounds=args.max_rounds, progress=progress)
    print(batch.summary())
    if args.json:
        # keyed by input index, in --sizes x --repeat order
        rows = [outcome_row(i, r) for i, r in enumerate(batch)]
        print(json.dumps({"summary": batch.summary(), "runs": rows}, indent=2))
    return 0 if batch.all_gathered else 2


def cmd_serve(args) -> int:
    """Gathering-as-a-service: NDJSON-over-TCP front-end (§2.15)."""
    import asyncio
    from repro.service.server import GatherService, serve
    try:
        svc = GatherService(
            host=args.host, port=args.port, slots=args.slots,
            workers=args.workers or 1, queue_capacity=args.queue,
            params=_params(args), wal_dir=args.wal, resume=args.resume,
            snapshot_every=args.snapshot_every, max_rounds=args.max_rounds,
            max_chain=args.max_chain, check_invariants=args.check)
    except ValueError as exc:
        raise SystemExit(str(exc))

    def ready(s):
        # parse-friendly ready line: harnesses read the bound port here
        print(f"serving on {s.host}:{s.port} (slots={s.slots}, "
              f"workers={s.workers}, queue={s.queue_capacity}"
              f"{', wal=' + s.wal_dir if s.wal_dir else ''})", flush=True)

    try:
        asyncio.run(serve(svc, ready=ready))
    except KeyboardInterrupt:
        pass
    except Exception as exc:
        print(f"service failed: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 1
    print(f"served {svc.served} chains", flush=True)
    return 0


def cmd_experiment(args) -> int:
    from repro.experiments import run_experiments, format_markdown_report
    results = run_experiments(ids=args.ids or None, quick=args.quick,
                              verbose=True, workers=args.workers)
    if args.markdown:
        print(format_markdown_report(results))
    return 0 if all(r.passed for r in results) else 1


def cmd_families(args) -> int:
    for name in sorted(FAMILIES):
        pts = FAMILIES[name](48)
        print(f"{name:12s} example n={len(pts)}")
    return 0


def cmd_verify(args) -> int:
    from repro.verification import verify_all
    report = verify_all(args.n, engine=args.engine, limit=args.limit)
    scope = "all" if args.limit is None else f"first {args.limit}"
    print(f"n={report.n}: {scope} {report.total} configurations, "
          f"{report.gathered} gathered, max {report.max_rounds} rounds")
    for pts in report.failures[:5]:
        print("  FAILURE:", pts)
    return 0 if report.complete or (args.limit and not report.failures) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Gathering a closed chain of robots on a grid "
                    "(IPDPS 2016 reproduction)")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_chain_args(p):
        p.add_argument("--family", default="square",
                       help="generator family (see `repro families`)")
        p.add_argument("--n", type=int, default=64,
                       help="approximate chain length")
        p.add_argument("--chain", help="load a chain JSON instead")

    g = sub.add_parser("gather", help="run the gathering algorithm")
    add_chain_args(g)
    g.add_argument("--engine", choices=ENGINES, default="kernel",
                   help="round engine (default: kernel; reference is "
                        "the executable specification)")
    g.add_argument("--max-rounds", type=int, default=None)
    g.add_argument("--check", action="store_true",
                   help="enable per-round invariant checking")
    g.add_argument("--render", action="store_true",
                   help="print an ASCII film strip of the gathering")
    g.add_argument("--json", action="store_true", help="print metrics JSON")
    g.add_argument("--viewing", type=int, help="viewing path length (default 11)")
    g.add_argument("--interval", type=int, help="run start interval L (default 13)")
    g.add_argument("--k-max", type=int, dest="k_max",
                   help="merge length cap (default: viewing - 1)")
    g.set_defaults(func=cmd_gather)

    r = sub.add_parser("render", help="render a chain (ASCII or SVG)")
    add_chain_args(r)
    r.add_argument("--svg", help="write an SVG file instead of ASCII")
    r.set_defaults(func=cmd_render)

    b = sub.add_parser("batch",
                       help="gather a fleet of chains (optionally in parallel)")
    b.add_argument("--family", default="square",
                   help="generator family (see `repro families`)")
    b.add_argument("--sizes", type=int, nargs="+", default=[32, 64],
                   help="approximate chain lengths")
    b.add_argument("--repeat", type=int, default=1,
                   help="chains per size (for stochastic families)")
    b.add_argument("--seed", type=int, default=0,
                   help="seed for stochastic families")
    b.add_argument("--engine", choices=ENGINES, default="kernel")
    b.add_argument("--workers", type=int, action=_Count, default=None,
                   help="kernel worker processes (default: in-process); "
                        "kernel batches and --stream shard across K "
                        "workers fed over pipes")
    b.add_argument("--stream", metavar="JSONL",
                   help="stream chains from a JSONL file of position lists "
                        "('-' reads stdin) through a bounded arena instead "
                        "of materialising a fleet; results print as chains "
                        "finish (kernel engine only)")
    b.add_argument("--slots", type=int, action=_Count, default=256,
                   help="streaming slot budget: max chains concurrently "
                        "resident in total (default: 256; with --workers "
                        "each worker kernel gets slots//workers)")
    b.add_argument("--wal", metavar="DIR",
                   help="write a resume log of the stream to DIR "
                        "(periodic snapshots + the indices already "
                        "yielded) so a killed run can --resume "
                        "bit-identically; in-process only, not with "
                        "--workers")
    b.add_argument("--resume", action="store_true",
                   help="resume a crashed --wal run: restore the latest "
                        "snapshot, re-execute from it, skip "
                        "already-yielded results and continue the same "
                        "stream")
    b.add_argument("--out", metavar="FILE",
                   help="write NDJSON results to FILE instead of stdout; "
                        "with --resume, already-written lines are kept and "
                        "deduplicated so the finished file is byte-identical "
                        "to an uninterrupted run's")
    b.add_argument("--snapshot-every", type=int, action=_Count, default=512,
                   dest="snapshot_every", metavar="R",
                   help="rounds between WAL snapshots (default 512)")
    b.add_argument("--faults", metavar="SPEC",
                   help="deterministic fault injection, e.g. "
                        "'seed=7,crash=0.02,perturb=0.1,mid_crash=0.01,"
                        "mid_restart=0.02,window=32': drop, reshape or "
                        "mid-run-fault stream entries reproducibly")
    b.add_argument("--dead-letter", metavar="FILE", dest="dead_letter",
                   help="supervised streaming: append quarantined chains "
                        "(poisoned inputs, invariant violations, chains "
                        "that keep killing workers) to FILE as NDJSON and "
                        "keep streaming instead of aborting")
    b.add_argument("--skip-bad-lines", action="store_true",
                   dest="skip_bad_lines",
                   help="quarantine unparseable --stream input lines to "
                        "the --dead-letter ledger (with line numbers) "
                        "instead of aborting; default is strict")
    b.add_argument("--progress", action="store_true",
                   help="print per-100-chain completion milestones")
    b.add_argument("--max-rounds", type=int, default=None)
    b.add_argument("--check", action="store_true",
                   help="enable per-round invariant checking")
    b.add_argument("--json", action="store_true", help="print per-run JSON")
    b.add_argument("--viewing", type=int, help="viewing path length (default 11)")
    b.add_argument("--interval", type=int, help="run start interval L (default 13)")
    b.add_argument("--k-max", type=int, dest="k_max",
                   help="merge length cap (default: viewing - 1)")
    b.set_defaults(func=cmd_batch)

    s = sub.add_parser(
        "serve",
        help="gathering-as-a-service: accept chain submissions over "
             "NDJSON TCP and stream results back as they finish")
    s.add_argument("--host", default="127.0.0.1",
                   help="bind address (default 127.0.0.1)")
    s.add_argument("--port", type=int, default=0,
                   help="TCP port (default 0: pick a free port and print "
                        "it in the ready line)")
    s.add_argument("--slots", type=int, action=_Count, default=256,
                   help="streaming slot budget shared by all clients "
                        "(default 256)")
    s.add_argument("--workers", type=int, action=_Count, default=None,
                   help="shard the live stream across K kernel worker "
                        "processes fed over pipes, each submission placed "
                        "on the least-loaded shard (default: in-process "
                        "kernel); persisted in the service WAL header and "
                        "restored on --resume")
    s.add_argument("--queue", type=int, default=None,
                   help="admission queue capacity; submissions beyond it "
                        "get a backpressure frame and park (default: "
                        "slots)")
    s.add_argument("--wal", metavar="DIR",
                   help="write-ahead-log the service to DIR (submissions, "
                        "admission order, results ledger, and the "
                        "kernel's resume log when it runs in-process) so "
                        "a killed service can --resume")
    s.add_argument("--resume", action="store_true",
                   help="resume a killed --wal service: replay accepted "
                        "submissions in logged admission order and "
                        "complete the results ledger, keeping the lines "
                        "already written and delivering every chain "
                        "exactly once")
    s.add_argument("--snapshot-every", type=int, action=_Count, default=512,
                   dest="snapshot_every", metavar="R",
                   help="rounds between WAL snapshots (default 512)")
    s.add_argument("--max-chain", type=int, default=4096, dest="max_chain",
                   metavar="N",
                   help="largest accepted submission; longer chains are "
                        "rejected with a bad-line frame (default 4096)")
    s.add_argument("--max-rounds", type=int, default=None,
                   help="round budget per admitted chain; an over-budget "
                        "chain comes back as a result frame with "
                        "gathered false (default: (2L+2)n + 8L + 64, "
                        "28n + 168 at the default L)")
    s.add_argument("--check", action="store_true",
                   help="enable per-round invariant checking")
    s.add_argument("--viewing", type=int, help="viewing path length (default 11)")
    s.add_argument("--interval", type=int, help="run start interval L (default 13)")
    s.add_argument("--k-max", type=int, dest="k_max",
                   help="merge length cap (default: viewing - 1)")
    s.set_defaults(func=cmd_serve)

    e = sub.add_parser("experiment", help="run reproduction experiments")
    e.add_argument("--ids", nargs="*", help="experiment ids (default: all)")
    e.add_argument("--quick", action="store_true", help="reduced sizes")
    e.add_argument("--markdown", action="store_true",
                   help="print the EXPERIMENTS.md body")
    e.add_argument("--workers", type=int, default=None,
                   help="kernel worker processes for sweep experiments")
    e.set_defaults(func=cmd_experiment)

    f = sub.add_parser("families", help="list chain generator families")
    f.set_defaults(func=cmd_families)

    v = sub.add_parser("verify",
                       help="exhaustively verify all closed chains of length n")
    v.add_argument("--n", type=int, default=10, help="chain length (even)")
    v.add_argument("--engine", choices=ENGINES, default="kernel")
    v.add_argument("--limit", type=int, default=None,
                   help="cap the number of configurations (sampling)")
    v.set_defaults(func=cmd_verify)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
