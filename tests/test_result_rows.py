"""One result row on every surface (DESIGN.md §2.15).

``outcome_row`` is the only encoder of a finished stream entry: service
``result``/``quarantined`` frames (the row plus ``status`` and
``seq``), the service results ledger, ``repro batch --stream`` lines,
``repro batch --json`` runs and the dead letter all carry its row
unchanged, and every result row carries a digest of the chain's final
positions.
"""

import asyncio
import json
import random

import pytest

from repro.chains import FAMILIES, outline, random_polyomino, square_ring
from repro.cli import main
from repro.core.config import DEFAULT_PARAMETERS
from repro.core.results import (ChainOutcome, GatheringResult, outcome_row,
                                positions_digest)
from repro.core.simulator import Simulator
from repro.errors import ChainError
from repro.service.client import GatherClient
from repro.service.server import GatherService

POISON = [(0, 0), (1, 0)]          # fails closed-chain validation


class TestRowSchema:
    def test_digest_pinned(self):
        square = [(0, 0), (1, 0), (1, 1), (0, 1)]
        assert positions_digest(square) == 4100583417
        res = GatheringResult(gathered=True, rounds=0, initial_n=4,
                              final_n=4, final_positions=square,
                              params=DEFAULT_PARAMETERS)
        assert outcome_row(7, res) == {
            "kind": "chain", "chain": 7, "quarantined": False, "n": 4,
            "final_n": 4, "rounds": 0, "gathered": True,
            "rounds_per_robot": 0.0, "digest": 4100583417}
        # chain order is part of the digest
        assert positions_digest(square[1:] + square[:1]) != 4100583417

    def test_outcome_rows(self):
        res = Simulator(square_ring(8), engine="kernel").run()
        ok = ChainOutcome(index=3, result=res)
        assert ok.to_doc() == outcome_row(3, ok) == outcome_row(3, res)
        bad = ChainOutcome(index=5, error="WorkerCrashError", message="m",
                           stage="worker", retries=6, quarantined=True)
        assert bad.to_doc() == {
            "kind": "chain", "chain": 5, "quarantined": True,
            "error": "WorkerCrashError", "message": "m", "stage": "worker",
            "retries": 6}
        bad.retries = 0
        assert "retries" not in bad.to_doc()
        back = ChainOutcome.from_doc(bad.to_doc())
        assert (back.index, back.error, back.stage) == \
            (5, "WorkerCrashError", "worker")


def _service_rows(chains, wal_dir):
    """Frames (status/seq split off) and ledger lines of one service
    run over ``chains``, submitted in order by one client."""
    async def main_():
        svc = GatherService(slots=3, wal_dir=wal_dir)
        await svc.start()
        try:
            cli = await GatherClient.connect("127.0.0.1", svc.port)
            for c in chains:
                await cli.submit(c)
            frames = [fr async for fr in cli.results(expect=len(chains),
                                                     timeout=60)]
            await cli.close()
        finally:
            svc.begin_shutdown()
            await asyncio.wait_for(svc.wait_finished(), 60)
        return frames
    frames = {}
    for fr in asyncio.run(main_()):
        fr = dict(fr)
        status, seq = fr.pop("status"), fr.pop("seq")
        assert seq == fr["chain"]            # one client: take order
        assert status == ("quarantined" if fr["quarantined"] else "result")
        frames[fr["chain"]] = fr
    with open(f"{wal_dir}/results.ndjson", encoding="utf-8") as fh:
        ledger = [json.loads(line) for line in fh]
    return frames, ledger


def test_every_surface_writes_the_same_row(tmp_path, capsys):
    blob = outline(random_polyomino(9, rng=random.Random(4)))
    chains = [square_ring(8), blob, square_ring(12), POISON, square_ring(5)]
    bad = 3

    expect = {i: outcome_row(i, Simulator(c, engine="kernel").run())
              for i, c in enumerate(chains) if i != bad}
    with pytest.raises(ChainError) as exc:
        Simulator(POISON, engine="kernel")
    expect[bad] = {"kind": "chain", "chain": bad, "quarantined": True,
                   "error": "ChainError", "message": str(exc.value),
                   "stage": "admit"}

    frames, ledger = _service_rows(chains, str(tmp_path / "svc"))
    assert frames == expect
    assert sorted(ledger, key=lambda r: r["chain"]) == \
        [expect[i] for i in range(len(chains))]

    jsonl = tmp_path / "chains.jsonl"
    jsonl.write_text("".join(json.dumps([list(p) for p in c]) + "\n"
                             for c in chains))
    dead = tmp_path / "dead.ndjson"
    capsys.readouterr()
    assert main(["batch", "--stream", str(jsonl), "--slots", "3", "--json",
                 "--dead-letter", str(dead)]) == 2
    lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()
             if line.startswith("{")]
    assert {r["chain"]: r for r in lines} == \
        {i: r for i, r in expect.items() if i != bad}
    assert [json.loads(line) for line in dead.read_text().splitlines()] \
        == [expect[bad]]


def test_batch_json_runs_are_rows_by_input_index(capsys):
    # input order is --sizes x --repeat
    assert main(["batch", "--family", "square", "--sizes", "32", "48",
                 "--repeat", "2", "--json"]) == 0
    out = capsys.readouterr().out
    runs = json.loads(out[out.index("{"):])["runs"]
    square = FAMILIES["square"]
    assert runs == [outcome_row(i, Simulator(square(n), engine="kernel")
                                .run())
                    for i, n in enumerate([32, 32, 48, 48])]
