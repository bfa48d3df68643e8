"""The results ledger (DESIGN.md §2.12, §2.13, §2.15).

``ResultLedger`` is the one consumer that makes result rows durable,
for ``repro batch --stream`` and the service alike.  A quarantined row
goes to the dead letter when one is open and to the results ledger
otherwise, and never to ``--json`` stdout.  On resume the ledger drops
a torn trailing line, does not rewrite the indices it holds and
refuses a corrupt complete line.
"""

import asyncio
import json

import pytest

from repro.chains import square_ring
from repro.cli import main
from repro.core.results import (ChainOutcome, ResultLedger, outcome_row,
                                read_ndjson)
from repro.core.simulator import Simulator
from repro.errors import ChainError

SQUARE = [(0, 0), (1, 0), (1, 1), (0, 1)]       # gathered at round 0
#: every entry mid-crashes at local round 1 or 2: the squares finish
#: before their trigger and the rings quarantine, in strict mode too
FAULTS = "seed=3,mid_crash=1.0,window=2"
CHAINS = [SQUARE, square_ring(8), SQUARE, square_ring(8)]
QUARANTINED = {1, 3}


def _rows(path):
    return {r["chain"]: r for r in read_ndjson(str(path))}


def _jsonl(tmp_path, chains):
    path = tmp_path / "chains.jsonl"
    path.write_text("".join(json.dumps([list(p) for p in c]) + "\n"
                            for c in chains))
    return str(path)


class TestRouting:
    def test_ledger_routes_quarantined_rows(self, tmp_path):
        res = Simulator(SQUARE, engine="kernel").run()
        bad = ChainOutcome(index=1, error="FaultCrash", message="m",
                           stage="fault", quarantined=True)
        out, dead = tmp_path / "out.ndjson", tmp_path / "dead.ndjson"
        with ResultLedger(str(out), dead_letter=str(dead)) as ledger:
            assert ledger.write(0, res) == outcome_row(0, res)
            assert ledger.write(1, bad) == outcome_row(1, bad)
        assert read_ndjson(str(out)) == [outcome_row(0, res)]
        assert read_ndjson(str(dead)) == [outcome_row(1, bad)]
        alone = tmp_path / "alone.ndjson"
        with ResultLedger(str(alone)) as ledger:
            ledger.write(0, res)
            ledger.write(1, bad)
        assert read_ndjson(str(alone)) == [outcome_row(0, res),
                                           outcome_row(1, bad)]
        assert (ledger.total, ledger.gathered, ledger.robots,
                ledger.rounds, ledger.quarantined) == (1, 1, 4, 0, 1)

    def test_cli_routes_quarantined_rows(self, tmp_path, capsys):
        base = ["batch", "--stream", _jsonl(tmp_path, CHAINS), "--slots",
                "2", "--faults", FAULTS]
        # no dead letter: every row goes to --out, as json.dumps writes it
        out = tmp_path / "out.ndjson"
        assert main(base + ["--out", str(out)]) == 2
        rows = _rows(out)
        assert sorted(rows) == [0, 1, 2, 3]
        assert {i for i, r in rows.items() if r["quarantined"]} \
            == QUARANTINED
        assert sorted(out.read_text().splitlines()) == \
            sorted(json.dumps(r) for r in rows.values())
        good = {i: r for i, r in rows.items() if i not in QUARANTINED}
        # a dead letter open: quarantined rows go there, compact, and
        # only there
        out2, dead = tmp_path / "out2.ndjson", tmp_path / "dead.ndjson"
        assert main(base + ["--out", str(out2), "--dead-letter",
                            str(dead)]) == 2
        assert _rows(out2) == good
        assert sorted(dead.read_text().splitlines()) == sorted(
            json.dumps(rows[i], separators=(",", ":"))
            for i in QUARANTINED)
        # --json stdout never carries a quarantined row
        capsys.readouterr()
        assert main(base + ["--json"]) == 2
        out = capsys.readouterr().out
        assert "quarantined=2" in out
        printed = [json.loads(line) for line in out.splitlines()
                   if line.startswith("{")]
        assert {r["chain"]: r for r in printed} == good


class TestResume:
    def test_torn_tail_dropped_and_ledgered_rows_kept(self, tmp_path):
        res = [Simulator(square_ring(n), engine="kernel").run()
               for n in (8, 10, 12)]
        lines = [json.dumps(outcome_row(i, r), separators=(",", ":")) + "\n"
                 for i, r in enumerate(res)]
        path = tmp_path / "results.ndjson"
        path.write_text(lines[2] + lines[0] + lines[1][:-9])     # torn
        with ResultLedger(str(path), resume=True) as ledger:
            assert ledger.seen == {0, 2}
            assert path.read_text() == lines[2] + lines[0]
            for i in (0, 1, 2):          # 0 and 2 are delivered again
                ledger.write(i, res[i])
        assert path.read_text() == lines[2] + lines[0] + lines[1]
        assert ledger.total == 3

    @pytest.mark.parametrize("text", [
        '{"chain":0}\nnot json\n{"chain":1',      # unparseable
        '{"chain":0}\n[0, 1]\n',                  # not an object
        '{"chain":0}\n{"kind":"bad-line"}\n',     # no chain index
    ])
    def test_corrupt_complete_line_refused(self, tmp_path, text):
        path = tmp_path / "results.ndjson"
        path.write_text(text)
        with pytest.raises(ChainError):
            ResultLedger(str(path), resume=True)
        assert path.read_text() == text         # refused before any cut

    def test_cli_refuses_corrupt_out_with_one_line(self, tmp_path):
        jsonl = _jsonl(tmp_path, [square_ring(8)])
        wal = tmp_path / "wal"
        assert main(["batch", "--stream", jsonl, "--wal", str(wal)]) == 0
        out = tmp_path / "out.ndjson"
        out.write_text("not json\n")
        with pytest.raises(SystemExit) as exc:
            main(["batch", "--stream", jsonl, "--wal", str(wal),
                  "--resume", "--out", str(out)])
        assert "corrupt" in str(exc.value) and "\n" not in str(exc.value)

    def test_read_ndjson(self, tmp_path):
        path = tmp_path / "log.jsonl"
        assert read_ndjson(str(path)) == []              # missing file
        path.write_text('{"k":0}\n\n{"k":1}\n{"k":')
        assert read_ndjson(str(path)) == [{"k": 0}, {"k": 1}]
        assert path.read_text() == '{"k":0}\n\n{"k":1}\n'

    def test_service_resume_cuts_torn_tails(self, tmp_path):
        # a killed service may leave a torn line at the end of each log;
        # the resumed service appends after the last complete line
        from repro.service.client import GatherClient
        from repro.service.server import GatherService
        wal = tmp_path / "svc"
        wal.mkdir()
        chains = [square_ring(8), square_ring(10)]
        (wal / "submissions.jsonl").write_text("".join(
            json.dumps({"k": k, "chain": [list(p) for p in c]}) + "\n"
            for k, c in enumerate(chains)) + '{"k":2,"chain":[[0,')
        (wal / "intake.jsonl").write_text('{"k":0}\n{"k":1}\n{"k":')
        row0 = outcome_row(0, Simulator(chains[0], engine="kernel").run())
        (wal / "results.ndjson").write_text(
            json.dumps(row0, separators=(",", ":")) + '\n{"kind":"ch')
        # the shard tier resumes by re-running the replay from scratch,
        # so the forged logs need no kernel snapshot
        (wal / "service.json").write_text('{"workers": 2, "slots": 4}\n')

        async def resume():
            svc = GatherService(slots=4, wal_dir=str(wal), resume=True)
            await svc.start()
            try:
                cli = await GatherClient.connect("127.0.0.1", svc.port)
                await cli.submit(square_ring(12))
                await cli.drain(timeout=60)
                await cli.close()
            finally:
                svc.begin_shutdown()
                await asyncio.wait_for(svc.wait_finished(), 60)

        asyncio.run(resume())
        accepts = read_ndjson(str(wal / "submissions.jsonl"))
        assert [d["k"] for d in accepts] == [0, 1, 2]
        assert [d["k"] for d in read_ndjson(str(wal / "intake.jsonl"))] \
            == [0, 1, 2]
        rows = read_ndjson(str(wal / "results.ndjson"))
        assert rows[0] == row0
        assert sorted(r["chain"] for r in rows) == [0, 1, 2]
