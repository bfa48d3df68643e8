"""The command-line interface."""

import json
import os
import subprocess
import sys

import pytest

from repro.cli import main
from repro.core.chain import ClosedChain
from repro.chains import square_ring
from repro.io import WalReader, save_chain


class TestGather:
    def test_family(self, capsys):
        assert main(["gather", "--family", "square", "--n", "32"]) == 0
        out = capsys.readouterr().out
        assert "gathered" in out

    def test_loaded_chain(self, tmp_path, capsys):
        path = save_chain(str(tmp_path / "c.json"),
                          ClosedChain(square_ring(8)))
        assert main(["gather", "--chain", path]) == 0

    def test_json_metrics(self, capsys):
        assert main(["gather", "--family", "needle", "--n", "24",
                     "--json"]) == 0
        out = capsys.readouterr().out
        payload = out[out.index("{"):]
        doc = json.loads(payload)
        assert doc["gathered"] == 1

    def test_render_strip(self, capsys):
        assert main(["gather", "--family", "square", "--n", "32",
                     "--render"]) == 0
        assert "round" in capsys.readouterr().out

    def test_stall_exit_code(self, capsys):
        assert main(["gather", "--family", "square", "--n", "80",
                     "--max-rounds", "2"]) == 2

    def test_parameter_overrides(self, capsys):
        assert main(["gather", "--family", "square", "--n", "32",
                     "--interval", "7", "--viewing", "15",
                     "--k-max", "5"]) == 0

    def test_unknown_family(self):
        with pytest.raises(SystemExit):
            main(["gather", "--family", "dodecahedron"])

    def test_default_engine_is_kernel(self, monkeypatch, capsys):
        import repro.cli
        engines = []

        class Recording(repro.cli.Simulator):
            def __init__(self, *args, **kwargs):
                engines.append(kwargs.get("engine"))
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(repro.cli, "Simulator", Recording)
        assert main(["gather", "--family", "square", "--n", "32"]) == 0
        assert engines == ["kernel"]

    @pytest.mark.parametrize("family,n", [("square", 32), ("octagon", 48),
                                          ("needle", 24)])
    def test_default_output_matches_reference(self, family, n, capsys):
        # summary line, --json document and --render strip
        argv = ["gather", "--family", family, "--n", str(n), "--json",
                "--render"]
        assert main(argv) == 0
        default = capsys.readouterr().out
        assert main(argv + ["--engine", "reference"]) == 0
        assert capsys.readouterr().out == default


class TestRender:
    def test_ascii(self, capsys):
        assert main(["render", "--family", "square", "--n", "24"]) == 0
        assert "1" in capsys.readouterr().out

    def test_svg(self, tmp_path, capsys):
        path = str(tmp_path / "out.svg")
        assert main(["render", "--family", "square", "--n", "24",
                     "--svg", path]) == 0
        assert os.path.exists(path)


class TestVerify:
    def test_exhaustive_small(self, capsys):
        assert main(["verify", "--n", "8"]) == 0
        out = capsys.readouterr().out
        assert "71 configurations" in out

    def test_limit_sampling(self, capsys):
        assert main(["verify", "--n", "12", "--limit", "20"]) == 0


class TestBatchStream:
    """``repro batch --stream``: JSONL in, streaming results out."""

    @staticmethod
    def _write_jsonl(tmp_path, fleets):
        path = tmp_path / "chains.jsonl"
        lines = [json.dumps([list(p) for p in pts]) for pts in fleets]
        path.write_text("\n".join(lines) + "\n\n")   # trailing blank ok
        return str(path)

    def test_stream_file(self, tmp_path, capsys):
        path = self._write_jsonl(tmp_path, [square_ring(8), square_ring(12)])
        assert main(["batch", "--stream", path, "--slots", "1"]) == 0
        out = capsys.readouterr().out
        assert "2/2 gathered" in out

    def test_stream_json_lines(self, tmp_path, capsys):
        path = self._write_jsonl(tmp_path,
                                 [square_ring(8), square_ring(10)])
        assert main(["batch", "--stream", path, "--slots", "2",
                     "--json"]) == 0
        out = capsys.readouterr().out
        rows = [json.loads(line) for line in out.splitlines()
                if line.startswith("{")]
        assert sorted(r["chain"] for r in rows) == [0, 1]
        assert all(r["gathered"] for r in rows)

    def test_stream_stdin(self, tmp_path, capsys, monkeypatch):
        import io
        payload = json.dumps([list(p) for p in square_ring(8)]) + "\n"
        monkeypatch.setattr("sys.stdin", io.StringIO(payload))
        assert main(["batch", "--stream", "-"]) == 0
        assert "1/1 gathered" in capsys.readouterr().out

    def test_stream_closed_stdin_is_empty_stream(self, capsys, monkeypatch):
        # a detached stdin (`repro batch --stream - 0<&-`, daemonised
        # parents) used to crash iterating None; it must behave exactly
        # like an empty pipe: clean 0/0 stats, exit 0
        import io
        closed = io.StringIO()
        closed.close()
        for stand_in in (None, closed):
            monkeypatch.setattr("sys.stdin", stand_in)
            assert main(["batch", "--stream", "-"]) == 0
            assert "0/0 gathered" in capsys.readouterr().out

    def test_stream_closed_stdin_writes_clean_wal(self, tmp_path, capsys,
                                                  monkeypatch):
        monkeypatch.setattr("sys.stdin", None)
        wal = str(tmp_path / "wal")
        assert main(["batch", "--stream", "-", "--wal", wal]) == 0
        # a resume log: the stream's opening record and its baseline
        # snapshot, with nothing yielded
        types = {r["type"] for r in WalReader(wal).records()}
        assert types == {"stream_start", "snapshot"}

    def test_stream_budget_exit_code(self, tmp_path, capsys):
        path = self._write_jsonl(tmp_path, [square_ring(20)])
        assert main(["batch", "--stream", path, "--max-rounds", "2"]) == 2

    def test_stream_requires_kernel_engine(self, tmp_path):
        path = self._write_jsonl(tmp_path, [square_ring(8)])
        with pytest.raises(SystemExit) as exc:
            main(["batch", "--stream", path, "--engine", "reference"])
        assert str(exc.value) == ("--stream runs on the fleet kernel; "
                                  "it requires --engine kernel")

    def test_reference_batch_refuses_workers(self):
        # a one-line exit, not a traceback from BatchSimulator
        with pytest.raises(SystemExit) as exc:
            main(["batch", "--engine", "reference", "--workers", "2"])
        msg = str(exc.value)
        assert "--engine reference gathers in-process" in msg
        assert "\n" not in msg

    def test_batch_has_no_backend_flag(self, capsys):
        with pytest.raises(SystemExit):
            main(["batch", "--help"])
        assert "--backend" not in capsys.readouterr().out

    def test_stream_rejects_bad_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("not json\n")
        with pytest.raises(SystemExit):
            main(["batch", "--stream", str(path)])


class TestSupervisedStream:
    """``repro batch --stream`` under supervision (DESIGN.md §2.13)."""

    @staticmethod
    def _write_jsonl(tmp_path, fleets, name="chains.jsonl"):
        path = tmp_path / name
        lines = [json.dumps([list(p) for p in pts]) for pts in fleets]
        path.write_text("\n".join(lines) + "\n")
        return str(path)

    def test_skip_bad_lines_quarantined_with_line_number(
            self, tmp_path, capsys):
        path = tmp_path / "mixed.jsonl"
        good = json.dumps([list(p) for p in square_ring(8)])
        path.write_text(good + "\nnot json\n" + good + "\n")
        dl = tmp_path / "dead.ndjson"
        rc = main(["batch", "--stream", str(path), "--skip-bad-lines",
                   "--dead-letter", str(dl)])
        assert rc == 2                      # bad line ⇒ not fully clean
        out = capsys.readouterr().out
        assert "2/2 gathered" in out
        assert "bad_lines=1" in out
        docs = [json.loads(s) for s in dl.read_text().splitlines()]
        assert docs[0]["kind"] == "bad-line" and docs[0]["line"] == 2

    def test_skip_bad_lines_requires_dead_letter(self, tmp_path):
        path = self._write_jsonl(tmp_path, [square_ring(8)])
        with pytest.raises(SystemExit):
            main(["batch", "--stream", path, "--skip-bad-lines"])

    def test_poison_chain_quarantined_not_fatal(self, tmp_path, capsys):
        path = tmp_path / "poison.jsonl"
        good = json.dumps([list(p) for p in square_ring(8)])
        path.write_text(good + "\n" + json.dumps([[0, 0], [1, 0]])
                        + "\n" + good + "\n")
        dl = tmp_path / "dead.ndjson"
        out_file = tmp_path / "out.ndjson"
        rc = main(["batch", "--stream", str(path), "--dead-letter",
                   str(dl), "--out", str(out_file)])
        assert rc == 2
        assert "quarantined=1" in capsys.readouterr().out
        docs = [json.loads(s) for s in dl.read_text().splitlines()]
        assert docs[0]["chain"] == 1 and docs[0]["quarantined"]
        # with a dead letter open, quarantined chains stay out of the
        # results ledger (without one they are written to --out)
        rows = [json.loads(s) for s in out_file.read_text().splitlines()]
        assert sorted(r["chain"] for r in rows) == [0, 2]

    def test_mid_run_crash_without_dead_letter(self, tmp_path, capsys):
        # injected mid-run crashes come back quarantined in strict mode
        # too; with no dead letter and no --out they are only counted,
        # and quarantined rows never print
        path = self._write_jsonl(tmp_path, [square_ring(8)] * 4)
        rc = main(["batch", "--stream", path, "--json", "--faults",
                   "seed=3,mid_crash=1.0,window=2"])
        assert rc == 2
        out = capsys.readouterr().out
        assert "0/0 gathered" in out and "quarantined=4" in out
        assert not [line for line in out.splitlines()
                    if line.startswith("{")]

    def test_resume_without_log_exits_with_one_line(self, tmp_path, capsys):
        # a mistyped directory, and one that holds no log
        path = self._write_jsonl(tmp_path, [square_ring(8)] * 3)
        empty = tmp_path / "empty"
        empty.mkdir()
        out = tmp_path / "out.ndjson"
        for wal in (tmp_path / "typo", empty):
            with pytest.raises(SystemExit) as exc:
                main(["batch", "--stream", path, "--wal", str(wal),
                      "--resume", "--out", str(out)])
            msg = str(exc.value)
            assert str(wal / "wal.ndjson") in msg and "\n" not in msg
            assert not out.exists()

    def test_wal_with_workers_exits_with_one_line(self, tmp_path, capsys):
        # the shard workers keep no WAL: refused before --out or the
        # log directory is opened, fresh or resumed
        path = self._write_jsonl(tmp_path, [square_ring(8)] * 3)
        wal, out = tmp_path / "wal", tmp_path / "out.ndjson"
        for extra in ([], ["--resume"]):
            with pytest.raises(SystemExit) as exc:
                main(["batch", "--stream", path, "--workers", "2",
                      "--wal", str(wal), "--out", str(out)] + extra)
            msg = str(exc.value)
            assert "--wal" in msg and "--workers" in msg \
                and "\n" not in msg
            assert not out.exists() and not wal.exists()


class TestCountOptions:
    """``--slots``, ``--workers`` and ``--snapshot-every`` below 1 are
    refused while the arguments are parsed: one error line, before a
    stream, a log or a listener exists (so no ready line either)."""

    @pytest.mark.parametrize("argv", [
        pytest.param(["batch", "--stream", "{jsonl}", "--slots", "0"],
                     id="batch-stream-slots-0"),
        pytest.param(["batch", "--stream", "{jsonl}", "--workers", "0"],
                     id="batch-stream-workers-0"),
        pytest.param(["batch", "--stream", "{jsonl}", "--workers", "-1"],
                     id="batch-stream-workers-minus-1"),
        pytest.param(["batch", "--stream", "{jsonl}", "--wal", "{wal}",
                      "--snapshot-every", "0"],
                     id="batch-stream-wal-snapshot-every-0"),
        pytest.param(["batch", "--sizes", "8", "--workers", "0"],
                     id="batch-sizes-workers-0"),
        pytest.param(["serve", "--slots", "0"], id="serve-slots-0"),
        pytest.param(["serve", "--wal", "{wal}", "--snapshot-every", "0"],
                     id="serve-wal-snapshot-every-0"),
        pytest.param(["serve", "--workers", "0"], id="serve-workers-0"),
    ])
    def test_count_below_one_exits_while_parsing(self, tmp_path, argv):
        jsonl = tmp_path / "chains.jsonl"
        jsonl.write_text(json.dumps(square_ring(8)) + "\n")
        wal = tmp_path / "wal"
        argv = [a.format(jsonl=jsonl, wal=wal) for a in argv]
        src = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "src")
        res = subprocess.run([sys.executable, "-m", "repro"] + argv,
                             env={**os.environ, "PYTHONPATH": src},
                             capture_output=True, text=True, timeout=60)
        assert res.returncode == 2 and res.stdout == "", res.stdout
        lines = res.stderr.splitlines()
        assert len(lines) == 1 and f"error: {argv[-2]} must be >= 1" \
            in lines[0], res.stderr
        assert not wal.exists()


class TestMisc:
    def test_families_listing(self, capsys):
        assert main(["families"]) == 0
        out = capsys.readouterr().out
        assert "square" in out and "octagon" in out

    def test_experiment_subset(self, capsys):
        assert main(["experiment", "--ids", "EXP-P1", "--quick"]) == 0

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_no_wal_command(self, tmp_path, capsys):
        # the WAL is a resume log that only --resume reads; there is
        # no command that re-executes or inspects it
        with pytest.raises(SystemExit):
            main(["wal", "audit", str(tmp_path)])
        assert "invalid choice: 'wal'" in capsys.readouterr().err
