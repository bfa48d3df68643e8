"""Analysis tooling: fits, summaries, good pairs, progress accounting."""

import math
import os
import subprocess
import sys

import pytest

from repro.core.chain import ClosedChain
from repro.core.simulator import Simulator, gather
from repro.chains import (
    rectangle_ring, square_ring, stairway_octagon, needle,
)
from repro.analysis import (
    classify_pairs,
    find_start_points,
    fit_rounds,
    format_table,
    lemma1_windows,
    merge_free_intervals,
    merges_per_wave,
    summarize,
)
from repro.analysis.good_pairs import good_pair_exists


class TestLinearFit:
    def test_perfect_line(self):
        fit = fit_rounds([10, 20, 30], [25, 45, 65])
        assert fit.slope == pytest.approx(2.0)
        assert fit.intercept == pytest.approx(5.0)
        assert fit.r_squared == pytest.approx(1.0)
        assert fit.predict(40) == pytest.approx(85.0)
        assert "rounds" in fit.describe()

    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            fit_rounds([1], [2])

    def test_noisy_fit(self):
        # reference values from scipy.stats.linregress on the same data
        fit = fit_rounds([16, 32, 64, 128, 256, 512],
                         [30, 61, 118, 251, 490, 1003])
        assert fit.slope == pytest.approx(1.9599769012082444, rel=1e-12)
        assert fit.intercept == pytest.approx(-3.776119402985046, rel=1e-12)
        assert fit.r_squared == pytest.approx(0.9998366747131, rel=1e-12)
        assert fit.stderr == pytest.approx(0.012525155918808435, rel=1e-12)

    def test_identical_ns_rejected(self):
        with pytest.raises(ValueError):
            fit_rounds([64, 64, 64], [120, 130, 125])

    def test_constant_rounds(self):
        fit = fit_rounds([16, 32, 64], [40, 40, 40])
        assert fit.slope == 0.0 and fit.intercept == 40.0
        assert math.isnan(fit.r_squared) and math.isnan(fit.stderr)

    def test_cli_imports_without_scipy(self):
        # scipy is not a declared dependency: the CLI (and through it
        # the analysis package) must import without loading it
        src = os.path.dirname(os.path.dirname(os.path.abspath(
            sys.modules["repro"].__file__)))
        code = "import sys, repro.cli; sys.exit('scipy' in sys.modules)"
        env = dict(os.environ, PYTHONPATH=src)
        assert subprocess.run([sys.executable, "-c", code], env=env,
                              timeout=60).returncode == 0

    def test_real_needle_scaling_is_linear(self):
        ns, rounds = [], []
        for k in (20, 40, 80, 160):
            res = gather(needle(k))
            ns.append(res.initial_n)
            rounds.append(res.rounds)
        fit = fit_rounds(ns, rounds)
        assert fit.r_squared > 0.99
        assert fit.slope < 27                  # the theorem's constant


class TestSummaries:
    def test_summarize_fields(self):
        result = gather(square_ring(8), record_trace=True)
        s = summarize(result)
        assert s["n"] == 28 and s["gathered"] == 1
        assert s["rounds"] == result.rounds
        assert s["total_hops"] > 0

    def test_format_table(self):
        rows = [{"a": 1, "b": 2.5}, {"a": 10, "b": 0.25}]
        out = format_table(rows, title="T")
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "b" in lines[1]
        assert len(lines) == 4 + 0 + 0 or len(lines) == 5

    def test_format_table_empty(self):
        assert "(no rows)" in format_table([])


class TestGoodPairs:
    def test_square_has_good_pairs(self):
        chain = ClosedChain(square_ring(16))
        pairs = classify_pairs(chain)
        assert pairs
        assert all(p.good for p in pairs)      # ring sides all point inward

    def test_start_points_match_corners(self):
        chain = ClosedChain(square_ring(16))
        pts = find_start_points(chain)
        assert len(pts) == 8                   # 4 corners x 2 directions

    def test_octagon_good_pair_exists(self):
        chain = ClosedChain(stairway_octagon(16, 3))
        assert good_pair_exists(chain)

    def test_pair_lengths_positive(self):
        chain = ClosedChain(rectangle_ring(30, 13))
        for p in classify_pairs(chain):
            assert 2 <= p.length <= chain.n


class TestProgress:
    def test_merge_free_intervals(self):
        sim = Simulator(square_ring(20), record_trace=True)
        res = sim.run()
        gaps = merge_free_intervals(res.reports)
        assert all(g > 0 for g in gaps)
        assert sum(gaps) <= res.rounds

    def test_lemma1_windows(self):
        sim = Simulator(square_ring(20), record_trace=True)
        res = sim.run()
        w = lemma1_windows(res.reports, 13)
        assert w["windows_with_neither"] == 0
        assert w["windows_with_merge"] >= 1

    def test_merges_per_wave_sums_to_total(self):
        sim = Simulator(square_ring(20), record_trace=True)
        res = sim.run()
        assert sum(merges_per_wave(res.reports, 13)) == res.total_merges
