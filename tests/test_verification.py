"""Exhaustive small-case enumeration and verification."""

import pytest
from hypothesis import given, strategies as st

from repro.core.chain import ClosedChain
from repro.verification import (
    canonical_signature,
    closed_edge_sequences,
    count_closed_chains,
    enumerate_closed_chains,
    verify_all,
)


class TestEnumeration:
    def test_no_odd_or_tiny_lengths(self):
        assert list(closed_edge_sequences(3)) == []
        assert list(closed_edge_sequences(5)) == []
        assert list(closed_edge_sequences(2)) == []

    def test_raw_count_matches_combinatorics(self):
        # closed walks of length 2k on Z^2 number C(2k,k)^2; fixing the
        # first step east divides by 4
        raw = sum(1 for _ in closed_edge_sequences(6))
        assert raw == (20 * 20) // 4            # C(6,3)^2 / 4 = 100

    def test_walks_close(self):
        for codes in closed_edge_sequences(6):
            x = y = 0
            for c in codes:
                dx, dy = ((1, 0), (0, 1), (-1, 0), (0, -1))[c]
                x += dx
                y += dy
            assert (x, y) == (0, 0)

    def test_canonical_class_counts(self):
        assert count_closed_chains(4) == 4
        assert count_closed_chains(6) == 11
        assert count_closed_chains(8) == 71

    def test_enumerated_chains_are_valid(self):
        for pts in enumerate_closed_chains(8):
            chain = ClosedChain(pts, require_disjoint_neighbors=True)
            assert chain.n == 8

    def test_dedup_reduces(self):
        raw = sum(1 for _ in enumerate_closed_chains(8, dedup=False))
        canonical = count_closed_chains(8)
        assert canonical < raw


class TestCanonicalSignature:
    def test_invariant_under_rotation_of_sequence(self):
        codes = (0, 0, 1, 2, 2, 3)
        for shift in range(6):
            rotated = codes[shift:] + codes[:shift]
            assert canonical_signature(rotated) == canonical_signature(codes)

    def test_invariant_under_reversal(self):
        codes = (0, 0, 1, 2, 2, 3)
        rev = tuple((c + 2) % 4 for c in reversed(codes))
        assert canonical_signature(rev) == canonical_signature(codes)

    def test_invariant_under_dihedral_maps(self):
        codes = (0, 1, 0, 1, 2, 3, 2, 3)
        image = tuple((c + 1) % 4 for c in codes)     # rotate 90°
        assert canonical_signature(image) == canonical_signature(codes)


class TestVerification:
    @pytest.mark.parametrize("n", [4, 6, 8])
    def test_exhaustive_small(self, n):
        report = verify_all(n)
        assert report.complete, f"failures: {report.failures[:3]}"

    def test_n10_exhaustive(self):
        report = verify_all(10, engine="reference")
        assert report.complete, f"failures: {report.failures[:3]}"
        assert report.total == 478

    def test_limit_sampling(self):
        report = verify_all(12, limit=50, engine="reference")
        assert report.total == 50
        assert report.gathered == 50

    def test_oscillator_regression(self):
        """The degenerate doubled-flat chains found by the sweep.

        These oscillated forever before the short-pattern priority rule
        (DESIGN.md §2.2); pin them as regressions.
        """
        from repro.core.simulator import gather
        oscillators = [
            [(0, 0), (1, 0), (2, 0), (2, 1), (2, 0), (1, 0), (0, 0), (0, 1)],
            [(0, 0), (1, 0), (2, 0), (3, 0), (3, 1), (2, 1), (2, 0), (1, 0),
             (0, 0), (0, 1)],
            [(0, 0), (1, 0), (2, 0), (3, 0), (3, 1), (3, 0), (2, 0), (1, 0),
             (0, 0), (0, 1)],
        ]
        for pts in oscillators:
            result = gather(list(pts), check_invariants=True)
            assert result.gathered, f"oscillator regressed: {pts}"
