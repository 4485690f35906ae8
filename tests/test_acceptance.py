"""Acceptance suite: one test per release criterion, exact tolerances.

Every check here is either an integer identity (zero tolerance), an exact
rational identity, or a float comparison against a value frozen on first
computation (tolerance 1e-12). Run with `pytest tests/test_acceptance.py -v -s`
to see one line per criterion; `pytest -m slow` adds the oracle tier at n=31..50.
"""

from __future__ import annotations

import time
from fractions import Fraction
from math import factorial
from pathlib import Path

import pytest

import starspec.cli as cli
from reference import (
    count_noncrossing_pairings,
    count_top_label_at_content,
    count_top_label_at_content_brute,
    dimension,
    enumerate_partitions,
    exact_moment_ratio,
    hook_bound,
    power_sum,
)
from starspec import (
    closed_walk_counts,
    convergence_report,
    multiplicity_table,
    oracle_multiplicity_table,
)
from starspec.semicircle import _ratio_terms
from starspec.spectrum import _table as _cached_table

GOLDENS = Path(__file__).parent / "goldens"

# Frozen on first computation from exact tables.
KOLMOGOROV_N16 = 0.05846790438695826
KOLMOGOROV_N36 = 0.03423716471850291
MOMENT_DEV_P3_N36 = Fraction(4999, 46656)


def test_criterion_1_oracle_equivalence():
    start = time.perf_counter()
    for n in range(2, 31):
        assert oracle_multiplicity_table(n) == multiplicity_table(n)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(f"ACCEPTANCE 1 PASS - walk oracle equals content formula for n=2..30 ({elapsed:.1f}s)")


@pytest.mark.slow
def test_criterion_1_oracle_equivalence_slow_tier():
    # With the default tier's n=2..30, this checks every degree in 2..50.
    start = time.perf_counter()
    for n in range(31, 51):
        assert oracle_multiplicity_table(n) == multiplicity_table(n)
    elapsed = time.perf_counter() - start
    print(
        "ACCEPTANCE 1 (slow tier) PASS - walk oracle equals content formula "
        f"for n=31..50 ({elapsed:.1f}s)"
    )


def test_criterion_2_power_sum_identities():
    for n in range(2, 13):
        t = multiplicity_table(n)
        nfact = factorial(n)
        assert power_sum(t, 0) == nfact
        assert power_sum(t, 1) == 0
        assert power_sum(t, 2) == (n - 1) * nfact
        assert power_sum(t, 4) == nfact * (n - 1) * (2 * n - 3)
    for n in range(2, 8):
        counts = closed_walk_counts(n, 4)
        t = multiplicity_table(n)
        assert factorial(n) * counts[2] == power_sum(t, 2)
        assert factorial(n) * counts[4] == power_sum(t, 4)
    print("ACCEPTANCE 2 PASS - exact power sums for n=2..12, cross-checked on walks for n<=7")


def test_criterion_3_support_characterization():
    for n in range(2, 13):
        full = set(range(-(n - 1), n))
        t = multiplicity_table(n)
        if n in (2, 3):
            assert set(t) == full - {0}
        else:
            assert set(t) == full
        assert t.get(n - 1, 0) == 1
        assert t.get(-(n - 1), 0) == 1
    print("ACCEPTANCE 3 PASS - spectral support and extreme multiplicities for n=2..12")


def test_criterion_4_hook_bound():
    for n in range(2, 13):
        t = multiplicity_table(n)
        for l in range(1, n):
            b = hook_bound(n, l)
            assert t.get(l, 0) >= b
            assert t.get(-l, 0) >= b
        assert t.get(n - 1, 0) == hook_bound(n, n - 1)
        assert t.get(-(n - 1), 0) == hook_bound(n, n - 1)
    print("ACCEPTANCE 4 PASS - hook-shape lower bound for n=2..12, equality at l=n-1")


def test_criterion_5_tableau_formula_equivalence():
    for n in range(1, 9):
        for shape in enumerate_partitions(n):
            for k in range(-(n - 1), n):
                assert count_top_label_at_content(shape, k) == (
                    count_top_label_at_content_brute(shape, k)
                )
    for n in range(11):
        assert sum(dimension(s) ** 2 for s in enumerate_partitions(n)) == factorial(n)
    print("ACCEPTANCE 5 PASS - corner formula equals enumeration (n<=8); sum f^2 = n! (n<=10)")


def test_criterion_6_noncrossing_catalan():
    # The 2p-th moment ratio divides by n! n^p Catalan(p).
    mul = multiplicity_table(4)
    for p in range(9):
        noncrossing = count_noncrossing_pairings(p)
        assert _ratio_terms(4, mul, p)[1] == factorial(4) * 4**p * noncrossing
        assert noncrossing == factorial(2 * p) // (factorial(p + 1) * factorial(p))
    print("ACCEPTANCE 6 PASS - non-crossing pairing counts equal Catalan numbers for p<=8")


def test_criterion_7_semicircle_moments():
    for n in range(1, 37):
        t = multiplicity_table(n)
        for k in range(1, 20, 2):
            assert power_sum(t, k) == 0
    for n in (16, 36):
        assert exact_moment_ratio(n, 1) == Fraction(n - 1, n)
    for p in (1, 2, 3):
        assert abs(exact_moment_ratio(36, p) - 1) < abs(exact_moment_ratio(16, p) - 1)
    assert abs(exact_moment_ratio(36, 3) - 1) == MOMENT_DEV_P3_N36
    print("ACCEPTANCE 7 PASS - odd moments vanish (n<=36); even ratios improve 16->36; p=3 deviation frozen")


def test_criterion_8_distributional_convergence():
    _cached_table.cache_clear()
    start = time.perf_counter()
    multiplicity_table(36)
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    d36, d16 = (convergence_report(n, 1)[1] for n in (36, 16))
    assert abs(d16 - KOLMOGOROV_N16) < 1e-12
    assert abs(d36 - KOLMOGOROV_N36) < 1e-12
    assert d36 < d16
    print(
        f"ACCEPTANCE 8 PASS - Kolmogorov distance {d36:.6f} (n=36) < {d16:.6f} (n=16); "
        f"n=36 table in {elapsed:.1f}s"
    )


def test_criterion_9_cli_golden_files(capsys):
    cases = [
        (["spectrum", "--n", "4"], "spectrum_n4.txt"),
        (["bound", "--n", "4"], "bound_n4.txt"),
        (["moments", "--n", "3", "--k-max", "4"], "moments_n3_kmax4.txt"),
    ]
    for argv, fixture in cases:
        assert cli.main(argv) == 0
        out = capsys.readouterr().out
        assert out == (GOLDENS / fixture).read_text(), f"golden mismatch for {argv}"
    assert cli.main(["verify", "--n", "5"]) == 0
    capsys.readouterr()
    print("ACCEPTANCE 9 PASS - CLI outputs byte-identical to fixtures; verify --n 5 exits 0")
