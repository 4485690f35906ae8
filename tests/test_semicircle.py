from __future__ import annotations

import hashlib
from fractions import Fraction
from math import factorial, isfinite, pi, sqrt
from operator import truediv

import numpy as np
import pytest
from scipy.integrate import quad

from reference import (
    all_pairings,
    count_noncrossing_pairings,
    exact_moment_ratio,
    is_noncrossing,
    power_sum,
    semicircle_moment,
)
from starspec import (
    SizeLimitError,
    convergence_report,
    multiplicity_table,
    semicircle_cdf,
)
from starspec.semicircle import _ratio_terms

# Frozen on first computation from exact tables (see test bodies).
KOLMOGOROV_N16 = 0.05846790438695826
KOLMOGOROV_N36 = 0.03423716471850291
# SHA-256 of the reprs of the distances at n = 1..50, one a line.
KOLMOGOROV_SHA256 = "bcb393a726e3d046abff80b28e35e21b6780194d0b2a1566e12c6431ce4e1118"


def kolmogorov_distance(n: int) -> float:
    return convergence_report(n, 1)[1]


def catalan_by_recurrence(p: int) -> int:
    vals = [1]
    for m in range(p):
        vals.append(sum(vals[i] * vals[m - i] for i in range(m + 1)))
    return vals[p]


def catalan_of_ratio(n: int, p: int) -> int:
    """Catalan(p), read from the denominator n! n^p Catalan(p) of the 2p-th moment ratio."""
    catalan, rest = divmod(_ratio_terms(n, multiplicity_table(n), p)[1], factorial(n) * n**p)
    assert rest == 0
    return catalan


def test_catalan_values():
    assert catalan_of_ratio(4, 0) == 1
    assert catalan_of_ratio(4, 3) == 5
    assert catalan_of_ratio(4, 10) == 16796
    for n in (1, 4, 50):
        for p in range(12):
            assert catalan_of_ratio(n, p) == catalan_by_recurrence(p)


def test_all_pairings_counts_are_double_factorials():
    expected = 1
    for p in range(6):
        assert sum(1 for _ in all_pairings(p)) == expected
        expected *= 2 * p + 1


def test_noncrossing_predicate():
    assert is_noncrossing([(1, 2), (3, 4)])
    assert is_noncrossing([(1, 4), (2, 3)])
    assert not is_noncrossing([(1, 3), (2, 4)])
    assert is_noncrossing([(2, 3), (1, 4)])  # order and orientation do not matter
    assert not is_noncrossing([(4, 2), (3, 1)])


def test_noncrossing_counts_match_catalan():
    mul = multiplicity_table(4)
    for p in range(9):
        noncrossing = count_noncrossing_pairings(p)
        assert _ratio_terms(4, mul, p)[1] == factorial(4) * 4**p * noncrossing
        assert noncrossing == factorial(2 * p) // (factorial(p + 1) * factorial(p))


def test_pairing_enumeration_cap():
    with pytest.raises(SizeLimitError):
        count_noncrossing_pairings(9)


def test_semicircle_moments_exact():
    assert semicircle_moment(1) == 0
    assert semicircle_moment(3) == 0
    assert semicircle_moment(0) == 1
    assert semicircle_moment(2) == Fraction(1, 4)
    assert semicircle_moment(4) == Fraction(1, 8)
    assert semicircle_moment(6) == Fraction(5, 64)
    with pytest.raises(ValueError):
        semicircle_moment(-2)


def test_semicircle_moments_match_quadrature():
    density = lambda x: (2.0 / pi) * sqrt(max(1.0 - x * x, 0.0))
    for k in range(7):
        integral, _ = quad(lambda x: x**k * density(x), -1, 1, epsabs=1e-13)
        assert abs(float(semicircle_moment(k)) - integral) < 1e-10


def semicircle_mass(a: float, b: float) -> float:
    """Semicircle mass of [a, b], as the CLI's histogram takes it."""
    return semicircle_cdf(b) - semicircle_cdf(a)


def test_semicircle_mass_closed_form():
    assert abs(semicircle_mass(-1, 1) - 1.0) < 1e-12
    assert abs(semicircle_mass(0, 1) - 0.5) < 1e-12
    assert abs(semicircle_mass(-1, 0) - 0.5) < 1e-12
    assert abs(semicircle_mass(-0.5, 0.5) - 0.6089977810442293) < 1e-12
    assert semicircle_mass(-5, -2) == 0.0


def test_semicircle_mass_matches_quadrature():
    density = lambda x: (2.0 / pi) * sqrt(max(1.0 - x * x, 0.0))
    for a, b in ((-0.5, 0.5), (-1, 0.25), (0.1, 0.9), (-2, 2)):
        integral, _ = quad(density, max(a, -1), min(b, 1), epsabs=1e-13)
        assert abs(semicircle_mass(a, b) - integral) < 1e-10


def test_semicircle_cdf_monotone():
    xs = [i / 20 for i in range(-25, 26)]
    values = [semicircle_cdf(x) for x in xs]
    assert all(a <= b for a, b in zip(values, values[1:]))
    assert values[0] == 0.0
    assert values[-1] == 1.0


def test_moment_ratio_p1_is_exact():
    for n in (2, 4, 9, 16, 25, 36):
        assert exact_moment_ratio(n, 1) == Fraction(n - 1, n)


def test_moment_ratio_p2_closed_form():
    # power_sum(4) = n!(n-1)(2n-3) gives ratio (n-1)(2n-3) / (2 n^2).
    for n in (4, 16, 36):
        expected = Fraction((n - 1) * (2 * n - 3), 2 * n * n)
        assert exact_moment_ratio(n, 2) == expected
    assert exact_moment_ratio(36, 2) == Fraction(2415, 2592)


def test_odd_rescaled_moments_vanish():
    for n in (3, 7, 16, 36):
        t = multiplicity_table(n)
        for k in (1, 3, 5, 7):
            assert power_sum(t, k) == 0


def test_report_ratios_are_the_exact_ratios_rounded_once():
    # Both routes share one formula: the report's floats are the correctly
    # rounded exact ratios, over the whole supported range of degrees.
    for n in range(1, 51):
        ratios, _ = convergence_report(n, 8)
        for p in range(1, 9):
            assert ratios[p] == float(exact_moment_ratio(n, p))


def test_moment_ratios_improve_from_16_to_36():
    for p in (1, 2, 3):
        assert abs(exact_moment_ratio(36, p) - 1) < abs(exact_moment_ratio(16, p) - 1)


def kappa(p: int) -> Fraction:
    """The 1/n coefficient of the 2p-th moment ratio (convergence_report's docstring)."""
    return Fraction(p * (p + 1) * (p - 7), 12)


def test_moment_ratios_follow_the_exact_1_over_n_law():
    # n^2 (ratio - 1 - kappa_p / n) stays bounded; its largest size here is
    # 18.3, at p = 6 and n = 50.
    for p in range(1, 7):
        for n in (20, 40, 50):
            ratio = exact_moment_ratio(n, p)
            assert abs(n * n * (ratio - 1 - kappa(p) / n)) <= 20, (p, n)


def test_moment_ratios_cross_1_after_p_7():
    for p in range(1, 7):
        assert kappa(p) < 0 and exact_moment_ratio(50, p) < 1
    assert kappa(7) == 0 and exact_moment_ratio(50, 7) < 1
    assert kappa(8) > 0 and exact_moment_ratio(50, 8) > 1


def test_kolmogorov_distance_frozen_values():
    d16, d36 = kolmogorov_distance(16), kolmogorov_distance(36)
    assert abs(d16 - KOLMOGOROV_N16) < 1e-12
    assert abs(d36 - KOLMOGOROV_N36) < 1e-12
    assert KOLMOGOROV_N36 < KOLMOGOROV_N16
    text = "".join(repr(kolmogorov_distance(n)) + "\n" for n in range(1, 51))
    assert hashlib.sha256(text.encode()).hexdigest() == KOLMOGOROV_SHA256


def test_kolmogorov_distance_is_a_supremum_over_a_grid():
    # The exact atom-based value dominates any gridded approximation.
    t = multiplicity_table(9)
    exact = kolmogorov_distance(9)

    def cdf(x):
        return sum(m for k, m in t.items() if k / (2 * sqrt(9)) <= x) / factorial(9)

    grid = [i / 400 for i in range(-600, 601)]
    approx = max(abs(cdf(x) - semicircle_cdf(x)) for x in grid)
    assert exact >= approx - 1e-12
    assert exact <= 1.0


def test_diagnostics_take_the_degree():
    # The arithmetic runs on the int the degree check returns: on a numpy
    # degree, n**p overflows int64 from n = 36, p = 13.
    assert kolmogorov_distance(np.int64(16)) == KOLMOGOROV_N16
    assert convergence_report(np.int64(36), 13) == convergence_report(36, 13)
    for bad in (True, 4.0, "4"):
        with pytest.raises(TypeError, match="^degree must be an integer"):
            convergence_report(bad, 1)
    with pytest.raises(SizeLimitError, match="^degree must be at most 50, got 51$"):
        convergence_report(51, 1)


@pytest.mark.parametrize("bad", [True, 2.0, "2"])
def test_p_max_must_be_an_integer(bad):
    with pytest.raises(TypeError, match="p_max"):
        convergence_report(4, bad)
    assert convergence_report(4, np.int64(2)) == convergence_report(4, 2)


def test_convergence_report_shape():
    ratios, distance = convergence_report(4, 2)
    assert ratios == {1: 0.75, 2: 0.46875} and type(distance) is float
    assert convergence_report(16, 2)[0][1] == 0.9375
    # p_max is checked before the degree.
    with pytest.raises(ValueError, match="^p_max"):
        convergence_report(51, 0)


def test_p_max_limit():
    ratios, _ = convergence_report(30, 300)
    assert list(ratios) == list(range(1, 301))
    with pytest.raises(SizeLimitError, match="^p_max must be at most 300, got 301$"):
        convergence_report(4, 301)
    # The limit keeps every float ratio finite: the largest ratios are at
    # n = 50, where they overflow from p = 342.
    mul = multiplicity_table(50)
    assert f"{truediv(*_ratio_terms(50, mul, 341)):.2e}" == "8.52e+307"
    with pytest.raises(OverflowError):
        truediv(*_ratio_terms(50, mul, 342))
    for n in range(1, 51):
        assert isfinite(truediv(*_ratio_terms(n, multiplicity_table(n), 300))), n
