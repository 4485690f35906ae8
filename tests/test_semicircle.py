from __future__ import annotations

import copy
import pickle
from fractions import Fraction
from math import factorial, pi, sqrt

import numpy as np
import pytest
from scipy.integrate import quad

from reference import (
    all_pairings,
    count_noncrossing_pairings,
    is_noncrossing,
    semicircle_moment,
)
from starspec import (
    SemicircleReport,
    SizeLimitError,
    catalan,
    convergence_report,
    kolmogorov_distance,
    moment_ratio,
    multiplicity_table,
    semicircle_cdf,
    semicircle_mass,
)

# Frozen on first computation from exact tables (see test bodies).
KOLMOGOROV_N16 = 0.05846790438695826
KOLMOGOROV_N36 = 0.03423716471850291


def catalan_by_recurrence(p: int) -> int:
    vals = [1]
    for m in range(p):
        vals.append(sum(vals[i] * vals[m - i] for i in range(m + 1)))
    return vals[p]


def test_catalan_values():
    assert catalan(0) == 1
    assert catalan(3) == 5
    assert catalan(10) == 16796
    for p in range(12):
        assert catalan(p) == catalan_by_recurrence(p)
    with pytest.raises(ValueError, match="Catalan index"):
        catalan(-1)


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
    for p in range(7):
        assert count_noncrossing_pairings(p) == catalan(p)


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


def test_semicircle_mass_closed_form():
    assert abs(semicircle_mass(-1, 1) - 1.0) < 1e-12
    assert abs(semicircle_mass(0, 1) - 0.5) < 1e-12
    assert abs(semicircle_mass(-1, 0) - 0.5) < 1e-12
    assert abs(semicircle_mass(-0.5, 0.5) - 0.6089977810442293) < 1e-12
    assert semicircle_mass(-5, -2) == 0.0
    with pytest.raises(ValueError):
        semicircle_mass(1, 0)


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
        assert moment_ratio(multiplicity_table(n), 1) == Fraction(n - 1, n)


def test_moment_ratio_p2_closed_form():
    # power_sum(4) = n!(n-1)(2n-3) gives ratio (n-1)(2n-3) / (2 n^2).
    for n in (4, 16, 36):
        expected = Fraction((n - 1) * (2 * n - 3), 2 * n * n)
        assert moment_ratio(multiplicity_table(n), 2) == expected
    assert moment_ratio(multiplicity_table(36), 2) == Fraction(2415, 2592)


def test_odd_rescaled_moments_vanish():
    for n in (3, 7, 16, 36):
        t = multiplicity_table(n)
        for k in (1, 3, 5, 7):
            assert t.power_sum(k) == 0


def test_report_ratios_are_the_exact_ratios_rounded_once():
    # Both routes share one formula: the report's floats are the correctly
    # rounded exact ratios, over the whole supported range of degrees.
    for report in convergence_report(range(1, 51), 8):
        table = multiplicity_table(report.n)
        for p in range(1, 9):
            assert report.moment_ratios[p] == float(moment_ratio(table, p))


def test_moment_ratios_improve_from_16_to_36():
    t16 = multiplicity_table(16)
    t36 = multiplicity_table(36)
    for p in (1, 2, 3):
        assert abs(moment_ratio(t36, p) - 1) < abs(moment_ratio(t16, p) - 1)


def test_kolmogorov_distance_frozen_values():
    assert abs(kolmogorov_distance(multiplicity_table(16)) - KOLMOGOROV_N16) < 1e-12
    assert abs(kolmogorov_distance(multiplicity_table(36)) - KOLMOGOROV_N36) < 1e-12
    assert KOLMOGOROV_N36 < KOLMOGOROV_N16


def test_kolmogorov_distance_is_a_supremum_over_a_grid():
    # The exact atom-based value dominates any gridded approximation.
    t = multiplicity_table(9)
    exact = kolmogorov_distance(t)

    def cdf(x):
        return sum(m for k, m in t.mul.items() if k / (2 * sqrt(9)) <= x) / factorial(9)

    grid = [i / 400 for i in range(-600, 601)]
    approx = max(abs(cdf(x) - semicircle_cdf(x)) for x in grid)
    assert exact >= approx - 1e-12
    assert exact <= 1.0


def test_report_behaves_as_a_frozen_record():
    (r,) = convergence_report([4], 2)
    assert repr(r) == (
        "SemicircleReport(n=4, moment_ratios={1: 0.75, 2: 0.46875}, "
        "kolmogorov_distance=0.15383444281121872)"
    )
    assert r == SemicircleReport(4, {1: 0.75, 2: 0.46875}, r.kolmogorov_distance)
    assert r != SemicircleReport(4, {1: 0.75}, r.kolmogorov_distance)
    assert r != convergence_report([5], 2)[0]
    for name in ("n", "moment_ratios", "kolmogorov_distance", "other"):
        with pytest.raises(AttributeError):
            setattr(r, name, 0)
    with pytest.raises(AttributeError):
        del r.n
    with pytest.raises(TypeError):
        hash(r)
    for clone in (pickle.loads(pickle.dumps(r)), copy.deepcopy(r)):
        assert clone == r and clone is not r
        assert repr(clone) == repr(r)


def test_moment_index_must_be_an_integer():
    t = multiplicity_table(4)
    for bad in (True, 1.0, "1"):
        with pytest.raises(TypeError, match="moment index"):
            moment_ratio(t, bad)
    with pytest.raises(ValueError, match="moment index"):
        moment_ratio(t, 0)
    assert moment_ratio(t, np.int64(1)) == moment_ratio(t, 1) == Fraction(3, 4)


@pytest.mark.parametrize("bad", [True, 2.0, "2"])
def test_catalan_index_and_p_max_must_be_integers(bad):
    with pytest.raises(TypeError, match="Catalan index"):
        catalan(bad)
    with pytest.raises(TypeError, match="p_max"):
        convergence_report([4], bad)
    assert catalan(np.int64(2)) == 2
    assert convergence_report([4], np.int64(2)) == convergence_report([4], 2)


def test_convergence_report_shape():
    reports = convergence_report([4, 16], 2)
    assert [r.n for r in reports] == [4, 16]
    assert reports[1].moment_ratios[1] == 0.9375
    assert set(reports[0].moment_ratios) == {1, 2}
    with pytest.raises(ValueError, match="p_max"):
        convergence_report([4], 0)


def test_p_max_limit():
    (report,) = convergence_report([30], 300)
    assert list(report.moment_ratios) == list(range(1, 301))
    with pytest.raises(SizeLimitError, match="^p_max must be at most 300, got 301$"):
        convergence_report([4], 301)
