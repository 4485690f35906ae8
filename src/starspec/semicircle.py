"""Semicircle-law diagnostics for the rescaled spectral measure.

Rescaling eigenvalue k of the degree-n graph to k / (2 sqrt(n)) and weighting
by multiplicity / n! gives a probability measure whose moments approach those
of the semicircle density (2/pi) * sqrt(1 - x^2) on [-1, 1]. This module
provides the exact limit objects (Catalan numbers, semicircle masses) and
finite-n comparison diagnostics.

One definition gives the numerator and denominator of each moment ratio.
:func:`moment_ratio` returns it as an exact Fraction and imports fractions on
its first call. :func:`convergence_report` divides the two integers instead:
integer true division is correctly rounded, so each of its floats is the one
nearest the exact ratio, equal to float(moment_ratio(table, p)).
"""

from collections import namedtuple
from collections.abc import Iterable
from math import asin, comb, factorial, pi, sqrt
from operator import truediv

from .spectrum import SpectrumTable, check_integer, multiplicity_table

#: Largest p_max of :func:`convergence_report`; its float ratios overflow from p = 342 at n = 50.
MAX_MOMENT_INDEX = 300


def catalan(p: int) -> int:
    """The p-th Catalan number (2p)! / ((p+1)! p!), exact."""
    p = check_integer(p, "Catalan index", 0)
    return comb(2 * p, p) // (p + 1)


def semicircle_cdf(x: float) -> float:
    """Distribution function of the semicircle density at x."""
    if x <= -1.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    return 0.5 + (x * sqrt(1.0 - x * x) + asin(x)) / pi


def semicircle_mass(a: float, b: float) -> float:
    """Semicircle mass of [a, b], by the closed-form antiderivative."""
    if a > b:
        raise ValueError(f"empty interval: a={a} > b={b}")
    return semicircle_cdf(b) - semicircle_cdf(a)


def kolmogorov_distance(table: SpectrumTable) -> float:
    """Sup-distance between the rescaled spectral CDF and the semicircle CDF.

    The empirical CDF is a step function and the semicircle CDF is continuous,
    so the supremum is attained at an atom, approaching from the left or the
    right; both one-sided values are checked at every atom. No gridding.
    """
    nfact = factorial(table.n)
    scale = 2.0 * sqrt(table.n)
    dist = 0.0
    below = 0
    for k, m in sorted(table.mul.items()):
        target = semicircle_cdf(k / scale)
        dist = max(dist, abs(below / nfact - target))
        below += m
        dist = max(dist, abs(below / nfact - target))
    return dist


def _ratio_terms(table: SpectrumTable, p: int) -> tuple[int, int]:
    """Numerator and denominator of the 2p-th moment ratio, for a checked p.

    The 2p-th moment of the rescaled measure is power_sum(2p) / (n! (2 sqrt n)^(2p));
    dividing by Catalan(p)/4^p leaves power_sum(2p) / (n! n^p Catalan(p)).
    """
    n = table.n
    return table.power_sum(2 * p), factorial(n) * n**p * catalan(p)


def moment_ratio(table: SpectrumTable, p: int) -> "Fraction":
    """Exact ratio of the 2p-th rescaled spectral moment to the semicircle one."""
    p = check_integer(p, "moment index", 1)
    # Imported here, so that only a call that returns a Fraction loads fractions.
    from fractions import Fraction

    return Fraction(*_ratio_terms(table, p))


SemicircleReport = namedtuple("SemicircleReport", ["n", "moment_ratios", "kolmogorov_distance"])
SemicircleReport.__doc__ = "Convergence diagnostics for one degree n."


def convergence_report(n_values: Iterable[int], p_max: int) -> list[SemicircleReport]:
    """Moment ratios for p = 1..p_max and the Kolmogorov distance, per degree."""
    p_max = check_integer(p_max, "p_max", 1, MAX_MOMENT_INDEX)
    reports = []
    for n in n_values:
        table = multiplicity_table(n)
        ratios = {p: truediv(*_ratio_terms(table, p)) for p in range(1, p_max + 1)}
        reports.append(SemicircleReport(n, ratios, kolmogorov_distance(table)))
    return reports
