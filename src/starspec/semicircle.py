"""Semicircle-law diagnostics for the rescaled spectral measure.

Rescaling eigenvalue k of the degree-n graph to k / (2 sqrt(n)) and weighting
by multiplicity / n! gives a probability measure whose moments approach those
of the semicircle density (2/pi) * sqrt(1 - x^2) on [-1, 1]. This module
provides the semicircle CDF and the finite-n comparison diagnostics, whose
moment ratios divide by Catalan(p)/4^p.

Each float of :func:`convergence_report` is the correctly rounded quotient of
the two integers that :func:`_ratio_terms` gives for its moment ratio.
"""

from math import asin, comb, factorial, pi, sqrt
from operator import truediv

from .spectrum import MAX_TABLE_SIZE, check_integer, multiplicity_table

#: Largest p_max of :func:`convergence_report`; its float ratios overflow from p = 342 at n = 50.
MAX_MOMENT_INDEX = 300


def semicircle_cdf(x: float) -> float:
    """Distribution function of the semicircle density at x."""
    if x <= -1.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    return 0.5 + (x * sqrt(1.0 - x * x) + asin(x)) / pi


def _ratio_terms(n: int, mul: dict[int, int], p: int) -> tuple[int, int]:
    """Numerator and denominator of the 2p-th moment ratio of degree n's table mul.

    n and p are checked ints. The 2p-th moment of the rescaled measure is
    S / (n! (2 sqrt n)^(2p)), S the sum of m * e**(2p) over the table; dividing
    by Catalan(p)/4^p leaves S / (n! n^p Catalan(p)).
    """
    catalan = comb(2 * p, p) // (p + 1)
    return sum(m * e ** (2 * p) for e, m in mul.items()), factorial(n) * n**p * catalan


def convergence_report(n: int, p_max: int) -> tuple[dict[int, float], float]:
    """Moment ratios for p = 1..p_max and the Kolmogorov distance of degree n.

    The Kolmogorov distance is the sup-distance between the rescaled spectral
    CDF and the semicircle CDF. The former is a step function and the latter
    continuous, so the supremum is attained at an atom, approaching from the
    left or the right; both one-sided values are checked at every atom. No
    gridding.

    The ratios follow an exact 1/n law. The closed-walk count W_2p(n) is
    Catalan(p) * ((n-1)_p + C(p+1, 3)/2 * (n-1)_(p-1)) plus falling factorials
    of lower degree, so the ratio W_2p(n) / (n^p Catalan(p)) is
    1 + kappa_p/n + O(1/n^2), with kappa_p = p(p+1)(p-7)/12. Hence for
    p <= 6 the ratio approaches 1 from below, at p = 7 the 1/n term
    vanishes, and for p >= 8 the ratio ends above 1 (1.067 at p = 8, n = 50).
    """
    p_max = check_integer(p_max, "p_max", 1, MAX_MOMENT_INDEX)
    n = check_integer(n, "degree", 1, MAX_TABLE_SIZE)
    mul = multiplicity_table(n)
    ratios = {p: truediv(*_ratio_terms(n, mul, p)) for p in range(1, p_max + 1)}
    nfact = factorial(n)
    scale = 2.0 * sqrt(n)
    dist = 0.0
    below = 0
    for k, m in mul.items():
        target = semicircle_cdf(k / scale)
        dist = max(dist, abs(below / nfact - target))
        below += m
        dist = max(dist, abs(below / nfact - target))
    return ratios, dist
