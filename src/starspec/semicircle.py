"""Semicircle-law diagnostics for the rescaled spectral measure.

Rescaling eigenvalue k of the degree-n graph to k / (2 sqrt(n)) and weighting
by multiplicity / n! gives a probability measure whose moments approach those
of the semicircle density (2/pi) * sqrt(1 - x^2) on [-1, 1]. This module
provides the exact limit objects (Catalan numbers, non-crossing pairings,
semicircle moments and masses) and finite-n comparison diagnostics.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import asin, comb, factorial, pi, sqrt
from typing import Iterable, Iterator

from .errors import SizeLimitError
from .spectrum import SpectrumTable, multiplicity_table

#: Default cap on p for full pairing enumeration ((2p-1)!! candidates).
DEFAULT_MAX_PAIRING_ORDER = 8

Pairing = tuple[tuple[int, int], ...]


def catalan(p: int) -> int:
    """The p-th Catalan number (2p)! / ((p+1)! p!), exact."""
    if p < 0:
        raise ValueError(f"Catalan index must be non-negative, got {p}")
    return comb(2 * p, p) // (p + 1)


def all_pairings(p: int) -> Iterator[Pairing]:
    """Yield every perfect pairing of {1, ..., 2p}, each pair as (low, high).

    The smallest unpaired element is always paired next, so pairings come out
    ordered by first elements; there are (2p-1)!! of them.
    """
    if p < 0:
        raise ValueError(f"pairing order must be non-negative, got {p}")
    return _pairings(tuple(range(1, 2 * p + 1)), (), noncrossing=False)


def _pairings(items: tuple[int, ...], placed: Pairing, noncrossing: bool) -> Iterator[Pairing]:
    """Yield ``placed`` completed by each pairing of ``items``; with
    ``noncrossing``, drop a partial pairing as soon as its newest pair
    crosses an earlier one."""
    if not items:
        yield placed
        return
    first = items[0]
    rest = items[1:]
    for i, partner in enumerate(rest):
        pair = (first, partner)
        if noncrossing and any(_crossing(q, pair) for q in placed):
            continue
        yield from _pairings(rest[:i] + rest[i + 1 :], placed + (pair,), noncrossing)


def _crossing(first: tuple[int, int], second: tuple[int, int]) -> bool:
    (a, b), (c, d) = first, second
    return a < c < b < d or c < a < d < b


def is_noncrossing(pairing: Iterable[tuple[int, int]]) -> bool:
    """True if no two pairs {a,b}, {c,d} interleave as a < c < b < d."""
    pairs = [(x, y) if x < y else (y, x) for x, y in pairing]
    return not any(_crossing(p, q) for p, q in combinations(pairs, 2))


def count_noncrossing_pairings(
    p: int, *, max_order: int = DEFAULT_MAX_PAIRING_ORDER
) -> int:
    """Count non-crossing pairings of {1, ..., 2p} by exhaustive enumeration.

    Deliberately brute force, as an independent check that the count is
    Catalan(p): pairs are placed in the order of :func:`all_pairings`, and a
    partial pairing is dropped as soon as its newest pair crosses an earlier
    one, since no completion of it is non-crossing. Every non-crossing
    pairing is still built and counted one by one.
    """
    if p < 0:
        raise ValueError(f"pairing order must be non-negative, got {p}")
    if p > max_order:
        raise SizeLimitError(
            f"pairing enumeration capped at p <= {max_order}, got {p}; "
            "pass max_order to override"
        )
    return sum(1 for _ in _pairings(tuple(range(1, 2 * p + 1)), (), noncrossing=True))


def semicircle_moment(k: int) -> Fraction:
    """k-th moment of the semicircle density on [-1, 1], exact.

    Zero for odd k; Catalan(p) / 4**p for k = 2p.
    """
    if k < 0:
        raise ValueError(f"moment order must be non-negative, got {k}")
    if k % 2:
        return Fraction(0)
    p = k // 2
    return Fraction(catalan(p), 4**p)


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


def empirical_mass(table: SpectrumTable, a: float, b: float) -> float:
    """Mass the rescaled spectral measure of ``table`` puts on [a, b].

    Atoms sit at k / (2 sqrt(n)) with weight multiplicity(k) / n!. The integer
    numerator is accumulated exactly and divided once at the end.
    """
    if a > b:
        raise ValueError(f"empty interval: a={a} > b={b}")
    scale = 2.0 * sqrt(table.n)
    hits = sum(m for k, m in table.mul.items() if a <= k / scale <= b)
    return hits / factorial(table.n)


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
    for k in table.eigenvalues():
        target = semicircle_cdf(k / scale)
        dist = max(dist, abs(below / nfact - target))
        below += table.mul[k]
        dist = max(dist, abs(below / nfact - target))
    return dist


def moment_ratio(table: SpectrumTable, p: int) -> Fraction:
    """Exact ratio of the 2p-th rescaled spectral moment to the semicircle one.

    The 2p-th moment of the rescaled measure is power_sum(2p) / (n! (2 sqrt n)^(2p));
    dividing by Catalan(p)/4^p leaves power_sum(2p) / (n! n^p Catalan(p)).
    """
    if p < 1:
        raise ValueError(f"moment index must be positive, got {p}")
    n = table.n
    return Fraction(table.power_sum(2 * p), factorial(n) * n**p * catalan(p))


@dataclass(frozen=True)
class SemicircleReport:
    """Convergence diagnostics for one degree n."""

    n: int
    moment_ratios: dict[int, float]
    kolmogorov_distance: float


def convergence_report(n_values: Iterable[int], p_max: int) -> list[SemicircleReport]:
    """Moment ratios for p = 1..p_max and the Kolmogorov distance, per degree."""
    if p_max < 1:
        raise ValueError(f"p_max must be positive, got {p_max}")
    reports = []
    for n in n_values:
        table = multiplicity_table(n)
        ratios = {p: float(moment_ratio(table, p)) for p in range(1, p_max + 1)}
        reports.append(SemicircleReport(n, ratios, kolmogorov_distance(table)))
    return reports
