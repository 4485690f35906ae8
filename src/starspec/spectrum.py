"""Exact eigenvalue multiplicities of the star-transposition Cayley graph.

The graph on the symmetric group of degree n with generators (1 n), ...,
(n-1 n) has an all-integer spectrum contained in [-(n-1), n-1]. The sum of
the generators is the Jucys-Murphy element X_n, which acts on the standard
tableaux of each shape lambda of n by the content of the box holding n. So
the multiplicity of k counts pairs (lambda, T), T a standard tableau of
shape lambda with its top label n at content k, each pair with weight
f(lambda), the number of standard tableaux of shape lambda.

Deleting the top label leaves a tableau of a shape mu of n-1 and marks the
addable cell a of mu that held it, so mul(k) = sum over mu of
f(mu) * f(mu + a), a the addable cell of content k. The addable contents
x_0 > ... > x_r and removable contents y_1 > ... > y_r of mu interlace, and
Kerov's transition measure (cf. the Greene-Nijenhuis-Wilf hook walk) gives

    f(mu + a_i) = n * f(mu) * prod_j (x_i - y_j) / prod_{l != i} (x_i - x_l),

Conjugating mu negates every content and keeps f, so the conjugate of mu
adds to mul(-k) exactly what mu adds to mul(k). The loop still enumerates
every shape of n-1 but keeps one shape of each conjugate pair and adds each
of its weights at both x and -x (a self-conjugate shape once, at x). Each
kept shape still costs one hook product, and about half the shapes are kept.
All arithmetic is exact (Python integers), every division is checked to be
exact, and the multiplicities are checked to sum to n!, which a shape
dropped or counted twice by the pairing would break.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from math import comb, factorial
from operator import index

from .errors import SizeLimitError
from .partitions import _conjugate, _dimension, enumerate_partitions

#: Largest n accepted by :func:`multiplicity_table`.
MAX_TABLE_SIZE = 50


@dataclass(frozen=True)
class SpectrumTable:
    """Eigenvalue -> multiplicity map for one degree n; absent key means zero."""

    n: int
    mul: dict[int, int] = field(repr=False)

    def multiplicity(self, k: int) -> int:
        return self.mul.get(k, 0)

    def __getitem__(self, k: int) -> int:
        return self.mul.get(k, 0)

    def eigenvalues(self) -> list[int]:
        """Sorted eigenvalues with nonzero multiplicity."""
        return sorted(self.mul)

    def support(self) -> set[int]:
        return set(self.mul)

    def total(self) -> int:
        return sum(self.mul.values())

    def power_sum(self, k: int) -> int:
        """Sum of multiplicity(e) * e**k over all eigenvalues, exact."""
        if k < 0:
            raise ValueError(f"power-sum exponent must be non-negative, got {k}")
        return sum(m * e**k for e, m in self.mul.items())

    def as_dict(self, include_zeros: bool = False) -> dict[int, int]:
        """Copy of the table, ascending by eigenvalue.

        With include_zeros, every integer in [-(n-1), n-1] appears as a key.
        """
        ks = range(-(self.n - 1), self.n) if include_zeros else self.eigenvalues()
        return {k: self.mul.get(k, 0) for k in ks}


def check_degree(n: object) -> int:
    """Return the degree n as an int.

    Raises TypeError unless n is an integer (anything :func:`operator.index`
    accepts, bool excepted) and ValueError unless it is positive.
    """
    if isinstance(n, bool):
        raise TypeError(f"degree must be an integer, got bool {n!r}")
    try:
        n = index(n)
    except TypeError:
        raise TypeError(
            f"degree must be an integer, got {type(n).__name__} {n!r}"
        ) from None
    if n < 1:
        raise ValueError(f"degree must be a positive integer, got {n}")
    return n


def multiplicity_table(n: int) -> SpectrumTable:
    """Exact spectrum table for degree n via the content formula over shapes of n-1.

    Tables are cached per degree, so a repeated degree (as an int or any other
    integer type) returns the same table object.
    """
    n = check_degree(n)
    if n > MAX_TABLE_SIZE:
        raise SizeLimitError(f"multiplicity table supports n <= {MAX_TABLE_SIZE}, got {n}")
    return _table(n)


# Keyed on the int that check_degree returns, so the cache holds at most
# MAX_TABLE_SIZE tables.
@lru_cache(maxsize=None)
def _table(n: int) -> SpectrumTable:
    mul: dict[int, int] = {}
    for mu in enumerate_partitions(n - 1):
        # Of mu and its conjugate keep the one with fewer rows than columns
        # or, at equal counts, the lexicographically larger one; a
        # self-conjugate mu is kept alone (paired is False).
        cols = mu[0] if mu else 0
        if len(mu) > cols:
            continue
        heights = _conjugate(mu)
        if len(mu) == cols and mu < heights:
            continue
        paired = mu != heights
        f = _dimension(mu, heights)
        # The cell after the end of row r (0-based) has content mu[r] - r. It
        # is addable when row r is shorter than row r - 1, and then the last
        # cell of row r - 1 (content mu[r - 1] - r) is removable. Row 0 always
        # has an addable cell, the last row a removable one, and a new row
        # below the last one the addable content -len(mu).
        addable = [mu[0]] if mu else []
        removable = []
        for r in range(1, len(mu)):
            if mu[r] < mu[r - 1]:
                addable.append(mu[r] - r)
                removable.append(mu[r - 1] - r)
        if mu:
            removable.append(mu[-1] - len(mu))
        addable.append(-len(mu))
        for x in addable:
            num = n
            for y in removable:
                num *= x - y
            den = 1
            for z in addable:
                if z != x:
                    den *= x - z
            grown, rem = divmod(num * f, den)
            if rem:
                raise ArithmeticError(
                    f"Kerov weight of content {x} on {mu!r} is not an integer"
                )
            weight = f * grown
            mul[x] = mul.get(x, 0) + weight
            if paired:
                mul[-x] = mul.get(-x, 0) + weight
    # A shape dropped or counted twice by the pairing changes the total.
    total = sum(mul.values())
    if total != factorial(n):
        raise ArithmeticError(f"multiplicities of n={n} sum to {total}, not {n}!")
    return SpectrumTable(n, mul)


def support(n: int) -> set[int]:
    """Eigenvalues with nonzero multiplicity.

    This is [-(n-1), n-1] minus {0} for n in {2, 3} and the full integer
    interval for every other n (including the single vertex at n = 1).
    """
    return multiplicity_table(n).support()


def hook_bound(n: int, l: int) -> int:
    """Lower bound C(n-2, l-1) * C(n-1, l) on the multiplicity of l (and of -l).

    Obtained by counting the single hook shape whose arm-end corner has
    content l: C(n-2, l-1) of its standard fillings put the top label there,
    and the shape's dimension is C(n-1, l). Equality holds at l = n - 1.
    """
    if not 1 <= l <= n - 1:
        raise ValueError(f"l must satisfy 1 <= l <= n-1, got l={l} for n={n}")
    return comb(n - 2, l - 1) * comb(n - 1, l)


def power_sum(table: SpectrumTable, k: int) -> int:
    """Module-level alias for :meth:`SpectrumTable.power_sum`."""
    return table.power_sum(k)
