"""Independent ground truth for the spectrum: closed-walk counts on the group.

The Cayley graph is never materialized as a matrix. A walk-count vector over
all n! permutations is advanced by right multiplication with the n-1 star
transpositions, which on one-line notation is just a swap of the last slot
with slot i. The exact multiplicity table is then recovered by solving the
moment equations on the integer nodes -(n-1)..(n-1) over the rationals.

Everything here is exact; numpy is used only to gather Python integers
(object dtype), never to do float arithmetic.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations
from math import factorial
from typing import NamedTuple, Sequence

import numpy as np

from .errors import SizeLimitError
from .spectrum import SpectrumTable, check_degree

#: Largest n for the walk oracle; memory and time grow like n! (9! = 362880).
MAX_ORACLE_SIZE = 9


class WalkCounts(NamedTuple):
    """counts[k] = number of length-k generator words multiplying to the identity."""

    n: int
    counts: tuple[int, ...]


def rank(perm: Sequence[int]) -> int:
    """Lexicographic index of a permutation of 1..n, in [0, n!).

    This is the Lehmer code read as a factorial-base number: the identity has
    rank 0, the reversal has rank n! - 1.
    """
    p = tuple(perm)
    n = len(p)
    if sorted(p) != list(range(1, n + 1)):
        raise ValueError(f"not a permutation of 1..{n}: {perm!r}")
    code = 0
    for i in range(n):
        smaller = sum(1 for j in range(i + 1, n) if p[j] < p[i])
        code = code * (n - i) + smaller
    return code


def unrank(n: int, code: int) -> tuple[int, ...]:
    """Inverse of :func:`rank` for permutations of 1..n."""
    if n < 0:
        raise ValueError(f"degree must be non-negative, got {n}")
    if not 0 <= code < factorial(n):
        raise ValueError(f"rank {code} out of range [0, {n}!)")
    remaining = list(range(1, n + 1))
    out = []
    for i in range(n, 0, -1):
        digit, code = divmod(code, factorial(i - 1))
        out.append(remaining.pop(digit))
    return tuple(out)


def _check_oracle_size(n: object) -> int:
    n = check_degree(n)
    if n > MAX_ORACLE_SIZE:
        raise SizeLimitError(f"walk oracle supports n <= {MAX_ORACLE_SIZE}, got {n}")
    return n


def closed_walk_counts(n: int, k_max: int) -> WalkCounts:
    """Exact closed-walk counts at the identity for lengths 0..k_max.

    Dynamic programming over all n! group elements: the vector starts as the
    indicator of the identity and each step sums the n-1 neighbours obtained
    by right multiplication with a star transposition. Entries are Python
    integers throughout, so counts never overflow.
    """
    n = _check_oracle_size(n)
    if k_max < 0:
        raise ValueError(f"k_max must be non-negative, got {k_max}")
    perms = list(permutations(range(1, n + 1)))
    index = {p: i for i, p in enumerate(perms)}
    moves = []
    for i in range(n - 1):
        # right multiplication by (i+1, n) swaps slots i and n-1
        moves.append(
            np.fromiter(
                (index[p[:i] + (p[-1],) + p[i + 1 : -1] + (p[i],)] for p in perms),
                dtype=np.intp,
                count=len(perms),
            )
        )
    vec = np.zeros(len(perms), dtype=object)
    vec[0] = 1  # identity is lexicographically first
    counts = [1]
    mass = 1
    for _ in range(k_max):
        vec = sum((vec[m] for m in moves), start=np.zeros(len(perms), dtype=object))
        mass *= n - 1
        if vec.sum() != mass:
            raise AssertionError(f"walk DP lost mass at n={n}")
        counts.append(int(vec[0]))
    return WalkCounts(n, tuple(counts))


def solve_exact(matrix: Sequence[Sequence[int]], rhs: Sequence[int]) -> list[Fraction]:
    """Solve a square nonsingular linear system over the rationals exactly."""
    size = len(matrix)
    rows = [
        [Fraction(x) for x in row] + [Fraction(b)] for row, b in zip(matrix, rhs)
    ]
    for col in range(size):
        piv = next((r for r in range(col, size) if rows[r][col]), None)
        if piv is None:
            raise ArithmeticError("singular system")
        rows[col], rows[piv] = rows[piv], rows[col]
        lead = rows[col][col]
        for r in range(col + 1, size):
            factor = rows[r][col] / lead
            if factor:
                for c in range(col, size + 1):
                    rows[r][c] -= factor * rows[col][c]
    sol = [Fraction(0)] * size
    for r in range(size - 1, -1, -1):
        acc = rows[r][size] - sum(
            (rows[r][c] * sol[c] for c in range(r + 1, size)), start=Fraction(0)
        )
        sol[r] = acc / rows[r][r]
    return sol


def oracle_multiplicity_table(n: int) -> SpectrumTable:
    """Recover the exact spectrum table from walk counts alone.

    The spectrum is integral and contained in [-(n-1), n-1], so the moments
    sum(m_j * j**k) = n! * counts[k] for k = 0..2n-2 form a square Vandermonde
    system on the 2n-1 candidate eigenvalues, solved exactly over rationals.
    The solution is checked to be non-negative integers summing to n!.
    """
    n = _check_oracle_size(n)
    walks = closed_walk_counts(n, 2 * n - 2)
    nodes = list(range(-(n - 1), n))
    nfact = factorial(n)
    matrix = [[node**k for node in nodes] for k in range(2 * n - 1)]
    rhs = [nfact * w for w in walks.counts]
    sol = solve_exact(matrix, rhs)
    mul = {}
    for node, m in zip(nodes, sol):
        if m.denominator != 1 or m < 0:
            raise AssertionError(
                f"moment system for n={n} gave non-multiplicity {m} at eigenvalue {node}"
            )
        if m:
            mul[node] = int(m)
    if sum(mul.values()) != nfact:
        raise AssertionError(f"oracle multiplicities for n={n} do not sum to n!")
    return SpectrumTable(n, mul)
