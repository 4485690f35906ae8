"""Brute-force references that the tests check the package against.

None of this runs in a ``starspec`` command. It is the slow, obvious route to
each quantity the package computes by a fast one:

- integer partitions and Ferrers-diagram combinatorics (enumeration,
  corners, hook lengths, the hook-length dimension);
- standard Young tableaux, enumerated label by label, and the corner-removal
  count of where the top label lands, which rebuilds the spectrum table as a
  sum over the shapes of n, and the hook shapes' term of that sum;
- perfect and non-crossing pairings, enumerated one by one, and the exact
  semicircle moments they count, and a table's moment ratio to them as an
  exact fraction;
- the spectrum table as the closed form that the package's recurrence comes
  from, n(n+1)/2 binomial terms, and the power sums of a table, term by term.

A partition is a plain tuple of weakly decreasing positive integers; the empty
tuple is the empty partition. Diagrams use the matrix convention: row 1 is the
longest row, rows and columns are 1-based, and the content of the box in row
r, column c is c - r.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb, factorial
from typing import Iterable, Iterator, NamedTuple

from starspec import SizeLimitError, multiplicity_table
from starspec.semicircle import _ratio_terms

# Partitions

#: Largest n accepted by :func:`enumerate_partitions` (p(50) = 204226).
MAX_ENUMERATION_SIZE = 50


class Box(NamedTuple):
    """A cell of a Ferrers diagram (1-based row and column)."""

    row: int
    col: int

    @property
    def content(self) -> int:
        return self.col - self.row


def check_partition(parts: Iterable[int]) -> tuple[int, ...]:
    """Return ``parts`` as a tuple, raising ValueError if it is not a partition."""
    out = tuple(parts)
    for i, p in enumerate(out):
        if not isinstance(p, int) or p < 1:
            raise ValueError(f"partition parts must be positive integers: {out!r}")
        if i and out[i - 1] < p:
            raise ValueError(f"partition parts must be weakly decreasing: {out!r}")
    return out


def enumerate_partitions(n: int) -> Iterator[tuple[int, ...]]:
    """Yield every partition of n exactly once, in reverse-lexicographic order.

    The order is frozen: for n = 4 it is (4), (3,1), (2,2), (2,1,1), (1,1,1,1).
    """
    if n < 0:
        raise ValueError(f"partition size must be non-negative, got {n}")
    if n > MAX_ENUMERATION_SIZE:
        raise SizeLimitError(
            f"partition enumeration supports n <= {MAX_ENUMERATION_SIZE}, got {n}"
        )
    return _partitions_revlex(n)


def _partitions_revlex(n: int) -> Iterator[tuple[int, ...]]:
    if n == 0:
        yield ()
        return
    parts = [n]
    while True:
        yield tuple(parts)
        # Decrement the rightmost part exceeding 1, then refill greedily.
        i = len(parts) - 1
        while i >= 0 and parts[i] == 1:
            i -= 1
        if i < 0:
            return
        rest = len(parts) - i  # mass freed by the trailing ones and the decrement
        parts[i] -= 1
        del parts[i + 1 :]
        while rest > 0:
            chunk = min(parts[-1], rest)
            parts.append(chunk)
            rest -= chunk


def conjugate(parts: Iterable[int]) -> tuple[int, ...]:
    """Transpose the diagram: part j of the result is the height of column j."""
    parts = check_partition(parts)
    columns = parts[0] if parts else 0
    return tuple(sum(1 for p in parts if p >= col) for col in range(1, columns + 1))


def corners(parts: Iterable[int]) -> list[Box]:
    """All removable corners (boxes whose removal leaves a partition), top row first.

    Corner contents are strictly decreasing in this order, so they are distinct.
    """
    parts = check_partition(parts)
    found = []
    for r, p in enumerate(parts, 1):
        if r == len(parts) or parts[r] < p:
            found.append(Box(r, p))
    return found


def remove_corner(parts: Iterable[int], box: Box) -> tuple[int, ...]:
    """Delete a removable corner, giving a partition of n - 1."""
    parts = check_partition(parts)
    if box not in corners(parts):
        raise ValueError(f"{box!r} is not a removable corner of {parts!r}")
    r = box[0]
    if parts[r - 1] == 1:
        return parts[: r - 1] + parts[r:]
    return parts[: r - 1] + (parts[r - 1] - 1,) + parts[r:]


def hook_length(parts: Iterable[int], box: Box) -> int:
    """Arm + leg + 1 for a box of the diagram."""
    parts = check_partition(parts)
    r, c = box
    if not (1 <= r <= len(parts) and 1 <= c <= parts[r - 1]):
        raise ValueError(f"box {box!r} lies outside the diagram of {parts!r}")
    arm = parts[r - 1] - c
    leg = sum(1 for q in parts[r:] if q >= c)
    return arm + leg + 1


def dimension(parts: Iterable[int]) -> int:
    """Number of standard fillings of the diagram, via the hook-length formula.

    Exact arbitrary-precision integer: n! divided by the product of all hook
    lengths (the division is always exact).
    """
    parts = check_partition(parts)
    heights = conjugate(parts)
    hooks = 1
    for r, p in enumerate(parts):
        for c in range(p):
            hooks *= p - c + heights[c] - r - 1
    n = sum(parts)
    f, rem = divmod(factorial(n), hooks)
    if rem:
        raise ArithmeticError(f"hook product {hooks} does not divide {n}!")
    return f


# Standard Young tableaux

#: Default cap on |shape| for full enumeration; override per call via max_size.
DEFAULT_MAX_TABLEAU_SIZE = 10


@dataclass(frozen=True)
class StandardTableau:
    """An increasing filling of a Ferrers diagram with the labels 1..n."""

    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        shape = check_partition(len(row) for row in self.rows)
        n = sum(shape)
        seen = sorted(v for row in self.rows for v in row)
        if seen != list(range(1, n + 1)):
            raise ValueError("tableau must contain each label 1..n exactly once")
        for row in self.rows:
            if any(a >= b for a, b in zip(row, row[1:])):
                raise ValueError("tableau rows must increase left to right")
        for r in range(1, len(self.rows)):
            upper = self.rows[r - 1]
            for c, v in enumerate(self.rows[r]):
                if upper[c] >= v:
                    raise ValueError("tableau columns must increase downward")

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(len(row) for row in self.rows)

    @property
    def size(self) -> int:
        return sum(len(row) for row in self.rows)

    def position(self, label: int) -> Box:
        """Box holding the given label."""
        for r, row in enumerate(self.rows, 1):
            for c, v in enumerate(row, 1):
                if v == label:
                    return Box(r, c)
        raise ValueError(f"label {label} out of range 1..{self.size}")

    def content_of(self, label: int) -> int:
        """Content (column minus row) of the box holding the given label."""
        return self.position(label).content


def enumerate_syt(
    shape: Iterable[int], *, max_size: int = DEFAULT_MAX_TABLEAU_SIZE
) -> Iterator[StandardTableau]:
    """Yield every standard tableau of the given shape exactly once.

    Labels 1..n are inserted in order; each label may extend any row whose
    new cell has its left and upper neighbours already filled, and rows are
    tried top to bottom, which fixes the enumeration order.
    """
    shape = check_partition(shape)
    n = sum(shape)
    if n > max_size:
        raise SizeLimitError(
            f"tableau enumeration capped at size {max_size} (shape has {n} boxes); "
            "pass max_size to override"
        )
    return _fillings(shape, n)


def _fillings(shape: tuple[int, ...], n: int) -> Iterator[StandardTableau]:
    if n == 0:
        yield StandardTableau(())
        return
    rows: list[list[int]] = [[] for _ in shape]

    def place(label: int) -> Iterator[StandardTableau]:
        if label > n:
            yield StandardTableau(tuple(tuple(row) for row in rows))
            return
        for r, row in enumerate(rows):
            if len(row) == shape[r]:
                continue
            if r and len(rows[r - 1]) <= len(row):
                continue
            row.append(label)
            yield from place(label + 1)
            row.pop()

    yield from place(1)


def count_top_label_at_content_brute(
    shape: Iterable[int], k: int, *, max_size: int = DEFAULT_MAX_TABLEAU_SIZE
) -> int:
    """Count standard tableaux whose largest label sits at content k, by enumeration."""
    shape = check_partition(shape)
    n = sum(shape)
    return sum(1 for t in enumerate_syt(shape, max_size=max_size) if t.content_of(n) == k)


def count_top_label_at_content(shape: Iterable[int], k: int) -> int:
    """Count standard tableaux whose largest label sits at content k.

    The largest label always occupies a removable corner, and deleting it
    leaves an arbitrary standard tableau of the smaller shape, so the count
    is the sum of dimensions over corners of content k. Checked against
    :func:`count_top_label_at_content_brute`. Summing f(shape) * count over
    all shapes of n gives :func:`starspec.multiplicity_table`, which is
    computed by a recurrence with no shapes at all.
    """
    shape = check_partition(shape)
    return sum(
        dimension(remove_corner(shape, box))
        for box in corners(shape)
        if box.content == k
    )


def hook_bound(n: int, l: int) -> int:
    """The hook shapes' share of the multiplicity of l, for 1 <= l <= n - 1.

    Of the hooks of n, only (l+1, 1^(n-l-1)) has a corner at content l; this
    is f(hook) times the tableaux of that hook with the top label at content l,
    counted by removing the corner. ``starspec bound`` prints it as
    C(n-2, l-1) * C(n-1, l).
    """
    hook = (l + 1,) + (1,) * (n - l - 1)
    return dimension(hook) * count_top_label_at_content(hook, l)


# Pairings

#: Default cap on p for full pairing enumeration ((2p-1)!! candidates).
DEFAULT_MAX_PAIRING_ORDER = 8

Pairing = tuple[tuple[int, int], ...]


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
    return Fraction(comb(2 * p, p) // (p + 1), 4**p)


def exact_moment_ratio(n: int, p: int) -> Fraction:
    """Ratio of degree n's 2p-th rescaled spectral moment to the semicircle one, exact.

    The fraction of the two integers that ``convergence_report`` divides.
    """
    return Fraction(*_ratio_terms(n, multiplicity_table(n), p))


# Spectrum tables


def power_sum(table: dict[int, int], k: int) -> int:
    """Sum of multiplicity * eigenvalue**k over a spectrum table, exact."""
    return sum(m * e**k for e, m in table.items())


def closed_form_table(n: int) -> dict[int, int]:
    """Spectrum table of degree n by the closed form of the ``spectrum`` docstring.

    mul_n(k) = sum over N = |k|+1..n of (-1)**(N-1-|k|) * (n!/N!) *
    C(n-1, N-1) * C(2N-2, N-1-|k|): n(n+1)/2 exact terms, keys ascending and
    zero multiplicities left out, like :func:`starspec.multiplicity_table`.
    """
    nfact = factorial(n)
    half = [0] * n  # half[a] = mul(a) = mul(-a)
    for N in range(1, n + 1):
        weight = nfact // factorial(N) * comb(n - 1, N - 1)
        for j in range(N):  # j = N - 1 - |k|
            term = weight * comb(2 * N - 2, j)
            half[N - 1 - j] += -term if j % 2 else term
    return {k: half[abs(k)] for k in range(1 - n, n) if half[abs(k)]}
