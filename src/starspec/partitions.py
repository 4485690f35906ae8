"""Integer partitions and Ferrers-diagram combinatorics.

A partition is represented as a plain tuple of weakly decreasing positive
integers; the empty tuple is the (unique) empty partition. Diagrams use the
matrix convention: row 1 is the longest row, rows and columns are 1-based,
and the content of the box in row r, column c is c - r.
"""

from __future__ import annotations

from math import factorial
from typing import Iterable, Iterator, NamedTuple

from .errors import SizeLimitError

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
    return _conjugate(check_partition(parts))


def _conjugate(parts: tuple[int, ...]) -> tuple[int, ...]:
    if not parts:
        return ()
    heights = []
    rows = len(parts)
    for col in range(1, parts[0] + 1):
        while parts[rows - 1] < col:
            rows -= 1
        heights.append(rows)
    return tuple(heights)


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
    heights = _conjugate(parts)
    hooks = 1
    for r, p in enumerate(parts):
        for c in range(p):
            hooks *= p - c + heights[c] - r - 1
    n = sum(parts)
    f, rem = divmod(factorial(n), hooks)
    if rem:
        raise ArithmeticError(f"hook product {hooks} does not divide {n}!")
    return f
