"""Standard Young tableaux: brute-force enumeration and content statistics.

Enumeration is deliberately naive (grow fillings label by label) so it can
serve as an independent check on the hook-length dimension counts and on the
corner-removal count of where the top label lands. That count is in turn the
reference for the spectrum table, which :mod:`starspec.spectrum` computes by
a different route, over the shapes of n - 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import SizeLimitError
from .partitions import Box, check_partition, corners, dimension, remove_corner

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
    is the sum of dimensions over corners of content k. Verified against
    :func:`count_top_label_at_content_brute` in the test suite. It is the
    reference, not the fast path: the tests check that summing
    f(shape) * count over all shapes of n gives
    :func:`starspec.spectrum.multiplicity_table`,
    which is computed from Kerov's transition measure over shapes of n - 1.
    """
    shape = check_partition(shape)
    return sum(
        dimension(remove_corner(shape, box))
        for box in corners(shape)
        if box.content == k
    )
