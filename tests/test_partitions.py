from __future__ import annotations

from math import comb, factorial

import pytest
from hypothesis import given
from hypothesis import strategies as st

import reference
from reference import (
    Box,
    conjugate,
    corners,
    dimension,
    enumerate_partitions,
    enumerate_syt,
    hook_length,
    remove_corner,
)
from starspec import SizeLimitError


def pentagonal_count(n: int, _cache: dict[int, int] = {0: 1}) -> int:
    """Independent p(n) via Euler's pentagonal-number recurrence."""
    if n < 0:
        return 0
    if n in _cache:
        return _cache[n]
    total = 0
    k = 1
    while k * (3 * k - 1) // 2 <= n:
        sign = 1 if k % 2 else -1
        total += sign * pentagonal_count(n - k * (3 * k - 1) // 2)
        total += sign * pentagonal_count(n - k * (3 * k + 1) // 2)
        k += 1
    _cache[n] = total
    return total


partition_shapes = st.lists(st.integers(1, 8), min_size=0, max_size=6).map(
    lambda xs: tuple(sorted(xs, reverse=True))
)


def test_enumerate_empty_partition():
    assert list(enumerate_partitions(0)) == [()]


def test_enumerate_n4_reverse_lex_order():
    assert list(enumerate_partitions(4)) == [
        (4,),
        (3, 1),
        (2, 2),
        (2, 1, 1),
        (1, 1, 1, 1),
    ]


def test_enumerate_n12_count():
    assert sum(1 for _ in enumerate_partitions(12)) == 77


def test_enumeration_counts_match_pentagonal_recurrence():
    for n in range(13):
        assert sum(1 for _ in enumerate_partitions(n)) == pentagonal_count(n)


def test_enumerate_rejects_negative_and_oversize():
    with pytest.raises(ValueError):
        list(enumerate_partitions(-1))
    with pytest.raises(SizeLimitError):
        list(enumerate_partitions(51))


def test_conjugate_examples():
    assert conjugate((4, 3, 3, 1)) == (4, 3, 3, 1)  # self-conjugate
    assert conjugate((5,)) == (1, 1, 1, 1, 1)
    assert conjugate((2, 2)) == (2, 2)
    assert conjugate(()) == ()


@given(partition_shapes)
def test_conjugate_is_an_involution(shape):
    assert conjugate(conjugate(shape)) == shape


def test_conjugate_negates_contents():
    shape = (4, 2, 1)
    boxes = [(r, c) for r, p in enumerate(shape, 1) for c in range(1, p + 1)]
    contents = sorted(c - r for r, c in boxes)
    flipped = conjugate(shape)
    boxes_t = [(r, c) for r, p in enumerate(flipped, 1) for c in range(1, p + 1)]
    assert sorted(-(c - r) for r, c in boxes_t) == contents


def test_corners_examples():
    assert corners((5,)) == [Box(1, 5)]
    assert [b.content for b in corners((2, 1))] == [1, -1]
    assert [b.content for b in corners((4, 3, 3, 1))] == [3, 0, -3]
    assert corners(()) == []


def test_corners_agree_with_brute_force_removal():
    for n in range(1, 9):
        for shape in enumerate_partitions(n):
            found = set()
            for r, p in enumerate(shape, 1):
                smaller = list(shape)
                smaller[r - 1] -= 1
                if smaller and smaller[-1] == 0:
                    smaller.pop()
                still_partition = all(q >= 1 for q in smaller) and all(
                    a >= b for a, b in zip(smaller, smaller[1:])
                )
                if still_partition:
                    found.add(Box(r, p))
            got = corners(shape)
            assert set(got) == found
            contents = [b.content for b in got]
            assert contents == sorted(contents, reverse=True)
            assert len(set(contents)) == len(contents)


def test_remove_corner():
    assert remove_corner((2, 1), Box(1, 2)) == (1, 1)
    assert remove_corner((2, 1), Box(2, 1)) == (2,)
    corner0 = next(b for b in corners((4, 3, 3, 1)) if b.content == 0)
    assert remove_corner((4, 3, 3, 1), corner0) == (4, 3, 2, 1)
    with pytest.raises(ValueError):
        remove_corner((2, 2), Box(1, 2))


def test_hook_length():
    assert hook_length((1,), Box(1, 1)) == 1
    assert hook_length((4, 3, 3, 1), Box(1, 1)) == 7
    for j in range(1, 7):
        assert hook_length((6,), Box(1, j)) == 6 - j + 1
    with pytest.raises(ValueError):
        hook_length((3, 1), Box(2, 2))


def test_dimension_examples():
    assert dimension(()) == 1
    assert dimension((2, 1)) == 2
    assert dimension((4, 3, 3, 1)) == 1188


def test_dimension_of_hooks_is_binomial():
    for n in (5, 8, 11):
        for l in range(n):
            hook = (n - l,) + (1,) * l
            assert dimension(hook) == comb(n - 1, l)


def test_dimension_matches_enumeration_up_to_10():
    for n in range(11):
        for shape in enumerate_partitions(n):
            assert dimension(shape) == sum(1 for _ in enumerate_syt(shape))


def test_dimension_invariant_under_conjugation():
    for n in range(13):
        for shape in enumerate_partitions(n):
            assert dimension(conjugate(shape)) == dimension(shape)


def test_dimension_squares_sum_to_factorial():
    for n in range(11):
        assert sum(dimension(s) ** 2 for s in enumerate_partitions(n)) == factorial(n)


def test_hook_product_must_divide_factorial(monkeypatch):
    # (2, 1) has hook product 3; a factorial of 7 leaves a remainder.
    monkeypatch.setattr(reference, "factorial", lambda n: 7)
    with pytest.raises(ArithmeticError, match="does not divide"):
        dimension((2, 1))


def test_malformed_partitions_rejected():
    for bad in ((1, 2), (3, 0), (2, -1), (2.0, 1)):
        with pytest.raises(ValueError):
            dimension(bad)
