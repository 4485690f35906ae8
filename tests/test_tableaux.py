from __future__ import annotations

import pytest

from reference import (
    StandardTableau,
    conjugate,
    corners,
    count_top_label_at_content,
    count_top_label_at_content_brute,
    dimension,
    enumerate_partitions,
    enumerate_syt,
)
from starspec import SizeLimitError, multiplicity_table


def test_single_column_forces_one_tableau():
    tableaux = list(enumerate_syt((1, 1, 1)))
    assert len(tableaux) == 1
    assert tableaux[0].rows == ((1,), (2,), (3,))


def test_two_tableaux_of_shape_21():
    assert [t.rows for t in enumerate_syt((2, 1))] == [
        ((1, 2), (3,)),
        ((1, 3), (2,)),
    ]


def test_enumeration_count_matches_dimension_for_4331():
    assert sum(1 for _ in enumerate_syt((4, 3, 3, 1), max_size=11)) == 1188


def test_size_cap_and_override():
    with pytest.raises(SizeLimitError):
        enumerate_syt((11,))
    assert sum(1 for _ in enumerate_syt((11,), max_size=11)) == 1


def test_contents_of_known_filling():
    # Shape (4,3,3,1) with 2, 5 and 6 placed at contents 1, 0 and -2.
    t = StandardTableau(((1, 2, 4, 7), (3, 5, 8), (6, 9, 10), (11,)))
    assert t.content_of(2) == 1
    assert t.content_of(5) == 0
    assert t.content_of(6) == -2


def test_single_row_contents():
    (t,) = enumerate_syt((6,))
    for i in range(1, 7):
        assert t.content_of(i) == i - 1


def test_label_one_at_origin_and_top_label_in_corner():
    for n in range(1, 8):
        for shape in enumerate_partitions(n):
            for t in enumerate_syt(shape):
                assert t.content_of(1) == 0
                assert t.position(n) in corners(shape)


def test_invalid_fillings_rejected():
    with pytest.raises(ValueError):
        StandardTableau(((1, 3), (2, 2)))  # duplicate label
    with pytest.raises(ValueError):
        StandardTableau(((2, 1), (3, 4)))  # row not increasing
    with pytest.raises(ValueError):
        StandardTableau(((1, 4), (2, 3), (5,)))  # column not increasing
    with pytest.raises(ValueError):
        t = StandardTableau(((1, 2), (3,)))
        t.content_of(4)


def test_top_label_count_examples():
    assert count_top_label_at_content_brute((2, 1), 1) == 1
    assert count_top_label_at_content_brute((2, 1), 0) == 0
    assert count_top_label_at_content((7,), 6) == 1
    assert count_top_label_at_content((3, 1), 2) == 2
    assert count_top_label_at_content((2, 2), 0) == 2
    assert count_top_label_at_content_brute((4, 3, 3, 1), 0, max_size=11) == dimension(
        (4, 3, 2, 1)
    )


def test_fast_count_matches_brute_force_up_to_8():
    for n in range(1, 9):
        for shape in enumerate_partitions(n):
            for k in range(-(n - 1), n):
                assert count_top_label_at_content(shape, k) == (
                    count_top_label_at_content_brute(shape, k)
                )


def test_counts_sum_to_dimension():
    # Also rebuilds the spectrum table by the corner route, sum over shapes of
    # n of f(shape) * (top labels at content k), as the reference for the
    # table's recurrence.
    for n in range(1, 13):
        mul = {}
        for shape in enumerate_partitions(n):
            counts = {k: count_top_label_at_content(shape, k) for k in range(-(n - 1), n)}
            assert sum(counts.values()) == dimension(shape)
            for k, c in counts.items():
                if c:
                    mul[k] = mul.get(k, 0) + dimension(shape) * c
        assert multiplicity_table(n) == mul


def test_transpose_symmetry_of_counts():
    for n in range(1, 11):
        for shape in enumerate_partitions(n):
            flipped = conjugate(shape)
            for k in range(-(n - 1), n):
                assert count_top_label_at_content(flipped, -k) == (
                    count_top_label_at_content(shape, k)
                )
