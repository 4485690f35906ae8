from __future__ import annotations

from fractions import Fraction
from itertools import permutations
from math import factorial

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import starspec.cayley as cayley
from starspec import (
    SizeLimitError,
    closed_walk_counts,
    multiplicity_table,
    oracle_multiplicity_table,
    rank,
    unrank,
)
from starspec.cayley import solve_exact


def test_rank_identity_and_reversal():
    assert rank((1, 2, 3, 4)) == 0
    assert rank((4, 3, 2, 1)) == factorial(4) - 1
    assert rank(()) == 0


def test_rank_frozen_convention():
    # Swapping 1 and 2 in S_3 has one-line form (2,1,3).
    assert rank((2, 1, 3)) == 2


def test_rank_is_lexicographic_index():
    for n in range(1, 7):
        for i, p in enumerate(permutations(range(1, n + 1))):
            assert rank(p) == i


def test_unrank_examples():
    assert unrank(4, 0) == (1, 2, 3, 4)
    assert unrank(4, factorial(4) - 1) == (4, 3, 2, 1)
    assert unrank(0, 0) == ()


@given(st.integers(1, 8).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, factorial(n) - 1))))
def test_rank_unrank_round_trip(case):
    n, code = case
    assert rank(unrank(n, code)) == code


def test_round_trip_on_random_indices_n8():
    import random

    rng = random.Random(20240214)
    for _ in range(1000):
        code = rng.randrange(factorial(8))
        assert rank(unrank(8, code)) == code


def test_malformed_inputs_rejected():
    with pytest.raises(ValueError):
        rank((1, 1, 3))
    with pytest.raises(ValueError):
        rank((0, 1, 2))
    with pytest.raises(ValueError):
        unrank(3, 6)
    with pytest.raises(ValueError):
        unrank(3, -1)


def test_walk_counts_n3():
    assert closed_walk_counts(3, 4).counts == (1, 0, 2, 0, 6)


def test_walk_counts_basic_identities():
    for n in range(2, 7):
        counts = closed_walk_counts(n, 6).counts
        assert counts[0] == 1
        assert counts[1] == 0
        assert counts[2] == n - 1
        assert all(counts[k] == 0 for k in range(1, 7, 2))


def test_walk_counts_single_vertex():
    assert closed_walk_counts(1, 3).counts == (1, 0, 0, 0)


def test_walk_counts_limits():
    with pytest.raises(SizeLimitError):
        closed_walk_counts(10, 2)
    with pytest.raises(ValueError):
        closed_walk_counts(3, -1)
    with pytest.raises(ValueError):
        closed_walk_counts(0, 2)


def test_degree_must_be_an_integer():
    for bad in (True, "4", 4.0):
        with pytest.raises(TypeError, match="degree"):
            closed_walk_counts(bad, 2)
        with pytest.raises(TypeError, match="degree"):
            oracle_multiplicity_table(bad)
    walks = closed_walk_counts(np.int64(4), 4)
    assert type(walks.n) is int
    assert walks == closed_walk_counts(4, 4)
    table = oracle_multiplicity_table(np.int64(4))
    assert type(table.n) is int
    assert table == multiplicity_table(4)


def test_walk_mass_check_raises(monkeypatch):
    # Moves that send every permutation to the identity break mass
    # conservation; the check must raise, also under -O.
    monkeypatch.setattr(
        cayley.np, "fromiter", lambda items, dtype, count: np.zeros(count, dtype=dtype)
    )
    with pytest.raises(AssertionError, match="lost mass"):
        closed_walk_counts(3, 2)


def test_solve_exact_small_system():
    # x + y = 3, x - y = 1
    assert solve_exact([[1, 1], [1, -1]], [3, 1]) == [Fraction(2), Fraction(1)]
    with pytest.raises(ArithmeticError):
        solve_exact([[1, 1], [2, 2]], [1, 2])


def test_oracle_tables_small():
    assert oracle_multiplicity_table(2).as_dict() == {-1: 1, 1: 1}
    t3 = oracle_multiplicity_table(3)
    assert t3.as_dict() == {-2: 1, -1: 2, 1: 2, 2: 1}
    assert t3[0] == 0


def test_oracle_matches_formula_up_to_7():
    for n in range(2, 8):
        assert oracle_multiplicity_table(n) == multiplicity_table(n)


def test_oracle_limit():
    with pytest.raises(SizeLimitError):
        oracle_multiplicity_table(30)


def test_moment_consistency_up_to_6():
    for n in range(2, 7):
        t = multiplicity_table(n)
        counts = closed_walk_counts(n, 2 * n - 2).counts
        for k, w in enumerate(counts):
            assert factorial(n) * w == t.power_sum(k)


@pytest.mark.slow
def test_oracle_matches_formula_slow_tier():
    for n in (8, 9):
        assert oracle_multiplicity_table(n) == multiplicity_table(n)
