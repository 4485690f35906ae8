from __future__ import annotations

from collections import Counter
from functools import cache
from itertools import permutations
from math import factorial
from typing import Sequence

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import starspec.cayley as cayley
from reference import enumerate_partitions
from starspec import (
    SizeLimitError,
    WalkCounts,
    closed_walk_counts,
    multiplicity_table,
    oracle_multiplicity_table,
)


# Reference: the walk over all n! permutations, indexed by lexicographic rank.


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


@cache
def reference_walks(n: int, a_max: int) -> list[list[int]]:
    """N_a[rank(p)] = number of length-a generator words with product p, a <= a_max.

    Right multiplication by (i n) swaps slots i and n of the one-line form.
    """
    perms = [unrank(n, code) for code in range(factorial(n))]
    moves = [
        [rank(p[:i] + (p[-1],) + p[i + 1 : -1] + (p[i],)) for p in perms]
        for i in range(n - 1)
    ]
    vec = [1] + [0] * (len(perms) - 1)
    layers = [vec]
    for _ in range(a_max):
        vec = [sum(vec[move[code]] for move in moves) for code in range(len(perms))]
        layers.append(vec)
    return layers


def class_key(perm: Sequence[int]) -> bytes:
    """The lumped walk's key of perm: the cycle length of n, then the others ascending."""
    n = len(perm)
    seen: set[int] = set()
    l = 0
    others = []
    for start in range(1, n + 1):
        if start in seen:
            continue
        cycle = [start]
        while perm[cycle[-1] - 1] != start:
            cycle.append(perm[cycle[-1] - 1])
        seen.update(cycle)
        if n in cycle:
            l = len(cycle)
        else:
            others.append(len(cycle))
    return bytes([l, *sorted(others)])


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


@pytest.mark.parametrize("n", range(1, 8))
def test_lumped_walk_matches_reference_by_class(n):
    # T_a(C) is the sum of N_a over the permutations of class C.
    perms = [unrank(n, code) for code in range(factorial(n))]
    keys = [class_key(p) for p in perms]
    reference = reference_walks(n, 2 * n)
    for a, layer in enumerate(cayley._layers(n, 2 * n)):
        by_class = Counter()
        for key, count in zip(keys, reference[a]):
            if count:
                by_class[key] += count
        assert layer == dict(by_class), f"n={n}, a={a}"
    assert a == 2 * n


@pytest.mark.parametrize("n", range(1, 8))
def test_walk_counts_match_reference(n):
    reference = reference_walks(n, 2 * n)
    assert closed_walk_counts(n, 2 * n).counts == tuple(vec[0] for vec in reference)


def test_class_sizes_sum_to_factorial():
    for n in range(1, 8):
        sizes = Counter(class_key(unrank(n, code)) for code in range(factorial(n)))
        for key, size in sizes.items():
            assert factorial(n - 1) // cayley._centralizer(key[1:]) == size
    for n in range(1, 21):
        total = 0
        for l in range(1, n + 1):
            for lam in enumerate_partitions(n - l):
                z = cayley._centralizer(bytes(sorted(lam)))
                assert factorial(n - 1) % z == 0
                total += factorial(n - 1) // z
        assert total == factorial(n)


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
    with pytest.raises(SizeLimitError, match="^degree must be at most 50, got 51$"):
        closed_walk_counts(51, 2)
    assert len(closed_walk_counts(4, 1000).counts) == 1001
    with pytest.raises(SizeLimitError, match="^k_max must be at most 1000, got 1001$"):
        closed_walk_counts(4, 1001)
    with pytest.raises(ValueError, match="k_max"):
        closed_walk_counts(3, -1)
    with pytest.raises(ValueError, match="degree"):
        closed_walk_counts(0, 2)


@pytest.mark.parametrize("bad", [True, 2.0, "2"])
def test_walk_length_must_be_an_integer(bad):
    with pytest.raises(TypeError, match="k_max"):
        closed_walk_counts(4, bad)
    assert closed_walk_counts(4, np.int64(2)) == closed_walk_counts(4, 2)


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
    # A step that drops a class breaks mass conservation; the check must
    # raise, also under -O.
    step = cayley._step
    monkeypatch.setattr(cayley, "_step", lambda layer: dict(list(step(layer).items())[1:]))
    with pytest.raises(AssertionError, match="lost mass"):
        closed_walk_counts(3, 2)


def test_class_division_remainder_raises(monkeypatch):
    # With every centralizer read as 1, the identity class of S_3 has size
    # 2! = 2, which does not divide its one walk of length 0.
    monkeypatch.setattr(cayley, "_centralizer", lambda parts: 1)
    with pytest.raises(ArithmeticError, match="not a multiple of its size"):
        closed_walk_counts(3, 0)


def test_oracle_tables_small():
    assert oracle_multiplicity_table(1).as_dict() == {0: 1}
    assert oracle_multiplicity_table(2).as_dict() == {-1: 1, 1: 1}
    t3 = oracle_multiplicity_table(3)
    assert t3.as_dict() == {-2: 1, -1: 2, 1: 2, 2: 1}
    assert t3[0] == 0


def test_oracle_matches_formula_up_to_7():
    for n in range(2, 8):
        assert oracle_multiplicity_table(n) == multiplicity_table(n)


def test_oracle_limit():
    with pytest.raises(SizeLimitError, match="^degree must be at most 50, got 51$"):
        oracle_multiplicity_table(51)


# Walk counts no graph of degree 3 has, each caught by one check of the solve.
@pytest.mark.parametrize(
    "counts, error, message",
    [
        ((1, 0, 2, 0, 5), ArithmeticError, "not integral at eigenvalue 0"),
        ((1, 0, 4, 0, 4), AssertionError, "non-multiplicity -18 at eigenvalues [+]-0"),
        ((1, 0, 1, 0, 3), AssertionError, "non-multiplicity 1 at eigenvalues [+]-2"),
        ((2, 0, 2, 0, 6), AssertionError, "do not sum to n!"),
    ],
)
def test_oracle_checks_raise(monkeypatch, counts, error, message):
    monkeypatch.setattr(cayley, "closed_walk_counts", lambda n, k_max: WalkCounts(n, counts))
    with pytest.raises(error, match=message):
        oracle_multiplicity_table(3)


def test_oracle_checks_the_extreme_eigenvalues_are_simple(monkeypatch):
    # These counts solve to {-2: 6, 0: 12, 2: 6}: integral, non-negative and
    # summing to 4!, but without the simple eigenvalues +-3 of the connected,
    # 3-regular, bipartite graph on S_4.
    counts = (1, 0, 2, 0, 8, 0, 32)
    monkeypatch.setattr(cayley, "closed_walk_counts", lambda n, k_max: WalkCounts(n, counts))
    with pytest.raises(AssertionError, match=r"^moment solve for n=4 gave mul\(3\) = 0, not 1$"):
        oracle_multiplicity_table(4)


def test_moment_consistency_up_to_6():
    for n in range(2, 7):
        t = multiplicity_table(n)
        counts = closed_walk_counts(n, 2 * n - 2).counts
        for k, w in enumerate(counts):
            assert factorial(n) * w == t.power_sum(k)


@pytest.mark.slow
def test_oracle_matches_formula_slow_tier():
    for n in (8, 9, 40, 50):
        assert oracle_multiplicity_table(n) == multiplicity_table(n)
