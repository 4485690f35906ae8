from __future__ import annotations

from fractions import Fraction
from math import comb, factorial

import numpy as np
import pytest

import starspec.spectrum as spectrum
from reference import closed_form_table, dimension, enumerate_partitions, hook_bound, power_sum
from starspec import (
    MAX_TABLE_SIZE,
    SizeLimitError,
    multiplicity_table,
    oracle_multiplicity_table,
)


def test_table_n2():
    assert multiplicity_table(2) == {-1: 1, 1: 1}


def test_table_n3():
    t = multiplicity_table(3)
    assert t == {-2: 1, -1: 2, 1: 2, 2: 1}
    assert t.get(0, 0) == 0


def test_table_n4():
    assert multiplicity_table(4) == {
        -3: 1,
        -2: 6,
        -1: 3,
        0: 4,
        1: 3,
        2: 6,
        3: 1,
    }


def test_table_n5_regression():
    # Frozen after the tableau formula and the walk oracle agreed on it.
    assert multiplicity_table(5) == {
        -4: 1,
        -3: 12,
        -2: 28,
        -1: 4,
        0: 30,
        1: 4,
        2: 28,
        3: 12,
        4: 1,
    }


def test_single_vertex_graph():
    t = multiplicity_table(1)
    assert t == {0: 1}
    assert set(t) == {0}


@pytest.mark.parametrize("table", [multiplicity_table, oracle_multiplicity_table])
def test_tables_are_read_only(table):
    # Each call returns a new dict, so changing one changes no later call's table.
    t = table(5)
    assert type(t) is dict
    expected = dict(t)
    t[0] = 0
    del t[1]
    assert table(5) == expected
    assert sum(table(5).values()) == factorial(5)


def test_invalid_and_oversize_degree():
    with pytest.raises(ValueError, match="degree"):
        multiplicity_table(0)
    with pytest.raises(SizeLimitError, match="^degree must be at most 50, got 51$"):
        multiplicity_table(51)


@pytest.mark.parametrize("entry", [multiplicity_table])
def test_degree_must_be_an_integer(entry):
    with pytest.raises(TypeError, match="degree"):
        entry(True)
    entry(1)  # a cached table for 1 must not answer for True either
    for bad in (True, False, "4", 4.0, None):
        with pytest.raises(TypeError, match="degree"):
            entry(bad)
    assert entry(np.int64(4)) == entry(4)


def test_numpy_degree_gives_int_table():
    table = multiplicity_table(np.int64(4))
    assert all(type(k) is int and type(m) is int for k, m in table.items())


def test_numpy_degree_hits_the_int_cache():
    spectrum._table.cache_clear()
    assert multiplicity_table(np.int64(4)) == multiplicity_table(4)
    info = spectrum._table.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 1, 1)


@pytest.fixture
def planted_divmod(monkeypatch):
    """Make the table's divmod return a given pair, with a cold cache.

    At n = 2 the recurrence takes one step, k = 0, whose true result is (0, 0).
    """

    def plant(result):
        monkeypatch.setattr(spectrum, "divmod", lambda a, b: result, raising=False)
        spectrum._table.cache_clear()

    yield plant
    spectrum._table.cache_clear()


def test_negative_multiplicity_raises(planted_divmod):
    planted_divmod((-3, 0))
    with pytest.raises(ArithmeticError, match=r"^multiplicity of 0 at n=2 is negative: -3$"):
        multiplicity_table(2)


def test_total_other_than_n_factorial_raises(planted_divmod):
    # mul(0) = 1 is non-negative, but 1 + 1 + 1 is not 2!.
    planted_divmod((1, 0))
    with pytest.raises(ArithmeticError, match=r"^multiplicities of n=2 sum to 3, not 2!$"):
        multiplicity_table(2)


def test_inexact_recurrence_step_raises(planted_divmod):
    planted_divmod((0, 1))
    with pytest.raises(
        ArithmeticError, match=r"^multiplicity of 0 at n=2 is not an integer: remainder 1$"
    ):
        multiplicity_table(2)


def test_recurrence_matches_closed_form_up_to_100():
    # __wrapped__ skips the cache and the degree cap of multiplicity_table.
    for n in range(1, 101):
        assert spectrum._table.__wrapped__(n) == closed_form_table(n), n


@pytest.mark.slow
def test_recurrence_matches_closed_form_101_to_200():
    for n in range(101, 201):
        assert spectrum._table.__wrapped__(n) == closed_form_table(n), n


def test_total_and_range_invariants():
    for n in range(1, 13):
        t = multiplicity_table(n)
        assert sum(t.values()) == factorial(n)
        assert all(-(n - 1) <= k <= n - 1 for k in t)
        assert t.get(n - 1, 0) == 1
        assert t.get(-(n - 1), 0) == 1


def test_table_matches_unfolded_sum_up_to_20():
    # The sum over shapes that the recurrence replaces: f(mu) * f(mu + a) over
    # every shape mu of n-1 and every addable cell a of mu (content k), each
    # shape on its own; this sum is symmetric in k only because the spectrum is.
    for n in range(1, 21):
        mul: dict[int, int] = {}
        for mu in enumerate_partitions(n - 1):
            f = dimension(mu)
            for r in range(len(mu) + 1):
                if r == len(mu):
                    grown, k = mu + (1,), -r
                elif r == 0 or mu[r] < mu[r - 1]:
                    grown, k = mu[:r] + (mu[r] + 1,) + mu[r + 1 :], mu[r] - r
                else:
                    continue
                mul[k] = mul.get(k, 0) + f * dimension(grown)
        assert mul == {-k: m for k, m in mul.items()}
        assert multiplicity_table(n) == mul


def test_support_characterization():
    for n in (2, 3):
        assert set(multiplicity_table(n)) == set(range(-(n - 1), n)) - {0}
    for n in range(4, 13):
        assert set(multiplicity_table(n)) == set(range(-(n - 1), n))
        assert multiplicity_table(n).get(0, 0) != 0


def test_power_sums():
    for n in range(2, 13):
        t = multiplicity_table(n)
        assert power_sum(t, 0) == factorial(n)
        assert power_sum(t, 1) == 0
        assert power_sum(t, 2) == (n - 1) * factorial(n)
        assert power_sum(t, 4) == factorial(n) * (n - 1) * (2 * n - 3)
    assert power_sum(multiplicity_table(5), 2) == 480


def test_table_properties_up_to_max_size():
    for n in range(1, MAX_TABLE_SIZE + 1):
        t = multiplicity_table(n)
        nfact = factorial(n)
        assert sum(t.values()) == nfact
        assert all(t.get(-k, 0) == m for k, m in t.items())
        assert all(power_sum(t, k) == 0 for k in (1, 3, 5))
        assert power_sum(t, 2) == (n - 1) * nfact
        assert power_sum(t, 4) == nfact * (n - 1) * (2 * n - 3)
        assert t.get(n - 1, 0) == t.get(-(n - 1), 0) == 1
        for l in range(1, n):
            assert hook_bound(n, l) <= t.get(l, 0)


def test_hook_bound_values():
    # The reference counts tableaux of the hook; the CLI prints the binomial product.
    assert hook_bound(4, 2) == 6
    assert hook_bound(10, 3) == 2352
    for n in range(2, 9):
        assert hook_bound(n, n - 1) == 1
    for n in range(2, MAX_TABLE_SIZE + 1):
        for l in range(1, n):
            assert hook_bound(n, l) == comb(n - 2, l - 1) * comb(n - 1, l), (n, l)


def test_hook_bound_is_a_lower_bound_with_equality_at_top():
    for n in range(2, MAX_TABLE_SIZE + 1):
        t = multiplicity_table(n)
        equal = set()
        for l in range(1, n):
            b = hook_bound(n, l)
            assert t.get(l, 0) >= b
            assert t.get(-l, 0) >= b
            if t.get(l, 0) == b:
                equal.add(l)
        # Equality at l = n - 1 and, from n = 3, at l = n - 2; elsewhere only
        # at l = 1 for n = 4 and 5.
        expected = {n - 1} | ({n - 2} if n >= 3 else set()) | ({1} if n in (4, 5) else set())
        assert equal == expected, n


def test_table_keys_ascend():
    # So a table lists its eigenvalues in order.
    assert list(multiplicity_table(3)) == [-2, -1, 1, 2]
    for n in (1, 4, 7):
        assert list(multiplicity_table(n)) == list(range(1 - n, n))
        assert list(oracle_multiplicity_table(n)) == list(range(1 - n, n))


def test_top_of_the_spectrum_is_polynomial_in_n():
    # For each j <= 4, mul_n(n - 1 - j) over n >= j + 1 is the polynomial of
    # degree 2j through its values at n = j + 1 .. 3j + 1, up to MAX_TABLE_SIZE.
    for j in range(5):
        values = [multiplicity_table(n).get(n - 1 - j, 0) for n in range(j + 1, MAX_TABLE_SIZE + 1)]
        # Newton's forward differences of the first 2j + 1 values, on the basis C(t, d).
        differences, row = [], values[: 2 * j + 1]
        while row:
            differences.append(row[0])
            row = [b - a for a, b in zip(row, row[1:])]
        assert differences[-1] != 0
        fitted = [sum(d * comb(t, i) for i, d in enumerate(differences)) for t in range(len(values))]
        assert values == fitted, j
    # At j = 0 and j = 1 the hook shapes alone give the multiplicity.
    for n in range(2, MAX_TABLE_SIZE + 1):
        assert multiplicity_table(n).get(n - 1, 0) == hook_bound(n, n - 1)
        assert n < 3 or multiplicity_table(n).get(n - 2, 0) == hook_bound(n, n - 2)


def poly_mul(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    """Product of two polynomials in n, each a list of coefficients from n**0 up."""
    out = [Fraction(0)] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def poly_add(*terms: list[Fraction]) -> list[Fraction]:
    out = [Fraction(0)] * max(map(len, terms))
    for t in terms:
        for i, x in enumerate(t):
            out[i] += x
    while out and out[-1] == 0:
        out.pop()
    return out


def poly_divide_exactly(a: list[Fraction], r: int) -> list[Fraction]:
    """a / (n - r) by synthetic division; the remainder must be zero."""
    quotient, carry = [], Fraction(0)
    for x in reversed(a):
        carry = x + r * carry
        quotient.append(carry)
    remainder = quotient.pop()
    assert remainder == 0, (a, r)
    return quotient[::-1]


def top_of_the_spectrum(j_max: int) -> list[list[Fraction]]:
    """mul_n(n - 1 - j) for j = 0..j_max as polynomials in n, by the recurrence over Q(n).

    At k = n - 1 - j the recurrence of the spectrum docstring reads
    j (n+1-j) P_j = (n-j) c P_{j-1} - (n+1-j) c P_{j-2} + (n-j)(2n+1-j) P_{j-3},
    c = k**2 + 3k + 2 - n, from P_0 = 1 and P_{-1} = P_{-2} = 0.
    """
    polys = [[], [], [Fraction(1)]]  # P_{-2}, P_{-1}, P_0
    for j in range(1, j_max + 1):
        k = [Fraction(-1 - j), Fraction(1)]  # n - 1 - j
        c = poly_add(poly_mul(k, k), poly_mul([Fraction(3)], k), [Fraction(2), Fraction(-1)])
        n_minus_j = [Fraction(-j), Fraction(1)]
        top = poly_add(
            poly_mul(poly_mul(n_minus_j, c), polys[-1]),
            poly_mul(poly_mul([Fraction(j - 1), Fraction(-1)], c), polys[-2]),
            poly_mul(poly_mul(n_minus_j, [Fraction(1 - j), Fraction(2)]), polys[-3]),
        )
        p_j = [x / j for x in poly_divide_exactly(top, j - 1)]  # n + 1 - j = n - (j - 1)
        assert len(p_j) == 2 * j + 1 and p_j[-1] != 0
        polys.append(p_j)
    return polys[2:]


def test_top_of_the_spectrum_follows_from_the_recurrence():
    # The recurrence holds for every n (tests/test_recurrence_certificate.py),
    # so these polynomials give mul_n(n - 1 - j) for every n > j.
    polys = top_of_the_spectrum(8)
    linear = lambda r: [Fraction(-r), Fraction(1)]  # n - r
    assert polys[1] == poly_mul(linear(1), linear(2))
    assert polys[2] == poly_mul(
        poly_mul(linear(1), linear(3)), [Fraction(c, 2) for c in (2, -4, 1)]
    )
    assert polys[3] == poly_mul(
        poly_mul(linear(1), linear(2)),
        [Fraction(c, 6) for c in (12, -62, 47, -12, 1)],
    )
    for j, poly in enumerate(polys):
        for degree in range(j + 1, MAX_TABLE_SIZE + 1):
            value = sum(c * degree**i for i, c in enumerate(poly))
            assert value == multiplicity_table(degree).get(degree - 1 - j, 0), (j, degree)
