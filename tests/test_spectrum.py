from __future__ import annotations

import copy
import dataclasses
import pickle
from math import factorial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import starspec.spectrum as spectrum
from reference import dimension, enumerate_partitions
from starspec import (
    SizeLimitError,
    SpectrumTable,
    hook_bound,
    multiplicity_table,
    oracle_multiplicity_table,
)


def test_table_n2():
    assert multiplicity_table(2).as_dict() == {-1: 1, 1: 1}


def test_table_n3():
    t = multiplicity_table(3)
    assert t.as_dict() == {-2: 1, -1: 2, 1: 2, 2: 1}
    assert t[0] == 0


def test_table_n4():
    assert multiplicity_table(4).as_dict() == {
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
    assert multiplicity_table(5).as_dict() == {
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
    assert t.as_dict() == {0: 1}
    assert set(t.mul) == {0}


@pytest.mark.parametrize("table", [multiplicity_table, oracle_multiplicity_table])
def test_tables_are_read_only(table):
    t = table(5)
    with pytest.raises(TypeError):
        t.mul[0] = 0
    assert sum(table(5).mul.values()) == factorial(5)
    assert pickle.loads(pickle.dumps(t)) == t
    assert copy.deepcopy(t) == t
    # The read-only view is not a dict: asdict and a deep copy of mul refuse it,
    # and as_dict() / dict(mul) are the copies to use.
    with pytest.raises(TypeError):
        dataclasses.asdict(t)
    with pytest.raises(TypeError):
        copy.deepcopy(t.mul)
    assert dict(t.mul) == t.as_dict()


def test_table_behaves_as_a_frozen_record():
    t = multiplicity_table(4)
    assert repr(t) == "SpectrumTable(n=4)"
    assert t == SpectrumTable(4, t.as_dict()) == SpectrumTable(n=4, mul=dict(t.mul))
    assert t != SpectrumTable(4, {0: 24})
    assert t != multiplicity_table(3)
    assert t != (4, t.mul)
    for name in ("n", "mul", "other"):
        with pytest.raises(AttributeError):
            setattr(t, name, {})
    with pytest.raises(AttributeError):
        del t.n
    assert t.n == 4 and sum(t.mul.values()) == 24
    with pytest.raises(TypeError):
        hash(t)
    for clone in (pickle.loads(pickle.dumps(t)), copy.deepcopy(t), copy.copy(t)):
        assert clone == t and clone is not t
        assert repr(clone) == "SpectrumTable(n=4)"
        with pytest.raises(TypeError):
            clone.mul[0] = 0


def test_power_sum_exponent_must_be_an_integer():
    t = multiplicity_table(4)
    for bad in (2.0, True, "2"):
        with pytest.raises(TypeError, match="power-sum exponent"):
            t.power_sum(bad)
    assert t.power_sum(np.int64(2)) == t.power_sum(2) == 72


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
    assert type(multiplicity_table(np.int64(4)).n) is int


def test_numpy_degree_hits_the_int_cache():
    spectrum._table.cache_clear()
    table = multiplicity_table(4)
    assert multiplicity_table(np.int64(4)) is table
    info = spectrum._table.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 1, 1)


def test_hook_division_remainder_raises(monkeypatch):
    # With 3! read as 7, the shape (2, 1) of n - 1 = 3 gets the hook product
    # 1 * (7 // 2) = 3 from its rows, which leaves 7 % 3 = 1: the pass must
    # refuse it rather than floor f.
    monkeypatch.setattr(
        spectrum, "factorial", lambda i: 7 if i == 3 else factorial(i)
    )
    spectrum._table.cache_clear()
    try:
        with pytest.raises(ArithmeticError, match="hook product 3 does not divide 3!"):
            multiplicity_table(4)
    finally:
        spectrum._table.cache_clear()


def test_non_integral_kerov_weight_raises(monkeypatch):
    # With 4! read as 12, the hook product 12 of (2, 2) gives f = 1 instead of
    # 2 (the hook shapes (4) and (3, 1) keep their f), and the weight of
    # content -2 on (2, 2) at n = 5 is 5 * (-2-0) / (-2-2) = 5/2 times f: the
    # pass must refuse it.
    monkeypatch.setattr(
        spectrum, "factorial", lambda i: 12 if i == 4 else factorial(i)
    )
    spectrum._table.cache_clear()
    try:
        with pytest.raises(ArithmeticError, match=r"content -2 on \(2, 2\) is not an integer"):
            multiplicity_table(5)
    finally:
        spectrum._table.cache_clear()


def test_total_other_than_n_factorial_raises(monkeypatch):
    # With 4! read as 25 (the pass itself uses factorials below n only), the
    # 24 tableaux the shapes of 3 give must fail the check of the total.
    monkeypatch.setattr(
        spectrum, "factorial", lambda i: 25 if i == 4 else factorial(i)
    )
    spectrum._table.cache_clear()
    try:
        with pytest.raises(ArithmeticError, match="sum to 24, not 4!"):
            multiplicity_table(4)
    finally:
        spectrum._table.cache_clear()


def test_total_and_range_invariants():
    for n in range(1, 13):
        t = multiplicity_table(n)
        assert sum(t.mul.values()) == factorial(n)
        assert all(-(n - 1) <= k <= n - 1 for k in t.mul)
        assert t[n - 1] == 1
        assert t[-(n - 1)] == 1


def test_table_matches_unfolded_sum_up_to_20():
    # mul(k) summed over every shape mu of n-1 and every addable cell a of mu
    # (content k), with no conjugate pairing; this sum is symmetric in k only
    # because the spectrum is.
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
        assert multiplicity_table(n).mul == mul


def test_support_characterization():
    for n in (2, 3):
        assert set(multiplicity_table(n).mul) == set(range(-(n - 1), n)) - {0}
    for n in range(4, 13):
        assert set(multiplicity_table(n).mul) == set(range(-(n - 1), n))
        assert multiplicity_table(n)[0] != 0


def test_power_sums():
    for n in range(2, 13):
        t = multiplicity_table(n)
        assert t.power_sum(0) == factorial(n)
        assert t.power_sum(1) == 0
        assert t.power_sum(2) == (n - 1) * factorial(n)
        assert t.power_sum(4) == factorial(n) * (n - 1) * (2 * n - 3)
    assert multiplicity_table(5).power_sum(2) == 480
    with pytest.raises(ValueError, match="power-sum exponent"):
        multiplicity_table(3).power_sum(-1)


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 40))
def test_table_properties_up_to_40(n):
    t = multiplicity_table(n)
    nfact = factorial(n)
    assert sum(t.mul.values()) == nfact
    assert all(t[-k] == m for k, m in t.mul.items())
    assert all(t.power_sum(k) == 0 for k in (1, 3, 5))
    assert t.power_sum(2) == (n - 1) * nfact
    assert t[n - 1] == t[-(n - 1)] == 1
    for l in range(1, n):
        assert hook_bound(n, l) <= t[l]


def test_hook_bound_values():
    assert hook_bound(4, 2) == 6
    assert hook_bound(10, 3) == 2352
    for n in range(2, 9):
        assert hook_bound(n, n - 1) == 1
    with pytest.raises(ValueError, match="^l must be a positive integer"):
        hook_bound(5, 0)
    with pytest.raises(ValueError, match="^l must satisfy"):
        hook_bound(5, 5)


@pytest.mark.parametrize("bad", [True, 4.0, "4"])
def test_hook_bound_arguments_must_be_integers(bad):
    with pytest.raises(TypeError):
        hook_bound(bad, 2)
    with pytest.raises(TypeError):
        hook_bound(5, bad)
    assert hook_bound(np.int64(5), np.int64(2)) == hook_bound(5, 2)


def test_hook_bound_is_a_lower_bound_with_equality_at_top():
    for n in range(2, 13):
        t = multiplicity_table(n)
        for l in range(1, n):
            b = hook_bound(n, l)
            assert t[l] >= b
            assert t[-l] >= b
        assert t[n - 1] == hook_bound(n, n - 1)


def test_as_dict_full_range_materialization():
    t = multiplicity_table(3)
    assert t.as_dict(include_zeros=True) == {-2: 1, -1: 2, 0: 0, 1: 2, 2: 1}
    assert list(t.as_dict()) == [-2, -1, 1, 2]
