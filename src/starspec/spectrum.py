"""Exact eigenvalue multiplicities of the star-transposition Cayley graph.

The graph on the symmetric group of degree n with generators (1 n), ...,
(n-1 n) has an all-integer spectrum contained in [-(n-1), n-1]. The sum of
the generators is the Jucys-Murphy element X_n, which acts on the standard
tableaux of each shape lambda of n by the content of the box holding n. So
the multiplicity of k counts pairs (lambda, T), T a standard tableau of
shape lambda with its top label n at content k, each pair with weight
f(lambda), the number of standard tableaux of shape lambda.

Deleting the top label leaves a tableau of a shape mu of n-1 and marks the
addable cell a of mu that held it, so mul(k) = sum over mu of
f(mu) * f(mu + a), a the addable cell of content k. The addable contents
x_0 > ... > x_r and removable contents y_1 > ... > y_r of mu interlace, and
Kerov's transition measure (cf. the Greene-Nijenhuis-Wilf hook walk) gives

    f(mu + a_i) = n * f(mu) * prod_j (x_i - y_j) / prod_{l != i} (x_i - x_l),

Conjugating mu negates every content and keeps f, so the conjugate of mu
adds to mul(-k) exactly what mu adds to mul(k): of each conjugate pair only
the shape with fewer rows than columns is visited, and its weights are added
at both x and -x. A square shape (as many rows as columns) has a square
conjugate, which is visited too, so a square shape's weights are added at x
only: the pair then adds the same sum, and a self-conjugate shape adds its
weights once.

The shapes of n-1 are visited in one depth-first pass that builds each from
the bottom row up. A row put on top changes no hook of the rows below it, so
the hook product gains the new row's hooks alone: with p cells in the new
row, k rows in all and e_b = (length of row b) + b over the rows b = 1, 2, ...
already placed, counted from the bottom, they multiply to
(p + k - 1)! / prod_b (p + k - e_b). That gives f(mu) = (n-1)! / H in O(rows)
per shape. The contents are kept shifted by k + 1, a frame in which those of
the rows below the top one stay fixed as rows are added: a new row as long as
the top one moves the top addable content up by one, a longer one appends
one removable and one addable content.

All arithmetic is exact (Python integers). The hook division and each
Kerov division are checked to leave no remainder, and the multiplicities are
checked to sum to n!, which a shape dropped or counted twice would break.
"""

from collections.abc import Mapping
from functools import lru_cache
from math import comb, factorial
from operator import index
from types import MappingProxyType

#: Largest degree accepted by :func:`multiplicity_table` and by the walk oracle.
MAX_TABLE_SIZE = 50


class SizeLimitError(Exception):
    """Raised when an input exceeds a documented computational size limit."""


class SpectrumTable:
    """Eigenvalue -> multiplicity map for one degree n; absent key means zero.

    ``mul`` is a read-only view of a private copy of the mapping given, so a
    table (and the cached table that many callers share) cannot be changed.
    A table behaves as a frozen dataclass does: it compares by ``n`` and
    ``mul``, setting or deleting a field raises AttributeError, and hash()
    raises TypeError.
    """

    __slots__ = ("n", "mul")
    __hash__ = None

    def __init__(self, n: int, mul: Mapping[int, int]) -> None:
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "mul", MappingProxyType(dict(mul)))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.n == other.n and self.mul == other.mul

    def __repr__(self) -> str:
        return f"{type(self).__name__}(n={self.n!r})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # A mappingproxy cannot be pickled; the table is rebuilt from a dict.
        return SpectrumTable, (self.n, dict(self.mul))

    def __getitem__(self, k: int) -> int:
        return self.mul.get(k, 0)

    def power_sum(self, k: int) -> int:
        """Sum of multiplicity(e) * e**k over all eigenvalues, exact."""
        k = check_integer(k, "power-sum exponent", 0)
        return sum(m * e**k for e, m in self.mul.items())

    def as_dict(self, include_zeros: bool = False) -> dict[int, int]:
        """Copy of the table, ascending by eigenvalue.

        With include_zeros, every integer in [-(n-1), n-1] appears as a key.
        """
        ks = range(-(self.n - 1), self.n) if include_zeros else sorted(self.mul)
        return {k: self.mul.get(k, 0) for k in ks}


def check_integer(value: object, name: str, least: int, most: int | None = None) -> int:
    """Return value as an int, or raise naming it.

    An integer is anything :func:`operator.index` accepts, a bool excepted;
    anything else raises TypeError. ``least`` is 0 or 1, and an integer below
    it raises ValueError; an integer above ``most``, if given, raises
    SizeLimitError.
    """
    if not isinstance(value, bool):
        try:
            value = index(value)
        except TypeError:
            pass
        else:
            if value < least:
                kind = "positive" if least else "non-negative"
                raise ValueError(f"{name} must be a {kind} integer, got {value}")
            if most is not None and value > most:
                raise SizeLimitError(f"{name} must be at most {most}, got {value}")
            return value
    raise TypeError(f"{name} must be an integer, got {type(value).__name__} {value!r}")


def multiplicity_table(n: int) -> SpectrumTable:
    """Exact spectrum table for degree n via the content formula over shapes of n-1.

    Its keys, the eigenvalues of nonzero multiplicity, are [-(n-1), n-1] minus
    {0} for n in {2, 3} and the full integer interval for every other n
    (including the single vertex at n = 1).

    Tables are cached per degree, so a repeated degree (as an int or any other
    integer type) returns the same table object.
    """
    return _table(check_integer(n, "degree", 1, MAX_TABLE_SIZE))


# Keyed on the int that check_integer returns, so the cache holds at most
# MAX_TABLE_SIZE tables.
@lru_cache(maxsize=None)
def _table(n: int) -> SpectrumTable:
    m = n - 1
    fact = [factorial(i) for i in range(n)]
    # The rows placed so far, bottom row first, as levels: row b (from 0) of
    # p cells has level p + b + 1, one more than the hook length of its first
    # cell, which rows put on top leave as it is.
    levels: list[int] = []
    # Addable and removable contents of the rows placed, plus len(levels) + 1,
    # ascending. In this frame they do not move when a row goes on top: the
    # last cell of row b is at levels[b], the cell after it at levels[b] + 1,
    # and a new row below the bottom one at 1.
    addable = [1]
    removable: list[int] = []
    # Kerov weights by content + m: of the square shapes (at x only) and of
    # the shapes that stand for themselves and their conjugates (x and -x).
    single = [0] * (2 * n - 1)
    both = [0] * (2 * n - 1)

    def shape() -> tuple[int, ...]:
        return tuple(levels[b] - b - 1 for b in reversed(range(len(levels))))

    def add_weights(hooks: int, acc: list[int]) -> None:
        f, rem = divmod(fact[m], hooks)
        if rem:
            raise ArithmeticError(f"hook product {hooks} does not divide {m}!")
        nf = n * f
        offset = m - len(levels) - 1
        for x in addable:
            num = 1
            for y in removable:
                num *= x - y
            den = 1
            for z in addable:
                if z != x:
                    den *= x - z
            grown, rem = divmod(nf * num, den)
            if rem:
                raise ArithmeticError(
                    f"Kerov weight of content {x - len(levels) - 1} on {shape()!r}"
                    " is not an integer"
                )
            acc[x + offset] += f * grown

    def grow(k: int, top: int, hooks: int, left: int) -> None:
        # k rows placed, the top one of `top` cells, `left` cells still to go.
        # A next row of p < left cells must leave at least max(p, k + 2)
        # cells, room for one more row that keeps rows <= columns; the last
        # row takes all `left` cells.
        sizes = list(range(max(top, 1), min(left // 2, left - k - 2) + 1))
        if k < left:
            sizes.append(left)
        for p in sizes:
            # The new row's hook lengths are 1..e-1 but the e - level of each
            # row below it, so its hook product divides (e - 1)! exactly.
            e = p + k + 1
            below = 1
            for level in levels:
                below *= e - level
            row_hooks = hooks * (fact[e - 1] // below)
            if p == top:
                addable[-1] += 1
            else:
                removable.append(e)
                addable.append(e + 1)
            levels.append(e)
            if p == left:
                # A top row of k + 1 cells makes the shape square.
                add_weights(row_hooks, single if p == k + 1 else both)
            else:
                grow(k + 1, p, row_hooks, left - p)
            levels.pop()
            if p == top:
                addable[-1] -= 1
            else:
                removable.pop()
                addable.pop()

    if m:
        grow(0, 0, 1, m)
    else:
        add_weights(1, single)
    mul = {}
    for x in range(-m, n):
        count = single[m + x] + both[m + x] + both[m - x]
        if count:
            mul[x] = count
    # A shape dropped or counted twice changes the total.
    total = sum(mul.values())
    if total != factorial(n):
        raise ArithmeticError(f"multiplicities of n={n} sum to {total}, not {n}!")
    return SpectrumTable(n, mul)


def hook_bound(n: int, l: int) -> int:
    """Lower bound C(n-2, l-1) * C(n-1, l) on the multiplicity of l (and of -l).

    Obtained by counting the single hook shape whose arm-end corner has
    content l: C(n-2, l-1) of its standard fillings put the top label there,
    and the shape's dimension is C(n-1, l). Equality holds at l = n - 1.
    Both arguments must be integers (a bool is refused), as for a degree.
    """
    n = check_integer(n, "degree", 1)
    l = check_integer(l, "l", 1)
    if l > n - 1:
        raise ValueError(f"l must satisfy 1 <= l <= n-1, got l={l} for n={n}")
    return comb(n - 2, l - 1) * comb(n - 1, l)
