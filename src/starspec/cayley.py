"""Independent ground truth for the spectrum: closed-walk counts on the group.

The Cayley graph is never materialized. The star transpositions (i n) are
permuted by conjugation with S_{n-1}, since t (i n) t^-1 = (t(i) n), so the
number N_a(s) of words of a generators with product s depends only on the
S_{n-1}-class of s. That class C = (l, lam) is fixed by the length l of the
cycle through n and the cycle type lam of the other n - l points, and has
|C| = (n-1)! / z_lam elements (z_lam = prod m**c * c! over the parts m of lam
with multiplicity c). Right multiplication by (i n) either splits the cycle
of n into one of length d that keeps n and one of length l - d that joins
lam, one i for each d = 1..l-1, or merges an m-cycle of lam into it, for
m * c choices of i. So T_a(C), the number of length-a walks from the identity
that end in C, is advanced one class at a time, and the walk mass
sum_C T_a(C) = (n-1)**a is checked at every step.

The generators are involutions, so N_a(s^-1) = N_a(s), and s^-1 lies in the
class of s. Hence the closed-walk count W_2a = sum_s N_a(s)**2 is the sum of
(T_a(C) / |C|) * T_a(C) over the classes, and W_k = 0 for odd k, because
every generator is odd. Each layer is folded as it is made and then dropped,
so no more than two layers of classes are held at a time.

The graph is bipartite, so its spectrum is symmetric and lies in
[-(n-1), n-1]: the n even moments n! * W_2a, a = 0..n-1, fix
s_j = mul(j) + mul(-j) on the nodes j**2, recovered by exact Lagrange
interpolation over the integers.

Everything here is exact integer arithmetic, and each division is checked to
leave no remainder.
"""

from bisect import bisect
from collections import namedtuple
from math import factorial, prod

from .spectrum import MAX_TABLE_SIZE, SpectrumTable, check_integer

#: Largest k_max of :func:`closed_walk_counts`; at n = 50 its counts print about 3 MB.
MAX_WALK_LENGTH = 1000

# _BYTE[i] is the one-byte key fragment for a cycle length i.
_BYTE = [bytes((i,)) for i in range(MAX_TABLE_SIZE + 1)]


WalkCounts = namedtuple("WalkCounts", ["n", "counts"])
WalkCounts.__doc__ = "counts[k] = number of length-k generator words multiplying to the identity."


def _centralizer(parts: bytes) -> int:
    """z_lam = prod m**c * c! over the parts m of lam with multiplicity c."""
    z = 1
    for m in set(parts):
        c = parts.count(m)
        z *= m**c * factorial(c)
    return z


def _step(layer: dict[bytes, int]) -> dict[bytes, int]:
    """Walk counts one step on from layer, by class.

    A class key is bytes: its first byte is l, the rest are the parts of lam
    in ascending order.
    """
    out: dict[bytes, int] = {}
    get = out.get
    for key, count in layer.items():
        l = key[0]
        parts = key[1:]
        for p in range(1, l):
            # split off a cycle of length p into lam; n keeps l - p points
            i = bisect(parts, p)
            new = _BYTE[l - p] + parts[:i] + _BYTE[p] + parts[i:]
            out[new] = get(new, 0) + count
        for m in set(parts):
            i = parts.index(m)
            new = _BYTE[l + m] + parts[:i] + parts[i + 1 :]
            out[new] = get(new, 0) + count * m * parts.count(m)
    return out


def _layers(n: int, a_max: int):
    """Yield T_a, the walk counts of length a by class, for a = 0..a_max."""
    layer = {_BYTE[1] * n: 1}  # the identity: every cycle has length 1
    yield layer
    mass = 1
    for _ in range(a_max):
        layer = _step(layer)
        mass *= n - 1
        if sum(layer.values()) != mass:
            raise AssertionError(f"walk lost mass at n={n}")
        yield layer


def closed_walk_counts(n: int, k_max: int) -> WalkCounts:
    """Exact closed-walk counts at the identity for lengths 0..k_max.

    W_2a is folded from the class layer T_a as sum_C (T_a(C) / |C|) * T_a(C),
    each division checked exact; odd lengths have no closed walks.
    """
    n = check_integer(n, "degree", 1, MAX_TABLE_SIZE)
    k_max = check_integer(k_max, "k_max", 0, MAX_WALK_LENGTH)
    fact = factorial(n - 1)
    counts = [0] * (k_max + 1)
    for a, layer in enumerate(_layers(n, k_max // 2)):
        total = 0
        for key, count in layer.items():
            # count / |C| = count * z_lam / (n-1)!
            per_element, rest = divmod(count * _centralizer(key[1:]), fact)
            if rest:
                raise ArithmeticError(
                    f"walks of length {a} into class {tuple(key)} of n={n} "
                    "are not a multiple of its size"
                )
            total += per_element * count
        counts[2 * a] = total
    return WalkCounts(n, tuple(counts))


def oracle_multiplicity_table(n: int) -> SpectrumTable:
    """Recover the exact spectrum table from walk counts alone.

    The even moments M_a = n! * W_2a = sum_j s_j * (j**2)**a for a = 0..n-1
    form a Vandermonde system on the nodes j**2, j = 0..n-1, solved by
    Lagrange interpolation: s_j = sum_a q_j[a] * M_a / prod_{i != j} (j**2 - i**2),
    where q_j is the integer polynomial prod_{i != j} (t - i**2). Each s_j is
    checked to be a non-negative integer, even for j > 0 (mul(j) = mul(-j)),
    and the multiplicities to sum to n!. The graph is connected, (n-1)-regular
    and bipartite, so mul(n-1) = mul(1-n) = 1 for n >= 2, which is checked too.
    """
    n = check_integer(n, "degree", 1, MAX_TABLE_SIZE)
    nfact = factorial(n)
    moments = [nfact * w for w in closed_walk_counts(n, 2 * n - 2).counts[::2]]
    nodes = [j * j for j in range(n)]
    poly = [1]  # prod (t - x) over the nodes, leading coefficient first
    for x in nodes:
        poly = [c - x * d for c, d in zip(poly + [0], [0] + poly)]
    halves = []  # mul(j) = mul(-j)
    for j, x in enumerate(nodes):
        # q_j = poly / (t - x) by synthetic division, leading coefficient first
        quotient = []
        acc = 0
        for c in poly[:-1]:
            acc = acc * x + c
            quotient.append(acc)
        numerator = sum(q * m for q, m in zip(quotient, reversed(moments)))
        s, rest = divmod(numerator, prod(x - y for y in nodes if y != x))
        if rest:
            raise ArithmeticError(f"moment solve for n={n} is not integral at eigenvalue {j}")
        if s < 0 or (j and s % 2):
            raise AssertionError(
                f"moment solve for n={n} gave non-multiplicity {s} at eigenvalues +-{j}"
            )
        halves.append(s // 2 if j else s)
    if n > 1 and halves[-1] != 1:
        raise AssertionError(f"moment solve for n={n} gave mul({n - 1}) = {halves[-1]}, not 1")
    mul = {k: halves[abs(k)] for k in range(1 - n, n) if halves[abs(k)]}
    if sum(mul.values()) != nfact:
        raise AssertionError(f"oracle multiplicities for n={n} do not sum to n!")
    return SpectrumTable(n, mul)
