"""Exact eigenvalue multiplicities of the star-transposition Cayley graph.

The graph on the symmetric group of degree n with generators (1 n), ...,
(n-1 n) has an all-integer spectrum contained in [-(n-1), n-1]. The sum of
the generators is the Jucys-Murphy element X_n, which acts on the standard
tableaux of each shape lambda of n by the content of the box holding n. So
the multiplicity of k counts pairs (lambda, T), T a standard tableau of
shape lambda with its top label n at content k, each pair with weight
f(lambda), the number of standard tableaux of shape lambda. Deleting the top
label leaves a tableau of a shape mu of n-1, so

    mul_n(k) = sum over mu of n-1 of f(mu) * f(mu + a),

a the addable cell of mu of content k (no term if mu has none). Plancherel
growth steps from mu to mu + a with probability f(mu + a) / (n * f(mu)), and
it reaches mu with probability f(mu)**2 / (n-1)!, so mul_n(k) is n! times
the probability that Plancherel growth puts its n-th box at content k.
Conjugating a shape negates its contents and keeps f, so mul_n(-k) = mul_n(k).

That probability has a closed form. Poissonize: draw m from Poisson(theta)
and a shape lambda of m from Plancherel measure. The points lambda_i - i form
the discrete Bessel process (Borodin, Okounkov and Olshanski, J. AMS 2000;
Johansson, Ann. Math. 2001), whose density at x is sum_{s >= 1}
J_{x+s}(2 sqrt(theta))**2. Row i holds a box of content k >= 0 exactly when
lambda_i - i >= k, so the expected number of boxes of content k is

    E_k(theta) = sum_{u > k} (u - k) * J_u(2 sqrt(theta))**2,

and its derivative is sum_m e**-theta * theta**m / m! * mul_{m+1}(k) / (m+1)!,
where mul_{m+1}(k) / (m+1)! is the chance that growth adds the box m + 1 at
content k. The series
J_u(2 sqrt(theta))**2 = sum_{N >= u} (-1)**(N-u) * C(2N, N-u) * theta**N / N!**2,
summed over u with v = N - u and K = N - 1 - k by the identity

    sum_{v <= K} (K + 1 - v) * (-1)**v * C(M, v) = (-1)**K * C(M - 2, K)

(a partial alternating sum of a binomial row, taken twice, each time
lowering M by one), gives E_k(theta) = sum_{N > k} (-1)**(N-1-k) *
C(2N-2, N-1-k) * theta**N / N!**2. The coefficient of theta**(n-1) in
e**theta * E_k'(theta), times n! * (n-1)!, is then

    mul_n(k) = sum_{N=|k|+1}^{n} (-1)**(N-1-|k|) * (n!/N!) * C(n-1, N-1)
               * C(2N-2, N-1-|k|).

Creative telescoping (Zeilberger; Petkovsek, Wilf and Zeilberger, A = B)
turns the sum over N into a recurrence in k: with c = k**2 + 3k + 2 - n,

    (n-1-k)(k+2) mul_n(k) = (k+1) c mul_n(k+1) - (k+2) c mul_n(k+2)
                            + (k+1)(k+n+2) mul_n(k+3)

for 0 <= k <= n - 2, from mul_n(n-1) = 1 and mul_n(n) = mul_n(n+1) = 0.
Its certificate: with F(N) the sum's N-th term at k and T(N) the left side
minus the right on N-th terms, T(N) = G(N+1) - G(N) for G(N) = (k+1)(k+2) *
(2k+3) * N(k+1-N) / ((N+k)(N+k+1)) * F(N), and G(k+1) = G(n+1) = 0, so T sums
to 0 over N. So a table is n - 1 exact integer steps, proved (certificate
above), and checked to n = 200. Three checks run on every table: each step's
division is exact, each multiplicity non-negative, and their sum n! (see
_table). The tests also check the table against the sum over shapes by the
hook-length formula and against the walk oracle of :mod:`starspec.cayley`.
"""

from functools import lru_cache
from math import factorial
from operator import index

#: Largest degree accepted by :func:`multiplicity_table` and by the walk oracle.
MAX_TABLE_SIZE = 50


class SizeLimitError(Exception):
    """Raised when an input exceeds a documented computational size limit."""


def check_integer(value: object, name: str, least: int, most: int) -> int:
    """Return value as an int, or raise naming it.

    An integer is anything :func:`operator.index` accepts, a bool excepted;
    anything else raises TypeError. ``least`` is 0 or 1, and an integer below
    it raises ValueError; an integer above ``most`` raises SizeLimitError.
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
            if value > most:
                raise SizeLimitError(f"{name} must be at most {most}, got {value}")
            return value
    raise TypeError(f"{name} must be an integer, got {type(value).__name__} {value!r}")


def multiplicity_table(n: int) -> dict[int, int]:
    """Exact spectrum table for degree n, by the recurrence of the module docstring.

    The table maps each eigenvalue of nonzero multiplicity to its multiplicity,
    keys ascending. Its keys are [-(n-1), n-1] minus {0} for n in {2, 3} and
    the full integer interval for every other n (including the single vertex
    at n = 1).

    Tables are cached per degree (an int or any other integer type), and each
    call returns a new dict, so a caller may change its copy.
    """
    return dict(_table(check_integer(n, "degree", 1, MAX_TABLE_SIZE)))


# Keyed on the int that check_integer returns, so the cache holds at most
# MAX_TABLE_SIZE tables.
@lru_cache(maxsize=None)
def _table(n: int) -> dict[int, int]:
    half = [0] * (n + 2)  # half[a] = mul(a) = mul(-a)
    half[n - 1] = 1
    for k in range(n - 2, -1, -1):
        c = k * k + 3 * k + 2 - n
        half[k], rest = divmod(
            (k + 1) * (c * half[k + 1] + (k + n + 2) * half[k + 3])
            - (k + 2) * c * half[k + 2],
            (n - 1 - k) * (k + 2),
        )
        if rest:
            raise ArithmeticError(
                f"multiplicity of {k} at n={n} is not an integer: remainder {rest}"
            )
    mul = {}
    for k in range(1 - n, n):
        count = half[abs(k)]
        if count < 0:
            raise ArithmeticError(f"multiplicity of {k} at n={n} is negative: {count}")
        if count:
            mul[k] = count
    # n! vertices, n! eigenvalues. The recurrence is linear, so a wrong start
    # scales the table and only this total shows it; it also catches a wrong
    # coefficient that leaves every step exact and every count non-negative.
    total = sum(mul.values())
    if total != factorial(n):
        raise ArithmeticError(f"multiplicities of n={n} sum to {total}, not {n}!")
    return mul
