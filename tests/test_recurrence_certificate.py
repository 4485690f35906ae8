"""The certificate that proves the table's recurrence for every degree n.

F(N) = (-1)**(N-1-k) * (n!/N!) * C(n-1, N-1) * C(2N-2, N-1-k) is the N-th term
of the closed form for mul_n(k), and mul_n(k) is the sum of F(N) over N. T(N)
is the recurrence's left side minus its right side, each mul_n(k+i) replaced
by its N-th term F_{k+i}(N). Zeilberger's certificate is

    G(N) = (k+1)(k+2)(2k+3) * N(k+1-N) / ((N+k)(N+k+1)) * F(N),

with T(N) = G(N+1) - G(N). Summed over N = k+1..n, T telescopes to
G(n+1) - G(k+1) = 0, so the recurrence holds for every n >= 1 and
0 <= k <= n - 2. On k+1 <= N <= n, F(N) is nonzero and both T(N) and
G(N+1) - G(N), times (N+k)(N+k+1)(N+k+2) / ((k+1)(k+2)(2k+3) F(N)), are
polynomials. The tests below expand both sides into the same polynomial,
check the term ratios that take them there on exact values, and check the
telescoping itself on a grid. Standard library only.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial
from operator import add


class Poly:
    """A polynomial in (n, k, N) with integer coefficients, {exponents: coefficient}."""

    def __init__(self, terms: dict[tuple[int, int, int], int]):
        self.terms = {e: c for e, c in terms.items() if c}

    @staticmethod
    def lift(x: Poly | int) -> Poly:
        return x if isinstance(x, Poly) else Poly({(0, 0, 0): x})

    def __add__(self, other: Poly | int) -> Poly:
        out = dict(self.terms)
        for e, c in Poly.lift(other).terms.items():
            out[e] = out.get(e, 0) + c
        return Poly(out)

    def __neg__(self) -> Poly:
        return Poly({e: -c for e, c in self.terms.items()})

    def __sub__(self, other: Poly | int) -> Poly:
        return self + -Poly.lift(other)

    def __mul__(self, other: Poly | int) -> Poly:
        out: dict[tuple[int, int, int], int] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in Poly.lift(other).terms.items():
                e = tuple(map(add, e1, e2))
                out[e] = out.get(e, 0) + c1 * c2
        return Poly(out)

    __rmul__ = __mul__


def term(n: int, k: int, N: int) -> Fraction:
    """F(N) at (n, k), for N >= 1: 0 outside k+1 <= N <= n."""
    if N - 1 - k < 0:
        return Fraction(0)
    sign = -1 if (N - 1 - k) % 2 else 1
    weight = Fraction(factorial(n), factorial(N)) * comb(n - 1, N - 1)
    return sign * weight * comb(2 * N - 2, N - 1 - k)


def certificate(n: int, k: int, N: int) -> Fraction:
    """G(N) at (n, k), for N >= 1."""
    rational = Fraction((k + 1) * (k + 2) * (2 * k + 3) * N * (k + 1 - N), (N + k) * (N + k + 1))
    return rational * term(n, k, N)


def recurrence_defect(n: int, k: int, N: int) -> Fraction:
    """T(N): the recurrence of the spectrum docstring on the N-th terms, left minus right."""
    c = k * k + 3 * k + 2 - n
    F = [term(n, k + i, N) for i in range(4)]
    return (
        (n - 1 - k) * (k + 2) * F[0]
        - (k + 1) * c * F[1]
        + (k + 2) * c * F[2]
        - (k + 1) * (k + n + 2) * F[3]
    )


def test_certificate_identity_is_polynomial():
    n, k, N = Poly({(1, 0, 0): 1}), Poly({(0, 1, 0): 1}), Poly({(0, 0, 1): 1})
    c = k * k + 3 * k + 2 - n
    reduced = N * N * N - 3 * N * N - N * k * k - 3 * N * k + 4 * N * n - 2 * n
    # (G(N+1) - G(N)) * (N+k)(N+k+1)(N+k+2) / ((k+1)(k+2)(2k+3) F(N)), by the
    # ratio F(N+1)/F(N) checked below.
    telescoped = 2 * (2 * N - 1) * (n - N) - N * (k + 1 - N) * (N + k + 2)
    assert telescoped.terms == reduced.terms
    # T(N) * (N+k)(N+k+1)(N+k+2) / F(N), by the ratios F_{k+i}(N) / F(N).
    defect = (
        (n - 1 - k) * (k + 2) * (N + k) * (N + k + 1) * (N + k + 2)
        + (k + 1) * c * (N - 1 - k) * (N + k + 1) * (N + k + 2)
        + (k + 2) * c * (N - 1 - k) * (N - 2 - k) * (N + k + 2)
        + (k + 1) * (k + n + 2) * (N - 1 - k) * (N - 2 - k) * (N - 3 - k)
    )
    assert defect.terms == ((k + 1) * (k + 2) * (2 * k + 3) * reduced).terms


def test_term_ratios_and_boundary_terms():
    for n in range(1, 31):
        for k in range(n - 1):
            for N in range(k + 1, n + 1):
                F = term(n, k, N)
                assert F != 0
                assert term(n, k, N + 1) / F == Fraction(
                    -2 * (2 * N - 1) * (n - N), (N + 1) * (N - k) * (N + k)
                )
                assert term(n, k + 1, N) / F == Fraction(-(N - 1 - k), N + k)
                assert term(n, k + 2, N) / F == Fraction(
                    (N - 1 - k) * (N - 2 - k), (N + k) * (N + k + 1)
                )
                assert term(n, k + 3, N) / F == Fraction(
                    -(N - 1 - k) * (N - 2 - k) * (N - 3 - k), (N + k) * (N + k + 1) * (N + k + 2)
                )
            assert certificate(n, k, k + 1) == 0
            assert certificate(n, k, n + 1) == 0


def test_recurrence_telescopes():
    for n in range(1, 31):
        for k in range(n - 1):
            for N in range(1, n + 2):
                assert recurrence_defect(n, k, N) == (
                    certificate(n, k, N + 1) - certificate(n, k, N)
                ), (n, k, N)
