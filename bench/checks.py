"""Output checks that do not trust the code under test.

Each check parses what a CLI request wrote and tests it against facts derived
here with the standard library alone: a table sums to n!, is symmetric, has
power sum 0 at order 1 and n!(n-1) at order 2; the graph has n-1 edges per
vertex and is bipartite, so closed walks of length 2 number n-1 and odd
lengths none; hook bounds are binomial products; a histogram bins the atoms
of a table that passed those checks, or else of ``reference_table``. A check
returns None when the output passes and a reason otherwise.
"""

from __future__ import annotations

import csv
import io
import json
from functools import cache
from math import comb, factorial, isclose, prod, sqrt

from workloads import Request


HISTOGRAM_RANGE = (-1.1, 1.1)  # the span of every semicircle histogram


def _partitions(n: int, largest: int) -> list[tuple[int, ...]]:
    if n == 0:
        return [()]
    return [
        (part,) + rest
        for part in range(min(n, largest), 0, -1)
        for rest in _partitions(n - part, part)
    ]


@cache
def _hook_dimension(shape: tuple[int, ...]) -> int:
    columns = [sum(1 for row in shape if row > j) for j in range(shape[0])] if shape else []
    hooks = prod(
        row - j + columns[j] - i - 1 for i, row in enumerate(shape) for j in range(row)
    )
    return factorial(sum(shape)) // hooks


@cache
def reference_table(n: int) -> dict[int, int]:
    """Eigenvalue -> multiplicity for degree n, computed here and not by starspec.

    The Jucys-Murphy element (1 n) + ... + (n-1 n) acts on the irreducible of
    shape s by the content of the box holding n; so each corner c of s adds
    f(s) f(s - c) to the multiplicity of its content. Dimensions come from the
    hook-length formula. n = 30 takes about 0.2 s on a 2-vCPU Xeon VM.
    """
    mul: dict[int, int] = {}
    for shape in _partitions(n, n):
        f = _hook_dimension(shape)
        for i, row in enumerate(shape):
            if i + 1 == len(shape) or shape[i + 1] < row:
                smaller = shape[:i] + ((row - 1,) if row > 1 else ()) + shape[i + 1:]
                mul[row - 1 - i] = mul.get(row - 1 - i, 0) + f * _hook_dimension(smaller)
    return mul


def _rows(text: str, fmt: str) -> list[list[str]]:
    """Data rows of a csv or table rendering, header dropped."""
    if fmt == "csv":
        return list(csv.reader(io.StringIO(text)))[1:]
    return [line.split() for line in text.splitlines()[1:]]


def _table_problem(n: int, mul: dict[int, int], include_zeros: bool) -> str | None:
    nfact = factorial(n)
    if include_zeros and sorted(mul) != list(range(-(n - 1), n)):
        return "include-zeros table does not list every eigenvalue in range"
    if any(abs(k) > n - 1 or m < 0 for k, m in mul.items()):
        return "eigenvalue out of range or negative multiplicity"
    if sum(mul.values()) != nfact:
        return f"multiplicities sum to {sum(mul.values())}, not {n}!"
    if any(mul.get(-k, 0) != m for k, m in mul.items()):
        return "table is not symmetric"
    if sum(k * m for k, m in mul.items()) != 0:
        return "power sum of order 1 is not 0"
    if sum(k * k * m for k, m in mul.items()) != nfact * (n - 1):
        return "power sum of order 2 is not n!(n-1)"
    return None


def _check_spectrum(req: Request, text: str, tables: dict[int, dict[int, int]]) -> str | None:
    if req.fmt == "json":
        payload = json.loads(text)
        if payload["n"] != req.n:
            return "wrong degree in output"
        mul = {int(k): int(m) for k, m in payload["multiplicities"].items()}
    else:
        mul = {int(k): int(m) for k, m in _rows(text, req.fmt)}
    reason = _table_problem(req.n, mul, req.include_zeros)
    if reason is None:
        tables.setdefault(req.n, {k: m for k, m in mul.items() if m})
    return reason


def _check_bound(req: Request, text: str) -> str | None:
    if req.fmt == "json":
        rows = [(r["l"], r["bound"], r["multiplicity"], r["ok"]) for r in json.loads(text)["rows"]]
    else:
        rows = [(l, b, m, ok == "true") for l, b, m, ok in _rows(text, req.fmt)]
    rows = [(int(l), int(b), int(m), ok) for l, b, m, ok in rows]
    n = req.n
    if [r[0] for r in rows] != list(range(1, n)):
        return "bound rows do not run over l = 1..n-1"
    for l, bound, mul, ok in rows:
        if bound != comb(n - 2, l - 1) * comb(n - 1, l):
            return f"hook bound at l={l} is not C(n-2,l-1)C(n-1,l)"
        if not ok or mul < bound:
            return f"multiplicity at l={l} is below its hook bound"
    if rows[-1][2] != 1:
        return "multiplicity of n-1 is not 1"
    return None


def _check_moments(req: Request, text: str) -> str | None:
    if req.fmt == "json":
        rows = [(m["k"], m["walks"], m["trace"]) for m in json.loads(text)["moments"]]
    else:
        rows = _rows(text, req.fmt)
    rows = [(int(k), int(w), int(t)) for k, w, t in rows]
    n, nfact = req.n, factorial(req.n)
    if [r[0] for r in rows] != list(range(req.k_max + 1)):
        return "moment rows do not run over k = 0..k-max"
    walks = [w for _, w, _ in rows]
    if any(t != nfact * w for _, w, t in rows):
        return "trace is not n! times walks"
    if walks[0] != 1 or any(walks[1::2]):
        return "walks of length 0 is not 1 or an odd length has closed walks"
    if len(walks) > 2 and walks[2] != n - 1:
        return f"walks[2] is {walks[2]}, not n-1"
    return None


def _support_size(n: int) -> int:
    return 1 if n == 1 else 2 * n - 2 if n in (2, 3) else 2 * n - 1


def _check_verify(req: Request, text: str) -> str | None:
    if req.fmt == "json":
        payload = json.loads(text)
        result = (payload["match"], payload["eigenvalues"], payload["total"])
    elif req.fmt == "csv":
        _, match, count, total = _rows(text, "csv")[0]
        result = (match == "true", count, total)
    else:
        words = text.split()
        result = (words[0] == "identical,", words[1], words[-1])
    match, count, total = result
    if not match:
        return "verify reports a mismatch"
    if int(count) != _support_size(req.n) or int(total) != factorial(req.n):
        return "verify reports a wrong eigenvalue count or total"
    return None


def _bin_masses(n: int, mul: dict[int, int], bins: int) -> list[float]:
    """Mass of the atoms k / (2 sqrt n), weight m / n!, in each of ``bins``
    equal bins of HISTOGRAM_RANGE; the last bin is closed on the right."""
    lo, hi = HISTOGRAM_RANGE
    width = (hi - lo) / bins
    scale = 2.0 * sqrt(n)
    counts = [0] * bins
    for k, m in mul.items():
        if lo <= k / scale <= hi:
            counts[min(int((k / scale - lo) / width), bins - 1)] += m
    return [c / factorial(n) for c in counts]


def _check_semicircle(req: Request, histogram: str, report: str,
                      tables: dict[int, dict[int, int]]) -> str | None:
    rows = [[float(x) for x in row] for row in _rows(histogram, "csv")]
    if len(rows) != req.bins:
        return "histogram has the wrong number of bins"
    table = tables.get(req.n) or reference_table(req.n)
    expected = _bin_masses(req.n, table, req.bins)
    # Masses are printed with 12 significant digits.
    if not all(isclose(r[2], e, rel_tol=1e-11, abs_tol=1e-300) for r, e in zip(rows, expected)):
        return "histogram empirical_mass differs from the binned spectrum"
    # For n <= 6 every atom lies inside the range, so the masses sum to 1.
    if req.n <= 6 and abs(sum(r[2] for r in rows) - 1.0) > 1e-9:
        return "histogram empirical_mass does not sum to 1"
    if abs(sum(r[3] for r in rows) - 1.0) > 1e-9:
        return "histogram semicircle_mass does not sum to 1"
    if req.fmt == "json":
        ratio = float(json.loads(report)["reports"][0]["moment_ratios"]["1"])
    else:
        ratio = next(float(v) for _, stat, v in _rows(report, req.fmt) if stat == "moment_ratio_p1")
    # The rescaled second moment is power_sum(2) / (n! 4n) = (n-1)/(4n).
    if not isclose(ratio, (req.n - 1) / req.n, rel_tol=1e-11, abs_tol=1e-12):
        return "moment ratio at p=1 is not (n-1)/n"
    return None


def problem(req: Request, code: int, out: str, stdout: str, goldens: dict[str, str],
            tables: dict[int, dict[int, int]] | None = None) -> str | None:
    """Why the output of ``req`` is wrong, or None if every check passes.

    ``tables`` collects the spectrum tables that passed their checks, by
    degree; a semicircle histogram is compared with the one of its degree, or
    with ``reference_table`` when the round printed none.
    """
    tables = {} if tables is None else tables
    if code != 0:
        return f"exit code {code}"
    if req.golden is not None and out != goldens[req.golden]:
        return f"output differs from golden {req.golden}"
    try:
        if req.command == "semicircle":
            return _check_semicircle(req, out, stdout, tables)
        if req.command == "spectrum":
            return _check_spectrum(req, out, tables)
        check = {
            "bound": _check_bound,
            "moments": _check_moments,
            "verify": _check_verify,
        }[req.command]
        return check(req, out)
    except (ValueError, KeyError, IndexError, TypeError, StopIteration) as exc:
        return f"unparsable output: {exc!r}"
