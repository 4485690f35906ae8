"""Command-line interface.

Subcommands: spectrum, verify, moments, semicircle, bound. Output formats are
byte-stable across runs: integers in full, floats with 12 significant digits,
multiplicities always as decimal strings in JSON (they outgrow 2**53 quickly).
Results go to stdout (or --out); diagnostics go to stderr only. A regular
output file is written whole or not at all: a failed run leaves no partial file.

Exit codes: 0 success, 1 verification mismatch, 2 usage error, 3 size limit
exceeded, 4 I/O failure.

:func:`main` may be called many times in one process. The argument parser is
built on the first call and reused; each call parses into a fresh namespace,
so no option of one call carries over to the next.
"""

import argparse
import functools
import os
import stat
import sys
from collections import namedtuple
from math import factorial, sqrt

from .cayley import MAX_WALK_LENGTH, closed_walk_counts, oracle_multiplicity_table
from .semicircle import MAX_MOMENT_INDEX, convergence_report, semicircle_mass
from .spectrum import SizeLimitError, SpectrumTable, check_integer, hook_bound, multiplicity_table

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_LIMIT = 3
EXIT_IO = 4

HISTOGRAM_RANGE = (-1.1, 1.1)
#: Largest --bins of semicircle; its histogram CSV is then about 350 KB.
MAX_BINS = 10_000


Result = namedtuple(
    "Result", ["header", "rows", "payload", "code", "summary"], defaults=(EXIT_OK, None)
)
Result.__doc__ = """What a command reports, before it is rendered in the chosen format.

``rows`` under ``header`` feed the table and CSV formats, ``payload`` the JSON
format; ``summary``, if set, is the whole table-format output.
"""


def _fmt(x: float) -> str:
    return format(x, ".12g")


def _render(fmt: str, result: Result) -> str:
    if fmt == "json":
        # Imported here, so that only a JSON request pays for loading it.
        import json

        return json.dumps(result.payload, separators=(",", ":")) + "\n"
    lines = [result.header, *result.rows]
    if fmt == "csv":
        return "".join(",".join(line) + "\n" for line in lines)
    if result.summary is not None:
        return result.summary + "\n"
    widths = [max(map(len, column)) for column in zip(*lines)]
    return "".join("  ".join(c.rjust(w) for c, w in zip(line, widths)) + "\n" for line in lines)


def _write(text: str, path: str | None) -> None:
    """Write text to stdout if path is None, else to path.

    A new or regular file is written whole or not at all: the text goes to a
    temporary file beside it that then replaces it, so a failed write leaves
    any earlier file as it was. A replaced file keeps its permission bits. A
    symlink is followed and its target replaced. Any other path (a device, a
    FIFO, a directory) is opened and written as is.
    """
    if path is None:
        sys.stdout.write(text)
        return
    try:
        mode = os.stat(path).st_mode
    except FileNotFoundError:
        mode = None
    except OSError:
        mode = 0  # not a regular file
    if mode is not None and not stat.S_ISREG(mode):
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
        return
    # realpath looks up every component of the path, which costs more than the
    # write; only a symlink at the end needs it.
    target = os.path.realpath(path) if os.path.islink(path) else path
    # A fixed-length name, so a target name near the length limit still fits.
    tmp = f".starspec.{os.getpid()}.{os.urandom(6).hex()}.tmp"
    tmp = os.path.join(os.path.dirname(target), tmp)
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            with open(fd, "w", encoding="utf-8", newline="") as handle:
                if mode is not None:
                    os.fchmod(fd, stat.S_IMODE(mode))
                handle.write(text)
            os.replace(tmp, target)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as exc:
        # A failure on the temporary file names the path asked for, as open() would.
        if exc.filename != tmp:
            raise
        raise OSError(exc.errno, exc.strerror, path) from None


def _cmd_spectrum(args: argparse.Namespace) -> Result:
    table = multiplicity_table(args.n)
    entries = table.as_dict(include_zeros=args.include_zeros)
    rows = [[str(k), str(m)] for k, m in entries.items()]
    payload = {"n": table.n, "multiplicities": dict(rows)}
    return Result(["eigenvalue", "multiplicity"], rows, payload)


def _cmd_verify(args: argparse.Namespace) -> Result:
    n = args.n
    expected = oracle_multiplicity_table(n)
    actual = multiplicity_table(n)
    rows = [
        [str(k), str(actual[k]), str(expected[k])]
        for k in range(1 - n, n)
        if actual[k] != expected[k]
    ]
    if rows:
        differences = {k: {"formula": a, "oracle": b} for k, a, b in rows}
        payload = {"n": n, "match": False, "differences": differences}
        return Result(["eigenvalue", "formula", "oracle"], rows, payload, EXIT_MISMATCH)
    count = len(actual.mul)
    total = str(sum(actual.mul.values()))
    return Result(
        ["n", "match", "eigenvalues", "total"],
        [[str(n), "true", str(count), total]],
        {"n": n, "match": True, "eigenvalues": count, "total": total},
        summary=f"identical, {count} eigenvalues, total {total}",
    )


def _cmd_moments(args: argparse.Namespace) -> Result:
    n = args.n
    check_integer(args.k_max, "k-max", 0, MAX_WALK_LENGTH)
    # The library call validates the degree before factorial(n) sees it.
    if args.source == "walk":
        counts = closed_walk_counts(n, args.k_max).counts
        nfact = factorial(n)
        moments = [(w, nfact * w) for w in counts]
    else:
        table = multiplicity_table(n)
        nfact = factorial(n)
        traces = [table.power_sum(k) for k in range(args.k_max + 1)]
        if any(t % nfact for t in traces):
            raise ArithmeticError(f"trace moments of n={n} must be n! * integer")
        moments = [(t // nfact, t) for t in traces]
    rows = [[str(k), str(w), str(t)] for k, (w, t) in enumerate(moments)]
    payload = {
        "n": n,
        "k_max": args.k_max,
        "source": args.source,
        "moments": [{"k": k, "walks": w, "trace": t} for k, (_, w, t) in enumerate(rows)],
    }
    return Result(["k", "walks", "trace"], rows, payload)


def _cmd_bound(args: argparse.Namespace) -> Result:
    n = args.n
    if n < 2:
        raise ValueError(f"bound requires n >= 2, got {n}")
    table = multiplicity_table(n)
    rows = []
    for l in range(1, n):
        bound = hook_bound(n, l)
        mul = table[l]
        rows.append([str(l), str(bound), str(mul), "true" if bound <= mul else "false"])
    payload = {
        "n": n,
        "rows": [
            {"l": l, "bound": b, "multiplicity": m, "ok": ok == "true"}
            for l, (_, b, m, ok) in enumerate(rows, 1)
        ],
    }
    return Result(["l", "bound", "multiplicity", "ok"], rows, payload)


def _histogram(table: SpectrumTable, bins: int) -> Result:
    lo, hi = HISTOGRAM_RANGE
    width = (hi - lo) / bins
    scale = 2.0 * sqrt(table.n)
    nfact = factorial(table.n)
    counts = [0] * bins
    for k, m in table.mul.items():
        x = k / scale
        if lo <= x <= hi:
            counts[min(int((x - lo) / width), bins - 1)] += m
    rows = []
    for i in range(bins):
        left = lo + i * width
        right = lo + (i + 1) * width
        rows.append(
            [
                _fmt(left),
                _fmt(right),
                _fmt(counts[i] / nfact),
                _fmt(semicircle_mass(left, right)),
            ]
        )
    return Result(["bin_left", "bin_right", "empirical_mass", "semicircle_mass"], rows, {})


def _cmd_semicircle(args: argparse.Namespace) -> Result:
    n_values = args.n_values
    check_integer(args.bins, "bins", 1, MAX_BINS)
    check_integer(args.p_max, "p-max", 1, MAX_MOMENT_INDEX)
    if args.histogram is not None and len(n_values) > 1:
        raise ValueError("--out names a single histogram file; give exactly one --n")
    # Every degree is validated (and every report computed) before the
    # first histogram file is written.
    reports = convergence_report(n_values, args.p_max)
    for report in reports:
        path = args.histogram if args.histogram is not None else f"semicircle_n{report.n}.csv"
        _write(_render("csv", _histogram(multiplicity_table(report.n), args.bins)), path)
    rows = []
    payload_reports = []
    for r in reports:
        ratios = {str(p): _fmt(v) for p, v in r.moment_ratios.items()}
        distance = _fmt(r.kolmogorov_distance)
        rows += [[str(r.n), f"moment_ratio_p{p}", v] for p, v in ratios.items()]
        rows.append([str(r.n), "kolmogorov_distance", distance])
        payload_reports.append(
            {"n": r.n, "moment_ratios": ratios, "kolmogorov_distance": distance}
        )
    payload = {"p_max": args.p_max, "bins": args.bins, "reports": payload_reports}
    return Result(["n", "statistic", "value"], rows, payload)


# Built on the first main() call rather than at import, so an import pays
# nothing for it. parse_args leaves the parser as it was.
@functools.cache
def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="starspec",
        description="Exact spectra of star-transposition Cayley graphs.",
    )
    formats = argparse.ArgumentParser(add_help=False)
    formats.add_argument(
        "--format", choices=("json", "csv", "table"), default="table",
        help="output format (default: table)",
    )
    common = argparse.ArgumentParser(add_help=False, parents=[formats])
    common.add_argument("--out", metavar="PATH", help="write output to PATH")
    common.add_argument("--n", type=int, required=True)

    sub = parser.add_subparsers(dest="command", required=True)

    p_spectrum = sub.add_parser(
        "spectrum", parents=[common], help="exact multiplicity table for degree n"
    )
    p_spectrum.add_argument(
        "--include-zeros", action="store_true",
        help="materialize zero multiplicities over the full range",
    )
    p_spectrum.set_defaults(func=_cmd_spectrum)

    p_verify = sub.add_parser(
        "verify", parents=[common],
        help="check the table against the walk-count oracle (exit 1 on mismatch)",
    )
    p_verify.set_defaults(func=_cmd_verify)

    p_moments = sub.add_parser(
        "moments", parents=[common], help="closed-walk counts and trace moments"
    )
    p_moments.add_argument("--k-max", type=int, required=True)
    p_moments.add_argument(
        "--source", choices=("walk", "table"), default="walk",
        help="walk DP over the group, or power sums of the table (default: walk)",
    )
    p_moments.set_defaults(func=_cmd_moments)

    p_semi = sub.add_parser(
        "semicircle", parents=[formats],
        help="semicircle convergence report plus a histogram CSV per degree",
    )
    # Here --out names the histogram file; the report always goes to stdout.
    p_semi.add_argument(
        "--out", dest="histogram", metavar="PATH",
        help="write the histogram of the single --n to PATH",
    )
    p_semi.add_argument(
        "--n", dest="n_values", type=int, action="append", required=True,
        help="degree; may be repeated",
    )
    p_semi.add_argument("--p-max", type=int, default=3)
    p_semi.add_argument("--bins", type=int, default=40)
    p_semi.set_defaults(func=_cmd_semicircle, out=None)

    p_bound = sub.add_parser(
        "bound", parents=[common], help="hook-shape lower bounds versus multiplicities"
    )
    p_bound.set_defaults(func=_cmd_bound)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        result = args.func(args)
        _write(_render(args.format, result), args.out)
        return result.code
    except SizeLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_LIMIT
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
