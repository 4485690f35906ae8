"""Command-line interface.

Subcommands: spectrum, verify, moments, semicircle, bound. Output formats are
byte-stable across runs: integers in full, floats with 12 significant digits,
multiplicities always as decimal strings in JSON (they outgrow 2**53 quickly).
Results go to stdout (or --out); diagnostics go to stderr only. A regular
output file is written whole or not at all: a failed run leaves no partial file.

Exit codes: 0 success, 1 verification mismatch, 2 usage error, 3 size limit
exceeded, 4 I/O failure.

:func:`main` may be called many times in one process. A plain command line
(see :func:`_plain`) loads no argparse; any other is read by a full parser built
for that call. Each call parses into a fresh namespace, so no option of one call
carries over to the next.
"""

import errno
import os
import stat
import sys
from collections import namedtuple
from math import comb, factorial, sqrt
from types import SimpleNamespace

from .cayley import MAX_WALK_LENGTH, closed_walk_counts, oracle_multiplicity_table
from .semicircle import MAX_MOMENT_INDEX, convergence_report, semicircle_cdf
from .spectrum import SizeLimitError, check_integer, multiplicity_table

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
    any earlier file as it was. A replaced file keeps its permission bits; one
    the caller may not write is refused. A symlink is followed and its target
    replaced. Any other path (a device, a FIFO, a directory) is opened and
    written as is.
    """
    if path is None:
        sys.stdout.write(text)
        return
    try:
        mode = os.stat(path).st_mode
    except FileNotFoundError:
        mode = None
    if mode is not None and not stat.S_ISREG(mode):
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
        return
    # Replacing asks only the directory for write access; open() asks the file.
    if mode is not None and not os.access(path, os.W_OK):
        raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), path)
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


def _cmd_spectrum(args: SimpleNamespace) -> Result:
    n = args.n
    mul = multiplicity_table(n)
    ks = range(1 - n, n) if args.include_zeros else mul
    rows = [[str(k), str(mul.get(k, 0))] for k in ks]
    payload = {"n": n, "multiplicities": dict(rows)}
    return Result(["eigenvalue", "multiplicity"], rows, payload)


def _cmd_verify(args: SimpleNamespace) -> Result:
    n = args.n
    expected = oracle_multiplicity_table(n)
    actual = multiplicity_table(n)
    rows = [
        [str(k), str(actual.get(k, 0)), str(expected.get(k, 0))]
        for k in sorted(actual.keys() | expected.keys())
        if actual.get(k, 0) != expected.get(k, 0)
    ]
    if rows:
        differences = {k: {"formula": a, "oracle": b} for k, a, b in rows}
        payload = {"n": n, "match": False, "differences": differences}
        return Result(["eigenvalue", "formula", "oracle"], rows, payload, EXIT_MISMATCH)
    count = len(actual)
    total = str(sum(actual.values()))
    return Result(
        ["n", "match", "eigenvalues", "total"],
        [[str(n), "true", str(count), total]],
        {"n": n, "match": True, "eigenvalues": count, "total": total},
        summary=f"identical, {count} eigenvalues, total {total}",
    )


def _cmd_moments(args: SimpleNamespace) -> Result:
    n = args.n
    check_integer(args.k_max, "k-max", 0, MAX_WALK_LENGTH)
    # The library call validates the degree before factorial(n) sees it.
    if args.source == "walk":
        counts = closed_walk_counts(n, args.k_max)
        nfact = factorial(n)
        moments = [(w, nfact * w) for w in counts]
    else:
        mul = multiplicity_table(n)
        nfact = factorial(n)
        traces = [sum(m * e**k for e, m in mul.items()) for k in range(args.k_max + 1)]
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


def _cmd_bound(args: SimpleNamespace) -> Result:
    n = args.n
    if n < 2:
        raise ValueError(f"bound requires n >= 2, got {n}")
    mul = multiplicity_table(n)
    rows = []
    for l in range(1, n):
        # The hook (l+1, 1^(n-l-1)) has C(n-1, l) standard fillings, C(n-2, l-1)
        # of them with n at content l, the end of its arm.
        bound = comb(n - 2, l - 1) * comb(n - 1, l)
        m = mul.get(l, 0)
        rows.append([str(l), str(bound), str(m), "true" if bound <= m else "false"])
    payload = {
        "n": n,
        "rows": [
            {"l": l, "bound": b, "multiplicity": m, "ok": ok == "true"}
            for l, (_, b, m, ok) in enumerate(rows, 1)
        ],
    }
    return Result(["l", "bound", "multiplicity", "ok"], rows, payload)


def _cmd_semicircle(args: SimpleNamespace) -> Result:
    bins = check_integer(args.bins, "bins", 1, MAX_BINS)
    check_integer(args.p_max, "p-max", 1, MAX_MOMENT_INDEX)
    if args.histogram is not None and len(args.n_values) > 1:
        raise ValueError("--out names a single histogram file; give exactly one --n")
    # Every degree is validated (and every report computed) before the
    # first histogram file is written.
    reports = [(n, *convergence_report(n, args.p_max)) for n in args.n_values]
    # The bins' edges and semicircle masses depend on --bins alone.
    lo, hi = HISTOGRAM_RANGE
    width = (hi - lo) / bins
    edges = [lo + i * width for i in range(bins + 1)]
    labels = [_fmt(x) for x in edges]
    cdf = [semicircle_cdf(x) for x in edges]
    masses = [_fmt(cdf[i + 1] - cdf[i]) for i in range(bins)]
    header = ["bin_left", "bin_right", "empirical_mass", "semicircle_mass"]
    for n, _, _ in reports:
        scale = 2.0 * sqrt(n)
        nfact = factorial(n)
        counts = [0] * bins
        for k, m in multiplicity_table(n).items():
            x = k / scale
            if lo <= x <= hi:
                counts[min(int((x - lo) / width), bins - 1)] += m
        rows = [
            [labels[i], labels[i + 1], _fmt(counts[i] / nfact), masses[i]] for i in range(bins)
        ]
        path = args.histogram if args.histogram is not None else f"semicircle_n{n}.csv"
        _write(_render("csv", Result(header, rows, {})), path)
    rows = []
    payload_reports = []
    for n, moment_ratios, kolmogorov_distance in reports:
        ratios = {str(p): _fmt(v) for p, v in moment_ratios.items()}
        distance = _fmt(kolmogorov_distance)
        rows += [[str(n), f"moment_ratio_p{p}", v] for p, v in ratios.items()]
        rows.append([str(n), "kolmogorov_distance", distance])
        payload_reports.append({"n": n, "moment_ratios": ratios, "kolmogorov_distance": distance})
    payload = {"p_max": args.p_max, "bins": args.bins, "reports": payload_reports}
    return Result(["n", "statistic", "value"], rows, payload)


_COMMON = (
    ("--format", {"choices": ("json", "csv", "table"), "default": "table",
                  "help": "output format (default: table)"}),
    ("--out", {"metavar": "PATH", "help": "write output to PATH"}),
    ("--n", {"type": int, "required": True}),
)

#: Each command's line in the command list, the function that runs it, and its
#: options as (flag, add_argument settings) pairs; _plain and _parser both read
#: a command line from these.
_COMMANDS = {
    "spectrum": ("exact multiplicity table for degree n", _cmd_spectrum, (*_COMMON, (
        "--include-zeros",
        {"action": "store_true", "help": "materialize zero multiplicities over the full range"},
    ))),
    "verify": ("check the table against the walk-count oracle (exit 1 on mismatch)",
               _cmd_verify, _COMMON),
    "moments": ("closed-walk counts and trace moments", _cmd_moments, (
        *_COMMON, ("--k-max", {"type": int, "required": True}), ("--source", {
            "choices": ("walk", "table"), "default": "walk",
            "help": "walk DP over the group, or power sums of the table (default: walk)",
        }),
    )),
    # --out names the histogram; the report goes to stdout.
    "semicircle": ("semicircle convergence report plus a histogram CSV per degree",
                   _cmd_semicircle, (
        _COMMON[0],
        ("--out", {"dest": "histogram", "metavar": "PATH",
                   "help": "write the histogram of the single --n to PATH"}),
        ("--n", {"type": int, "required": True, "dest": "n_values", "action": "append",
                 "help": "degree; may be repeated"}),
        ("--p-max", {"type": int, "default": 3}), ("--bins", {"type": int, "default": 40}),
    )),
    "bound": ("hook-shape lower bounds versus multiplicities", _cmd_bound, _COMMON),
}


def _plain(command: str, words: list[str]) -> SimpleNamespace | None:
    """The namespace _parser() gives for [command, *words], if that line is plain.

    A plain line gives each option of the command in full, each value as the
    next word (not starting with "-"), and every required option. For any other
    line this returns None, and argparse reads or reports it.
    """
    _, func, options = _COMMANDS[command]
    args = {"func": func, "out": None}
    flags = {}
    for flag, settings in options:
        dest = settings.get("dest", flag[2:].replace("-", "_"))
        flags[flag] = dest, settings
        args[dest] = False if settings.get("action") == "store_true" else settings.get("default")
    missing = {flag for flag, settings in options if settings.get("required")}
    words = iter(words)
    for word in words:
        if word not in flags:
            return None
        missing.discard(word)
        dest, settings = flags[word]
        action = settings.get("action")
        if action == "store_true":
            args[dest] = True
            continue
        value = next(words, "-")  # a flag with no value left is not plain
        if value.startswith("-"):
            return None
        try:
            value = settings.get("type", str)(value)
        except ValueError:
            return None
        if "choices" in settings and value not in settings["choices"]:
            return None
        args[dest] = [*(args[dest] or ()), value] if action == "append" else value
    return None if missing else SimpleNamespace(**args)


# The full parser reads every command line _plain does not: help, usage errors
# and every other spelling argparse accepts. It is built for the call that needs
# it; argparse is imported here, so that a plain line loads none of it.
def _parser():
    import argparse

    parser = argparse.ArgumentParser(
        prog="starspec", description="Exact spectra of star-transposition Cayley graphs."
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (line, func, options) in _COMMANDS.items():
        command = sub.add_parser(name, help=line)
        command.set_defaults(func=func, out=None)
        for flag, settings in options:
            command.add_argument(flag, **settings)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _plain(argv[0], argv[1:]) if argv and argv[0] in _COMMANDS else None
    if args is None:
        args = _parser().parse_args(argv, SimpleNamespace())
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
