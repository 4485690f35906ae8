"""Command-line interface.

Subcommands: spectrum, verify, moments, semicircle, bound. Output formats are
byte-stable across runs: integers in full, floats with 12 significant digits,
multiplicities always as decimal strings in JSON (they outgrow 2**53 quickly).
Results go to stdout (or --out); diagnostics go to stderr only.

Exit codes: 0 success, 1 verification mismatch, 2 usage error, 3 size limit
exceeded, 4 I/O failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from math import factorial, sqrt

from .cayley import closed_walk_counts, oracle_multiplicity_table
from .errors import SizeLimitError
from .semicircle import convergence_report, semicircle_mass
from .spectrum import SpectrumTable, hook_bound, multiplicity_table

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_LIMIT = 3
EXIT_IO = 4

HISTOGRAM_RANGE = (-1.1, 1.1)


def _fmt(x: float) -> str:
    return format(x, ".12g")


def _render_table(header: list[str], rows: list[list[str]]) -> str:
    widths = [
        max(len(header[i]), *(len(r[i]) for r in rows)) if rows else len(header[i])
        for i in range(len(header))
    ]
    lines = ["  ".join(h.rjust(w) for h, w in zip(header, widths))]
    for row in rows:
        lines.append("  ".join(c.rjust(w) for c, w in zip(row, widths)))
    return "\n".join(lines) + "\n"


def _render_csv(header: list[str], rows: list[list[str]]) -> str:
    return "\n".join([",".join(header)] + [",".join(r) for r in rows]) + "\n"


def _render_json(payload: dict) -> str:
    return json.dumps(payload, separators=(",", ":")) + "\n"


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)


def _cmd_spectrum(args: argparse.Namespace) -> int:
    table = multiplicity_table(args.n)
    entries = table.as_dict(include_zeros=args.include_zeros)
    if args.format == "json":
        payload = {
            "n": table.n,
            "multiplicities": {str(k): str(m) for k, m in entries.items()},
        }
        text = _render_json(payload)
    else:
        rows = [[str(k), str(m)] for k, m in entries.items()]
        render = _render_csv if args.format == "csv" else _render_table
        text = render(["eigenvalue", "multiplicity"], rows)
    _emit(text, args.out)
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    n = args.n
    expected = oracle_multiplicity_table(n)
    actual = multiplicity_table(n)
    diffs = {
        k: (actual[k], expected[k])
        for k in sorted(actual.support() | expected.support())
        if actual[k] != expected[k]
    }
    if not diffs:
        count = len(actual.eigenvalues())
        total = actual.total()
        if args.format == "json":
            text = _render_json(
                {"n": n, "match": True, "eigenvalues": count, "total": str(total)}
            )
        elif args.format == "csv":
            text = _render_csv(
                ["n", "match", "eigenvalues", "total"],
                [[str(n), "true", str(count), str(total)]],
            )
        else:
            text = f"identical, {count} eigenvalues, total {total}\n"
        _emit(text, args.out)
        return EXIT_OK
    if args.format == "json":
        text = _render_json(
            {
                "n": n,
                "match": False,
                "differences": {
                    str(k): {"formula": str(a), "oracle": str(b)}
                    for k, (a, b) in diffs.items()
                },
            }
        )
    else:
        rows = [[str(k), str(a), str(b)] for k, (a, b) in diffs.items()]
        render = _render_csv if args.format == "csv" else _render_table
        text = render(["eigenvalue", "formula", "oracle"], rows)
    _emit(text, args.out)
    return EXIT_MISMATCH


def _cmd_moments(args: argparse.Namespace) -> int:
    n = args.n
    if args.k_max < 0:
        raise ValueError(f"k-max must be non-negative, got {args.k_max}")
    # The library call validates the degree before factorial(n) sees it.
    if args.source == "walk":
        counts = closed_walk_counts(n, args.k_max).counts
        nfact = factorial(n)
        rows = [(k, w, nfact * w) for k, w in enumerate(counts)]
    else:
        table = multiplicity_table(n)
        nfact = factorial(n)
        traces = [table.power_sum(k) for k in range(args.k_max + 1)]
        if any(t % nfact for t in traces):
            raise ArithmeticError(f"trace moments of n={n} must be n! * integer")
        rows = [(k, t // nfact, t) for k, t in enumerate(traces)]
    if args.format == "json":
        payload = {
            "n": n,
            "k_max": args.k_max,
            "source": args.source,
            "moments": [
                {"k": k, "walks": str(w), "trace": str(t)} for k, w, t in rows
            ],
        }
        text = _render_json(payload)
    else:
        render = _render_csv if args.format == "csv" else _render_table
        text = render(
            ["k", "walks", "trace"], [[str(k), str(w), str(t)] for k, w, t in rows]
        )
    _emit(text, args.out)
    return EXIT_OK


def _cmd_bound(args: argparse.Namespace) -> int:
    n = args.n
    if n < 2:
        raise ValueError(f"bound requires n >= 2, got {n}")
    table = multiplicity_table(n)
    rows = []
    for l in range(1, n):
        bound = hook_bound(n, l)
        mul = table[l]
        rows.append((l, bound, mul, bound <= mul))
    if args.format == "json":
        payload = {
            "n": n,
            "rows": [
                {"l": l, "bound": str(b), "multiplicity": str(m), "ok": ok}
                for l, b, m, ok in rows
            ],
        }
        text = _render_json(payload)
    else:
        render = _render_csv if args.format == "csv" else _render_table
        text = render(
            ["l", "bound", "multiplicity", "ok"],
            [[str(l), str(b), str(m), "true" if ok else "false"] for l, b, m, ok in rows],
        )
    _emit(text, args.out)
    return EXIT_OK


def _histogram_rows(table: SpectrumTable, bins: int) -> list[list[str]]:
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
    return rows


def _cmd_semicircle(args: argparse.Namespace) -> int:
    n_values = args.n_values
    if args.bins < 1:
        raise ValueError(f"bins must be positive, got {args.bins}")
    if args.out is not None and len(n_values) > 1:
        raise ValueError("--out names a single histogram file; give exactly one --n")
    # Every degree is validated (and every report computed) before the
    # first histogram file is written.
    reports = convergence_report(n_values, args.p_max)
    for report in reports:
        path = args.out if args.out is not None else f"semicircle_n{report.n}.csv"
        hist = _render_csv(
            ["bin_left", "bin_right", "empirical_mass", "semicircle_mass"],
            _histogram_rows(multiplicity_table(report.n), args.bins),
        )
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(hist)
    if args.format == "json":
        payload = {
            "p_max": args.p_max,
            "bins": args.bins,
            "reports": [
                {
                    "n": r.n,
                    "moment_ratios": {str(p): _fmt(v) for p, v in r.moment_ratios.items()},
                    "kolmogorov_distance": _fmt(r.kolmogorov_distance),
                }
                for r in reports
            ],
        }
        text = _render_json(payload)
    else:
        rows = []
        for r in reports:
            for p, v in r.moment_ratios.items():
                rows.append([str(r.n), f"moment_ratio_p{p}", _fmt(v)])
            rows.append([str(r.n), "kolmogorov_distance", _fmt(r.kolmogorov_distance)])
        render = _render_csv if args.format == "csv" else _render_table
        text = render(["n", "statistic", "value"], rows)
    sys.stdout.write(text)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="starspec",
        description="Exact spectra of star-transposition Cayley graphs.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("json", "csv", "table"), default="table",
        help="output format (default: table)",
    )
    common.add_argument("--out", metavar="PATH", help="write output to PATH")

    sub = parser.add_subparsers(dest="command", required=True)

    p_spectrum = sub.add_parser(
        "spectrum", parents=[common], help="exact multiplicity table for degree n"
    )
    p_spectrum.add_argument("--n", type=int, required=True)
    p_spectrum.add_argument(
        "--include-zeros", action="store_true",
        help="materialize zero multiplicities over the full range",
    )
    p_spectrum.set_defaults(func=_cmd_spectrum)

    p_verify = sub.add_parser(
        "verify", parents=[common],
        help="check the table against the walk-count oracle (exit 1 on mismatch)",
    )
    p_verify.add_argument("--n", type=int, required=True)
    p_verify.add_argument(
        "--oracle", choices=("walk",), default="walk",
        help="oracle to verify against (default: walk)",
    )
    p_verify.set_defaults(func=_cmd_verify)

    p_moments = sub.add_parser(
        "moments", parents=[common], help="closed-walk counts and trace moments"
    )
    p_moments.add_argument("--n", type=int, required=True)
    p_moments.add_argument("--k-max", type=int, required=True)
    p_moments.add_argument(
        "--source", choices=("walk", "table"), default="walk",
        help="walk DP over the group, or power sums of the table (default: walk)",
    )
    p_moments.set_defaults(func=_cmd_moments)

    p_semi = sub.add_parser(
        "semicircle", parents=[common],
        help="semicircle convergence report plus a histogram CSV per degree",
    )
    p_semi.add_argument(
        "--n", dest="n_values", type=int, action="append", required=True,
        help="degree; may be repeated",
    )
    p_semi.add_argument("--p-max", type=int, default=3)
    p_semi.add_argument("--bins", type=int, default=40)
    p_semi.set_defaults(func=_cmd_semicircle)

    p_bound = sub.add_parser(
        "bound", parents=[common], help="hook-shape lower bounds versus multiplicities"
    )
    p_bound.add_argument("--n", type=int, required=True)
    p_bound.set_defaults(func=_cmd_bound)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
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
