"""One round of a workload in a fresh interpreter.

Runs every request of ``workloads.build(workload, seed)`` through
``starspec.cli.main`` in this process, times the loop (the timed phase) and
each request, then checks every output with ``checks.problem`` and writes a
JSON result to ``--result``. With ``--trace`` the starspec layers are wrapped
by ``tracer.Tracer`` first, and the spans are written next to the result.

With ``--pause-every S``, once S seconds of requests have run since the last
pause, the worker prints ``pause`` to stdout after the request and waits for
a line on stdin; ``run.py`` times its reference computation meanwhile. The
timed phase leaves the pauses out, and the result lists the chunks of
requests between pauses with their seconds.

    PYTHONPATH=src python3 bench/worker.py --workload session-mix --seed 1 \
        --workdir .bench-out/work --result .bench-out/round.json [--trace] [--smoke]
"""

from __future__ import annotations

import argparse
import io
import json
import resource
import shutil
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path

import checks
import workloads


def _extension(req: workloads.Request) -> str:
    return "csv" if req.command == "semicircle" else {"table": "txt"}.get(req.fmt, req.fmt)


def run_round(args: argparse.Namespace) -> dict:
    requests = workloads.build(args.workload, args.seed, args.smoke)
    goldens = {
        req.golden: (args.goldens / req.golden).read_text(encoding="utf-8")
        for req in requests
        if req.golden is not None
    }
    import numpy
    import starspec.cli as cli

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.calibrate()
        untraced = tracer.install()
    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    outs = [str(workdir / f"{i}.{_extension(req)}") for i, req in enumerate(requests)]
    codes: list[int | str] = []
    stdouts: list[str] = []
    latencies: list[float] = []
    chunks: list[tuple[int, float]] = []  # (requests so far, seconds) at each pause
    # No pause before the reference checks, which come last: they take milliseconds.
    last_pause = sum(not req.check for req in requests) - 1

    chunk_begin = time.perf_counter()
    for index, (req, out) in enumerate(zip(requests, outs)):
        buffer = io.StringIO()
        begin = time.perf_counter()
        try:
            with redirect_stdout(buffer):
                if tracer is None:
                    code = cli.main(req.argv(out))
                else:
                    code = tracer.request(cli.main, req.argv(out))
        except SystemExit as exc:  # argparse rejected the request
            code = f"exit {exc.code}"
        except Exception as exc:  # a crash inside the library counts as a failed request
            code = f"raised {exc!r}"
        end = time.perf_counter()
        latencies.append(end - begin)
        codes.append(code)
        stdouts.append(buffer.getvalue())
        if args.pause_every and end - chunk_begin >= args.pause_every and index < last_pause:
            chunks.append((index + 1, end - chunk_begin))
            print("pause", flush=True)
            sys.stdin.readline()
            chunk_begin = time.perf_counter()
    chunks.append((len(requests), time.perf_counter() - chunk_begin))
    wall_s = sum(seconds for _, seconds in chunks)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    failures = []
    bytes_out = 0
    tables: dict[int, dict[int, int]] = {}
    # Spectrum outputs first: the tables that pass are what histograms are checked against.
    for i in sorted(range(len(requests)), key=lambda i: requests[i].command != "spectrum"):
        req, out, code, stdout = requests[i], outs[i], codes[i], stdouts[i]
        path = Path(out)
        text = path.read_text(encoding="utf-8") if path.exists() else ""
        bytes_out += len(text.encode()) + len(stdout.encode())
        reason = (checks.problem(req, code, text, stdout, goldens, tables)
                  if code == 0 else f"{code}")
        if reason is not None:
            failures.append({"request": i, "argv": req.argv(out), "reason": reason})
    failures.sort(key=lambda f: f["request"])
    shutil.rmtree(workdir)

    result = {
        "wall_s": wall_s,
        "peak_rss_mb": peak_rss_mb,
        "attempted": len(requests),
        "failures": failures,
        "stream_latencies_s": [t for t, req in zip(latencies, requests) if not req.check],
        "chunks": chunks,
        "numpy": numpy.__version__,
    }
    if tracer is not None:
        layer = tracer.metrics(wall_s)
        layer["cli.bytes_out"] = bytes_out
        result["layers"] = layer
        result["untraced_names"] = untraced
        spans_path = Path(args.result).with_suffix(".spans.json")
        spans_path.write_text(json.dumps(tracer.spans), encoding="utf-8")
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--goldens", type=Path, default=Path("tests/goldens"))
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--pause-every", type=float, default=0.0, metavar="S")
    args = parser.parse_args(argv)
    result = run_round(args)
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
