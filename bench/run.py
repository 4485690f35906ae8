"""Benchmark of the starspec CLI and library, end to end and layer by layer.

Run from the root of a starspec checkout (stdlib only; starspec itself needs
numpy):

    python3 bench/run.py --workload session-mix --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --smoke      # every workload, seconds-long

Each round of a workload runs in a fresh worker interpreter (``worker.py``),
one after another. Rounds repeat until ``--seconds`` have passed; every round
of a run replays the same seeded requests, and each metric is the median over
rounds. ``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` alternates untraced and traced rounds and reports the per-layer
metrics, including the tracing overhead (traced minus untraced wall time).
The end-to-end times are scaled to one machine speed (see ``slowdown``).
The last line of stdout is one JSON object: correct, attempted, failed,
metrics. Everything the run writes goes under ``.bench-out/``.

Seed 1 is the default; seed 2 is held out for confirming a claimed gain.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import select
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

import checks
import workloads

BENCH = Path(__file__).resolve().parent
SETUP_STATEMENT = "import starspec, starspec.cli"
# Set-up is timed this many times before the first round and after each
# round, so its samples spread over the run like the rounds do.
SETUP_REPS = 2
IMPORTTIME_REPS = 3
# A run must end within 180 s: no round starts that could end after this.
ROUND_BUDGET_S = 150.0
WORKER_TIMEOUT_S = 170.0
ACCOUNTING_TOLERANCE = 1e-6
# On a shared VM every process ran up to 1.6x slower for 10 to 60 s at a
# time, longer than a run lasts, so raw times of one workload spread by up to
# 0.3 of their median from run to run. A fixed computation of the
# benchmark's own (slowdown) is timed before each round, after it, and while
# the worker pauses between requests once every PAUSE_EVERY_S of requests.
# Each chunk of requests between two timings is divided by their mean
# slowdown, the computation's time over REFERENCE_S, about its median on a
# 2-vCPU Xeon VM. Raw medians are printed and kept too.
REFERENCE_DEGREE = 26
REFERENCE_LOOP = 500_000
REFERENCE_S = 0.125
PAUSE_EVERY_S = 1.0


class BenchError(Exception):
    """The benchmark cannot produce a result (missing checkout, crashed worker)."""


def _git_head(root: Path) -> str | None:
    try:
        # The ceiling keeps git from reporting a repository that merely contains root.
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env, timeout=30,
                              capture_output=True, text=True)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _worker_env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(root / "src"), str(BENCH)])
    return env


def _check_layout(root: Path) -> None:
    missing = [
        path
        for path in ["BENCHMARK.json", "src/starspec/__init__.py"]
        + [f"tests/goldens/{r.golden}" for r in workloads.CHECKS if r.golden]
        if not (root / path).is_file()
    ]
    if missing:
        raise BenchError(
            f"run from the root of a starspec checkout; missing: {', '.join(missing)}"
        )


def slowdown() -> float:
    """How much slower than nominal a fixed computation runs now.

    It mixes the kinds of work starspec does: a spectrum by the hook-length
    formula (tuples, dicts, big integers, from a cold cache) and a plain
    integer loop.
    """
    checks._hook_dimension.cache_clear()
    begin = time.perf_counter()
    checks.reference_table.__wrapped__(REFERENCE_DEGREE)
    total = 0
    for i in range(REFERENCE_LOOP):
        total += i * i % 7
    return (time.perf_counter() - begin) / REFERENCE_S


def scale_round(result: dict, slowdowns: list[float]) -> None:
    """Add the round's times at nominal speed to ``result``.

    ``slowdowns`` are measured before the round, at each pause and after it;
    each chunk of requests is divided by the mean of the two around it.
    """
    chunks = result["chunks"]
    if len(slowdowns) != len(chunks) + 1:
        raise BenchError(f"{len(chunks)} chunks of requests but {len(slowdowns)} slowdowns")
    latencies = result["stream_latencies_s"]
    wall = 0.0
    scaled: list[float] = []
    first = 0
    for (end, seconds), before, after in zip(chunks, slowdowns, slowdowns[1:]):
        factor = (before + after) / 2
        wall += seconds / factor
        scaled += [t / factor for t in latencies[first:end]]
        first = end
    result["slowdowns"] = slowdowns
    result["scaled_wall_s"] = wall
    result["scaled_latencies_s"] = scaled


def measure_setup(env: dict[str, str], reps: int) -> list[float]:
    """Seconds from starting a fresh interpreter to starspec.cli imported."""
    times = []
    for _ in range(reps):
        begin = time.perf_counter()
        done = subprocess.run(
            [sys.executable, "-c", SETUP_STATEMENT], env=env, timeout=60,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        )
        times.append(time.perf_counter() - begin)
        if done.returncode != 0:
            raise BenchError(f"cannot import starspec:\n{done.stderr}")
    return times


def _importtime(stderr: str) -> tuple[float, float]:
    """(numpy, starspec without numpy) cumulative import seconds from -X importtime."""
    numpy_us = starspec_us = 0
    for line in stderr.splitlines():
        fields = line.split("|")
        if len(fields) != 3 or not fields[1].strip().isdigit():
            continue
        name = fields[2][1:]
        top_level = not name.startswith(" ")
        name = name.strip()
        if name == "numpy":
            numpy_us = int(fields[1])
        elif top_level and (name == "starspec" or name.startswith("starspec.")):
            starspec_us += int(fields[1])
    return numpy_us / 1e6, (starspec_us - numpy_us) / 1e6


def measure_imports(env: dict[str, str], reps: int) -> dict[str, float]:
    runs = []
    for _ in range(reps):
        done = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", SETUP_STATEMENT], env=env,
            timeout=60, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        )
        runs.append(_importtime(done.stderr))
    return {
        "setup.import_numpy_s": median(r[0] for r in runs),
        "setup.import_starspec_s": median(r[1] for r in runs),
    }


def run_worker(root: Path, env: dict[str, str], out_dir: Path, index: int,
               args: argparse.Namespace, workload: str, traced: bool) -> tuple[dict, list[float]]:
    """One round in a fresh worker, and the slowdowns measured at its pauses."""
    result = out_dir / f"round{index}.json"
    log = out_dir / f"round{index}.stderr"
    cmd = [
        sys.executable, str(BENCH / "worker.py"), "--workload", workload,
        "--seed", str(args.seed), "--workdir", str(out_dir / "work"),
        "--result", str(result), "--goldens", str(root / "tests" / "goldens"),
        "--pause-every", str(PAUSE_EVERY_S),
    ]
    cmd += ["--trace"] * traced + ["--smoke"] * args.smoke
    slowdowns = []
    deadline = time.monotonic() + WORKER_TIMEOUT_S
    with open(log, "wb") as stderr, subprocess.Popen(
        cmd, env=env, cwd=root, bufsize=0, stdin=subprocess.PIPE,
        stdout=subprocess.PIPE, stderr=stderr,
    ) as proc:
        try:
            while True:
                ready, _, _ = select.select([proc.stdout], [], [], deadline - time.monotonic())
                if not ready:
                    raise subprocess.TimeoutExpired(cmd, WORKER_TIMEOUT_S)
                line = proc.stdout.readline()
                if not line:
                    break
                if line == b"pause\n":
                    slowdowns.append(slowdown())
                    proc.stdin.write(b"go\n")
            proc.wait(timeout=max(deadline - time.monotonic(), 1.0))
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"worker for {workload} failed:\n{log.read_text(errors='replace')}")
    payload = json.loads(result.read_text(encoding="utf-8"))
    payload["traced"] = traced
    return payload, slowdowns


def run_rounds(root: Path, env: dict[str, str], out_dir: Path, args: argparse.Namespace,
               workload: str, trace: bool) -> tuple[list[dict], list[tuple[float, float]]]:
    """Rounds for about ``args.seconds``, and set-up samples taken between them.

    The slowdown is measured before the first round, at each pause of a
    round and after each round (``scale_round``). The set-up samples come
    just before a measurement, and each is paired with it.

    With ``trace``, every other round is traced. Another round starts only if
    it is expected to end within ``args.seconds``, so a run measures for at
    most that long unless a single round (two when traced) takes longer.
    """
    samples = measure_setup(env, SETUP_REPS)
    factor = slowdown()
    setups = [(s, factor) for s in samples]
    rounds: list[dict] = []
    start = time.perf_counter()
    while True:
        begin = time.perf_counter()
        traced = trace and len(rounds) % 2 == 1
        result, pauses = run_worker(root, env, out_dir, len(rounds), args, workload, traced)
        samples = measure_setup(env, SETUP_REPS)
        before, factor = factor, slowdown()
        scale_round(result, [before, *pauses, factor])
        setups += [(s, factor) for s in samples]
        result["round_s"] = time.perf_counter() - begin
        rounds.append(result)
        next_traced = trace and len(rounds) % 2 == 1
        alike = [r["round_s"] for r in rounds if r["traced"] == next_traced]
        ends_at = time.perf_counter() - start + median(alike or [r["round_s"] for r in rounds])
        has_traced = not trace or any(r["traced"] for r in rounds)
        if ends_at > ROUND_BUDGET_S:
            if not has_traced:
                raise BenchError(f"{workload}: no time left for a traced round")
            return rounds, setups
        if ends_at > args.seconds and has_traced:
            return rounds, setups


def _p99(samples: list[float]) -> float:
    ordered = sorted(samples)
    return ordered[math.ceil(0.99 * len(ordered)) - 1]


def summarize(rounds: list[dict], requests: list[workloads.Request],
              setups: list[tuple[float, float]], imports: dict[str, float] | None) -> dict:
    plain = [r for r in rounds if not r["traced"]]
    traced = [r for r in rounds if r["traced"]]
    wall_s = median(r["scaled_wall_s"] for r in plain)
    end_to_end = {
        "setup_s": median(s / factor for s, factor in setups),
        "wall_s": wall_s,
        "request_p50_s": median(median(r["scaled_latencies_s"]) for r in plain),
        "request_p99_s": median(_p99(r["scaled_latencies_s"]) for r in plain),
        "peak_rss_mb": median(r["peak_rss_mb"] for r in plain),
    }
    raw = {
        "setup_s": median(s for s, _ in setups),
        "wall_s": median(r["wall_s"] for r in plain),
        "request_p50_s": median(median(r["stream_latencies_s"]) for r in plain),
        "request_p99_s": median(_p99(r["stream_latencies_s"]) for r in plain),
        "slowdown": median(f for r in rounds for f in r["slowdowns"]),
    }
    failures = [f for r in rounds for f in r["failures"]]
    summary = {
        "rounds": len(rounds),
        "traced_rounds": len(traced),
        "latency_samples": sum(len(r["stream_latencies_s"]) for r in plain),
        "setup_samples": len(setups),
        "attempted": sum(r["attempted"] for r in rounds),
        "failures": failures,
        "end_to_end": end_to_end,
        "raw": raw,
        "round_walls_s": [r["wall_s"] for r in rounds],
        "round_slowdowns": [r["slowdowns"] for r in rounds],
        "numpy": rounds[0]["numpy"],
    }
    if traced:
        layers = {
            key: median(r["layers"][key] for r in traced) for key in traced[0]["layers"]
        }
        layers["trace.overhead_s"] = (
            median(r["scaled_wall_s"] for r in traced) - wall_s
        )
        layers.update(imports or {})
        layers.update(workloads.properties(requests))
        summary["layers"] = layers
        summary["accounting_ok"] = all(
            abs(r["layers"]["trace.accounting_error_s"])
            <= ACCOUNTING_TOLERANCE * (1 + r["wall_s"])
            for r in traced
        )
    return summary


def run_workload(root: Path, args: argparse.Namespace, workload: str, trace: bool) -> dict:
    env = _worker_env(root)
    out_dir = root / ".bench-out" / f"{workload}-seed{args.seed}-trace{int(trace)}"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    imports = measure_imports(env, IMPORTTIME_REPS) if trace else None
    rounds, setups = run_rounds(root, env, out_dir, args, workload, trace)
    summary = summarize(rounds, workloads.build(workload, args.seed, args.smoke), setups, imports)
    (out_dir / "summary.json").write_text(json.dumps(summary, indent=1), encoding="utf-8")
    return summary


def _environment(root: Path, args: argparse.Namespace) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_head": _git_head(root),
        "loadavg_at_start": os.getloadavg(),
        "seed": args.seed,
        "holdout_seed": workloads.HOLDOUT_SEED,
        "seconds": args.seconds,
        "smoke": args.smoke,
        "platform": platform.platform(),
    }


def _metrics(summary: dict, specs: list[dict], source: str) -> dict:
    return {
        spec["name"]: {"value": summary[source][spec["name"]], "unit": spec["unit"]}
        for spec in specs
    }


def _print_metrics(workload: str, metrics: dict) -> None:
    for name, metric in metrics.items():
        print(f"  {workload:<14} {name:<28} {metric['value']:>16.6g} {metric['unit']}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="starspec benchmark")
    parser.add_argument("--workload", choices=workloads.WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float,
                        help="how long a run measures (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny degrees, for a seconds-long check of the harness")
    args = parser.parse_args(argv)
    root = Path.cwd()
    # One processor for the driver and every process it starts: the two vCPUs
    # of a shared VM ran at different speeds at times, and the reference
    # timings must measure the processor the rounds run on.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    try:
        _check_layout(root)
        spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
        if args.seconds is None:
            args.seconds = spec["run_seconds"]
        env = _environment(root, args)
        names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
        # "all" is for people: every workload, with both metric sets.
        trace = args.workload == "all" or args.trace == 1
        summaries = {name: run_workload(root, args, name, trace) for name in names}
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    env["numpy"] = next(iter(summaries.values()))["numpy"]
    print("env " + json.dumps(env, sort_keys=True))
    metrics: dict[str, dict] = {}
    attempted = failed = 0
    correct = True
    for name, summary in summaries.items():
        attempted += summary["attempted"]
        failed += len(summary["failures"])
        correct &= summary.get("accounting_ok", True)
        ratio = len(summary["failures"]) / summary["attempted"]
        print(f"{name}: rounds={summary['rounds']} (traced {summary['traced_rounds']}) "
              f"setup samples={summary['setup_samples']} "
              f"latency samples={summary['latency_samples']} "
              f"failed_ratio={len(summary['failures'])}/{summary['attempted']}={ratio:g}")
        print("  raw medians, not divided by the slowdown: " + " ".join(
            f"{key}={value:.6g}" for key, value in summary["raw"].items()))
        for failure in summary["failures"][:10]:
            print(f"  FAILED {failure['reason']}: {' '.join(failure['argv'])}")
        chosen = {}
        if args.workload == "all" or args.trace == 0:
            chosen.update(_metrics(summary, spec["end_to_end"], "end_to_end"))
        if trace:
            chosen.update(_metrics(summary, spec["per_layer"], "layers"))
        _print_metrics(name, chosen)
        if args.workload == "all":
            chosen = {f"{name}/{key}": value for key, value in chosen.items()}
        metrics.update(chosen)
    correct &= failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
