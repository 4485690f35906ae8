"""Tests of the benchmark harness, on its seconds-long smoke mode.

    python3 -m pytest bench/tests -q      # from the repository root
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from math import factorial
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import SELF_METRICS  # noqa: E402
from workloads import Request  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_reports_every_metric(workload, trace):
    done = _run("--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", str(trace), "--smoke")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    specs = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        s["name"]: s["unit"] for s in specs
    }
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
        return
    # Self times, the estimated wrapper cost and the unattributed time account
    # for each traced round's wall time.
    out_dir = ROOT / ".bench-out" / f"{workload}-seed3-trace1"
    traced = [r for r in map(json.loads, (p.read_text() for p in out_dir.glob("round*[0-9].json")))
              if "layers" in r]
    assert traced and (out_dir / "round1.spans.json").is_file()
    for r in traced:
        layers = r["layers"]
        accounted = sum(layers[m] for m in SELF_METRICS) + layers["trace.wrapper_s"]
        accounted += layers["trace.unattributed_share"] * r["wall_s"]
        assert accounted == pytest.approx(r["wall_s"], rel=1e-9)


def test_all_runs_every_workload_with_both_metric_sets():
    done = _run("--workload", "all", "--seconds", "1", "--smoke")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    names = [s["name"] for s in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert set(result["metrics"]) == {f"{w}/{n}" for w in workloads.WORKLOADS for n in names}
    assert result["correct"] is True and result["failed"] == 0


def test_refuses_to_run_without_the_program():
    bare = ROOT / ".bench-out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    done = _run("--workload", "session-mix", "--seconds", "1", "--smoke", cwd=bare)
    shutil.rmtree(bare)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_traced_round_skips_a_name_the_program_no_longer_has(tmp_path):
    # A later starspec may drop a wrapped name (Kerov's formula removes the
    # corner machinery); the traced round must still complete and report.
    result = tmp_path / "round.json"
    script = (
        "import sys, tracer, worker\n"
        "tracer.WRAPPED += (('starspec.spectrum', 'no_such_name', 'partitions.corner', False),)\n"
        f"sys.exit(worker.main({['--workload', 'session-mix', '--seed', '3', '--smoke', '--trace', '--workdir', str(tmp_path / 'work'), '--result', str(result), '--goldens', str(ROOT / 'tests' / 'goldens')]!r}))\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(BENCH)])}
    done = subprocess.run([sys.executable, "-c", script], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stderr
    payload = json.loads(result.read_text())
    assert payload["untraced_names"] == ["starspec.spectrum.no_such_name"]
    assert payload["failures"] == []
    assert set(SELF_METRICS) <= set(payload["layers"])
    assert payload["layers"]["partitions.corner_calls"] > 0


def test_end_to_end_times_are_divided_by_the_slowdown_around_them():
    def round_(wall, latencies, slowdowns):
        # Two stream requests, then a reference check; one pause after the first.
        result = {"traced": False, "wall_s": wall, "stream_latencies_s": latencies,
                  "chunks": [(1, latencies[0]), (3, wall - latencies[0])],
                  "peak_rss_mb": 40.0, "attempted": 3, "failures": [], "numpy": "x"}
        run.scale_round(result, slowdowns)
        return result

    rounds = [
        round_(4.0, [1.0, 2.0], [1.0, 1.0, 1.0]),
        round_(6.0, [2.0, 3.0], [1.0, 3.0, 2.0]),  # chunks at 1/2 and 2/5 speed
        round_(8.0, [2.0, 5.0], [2.0, 2.0, 2.0]),
    ]
    assert rounds[1]["scaled_wall_s"] == pytest.approx(2.0 / 2 + 4.0 / 2.5)
    assert rounds[1]["scaled_latencies_s"] == pytest.approx([1.0, 3.0 / 2.5])
    setups = [(0.2, 1.0), (0.2, 2.0), (0.3, 2.0)]
    summary = run.summarize(rounds, [], setups, None)
    assert summary["end_to_end"] == pytest.approx({
        "setup_s": 0.15, "wall_s": 4.0, "request_p50_s": 1.5, "request_p99_s": 2.0,
        "peak_rss_mb": 40.0,
    })
    assert summary["raw"] == pytest.approx({
        "setup_s": 0.2, "wall_s": 6.0, "request_p50_s": 2.5, "request_p99_s": 3.0,
        "slowdown": 2.0,
    })
    with pytest.raises(run.BenchError):
        run.scale_round(dict(rounds[0]), [1.0, 1.0])


def test_slowdown_starts_from_a_cold_cache():
    run.slowdown()
    first = checks._hook_dimension.cache_info()
    assert 0.1 < run.slowdown() < 10
    # A warm cache would have answered the second call with hits.
    assert checks._hook_dimension.cache_info() == first and first.misses > 0


def test_worker_pauses_between_workload_requests_only(tmp_path):
    result = tmp_path / "round.json"
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", "oracle-verify",
           "--seed", "3", "--smoke", "--pause-every", "1e-9", "--workdir", str(tmp_path / "work"),
           "--result", str(result), "--goldens", str(ROOT / "tests" / "goldens")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(BENCH)])}
    done = subprocess.run(cmd, cwd=ROOT, env=env, input="go\n" * 100, capture_output=True,
                          text=True, timeout=170)
    assert done.returncode == 0, done.stderr
    payload = json.loads(result.read_text())
    stream = len(payload["stream_latencies_s"])
    assert done.stdout == "pause\n" * (stream - 1)
    assert [end for end, _ in payload["chunks"]] == [*range(1, stream), payload["attempted"]]
    assert payload["wall_s"] == pytest.approx(sum(seconds for _, seconds in payload["chunks"]))


def test_inputs_come_from_the_seed():
    for name in workloads.WORKLOADS:
        assert workloads.build(name, 5) == workloads.build(name, 5)
    assert workloads.build("session-mix", 5) != workloads.build("session-mix", 6)
    assert workloads.build("oracle-verify", 5) != workloads.build("oracle-verify", 7)
    # The seed changes order and options, never which degrees are computed.
    degrees = {s: sorted(r.n for r in workloads.build("formula-cold", s)) for s in (5, 6)}
    assert degrees[5] == degrees[6]


def test_workload_properties():
    cold = workloads.properties(workloads.build("formula-cold", 1))
    oracle = workloads.properties(workloads.build("oracle-verify", 1))
    mix_requests = workloads.build("session-mix", 1)
    mix = workloads.properties(mix_requests)
    assert cold["workload.repeat_share"] == oracle["workload.repeat_share"] == 0
    assert cold["workload.shapes"] == 5604 + 8349 + 12310  # p(30) + p(32) + p(34)
    assert oracle["workload.walk_states"] == sum(factorial(n) for n in range(1, 10))
    assert mix["workload.repeat_share"] > 0.9
    assert mix["workload.distinct_degrees"] == 29
    stream = [r for r in mix_requests if not r.check]
    assert len(stream) == workloads.SESSION_REQUESTS
    assert max(r.n for r in stream if r.uses_walk) <= 7


GOLDEN_N4 = (ROOT / "tests" / "goldens" / "spectrum_n4.txt").read_text()
GOLDENS = {"spectrum_n4.txt": GOLDEN_N4}
TABLE_N3 = {-2: 1, -1: 2, 1: 2, 2: 1}


def _spectrum_json(n: int, mul: dict[int, int]) -> str:
    return json.dumps({"n": n, "multiplicities": {str(k): str(m) for k, m in mul.items()}})


def test_checks_accept_correct_outputs():
    assert checks.problem(Request("spectrum", 3, "json"), 0, _spectrum_json(3, TABLE_N3), "", {}) is None
    csv_text = "eigenvalue,multiplicity\n" + "".join(f"{k},{m}\n" for k, m in TABLE_N3.items())
    assert checks.problem(Request("spectrum", 3, "csv"), 0, csv_text, "", {}) is None
    moments = "k  walks  trace\n0 1 6\n1 0 0\n2 2 12\n3 0 0\n4 6 36\n"
    assert checks.problem(Request("moments", 3, k_max=4), 0, moments, "", {}) is None
    assert checks.problem(Request("verify", 3), 0, "identical, 4 eigenvalues, total 6\n", "", {}) is None
    bound = "l bound multiplicity ok\n1 2 2 true\n2 1 1 true\n"
    assert checks.problem(Request("bound", 3), 0, bound, "", {}) is None
    golden = Request("spectrum", 4, golden="spectrum_n4.txt")
    assert checks.problem(golden, 0, GOLDEN_N4, "", GOLDENS) is None


def test_reference_table_is_a_spectrum():
    assert checks.reference_table(3) == TABLE_N3
    golden = {int(k): int(m) for k, m in (line.split() for line in GOLDEN_N4.splitlines()[1:])}
    assert checks.reference_table(4) == golden
    for n in range(1, 16):
        assert checks._table_problem(n, checks.reference_table(n), False) is None


def _histogram(n: int, bins: int, masses: list[float]) -> str:
    lo, hi = checks.HISTOGRAM_RANGE
    width = (hi - lo) / bins
    return "bin_left,bin_right,empirical_mass,semicircle_mass\n" + "".join(
        f"{lo + i * width:.12g},{lo + (i + 1) * width:.12g},{m:.12g},{1 / bins:.12g}\n"
        for i, m in enumerate(masses)
    )


def test_histogram_is_checked_bin_by_bin():
    # n = 9 has atoms beyond the histogram range, so the masses sum to less than 1.
    n, bins = 9, 12
    report = f"n,statistic,value\n{n},moment_ratio_p1,{(n - 1) / n!r}\n"
    masses = checks._bin_masses(n, checks.reference_table(n), bins)
    req = Request("semicircle", n, "csv", bins=bins, p_max=1)
    assert sum(masses) < 1
    assert checks.problem(req, 0, _histogram(n, bins, masses), report, {}) is None
    # Mass moved between two bins keeps the total but fails.
    moved = masses[:]
    moved[5], moved[6] = moved[5] + 1e-3, moved[6] - 1e-3
    assert checks.problem(req, 0, _histogram(n, bins, moved), report, {}) is not None
    # A table that passed its own checks in the round is what the histogram must match.
    other = {**checks.reference_table(n)}
    other[0] += 2
    other[1] -= 1
    other[-1] -= 1
    assert checks.problem(req, 0, _histogram(n, bins, masses), report, {}, {n: other}) is not None


@pytest.mark.parametrize(
    "req, code, out, stdout",
    [
        (Request("spectrum", 3, "json"), 0, _spectrum_json(3, {**TABLE_N3, 2: 2}), ""),
        (Request("spectrum", 3, "json"), 0, _spectrum_json(3, {**TABLE_N3, 1: 1, 0: 1}), ""),
        (Request("spectrum", 3, "json", include_zeros=True), 0, _spectrum_json(3, TABLE_N3), ""),
        (Request("spectrum", 3, "json"), 2, "", ""),
        (Request("spectrum", 4, golden="spectrum_n4.txt"), 0, GOLDEN_N4 + " ", ""),
        (Request("moments", 3, k_max=2), 0, "k walks trace\n0 1 6\n1 0 0\n2 3 18\n", ""),
        (Request("moments", 3, k_max=2), 0, "k walks trace\n0 1 6\n1 1 6\n2 2 12\n", ""),
        (Request("verify", 3), 0, "identical, 4 eigenvalues, total 7\n", ""),
        (Request("bound", 3), 0, "l bound multiplicity ok\n1 2 2 true\n2 2 1 false\n", ""),
        (Request("semicircle", 4, "csv", bins=2, p_max=1), 0,
         "bin_left,bin_right,empirical_mass,semicircle_mass\n-1.1,0,0.4,0.5\n0,1.1,0.5,0.5\n",
         "n,statistic,value\n4,moment_ratio_p1,0.75\n4,kolmogorov_distance,0.1\n"),
        (Request("semicircle", 4, "csv", bins=2, p_max=1), 0,
         "bin_left,bin_right,empirical_mass,semicircle_mass\n-1.1,0,0.5,0.5\n0,1.1,0.5,0.5\n",
         "n,statistic,value\n4,moment_ratio_p1,0.7\n4,kolmogorov_distance,0.1\n"),
        (Request("spectrum", 3, "json"), 0, "not json", ""),
    ],
)
def test_checks_reject_wrong_outputs(req, code, out, stdout):
    assert checks.problem(req, code, out, stdout, GOLDENS) is not None
