"""Seeded request lists for the three benchmark workloads.

A request is one in-process ``starspec.cli.main`` call. Each workload is a
list of requests built from ``(workload, seed)`` alone, followed by the same
five reference checks (``CHECKS``): the three CLI goldens of
``tests/goldens/``, ``verify --n 5`` and a small ``semicircle`` histogram. The
checks run last so that they never warm a cache a workload request relies on
being cold, and they give every layer some work on every workload.

The seed decides the order of requests (except on oracle-verify, see
``_oracle_verify``) and their cosmetic options (format, histogram bins,
moment orders). What sets the cost of a run -- which degrees
are computed cold, and how many walk-oracle requests of each degree there
are -- is fixed per workload, so runs with different seeds measure the same
work and can be compared with each other.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import factorial

WORKLOADS = ("formula-cold", "oracle-verify", "session-mix")
FORMATS = ("json", "csv", "table")

#: Default seed, and the hold-out seed kept back for confirming a claimed gain.
DEFAULT_SEED = 1
HOLDOUT_SEED = 2


@dataclass(frozen=True)
class Request:
    """One CLI call; ``argv`` is completed with ``--out PATH`` when it runs."""

    command: str
    n: int
    fmt: str = "table"
    k_max: int | None = None
    source: str | None = None
    bins: int | None = None
    p_max: int | None = None
    include_zeros: bool = False
    golden: str | None = None  # fixture in tests/goldens/ the output must equal
    check: bool = False  # a reference check, not part of the workload stream

    def argv(self, out: str) -> list[str]:
        args = [self.command, "--n", str(self.n), "--format", self.fmt]
        if self.k_max is not None:
            args += ["--k-max", str(self.k_max)]
        if self.source is not None:
            args += ["--source", self.source]
        if self.bins is not None:
            args += ["--bins", str(self.bins)]
        if self.p_max is not None:
            args += ["--p-max", str(self.p_max)]
        if self.include_zeros:
            args.append("--include-zeros")
        return args + ["--out", out]

    @property
    def uses_walk(self) -> bool:
        """True if the request runs the walk DP of the oracle route."""
        return self.command == "verify" or (
            self.command == "moments" and self.source in (None, "walk")
        )


CHECKS = (
    Request("spectrum", 4, golden="spectrum_n4.txt", check=True),
    Request("bound", 4, golden="bound_n4.txt", check=True),
    Request("moments", 3, k_max=4, golden="moments_n3_kmax4.txt", check=True),
    Request("verify", 5, check=True),
    Request("semicircle", 4, fmt="csv", bins=8, p_max=2, check=True),
)

# formula-cold: degrees at least 2 apart, so no request reuses the hook
# dimensions (shapes of n and n - 1) another request cached. From n = 36 up
# the hook-dimension cache outgrows the processor caches and a round's time
# swung twofold with other tenants' load on a shared 2-vCPU machine; at
# 30..34 a run was half as noisy.
FORMULA_DEGREES = (30, 32, 34)
FORMULA_DEGREES_SMOKE = (8, 10, 12)

ORACLE_DEGREES = tuple(range(1, 10))
ORACLE_DEGREES_SMOKE = tuple(range(1, 6))

# session-mix: share of each command in the stream. No record of how starspec
# is used exists, so these shares, the 1/(n - 1) degree weights (_skewed) and
# the option ranges (_session_request) are assumptions, not measurements. They
# give every command a sizeable share and make almost every request repeat a
# degree (workload.repeat_share 0.990). Walk-oracle commands are capped at
# n <= 7 so a single request stays in the tens of milliseconds.
SESSION_REQUESTS = 3000
SESSION_REQUESTS_SMOKE = 60
SESSION_MIX = (
    ("spectrum", 0.30),
    ("bound", 0.15),
    ("moments-table", 0.15),
    ("semicircle", 0.15),
    ("moments-walk", 0.15),
    ("verify", 0.10),
)
SESSION_TABLE_DEGREES = (2, 30)
SESSION_WALK_DEGREES = (2, 7)
SESSION_SMOKE_TABLE_DEGREES = (2, 10)
SESSION_SMOKE_WALK_DEGREES = (2, 5)


def _quotas(total: int, weights: dict[int, float]) -> dict[int, int]:
    """Split ``total`` in proportion to ``weights`` by largest remainder."""
    scale = total / sum(weights.values())
    exact = {key: w * scale for key, w in weights.items()}
    counts = {key: int(x) for key, x in exact.items()}
    short = total - sum(counts.values())
    for key in sorted(exact, key=lambda k: counts[k] - exact[k])[:short]:
        counts[key] += 1
    return counts


def _skewed(lo: int, hi: int) -> dict[int, float]:
    """Weights 1/(d - lo + 1) on degrees lo..hi, favouring small degrees."""
    return {d: 1.0 / (d - lo + 1) for d in range(lo, hi + 1)}


def _formula_cold(rng: random.Random, smoke: bool) -> list[Request]:
    degrees = list(FORMULA_DEGREES_SMOKE if smoke else FORMULA_DEGREES)
    rng.shuffle(degrees)
    return [Request("spectrum", n, fmt="json") for n in degrees]


def _oracle_verify(rng: random.Random, smoke: bool) -> list[Request]:
    # Ascending, not shuffled: a request that runs after n = 9 reuses the heap
    # n = 9 grew and freed, and small requests then run up to twice as fast,
    # so the order would change the cost of a run.
    degrees = ORACLE_DEGREES_SMOKE if smoke else ORACLE_DEGREES
    return [Request("verify", n, fmt=rng.choice(FORMATS)) for n in degrees]


def _session_request(kind: str, n: int, rng: random.Random) -> Request:
    fmt = rng.choice(FORMATS)
    if kind == "spectrum":
        return Request("spectrum", n, fmt, include_zeros=rng.random() < 0.5)
    if kind == "moments-table":
        return Request("moments", n, fmt, k_max=rng.randint(2, 8), source="table")
    if kind == "moments-walk":
        return Request("moments", n, fmt, k_max=rng.randint(2, 6), source="walk")
    if kind == "semicircle":
        return Request("semicircle", n, fmt, bins=rng.randint(10, 60), p_max=rng.randint(1, 4))
    return Request(kind, n, fmt)


def _session_mix(rng: random.Random, smoke: bool) -> list[Request]:
    total = SESSION_REQUESTS_SMOKE if smoke else SESSION_REQUESTS
    table_range = SESSION_SMOKE_TABLE_DEGREES if smoke else SESSION_TABLE_DEGREES
    walk_range = SESSION_SMOKE_WALK_DEGREES if smoke else SESSION_WALK_DEGREES
    per_kind = _quotas(total, {kind: share for kind, share in SESSION_MIX})
    requests = []
    for kind, count in per_kind.items():
        walk = kind in ("moments-walk", "verify")
        degrees = _skewed(*(walk_range if walk else table_range))
        for n, k in _quotas(count, degrees).items():
            requests += [_session_request(kind, n, rng) for _ in range(k)]
    rng.shuffle(requests)
    return requests


_STREAMS = {
    "formula-cold": _formula_cold,
    "oracle-verify": _oracle_verify,
    "session-mix": _session_mix,
}


def build(workload: str, seed: int, smoke: bool = False) -> list[Request]:
    """Workload requests for ``seed``, followed by the reference checks."""
    rng = random.Random(f"{workload}/{seed}")
    return _STREAMS[workload](rng, smoke) + list(CHECKS)


def _partition_count(n: int) -> int:
    counts = [1] + [0] * n
    for part in range(1, n + 1):
        for total in range(part, n + 1):
            counts[total] += counts[total - part]
    return counts[n]


def properties(requests: list[Request]) -> dict[str, float]:
    """Computed properties of the workload stream (reference checks excluded).

    repeat_share: share of requests whose degree an earlier request in the
    same process already used; distinct_degrees; shapes: sum of p(n) over the
    distinct degrees, the partitions a cold table run enumerates; walk_states:
    sum of n! over requests that run the walk DP.
    """
    stream = [r for r in requests if not r.check]
    seen: set[int] = set()
    repeats = 0
    for r in stream:
        repeats += r.n in seen
        seen.add(r.n)
    return {
        "workload.repeat_share": repeats / len(stream),
        "workload.distinct_degrees": len(seen),
        "workload.shapes": sum(_partition_count(n) for n in seen),
        "workload.walk_states": sum(factorial(r.n) for r in stream if r.uses_walk),
    }
