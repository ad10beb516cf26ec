"""Paths, metric names, the host calibration and answer tallies shared by
the benchmark's modules.

Host calibration: the reference host drifts by up to +-20% within
seconds (a fixed slice of pure-Python and NumPy work takes 17 to 30 ms
from one second to the next, in CPU time as well as wall time).  Every
timed operation therefore runs between reference slices, and each time is
reported at the reference speed: ``seconds * REF_NOMINAL_MS / local``,
where ``local`` is the median of the slices nearest the operation.  The
raw values go into the run's information line next to the calibrated
ones.
"""

from __future__ import annotations

import os
import statistics
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CACHE = HERE / ".cache"

#: the reference slice's time on the reference host at its usual speed
REF_NOMINAL_MS = 20.0
#: the nearest reference slices whose median calibrates one operation
REF_WINDOW = 5

#: the end-to-end metrics every workload reports (untraced run)
E2E = {"setup_s": "s", "throughput_per_s": "1/s", "latency_ms.p50": "ms",
       "latency_ms.p90": "ms", "latency_ms.p99": "ms", "correct_frac": "frac",
       "peak_rss_mb": "MB"}

PIPELINE_STAGES = ("binarize", "leftist", "reduce", "brackets", "pseudo",
                   "legalize", "compress", "extract")

#: every per-layer metric (traced run): (name, unit, better).  A layer a
#: workload does not exercise reports 0.
LAYERS = [
    ("ingest.text_ms", "ms", "lower"), ("ingest.json_ms", "ms", "lower"),
    ("ingest.edges_ms", "ms", "lower"), ("ingest.wire_ms", "ms", "lower"),
    ("ingest.share", "frac", "lower"),
    *[(f"pipeline.{s}_ms", "ms", "lower") for s in PIPELINE_STAGES],
    ("dp.sweep_ms", "ms", "lower"), ("dp.witness_ms", "ms", "lower"),
    ("pram.solve_ms", "ms", "lower"),
    ("cache.key_ms", "ms", "lower"), ("cache.lookup_ms", "ms", "lower"),
    ("cache.hit_ratio", "frac", "higher"), ("cache.hits", "count", "higher"),
    ("cache.misses", "count", "lower"),
    ("server.parse_ms", "ms", "lower"), ("server.dispatch_ms", "ms", "lower"),
    ("server.transport_ms", "ms", "lower"),
    ("server.status_2xx", "count", "higher"),
    ("server.status_4xx", "count", "lower"),
    ("server.status_5xx", "count", "lower"),
    ("server.internal_errors", "count", "lower"),
    ("server.breaker_opens", "count", "lower"),
    ("server.breaker_rejections", "count", "lower"),
    ("pool.handoff_ms", "ms", "lower"), ("pool.restarts", "count", "lower"),
    ("pool.retries", "count", "lower"), ("pool.quarantined", "count", "lower"),
    ("forest.batch_ms", "ms", "lower"), ("response.encode_ms", "ms", "lower"),
    ("trace.unattributed_frac", "frac", "lower"),
    ("trace.overhead_frac", "frac", "lower"),
    ("host.ref_ms", "ms", "lower"),
]


def layer_defaults() -> dict:
    return {name: 0.0 for name, _, _ in LAYERS}


def child_env() -> dict:
    """The environment of every process that runs the program."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(HERE)] + ([env["PYTHONPATH"]]
                                 if env.get("PYTHONPATH") else []))
    return env


# --------------------------------------------------------------------------- #
# host calibration
# --------------------------------------------------------------------------- #

def reference_ms() -> float:
    """A fixed slice of pure-Python and NumPy work, independent of the
    program under test: its time tracks the host's speed."""
    import numpy as np
    t0 = time.perf_counter()
    acc = 0
    for i in range(200_000):
        acc += i * i % 7
    np.sort(np.random.default_rng(0).random(300_000))
    return (time.perf_counter() - t0) * 1e3


def factors(n: int, refs) -> list:
    """Per-operation scale to the reference speed.  ``refs`` holds
    ``(position, ms)`` pairs: a slice run before operation ``position``."""
    positions = [p for p, _ in refs]
    values = [ms for _, ms in refs]
    out, j = [], 0
    half = REF_WINDOW // 2
    for i in range(n):
        while j < len(positions) and positions[j] <= i:
            j += 1
        lo = max(0, min(j - half - 1, len(values) - REF_WINDOW))
        out.append(REF_NOMINAL_MS / statistics.median(
            values[lo:lo + REF_WINDOW]))
    return out


def calibrated_setup(samples: int, one) -> tuple:
    """Median set-up time over ``samples`` calls of ``one()``, each scaled
    by a reference slice taken just before it: ``(calibrated, raw)``."""
    raw, scaled = [], []
    for _ in range(samples):
        factor = REF_NOMINAL_MS / reference_ms()
        raw.append(one())
        scaled.append(raw[-1] * factor)
    return statistics.median(scaled), statistics.median(raw)


# --------------------------------------------------------------------------- #
# statistics and tallies
# --------------------------------------------------------------------------- #

def mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def quantile(values, q: float) -> float:
    """The Harrell-Davis estimate of the ``q`` quantile: a weighted mean of
    all order statistics with Beta((n+1)q, (n+1)(1-q)) weights.  Near the
    tail it averages the few largest values instead of interpolating
    between two, which steadies p99 when only a handful of operations lie
    beyond it."""
    import numpy as np
    from scipy.special import betainc
    x = np.sort(np.asarray(values, dtype=float))
    n = len(x)
    edges = betainc(q * (n + 1), (1 - q) * (n + 1), np.arange(n + 1) / n)
    return float(np.diff(edges) @ x)


def latency_metrics(seconds: list) -> dict:
    ms = [s * 1e3 for s in seconds]
    return {f"latency_ms.p{q}": quantile(ms, q / 100) for q in (50, 90, 99)}


def stage_means(stage_dicts, scale=None) -> dict:
    """Mean ms per operation that ran each pipeline stage / DP step."""
    stage_dicts = list(stage_dicts)
    scale = scale or [1.0] * len(stage_dicts)
    names = [(f"pipeline.{s}_ms", s) for s in PIPELINE_STAGES]
    names += [("dp.sweep_ms", "dp"), ("dp.witness_ms", "witness")]
    return {metric: mean(d[key] * f for d, f in zip(stage_dicts, scale)
                         if key in d) * 1e3
            for metric, key in names}


class Tally:
    """Per-operation outcomes: correct, or failed with a cause."""

    def __init__(self) -> None:
        self.attempted = 0
        self.ok = 0
        self.causes: dict = {}
        self.unexpected = 0             # failures outside the known class

    def add(self, ok: bool, cause: str = "", expected_failure: bool = False):
        self.attempted += 1
        if ok:
            self.ok += 1
            return
        self.causes[cause] = self.causes.get(cause, 0) + 1
        if not expected_failure:
            self.unexpected += 1

    def flag(self, cause: str) -> None:
        """A problem that is not one operation's answer, such as traced
        and untraced answers that differ: the run is not correct."""
        self.causes[cause] = self.causes.get(cause, 0) + 1
        self.unexpected += 1

    @property
    def failed(self) -> int:
        return self.attempted - self.ok
