"""The library workloads' timed phase, run in a fresh interpreter.

    python perfbench/libphase.py setup SETUP.pkl
    python perfbench/libphase.py plain|traced IN.pkl OUT.pkl

``setup`` prints the seconds from ``import repro`` to the answer of one
``solve()``.  ``plain`` runs the operation list once through ``solve()``
and records each operation's latency and answer; ``traced`` runs the plain
pass and then a traced pass that times ingestion apart from the solve.
Both passes interleave reference slices that time the host.  ``repro``
and the benchmark's modules must be importable (``PYTHONPATH``).

Only the standard library is imported at module level, so ``setup`` times
every import ``repro`` needs, NumPy included.
"""

from __future__ import annotations

import gc
import json
import pickle
import resource
import sys
import time


def _decoded(fmt: str, payload):
    """The value handed to ``solve()``: JSON formats are decoded inside the
    operation, text and wire bytes are passed as they are."""
    return json.loads(payload) if fmt in ("json", "edges") else payload


def _setup(path: str) -> None:
    with open(path, "rb") as fh:
        fmt, payload, task, options = pickle.load(fh)
    t0 = time.perf_counter()
    import repro
    repro.solve(_decoded(fmt, payload), task, **(options or {}))
    print(repr(time.perf_counter() - t0))


#: seconds of operations between two reference slices
REF_EVERY_S = 0.3


class _Refs:
    """Reference slices interleaved with the operations (see common.py)."""

    def __init__(self) -> None:
        from common import reference_ms
        self.sample = reference_ms
        self.refs = []
        self.since = 0.0

    def before(self, position: int, last_op_s: float) -> None:
        self.since += last_op_s
        if not self.refs or self.since >= REF_EVERY_S:
            self.refs.append((position, self.sample()))
            self.since = 0.0


def _plain_pass(ops, summarize):
    """One ``solve()`` per operation: ``(latencies, answers, refs)``."""
    from repro import solve
    latency, answers, refs = [], [], _Refs()
    for i, (fmt, payload, task, options) in enumerate(ops):
        refs.before(i, latency[-1] if latency else 0.0)
        t0 = time.perf_counter()
        try:
            answer = solve(_decoded(fmt, payload), task,
                           **(options or {})).answer
        except Exception as exc:    # a failed operation is a data point
            latency.append(time.perf_counter() - t0)
            answers.append(type(exc).__name__)
            continue
        latency.append(time.perf_counter() - t0)
        answers.append(summarize(task, answer))
    refs.before(len(ops), REF_EVERY_S)
    return latency, answers, refs.refs


def _traced_pass(ops, summarize):
    """Ingestion (``as_problem`` plus the adaptation to the solver's tree)
    timed apart from the solve: ``(spans, answers, refs)``."""
    from repro import solve
    from repro.api import as_problem
    spans, answers, refs = [], [], _Refs()
    for i, (fmt, payload, task, options) in enumerate(ops):
        refs.before(i, spans[-1]["total"] if spans else 0.0)
        t0 = time.perf_counter()
        ingest = 0.0
        stages, error = {}, None
        try:
            problem = as_problem(_decoded(fmt, payload), task=task)
            problem.pipeline_tree()     # edge lists: cograph recognition
            ingest = time.perf_counter() - t0
            solution = solve(problem, task, **(options or {}))
            stages = dict(solution.stage_seconds or {})
        except Exception as exc:    # a failed operation is a data point
            error = type(exc).__name__
            ingest = ingest or time.perf_counter() - t0
        spans.append({"fmt": fmt, "task": task,
                      "total": time.perf_counter() - t0, "ingest": ingest,
                      "stages": stages})
        answers.append(error if error else summarize(task,
                                                     solution.answer))
    refs.before(len(ops), REF_EVERY_S)
    return spans, answers, refs.refs


def _run(mode: str, in_path: str, out_path: str) -> None:
    from oracle import summarize
    with open(in_path, "rb") as fh:
        job = pickle.load(fh)
    ops = job["ops"]
    _plain_pass(job["warm"], summarize)         # lazy imports, first calls
    gc.collect()
    out = {}
    out["latency"], out["answers"], out["refs"] = _plain_pass(ops, summarize)
    out["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if mode == "traced":
        gc.collect()
        out["spans"], out["traced_answers"], out["traced_refs"] = \
            _traced_pass(ops, summarize)
    with open(out_path, "wb") as fh:
        pickle.dump(out, fh, protocol=pickle.HIGHEST_PROTOCOL)


if __name__ == "__main__":
    if sys.argv[1] == "setup":
        _setup(sys.argv[2])
    else:
        _run(sys.argv[1], sys.argv[2], sys.argv[3])
