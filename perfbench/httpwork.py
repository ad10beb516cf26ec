"""The ``http_mixed`` workload: ``python -m repro serve`` under two
closed-loop keep-alive connections.

Both runs replay the request list from a cold cache and read the
server's own counters (``/metrics``, ``/healthz``) before and after.  The
untraced run first times set-up: spawning the server until every pool
worker has answered a solve.  The traced run then drives a fresh
in-process ``ServerApp`` with the same requests, timing ``dispatch`` and,
as separate calls, the layers inside it: request parsing, the cache key
and lookup, the solve itself and the response encoding.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import logging
import os
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time

from common import CACHE, ROOT, Tally, calibrated_setup, child_env, factors, \
    latency_metrics, layer_defaults, mean, reference_ms, stage_means

#: two small instances solved concurrently to prove both workers answer
WARM_SIZES = (400, 401)
#: requests between two reference slices; the slice runs while both
#: connections are idle, so it times the host and not the server
SEGMENT = 50


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def _headers(op: dict) -> dict:
    return {"Content-Type": "application/octet-stream" if op["binary"]
            else "application/json"}


class Server:
    """One ``python -m repro serve`` process with default settings."""

    def __init__(self) -> None:
        self.port = _free_port()
        self.log = CACHE / f"serve-{os.getpid()}.log"
        self.proc = None

    def start(self, warm_ops) -> float:
        """Spawn, wait for ``/healthz``, solve ``warm_ops`` concurrently;
        returns the seconds all of that took."""
        t0 = time.perf_counter()
        with open(self.log, "ab") as log:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--port",
                 str(self.port)], cwd=ROOT, env=child_env(),
                stdout=subprocess.DEVNULL, stderr=log, process_group=0)
        deadline = time.monotonic() + 60
        while True:
            try:
                status, _ = self.get("/healthz")
                if status == 200:
                    break
            except OSError:
                pass
            if self.proc.poll() is not None or time.monotonic() > deadline:
                raise RuntimeError("server did not start:\n"
                                   + self.log.read_text()[-2000:])
            time.sleep(0.005)
        results = drive(self.port, warm_ops)["results"]
        if any(status != 200 for status, _, _ in results):
            raise RuntimeError("warm-up solve failed")
        return time.perf_counter() - t0

    def get(self, path: str):
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
        try:
            conn.request("GET", path)
            resp = conn.getresponse()
            return resp.status, resp.read()
        finally:
            conn.close()

    def counters(self) -> dict:
        """The server's own counters: ``/metrics`` samples plus the pool
        and breaker sections of ``/healthz``."""
        _, text = self.get("/metrics")
        out = {}
        for line in text.decode().splitlines():
            if line and not line.startswith("#"):
                name, _, value = line.rpartition(" ")
                out[name] = float(value)
        _, body = self.get("/healthz")
        health = json.loads(body)
        for key, value in health["pool"].items():
            out[f"healthz.pool.{key}"] = float(value)
        out["healthz.breaker.opened_total"] = float(
            (health.get("breaker") or {}).get("opened_total", 0))
        return out

    def peak_rss_mb(self) -> float:
        """Summed peak resident memory of the server and its workers."""
        total = 0
        for pid in _process_tree(self.proc.pid):
            try:
                with open(f"/proc/{pid}/status") as fh:
                    for line in fh:
                        if line.startswith("VmHWM:"):
                            total += int(line.split()[1])
            except OSError:
                pass
        return total / 1024

    def stop(self) -> None:
        if self.proc is None:
            return
        workers = _process_tree(self.proc.pid)[1:]
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                os.killpg(self.proc.pid, signal.SIGKILL)
                self.proc.wait()
        _reap(workers)
        self.proc = None


def _reap(pids: list, timeout: float = 10.0) -> None:
    """Kill any of the server's workers that outlived it and wait until
    each has ended (they are not our children, so poll ``/proc``)."""
    deadline = time.monotonic() + timeout
    while True:
        alive = [p for p in pids if _running(p)]
        if not alive or time.monotonic() > deadline:
            return
        for p in alive:
            try:
                os.kill(p, signal.SIGKILL)
            except OSError:
                pass
        time.sleep(0.02)


def _running(pid: int) -> bool:
    """Is ``pid`` a live process (not gone, not a zombie)?"""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rpartition(")")[2].split()[0] != "Z"
    except OSError:
        return False


def _process_tree(pid: int) -> list:
    out, todo = [], [pid]
    while todo:
        p = todo.pop()
        out.append(p)
        try:
            with open(f"/proc/{p}/task/{p}/children") as fh:
                todo.extend(int(c) for c in fh.read().split())
        except OSError:
            pass
    return out


def drive(port: int, ops: list, segment: int = 0) -> dict:
    """Send every request on its connection: one thread per connection,
    each waiting for a reply before its next request (closed loop).

    With ``segment`` set, the connections meet after every ``segment``
    requests and a reference slice times the host before they go on.
    Returns ``results`` (``(status, body, seconds)`` per request), the
    ``walls`` of the segments and the ``refs`` (``(position, ms)``).
    """
    n = len(ops)
    calibrate = 0 < segment < n
    bounds = list(range(0, n, segment if calibrate else n)) + [n]
    out = {"results": [None] * n, "walls": [], "refs": []}
    conns = sorted({op["conn"] for op in ops})
    errors = []
    start = [0.0]

    def segment_done():         # runs once, while every connection waits
        out["walls"].append(time.perf_counter() - start[0])
        if calibrate and len(out["walls"]) < len(bounds) - 1:
            out["refs"].append((bounds[len(out["walls"])], reference_ms()))
        start[0] = time.perf_counter()

    barrier = threading.Barrier(len(conns), action=segment_done)

    def lane(c):
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
        try:
            for lo, hi in zip(bounds, bounds[1:]):
                for i in range(lo, hi):
                    op = ops[i]
                    if op["conn"] != c:
                        continue
                    t0 = time.perf_counter()
                    conn.request("POST", op["path"], op["body"],
                                 _headers(op))
                    resp = conn.getresponse()
                    body = resp.read()
                    out["results"][i] = (resp.status, body,
                                         time.perf_counter() - t0)
                barrier.wait(timeout=120)
        except Exception as exc:    # reported below; never hangs the run
            errors.append(exc)
            barrier.abort()
        finally:
            conn.close()

    if calibrate:
        out["refs"].append((0, reference_ms()))
    threads = [threading.Thread(target=lane, args=(c,)) for c in conns]
    start[0] = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        raise RuntimeError(f"client connection failed: {errors[0]!r}")
    return out


def _warm_ops() -> list:
    import numpy as np
    import gen
    rng = np.random.default_rng(0)
    return [{"path": "/v1/solve", "binary": False, "conn": c,
             "body": json.dumps({"problem": gen.to_text(
                 gen.random_tree(rng, n))}).encode()}
            for c, n in enumerate(WARM_SIZES)]


# --------------------------------------------------------------------------- #
# checking answers
# --------------------------------------------------------------------------- #

def check(data: dict, results: list) -> Tally:
    from oracle import NON_ADJACENT, TreeIndex, summarize
    tally = Tally()
    index: dict = {}

    def why(t: int, task: str, answer) -> str:
        if t not in index:
            index[t] = TreeIndex(data["trees"][t])
        value, witness = summarize(task, answer)
        return index[t].check(task, value, witness,
                              data["expected"][t][task])

    for op, (status, body, _) in zip(data["ops"], results):
        label = op["kind"] if op["kind"] in ("batch", "malformed") else \
            f"{'wire' if op['binary'] else 'text'}" \
            f"{' deep' if op['deep'] else ''} {op['task']}"
        if op["expect"] == "4xx":
            tally.add(400 <= status < 500, f"{label}: HTTP {status}")
        elif status != 200:
            tally.add(False, f"{label}: HTTP {status}",
                      op["expect"] == "fail")
        else:
            answers = ([s["answer"] for s in json.loads(body)["solutions"]]
                       if op["kind"] == "batch"
                       else [json.loads(body)["answer"]])
            reasons = [why(t, op["task"], a)
                       for t, a in zip(op["trees"], answers)]
            if len(answers) != len(op["trees"]):
                reasons.append("missing solutions")
            bad = [r for r in reasons if r]
            tally.add(not bad, f"{label}: {bad[0] if bad else ''}",
                      bool(bad) and set(bad) == {NON_ADJACENT})
    return tally


# --------------------------------------------------------------------------- #
# the server's own counters
# --------------------------------------------------------------------------- #

def counter_layers(before: dict, after: dict) -> tuple:
    def delta(name):
        return after.get(name, 0.0) - before.get(name, 0.0)

    def status_class(digit: str):
        return sum(delta(k) for k in after
                   if k.startswith("repro_requests_total{")
                   and f'status="{digit}' in k
                   and 'task="healthz"' not in k and 'task="metrics"' not in k)

    hits = delta("repro_cache_hits_total")
    misses = delta("repro_cache_misses_total")
    out = {"cache.hits": hits, "cache.misses": misses,
           "cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
           "server.status_2xx": status_class("2"),
           "server.status_4xx": status_class("4"),
           "server.status_5xx": status_class("5"),
           "server.internal_errors": delta("repro_internal_errors_total"),
           "server.breaker_opens": delta("repro_breaker_opened_total"),
           "server.breaker_rejections":
               delta("repro_breaker_rejections_total"),
           "pool.restarts": delta("healthz.pool.restarts"),
           "pool.retries": delta("healthz.pool.retries"),
           "pool.quarantined": delta("healthz.pool.quarantined")}
    flags = []
    if out["server.breaker_opens"] or delta("healthz.breaker.opened_total"):
        flags.append(f"circuit breaker opened "
                     f"{int(out['server.breaker_opens'])} time(s)")
    if out["pool.restarts"]:
        flags.append(f"worker pool restarted {int(out['pool.restarts'])} "
                     f"time(s)")
    return out, flags


# --------------------------------------------------------------------------- #
# the runs
# --------------------------------------------------------------------------- #

def run(data: dict, trace: bool, setup_samples: int) -> tuple:
    """The untraced (end-to-end) or traced (per-layer) run."""
    warm = _warm_ops()
    servers: list = []

    def start_server() -> float:
        if servers:
            servers[-1].stop()
        servers.append(Server())
        return servers[-1].start(warm)

    raw: dict = {}
    metrics: dict = {}
    try:
        if trace:
            start_server()
        else:
            metrics["setup_s"], raw["setup_s"] = calibrated_setup(
                setup_samples, start_server)
        server = servers[-1]
        before = server.counters()
        timed = drive(server.port, data["ops"], SEGMENT)
        after = server.counters()
        rss = server.peak_rss_mb()
    finally:
        for server in servers:
            server.stop()
            server.log.unlink(missing_ok=True)
    results = timed["results"]
    tally = check(data, results)
    layers, raw["flags"] = counter_layers(before, after)
    lat = [seconds for _, _, seconds in results]
    scale = factors(len(lat), timed["refs"])
    scaled = [s * f for s, f in zip(lat, scale)]
    seg_starts = [p for p, _ in timed["refs"]]
    wall = sum(w * scale[p] for w, p in zip(timed["walls"], seg_starts))
    if trace:
        metrics = layer_defaults()
        metrics.update(layers)
        metrics.update(asyncio.run(_in_process(data, scaled, wall, tally)))
        return metrics, tally, raw
    metrics["throughput_per_s"] = len(lat) / wall
    metrics.update(latency_metrics(scaled))
    metrics["correct_frac"] = tally.ok / tally.attempted
    metrics["peak_rss_mb"] = rss
    raw["throughput_per_s"] = len(lat) / sum(timed["walls"])
    raw.update(latency_metrics(lat))
    raw["host.ref_ms"] = statistics.median(ms for _, ms in timed["refs"])
    return metrics, tally, raw


async def _in_process(data: dict, http_latency: list, http_wall: float,
                      http_tally: Tally) -> dict:
    """Per-layer times from a fresh in-process ``ServerApp`` driven with the
    same requests: ``dispatch`` as a whole, and the layers inside it as
    separate calls.  All times at reference speed."""
    from repro.api import SolutionCache, as_problem, solve
    from repro.server.app import ServerApp
    from repro.server.logging_config import get_logger
    from repro.server.schemas import parse_solve_request, \
        parse_wire_solve_request
    from repro.server.settings import Settings

    # the deep-text 500s log tracebacks; the untraced server keeps them in
    # its log, the in-process pass drops them
    get_logger().addHandler(logging.NullHandler())
    app = ServerApp(Settings(port=0))
    shadow = SolutionCache(Settings().cache_size)
    probes = (shadow, parse_solve_request, parse_wire_solve_request,
              as_problem, solve)
    app.pool.warm_up()
    ops = data["ops"]
    refs, records, responses = [], [], []
    try:
        for i, op in enumerate(ops):
            if i % SEGMENT == 0:
                refs.append((i, reference_ms()))
            t0 = time.perf_counter()
            response = await app.dispatch(
                "POST", op["path"], op["body"],
                {k.lower(): v for k, v in _headers(op).items()})
            dispatch = time.perf_counter() - t0
            responses.append((response.status, response.body, dispatch))
            spans = {"dispatch": dispatch}
            if op["kind"] != "batch":
                spans.update(_probe(op, response, *probes))
            records.append(spans)
    finally:
        app.close()
    refs.append((len(ops), reference_ms()))
    if check(data, responses).causes != http_tally.causes:
        http_tally.flag("in-process answers differ from HTTP answers")

    scale = factors(len(ops), refs)
    acc: dict = {}
    total = unattributed = 0.0
    stages, stage_scale = [], []
    for op, spans, latency, f in zip(ops, records, http_latency, scale):
        dispatch = spans["dispatch"] * f
        total += spans["dispatch"] * f
        acc.setdefault("dispatch", []).append(dispatch)
        acc.setdefault("transport", []).append(latency - dispatch)
        if op["kind"] == "batch":
            acc.setdefault("batch", []).append(dispatch)
            continue
        for name in ("parse", "key", "lookup", "encode", "text", "wire"):
            if name in spans:
                acc.setdefault(name, []).append(spans[name] * f)
                total += spans[name] * f
        attributed = sum(spans.get(k, 0.0) * f
                         for k in ("parse", "key", "lookup", "encode"))
        if "solve" in spans:
            total += spans["solve"] * f
            stages.append(spans["stages"])
            stage_scale.append(f)
            if op.get("plain"):
                acc.setdefault("pram", []).append(spans["solve"] * f)
            if spans["app_missed"]:
                handoff = dispatch - attributed - spans["solve"] * f
                acc.setdefault("handoff", []).append(handoff)
                attributed += spans["solve"] * f + handoff
        unattributed += dispatch - attributed

    def ms(name):
        return mean(acc.get(name, [])) * 1e3

    ingest = sum(acc.get("text", [])) + sum(acc.get("wire", []))
    out = {"server.dispatch_ms": ms("dispatch"),
           "server.parse_ms": ms("parse"),
           "server.transport_ms": ms("transport"),
           "cache.key_ms": ms("key"), "cache.lookup_ms": ms("lookup"),
           "response.encode_ms": ms("encode"),
           "pool.handoff_ms": ms("handoff"), "pram.solve_ms": ms("pram"),
           "forest.batch_ms": ms("batch"),
           "ingest.text_ms": ms("text"), "ingest.wire_ms": ms("wire"),
           "ingest.share": ingest / sum(http_latency),
           "trace.unattributed_frac": unattributed / sum(http_latency),
           "trace.overhead_frac": total / http_wall - 1,
           "host.ref_ms": statistics.median(v for _, v in refs)}
    out.update(stage_means(stages, stage_scale))
    return out


def _probe(op, response, shadow, parse_solve_request,
           parse_wire_solve_request, as_problem, solve) -> dict:
    """Time the layers of one ``/v1/solve`` request as separate calls."""
    spans: dict = {}
    query = op["path"].partition("?")[2]
    t0 = time.perf_counter()
    try:
        if op["binary"]:
            req = parse_wire_solve_request(op["body"], query)
        else:
            record = json.loads(op["body"])
            req = parse_solve_request(record)
    except Exception:               # malformed or deep: parse is the layer
        spans["parse"] = time.perf_counter() - t0
        return spans
    spans["parse"] = time.perf_counter() - t0
    fmt = "wire" if op["binary"] else "text"
    t0 = time.perf_counter()
    as_problem(op["body"] if op["binary"] else record["problem"],
               task=req.task)
    spans[fmt] = time.perf_counter() - t0
    t0 = time.perf_counter()
    key = shadow.key_for(req.problem, req.task, req.options)
    spans["key"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    solution = shadow.get(key)
    spans["lookup"] = time.perf_counter() - t0
    if solution is None:
        t0 = time.perf_counter()
        solution = solve(req.problem, req.task,
                         options=req.options).without_machine()
        spans["solve"] = time.perf_counter() - t0
        spans["stages"] = dict(solution.stage_seconds or {})
        shadow.put(key, solution)
        provenance = json.loads(response.body).get("provenance", {}) \
            if response.status == 200 else {}
        spans["app_missed"] = provenance.get("cache") == "miss"
    t0 = time.perf_counter()
    json.dumps(solution.to_json_dict())
    spans["encode"] = time.perf_counter() - t0
    return spans
