"""The repository's benchmark: one command, three workloads.

    python3 perfbench/run.py --workload lib_ingest|lib_wire|http_mixed \\
        --seed N --seconds S --trace 0|1

Run from the repository root.  The program under test is imported from
``src/``; nothing needs building.  Each run

1. builds the seed's inputs (cached under ``perfbench/.cache``) and their
   expected answers, before any clock starts;
2. with ``--trace 0`` measures the end-to-end metrics (set-up time,
   throughput, latency percentiles, correct share, peak memory); with
   ``--trace 1`` measures the per-layer breakdown instead;
3. checks every answer against the expected one and every witness
   (path cover, vertex set, colouring) against the instance;
4. prints one information line (input digest, failures by cause, raw
   times before host calibration, flags) and, as the last line, the result
   ``{"correct", "attempted", "failed", "metrics"}``.

See ``perfbench/README.md`` for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pickle
import statistics
import subprocess
import sys
from pathlib import Path

sys.path[:0] = [str(Path(__file__).resolve().parent)]

from common import (  # noqa: E402
    CACHE, E2E, HERE, LAYERS, ROOT, SRC, Tally, calibrated_setup, child_env,
    factors, latency_metrics, layer_defaults, mean, stage_means)

sys.path.insert(1, str(SRC))

#: fresh-interpreter set-up samples per run (the median is reported)
SETUP_SAMPLES = {"lib_ingest": 7, "lib_wire": 7, "http_mixed": 5}
ORACLE_PROCS = 2


# --------------------------------------------------------------------------- #
# inputs and expected answers (built once per seed, before any clock)
# --------------------------------------------------------------------------- #

def oracle_jobs(data: dict) -> dict:
    """``{tree index: sorted tasks}`` every operation needs answered."""
    need: dict = {}
    for op in data["ops"]:
        for t in op["trees"] if "trees" in op else [op["tree"]]:
            need.setdefault(t, set()).add(op["task"])
    return {t: sorted(tasks) for t, tasks in need.items()}


def _source_digest() -> str:
    """Cached inputs are keyed by the code that makes them."""
    h = hashlib.sha256()
    for name in ("gen.py", "workloads.py", "oracle.py"):
        h.update((HERE / name).read_bytes())
    return h.hexdigest()[:12]


def load_inputs(workload: str, seed: int, seconds: int) -> dict:
    import workloads
    CACHE.mkdir(exist_ok=True)
    path = CACHE / f"{workload}-{seed}-{seconds}-{_source_digest()}.pkl"
    if path.exists():
        with open(path, "rb") as fh:
            return pickle.load(fh)
    data = workloads.build(workload, seed, seconds)
    jobs = sorted(oracle_jobs(data).items(),
                  key=lambda kv: -len(data["trees"][kv[0]]["kind"]))
    chunks = [jobs[i::ORACLE_PROCS] for i in range(ORACLE_PROCS)]
    results = _oracle_children(
        [[(data["trees"][t], tasks) for t, tasks in c] for c in chunks])
    data["expected"] = {t: answer for c, r in zip(chunks, results)
                        for (t, _), answer in zip(c, r)}
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    with open(tmp, "wb") as fh:
        pickle.dump(data, fh, protocol=pickle.HIGHEST_PROTOCOL)
    os.replace(tmp, path)
    return data


def _oracle_children(chunks: list) -> list:
    """``oracle.expected_many`` of each chunk, one child interpreter per
    chunk running at once.  Plain child processes rather than a
    multiprocessing pool, which would leave its resource-tracker process
    behind the benchmark's exit; every child is waited for on every path
    out."""
    files = [(CACHE / f"oracle-{os.getpid()}-{i}.in.pkl",
              CACHE / f"oracle-{os.getpid()}-{i}.out.pkl")
             for i in range(len(chunks))]
    procs = []
    try:
        for chunk, (in_path, out_path) in zip(chunks, files):
            with open(in_path, "wb") as fh:
                pickle.dump(chunk, fh, protocol=pickle.HIGHEST_PROTOCOL)
            procs.append(subprocess.Popen(
                [sys.executable, str(HERE / "oracle.py"), str(in_path),
                 str(out_path)], env=child_env(), cwd=ROOT))
        for proc in procs:
            if proc.wait(timeout=170) != 0:
                raise RuntimeError(f"oracle worker exited {proc.returncode}")
        results = []
        for _, out_path in files:
            with open(out_path, "rb") as fh:
                results.append(pickle.load(fh))
        return results
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
        for paths in files:
            for p in paths:
                p.unlink(missing_ok=True)


# --------------------------------------------------------------------------- #
# library workloads
# --------------------------------------------------------------------------- #

def check_lib_answers(data: dict, answers: list) -> Tally:
    from oracle import NON_ADJACENT, TreeIndex
    tally = Tally()
    index: dict = {}
    for op, answer in zip(data["ops"], answers):
        label = f"{op['fmt']}{' deep' if op['deep'] else ''} {op['task']}"
        if isinstance(answer, str):
            tally.add(False, f"{label}: {answer}", op["expect_fail"])
            continue
        t = op["tree"]
        if t not in index:
            index[t] = TreeIndex(data["trees"][t])
        value, witness = answer
        why = index[t].check(op["task"], value, witness,
                             data["expected"][t][op["task"]])
        tally.add(not why, f"{label}: {why}", why == NON_ADJACENT)
    return tally


def _warm_ops(workload: str) -> list:
    """Small instances in the workload's formats and tasks, run untimed."""
    import numpy as np
    import gen
    import workloads
    rng = np.random.default_rng(0)
    tree = gen.random_tree(rng, 300)
    if workload == "lib_wire":
        return [("wire", gen.to_wire(tree), task, workloads.FAST)
                for task in sorted(set(workloads.WIRE_TASKS))]
    payloads = {"text": gen.to_text(tree), "json": gen.to_json(tree),
                "edges": gen.edges_json(gen.random_tree(rng, 60))}
    return [(fmt, payload, task, opts) for fmt, payload in payloads.items()
            for task, opts in workloads.INGEST_TASKS]


def _child(*args) -> str:
    proc = subprocess.run(
        [sys.executable, str(HERE / "libphase.py"), *args], env=child_env(),
        cwd=ROOT, stdout=subprocess.PIPE, timeout=170, check=True)
    return proc.stdout.decode()


def run_lib(workload: str, data: dict, trace: bool) -> tuple:
    job = {"ops": [(op["fmt"], op["payload"], op["task"], op["options"])
                   for op in data["ops"]],
           "warm": _warm_ops(workload)}
    paths = {k: CACHE / f"phase-{os.getpid()}.{k}.pkl"
             for k in ("in", "out", "setup")}
    metrics, raw = {}, {}
    try:
        with open(paths["in"], "wb") as fh:
            pickle.dump(job, fh, protocol=pickle.HIGHEST_PROTOCOL)
        if not trace:
            with open(paths["setup"], "wb") as fh:
                pickle.dump(job["warm"][0], fh)
            metrics["setup_s"], raw["setup_s"] = calibrated_setup(
                SETUP_SAMPLES[workload],
                lambda: float(_child("setup", str(paths["setup"]))))
        _child("traced" if trace else "plain", str(paths["in"]),
               str(paths["out"]))
        with open(paths["out"], "rb") as fh:
            out = pickle.load(fh)
    finally:
        for p in paths.values():
            p.unlink(missing_ok=True)
    tally = check_lib_answers(data, out["answers"])
    lat = out["latency"]
    scale = factors(len(lat), out["refs"])
    scaled = [s * f for s, f in zip(lat, scale)]
    if trace:
        from oracle import same_answer
        if not all(map(same_answer, out["traced_answers"], out["answers"])):
            tally.flag("traced answers differ from untraced")
        return lib_layers(out, sum(scaled)), tally, raw
    metrics["throughput_per_s"] = len(lat) / sum(scaled)
    metrics.update(latency_metrics(scaled))
    metrics["correct_frac"] = tally.ok / tally.attempted
    metrics["peak_rss_mb"] = out["rss_mb"]
    raw["throughput_per_s"] = len(lat) / sum(lat)
    raw.update(latency_metrics(lat))
    raw["host.ref_ms"] = statistics.median(ms for _, ms in out["refs"])
    return metrics, tally, raw


def lib_layers(out: dict, plain_total: float) -> dict:
    """Per-layer means (ms per operation at reference speed)."""
    spans = out["spans"]
    scale = factors(len(spans), out["traced_refs"])
    total = sum(s["total"] * f for s, f in zip(spans, scale))
    ingest = sum(s["ingest"] * f for s, f in zip(spans, scale))
    staged = sum(sum(s["stages"].values()) * f for s, f in zip(spans, scale))
    metrics = layer_defaults()
    for fmt in ("text", "json", "edges", "wire"):
        metrics[f"ingest.{fmt}_ms"] = mean(
            s["ingest"] * f for s, f in zip(spans, scale)
            if s["fmt"] == fmt) * 1e3
    metrics["ingest.share"] = ingest / total
    metrics.update(stage_means([s["stages"] for s in spans], scale))
    metrics["trace.unattributed_frac"] = (total - ingest - staged) / total
    metrics["trace.overhead_frac"] = total / plain_total - 1
    metrics["host.ref_ms"] = statistics.median(
        ms for _, ms in out["refs"] + out["traced_refs"])
    return metrics


# --------------------------------------------------------------------------- #
# the command
# --------------------------------------------------------------------------- #

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("lib_ingest", "lib_wire", "http_mixed"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the program under test is missing ({SRC / 'repro'} "
              f"not found); run from a full checkout", file=sys.stderr)
        return 2

    data = load_inputs(args.workload, args.seed, args.seconds)
    if args.workload == "http_mixed":
        import httpwork
        metrics, tally, raw = httpwork.run(data, bool(args.trace),
                                           SETUP_SAMPLES["http_mixed"])
    else:
        metrics, tally, raw = run_lib(args.workload, data, bool(args.trace))

    flags = raw.pop("flags", [])
    info = {"workload": args.workload, "seed": args.seed,
            "inputs_sha256": data["digest"], "operations": tally.attempted,
            "failed_by_cause": tally.causes, "raw": raw, "flags": flags}
    print(json.dumps(info, sort_keys=True))
    for flag in flags:
        print(f"FLAG: {flag}")
    units = {n: u for n, u, _ in LAYERS} if args.trace else E2E
    print(json.dumps({
        "correct": tally.unexpected == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
