"""The three workloads as fixed, seeded operation lists.

Every count below is a fixed share of the run's operation count, never a
random draw, so the number of deep (known-failing) operations -- and with
it ``correct_frac`` -- is the same for every seed.  Sizes sit at the
midpoints of equal-probability strata, separately for every class of
operation (format, task), so a run's latency distribution barely depends
on the seed while the sizes still cover their range evenly: no percentile
lands in a gap between size classes.  The seed shapes the trees, labels
the vertices and orders the operations.

Deep instances are caterpillars at least 1500 levels deep.  Cotree text
that deep makes ``repro``'s recursive text parser raise ``RecursionError``
(a ``500`` over HTTP); the operations stay in the lists and are counted as
failures, so a fix shows up as a higher ``correct_frac``.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter

import numpy as np

from gen import JOIN, LEAF, UNION, caterpillar, edges_json, num_vertices, \
    random_tree, to_json, to_text, to_wire

WORKLOADS = ("lib_ingest", "lib_wire", "http_mixed")

#: operations per second of ``--seconds``: about the raw rate on the
#: reference host (2 cores), so the timed phase lasts about ``--seconds``
#: there.  The count is fixed per (workload, seconds): a run is a fixed
#: list of operations, never a deadline.
OPS_PER_SECOND = {"lib_ingest": 22, "lib_wire": 12, "http_mixed": 70}
#: the least operations a run may have: enough samples beyond the tail
#: percentile each workload reports (p90 on the library workloads, p99
#: over HTTP).
MIN_OPS = {"lib_ingest": 120, "lib_wire": 100, "http_mixed": 1000}

FAST = {"backend": "fast"}
#: the tasks every lib_ingest tree is asked, in order
INGEST_TASKS = (("path_cover_size", None), ("max_clique", FAST),
                ("path_cover", FAST))
#: the ten operations every lib_wire tree is asked
WIRE_TASKS = (("path_cover",) * 4 + ("path_cover_size",) * 2
              + ("max_clique", "max_independent_set", "chromatic_number",
                 "count_independent_sets"))
DP_TASKS = ("max_clique", "max_independent_set", "chromatic_number",
            "count_independent_sets")


def op_count(workload: str, seconds: int) -> int:
    return max(MIN_OPS[workload], round(OPS_PER_SECOND[workload] * seconds))


def _rng(workload: str, seed: int) -> np.random.Generator:
    salt = WORKLOADS.index(workload) + 1
    return np.random.default_rng([seed, salt])


def stratified(rng, k: int, lo: float, hi: float, *, log: bool = False):
    """``k`` integers at the midpoints of ``k`` equal-probability strata of
    ``[lo, hi]``, in shuffled order."""
    u = (rng.permutation(k) + 0.5) / k
    if log:
        return np.rint(lo * (hi / lo) ** u).astype(np.int64).tolist()
    return np.rint(lo + (hi - lo) * u).astype(np.int64).tolist()


def _share(total: int, frac: float) -> int:
    """``frac`` of ``total``, at least one."""
    return max(1, round(total * frac))


def build(workload: str, seed: int, seconds: int) -> dict:
    """The workload's trees and operations for one seed."""
    make = {"lib_ingest": _lib_ingest, "lib_wire": _lib_wire,
               "http_mixed": _http_mixed}[workload]
    data = make(_rng(workload, seed), op_count(workload, seconds))
    data["workload"] = workload
    data["digest"] = digest(data["ops"])
    return data


def digest(ops) -> str:
    """SHA-256 over every operation's input bytes, task and options."""
    h = hashlib.sha256()
    for op in ops:
        meta = {k: v for k, v in op.items() if k not in ("payload", "body")}
        h.update(json.dumps(meta, sort_keys=True).encode())
        raw = op.get("payload", op.get("body"))
        h.update(raw.encode() if isinstance(raw, str) else raw)
    return h.hexdigest()


# --------------------------------------------------------------------------- #
# library workloads: one op = (input bytes, task, options) through solve()
# --------------------------------------------------------------------------- #

def _lib_ingest(rng, n_ops: int) -> dict:
    """~60% cotree text and ~30% JSON of n in 2500..6000 (5% of each deep
    caterpillars), ~10% JSON edge lists of n in 150..300; every tree is
    asked the three INGEST_TASKS in its own format."""
    n_trees = n_ops // len(INGEST_TASKS)
    n_edges = _share(n_trees, 0.10)
    n_json = _share(n_trees - n_edges, 1 / 3)
    n_text = n_trees - n_edges - n_json
    deep = {"text": _share(n_text, 0.05), "json": _share(n_json, 0.05)}
    counts = {"text": n_text, "json": n_json}
    trees, specs = [], []
    for fmt in ("text", "json"):
        fmt_trees = _deep(rng, deep[fmt], 2499, 5999) + [
            random_tree(rng, n)
            for n in stratified(rng, counts[fmt] - deep[fmt], 2500, 6000)]
        for i, tree in enumerate(fmt_trees):
            is_deep = i < deep[fmt]
            payload = to_text(tree) if fmt == "text" else to_json(tree)
            trees.append(tree)
            specs.append((fmt, payload, is_deep))
    for n in stratified(rng, n_edges, 150, 300):
        tree = _last_label_on_an_edge(random_tree(rng, n))
        trees.append(tree)
        specs.append(("edges", edges_json(tree), False))
    ops = [{"tree": t, "fmt": fmt, "payload": payload, "task": task,
            "options": opts, "deep": is_deep,
            "expect_fail": is_deep and fmt == "text"}
           for t, (fmt, payload, is_deep) in enumerate(specs)
           for task, opts in INGEST_TASKS]
    return {"trees": trees, "ops": _shuffled(rng, ops)}


def _deep(rng, k: int, lo: int, hi: int) -> list:
    """``k`` caterpillars of stratified depths in ``[lo, hi]``, shallowest
    first, with union and join roots in turn.  Deep JSON operations are the
    slowest of ``lib_ingest`` and a caterpillar's cost depends on its root
    kind, so neither its depth nor its root is left to the seed: the tail
    percentiles would follow them."""
    return [caterpillar(rng, d, first=(UNION, JOIN)[i % 2])
            for i, d in enumerate(sorted(stratified(rng, k, lo, hi)))]


def _last_label_on_an_edge(tree: dict) -> dict:
    """The tree with its highest vertex label moved off an isolated vertex.

    An edge list gives a graph's vertex count as its highest label plus
    one, so a cograph whose highest-labelled vertex is isolated (a leaf
    right under a union root) reads back one vertex short.  Swapping that
    label with a vertex that has a neighbour keeps the graph the same up
    to labelling and makes its edge list say what it means.
    """
    kind, parent = tree["kind"], tree["parent"]
    leaf_vertex = tree["leaf_vertex"]
    root = int(tree["root"])
    leaves = np.flatnonzero(kind == LEAF)
    isolated = (parent[leaves] == root) & (kind[root] == UNION)
    top = leaves[np.argmax(leaf_vertex[leaves])]
    if not isolated[np.searchsorted(leaves, top)] or isolated.all():
        return tree
    other = leaves[~isolated][0]
    leaf_vertex = leaf_vertex.copy()
    leaf_vertex[[top, other]] = leaf_vertex[[other, top]]
    return {**tree, "leaf_vertex": leaf_vertex}


def _lib_wire(rng, n_ops: int) -> dict:
    """Wire bytes of n log-uniform over 1e4..1e5 (5% deep caterpillars of
    n <= 4000); every tree is asked the ten WIRE_TASKS on the fast
    backend: 40% path_cover, 20% path_cover_size, 40% DP tasks."""
    n_trees = max(1, n_ops // len(WIRE_TASKS))
    n_deep = _share(n_trees, 0.05)
    trees = _deep(rng, n_deep, 1500, 3999)
    trees += [random_tree(rng, n)
              for n in stratified(rng, n_trees - n_deep, 10_000, 100_000,
                                  log=True)]
    ops = []
    for t, tree in enumerate(trees):
        payload = to_wire(tree)
        ops += [{"tree": t, "fmt": "wire", "payload": payload, "task": task,
                 "options": FAST, "deep": t < n_deep, "expect_fail": False}
                for task in WIRE_TASKS]
    return {"trees": trees, "ops": _shuffled(rng, ops)}


def _shuffled(rng, items: list) -> list:
    return [items[i] for i in rng.permutation(len(items))]


# --------------------------------------------------------------------------- #
# http_mixed: one op = one HTTP request
# --------------------------------------------------------------------------- #

#: single-solve task mix (options {"backend": "fast"})
HTTP_TASKS = ("path_cover",) * 4 + ("path_cover_size",) * 2 + DP_TASKS
BATCH_SIZE = 32
#: requests per connection; two closed-loop connections (nproc = 2)
CONNECTIONS = 2


def _malformed(kind: int, wire: bytes) -> dict:
    """One deliberately bad request; each must be answered 4xx."""
    if kind == 0:
        return _json_request({"problem": "(0 + 1)"}, raw=b'{"problem": "(0')
    if kind == 1:
        return _json_request({"problem": "(0 + 1)", "task": "no_such_task"})
    if kind == 2:
        return {"path": "/v1/solve?task=path_cover", "binary": True,
                "body": wire[:40]}
    return _json_request({"problem": "(0 * 1)",
                          "options": {"backend": "no_such_backend"}})


def _json_request(record: dict, raw: bytes = None) -> dict:
    body = raw if raw is not None else json.dumps(
        record, separators=(",", ":")).encode()
    return {"path": "/v1/solve", "binary": False, "body": body}


def _http_mixed(rng, n_ops: int) -> dict:
    """~70% JSON bodies with cotree text and ~25% wire bodies, n
    log-uniform over 50..2000; ~40% re-ask an earlier request of the same
    connection (Zipf popularity), ~5% carry no options (PRAM backend), ~3%
    are 32-instance /v1/solve_batch requests (forest sweep), ~2% are
    malformed and ~3% are deep (a quarter of those as wire bodies)."""
    n_bad = _share(n_ops, 0.02)
    n_batch = _share(n_ops, 0.03)
    n_repeat = _share(n_ops, 0.40)
    n_deep = _share(n_ops, 0.03)
    n_plain = _share(n_ops, 0.05)
    n_fresh = n_ops - n_bad - n_batch - n_repeat
    n_normal = n_fresh - n_deep
    trees, fresh = [], []
    for i, depth in enumerate(stratified(rng, n_deep, 1500, 1999)):
        trees.append(caterpillar(rng, depth))
        fresh.append(_solve_request(len(trees) - 1, trees[-1], "path_cover",
                                    FAST, i % 4 == 3, deep=True))
    # classes of (task, options, wire?) with fixed counts, each with its
    # own stratified sizes
    classes = Counter((task, True) for task in
                      (HTTP_TASKS * n_normal)[:n_normal - n_plain])
    classes[("path_cover", False)] = n_plain
    for (task, fast), count in classes.items():
        n_wire = round(count * 0.25 / 0.95)
        for binary, k in ((True, n_wire), (False, count - n_wire)):
            for n in stratified(rng, k, 50, 2000, log=True):
                trees.append(random_tree(rng, n))
                fresh.append(_solve_request(len(trees) - 1, trees[-1], task,
                                            FAST if fast else None, binary,
                                            deep=False))

    batches = []
    for b in range(n_batch):
        ids = []
        for n in stratified(rng, BATCH_SIZE, 2, 64, log=True):
            trees.append(random_tree(rng, n))
            ids.append(len(trees) - 1)
        task = ("path_cover", "max_clique", "path_cover_size")[b % 3]
        req = _json_request({"problems": [to_text(trees[t]) for t in ids],
                             "task": task, "options": FAST})
        req.update(path="/v1/solve_batch", kind="batch", trees=ids,
                   task=task, deep=False, expect="ok", plain=False)
        batches.append(req)

    wire_small = to_wire(random_tree(rng, 8))
    bad = [dict(_malformed(i % 4, wire_small), kind="malformed", trees=[],
                task=None, deep=False, expect="4xx", plain=False)
           for i in range(n_bad)]

    # fresh requests, batches and malformed bodies in random order, with
    # the deep ones spread evenly so consecutive 500s never trip the
    # circuit breaker; each connection then gets its re-asks
    seq = _shuffled(rng, fresh[n_deep:] + batches + bad)
    for j, r in enumerate(fresh[:n_deep]):
        seq.insert(round((j + 0.5) * len(seq) / n_deep) + j, r)
    lanes = [_with_repeats(rng, seq[c::CONNECTIONS],
                           n_repeat // CONNECTIONS
                           + (c < n_repeat % CONNECTIONS))
             for c in range(CONNECTIONS)]
    ops = [dict(lane[i], conn=c) for i in range(max(map(len, lanes)))
           for c, lane in enumerate(lanes) if i < len(lane)]
    return {"trees": trees, "ops": ops}


def _solve_request(t: int, tree: dict, task: str, opts, binary: bool, *,
                   deep: bool) -> dict:
    if binary:
        query = f"task={task}"
        if opts is not None:
            query += "&options=" + json.dumps(opts, separators=(",", ":"))
        req = {"path": "/v1/solve?" + query, "binary": True,
               "body": to_wire(tree)}
    else:
        record = {"problem": to_text(tree)}
        if task != "path_cover" or opts is not None:
            record["task"] = task
        if opts is not None:
            record["options"] = opts
        req = _json_request(record)
    req.update(kind="solve", trees=[t], task=task, deep=deep,
               n=num_vertices(tree),
               expect="fail" if deep and not binary else "ok",
               plain=opts is None)
    return req


#: Zipf exponent of re-ask popularity
ZIPF = 1.1
#: a re-ask follows its original within this many requests of its
#: connection, well inside the server's 1024-entry LRU cache
REASK_WITHIN = 150


def _with_repeats(rng, lane: list, n_repeat: int) -> list:
    """The lane with ``n_repeat`` re-asks, each at a random position after
    the request it repeats on the same connection -- so a re-ask is always
    a cache hit.  Popularity is Zipf over the lane's repeatable requests,
    with counts rounded from the expected shares; popularity ranks are
    spread over the requests sorted by (wire?, size) at golden-ratio
    steps, so the sizes of the popular requests do not depend on the
    seed."""
    pool = sorted((i for i, r in enumerate(lane)
                   if r["kind"] == "solve" and not r["deep"]),
                  key=lambda i: (lane[i]["binary"], lane[i]["n"]))
    weight = 1.0 / np.arange(1, len(pool) + 1) ** ZIPF
    share = n_repeat * weight / weight.sum()
    counts = np.floor(share).astype(int)
    counts[np.argsort(counts - share)[:n_repeat - counts.sum()]] += 1
    golden = (np.sqrt(5) - 1) / 2
    slots = np.floor((np.arange(len(pool)) * golden % 1) * len(pool))
    order = np.argsort(slots, kind="stable")        # rank -> pool position
    keyed = [(float(i), r) for i, r in enumerate(lane)]
    for rank, count in enumerate(counts.tolist()):
        i = pool[order[rank]]
        span = min(REASK_WITHIN, len(lane) - i)
        keyed += [(i + 0.5 + rng.random() * (span - 0.5),
                   dict(lane[i], kind="repeat")) for _ in range(count)]
    keyed.sort(key=lambda kr: kr[0])
    return [r for _, r in keyed]
