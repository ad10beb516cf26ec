"""Tests of the benchmark itself: ``python3 -m pytest perfbench -q``."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import gen  # noqa: E402
import libphase  # noqa: E402
import oracle  # noqa: E402
import workloads  # noqa: E402

TASKS = ("path_cover", "path_cover_size", "max_clique",
         "max_independent_set", "chromatic_number", "count_independent_sets")


def _trees(rng, sizes):
    for n in sizes:
        yield gen.random_tree(rng, n)
        if n >= 2:
            yield gen.caterpillar(rng, n - 1)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_inputs_are_deterministic_per_seed(workload):
    first = workloads.build(workload, 7, 1)
    assert workloads.build(workload, 7, 1)["digest"] == first["digest"]
    assert workloads.build(workload, 8, 1)["digest"] != first["digest"]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_expected_failures_are_the_same_for_every_seed(workload):
    """Fixed counts per class keep ``correct_frac`` seed-independent."""
    def mix(seed):
        ops = workloads.build(workload, seed, 1)["ops"]
        keys = ("fmt", "deep", "expect_fail", "kind", "expect")
        return sorted(json.dumps([op.get(k) for k in keys]) for op in ops)
    assert mix(1) == mix(2)


def test_edge_lists_name_every_vertex():
    """An edge list's highest label gives the vertex count, so the
    highest-labelled vertex must have a neighbour."""
    rng = np.random.default_rng(3)
    moved = 0
    for _ in range(1000):
        n = int(rng.integers(150, 301))
        tree = gen.random_tree(rng, n)
        fixed = workloads._last_label_on_an_edge(tree)
        moved += fixed is not tree
        pairs = gen.edges(fixed)
        assert max(max(p) for p in pairs) == n - 1
        assert len(pairs) == len(gen.edges(tree))
    assert moved > 0


def test_generated_trees_are_canonical():
    from repro.cograph import FlatCotree
    rng = np.random.default_rng(0)
    for tree in _trees(rng, (2, 3, 9, 200, 3000)):
        flat = oracle._flat(tree)
        assert isinstance(flat, FlatCotree) and flat.is_canonical()
        assert sorted(tree["leaf_vertex"][tree["kind"] == gen.LEAF]) == \
            list(range(gen.num_vertices(tree)))


def test_serializers_round_trip_through_repro():
    from repro.io import cotree_from_json, cotree_from_text, wire
    from repro.cograph.flat import canonical_key
    rng = np.random.default_rng(1)
    for tree in _trees(rng, (2, 5, 40, 500)):
        key = canonical_key(oracle._flat(tree))
        assert canonical_key(cotree_from_text(gen.to_text(tree))) == key
        assert canonical_key(cotree_from_json(json.loads(gen.to_json(tree)))) \
            == key
        assert canonical_key(wire.from_bytes(gen.to_wire(tree))) == key
        assert wire.to_bytes(wire.from_bytes(gen.to_wire(tree))) == \
            gen.to_wire(tree)


def test_edge_list_is_the_cograph():
    from repro.cograph import CographAdjacencyOracle
    rng = np.random.default_rng(2)
    for tree in _trees(rng, (2, 6, 30)):
        adjacency = CographAdjacencyOracle(oracle._flat(tree).to_cotree())
        n = gen.num_vertices(tree)
        want = [[u, v] for u in range(n) for v in range(u + 1, n)
                if adjacency.adjacent(u, v)]
        assert gen.edges(tree) == want


def test_oracle_agrees_with_brute_force():
    rng = np.random.default_rng(3)
    for tree in _trees(rng, range(2, oracle.BRUTE_FORCE_MAX_N + 1)):
        brute = oracle.expected(tree, TASKS)
        assert oracle.expected(tree, TASKS, brute_force_max_n=0) == brute


def test_witness_checks_agree_with_repro_validators():
    from repro import solve
    from repro.cograph import CographAdjacencyOracle, PathCover
    from repro.cograph.path_cover import PathCoverError
    rng = np.random.default_rng(4)
    for tree in _trees(rng, (3, 12, 60, 300)):
        index = oracle.TreeIndex(tree)
        want = oracle.expected(tree, TASKS)
        adjacency = CographAdjacencyOracle(oracle._flat(tree).to_cotree())
        for task in TASKS:
            answer = solve(gen.to_wire(tree), task, backend="fast").answer
            value, witness = oracle.summarize(task, answer)
            assert index.check(task, value, witness, want[task]) in (
                "", oracle.NON_ADJACENT)
            assert index.check(task, value + 1, witness, want[task])
        cover = solve(gen.to_wire(tree), "path_cover", backend="fast").answer
        value, (order, lengths) = oracle.summarize("path_cover", cover)
        # a shuffled cover: both validators must agree on it
        bad = rng.permutation(order)
        bad_paths = np.split(bad, np.cumsum(lengths)[:-1])
        try:
            PathCover([p.tolist() for p in bad_paths]).validate(adjacency)
            repro_ok = True
        except PathCoverError:
            repro_ok = False
        assert (index.check("path_cover", value, (bad, lengths),
                            want["path_cover"]) == "") == repro_ok
        for _ in range(20):
            subset = rng.choice(index.n, size=min(index.n, 4), replace=False)
            for kind, adjacent in ((gen.JOIN, True), (gen.UNION, False)):
                pairwise = all(adjacency.adjacent(int(u), int(v)) == adjacent
                               for i, u in enumerate(subset)
                               for v in subset[i + 1:])
                assert index.pairwise(subset, kind) == pairwise


def test_traced_pass_returns_the_untraced_answers():
    data = workloads.build("lib_ingest", 5, 1)
    picked = ([op for op in data["ops"] if op["expect_fail"]][:3]
              + [op for op in data["ops"] if op["fmt"] == "edges"][:3]
              + [op for op in data["ops"] if not op["deep"]][:9])
    ops = [(op["fmt"], op["payload"], op["task"], op["options"])
           for op in picked]
    _, plain, _ = libphase._plain_pass(ops, oracle.summarize)
    _, traced, _ = libphase._traced_pass(ops, oracle.summarize)
    assert any(isinstance(a, str) for a in plain)       # deep text fails
    assert all(map(oracle.same_answer, plain, traced))


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".cache", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "lib_wire",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
