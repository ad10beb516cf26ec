"""Expected answers (computed before the clock) and witness checks (run
after it).

Expected values come from ``repro``'s independent references: path-cover
sizes from the sequential Lin-Olariu-Pruesse algorithm (Lemma 2.3,
``repro.baselines.sequential_path_cover``), DP answers from the generic
postorder evaluator ``repro.core.dp.run_cotree_dp_sequential``, and brute
force over the explicit graph for n <= 10.

Witnesses are checked against the benchmark's own tree, whose cograph is
known: two vertices are adjacent iff their lowest common ancestor is a
join node.  The checks are vectorized -- ``PathCover.validate`` and the
pairwise set checks in ``repro`` cost seconds to minutes at n = 1e5 -- and
rely on one fact: for leaves sorted in preorder, the LCAs of consecutive
pairs are exactly the LCAs of all pairs.  ``test_perfbench.py`` checks
that they agree with ``repro``'s validators.
"""

from __future__ import annotations

import numpy as np

from gen import JOIN, LEAF, UNION, edges, num_vertices

BRUTE_FORCE_MAX_N = 10

#: a path cover of the right size whose paths step between non-adjacent
#: vertices.  The parallel pipeline (fast and pram backends alike) returns
#: such covers for about 1 in 125 random cotrees of 2500..6000 vertices;
#: the sequential method covers the same trees correctly.  A known defect:
#: counted as a failure, not as a broken run.
NON_ADJACENT = "cover steps between non-adjacent vertices (known defect)"


def _flat(tree: dict):
    from repro.cograph import FlatCotree
    return FlatCotree(tree["kind"], tree["child_offset"], tree["child_index"],
                      tree["parent"], tree["leaf_vertex"], tree["root"])


def expected(tree: dict, tasks, *,
             brute_force_max_n: int = BRUTE_FORCE_MAX_N) -> dict:
    """``{task: expected answer value}`` for the given tasks."""
    if num_vertices(tree) <= brute_force_max_n:
        return _brute_force(tree, tasks)
    from repro.baselines import sequential_path_cover
    from repro.core import dp
    flat = _flat(tree)
    out = {}
    specs = {"max_clique": (dp.MAX_CLIQUE_DP, "omega"),
             "max_independent_set": (dp.MAX_INDEPENDENT_SET_DP, "alpha"),
             "chromatic_number": (dp.CHROMATIC_NUMBER_DP, "chi"),
             "count_independent_sets": (dp.COUNT_INDEPENDENT_SETS_DP,
                                        "count")}
    for task in sorted(set(tasks)):
        if task in ("path_cover", "path_cover_size"):
            if "path_cover" not in out:
                size = sequential_path_cover(flat.to_cotree()).num_paths
                out["path_cover"] = out["path_cover_size"] = size
        else:
            spec, field = specs[task]
            out[task] = int(dp.run_cotree_dp_sequential(spec, flat)
                            .root(field))
    return {t: out[t] for t in tasks}


def _brute_force(tree: dict, tasks) -> dict:
    from repro.baselines import brute_force as bf
    from repro.cograph import Graph
    graph = Graph(num_vertices(tree), [tuple(e) for e in edges(tree)])
    fns = {"path_cover": bf.brute_force_path_cover_size,
           "path_cover_size": bf.brute_force_path_cover_size,
           "max_clique": bf.brute_force_max_clique,
           "max_independent_set": bf.brute_force_max_independent_set,
           "chromatic_number": bf.brute_force_chromatic_number,
           "count_independent_sets": bf.brute_force_count_independent_sets}
    return {t: int(fns[t](graph)) for t in tasks}


def expected_many(jobs) -> list:
    """``expected`` over ``[(tree, tasks), ...]``."""
    return [expected(tree, tasks) for tree, tasks in jobs]


def _main(in_path: str, out_path: str) -> None:
    """``python perfbench/oracle.py IN.pkl OUT.pkl``: one oracle worker,
    ``expected_many`` from one pickled job list to one pickled answer
    list."""
    import pickle
    with open(in_path, "rb") as fh:
        jobs = pickle.load(fh)
    with open(out_path, "wb") as fh:
        pickle.dump(expected_many(jobs), fh, protocol=pickle.HIGHEST_PROTOCOL)


# --------------------------------------------------------------------------- #
# answers: one compact form for library Solutions and HTTP JSON bodies
# --------------------------------------------------------------------------- #

def summarize(task: str, answer):
    """``(value, witness)`` of one answer, from a ``Solution.answer`` or its
    JSON encoding.  Witnesses become NumPy arrays: a path cover is
    ``(flat vertex order, path lengths)``, a vertex set or colouring one
    array."""
    if task == "path_cover":
        paths = answer["paths"] if isinstance(answer, dict) else answer.paths
        lengths = np.fromiter(map(len, paths), dtype=np.int64,
                              count=len(paths))
        order = (np.concatenate([np.asarray(p, dtype=np.int64)
                                 for p in paths])
                 if paths else np.empty(0, dtype=np.int64))
        return len(paths), (order, lengths)
    if task == "path_cover_size":
        return int(answer), None
    if task in ("max_clique", "max_independent_set"):
        return int(answer["size"]), np.asarray(answer["vertices"],
                                               dtype=np.int64)
    if task == "chromatic_number":
        return int(answer["chromatic_number"]), np.asarray(
            answer["coloring"], dtype=np.int64)
    if task == "count_independent_sets":
        return int(answer["count"]), None
    raise ValueError(f"no summary for task {task!r}")


def same_answer(a, b) -> bool:
    """Are two summarized answers (or two error names) identical?"""
    if isinstance(a, str) or isinstance(b, str):
        return a == b
    (va, wa), (vb, wb) = a, b
    if va != vb:
        return False
    if isinstance(wa, tuple):
        return all(np.array_equal(x, y) for x, y in zip(wa, wb))
    return wa is None and wb is None or np.array_equal(wa, wb)


# --------------------------------------------------------------------------- #
# witness checks
# --------------------------------------------------------------------------- #

class TreeIndex:
    """LCA queries over one benchmark tree (binary lifting, vectorized)."""

    def __init__(self, tree: dict) -> None:
        kind = tree["kind"]
        offset = tree["child_offset"].tolist()
        index = tree["child_index"].tolist()
        n_nodes = len(kind)
        depth = np.zeros(n_nodes, dtype=np.int64)
        rank = np.zeros(n_nodes, dtype=np.int64)
        stack = [tree["root"]]
        position = 0
        while stack:
            u = stack.pop()
            rank[u] = position
            position += 1
            kids = index[offset[u]:offset[u + 1]]
            depth[kids] = depth[u] + 1
            stack.extend(reversed(kids))
        up = np.asarray(tree["parent"], dtype=np.int64).copy()
        up[up < 0] = tree["root"]
        levels = [up]
        for _ in range(int(depth.max()).bit_length()):
            levels.append(levels[-1][levels[-1]])
        self.kind = np.asarray(kind)
        self.depth = depth
        self.up = levels
        leaves = np.flatnonzero(self.kind == LEAF)
        self.leaf_of = np.empty(len(leaves), dtype=np.int64)
        self.leaf_of[tree["leaf_vertex"][leaves]] = leaves
        #: preorder position of every vertex's leaf
        self.vertex_rank = rank[self.leaf_of]
        self.n = len(leaves)

    def lca_kind(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Kind of the LCA of vertex pairs ``(u[i], v[i])``."""
        a, b = self.leaf_of[u], self.leaf_of[v]
        swap = self.depth[a] < self.depth[b]
        a, b = np.where(swap, b, a), np.where(swap, a, b)
        diff = self.depth[a] - self.depth[b]
        for k, up in enumerate(self.up):
            sel = (diff >> k) & 1 == 1
            a[sel] = up[a[sel]]
        for up in reversed(self.up):
            ua, ub = up[a], up[b]
            sel = ua != ub
            a[sel], b[sel] = ua[sel], ub[sel]
        return self.kind[np.where(a == b, a, self.up[0][a])]

    def _is_vertex_set(self, vs: np.ndarray) -> bool:
        return bool(vs.size == 0 or (vs.min() >= 0 and vs.max() < self.n
                                     and np.unique(vs).size == vs.size))

    def pairwise(self, vs: np.ndarray, kind: int) -> bool:
        """Are all pairs of distinct vertices in ``vs`` joined by an LCA of
        ``kind`` (JOIN: a clique, UNION: an independent set)?"""
        if not self._is_vertex_set(vs):
            return False
        if vs.size < 2:
            return True
        s = vs[np.argsort(self.vertex_rank[vs], kind="stable")]
        return bool(np.all(self.lca_kind(s[:-1], s[1:]) == kind))

    def check(self, task: str, value: int, witness, want: int) -> str:
        """Why ``(value, witness)`` is not a correct answer of value
        ``want``; the empty string when it is."""
        if value != want:
            return f"value {value}, expected {want}"
        if task == "path_cover":
            order, lengths = witness
            if (len(lengths) != want or np.any(lengths < 1)
                    or order.size != self.n
                    or not np.array_equal(np.sort(order), np.arange(self.n))):
                return "paths do not partition the vertices"
            inner = np.ones(order.size, dtype=bool)
            inner[np.cumsum(lengths) - 1] = False       # path ends
            u, v = order[:-1][inner[:-1]], order[1:][inner[:-1]]
            if np.any(self.lca_kind(u, v) != JOIN):
                return NON_ADJACENT
        elif task == "max_clique":
            if witness.size != want or not self.pairwise(witness, JOIN):
                return "witness is not a clique of that size"
        elif task == "max_independent_set":
            if witness.size != want or not self.pairwise(witness, UNION):
                return "witness is not an independent set of that size"
        elif task == "chromatic_number":
            colors = witness
            if (colors.size != self.n or colors.min() < 0
                    or np.unique(colors).size != want
                    or colors.max() != want - 1):
                return "colouring does not use colours 0..chi-1"
            order = np.lexsort((self.vertex_rank, colors))
            same = colors[order[:-1]] == colors[order[1:]]
            if np.any(self.lca_kind(order[:-1][same], order[1:][same])
                      != UNION):
                return "colouring is not proper"
        return ""


if __name__ == "__main__":
    import sys
    _main(sys.argv[1], sys.argv[2])
