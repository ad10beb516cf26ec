"""Seeded instance generators and serializers for the benchmark.

Everything here is independent of ``repro``: trees are built directly in
CSR form with NumPy, and the text, JSON, edge-list and wire encodings are
written by iterative serializers, so the input bytes (and their digest)
do not change when the program under test changes, and no serializer can
hit Python's recursion limit on a deep tree.

A tree is a dict of NumPy arrays in the layout of ``repro``'s
``FlatCotree``: ``kind`` (0 leaf, 1 union, 2 join), ``child_offset``,
``child_index``, ``parent``, ``leaf_vertex`` and the ``root`` id.  Every
generated tree is canonical (internal nodes have at least two children
and labels alternate along every root-to-leaf path), which the wire
format's readers assume.
"""

from __future__ import annotations

import json
import struct
import zlib

import numpy as np

LEAF, UNION, JOIN = 0, 1, 2


def _csr(parent: np.ndarray):
    """``child_offset`` / ``child_index`` of a parent array (-1 = root)."""
    nodes = np.flatnonzero(parent >= 0)
    order = np.argsort(parent[nodes], kind="stable")
    child_index = nodes[order].astype(np.int64)
    counts = np.bincount(parent[nodes], minlength=len(parent))
    child_offset = np.zeros(len(parent) + 1, dtype=np.int64)
    np.cumsum(counts, out=child_offset[1:])
    return child_offset, child_index


def random_tree(rng: np.random.Generator, n: int) -> dict:
    """A random canonical cotree on ``n >= 2`` vertices.

    The internal nodes form a random recursive tree whose attachment is
    skewed by a per-instance exponent (bushy to moderately deep shapes);
    leaves fill every internal node up to two children and then land on
    uniformly random internal nodes.
    """
    skew = rng.uniform(0.5, 2.0)
    m = max(1, n // 3)
    while True:
        iparent = np.full(m, -1, dtype=np.int64)
        if m > 1:
            i = np.arange(1, m)
            iparent[1:] = np.floor(i * rng.random(m - 1) ** skew)
        counts = np.bincount(iparent[1:], minlength=m)
        need = np.maximum(0, 2 - counts)
        if need.sum() <= n:
            break
        m = max(1, m // 2)
    leaf_parent = np.concatenate([
        np.repeat(np.arange(m), need),
        rng.integers(0, m, n - int(need.sum()))])
    rng.shuffle(leaf_parent)
    parent = np.concatenate([iparent, leaf_parent])
    depth = _tree_depth(iparent)
    first = UNION if rng.random() < 0.5 else JOIN
    kind = np.zeros(m + n, dtype=np.int8)
    kind[:m] = np.where(depth % 2 == 0, first, UNION + JOIN - first)
    leaf_vertex = np.full(m + n, -1, dtype=np.int64)
    leaf_vertex[m:] = rng.permutation(n)
    child_offset, child_index = _csr(parent)
    return {"kind": kind, "child_offset": child_offset,
            "child_index": child_index, "parent": parent,
            "leaf_vertex": leaf_vertex, "root": 0}


def _tree_depth(parent: np.ndarray) -> np.ndarray:
    """Depths in a tree whose parents precede their children."""
    depth = np.zeros(len(parent), dtype=np.int64)
    par = parent.tolist()
    for i in range(1, len(par)):
        depth[i] = depth[par[i]] + 1
    return depth


def caterpillar(rng: np.random.Generator, depth: int,
                first: int | None = None) -> dict:
    """A canonical caterpillar: a spine of ``depth`` alternating internal
    nodes, each with one leaf, the last with two (``depth + 1`` vertices).
    The root's kind is ``first``, or a coin flip when it is not given.
    """
    m = depth
    n = depth + 1
    parent = np.empty(m + n, dtype=np.int64)
    parent[0] = -1
    parent[1:m] = np.arange(m - 1)
    parent[m:m + m] = np.arange(m)
    parent[-1] = m - 1
    if first is None:
        first = UNION if rng.random() < 0.5 else JOIN
    kind = np.zeros(m + n, dtype=np.int8)
    kind[:m] = np.where(np.arange(m) % 2 == 0, first, UNION + JOIN - first)
    leaf_vertex = np.full(m + n, -1, dtype=np.int64)
    leaf_vertex[m:] = rng.permutation(n)
    child_offset, child_index = _csr(parent)
    return {"kind": kind, "child_offset": child_offset,
            "child_index": child_index, "parent": parent,
            "leaf_vertex": leaf_vertex, "root": 0}


def num_vertices(tree: dict) -> int:
    return int(np.count_nonzero(tree["kind"] == LEAF))


# --------------------------------------------------------------------------- #
# serializers (all iterative)
# --------------------------------------------------------------------------- #

def to_text(tree: dict) -> str:
    """Compact cotree text: ``*`` join, ``+`` union, leaves by vertex id."""
    kind = tree["kind"].tolist()
    offset = tree["child_offset"].tolist()
    index = tree["child_index"].tolist()
    leaf_vertex = tree["leaf_vertex"].tolist()
    out = []
    stack = [(tree["root"], 0)]
    while stack:
        u, pos = stack.pop()
        if kind[u] == LEAF:
            out.append(str(leaf_vertex[u]))
            continue
        start, end = offset[u], offset[u + 1]
        if pos == 0:
            out.append("(")
        elif start + pos < end:
            out.append(" * " if kind[u] == JOIN else " + ")
        if start + pos == end:
            out.append(")")
            continue
        stack.append((u, pos + 1))
        stack.append((index[start + pos], 0))
    return "".join(out)


def to_json(tree: dict) -> str:
    """The ``{"type": "cotree", ...}`` document ``repro.io`` reads."""
    offset = tree["child_offset"].tolist()
    index = tree["child_index"].tolist()
    return json.dumps({"type": "cotree",
                       "kind": tree["kind"].tolist(),
                       "children": [index[offset[u]:offset[u + 1]]
                                    for u in range(len(offset) - 1)],
                       "leaf_vertex": tree["leaf_vertex"].tolist(),
                       "root": int(tree["root"])}, separators=(",", ":"))


def edges(tree: dict) -> list:
    """Edge list of the cograph: leaves are adjacent iff their lowest
    common ancestor is a join node.  Quadratic; meant for small trees."""
    kind = tree["kind"].tolist()
    offset = tree["child_offset"].tolist()
    index = tree["child_index"].tolist()
    leaf_vertex = tree["leaf_vertex"].tolist()
    below = {}
    out = []
    for u in _postorder(tree):
        if kind[u] == LEAF:
            below[u] = [leaf_vertex[u]]
            continue
        kids = [below.pop(c) for c in index[offset[u]:offset[u + 1]]]
        if kind[u] == JOIN:
            for i, a in enumerate(kids):
                for b in kids[i + 1:]:
                    out.extend([x, y] if x < y else [y, x]
                               for x in a for y in b)
        below[u] = [v for k in kids for v in k]
    out.sort()
    return out


def _postorder(tree: dict) -> list:
    offset = tree["child_offset"].tolist()
    index = tree["child_index"].tolist()
    order = []
    stack = [tree["root"]]
    while stack:
        u = stack.pop()
        order.append(u)
        stack.extend(index[offset[u]:offset[u + 1]])
    order.reverse()
    return order


def edges_json(tree: dict) -> str:
    return json.dumps(edges(tree), separators=(",", ":"))


#: wire header: magic, byte-order mark, version, container, flags, index
#: and kind dtype codes, num_nodes, num_edges, num_q_edges, root,
#: num_instances; then a CRC-32 of those bytes.  Version 1 of the format.
_WIRE_HEADER = struct.Struct("<4sHHBBBBQQQqQ")


def to_wire(tree: dict) -> bytes:
    """The tree in the binary wire format (a single-tree container)."""
    header = _WIRE_HEADER.pack(
        b"RPRW", 0xFEFF, 1, 0, 0, 8, 1, len(tree["kind"]),
        len(tree["child_index"]), 0, int(tree["root"]), 0)
    parts = [header, struct.pack("<I", zlib.crc32(header))]
    for name in ("child_offset", "child_index", "parent", "leaf_vertex"):
        parts.append(np.ascontiguousarray(tree[name], dtype="<i8").tobytes())
    parts.append(np.ascontiguousarray(tree["kind"], dtype="|i1").tobytes())
    return b"".join(parts)
