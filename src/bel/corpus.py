"""Deterministic graph corpora for the verification suite.

Everything is generated, never shipped.  ``graphs_upto`` lists one graph
per isomorphism class, and the class corpora (connected graphs,
caterpillar trees) are its members.  ``all_graphs`` and
``connected_graphs`` list every labelling, for the checks whose answer
depends on it.  Fixed-seed samples cover n = 6, and a recipe-built
corpus covers the generalized caterpillars.
"""

from __future__ import annotations

import random
from itertools import combinations

from .graphs import Graph, add_whisker, clique_join, is_connected
from .recognizers import is_caterpillar


def canonical_form(G: Graph) -> tuple:
    """The least edge bitmask over all vertex labellings, as ``(n, bits)``;
    equal iff isomorphic.  Pair {a, b} with a < b is bit number i when it
    is the i-th pair of combinations(1..n, 2).

    Labels are placed n, n-1, ..., 1, one per level.  Placing label k
    fixes segment k, the bits of the pairs {k, j} with j > k, which is
    the new vertex's adjacency to labels n, ..., k+1 read from the most
    significant bit.  Every pair in segment k is more significant than
    every pair whose smaller label is below k, so the key compares as the
    sequence of segments n, n-1, ..., 1, and minimising it minimises
    each segment in turn.  So a partial labelling whose segments so far
    are not the least among all partial labellings of its level cannot
    be a prefix of the least key: each level keeps only the extensions
    whose new segment is the least, so the survivors share all their
    segments so far, and the optimum survives every level.

    Two surviving partial labellings of a level with the same future --
    the same unplaced vertex set, each unplaced vertex with the same
    adjacency to the placed labels -- have the same segments so far
    (both least) and the same completions: the segment of a later label
    depends only on its vertex's adjacency to the placed labels and to
    the other unplaced vertices.  So one of them is kept.  A state is
    that future: ``codes[v]`` is -1 once v is placed, and otherwise has
    bit j-1 set for each placed label j adjacent to v, so its segment at
    level k is ``codes[v] >> k`` and segments compare as codes do.  For
    K_n and the empty graph the future is the unplaced set alone, so
    there are C(n, j) states once j labels are placed, 2^n in all.
    """
    n = G.n
    nbrs = [[] for _ in range(n)]
    for u, v in G.edges:
        nbrs[u - 1].append(v - 1)
        nbrs[v - 1].append(u - 1)
    states = {(0,) * n}
    bits = 0
    offset = n * (n - 1) // 2
    for k in range(n, 0, -1):
        offset -= n - k  # the bit number of pair {k, k+1}
        least = min(c for codes in states for c in codes if c >= 0)
        flag = 1 << (k - 1)
        nxt = set()
        for codes in states:
            for v, c in enumerate(codes):
                if c == least:
                    new = list(codes)
                    new[v] = -1
                    for u in nbrs[v]:
                        if new[u] >= 0:
                            new[u] |= flag
                    nxt.add(tuple(new))
        states = nxt
        bits |= (least >> k) << offset
    return (n, bits)


def all_graphs(n: int):
    """All labeled graphs on n vertices."""
    pairs = list(combinations(range(1, n + 1), 2))
    for mask in range(1 << len(pairs)):
        yield Graph.from_edges(n, (p for i, p in enumerate(pairs) if mask >> i & 1))


def graphs_upto(max_n: int) -> list:
    """One graph per isomorphism class on 1..max_n vertices, by n; the
    classes with n <= 6 are those of Read and Wilson's *An Atlas of
    Graphs*.  Deleting vertex n from a graph on n vertices leaves a graph
    on n - 1 vertices, so vertex n joined with every neighbourhood to one
    representative of each class on n - 1 vertices reaches every class
    on n; ``transversal`` keeps the first of each."""
    level = [Graph.empty(1)]
    out = list(level)
    for n in range(2, max_n + 1):
        level = transversal(
            Graph(n, G.edges | {(v, n) for v in nbrs})
            for G in level
            for r in range(n)
            for nbrs in combinations(range(1, n), r)
        )
        out.extend(level)
    return out


def connected_graphs(n: int) -> list:
    """All labeled connected graphs on n vertices, deterministic order."""
    return [G for G in all_graphs(n) if is_connected(G)]


def transversal(graphs) -> list:
    """One representative per isomorphism class, first occurrence kept."""
    seen = set()
    out = []
    for G in graphs:
        key = canonical_form(G)
        if key not in seen:
            seen.add(key)
            out.append(G)
    return out


def random_connected_graphs(n: int, count: int) -> list:
    """Connected samples from one fixed seed, pairwise non-isomorphic."""
    rng = random.Random(20240601)
    pairs = list(combinations(range(1, n + 1), 2))
    seen = set()
    out = []
    attempts = 0
    while len(out) < count and attempts < 100000:
        attempts += 1
        chosen = [p for p in pairs if rng.random() < 0.45]
        G = Graph.from_edges(n, chosen)
        if not is_connected(G):
            continue
        key = canonical_form(G)
        if key in seen:
            continue
        seen.add(key)
        out.append(G)
    if len(out) < count:
        raise RuntimeError("failed to sample enough connected graphs")
    return out


def caterpillars_upto(max_n: int) -> list:
    """One caterpillar tree per isomorphism class with n <= max_n, by n."""
    return [G for G in graphs_upto(max_n) if is_caterpillar(G)]


def gencat_corpus() -> list:
    """Deterministic net-free generalized caterpillars with n <= 6,
    built by replaying clique joins and whiskers."""
    K3 = Graph.complete(3)
    K4 = Graph.complete(4)
    P3 = Graph.path(3)
    P4 = Graph.path(4)
    P5 = Graph.path(5)
    bull = clique_join(P4, (2, 3), 3)
    tri_tail2 = clique_join(P4, (1, 2), 3)  # triangle with a 2-edge tail
    butterfly = clique_join(clique_join(P3, (1, 2), 3), (2, 3), 3)
    out = [
        # cliques with whiskers on at most two vertices
        K4,
        Graph.complete(5),
        add_whisker(K3, 1),                                  # paw
        add_whisker(add_whisker(K3, 1), 1),                  # cricket
        add_whisker(add_whisker(K3, 1), 2),
        add_whisker(add_whisker(add_whisker(K3, 1), 1), 2),
        add_whisker(add_whisker(add_whisker(K3, 1), 1), 1),
        add_whisker(K4, 1),
        add_whisker(add_whisker(K4, 1), 1),
        add_whisker(add_whisker(K4, 1), 2),
        add_whisker(Graph.complete(5), 1),
        # clique joins on path edges, with and without extra whiskers
        butterfly,
        add_whisker(butterfly, 2),
        tri_tail2,
        add_whisker(tri_tail2, 3),
        clique_join(P5, (1, 2), 3),
        add_whisker(bull, 1),
    ]
    assert all(G.n <= 6 for G in out)
    return out
