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
from itertools import combinations, combinations_with_replacement, permutations

from .graphs import Graph, add_whisker, clique_join, is_connected, net_graph
from .recognizers import is_caterpillar


def canonical_form(G: Graph) -> tuple:
    """Minimum edge-set encoding over all vertex permutations; equal iff
    isomorphic.  Pair {a, b} is bit number i when it is the i-th pair of
    combinations(1..n, 2).  Exponential in n; fine at desk scale."""
    n = G.n
    bit = [[0] * (n + 1) for _ in range(n + 1)]
    for i, (a, b) in enumerate(combinations(range(1, n + 1), 2)):
        bit[a][b] = bit[b][a] = 1 << i
    edges = [(u - 1, v - 1) for u, v in G.edges]
    best = min(sum(bit[p[u]][p[v]] for u, v in edges)
               for p in permutations(range(1, n + 1)))
    return (n, best)


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


def random_connected_graphs(n: int, count: int, seed: int = 20240601) -> list:
    """Fixed-seed connected samples, pairwise non-isomorphic."""
    rng = random.Random(seed)
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


def generate_gencat_forms(max_n: int) -> set:
    """Canonical forms of every generalized caterpillar with n <= max_n,
    built forward from the definition: a path, a clique glued along each
    chosen path edge, then whiskers on any path or clique vertices."""
    forms = set()

    def with_whiskers(G):
        budget = max_n - G.n
        attach_sets = []
        for w in range(budget + 1):
            attach_sets.extend(combinations_with_replacement(sorted(G.vertices), w))
        for attaches in attach_sets:
            H = G
            for v in attaches:
                H = add_whisker(H, v)
            forms.add(canonical_form(H))

    def grow(G, path_edges, k):
        if k == len(path_edges):
            with_whiskers(G)
            return
        e = path_edges[k]
        t = 2
        while G.n + (t - 2) <= max_n:
            grow(clique_join(G, e, t) if t > 2 else G, path_edges, k + 1)
            t += 1

    for p in range(1, max_n + 1):
        grow(Graph.path(p) if p > 1 else Graph.empty(1),
             [(i, i + 1) for i in range(1, p)], 0)
    return forms


def net_family() -> list:
    """Generalized caterpillars that are not net-free (currently the net)."""
    return [net_graph()]
