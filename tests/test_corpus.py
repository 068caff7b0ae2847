import random
from itertools import chain, combinations
from math import comb

import networkx as nx

from bel import corpus
from bel.graphs import Graph, disjoint_union, is_connected, relabel
from bel.recognizers import is_caterpillar, is_net_free
from conftest import (
    connected_classes,
    oracle_canonical_form,
    seeded_graphs,
    seeded_relabellings,
)


def test_canonical_form_isomorphism_invariant():
    G = Graph.from_edges(4, [(1, 2), (2, 3), (3, 4)])
    H = relabel(G, {1: 4, 2: 2, 3: 3, 4: 1})
    assert corpus.canonical_form(G) == corpus.canonical_form(H)
    assert corpus.canonical_form(G) != corpus.canonical_form(Graph.star(3))


def _tied_graphs(n):
    """Graphs whose vertices tie at many levels of the search: K_n, the
    empty graph and C_n."""
    return [Graph.complete(n), Graph.empty(n), Graph.cycle(n)]


def test_canonical_form_matches_definition():
    """Every labelled graph with n <= 5, seeded graphs with n = 6-8, and
    n = 8 graphs with large automorphism groups (K_8, the empty graph,
    C_8, the cube Q_3, K_{4,4} and 2K_4), each as given and under two
    seeded relabellings."""
    graphs = chain.from_iterable(corpus.all_graphs(n) for n in range(1, 6))
    for G in chain(graphs, seeded_graphs((6, 7), 12, seed=21), seeded_graphs((8,), 3, seed=22)):
        assert corpus.canonical_form(G) == oracle_canonical_form(G), sorted(G.edges)
    rng = random.Random(23)
    cube = Graph.from_edges(8, [(a + 1, b + 1) for a, b in combinations(range(8), 2)
                                if (a ^ b).bit_count() == 1])
    k44 = Graph.from_edges(8, [(a, b) for a in range(1, 5) for b in range(5, 9)])
    for G in [*_tied_graphs(8), cube, k44, disjoint_union(Graph.complete(4), Graph.complete(4))]:
        expect = oracle_canonical_form(G)
        for H in [G, *seeded_relabellings(G, 2, rng)]:
            assert corpus.canonical_form(H) == expect, sorted(H.edges)


def test_canonical_form_beyond_the_oracle():
    """n = 9-12, past the n! oracle: the key is invariant under seeded
    relabellings and decodes to a graph networkx finds isomorphic, and
    K_n and the empty graph give the all-ones and all-zeros keys."""
    rng = random.Random(24)
    petersen = Graph.from_edges(10, [(a + 1, b + 1) for a, b in nx.petersen_graph().edges])
    graphs = [petersen, *seeded_graphs((9, 10, 11, 12), 12, seed=25)]
    for n in range(9, 13):
        graphs.extend(_tied_graphs(n))
        assert corpus.canonical_form(Graph.complete(n)) == (n, 2 ** comb(n, 2) - 1)
        assert corpus.canonical_form(Graph.empty(n)) == (n, 0)
    for G in graphs:
        n, bits = key = corpus.canonical_form(G)
        for H in seeded_relabellings(G, 2, rng):
            assert corpus.canonical_form(H) == key, sorted(H.edges)
        decoded = Graph.from_edges(n, (p for i, p in enumerate(combinations(range(1, n + 1), 2))
                                       if bits >> i & 1))
        assert nx.is_isomorphic(decoded.to_networkx(), G.to_networkx()), sorted(G.edges)


def test_graphs_upto_is_the_atlas():
    """The classes on 1..6 vertices are the networkx atlas's (Read and
    Wilson), one representative each, ordered by n."""
    graphs = corpus.graphs_upto(6)
    assert [sum(1 for G in graphs if G.n == n) for n in range(1, 7)] == [1, 2, 4, 11, 34, 156]
    assert [G.n for G in graphs] == sorted(G.n for G in graphs)
    forms = [corpus.canonical_form(G) for G in graphs]
    atlas = [Graph.from_edges(g.number_of_nodes(), [(a + 1, b + 1) for a, b in g.edges])
             for g in nx.graph_atlas_g()[1:] if g.number_of_nodes() <= 6]
    assert len(atlas) == len(set(forms)) == len(forms) == 208
    assert set(forms) == {corpus.canonical_form(G) for G in atlas}


def test_graphs_upto_7_counts(classes_upto_7):
    """Classes by n on 1..7 vertices (OEIS A000088), and the connected
    ones at n = 7 (A001349)."""
    assert [sum(1 for G in classes_upto_7 if G.n == n) for n in range(1, 8)] == [
        1, 2, 4, 11, 34, 156, 1044]
    assert sum(1 for G in classes_upto_7 if G.n == 7 and is_connected(G)) == 853


def test_enumeration_counts():
    # labeled graph counts: 2^C(n,2)
    assert sum(1 for _ in corpus.all_graphs(3)) == 8
    assert sum(1 for _ in corpus.all_graphs(4)) == 64
    # connected labeled graph counts (OEIS A001187): 1, 1, 4, 38, 728
    assert len(corpus.connected_graphs(2)) == 1
    assert len(corpus.connected_graphs(3)) == 4
    assert len(corpus.connected_graphs(4)) == 38
    assert len(corpus.connected_graphs(5)) == 728
    # connected isomorphism classes (OEIS A001349): 1, 1, 2, 6, 21
    tv = connected_classes(5)
    assert [sum(1 for G in tv if G.n == n) for n in range(1, 6)] == [1, 1, 2, 6, 21]


def test_caterpillar_counts():
    cats = corpus.caterpillars_upto(6)
    # caterpillar classes by size: 1, 1, 1, 2, 3, 6 (every tree with
    # n <= 6 except the 2,2,2-spider is a caterpillar)
    assert [sum(1 for G in cats if G.n == n) for n in range(1, 7)] == [1, 1, 1, 2, 3, 6]
    assert all(is_caterpillar(G) for G in cats)


def test_random_samples_deterministic():
    a = corpus.random_connected_graphs(6, 10)
    b = corpus.random_connected_graphs(6, 10)
    assert a == b
    assert len({corpus.canonical_form(G) for G in a}) == 10


def test_gencat_corpus_properties():
    gc = corpus.gencat_corpus()
    assert len(gc) >= 10
    keys = {corpus.canonical_form(G) for G in gc}
    assert len(keys) == len(gc)  # pairwise non-isomorphic
    assert all(is_net_free(G) for G in gc)
    assert all(G.n <= 6 for G in gc)
