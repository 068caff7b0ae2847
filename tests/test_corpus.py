from itertools import chain

import networkx as nx

from bel import corpus
from bel.graphs import Graph, relabel
from bel.recognizers import is_caterpillar, is_net_free
from conftest import connected_classes, oracle_canonical_form, seeded_graphs


def test_canonical_form_isomorphism_invariant():
    G = Graph.from_edges(4, [(1, 2), (2, 3), (3, 4)])
    H = relabel(G, {1: 4, 2: 2, 3: 3, 4: 1})
    assert corpus.canonical_form(G) == corpus.canonical_form(H)
    assert corpus.canonical_form(G) != corpus.canonical_form(Graph.star(3))


def test_canonical_form_matches_definition():
    """Every labelled graph with n <= 5 and seeded graphs with n = 6-8."""
    graphs = chain.from_iterable(corpus.all_graphs(n) for n in range(1, 6))
    for G in chain(graphs, seeded_graphs((6, 7), 12, seed=21), seeded_graphs((8,), 3, seed=22)):
        assert corpus.canonical_form(G) == oracle_canonical_form(G), sorted(G.edges)


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


def test_net_family():
    (net,) = corpus.net_family()
    assert not is_net_free(net)
