import random

import networkx as nx
import pytest

from bel import corpus
from bel.errors import SizeLimitError
from bel.graphs import (
    Graph,
    add_whisker,
    clique_join,
    complement,
    disjoint_union,
    net_graph,
)
from bel.recognizers import (
    Labeling,
    _closed_triple,
    _search_labeling,
    _weakly_closed_triple,
    find_closed_labeling,
    find_weakly_closed_labeling,
    gencat_labeling,
    is_caterpillar,
    is_closed_with_labeling,
    is_comparability,
    is_generalized_caterpillar,
    is_net_free,
    is_tree,
    is_weakly_closed,
    is_weakly_closed_with_labeling,
)
from conftest import (
    connected_classes,
    generate_gencat_forms,
    oracle_central_path,
    oracle_is_comparability,
    oracle_is_net_free,
    oracle_search_labeling,
    seeded_relabellings,
)


def spider_222() -> Graph:
    """Three legs of length 2 from a center: the smallest non-caterpillar tree."""
    return Graph.from_edges(7, [(1, 2), (2, 3), (1, 4), (4, 5), (1, 6), (6, 7)])


def test_labeling_basics():
    lab = Labeling.from_order([2, 1, 3])
    assert lab.as_dict() == {1: 2, 2: 1, 3: 3}
    with pytest.raises(ValueError):
        Labeling((1, 1, 2))


def test_tree_and_caterpillar():
    assert is_tree(Graph.path(5)) and is_caterpillar(Graph.path(5))
    assert is_caterpillar(Graph.star(4))
    assert is_caterpillar(Graph.empty(1))
    assert not is_tree(Graph.cycle(4))
    assert is_tree(spider_222()) and not is_caterpillar(spider_222())
    with pytest.raises(ValueError):
        gencat_labeling(spider_222())


def test_caterpillar_witness_path_against_oracle():
    """On every labelled caterpillar tree with n <= 6, the
    generalized-caterpillar witness path is the least longest path."""
    count = 0
    for n in range(1, 7):
        for G in corpus.all_graphs(n):
            if len(G.edges) == n - 1 and is_caterpillar(G):
                assert is_generalized_caterpillar(G).path == oracle_central_path(G), sorted(G.edges)
                count += 1
    assert count == 1442


def test_caterpillar_gencat_labeling():
    """A frozen example, and a weakly closed labeling for every caterpillar
    class with n <= 6."""
    G = add_whisker(Graph.path(3), 2)  # path 1-2-3 with whisker 4 on 2
    lab = gencat_labeling(G)
    assert lab.as_dict() == {1: 1, 2: 2, 4: 3, 3: 4}
    assert is_weakly_closed_with_labeling(G, lab)
    for G in corpus.caterpillars_upto(6):
        assert is_weakly_closed_with_labeling(G, gencat_labeling(G)), sorted(G.edges)


def test_closed_examples():
    assert find_closed_labeling(Graph.path(5)) is not None
    assert find_closed_labeling(Graph.complete(4)) is not None
    assert find_closed_labeling(Graph.star(3)) is None  # trees are closed only when paths
    assert find_closed_labeling(Graph.cycle(4)) is None
    assert is_closed_with_labeling(Graph.path(3), Labeling((1, 2, 3)))
    assert not is_closed_with_labeling(
        Graph.path(3), Labeling.from_order([1, 3, 2])
    )


def test_weakly_closed_examples():
    assert is_weakly_closed(Graph.star(3))  # weakly closed but not closed
    assert is_weakly_closed(Graph.cycle(4))
    assert not is_weakly_closed(net_graph())
    # the complement of C5 is C5, which has no transitive orientation
    assert not is_weakly_closed(Graph.cycle(5))
    assert find_weakly_closed_labeling(Graph.cycle(5)) is None


def test_triangle_two_whiskers_frozen_labeling():
    # triangle {2,3,4}, pendants 1 on 2 and 5 on 4: labeling walking the
    # outer path is weakly closed
    G = Graph.from_edges(5, [(2, 3), (2, 4), (3, 4), (1, 2), (4, 5)])
    lab = Labeling.from_order([1, 2, 3, 4, 5])
    assert is_weakly_closed_with_labeling(G, lab)


def test_labeling_search_cap():
    big = Graph.path(9)
    with pytest.raises(SizeLimitError):
        find_closed_labeling(big)
    with pytest.raises(SizeLimitError):
        find_weakly_closed_labeling(big)
    # is_weakly_closed decides by co-comparability, so the cap does not bind it
    assert is_weakly_closed(big)


def test_guarded_searches_match_raw_search():
    """A claw, a chordless cycle of length >= 4, or a complement with no
    transitive orientation returns None before any search; on every class
    with n <= 6, as listed and under two seeded relabellings, the result
    is still that of the unguarded search, which is the pruned
    ``_search_labeling`` (checked against the plain search in
    test_pruned_search_matches_plain_search)."""
    rng = random.Random(20)
    for G in corpus.graphs_upto(6):
        for H in [G, *seeded_relabellings(G, 2, rng)]:
            assert find_closed_labeling(H) == _search_labeling(H, _closed_triple), sorted(H.edges)
            assert (find_weakly_closed_labeling(H)
                    == _search_labeling(H, _weakly_closed_triple)), sorted(H.edges)


def test_pruned_search_matches_plain_search(classes_upto_7):
    """The forward-checking search returns the plain backtracking search's
    labelling, or None with it, under both triple conditions: on every
    class with n <= 6 under two seeded relabellings, and on every n = 7
    class as listed."""
    rng = random.Random(26)
    cases = [H for G in classes_upto_7 if G.n <= 6 for H in seeded_relabellings(G, 2, rng)]
    cases += [G for G in classes_upto_7 if G.n == 7]
    assert len(cases) == 2 * 208 + 1044
    for H in cases:
        for triple_ok in (_closed_triple, _weakly_closed_triple):
            assert (_search_labeling(H, triple_ok)
                    == oracle_search_labeling(H, triple_ok)), (sorted(H.edges), triple_ok)


def test_closed_labeling_needs_chordal(classes_upto_7):
    """On every class with n <= 7, a graph that networkx finds not chordal
    has no closed labelling, and find_closed_labeling returns the plain
    search's labelling."""
    non_chordal = 0
    for G in classes_upto_7:
        got = find_closed_labeling(G)
        if not nx.is_chordal(G.to_networkx()):
            non_chordal += 1
            assert got is None, sorted(G.edges)
        assert got == oracle_search_labeling(G, _closed_triple), sorted(G.edges)
    assert non_chordal > 0


def test_comparability_against_oracle():
    """Every class with n <= 5 and its complement."""
    for G in corpus.graphs_upto(5):
        for H in (G, complement(G)):
            assert is_comparability(H) == oracle_is_comparability(H), sorted(H.edges)
    assert not is_comparability(Graph.cycle(5))
    assert is_comparability(Graph.cycle(6))


def test_net_free():
    assert not is_net_free(net_graph())
    assert is_net_free(Graph.cycle(6))
    assert is_net_free(Graph.complete(6))
    assert is_net_free(Graph.path(5))
    # net plus an isolated vertex still contains an induced net
    assert not is_net_free(disjoint_union(net_graph(), Graph.empty(1)))


def test_net_free_against_isomorphism_oracle():
    """Every graph with n <= 6 up to isomorphism (the networkx atlas), and
    the net plus a seventh vertex with every possible neighbourhood, which
    covers the isolated vertex and a whisker at each corner or pendant."""
    graphs = [Graph.from_edges(g.number_of_nodes(), [(a + 1, b + 1) for a, b in g.edges])
              for g in nx.graph_atlas_g()[1:] if g.number_of_nodes() <= 6]
    net = net_graph()
    for mask in range(1 << 6):
        extra = [(v, 7) for v in net.vertices if mask >> (v - 1) & 1]
        graphs.append(Graph(7, net.edges | Graph.from_edges(7, extra).edges))
    assert sum(not oracle_is_net_free(G) for G in graphs) > 64
    for G in graphs:
        assert is_net_free(G) == oracle_is_net_free(G), sorted(G.edges)


def test_gencat_examples():
    # the net itself is a generalized caterpillar (but not net-free)
    w = is_generalized_caterpillar(net_graph())
    assert w is not None and w.replay() == net_graph()
    assert is_generalized_caterpillar(Graph.cycle(4)) is None
    assert is_generalized_caterpillar(spider_222()) is None
    assert is_generalized_caterpillar(Graph.complete(4)) is not None
    w = is_generalized_caterpillar(Graph.complete(9))
    assert (w.path, w.joins, w.whiskers) == ((1, 2), (((1, 2), 9, tuple(range(3, 10))),), ())
    # P_4 with a K_4 joined on each end edge; the bridge between them is a path edge
    G = clique_join(clique_join(Graph.path(4), (1, 2), 4), (3, 4), 4)
    w = is_generalized_caterpillar(G)
    assert (w.path, w.joins, w.whiskers) == (
        (1, 2, 3, 4), (((1, 2), 4, (5, 6)), ((3, 4), 4, (7, 8))), ())
    assert w.replay() == G


def test_gencat_against_forward_generation():
    """The recognizer must agree exactly with brute-force forward
    generation from the construction rules, on every connected
    isomorphism class with n <= 6, as listed and under two seeded
    relabellings."""
    rng = random.Random(18)
    forms = generate_gencat_forms(6)
    for G in connected_classes(6):
        expect = corpus.canonical_form(G) in forms
        for H in [G, *seeded_relabellings(G, 2, rng)]:
            got = is_generalized_caterpillar(H)
            assert (got is not None) == expect, sorted(H.edges)
            if got is not None:
                assert got.replay() == H


def test_gencat_labeling():
    for G in corpus.gencat_corpus():
        lab = gencat_labeling(G)
        assert is_weakly_closed_with_labeling(G, lab)
    with pytest.raises(ValueError):
        gencat_labeling(net_graph())
    with pytest.raises(ValueError):
        gencat_labeling(Graph.cycle(4))


def test_gencat_labeling_on_every_net_free_class():
    """Every net-free generalized caterpillar class with n <= 6, as
    listed and under two seeded relabellings."""
    rng = random.Random(7)
    graphs = [G for G in connected_classes(6)
              if is_generalized_caterpillar(G) is not None and is_net_free(G)]
    assert len(graphs) > len(corpus.gencat_corpus())
    for G in graphs:
        for H in [G, *seeded_relabellings(G, 2, rng)]:
            assert is_weakly_closed_with_labeling(H, gencat_labeling(H)), sorted(H.edges)
