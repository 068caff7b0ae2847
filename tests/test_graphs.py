from itertools import combinations

import pytest

from bel import corpus
from bel.graphs import (
    Graph,
    GraphParseError,
    add_whisker,
    ass_count_is_two,
    blocks,
    clique_join,
    complement,
    components_within,
    connected_components,
    disjoint_union,
    dominating_set_T,
    from_text,
    is_block_graph,
    is_connected,
    net_graph,
    relabel,
    to_text,
)
from conftest import _induced, oracle_blocks, oracle_components, seeded_graphs


def test_constructors():
    assert Graph.complete(4).edges == frozenset(
        {(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)}
    )
    assert Graph.path(4).edges == frozenset({(1, 2), (2, 3), (3, 4)})
    assert Graph.cycle(4).edges == frozenset({(1, 2), (2, 3), (3, 4), (1, 4)})
    assert Graph.star(3).edges == frozenset({(1, 2), (1, 3), (1, 4)})
    assert Graph.empty(2).edges == frozenset()


def test_validation():
    with pytest.raises(ValueError):
        Graph(0, frozenset())
    with pytest.raises(ValueError):
        Graph.from_edges(2, [(1, 3)])
    with pytest.raises(ValueError):
        Graph.from_edges(2, [(1, 1)])


def test_basic_queries():
    G = Graph.from_edges(4, [(1, 2), (2, 3)])
    assert G.adj[2] == {1, 3}
    assert G.degree(2) == 2 and G.degree(4) == 0
    assert G.has_edge(2, 1) and not G.has_edge(1, 3)


def test_adjacency_is_frozen_and_outside_equality():
    G = Graph.from_edges(4, [(1, 2), (2, 3)])
    with pytest.raises(AttributeError):
        G.adj[2].add(4)
    assert G.adj == {1: {2}, 2: {1, 3}, 3: {2}, 4: set()}
    fresh = Graph(4, G.edges)
    assert "adj" not in vars(fresh)
    assert G == fresh and hash(G) == hash(fresh)
    assert {G: "built"}[fresh] == "built"


def test_net_graph_shape():
    net = net_graph()
    assert net.n == 6
    assert sorted(net.degree(v) for v in net.vertices) == [1, 1, 1, 3, 3, 3]
    assert blocks(net) == [{1, 2, 3}, {1, 4}, {2, 5}, {3, 6}]
    assert is_block_graph(net)


def test_structure_against_oracles():
    """Every graph with n <= 6 up to isomorphism, disconnected ones and
    isolated vertices included, and 300 seeded graphs with n = 7-9."""
    graphs = corpus.graphs_upto(6) + seeded_graphs((7, 8, 9), 300, seed=13)
    for G in graphs:
        assert connected_components(G) == oracle_components(G)
        assert blocks(G) == oracle_blocks(G), sorted(G.edges)
    assert len(graphs) == 508


def test_components_within():
    G = Graph.from_edges(5, [(1, 2), (2, 3), (4, 5)])
    assert components_within(G, {1, 3, 4, 5}) == [{1}, {3}, {4, 5}]


def test_components_within_against_oracle():
    """Every vertex subset of every graph with n <= 5, up to isomorphism:
    the oracle runs on the induced subgraph, whose labels keep the order
    of the original ones."""
    checked = 0
    for G in corpus.graphs_upto(5):
        assert components_within(G, ()) == []
        for r in range(1, G.n + 1):
            for verts in combinations(G.vertices, r):
                want = [{verts[i - 1] for i in c}
                        for c in oracle_components(_induced(G, verts))]
                assert components_within(G, verts) == want, (sorted(G.edges), verts)
                checked += 1
    assert checked > 1000


def test_dominating_set():
    assert dominating_set_T(Graph.complete(3)) == {1, 2, 3}
    assert dominating_set_T(Graph.star(3)) == {1}
    assert dominating_set_T(Graph.path(4)) == set()


def test_ass_count_is_two_frozen_values():
    assert ass_count_is_two(Graph.star(3))
    assert ass_count_is_two(Graph.path(3))
    assert not ass_count_is_two(Graph.complete(3))  # nothing left outside T
    assert not ass_count_is_two(Graph.path(4))      # T empty
    assert not ass_count_is_two(net_graph())
    with pytest.raises(ValueError):
        ass_count_is_two(Graph.empty(2))


def test_constructions():
    paw = add_whisker(Graph.complete(3), 1)
    assert paw.n == 4 and paw.has_edge(1, 4)
    bull = clique_join(Graph.path(4), (2, 3), 3)
    assert bull.n == 5 and bull.adj[5] == {2, 3}
    with pytest.raises(ValueError):
        clique_join(Graph.path(3), (1, 3), 3)
    assert complement(complement(bull)) == bull
    du = disjoint_union(Graph.path(2), Graph.path(2))
    assert du.edges == frozenset({(1, 2), (3, 4)})
    assert relabel(Graph.path(3), {1: 3, 2: 2, 3: 1}) == Graph.path(3)
    with pytest.raises(ValueError):
        relabel(Graph.path(3), {1: 1, 2: 2, 3: 2})


def test_text_round_trip():
    for G in [Graph.path(4), net_graph(), Graph.empty(3)]:
        assert from_text(to_text(G)) == G


def test_parse_features():
    G = from_text("# comment\nn 4\n1 2  # inline\n\n2 3\n")
    assert G == Graph.from_edges(4, [(1, 2), (2, 3)])
    # header optional: n inferred from the largest endpoint
    assert from_text("1 2\n2 5\n").n == 5


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("1 2 3\n", "line 1"),
        ("n x\n", "vertex count"),
        ("1 a\n", "non-integer"),
        ("2 2\n", "loop"),
        ("0 1\n", "1-indexed"),
        ("n 2\n1 3\n", "exceeds"),
        ("n 2\nn 3\n", "header"),
        ("n 0\n1 2\n", "line 1: vertex count must be positive, got 0"),
        ("# c\nn -2\n", "line 2: vertex count must be positive, got -2"),
        ("", "empty input"),
    ],
)
def test_parse_errors(text, fragment):
    with pytest.raises(GraphParseError, match=fragment):
        from_text(text)
