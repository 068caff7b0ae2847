import hashlib
import random
from itertools import combinations

import pytest

from bel import corpus
from bel.bei import (
    AdmissiblePath,
    _edge_binomial_terms,
    admissible_paths,
    binomial_edge_ideal,
    edge_binomial,
    gb_max_degree,
    graph_ring,
    groebner_combinatorial,
    initial_ideal,
)
from bel.errors import SizeLimitError
from bel.fields import QQ, PrimeField
from bel.graphs import Graph, edge, net_graph
from bel.recognizers import Labeling
from bel.rings import RingContext
from conftest import connected_classes, oracle_admissible_paths, oracle_min_gb_degree

# sha256 of str of every groebner_combinatorial element, one line each and
# an empty line after each graph, over corpus.graphs_upto(7) as listed
_BASIS_DIGEST = "b6483cf153d6717e5112160e38860b70a649308259f47da19871c673eb2bf95d"


def test_edge_binomial():
    R = graph_ring(Graph.path(3))
    f = edge_binomial(R, 2, 1)
    assert str(f) == "x1*y2 - x2*y1"


def test_edge_binomial_terms_match_ring_arithmetic():
    """For 1 <= i < j <= 9, over QQ and F_32003, the written-down f_ij has
    the terms and the coefficient types of edge_binomial's; i >= j is
    refused, where edge_binomial gives 0 at i = j."""
    for field in (QQ, PrimeField(32003)):
        R = RingContext.for_graph(9, field)
        for i, j in combinations(range(1, 10), 2):
            got, want = _edge_binomial_terms(R, i, j), edge_binomial(R, i, j)
            assert got.terms == want.terms, (field, i, j)
            assert ([type(c) for _, c in got.terms]
                    == [type(c) for _, c in want.terms]), (field, i, j)
        assert edge_binomial(R, 3, 3).is_zero
        for i, j in ((3, 3), (4, 3)):
            with pytest.raises(ValueError):
                _edge_binomial_terms(R, i, j)


def test_combinatorial_basis_digest(classes_upto_7):
    """Every combinatorial basis over the 1,252 classes with n <= 7, as
    listed, hashes to the pinned digest."""
    digest = hashlib.sha256()
    for G in classes_upto_7:
        for g in groebner_combinatorial(G):
            digest.update(str(g).encode() + b"\n")
        digest.update(b"\n")
    assert len(classes_upto_7) == 1252
    assert digest.hexdigest() == _BASIS_DIGEST


def test_admissible_paths_path_graph():
    got = admissible_paths(Graph.path(3))
    assert got == [AdmissiblePath(1, 2, ()), AdmissiblePath(2, 3, ())]
    # the path 1-2-3 is NOT admissible for (1,3): interior vertex 2 is
    # strictly between the endpoints
    assert all(not (p.i, p.j) == (1, 3) for p in got)


def test_admissible_paths_star():
    # center 1: every leaf pair i<j connects through 1 < i, an admissible
    # interior vertex
    got = admissible_paths(Graph.star(3))
    assert AdmissiblePath(2, 3, (1,)) in got
    assert AdmissiblePath(2, 4, (1,)) in got
    assert AdmissiblePath(3, 4, (1,)) in got
    assert AdmissiblePath(1, 2, ()) in got
    assert len(got) == 6


def test_star_basis_frozen():
    """Reduced basis of the 3-star: the three edge binomials plus one
    cubic per leaf pair, multiplied by y_1."""
    G = Graph.star(3)
    gb = groebner_combinatorial(G)
    rendered = sorted(str(g) for g in gb)
    assert rendered == sorted(
        [
            "x1*y2 - x2*y1",
            "x1*y3 - x3*y1",
            "x1*y4 - x4*y1",
            "x2*y1*y3 - x3*y1*y2",
            "x2*y1*y4 - x4*y1*y2",
            "x3*y1*y4 - x4*y1*y3",
        ]
    )
    assert list(gb) == list(binomial_edge_ideal(G).groebner())


def test_combinatorial_matches_buchberger_small():
    for G in connected_classes(4):
        assert list(groebner_combinatorial(G)) == list(binomial_edge_ideal(G).groebner())


def test_initial_ideal_squarefree_and_minimal():
    for G in [Graph.path(4), Graph.star(3), Graph.cycle(4), net_graph()]:
        I = initial_ideal(G)
        monos = [g.leading_monomial() for g in I.gens]
        for m in monos:
            assert all(e <= 1 for e in m)
        for i, m in enumerate(monos):
            for j, k in enumerate(monos):
                if i != j:
                    assert not all(a <= b for a, b in zip(k, m))


def test_initial_ideal_matches_buchberger_leading_monomials():
    for G in connected_classes(5):
        lms = sorted(g.leading_monomial() for g in binomial_edge_ideal(G).groebner())
        assert [g.leading_monomial() for g in initial_ideal(G).gens] == lms


def test_gb_max_degree():
    assert gb_max_degree(Graph.path(4)) == 2
    assert gb_max_degree(Graph.star(3)) == 3
    assert gb_max_degree(Graph.complete(4)) == 2
    # a bad labeling of the path raises the degree
    assert gb_max_degree(Graph.path(3), Labeling.from_order([1, 3, 2])) == 3


def test_gb_max_degree_matches_basis_degrees(small_transversal):
    """gb_max_degree, read off the admissible paths, equals the largest
    degree of the combinatorial basis: on every connected graph with
    n <= 5 under its own labelling and a seeded relabelling, on seeded
    n = 6 graphs, and on edgeless graphs.  The basis has one element per
    admissible path: distinct paths never give the same element."""
    rng = random.Random(12)
    cases = []
    for G in small_transversal:
        cases += [(G, None), (G, Labeling(tuple(rng.sample(range(1, G.n + 1), G.n))))]
    for _ in range(60):
        edges = [e for e in combinations(range(1, 7), 2) if rng.random() < 0.5]
        cases.append((Graph.from_edges(6, edges), Labeling(tuple(rng.sample(range(1, 7), 6)))))
    cases += [(Graph.empty(n), None) for n in (1, 2, 4)]
    for G, lab in cases:
        H = lab.apply(G) if lab is not None else G
        basis = groebner_combinatorial(H)
        assert len(basis) == len(admissible_paths(H)), (G, lab)
        want = max((g.total_degree() for g in basis), default=0)
        assert gb_max_degree(G, lab) == want, (G, lab)


def test_min_gb_degree():
    assert oracle_min_gb_degree(Graph.path(4)) == 2
    # no labeling makes a non-path tree quadratic
    assert oracle_min_gb_degree(Graph.star(3)) == 3
    assert oracle_min_gb_degree(Graph.empty(2)) == 0
    with pytest.raises(SizeLimitError):
        oracle_min_gb_degree(Graph.path(8))


def test_min_degree_two_iff_closed():
    """A graph with edges has a quadratic reduced basis under some
    labeling exactly when it has a closed labeling."""
    from bel.recognizers import find_closed_labeling

    for G in connected_classes(5):
        if not G.edges:
            continue
        assert (oracle_min_gb_degree(G) == 2) == (find_closed_labeling(G) is not None), sorted(G.edges)


def test_admissible_paths_match_oracle():
    graphs = [G for n in range(1, 6) for G in corpus.all_graphs(n)]
    # K_n minus the three cycle edges 12, 23, 34: dense, many long paths
    graphs += [Graph(n, Graph.complete(n).edges - {edge(v, v + 1) for v in (1, 2, 3)})
               for n in (7, 8)]
    for G in graphs:
        got = [(p.i, p.j, p.interior) for p in admissible_paths(G)]
        assert got == oracle_admissible_paths(G), sorted(G.edges)
