"""Property-based invariants over random graphs and polynomials."""

from itertools import combinations

from hypothesis import given, settings, strategies as st

from bel.bei import binomial_edge_ideal, gb_max_degree, groebner_combinatorial
from bel.decomp import minimal_primes
from bel.fields import QQ
from bel.graphs import Graph, complement, connected_components, disjoint_union
from bel.ideals import Ideal
from bel.recognizers import (
    Labeling,
    _search_labeling,
    _weakly_closed_triple,
    is_comparability,
    is_net_free,
    is_weakly_closed,
)


@st.composite
def graphs(draw, min_n=1, max_n=5):
    n = draw(st.integers(min_n, max_n))
    pairs = list(combinations(range(1, n + 1), 2))
    mask = draw(st.integers(0, 2 ** len(pairs) - 1))
    return Graph.from_edges(n, (p for i, p in enumerate(pairs) if mask >> i & 1))


@st.composite
def labelings(draw, n):
    return Labeling(tuple(draw(st.permutations(range(1, n + 1)))))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_recognizers_are_isomorphism_invariant(data):
    G = data.draw(graphs())
    lab = data.draw(labelings(G.n))
    H = lab.apply(G)
    assert is_weakly_closed(G) == is_weakly_closed(H)
    assert is_comparability(G) == is_comparability(H)
    assert is_net_free(G) == is_net_free(H)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_weak_closedness_equals_co_comparability(data):
    """The unguarded labeling search, not is_weakly_closed or
    find_weakly_closed_labeling, which decide by co-comparability."""
    G = data.draw(graphs())
    found = _search_labeling(G, _weakly_closed_triple) is not None
    assert found == is_comparability(complement(G))


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_combinatorial_basis_matches_buchberger(data):
    G = data.draw(graphs(max_n=5))
    assert list(groebner_combinatorial(G)) == list(binomial_edge_ideal(G).groebner())


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_groebner_idempotent_and_membership(data):
    G = data.draw(graphs(max_n=5))
    I = binomial_edge_ideal(G)
    gb = I.groebner()
    assert tuple(Ideal(I.ring, gb).groebner()) == tuple(gb)
    for g in gb:
        assert I.contains(g)
    for g in I.gens:
        assert g in I


@settings(max_examples=20, deadline=None)
@given(st.data())
def test_gb_degree_multiset_is_isomorphism_invariant(data):
    """The minimum over labelings is invariant; spot-check by comparing
    the degree of G under sigma with the relabeled graph's identity degree."""
    G = data.draw(graphs(min_n=2, max_n=4))
    lab = data.draw(labelings(G.n))
    assert gb_max_degree(G, lab) == gb_max_degree(lab.apply(G))


@settings(max_examples=20, deadline=None)
@given(st.data())
def test_minimal_primes_of_disjoint_union(data):
    """Minimal primes restrict to components: the count for a disjoint
    union is the product of the component counts."""
    A = data.draw(graphs(min_n=1, max_n=3))
    B = data.draw(graphs(min_n=1, max_n=3))
    U = disjoint_union(A, B)
    if U.n > 6:
        return
    na, nb, nu = (len(minimal_primes(X)) for X in (A, B, U))
    assert nu == na * nb


@settings(max_examples=15, deadline=None)
@given(st.data())
def test_minimal_prime_count_is_isomorphism_invariant(data):
    G = data.draw(graphs(min_n=1, max_n=4))
    lab = data.draw(labelings(G.n))
    assert len(minimal_primes(G)) == len(minimal_primes(lab.apply(G)))


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_components_partition_vertices(data):
    G = data.draw(graphs(max_n=6))
    comps = connected_components(G)
    seen = [v for c in comps for v in sorted(c)]
    assert sorted(seen) == list(G.vertices)
