import random

import pytest
from networkx.algorithms.isomorphism import GraphMatcher

from bel.bei import initial_ideal
from bel.complexes import (
    SimplicialComplex,
    SpecialCycle,
    delta_of,
    equality_criterion_via_cycles,
    find_special_odd_cycle,
)
from bel.decomp import groebner_verdict, minimal_primes
from bel.corpus import canonical_form
from bel.graphs import Graph, net_graph
from bel.recognizers import gencat_labeling, is_generalized_caterpillar, is_net_free
from conftest import (
    generate_gencat_forms,
    graph_of_form,
    oracle_first_special_odd_cycle,
    oracle_is_net_free,
    oracle_special_odd_cycles,
    seeded_relabellings,
)


def cx(*facets):
    syms = sorted(set().union(*map(set, facets)))
    return SimplicialComplex(tuple(syms), tuple(frozenset(f) for f in facets))


def test_antichain_enforced():
    with pytest.raises(ValueError):
        cx("ab", "abc")


def test_delta_of_initial_ideal(monkeypatch):
    from bel.bei import binomial_edge_ideal, graph_ring
    from bel.ideals import Ideal

    def no_groebner(self):
        raise AssertionError("delta_of reads the generators")

    monkeypatch.setattr(Ideal, "groebner", no_groebner)
    c = delta_of(initial_ideal(Graph.path(3)))
    assert set(c.facets) == {frozenset({"x1", "y2"}), frozenset({"x2", "y3"})}
    with pytest.raises(ValueError):
        delta_of(binomial_edge_ideal(Graph.path(3)))  # not a monomial ideal
    # non-minimal generators are dropped before the squarefree check
    R = graph_ring(Graph.path(3))
    x1, y2, x3 = R.x(1), R.y(2), R.x(3)
    c = delta_of(Ideal(R, [x1 * y2 * x3, x1 * y2, x1 * x1 * y2, x1 * y2]))
    assert c.facets == (frozenset({"x1", "y2"}),)
    with pytest.raises(ValueError):
        delta_of(Ideal(R, [x1 * x1 * y2, x3]))  # not squarefree


def test_triangle_cycle_found():
    c = cx("ab", "bc", "ca")
    got = find_special_odd_cycle(c)
    assert got is not None and got.length == 3
    got.validate(c)
    assert oracle_special_odd_cycles(list(c.facets))


def test_no_cycle_in_trees_of_facets():
    c = cx("ab", "bc", "cd")
    assert find_special_odd_cycle(c) is None
    assert not oracle_special_odd_cycles(list(c.facets))


def test_big_facet_outside_cycle_is_allowed():
    # the special condition only constrains facets of the cycle itself: a
    # facet containing all three cycle vertices does not break the cycle
    # through the enlarged pair facets
    c = cx("abx", "bcy", "caz", "abc")
    got = find_special_odd_cycle(c)
    assert got is not None
    got.validate(c)
    assert (got is not None) == bool(oracle_special_odd_cycles(list(c.facets)))


def test_even_cycles_not_reported():
    c = cx("ab", "bc", "cd", "da")
    assert find_special_odd_cycle(c) is None
    assert not oracle_special_odd_cycles(list(c.facets))


def test_oracle_agreement_on_graph_complexes():
    with_cycle = 0
    for G in [
        Graph.path(4),
        Graph.star(3),
        Graph.cycle(4),
        Graph.complete(3),
        net_graph(),
        Graph.from_edges(4, [(1, 2), (1, 3), (2, 4)]),  # a P_4, 5 facets
    ]:
        c = delta_of(initial_ideal(G))
        if len(c.facets) > 8:
            continue
        got = find_special_odd_cycle(c)
        brute = oracle_special_odd_cycles(list(c.facets))
        assert (got is not None) == bool(brute), sorted(map(sorted, c.facets))
        if got is not None:
            got.validate(c)
            with_cycle += 1
    assert with_cycle == 1  # the labelled P_4 above


def test_net_has_special_odd_cycle():
    assert not equality_criterion_via_cycles(net_graph())


def test_generalized_caterpillars_upto_7(classes_upto_7):
    """Verified for n <= 7, over every isomorphism class: each net-free
    generalized caterpillar, relabelled by ``gencat_labeling``, has an
    initial complex with no special odd cycle, which certifies
    J_G^t = J_G^(t) for every t (``equality_criterion_via_cycles``).
    The others are exactly the ones with an induced net, by the
    networkx isomorphism oracle."""
    gencats = [G for G in classes_upto_7 if is_generalized_caterpillar(G) is not None]
    net_free = [G for G in gencats if is_net_free(G)]
    assert len(net_free) == 89 and sum(G.n >= 2 for G in net_free) == 88
    assert len(gencats) - len(net_free) == 5
    for G in gencats:
        assert oracle_is_net_free(G) == (G in net_free), sorted(G.edges)
    for G in net_free:
        H = gencat_labeling(G).apply(G)
        assert find_special_odd_cycle(delta_of(initial_ideal(H))) is None, sorted(H.edges)


def test_generalized_caterpillars_with_a_net_are_unequal(classes_upto_7):
    """Verified for n <= 7: every generalized caterpillar that is not
    net-free, the net and four classes with n = 7, has J_G^2 != J_G^(2)
    by the Groebner verdict.  With test_generalized_caterpillars_upto_7,
    a generalized caterpillar with n <= 7 is equal at t=2 iff it is
    net-free.

    At t=3 the unequal side goes by heredity: each of the five contains
    an induced net (found by networkx, independently of is_net_free), and
    the net's cube witness f lies in P^3 for each of its minimal primes P.
    Heredity, sketched: if H is an induced subgraph of G and f witnesses
    J_H^t != J_H^(t), then J_G^t != J_G^(t).  The retraction sending x_v
    and y_v to 0 for v outside H maps J_G^t onto J_H^t and fixes f, so f
    is not in J_G^t.  For every U, P_{U cap V(H)}(H) lies in P_U(G),
    because a path in H - U avoids U; some minimal prime P_T(H) lies in
    P_{U cap V(H)}(H), and f is in P_T(H)^t, so f is in P_U(G)^t for
    every U, hence in J_G^(t)."""
    with_net = [G for G in classes_upto_7
                if is_generalized_caterpillar(G) is not None and not is_net_free(G)]
    assert sorted(G.n for G in with_net) == [6, 7, 7, 7, 7]
    net = net_graph()
    for G in with_net:
        assert GraphMatcher(G.to_networkx(), net.to_networkx()).subgraph_is_isomorphic(), \
            sorted(G.edges)
        assert not groebner_verdict(G, 2).equal, sorted(G.edges)
    cube = groebner_verdict(net, 3)
    assert not cube.equal
    primes = minimal_primes(net)
    assert len(primes) == 7
    for pc in primes:
        assert pc.ideal.power(3).contains(cube.witness), sorted(pc.U)


def test_generalized_caterpillars_by_construction_upto_8(classes_upto_7):
    """Verified for n <= 8 over every generalized caterpillar built forward
    from the definition (``generate_gencat_forms``), one per isomorphism
    class.  Each of the 216 net-free ones, relabelled by
    ``gencat_labeling``, has an initial complex with no special odd cycle,
    by the library search and by the plain search, so J_G^t = J_G^(t) for
    every t.  Each of the other 24 contains an induced net, found by
    networkx, so by heredity (see the test above) it is unequal at every t
    where the net has a witness.  The 94 with n <= 7 are exactly the
    generalized caterpillars among the classes with n <= 7."""
    forms = generate_gencat_forms(8)
    assert {f for f in forms if f[0] <= 7} == {
        canonical_form(G) for G in classes_upto_7 if is_generalized_caterpillar(G) is not None}
    assert len(forms) == 240 and sum(f[0] <= 7 for f in forms) == 94
    net = net_graph().to_networkx()
    net_free = 0
    for form in sorted(forms):
        G = graph_of_form(form)
        assert canonical_form(G) == form
        has_net = GraphMatcher(G.to_networkx(), net).subgraph_is_isomorphic()
        assert is_net_free(G) == (not has_net), sorted(G.edges)
        if has_net:
            continue
        net_free += 1
        c = delta_of(initial_ideal(gencat_labeling(G).apply(G)))
        assert find_special_odd_cycle(c) is None, sorted(G.edges)
        assert oracle_first_special_odd_cycle(c) is None, sorted(G.edges)
    assert (net_free, len(forms) - net_free) == (216, 24)


def test_validate_rejects_bad_cycles():
    c = cx("ab", "bc", "ca")
    f = {frozenset(s) for s in ("ab", "bc", "ca")}
    fab, fbc, fca = (frozenset(s) for s in ("ab", "bc", "ca"))
    with pytest.raises(ValueError):
        SpecialCycle(("a", "b"), (fab,)).validate(c)
    with pytest.raises(ValueError):
        SpecialCycle(("a", "b", "a"), (fab, fbc, fca)).validate(c)
    with pytest.raises(ValueError):
        SpecialCycle(("a", "b", "c"), (fab, fbc, frozenset("ad"))).validate(c)


def test_search_matches_plain_search(classes_upto_7):
    """The incremental search returns exactly the cycle of the plain
    search, vertices and facets in order, or None with it: every class
    with n <= 7 under its own labelling and two seeded relabellings."""
    rng = random.Random(27)
    found = 0
    for G in classes_upto_7:
        for H in [G] + seeded_relabellings(G, 2, rng):
            c = delta_of(initial_ideal(H))
            got = find_special_odd_cycle(c)
            assert got == oracle_first_special_odd_cycle(c), sorted(H.edges)
            found += got is not None
    assert 0 < found < 3 * len(classes_upto_7)
