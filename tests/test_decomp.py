import random
from itertools import combinations, permutations

import pytest

from bel import corpus, decomp, kernel
from bel.bei import binomial_edge_ideal
from bel.decomp import (
    _inclusion_minimal,
    _lies_inside,
    _subsets,
    equality_verdict,
    groebner_verdict,
    minimal_primes,
    prime_component,
    symbolic_power,
)
from bel.errors import SizeLimitError
from bel.fields import PrimeField
from bel.graphs import Graph, ass_count_is_two, disjoint_union, is_connected, net_graph
from bel.ideals import intersect_all
from bel.recognizers import is_caterpillar

from conftest import oracle_minimal_primes


def U_sets(primes):
    return sorted(sorted(pc.U) for pc in primes)


def test_prime_component_shape():
    pc = prime_component(Graph.path(3), {2})
    assert (pc.c, pc.dim) == (2, 4)  # height 2 in 6 variables
    assert sorted(map(sorted, pc.components)) == [[1], [3]]
    # generators: x2, y2 and nothing else (singleton components)
    assert len(pc.ideal.gens) == 2


def test_minimal_primes_frozen():
    assert U_sets(minimal_primes(Graph.path(3))) == [[], [2]]
    assert U_sets(minimal_primes(Graph.star(3))) == [[], [1]]
    assert U_sets(minimal_primes(Graph.complete(4))) == [[]]
    assert U_sets(minimal_primes(net_graph())) == [
        [], [1], [1, 2], [1, 3], [2], [2, 3], [3],
    ]


def test_methods_agree(classes_upto_7):
    """Containment and cutpoint give the same primes on every class with
    n <= 7, disconnected ones included; an unknown method is refused
    before the size cap."""
    for G in classes_upto_7:
        a = U_sets(minimal_primes(G, method="containment"))
        b = U_sets(minimal_primes(G, method="cutpoint"))
        assert a == b, sorted(G.edges)
    with pytest.raises(ValueError):
        minimal_primes(Graph.path(3), method="nope")
    with pytest.raises(ValueError):
        minimal_primes(Graph.path(9), method="bogus")


def _disconnected(n, seed):
    rng = random.Random(seed)
    pairs = list(combinations(range(1, n + 1), 2))
    while True:
        G = Graph.from_edges(n, [p for p in pairs if rng.random() < 0.5])
        if not is_connected(G):
            return G


def _labelled_upto_4():
    return [
        Graph.from_edges(n, [p for k, p in enumerate(pairs) if mask >> k & 1])
        for n in range(1, 5)
        for pairs in [list(combinations(range(1, n + 1), 2))]
        for mask in range(1 << len(pairs))
    ]


def test_minimal_primes_match_oracle():
    """The survivor filter returns the all-pairs filter's list, in its
    order, and the same set when fed the subsets in another order that
    ascends in |U| (each size class reversed)."""
    graphs = _labelled_upto_4()
    graphs += [net_graph()] + [_disconnected(n, seed) for n, seed in [(5, 1), (5, 2), (6, 3), (6, 4)]]
    for G in graphs:
        want = [(pc.U, pc.components) for pc in oracle_minimal_primes(G)]
        assert [(pc.U, pc.components) for pc in minimal_primes(G)] == want, sorted(G.edges)
        by_size = sorted(reversed(list(_subsets(G.vertices))), key=len)
        assert {pc.U for pc in _inclusion_minimal(G, by_size)} == {U for U, _ in want}, sorted(G.edges)


def test_containment_by_definition_is_groebner_membership():
    """For every labelled graph with n <= 4 and the net, and every pair
    (T, U), P_T lies inside P_U by the components of G minus T and G
    minus U exactly when Groebner membership says so."""
    for G in _labelled_upto_4() + [net_graph()]:
        primes = [prime_component(G, U) for U in _subsets(G.vertices)]
        for pu in primes:
            where = {v: i for i, comp in enumerate(pu.components) for v in comp}
            for pt in primes:
                want = pu.ideal.contains_ideal(pt.ideal)
                assert _lies_inside(pt, pu.U, where) == want, (sorted(G.edges), sorted(pt.U), sorted(pu.U))


def test_containment_builds_only_kept_bases(monkeypatch):
    """Containment minimal_primes runs kernel.buchberger once for each
    minimal prime after P_emptyset: on the net and on C8 with chords 1-5,
    2-6 and 3-7, which have 7 and 15."""
    c8 = Graph(8, Graph.cycle(8).edges | {(1, 5), (2, 6), (3, 7)})
    calls = []
    real = kernel.buchberger
    monkeypatch.setattr(kernel, "buchberger", lambda *args: calls.append(1) or real(*args))
    for G, count in ((net_graph(), 7), (c8, 15)):
        calls.clear()
        assert len(minimal_primes(G)) == count
        assert len(calls) == count - 1, sorted(G.edges)


def test_minimal_primes_cap():
    with pytest.raises(SizeLimitError):
        minimal_primes(Graph.path(9))


def test_edge_ideal_is_intersection_of_minimal_primes():
    for G in [Graph.path(4), Graph.star(3), Graph.cycle(4)]:
        primes = minimal_primes(G)
        assert intersect_all([pc.ideal for pc in primes]).equal(binomial_edge_ideal(G))


def test_symbolic_equals_ordinary_for_closed_cases():
    for G in [Graph.path(3), Graph.complete(3), Graph.path(4)]:
        assert symbolic_power(G, 2).equal(binomial_edge_ideal(G).power(2))
    with pytest.raises(ValueError):
        symbolic_power(Graph.path(3), 0)


def test_verdict_equal():
    v = groebner_verdict(Graph.path(3), 2)
    assert v.equal and v.witness is None
    assert v.check_witness(
        binomial_edge_ideal(Graph.path(3)).power(2), symbolic_power(Graph.path(3), 2)
    )


def test_verdict_unequal_net():
    v = equality_verdict(net_graph(), 2)
    assert not v.equal and v.witness is not None
    ordinary = binomial_edge_ideal(net_graph()).power(2)
    symbolic = symbolic_power(net_graph(), 2)
    assert v.check_witness(ordinary, symbolic)
    assert symbolic.contains(v.witness)
    assert not ordinary.contains(v.witness)
    # the witness is sextic and vanishes on every minimal prime squared
    assert v.witness.total_degree() == 6
    for pc in minimal_primes(net_graph()):
        assert pc.ideal.power(2).contains(v.witness)


def test_prime_field_verdicts_match():
    F = PrimeField(32003)
    for G in [Graph.path(3), Graph.star(3)]:
        assert equality_verdict(G, 2, F).equal == groebner_verdict(G, 2).equal


def test_prime_component_validates_U():
    with pytest.raises(ValueError):
        prime_component(Graph.path(3), {5})


def _theorem(G):
    """The certificate the paper's theorems give a connected graph, or None."""
    if ass_count_is_two(G):
        return "ass_two"
    return "caterpillar" if is_caterpillar(G) else None


def test_theorem_route_agrees_with_groebner(small_transversal):
    """Every covered connected graph with n <= 5 at t = 2, and n <= 4 at
    t = 3, gets equality from its theorem and from Groebner."""
    covered = [G for G in small_transversal if _theorem(G)]
    cases = [(G, 2) for G in covered] + [(G, 3) for G in covered if G.n <= 4]
    assert {_theorem(G) for G in covered} == {"ass_two", "caterpillar"}
    for G, t in cases:
        v = equality_verdict(G, t)
        assert (v.equal, v.witness, v.certificate) == (True, None, _theorem(G)), (sorted(G.edges), t)
        g = groebner_verdict(G, t)
        assert (g.equal, g.witness, g.certificate) == (True, None, "groebner"), (sorted(G.edges), t)


NET_WITNESS = ("x1*x4*x5*y2*y3*y6 - x1*x4*x6*y2*y3*y5 - x2*x4*x5*y1*y3*y6 + x2*x5*x6*y1*y3*y4"
               " + x3*x4*x6*y1*y2*y5 - x3*x5*x6*y1*y2*y4")
HOUSE = Graph.from_edges(5, [(1, 3), (1, 4), (2, 3), (2, 4), (3, 5), (4, 5)])
HOUSE_DIAGONAL = Graph(5, HOUSE.edges | {(1, 2)})
K23 = Graph.from_edges(5, [(1, 2), (1, 5), (2, 3), (2, 4), (3, 5), (4, 5)])


def test_verdict_route(monkeypatch):
    """Covered graphs are decided without a kernel call; the rest, prime
    fields and disconnected graphs keep the Groebner verdict and witness."""
    groebner_cases = [
        (net_graph(), None, False, NET_WITNESS),
        (HOUSE, None, True, None),
        (HOUSE_DIAGONAL, None, True, None),
        (K23, None, True, None),
        (Graph.complete(4), None, True, None),
        (disjoint_union(Graph.path(3), Graph.path(3)), None, True, None),
        (Graph.path(3), PrimeField(32003), True, None),
    ]
    for G, field, equal, witness in groebner_cases:
        v = equality_verdict(G, 2, field) if field else equality_verdict(G, 2)
        got = (v.equal, str(v.witness) if v.witness else None, v.certificate)
        assert got == (equal, witness, "groebner"), sorted(G.edges)

    def no_kernel(*args, **kwargs):
        raise AssertionError("kernel called on a covered graph")

    for name in ("buchberger", "normal_form", "interreduce"):
        monkeypatch.setattr(kernel, name, no_kernel)
    covered = [(Graph.path(3), "ass_two"), (Graph.star(3), "ass_two"),
               (Graph(5, Graph.complete(5).edges - {(4, 5)}), "ass_two"),
               (Graph.path(4), "caterpillar"), (Graph.path(8), "caterpillar"),
               (Graph.complete(1), "caterpillar")]
    for G, cert in covered:
        for t in (1, 2, 5):
            v = equality_verdict(G, t)
            assert (v.equal, v.witness, v.certificate) == (True, None, cert), sorted(G.edges)
    with pytest.raises(ValueError):
        equality_verdict(Graph.path(3), 0)
    with pytest.raises(SizeLimitError):
        equality_verdict(Graph.path(9), 2)


def test_fold_order_does_not_change_the_basis():
    """symbolic_power folds top-dimensional first, yet every order of the
    three P_U^2 of the house, the house with a diagonal and K_{2,3}, and
    three other orders of the six of C5, fold to its reduced basis; the
    net, whose seven primes all have dimension 7, keeps its witness."""
    for G in (HOUSE, HOUSE_DIAGONAL, K23):
        want = symbolic_power(G, 2).groebner()
        powers = [pc.ideal.power(2) for pc in minimal_primes(G)]
        assert len(powers) == 3
        for order in permutations(powers):
            assert intersect_all(order).groebner() == want, sorted(G.edges)
    C5 = Graph.cycle(5)
    primes = minimal_primes(C5)
    assert [pc.dim for pc in primes] == [6, 5, 5, 5, 5, 5]
    powers = [pc.ideal.power(2) for pc in primes]
    want = symbolic_power(C5, 2).groebner()
    # P_emptyset^2 last, in the middle, and the list reversed
    for order in (powers[1:] + powers[:1], powers[1:3] + powers[:1] + powers[3:], powers[::-1]):
        assert intersect_all(order).groebner() == want
    assert {pc.dim for pc in minimal_primes(net_graph())} == {7}
    v = groebner_verdict(net_graph(), 2)
    assert (v.equal, str(v.witness)) == (False, NET_WITNESS)


def test_house_fold_reduces_few_s_polynomials(monkeypatch):
    """The house's t=2 fold, with the basis of the result, reduces at most
    1,500 S-polynomials: folded fewest generators first, P_emptyset^2 came
    last and it reduced 3,387."""
    stats = {}
    buchberger, fold = kernel.buchberger, decomp.intersect_all

    def counted_fold(ideals):
        monkeypatch.setattr(kernel, "buchberger", lambda gens, nvars: buchberger(gens, nvars, stats))
        return fold(ideals)

    monkeypatch.setattr(decomp, "intersect_all", counted_fold)
    symbolic_power(HOUSE, 2).groebner()
    assert 0 < stats["reduced"] <= 1500
