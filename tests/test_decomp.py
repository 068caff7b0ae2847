import random
from functools import lru_cache
from itertools import combinations, permutations

import pytest

from bel import corpus, decomp, kernel
from bel.bei import binomial_edge_ideal, edge_binomial, initial_ideal
from bel.decomp import (
    _inclusion_minimal,
    _initial_containment,
    _lies_inside,
    _minimal_covers,
    _monomial_symbolic_power,
    _subsets,
    equality_verdict,
    groebner_verdict,
    minimal_primes,
    prime_component,
    symbolic_power,
)
from bel.errors import SizeLimitError
from bel.fields import PrimeField
from bel.graphs import Graph, disjoint_union, is_connected, net_graph
from bel.ideals import Ideal, intersect_all

from conftest import check_lifted_witness, connected_classes, oracle_minimal_primes


def U_sets(primes):
    return sorted(sorted(pc.U) for pc in primes)


def test_prime_component_shape():
    pc = prime_component(Graph.path(3), {2})
    assert (pc.c, pc.dim) == (2, 4)  # height 2 in 6 variables
    assert sorted(map(sorted, pc.components)) == [[1], [3]]
    # generators: x2, y2 and nothing else (singleton components)
    assert len(pc.ideal.gens) == 2


def test_prime_component_compares_without_buchberger(monkeypatch):
    """A prime component compares and hashes by U, its components and its
    ring, so components over different fields differ; neither comparison
    nor hash runs kernel.buchberger."""
    G = net_graph()
    pc = prime_component(G, {1, 2})
    calls = []
    real = kernel.buchberger
    monkeypatch.setattr(kernel, "buchberger", lambda *args: calls.append(1) or real(*args))
    assert hash(pc) == hash(prime_component(G, {1, 2}))
    assert pc == prime_component(G, {1, 2})
    assert pc != prime_component(G, {1, 3})
    assert len({pc, prime_component(G, {2, 1})}) == 1
    P3 = Graph.path(3)
    assert prime_component(P3, {2}) != prime_component(P3, {2}, PrimeField(7))
    assert len({prime_component(P3, {2}), prime_component(P3, {2}, PrimeField(7))}) == 2
    assert calls == []


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


def test_lifted_net_witness_at_t3():
    """The net's t=2 witness w times the edge binomial f_12 witnesses
    J^3 != J^(3): w*f_12 is outside J^3 and inside the cube of each of the
    net's seven minimal primes, read from those bases with no fold."""
    net = net_graph()
    w = groebner_verdict(net, 2).witness
    check_lifted_witness(net, w, edge_binomial(w.ring, 1, 2), 3)


def test_prime_field_verdicts_match():
    F = PrimeField(32003)
    for G in [Graph.path(3), Graph.star(3)]:
        assert equality_verdict(G, 2, F).equal == groebner_verdict(G, 2).equal


def test_prime_component_validates_U():
    with pytest.raises(ValueError):
        prime_component(Graph.path(3), {5})


NET_WITNESS = ("x1*x4*x5*y2*y3*y6 - x1*x4*x6*y2*y3*y5 - x2*x4*x5*y1*y3*y6 + x2*x5*x6*y1*y3*y4"
               " + x3*x4*x6*y1*y2*y5 - x3*x5*x6*y1*y2*y4")
# K_{2,3} under two labellings, parts {3, 4} and {1, 2, 5} (K23_34) and
# parts {2, 5} and {1, 3, 4} (K23), and K23_34 with the edge 1-2 added
# inside its larger part
K23_34 = Graph.from_edges(5, [(1, 3), (1, 4), (2, 3), (2, 4), (3, 5), (4, 5)])
K23_34_PLUS_12 = Graph(5, K23_34.edges | {(1, 2)})
K23 = Graph.from_edges(5, [(1, 2), (1, 5), (2, 3), (2, 4), (3, 5), (4, 5)])


def test_verdict_route(monkeypatch):
    """CERTIFICATES holds its rows in their order.  Theorem-covered graphs
    are decided without a kernel call; K_{2,3} under both labellings,
    K23_34 plus a chord and K_4 by the initial containment; the net,
    prime fields and disconnected graphs keep the Groebner verdict and
    witness."""
    assert tuple(name for name, _ in decomp.CERTIFICATES) == ("ass_two", "caterpillar", "initial_containment")
    uncovered_cases = [
        (net_graph(), None, False, NET_WITNESS, "groebner"),
        (K23_34, None, True, None, "initial_containment"),
        (K23_34_PLUS_12, None, True, None, "initial_containment"),
        (K23, None, True, None, "initial_containment"),
        (Graph.complete(4), None, True, None, "initial_containment"),
        (disjoint_union(Graph.path(3), Graph.path(3)), None, True, None, "groebner"),
        (Graph.path(3), PrimeField(32003), True, None, "groebner"),
    ]
    for G, field, equal, witness, cert in uncovered_cases:
        v = equality_verdict(G, 2, field) if field else equality_verdict(G, 2)
        got = (v.equal, str(v.witness) if v.witness else None, v.certificate)
        assert got == (equal, witness, cert), sorted(G.edges)

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
    three P_U^2 of K23_34, K23_34_PLUS_12 and K23, and three other orders
    of the six of C5, fold to its reduced basis; the net, whose seven
    primes all have dimension 7, keeps its witness."""
    for G in (K23_34, K23_34_PLUS_12, K23):
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
    """K23_34's t=2 fold, with the basis of the result, reduces at most
    1,500 S-polynomials: folded fewest generators first, P_emptyset^2 came
    last and it reduced 3,387."""
    stats = {}
    buchberger, fold = kernel.buchberger, decomp.intersect_all

    def counted_fold(ideals):
        monkeypatch.setattr(kernel, "buchberger", lambda gens, nvars: buchberger(gens, nvars, stats))
        return fold(ideals)

    monkeypatch.setattr(decomp, "intersect_all", counted_fold)
    symbolic_power(K23_34, 2).groebner()
    assert 0 < stats["reduced"] <= 1500


@lru_cache(maxsize=None)
def _certified_cases():
    """The cases over every connected class with 2 <= n <= 6 at t=2 and
    n <= 5 at t=3, keyed by the first row of CERTIFICATES whose check
    holds."""
    classes = [G for G in connected_classes(6) if G.n >= 2]
    cases = [(G, 2) for G in classes] + [(G, 3) for G in classes if G.n <= 5]
    certified = {name: [] for name, _ in decomp.CERTIFICATES}
    for G, t in cases:
        name = next((name for name, holds in decomp.CERTIFICATES if holds(G, t, [])), None)
        if name is not None:
            certified[name].append((G, t))
    return certified


def _agree_with_groebner(name, cases):
    for G, t in cases:
        v = equality_verdict(G, t)
        assert (v.equal, v.witness, v.certificate) == (True, None, name), (sorted(G.edges), t)
        g = groebner_verdict(G, t)
        assert (g.equal, g.witness, g.certificate) == (True, None, "groebner"), (sorted(G.edges), t)


def test_theorem_route_agrees_with_groebner():
    """Over every connected class with 2 <= n <= 6 at t=2 and n <= 5 at
    t=3, the theorems cover 33 classes, in 35 cases by ass_two and 13 by
    caterpillar; each takes that certificate from equality_verdict and is
    equal by groebner_verdict."""
    certified = _certified_cases()
    assert [len(certified["ass_two"]), len(certified["caterpillar"])] == [35, 13]
    assert len({corpus.canonical_form(G) for G, _ in certified["ass_two"] + certified["caterpillar"]}) == 33
    for name in ("ass_two", "caterpillar"):
        _agree_with_groebner(name, certified[name])


def test_initial_containment_agrees_with_groebner():
    """Of the same cases, the uncovered ones the initial containment
    certifies are 12 at t=2 and 6 at t=3, among them K_4, K_5 and K_{2,3}
    at both t; each takes that certificate from equality_verdict and is
    equal by groebner_verdict."""
    contained = _certified_cases()["initial_containment"]
    assert [sum(t == k for _, t in contained) for k in (2, 3)] == [12, 6]
    assert {(Graph.complete(4), 2), (Graph.complete(5), 3)} <= set(contained)
    assert sum(corpus.canonical_form(G) == corpus.canonical_form(K23) for G, _ in contained) == 2
    _agree_with_groebner("initial_containment", contained)


def test_initial_containment_rejects_unequal_graphs(monkeypatch):
    """With its net-free gate lifted, the check fails where the powers
    differ (the net at t=2 and t=3) and on C5 at t=2, which stays on
    Groebner."""
    monkeypatch.setattr(decomp, "is_net_free", lambda G: True)
    for G, t in ((net_graph(), 2), (net_graph(), 3), (Graph.cycle(5), 2)):
        assert not _initial_containment(G, t, []), (sorted(G.edges), t)


def test_failed_check_reuses_the_ordinary_basis(monkeypatch):
    """equality_verdict makes the kernel calls groebner_verdict makes: on
    the net, which the gate keeps from the check, in the same order, and
    on a net-free graph the check fails on, whose J^2 basis the Groebner
    comparison reuses, in another order."""
    G = Graph.from_edges(5, [(1, 3), (1, 4), (1, 5), (2, 4), (2, 5), (4, 5)])
    calls = []
    for name in ("buchberger", "normal_form", "interreduce"):
        real = getattr(kernel, name)
        monkeypatch.setattr(kernel, name, lambda *a, _n=name, _f=real: calls.append(_n) or _f(*a))
    for H in (net_graph(), G):
        calls.clear()
        assert equality_verdict(H, 2).certificate == "groebner"
        routed = list(calls)
        calls.clear()
        groebner_verdict(H, 2)
        assert sorted(routed) == sorted(calls), sorted(H.edges)
        assert (routed == calls) == (H == net_graph()), sorted(H.edges)


def _oracle_covers(supports, nvars):
    """Minimal vertex covers by walking every variable subset by size."""
    covers = []
    for C in map(set, _subsets(range(nvars))):
        if all(C & s for s in supports) and not any(D <= C for D in covers):
            covers.append(C)
    return sorted(sorted(C) for C in covers)


def test_monomial_symbolic_power_matches_intersection():
    """For in(J_G) of every connected graph with 2 <= n <= 4 at t = 2 and
    3, and of K23_34 at t=2, the minimal covers are those of a walk over
    all variable subsets, and the generators are the reduced basis of the
    intersection of the ideals (x_C)^t."""
    cases = [(G, t) for G in connected_classes(4) if G.n >= 2 for t in (2, 3)] + [(K23_34, 2)]
    for G, t in cases:
        initial = initial_ideal(G)
        R = initial.ring
        gens = [g.leading_monomial() for g in initial.gens]
        supports = [frozenset(i for i, e in enumerate(m) if e) for m in gens]
        covers = _oracle_covers(supports, R.nvars)
        assert _minimal_covers(supports) == covers, sorted(G.edges)
        want = intersect_all([Ideal(R, [R.var(v) for v in C]).power(t) for C in covers]).groebner()
        got = _monomial_symbolic_power(gens, t)
        assert sorted(got) == sorted(g.leading_monomial() for g in want), (sorted(G.edges), t)
        assert len(set(got)) == len(got)
