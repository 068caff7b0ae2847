import pytest

from bel.bei import binomial_edge_ideal, edge_binomial, graph_ring
from bel.fields import QQ
from bel.graphs import Graph
from bel.ideals import Ideal, intersect_all
from bel.rings import RingContext


@pytest.fixture
def R():
    return RingContext.for_graph(3, QQ)


def test_membership(R):
    I = Ideal(R, [R.x(1), R.y(2)])
    assert R.x(1) * R.y(3) in I
    assert R.x(1) + R.y(2) in I
    assert R.y(3) not in I
    assert I.normal_form(R.x(1) + R.y(3)) == R.y(3)


def test_equality_is_canonical(R):
    I = Ideal(R, [R.x(1) + R.y(1), R.y(1)])
    J = Ideal(R, [R.x(1), R.y(1) * R.constant(QQ.from_int(7))])
    assert I.equal(J) and J.equal(I)
    assert not I.equal(Ideal(R, [R.x(1), R.y(2)]))


def test_sum_and_product(R):
    I = Ideal(R, [R.x(1)])
    J = Ideal(R, [R.y(1)])
    # the sum of two ideals is the ideal of their joined generators
    S = Ideal(R, I.gens + J.gens)
    assert S.equal(Ideal(R, [R.x(1), R.y(1)]))
    assert S.power(2).equal(Ideal(R, [R.x(1) * R.x(1), R.x(1) * R.y(1), R.y(1) * R.y(1)]))


def test_power_principal(R):
    f = R.x(1) * R.y(2) - R.x(2) * R.y(1)
    I = Ideal(R, [f])
    assert I.power(1) is I
    assert I.power(2).equal(Ideal(R, [f * f]))
    assert I.power(3).equal(Ideal(R, [f * f * f]))
    with pytest.raises(ValueError):
        I.power(0)


def test_intersection_monomial(R):
    I = Ideal(R, [R.x(1)])
    J = Ideal(R, [R.y(1)])
    assert I.intersect(J).equal(Ideal(R, [R.x(1) * R.y(1)]))


def test_intersection_against_edge_ideal_identity():
    """For the triangle, cutting with the prime of U={2} recovers the
    edge ideal of the 1-3 path-complement structure: J(K3) = J(P3 with
    middle 2) cap (x2, y2) intersected appropriately."""
    G3 = Graph.complete(3)
    R = graph_ring(G3)
    JK3 = binomial_edge_ideal(G3)
    P2 = Ideal(R, [R.x(2), R.y(2), edge_binomial(R, 1, 3)])
    inter = JK3.intersect(P2)
    # the intersection contains the product and sits inside both factors
    for g in inter.gens:
        assert JK3.contains(g) and P2.contains(g)
    for f in JK3.gens:
        for g in P2.gens:
            assert inter.contains(f * g)


def test_intersect_all_requires_input(R):
    with pytest.raises(ValueError):
        intersect_all([])
    I = Ideal(R, [R.x(1)])
    assert intersect_all([I]).equal(I)


def test_cross_ring_guards(R):
    other = RingContext.for_graph(2, QQ)
    I = Ideal(R, [R.x(1)])
    J = Ideal(other, [other.x(1)])
    with pytest.raises(ValueError):
        I.equal(J)
    with pytest.raises(ValueError):
        I.intersect(J)
    with pytest.raises(ValueError):
        I.contains(other.x(1))


def test_eliminate_leading_block():
    """Eliminating x1 from <x1 - x2, x1 - y1> leaves <x2 - y1> in the ring
    of the remaining names; k must leave at least one variable."""
    R = RingContext.for_graph(2, QQ)
    I = Ideal(R, [R.x(1) - R.x(2), R.x(1) - R.y(1)])
    E = I.eliminate(1)
    rest = RingContext(R.names[1:], QQ)
    assert E.ring == rest
    assert E.equal(Ideal(rest, [rest.var(0) - rest.var(1)]))
    for k in (-1, R.nvars):
        with pytest.raises(ValueError):
            I.eliminate(k)


def test_zero_ideal(R):
    Z = Ideal(R, [])
    assert Z.is_zero
    assert R.x(1) not in Z
    assert Z.normal_form(R.x(1)) == R.x(1)
    assert Z.intersect(Ideal(R, [R.x(1)])).is_zero
