from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from bel.fields import QQ, PrimeField
from bel.rings import RingContext


@pytest.fixture
def R():
    return RingContext.for_graph(3, QQ)


def rand_poly(R, rng_terms):
    return R.from_terms(rng_terms)


def test_variable_order_is_roster_order(R):
    # x1 > x2 > x3 > y1 > y2 > y3 under the lex order
    assert R.names == ("x1", "x2", "x3", "y1", "y2", "y3")
    x1, y3 = R.x(1), R.y(3)
    assert (x1 + y3).leading_monomial() == x1.leading_monomial()
    with pytest.raises(ValueError, match="no leading monomial"):
        R.from_terms([]).leading_monomial()


def test_polynomial_arithmetic(R):
    f = R.x(1) * R.y(2) - R.x(2) * R.y(1)
    g = R.x(2) * R.y(3) - R.x(3) * R.y(2)
    assert f - f == R.from_terms([])
    assert (f + g) - g == f
    assert f * g == g * f
    assert f * (g + g) == f * g + f * g
    assert (f * g).total_degree() == 4


def test_rendering(R):
    f = R.x(1) * R.y(2) - R.x(2) * R.y(1)
    assert str(f) == "x1*y2 - x2*y1"
    assert str(R.from_terms([])) == "0"
    assert str(R.one()) == "1"
    assert str(R.x(2) * R.x(2) * R.x(2)) == "x2^3"


def test_from_terms_canonicalizes(R):
    one = QQ.one
    m1 = (1, 0, 0, 0, 0, 0)
    m2 = (0, 0, 0, 1, 0, 0)
    f = R.from_terms([(m2, one), (m1, one), (m1, -one)])
    assert f == R.from_terms([(m2, one)])
    # zero coefficients are dropped entirely
    assert R.from_terms([(m1, QQ.from_int(0))]).is_zero


def test_from_terms_rejects_malformed_monomials(R):
    one = QQ.one
    with pytest.raises(ValueError, match="negative exponent"):
        R.from_terms([((1, -1, 0, 0, 0, 0), one), ((0, 1, 0, 0, 0, 0), one)])
    with pytest.raises(ValueError, match="length"):
        R.from_terms([((1, 0, 0), one)])
    with pytest.raises(ValueError, match="non-integer"):
        R.from_terms([((1.0, 0, 0, 0, 0, 0), one)])


def test_graph_variables_by_position():
    """x(i) and y(i) land where the roster names x_i and y_i, and a
    vertex outside 1..n is refused."""
    for n in range(1, 7):
        R = RingContext.for_graph(n)
        for i in range(1, n + 1):
            for v, name in ((R.x(i), f"x{i}"), (R.y(i), f"y{i}")):
                unit = [0] * R.nvars
                unit[R.names.index(name)] = 1
                assert v == R.from_terms([(unit, QQ.one)])
        with pytest.raises(ValueError):
            R.x(0)
        with pytest.raises(ValueError):
            R.y(n + 1)


def test_coefficients_enter_only_through_the_field(R):
    """Arithmetic takes only polynomials of the ring, and constant and
    from_terms take an int or an element of the ring's field."""
    m = (1, 0, 0, 0, 0, 0)
    R7 = RingContext.for_graph(2, PrimeField(7))
    refused = (
        lambda: R.x(1) * 0.1,
        lambda: 0.5 * R.x(1),
        lambda: R.x(1) + "a",
        lambda: R.x(1) - 1,
        lambda: 1 - R.x(1),
        lambda: 1 + R.x(1),
        lambda: R.x(1) ** 2,
        lambda: R.constant(0.5),
        lambda: R.from_terms([(m, 0.5)]),
        lambda: R.from_terms([(m, "a")]),
        lambda: R7.constant(Fraction(3)),
        lambda: R7.constant(PrimeField(5).from_int(3)),
        lambda: R7.from_terms([((1, 0, 0, 0), Fraction(3))]),
    )
    for build in refused:
        with pytest.raises(TypeError):
            build()
    unit = (0,) * R.nvars
    for c in (3, QQ.from_int(3)):
        (term,) = R.constant(c).terms
        assert term == (unit, Fraction(3)) and type(term[1]) is Fraction
    assert R.constant(0).is_zero
    f = R.from_terms([(m, QQ.from_int(3)), (unit, QQ.one)])
    assert f.terms == ((m, Fraction(3)), (unit, Fraction(1)))
    assert R.from_terms([(m, 3)]) == R.from_terms([(m, QQ.from_int(3))])
    F = R7.field
    for c in (10, F.from_int(3)):
        (term,) = R7.constant(c).terms
        assert term == ((0, 0, 0, 0), F.from_int(3)) and term[1].p == 7
    assert R7.from_terms([((1, 0, 0, 0), F.from_int(2))]).terms == (((1, 0, 0, 0), F.from_int(2)),)


def test_prime_field_ring():
    F = PrimeField(13)
    R = RingContext.for_graph(2, F)
    f = R.x(1) * R.constant(F.from_int(6)) + R.y(2) * R.constant(F.from_int(7))
    g = f * R.constant(F.from_int(2))
    assert g == R.x(1) * R.constant(F.from_int(12)) + R.y(2) * R.constant(F.from_int(1))


@st.composite
def packed_polys(draw, R):
    nterms = draw(st.integers(0, 4))
    terms = []
    for _ in range(nterms):
        mono = tuple(draw(st.integers(0, 2)) for _ in range(R.nvars))
        coeff = QQ.from_int(draw(st.integers(-3, 3)))
        terms.append((mono, coeff))
    return R.from_terms(terms)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_ring_axioms_hypothesis(data):
    R = RingContext.for_graph(2, QQ)
    f = data.draw(packed_polys(R))
    g = data.draw(packed_polys(R))
    h = data.draw(packed_polys(R))
    assert (f + g) + h == f + (g + h)
    assert f * (g + h) == f * g + f * h
    assert (f * g) * h == f * (g * h)
    assert f + R.from_terms([]) == f
    # leading monomial is multiplicative for nonzero operands
    if not f.is_zero and not g.is_zero:
        prod_lm = (f * g).leading_monomial()
        expect = tuple(a + b for a, b in zip(f.leading_monomial(), g.leading_monomial()))
        assert prod_lm == expect
