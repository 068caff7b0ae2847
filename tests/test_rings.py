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
    assert (x1 + y3).leading_term()[1] == x1.leading_monomial()


def test_polynomial_arithmetic(R):
    f = R.x(1) * R.y(2) - R.x(2) * R.y(1)
    g = R.x(2) * R.y(3) - R.x(3) * R.y(2)
    assert f - f == R.from_terms([])
    assert (f + g) - g == f
    assert f * g == g * f
    assert f * (g + g) == f * g + f * g
    assert (f * g).total_degree() == 4


def test_power(R):
    f = R.x(1) + R.y(1)
    assert f ** 1 == f
    assert f ** 2 == f * f
    assert f ** 5 == f * f * f * f * f
    assert f ** 0 == R.one()


def test_monic(R):
    f = (R.x(1) + R.x(2)) * R.constant(QQ.from_int(4))
    m = f.monic()
    assert m.leading_term()[0] == QQ.one
    assert m * R.constant(QQ.from_int(4)) == f


def test_rendering(R):
    f = R.x(1) * R.y(2) - R.x(2) * R.y(1)
    assert str(f) == "x1*y2 - x2*y1"
    assert str(R.from_terms([])) == "0"
    assert str(R.one()) == "1"
    assert str(R.x(2) ** 3) == "x2^3"


def test_from_terms_canonicalizes(R):
    one = QQ.one
    m1 = (1, 0, 0, 0, 0, 0)
    m2 = (0, 0, 0, 1, 0, 0)
    f = R.from_terms([(m2, one), (m1, one), (m1, -one)])
    assert f == R.from_terms([(m2, one)])
    # zero coefficients are dropped entirely
    assert R.from_terms([(m1, QQ.zero)]).is_zero


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
