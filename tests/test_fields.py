import pytest

from bel.fields import QQ, FpElement, PrimeField, field_from_spec


def test_rational_arithmetic():
    a = QQ.from_int(2) / QQ.from_int(3)
    b = QQ.from_int(5) / QQ.from_int(6)
    assert a + b == QQ.from_int(3) / QQ.from_int(2)
    assert a * b == QQ.from_int(5) / QQ.from_int(9)
    assert not QQ.zero
    assert QQ.one
    assert -a + a == QQ.zero


def test_prime_field_arithmetic():
    F = PrimeField(7)
    a, b = F.from_int(3), F.from_int(5)
    assert a + b == F.from_int(1)
    assert a * b == F.from_int(1)
    assert a / b == a * F.from_int(3)  # 5^-1 = 3 mod 7
    assert -a == F.from_int(4)
    assert not F.zero
    assert F.from_int(7) == F.zero


def test_prime_field_from_rational():
    F = PrimeField(7)
    q = QQ.from_int(2) / QQ.from_int(3)
    assert F.from_rational(q) * F.from_int(3) == F.from_int(2)
    with pytest.raises(ZeroDivisionError):
        F.from_rational(QQ.from_int(1) / QQ.from_int(7))


def test_prime_field_validation():
    with pytest.raises(ValueError):
        PrimeField(1)
    with pytest.raises(ValueError):
        PrimeField(2)
    with pytest.raises(ValueError):
        PrimeField(9)
    assert PrimeField(32003).p == 32003


def test_field_from_spec():
    assert field_from_spec("q") == QQ
    assert field_from_spec("Q") == QQ
    assert field_from_spec("fp:7") == PrimeField(7)
    assert field_from_spec("fp") == PrimeField(32003)
    with pytest.raises(ValueError):
        field_from_spec("gf:4")
    with pytest.raises(ValueError):
        field_from_spec("fp:6")
    for spec in ("fp:abc", "fp:"):
        with pytest.raises(ValueError, match=rf"^unknown field spec '{spec}' \(expected"):
            field_from_spec(spec)


def test_field_identity():
    assert QQ == QQ and QQ != PrimeField(7)
    assert PrimeField(7) != PrimeField(11)
    assert hash(PrimeField(7)) == hash(PrimeField(7))


def test_element_repr():
    assert repr(FpElement(10, 7)) == "3"
