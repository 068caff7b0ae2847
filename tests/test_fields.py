import time

import pytest

from bel.fields import PRIME_BOUND, QQ, FpElement, PrimeField, _is_prime, field_from_spec


def test_rational_arithmetic():
    a = QQ.from_int(2) / QQ.from_int(3)
    b = QQ.from_int(5) / QQ.from_int(6)
    assert a + b == QQ.from_int(3) / QQ.from_int(2)
    assert a * b == QQ.from_int(5) / QQ.from_int(9)
    assert not QQ.from_int(0)
    assert QQ.one
    assert -a + a == QQ.from_int(0)


def test_prime_field_arithmetic():
    F = PrimeField(7)
    a, b = F.from_int(3), F.from_int(5)
    assert a + b == F.from_int(1)
    assert a * b == F.from_int(1)
    assert a / b == a * F.from_int(3)  # 5^-1 = 3 mod 7
    assert -a == F.from_int(4)
    assert not F.from_int(0)
    assert F.from_int(7) == F.from_int(0)


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


def _trial_division(p):
    return p >= 2 and all(p % d for d in range(2, int(p ** 0.5) + 1))


def test_miller_rabin_matches_trial_division():
    assert all(_is_prime(p) == _trial_division(p) for p in range(10 ** 5))


def test_miller_rabin_rejects_carmichael_numbers():
    # 3825123056546413051 = 149491 * 747451 * 34233211 is a strong
    # pseudoprime to each prime base up to 23, so only the bases 29 to 41
    # expose it
    for n in (561, 41041, 3825123056546413051):
        assert not _is_prime(n)
        with pytest.raises(ValueError):
            PrimeField(n)


def test_large_prime_field():
    t0 = time.perf_counter()
    assert PrimeField(2 ** 61 - 1).p == 2 ** 61 - 1
    assert time.perf_counter() - t0 < 0.1
    with pytest.raises(ValueError):
        PrimeField(2 ** 61 + 1)  # 3 * 768614336404564651
    # the test is exact only below PRIME_BOUND, so no characteristic from
    # there up is accepted, prime or not
    with pytest.raises(ValueError, match=f"odd prime below {PRIME_BOUND}"):
        PrimeField(2 ** 89 - 1)
    with pytest.raises(ValueError, match=f"odd prime below {PRIME_BOUND}"):
        field_from_spec(f"fp:{2 ** 89 - 1}")


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
