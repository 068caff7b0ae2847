"""Coefficient fields: exact rationals and odd prime fields.

Rationals are fractions.Fraction, the one rational type.  Field elements
only need +, -, *, /, unary -, == and truthiness (zero is falsy); the
Groebner kernel relies on nothing else, except that it recognizes a
``Fraction`` with denominator 1 by its type and computes on its ``int``
numerator, returning a ``Fraction`` again (see bel.kernel).

Each field's ``element`` is the one door for a coefficient: an ``int``
is converted by ``from_int``, an element of that field passes as it is,
and anything else (a float, a str, another field's element) raises
``TypeError``.
"""

from __future__ import annotations

from fractions import Fraction

# named in every --json report
RATIONAL_BACKEND = "fractions"


class RationalField:
    """The field of arbitrary-precision rationals."""

    name = "QQ"

    def from_int(self, k):
        return Fraction(k)

    def element(self, c):
        if isinstance(c, int):
            return self.from_int(c)
        if isinstance(c, Fraction):
            return c
        raise TypeError(f"{type(c).__name__} {c!r} is not an element of QQ")

    @property
    def one(self):
        return Fraction(1)

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("QQ")

    def __repr__(self):
        return "QQ"


QQ = RationalField()


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# Miller-Rabin to the bases above is exact below this bound (Sorenson and
# Webster 2015); PrimeField accepts no characteristic at or above it
PRIME_BOUND = 3_317_044_064_679_887_385_961_981


def _is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin primality test, exact for p < PRIME_BOUND."""
    if p < 2:
        return False
    for a in _MR_BASES:
        if p % a == 0:
            return p == a
    s = ((p - 1) & -(p - 1)).bit_length() - 1  # p - 1 = d * 2**s, d odd
    d = (p - 1) >> s
    for a in _MR_BASES:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


class FpElement:
    """An element of Z/p, p an odd prime."""

    __slots__ = ("v", "p")

    def __init__(self, v: int, p: int):
        self.v = v % p
        self.p = p

    def __add__(self, other):
        return FpElement(self.v + other.v, self.p)

    def __sub__(self, other):
        return FpElement(self.v - other.v, self.p)

    def __mul__(self, other):
        return FpElement(self.v * other.v, self.p)

    def __truediv__(self, other):
        return FpElement(self.v * pow(other.v, -1, self.p), self.p)

    def __neg__(self):
        return FpElement(-self.v, self.p)

    def __eq__(self, other):
        if isinstance(other, FpElement):
            return self.v == other.v and self.p == other.p
        if isinstance(other, int):
            return self.v == other % self.p
        return NotImplemented

    def __bool__(self):
        return self.v != 0

    def __hash__(self):
        return hash((self.v, self.p))

    def __repr__(self):
        return str(self.v)


class PrimeField:
    """The prime field Z/p for a configurable odd prime p."""

    def __init__(self, p: int = 32003):
        if not 2 < p < PRIME_BOUND or not _is_prime(p):
            raise ValueError(f"prime field characteristic must be an odd prime "
                             f"below {PRIME_BOUND}, got {p}")
        self.p = p
        self.name = f"Fp({p})"

    def from_int(self, k):
        return FpElement(k, self.p)

    def element(self, c):
        if isinstance(c, int):
            return self.from_int(c)
        if isinstance(c, FpElement) and c.p == self.p:
            return c
        raise TypeError(f"{type(c).__name__} {c!r} is not an element of {self.name}")

    def from_rational(self, q):
        """Image of an exact rational; the denominator must be a unit mod p."""
        num, den = int(q.numerator), int(q.denominator)
        if den % self.p == 0:
            raise ZeroDivisionError(f"denominator {den} vanishes mod {self.p}")
        return FpElement(num * pow(den, -1, self.p), self.p)

    @property
    def one(self):
        return FpElement(1, self.p)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("Fp", self.p))

    def __repr__(self):
        return self.name


def field_from_spec(spec: str):
    """Parse a field tag: "q" for the rationals, "fp:<p>" for a prime field."""
    s = spec.strip().lower()
    if s in ("q", "qq"):
        return QQ
    unknown = ValueError(f"unknown field spec {spec!r} (expected 'q' or 'fp:<p>')")
    if s.startswith("fp:"):
        try:
            p = int(s[3:])
        except ValueError:
            raise unknown from None
        return PrimeField(p)
    if s == "fp":
        return PrimeField()
    raise unknown
