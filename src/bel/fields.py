"""Coefficient fields: exact rationals and odd prime fields.

Rationals are gmpy2.mpq when available (much faster), falling back to
fractions.Fraction.  Field elements only need +, -, *, /, unary -, ==,
and truthiness (zero is falsy); the Groebner kernels rely on nothing else.
"""

from __future__ import annotations

try:
    from gmpy2 import mpq as _rational
except ImportError:
    from fractions import Fraction as _rational

# "gmpy2" or "fractions": the module of the rational type in use
RATIONAL_BACKEND = type(_rational(1)).__module__


class RationalField:
    """The field of arbitrary-precision rationals."""

    name = "QQ"

    def from_int(self, k):
        return _rational(k)

    @property
    def one(self):
        return _rational(1)

    @property
    def zero(self):
        return _rational(0)

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("QQ")

    def __repr__(self):
        return "QQ"


QQ = RationalField()


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p % 2 == 0:
        return p == 2
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
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
        if p <= 2 or not _is_prime(p):
            raise ValueError(f"prime field characteristic must be an odd prime, got {p}")
        self.p = p
        self.name = f"Fp({p})"

    def from_int(self, k):
        return FpElement(k, self.p)

    def from_rational(self, q):
        """Image of an exact rational; the denominator must be a unit mod p."""
        num, den = int(q.numerator), int(q.denominator)
        if den % self.p == 0:
            raise ZeroDivisionError(f"denominator {den} vanishes mod {self.p}")
        return FpElement(num * pow(den, -1, self.p), self.p)

    @property
    def one(self):
        return FpElement(1, self.p)

    @property
    def zero(self):
        return FpElement(0, self.p)

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
