"""Polynomial rings for binomial edge ideals.

A ring is k[x_1..x_n, y_1..y_n].  A variable is addressed by its
position in the roster; names are kept only to render polynomials and
facets.  The roster order *is* the term order: monomials are exponent
tuples over the roster and plain tuple comparison realizes the
lexicographic order x_1 > ... > x_n > y_1 > ... > y_n.  Lex is also an
elimination order for every leading block of the roster, so putting
fresh variables in front is all an elimination ring needs.

Coefficients enter a ring only through ``RingContext.constant`` and
``RingContext.from_terms``, which pass each one through the field's
``element``: an ``int`` is converted, an element of the field passes as
it is, and anything else raises ``TypeError``.  Polynomial arithmetic
(``+``, ``-``, ``*``) takes only a polynomial of the same ring, so a
float or an element of another field never reaches a basis; ``3 * f``
is written ``R.constant(3) * f``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .fields import QQ

Monomial = tuple  # exponent vector over the ring's variable roster


@dataclass(frozen=True)
class RingContext:
    """Variable roster plus coefficient field.

    names are in term-order position, heaviest variable first; position i
    of a monomial is the exponent of names[i].  Any leading block of
    names is an elimination block of the lex order.
    """

    names: tuple
    field: object = QQ

    @staticmethod
    def for_graph(n: int, field=QQ) -> "RingContext":
        if n < 1:
            raise ValueError("vertex count must be positive")
        names = tuple(f"x{i}" for i in range(1, n + 1)) + tuple(
            f"y{i}" for i in range(1, n + 1)
        )
        return RingContext(names, field)

    @property
    def nvars(self) -> int:
        return len(self.names)

    def one(self) -> "Polynomial":
        return self.constant(1)

    def constant(self, k) -> "Polynomial":
        c = self.field.element(k)
        if not c:
            return Polynomial(self, ())
        return Polynomial(self, (((0,) * self.nvars, c),))

    def var(self, i: int) -> "Polynomial":
        """The variable at roster position i."""
        if not 0 <= i < self.nvars:
            raise ValueError(f"no variable at position {i}")
        exps = [0] * self.nvars
        exps[i] = 1
        return Polynomial(self, ((tuple(exps), self.field.one),))

    def x(self, i: int) -> "Polynomial":
        """x_i of a for_graph ring, at position i - 1."""
        return self.var(self._vertex(i) - 1)

    def y(self, i: int) -> "Polynomial":
        """y_i of a for_graph ring, at position n + i - 1."""
        return self.var(self.nvars // 2 + self._vertex(i) - 1)

    def _vertex(self, i: int) -> int:
        if not 1 <= i <= self.nvars // 2:
            raise ValueError(f"vertex {i} outside 1..{self.nvars // 2}")
        return i

    def from_terms(self, terms) -> "Polynomial":
        acc = {}
        for m, c in terms:
            c = self.field.element(c)
            m = tuple(m)
            if len(m) != self.nvars:
                raise ValueError("exponent vector length does not match roster")
            if not all(isinstance(e, int) for e in m):
                raise ValueError(f"non-integer exponent in {m}")
            if min(m, default=0) < 0:
                raise ValueError("negative exponent in monomial")
            acc[m] = acc[m] + c if m in acc else c
        cleaned = tuple(sorted(((m, c) for m, c in acc.items() if c), reverse=True))
        return Polynomial(self, cleaned)

    def monomial_str(self, m: Monomial) -> str:
        parts = []
        for name, e in zip(self.names, m):
            if e == 1:
                parts.append(name)
            elif e > 1:
                parts.append(f"{name}^{e}")
        return "*".join(parts) if parts else "1"


class Polynomial:
    """Immutable multivariate polynomial; terms sorted strictly descending."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: RingContext, terms: tuple):
        self.ring = ring
        self.terms = terms

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def leading_monomial(self) -> Monomial:
        """The maximal monomial; rejects zero."""
        if not self.terms:
            raise ValueError("the zero polynomial has no leading monomial")
        return self.terms[0][0]

    def total_degree(self) -> int:
        if not self.terms:
            return 0
        return max(sum(m) for m, _ in self.terms)

    def _coerce(self, other):
        """other itself if it is a polynomial of this ring; NotImplemented
        (so Python raises TypeError) for anything that is not a polynomial."""
        if not isinstance(other, Polynomial):
            return NotImplemented
        if other.ring != self.ring:
            raise ValueError("polynomials from different rings")
        return other

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        acc = dict(self.terms)
        for m, c in other.terms:
            acc[m] = acc[m] + c if m in acc else c
        return Polynomial(
            self.ring, tuple(sorted(((m, c) for m, c in acc.items() if c), reverse=True))
        )

    def __neg__(self):
        return Polynomial(self.ring, tuple((m, -c) for m, c in self.terms))

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        acc = {}
        for m1, c1 in self.terms:
            for m2, c2 in other.terms:
                m = tuple(a + b for a, b in zip(m1, m2))
                c = c1 * c2
                acc[m] = acc[m] + c if m in acc else c
        return Polynomial(
            self.ring, tuple(sorted(((m, c) for m, c in acc.items() if c), reverse=True))
        )

    __rmul__ = __mul__  # refuses every non-polynomial too; perfbench's tracer wraps the alias

    def __eq__(self, other):
        return (
            isinstance(other, Polynomial)
            and self.ring == other.ring
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.ring, self.terms))

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for i, (m, c) in enumerate(self.terms):
            mono = self.ring.monomial_str(m)
            neg = str(c).startswith("-")
            mag = str(c)[1:] if neg else str(c)
            if mono == "1":
                body = mag
            elif mag == "1":
                body = mono
            else:
                body = f"{mag}*{mono}"
            if i == 0:
                parts.append(("-" if neg else "") + body)
            else:
                parts.append(("- " if neg else "+ ") + body)
        return " ".join(parts)

    def __repr__(self):
        return f"Polynomial({self})"
