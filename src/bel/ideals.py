"""Ideal-level algebra: membership, canonical equality, power, and
intersection by eliminating one fresh leading variable.

``equal`` and ``contains`` (also spelled ``f in I``) are the comparisons;
an ``Ideal`` defines no ``==`` or hash, so ``I == J`` is identity.  Both
go through the cached reduced Groebner basis, which is canonical for the
ideal under the ring's lex order.  A sum of ideals is the ideal of the
joined generators, ``Ideal(R, I.gens + J.gens)``.
"""

from __future__ import annotations

from itertools import combinations_with_replacement

from . import kernel
from .rings import Polynomial, RingContext


class Ideal:
    """An ideal given by generators, with a lazily cached reduced GB."""

    def __init__(self, ring: RingContext, gens):
        self.ring = ring
        self.gens = tuple(g for g in gens if not g.is_zero)
        for g in self.gens:
            if g.ring != ring:
                raise ValueError("generator from a different ring")
        self._basis = None  # the kernel's Basis, which keeps its packed reducers
        self._gb = None

    def groebner(self):
        """The canonical reduced Groebner basis (monic, interreduced,
        sorted by leading monomial descending)."""
        if self._gb is None:
            self._basis = kernel.buchberger([g.terms for g in self.gens], self.ring.nvars)
            self._gb = tuple(Polynomial(self.ring, t) for t in self._basis)
        return self._gb

    @property
    def is_zero(self) -> bool:
        return not self.gens

    def normal_form(self, f: Polynomial) -> Polynomial:
        if f.ring != self.ring:
            raise ValueError("polynomial from a different ring")
        if self.is_zero:
            return f
        self.groebner()
        return Polynomial(self.ring, kernel.normal_form(f.terms, self._basis, self.ring.nvars))

    def contains(self, f: Polynomial) -> bool:
        return self.normal_form(f).is_zero

    __contains__ = contains

    def contains_ideal(self, other: "Ideal") -> bool:
        return all(self.contains(g) for g in other.gens)

    def equal(self, other: "Ideal") -> bool:
        if self.ring != other.ring:
            raise ValueError("ideals from different rings")
        return self.groebner() == other.groebner()

    def power(self, t: int) -> "Ideal":
        """t-fold product; generators deduplicated and interreduced."""
        if t < 1:
            raise ValueError("power exponent must be >= 1")
        if t == 1 or self.is_zero:
            return self
        prods = []
        seen = set()
        for combo in combinations_with_replacement(self.gens, t):
            h = combo[0]
            for g in combo[1:]:
                h = h * g
            if h.terms and h.terms not in seen:
                seen.add(h.terms)
                prods.append(h)
        reduced = kernel.interreduce([p.terms for p in prods], self.ring.nvars)
        return Ideal(self.ring, [Polynomial(self.ring, t_) for t_ in reduced])

    def intersect(self, other: "Ideal") -> "Ideal":
        """I cap J via one fresh variable w put in front of the roster:
        eliminate w from w*I + (1-w)*J."""
        if self.ring != other.ring:
            raise ValueError("ideals from different rings")
        if self.is_zero or other.is_zero:
            return Ideal(self.ring, ())
        ext = RingContext(("w",) + self.ring.names, self.ring.field)
        w = ext.var(0)
        # each generator lifted by a 0 exponent for w, then multiplied
        gens = [h * Polynomial(ext, tuple(((0,) + m, c) for m, c in f.terms))
                for h, I in ((w, self), (ext.one() - w, other)) for f in I.gens]
        return Ideal(ext, gens).eliminate(1)

    def eliminate(self, k: int) -> "Ideal":
        """Eliminate the first k roster variables; returns an ideal of the
        ring of the remaining names generated by the GB elements free of
        them.  Any leading block of a lex roster is an elimination block
        (the elimination theorem), so those elements are the reduced
        basis of the elimination ideal, and the result carries that
        basis: its groebner() runs no Buchberger."""
        if not 0 <= k < self.ring.nvars:
            raise ValueError(f"cannot eliminate {k} of {self.ring.nvars} variables")
        shrunk = RingContext(self.ring.names[k:], self.ring.field)
        self.groebner()
        basis = kernel.eliminated(self._basis, k)
        out = Ideal(shrunk, [Polynomial(shrunk, g) for g in basis])
        out._basis, out._gb = basis, out.gens
        return out

    def __repr__(self):
        gens = ", ".join(str(g) for g in self.gens[:4])
        more = ", ..." if len(self.gens) > 4 else ""
        return f"Ideal({gens}{more})"


def intersect_all(ideals) -> Ideal:
    """Fold intersection over the ideals in the order given; the result
    is the same ideal in any order, but the cost is not (see
    ``decomp.symbolic_power``)."""
    ideals = list(ideals)
    if not ideals:
        raise ValueError("need at least one ideal")
    acc = ideals[0]
    for J in ideals[1:]:
        acc = acc.intersect(J)
    return acc
