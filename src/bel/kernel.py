"""The Groebner kernel: pure Python, on packed monomials.

Monomials are packed into single integers, 16 bits per variable, first
ring variable in the most significant field.  Exponents are limited to
2**15 - 1: packing a larger one, or a product that would exceed it,
raises SizeLimitError, and packing a negative or non-integer one raises
ValueError.  So one guard bit per field is free and

  * integer comparison is exactly the lexicographic term order,
  * monomial multiplication is integer addition,
  * divisibility and lcm are borrow-tricks on the guard bits.

Polynomials enter the kernel as (exponent_tuple, coeff) pairs in any
order; coefficients are opaque field elements (see bel.fields), with one
exception: a ``Fraction`` with denominator 1 is packed as its ``int``
numerator, so over QQ the kernel computes on plain integers, and
``Fraction`` arithmetic runs only where a non-integral value enters or
arises (a value it reaches may stay a ``Fraction`` though integral).  Every
polynomial it returns is already canonical ``Polynomial.terms``: a tuple
of terms sorted strictly descending, with nonzero coefficients and tuple
exponent vectors, each ``int`` coefficient a ``Fraction`` again.
``buchberger`` returns a ``Basis``, which also keeps the monic (lm, tail)
reducers that ``normal_form`` reduces by; a Basis cannot be changed, so
they never go stale.  Reduction and S-polynomials only multiply and
subtract: ``_monic`` is the one place that divides, and it divides an
``int`` only by a ``Fraction``, never by another ``int``, whose quotient
would be a float.
Callers go through this module's attributes (``kernel.buchberger``
etc.), so a wrapper bound here sees every call.

Buchberger selects pairs by the sugar strategy (Giovini, Mora, Niesi,
Robbiano, Traverso 1991): an input generator's sugar is its maximal total
degree, a remainder takes the sugar of its pair, and the pair of a and b
has sugar max(s_a - deg lm_a, s_b - deg lm_b) + deg lcm(lm_a, lm_b).
Pending pairs are reduced in ascending (sugar, lcm, a, b) order.  The
Gebauer-Moeller criteria B_k, M and F that prune pairs do not depend on
the order in which pairs are selected, and the reduced Groebner basis of
an ideal is unique, so the strategy changes only how many S-polynomials
are reduced, never the output.
"""

from __future__ import annotations

import heapq
import struct
from fractions import Fraction

from .errors import SizeLimitError

KERNEL_NAME = "python"

_FIELD_BITS = 16
_GUARD_SHIFT = 15
_FIELD_MASK = (1 << _FIELD_BITS) - 1

_layout_cache: dict[int, tuple] = {}


def _layout(nvars: int) -> tuple:
    """(struct of nvars signed 16-bit fields, mask of their guard bits)."""
    lay = _layout_cache.get(nvars)
    if lay is None:
        lay = (struct.Struct(">%dh" % nvars), int.from_bytes(b"\x80\x00" * nvars, "big"))
        _layout_cache[nvars] = lay
    return lay


def _overflow():
    return SizeLimitError(f"exponent above the kernel limit {(1 << _GUARD_SHIFT) - 1}")


def _pack(exps, st, guards) -> int:
    try:
        m = int.from_bytes(st.pack(*exps), "big")
    except struct.error:
        if len(exps) != st.size // 2:
            raise ValueError(f"exponent vector of length {len(exps)}, "
                             f"expected {st.size // 2}") from None
        if not all(isinstance(e, int) and e >= 0 for e in exps):
            raise ValueError(f"negative or non-integer exponent in {tuple(exps)}") from None
        raise _overflow() from None
    if m & guards:  # a negative exponent packs with its guard bit set
        raise ValueError(f"negative exponent in {tuple(exps)}")
    return m


def _unpack(m: int, st) -> tuple:
    return st.unpack(m.to_bytes(st.size, "big"))


def _divides(a: int, b: int, guards: int) -> bool:
    # a | b fieldwise: no field of the guarded difference loses its guard bit
    return (b + guards - a) & guards == guards


def _lcm(a: int, b: int, guards: int) -> int:
    d = a + guards - b
    g = d & guards
    mask = (g >> _GUARD_SHIFT) * _FIELD_MASK
    return b + (d & mask & ~guards)


def _to_packed(poly, st, guards):
    """Accumulate external (exps, coeff) pairs into a packed sorted list."""
    acc = {}
    for exps, c in poly:
        m = _pack(exps, st, guards)
        if m in acc:
            acc[m] = acc[m] + c
        else:
            acc[m] = c
    terms = [(m, c.numerator if type(c) is Fraction and c.denominator == 1 else c)
             for m, c in acc.items() if c]
    terms.sort(reverse=True)
    return terms


def _to_terms(terms, st) -> tuple:
    """A packed term list as canonical ``Polynomial.terms``, each integer
    coefficient a Fraction again."""
    return tuple([(_unpack(m, st), Fraction(c) if type(c) is int else c) for m, c in terms])


def _reduce_full(terms, basis, guards):
    """Full normal form of a packed term list against (lm, tail) reducers.

    Divisors are tried in list order; the largest pending term is reduced
    first, so the result is deterministic.
    """
    if not terms:
        return []
    coeffs = dict(terms)
    heap = [-m for m, _ in terms]
    heapq.heapify(heap)
    out = []
    while heap:
        m = -heapq.heappop(heap)
        c = coeffs.pop(m, None)
        if c is None or not c:
            continue
        mg = m + guards
        for lm, tail in basis:
            if (mg - lm) & guards == guards:  # _divides(lm, m), inlined
                q = m - lm
                for tm, tc in tail:
                    mm = tm + q
                    if mm in coeffs:
                        coeffs[mm] = coeffs[mm] - c * tc
                    else:
                        # an overflowed sum never equals a valid key
                        if mm & guards:
                            raise _overflow()
                        coeffs[mm] = -c * tc
                        heapq.heappush(heap, -mm)
                break
        else:
            out.append((m, c))
    return out


def _prep(g):
    """Split a monic packed poly into an (lm, tail) reducer pair."""
    return (g[0][0], g[1:])


def _monic(g):
    lc = g[0][1]
    if lc == 1:  # int, Fraction and FpElement all compare equal to the int 1
        return g
    if type(lc) is int:
        if lc == -1:
            return [(m, -c) for m, c in g]
        lc = Fraction(lc)  # an int divided by an int would be a float
    return [(m, c / lc) for m, c in g]


def _spoly(f, g, lcm, guards):
    """S-polynomial of monic f and g; lcm is that of their leading
    monomials."""
    qf = lcm - f[0][0]
    qg = lcm - g[0][0]
    acc = {m + qf: c for m, c in f}
    for m, c in g:
        mm = m + qg
        if mm in acc:
            acc[mm] = acc[mm] - c
        else:
            acc[mm] = -c
    if any(m & guards for m in acc):
        raise _overflow()
    terms = [(m, c) for m, c in acc.items() if c]
    terms.sort(reverse=True)
    return terms


def _autoreduce(polys, guards):
    """One interreduction sweep, smallest leading monomial first, each
    polynomial against the results before it; preserves the ideal."""
    out, reducers = [], []
    for p in sorted((p for p in polys if p), key=lambda p: p[0][0]):
        r = _reduce_full(p, reducers, guards)
        if r:
            r = _monic(r)
            out.append(r)
            reducers.append(_prep(r))
    return out


def _degree(m: int) -> int:
    """Total degree of a packed monomial."""
    d = 0
    while m:
        d += m & _FIELD_MASK
        m >>= _FIELD_BITS
    return d


def _update_pairs(lms, sugars, pairs, guards, stats=None):
    """Gebauer-Moeller update of the (sugar, lcm, a, b) pair heap after
    appending leading monomial j = len(lms) - 1 with sugar sugars[j];
    returns the new heap.  A new pair (a, j) has the sugar
    max(sugars[a] - deg lm_a, sugars[j] - deg lm_j) + deg lcm."""
    j = len(lms) - 1
    lmj = lms[j]
    lj = [_lcm(m, lmj, guards) for m in lms[:j]]  # lcm(lm_i, lm_j), each once
    # B_k on the stored lcm L of (s, L, a, b): drop if lm_j | L and L != lj[a], lj[b]
    lg = guards - lmj
    heap = [p for p in pairs
            if (p[1] + lg) & guards != guards or p[1] == lj[p[2]] or p[1] == lj[p[3]]]
    by_lcm: dict[int, list] = {}
    for i, L in enumerate(lj):
        by_lcm.setdefault(L, []).append(i)
    minimal = []
    for L in sorted(by_lcm):
        Lg = L + guards
        for M in minimal:
            if (Lg - M) & guards == guards:  # M | L
                break
        else:
            minimal.append(L)
    ej = sugars[j] - _degree(lmj)
    new, coprime = [], 0
    for L in minimal:
        group = by_lcm[L]
        if any(L == lms[i] + lmj for i in group):
            coprime += len(group)
            continue  # coprime leading terms: s-poly reduces to zero
        a = group[0]
        new.append((max(sugars[a] - _degree(lms[a]), ej) + _degree(L), L, a, j))
    if stats is not None:
        stats["pairs"] += j
        stats["pruned_bk"] += len(pairs) - len(heap)
        stats["pruned_m"] += j - coprime - len(new)
        stats["pruned_f"] += coprime
    if len(heap) < len(pairs):
        heap += new
        heapq.heapify(heap)
    else:
        for pair in new:
            heapq.heappush(heap, pair)
    return heap


_STATS = ("pairs", "pruned_bk", "pruned_m", "pruned_f", "reduced", "zero", "basis_peak")


def _buchberger_packed(gens, guards, stats=None):
    G, lms, sugars, reducers, pairs = [], [], [], [], []
    # the generators, each with its maximal total degree as sugar, then
    # each nonzero remainder with the sugar of its pair, join through one
    # update; pairs are reduced in ascending (sugar, lcm, a, b) order
    swept = _autoreduce(gens, guards)
    todo = [(g, max(_degree(m) for m, _ in g)) for g in swept[::-1]]
    while todo or pairs:
        if todo:
            r, s = todo.pop()
            G.append(r)
            lms.append(r[0][0])
            sugars.append(s)
            reducers.append(_prep(r))
            pairs = _update_pairs(lms, sugars, pairs, guards, stats)
            continue
        s, lcm, a, b = heapq.heappop(pairs)
        r = _reduce_full(_spoly(G[a], G[b], lcm, guards), reducers, guards)
        if stats is not None:
            stats["reduced"] += 1
            stats["zero"] += not r
        if r:
            todo.append((_monic(r), s))
    if stats is not None:
        stats["basis_peak"] = len(G)

    # with no remainder joined, G is the first sweep; if its leading
    # monomials still ascend, no term of an element is divisible by an
    # earlier leading monomial (the sweep reduced it) or a later one (which
    # exceeds every term), so it is already the reduced basis.  A sweep that
    # lowered a leading monomial out of order can leave an earlier element a
    # term that the lowered one divides, so then the sweep below still runs.
    if len(G) == len(swept) and all(a[0][0] < b[0][0] for a, b in zip(swept, swept[1:])):
        return swept[::-1]

    # G is a Groebner basis, so one sweep from the smallest leading monomial
    # up leaves the unique reduced basis: an element whose leading monomial
    # a smaller one divides reduces to zero against the results before it
    # and is dropped, and a term of g is divisible only by smaller leading
    # monomials
    return _autoreduce(G, guards)[::-1]


class Basis(tuple):
    """The canonical polynomials of a reduced Groebner basis, with the
    ``nvars`` they were packed for and ``reducers``, the packed (lm, tail)
    pair of each, in the same order; every element is monic, so a reducer
    leaves its leading coefficient 1 implicit.  Over QQ the reducers keep
    the kernel's own coefficients, mostly plain ``int``s, while the
    polynomials carry ``Fraction``s."""

    def __new__(cls, polys, nvars, reducers):
        self = super().__new__(cls, polys)
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "reducers", reducers)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("a Basis is immutable")


def buchberger(gens, nvars, stats=None) -> Basis:
    """Canonical reduced Groebner basis under the packed lex order.

    Its elements are monic, fully interreduced and canonical term tuples,
    and the basis is sorted by leading monomial descending.

    If stats is a dict, the call adds its counters to it, so one dict can
    total several calls: "pairs" (pairs (i, j) formed as each element j
    joins), "pruned_bk", "pruned_m" and "pruned_f" (pairs dropped by the
    Gebauer-Moeller B_k rule, by M, which also keeps one pair per minimal
    lcm, and by F, a coprime pair in the lcm's group), "reduced"
    (S-polynomials reduced), "zero" (those that reduced to zero); and
    "basis_peak" becomes at least the largest basis the call held.
    """
    st, guards = _layout(nvars)
    packed = [p for p in (_to_packed(g, st, guards) for g in gens) if p]
    if not packed:
        return Basis((), nvars, ())
    counts = None if stats is None else dict.fromkeys(_STATS, 0)
    gb = _buchberger_packed(packed, guards, counts)
    if counts is not None:
        for key, n in counts.items():
            old = stats.get(key, 0)
            stats[key] = max(old, n) if key == "basis_peak" else old + n
    return Basis([_to_terms(g, st) for g in gb], nvars, tuple(_prep(g) for g in gb))


def eliminated(basis: Basis, k: int) -> Basis:
    """The elements of a reduced basis free of its first k variables, as
    the reduced basis of the elimination ideal in the last nvars - k.

    The first k variables of a lex order are an elimination block, so
    those elements are that ideal's reduced basis (the elimination
    theorem).  A leading monomial free of the block bounds every term
    below it, so they are a suffix of the basis, and their packed
    monomials, whose leading fields are zero, are the same integers in
    the smaller layout: the reducers carry over as they are.
    """
    top = 1 << (_FIELD_BITS * (basis.nvars - k))
    i = next((i for i, (lm, _) in enumerate(basis.reducers) if lm < top), len(basis))
    return Basis([tuple((m[k:], c) for m, c in g) for g in basis[i:]],
                 basis.nvars - k, basis.reducers[i:])


def normal_form(f, basis, nvars) -> tuple:
    """Remainder of f on full division by the (nonzero) polynomials in
    basis, tried in basis order.  A Basis of this nvars lends its packed
    reducers; any other basis is packed and made monic on the call.  The
    remainder cannot change: c*x^q*(g/lc) is the same polynomial as
    (c/lc)*x^q*g."""
    st, guards = _layout(nvars)
    if isinstance(basis, Basis) and basis.nvars == nvars:
        reducers = basis.reducers
    else:
        reducers = [_prep(_monic(_to_packed(g, st, guards))) for g in basis]
    return _to_terms(_reduce_full(_to_packed(f, st, guards), reducers, guards), st)


def interreduce(gens, nvars) -> tuple:
    """One autoreduction sweep over a generating set (ideal is preserved),
    ascending by leading monomial."""
    st, guards = _layout(nvars)
    packed = [p for p in (_to_packed(g, st, guards) for g in gens) if p]
    return tuple(_to_terms(g, st) for g in _autoreduce(packed, guards))
