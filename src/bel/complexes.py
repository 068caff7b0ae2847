"""The simplicial complex of a squarefree monomial ideal and the special
odd cycle search driving the power-equality criterion.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import le

from .graphs import Graph
from .ideals import Ideal


@dataclass(frozen=True)
class SimplicialComplex:
    """Facet list over variable symbols; facets form an antichain."""

    vertices: tuple  # symbol names, in ring order
    facets: tuple  # frozensets of symbols

    def __post_init__(self):
        for f in self.facets:
            for g in self.facets:
                if f != g and f <= g:
                    raise ValueError("facets must form an antichain")


@dataclass(frozen=True)
class SpecialCycle:
    """Alternating sequence v_1, F_1, ..., v_s, F_s, v_1 of distinct
    vertices and distinct facets with v_i, v_{i+1} in F_i, no facet of the
    cycle containing more than two cycle vertices."""

    cycle_vertices: tuple
    cycle_facets: tuple

    @property
    def length(self) -> int:
        return len(self.cycle_vertices)

    def validate(self, complex_: SimplicialComplex):
        vs, fs = self.cycle_vertices, self.cycle_facets
        s = len(vs)
        if s != len(fs) or s < 2:
            raise ValueError("cycle must alternate s vertices and s facets, s >= 2")
        if len(set(vs)) != s or len(set(fs)) != s:
            raise ValueError("cycle vertices and facets must be distinct")
        for i in range(s):
            if vs[i] not in fs[i] or vs[(i + 1) % s] not in fs[i]:
                raise ValueError("consecutive cycle vertices must share the facet")
        for f in fs:
            if f not in complex_.facets:
                raise ValueError("cycle facet not in the complex")
            if len(f & set(vs)) > 2:
                raise ValueError("a cycle facet contains more than two cycle vertices")


def delta_of(I: Ideal) -> SimplicialComplex:
    """Complex whose facets are the supports of the minimal generators of
    a squarefree monomial ideal, read off its generators."""
    R = I.ring
    if any(len(g.terms) != 1 for g in I.gens):
        raise ValueError("not a monomial ideal")
    minimal = []  # a proper divisor is lex-smaller, so it comes first
    for m in sorted({g.leading_monomial() for g in I.gens}):
        if not any(all(map(le, k, m)) for k in minimal):
            minimal.append(m)
    if any(e > 1 for m in minimal for e in m):
        raise ValueError("generator is not squarefree")
    facets = [frozenset(R.names[i] for i, e in enumerate(m) if e) for m in minimal]
    return SimplicialComplex(tuple(R.names), tuple(sorted(facets, key=sorted)))


def find_special_odd_cycle(cx: SimplicialComplex):
    """A special cycle of odd length s >= 3 if one exists, else None.

    Exhaustive backtracking over alternating sequences; rotations and
    reflections are avoided by anchoring at the least vertex and ordering
    facets.  Partial sequences already violating the two-vertices-per-facet
    rule are pruned.
    """
    symbol_pos = {s: i for i, s in enumerate(cx.vertices)}
    facets = sorted(cx.facets, key=lambda f: sorted(symbol_pos[s] for s in f))
    by_vertex = {}
    for f in facets:
        for v in f:
            by_vertex.setdefault(v, []).append(f)

    def special_ok(vset, fseq):
        return all(len(f & vset) <= 2 for f in fseq)

    def search(start, vseq, fseq, vset, fset):
        v = vseq[-1]
        for f in by_vertex.get(v, ()):
            if f in fset:
                continue
            fseq.append(f)
            fset.add(f)
            if special_ok(vset, fseq):
                # close the cycle with odd length >= 3
                if len(vseq) >= 3 and len(vseq) % 2 == 1 and start in f:
                    result = SpecialCycle(tuple(vseq), tuple(fseq))
                    try:
                        result.validate(cx)
                    except ValueError:
                        result = None
                    if result is not None:
                        fseq.pop()
                        fset.discard(f)
                        return result
                for w in sorted(f, key=symbol_pos.get):
                    if w in vset or symbol_pos[w] < symbol_pos[start]:
                        continue
                    vseq.append(w)
                    vset.add(w)
                    if special_ok(vset, fseq):
                        got = search(start, vseq, fseq, vset, fset)
                        if got is not None:
                            return got
                    vseq.pop()
                    vset.discard(w)
            fseq.pop()
            fset.discard(f)
        return None

    for start in sorted(cx.vertices, key=symbol_pos.get):
        got = search(start, [start], [], {start}, set())
        if got is not None:
            return got
    return None


def equality_criterion_via_cycles(G: Graph) -> bool:
    """True iff the complex of the initial ideal has no special odd cycle.
    True is a sufficient certificate for symbolic = ordinary powers; False
    certifies nothing."""
    from .bei import initial_ideal

    return find_special_odd_cycle(delta_of(initial_ideal(G))) is None
