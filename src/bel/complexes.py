"""The simplicial complex of a squarefree monomial ideal and the special
odd cycle search driving the power-equality criterion: depth first, each
cycle anchored at its least vertex in roster order, facets in order of
their roster positions, each step checking only the facets it touches.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import le

from .bei import initial_ideal
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
    """The first special cycle of odd length s >= 3 found depth first, or
    None.

    Start vertices go in roster order and a cycle takes only later
    vertices, so each cycle is found from its least vertex.  From the last
    vertex the search takes the facets holding it, in order of their
    roster positions, tries to close the cycle, then extends by each
    facet vertex in roster order.  A step raises only the counts it
    touches, so it checks only those: a new facet holds at most two cycle
    vertices, and a new vertex lies in no taken facet already holding two.

    So the result needs no check: vertices and facets are each taken once;
    F_i holds v_i, from whose facets it came, and v_{i+1}, drawn from it;
    the closing facet holds v_s and the start; no facet holds three.
    """
    pos = {s: i for i, s in enumerate(cx.vertices)}
    roster = {f: sorted(f, key=pos.get) for f in cx.facets}
    by_vertex = {}
    for f in sorted(cx.facets, key=lambda f: [pos[s] for s in roster[f]]):
        for v in f:
            by_vertex.setdefault(v, []).append(f)

    def search(start, vseq, fseq, vset):
        for f in by_vertex.get(vseq[-1], ()):
            if f in fseq or len(f & vset) > 2:
                continue
            fseq.append(f)
            if len(vseq) >= 3 and len(vseq) % 2 == 1 and start in f:
                return SpecialCycle(tuple(vseq), tuple(fseq))
            for w in roster[f]:
                if (w in vset or pos[w] < pos[start]
                        or any(w in g and len(g & vset) == 2 for g in fseq)):
                    continue
                vseq.append(w)
                vset.add(w)
                got = search(start, vseq, fseq, vset)
                if got is not None:
                    return got
                vseq.pop()
                vset.discard(w)
            fseq.pop()
        return None

    for start in cx.vertices:
        got = search(start, [start], [], {start})
        if got is not None:
            return got
    return None


def equality_criterion_via_cycles(G: Graph) -> bool:
    """True iff the complex of the initial ideal has no special odd cycle.
    True is a sufficient certificate for symbolic = ordinary powers; False
    certifies nothing."""
    return find_special_odd_cycle(delta_of(initial_ideal(G))) is None
