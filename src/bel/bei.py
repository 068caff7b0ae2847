"""Binomial edge ideals: edge binomial generators, admissible paths, the
combinatorial reduced Groebner basis, initial ideals, and the basis
degree under a labeling.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .fields import QQ
from .graphs import Graph
from .ideals import Ideal
from .recognizers import Labeling
from .rings import Polynomial, RingContext


def graph_ring(G: Graph, field=QQ) -> RingContext:
    return RingContext.for_graph(G.n, field)


def edge_binomial(R: RingContext, i: int, j: int) -> Polynomial:
    """f_ij = x_i y_j - x_j y_i with i < j."""
    if i > j:
        i, j = j, i
    return R.x(i) * R.y(j) - R.x(j) * R.y(i)


def _edge_binomial_terms(R: RingContext, i: int, j: int) -> Polynomial:
    """f_ij written down as its two terms, x_i y_j - x_j y_i, for i < j:
    x_i outranks x_j in the lex order, so the terms come out descending.
    At i = j the two monomials would be equal, so only i < j is taken."""
    if not i < j:
        raise ValueError(f"need i < j, got i={i}, j={j}")
    n = R.nvars // 2
    lead = [0] * R.nvars
    lead[i - 1] = lead[n + j - 1] = 1
    trail = [0] * R.nvars
    trail[j - 1] = trail[n + i - 1] = 1
    one = R.field.one
    return Polynomial(R, ((tuple(lead), one), (tuple(trail), -one)))


def binomial_edge_ideal(G: Graph, field=QQ) -> Ideal:
    R = graph_ring(G, field)
    return Ideal(R, [edge_binomial(R, u, v) for (u, v) in sorted(G.edges)])


@dataclass(frozen=True)
class AdmissiblePath:
    """Path i = i_0, ..., i_r = j with every interior vertex below i or
    above j, and no proper interior subsequence forming an i-j path."""

    i: int
    j: int
    interior: tuple

    def monomial_exponents(self, R: RingContext) -> tuple:
        n = R.nvars // 2
        exps = [0] * R.nvars
        for v in self.interior:
            # x_v sits at v - 1; y_v (v < i by admissibility) at n + v - 1
            exps[v - 1 if v > self.j else n + v - 1] = 1
        return tuple(exps)

    def monomial(self, R: RingContext) -> Polynomial:
        return Polynomial(R, ((self.monomial_exponents(R), R.field.one),))


def admissible_paths(G: Graph) -> list:
    """All admissible paths between all pairs i < j, from one DFS that
    only extends induced paths.  The list comes out sorted by
    (i, j, interior): pairs and neighbours are taken in increasing order,
    and no recorded interior extends another.

    Condition (iii) is chordlessness: a chord {i_a, i_b}, b >= a+2, gives
    the path that drops i_{a+1} .. i_{b-1}; and a proper subsequence that
    is a path skips a vertex, so the two subsequence vertices around the
    gap span a chord.  The search stops at the first vertex adjacent to j
    and steps only to vertices outside [i, j] adjacent to the end and to
    no earlier path vertex, so it visits exactly the prefixes of
    admissible paths.
    """
    adj = G.adj
    out = []
    for i, j in combinations(G.vertices, 2):

        def extend(v, interior, blocked):
            # blocked: path vertices before v and all their neighbours
            if j in adj[v]:
                out.append(AdmissiblePath(i, j, interior))
                return
            closed = blocked | adj[v] | {v}
            for w in sorted(adj[v] - blocked):
                if w < i or w > j:
                    extend(w, interior + (w,), closed)

        extend(i, (), frozenset())
    return out


def groebner_combinatorial(G: Graph, field=QQ) -> list:
    """The elements u_pi * f_ij over admissible paths, monic, sorted by
    leading monomial descending (the kernel's canonical order).

    Distinct paths give distinct elements, so none is dropped: in the
    leading monomial u_pi * x_i * y_j, i is the least x-index and j the
    largest y-index (interior vertices lie below i or above j), the other
    variables give the interior's vertex set, and an induced path is fixed
    by its vertex set and its ends."""
    R = graph_ring(G, field)
    elems = [p.monomial(R) * _edge_binomial_terms(R, p.i, p.j) for p in admissible_paths(G)]
    return sorted(elems, key=lambda g: g.leading_monomial(), reverse=True)


def initial_ideal(G: Graph, field=QQ) -> Ideal:
    """Ideal of leading monomials of the combinatorial basis, generated by
    u_pi * x_i * y_j for each admissible path pi from i to j; the leading
    monomials of a reduced basis never divide one another, so these
    generators are already minimal."""
    R = graph_ring(G, field)
    lms = set()
    for p in admissible_paths(G):
        m = list(p.monomial_exponents(R))
        m[p.i - 1] = m[G.n + p.j - 1] = 1
        lms.add(tuple(m))
    return Ideal(R, [Polynomial(R, ((m, R.field.one),)) for m in sorted(lms)])


def gb_max_degree(G: Graph, lab: Labeling | None = None) -> int:
    """Maximum total degree over the combinatorial reduced basis of the
    relabeled graph, read off its admissible paths without building the
    basis: u_pi * f_ij has degree len(interior) + 2."""
    H = lab.apply(G) if lab is not None else G
    return max((len(p.interior) + 2 for p in admissible_paths(H)), default=0)

