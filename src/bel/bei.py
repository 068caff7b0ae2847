"""Binomial edge ideals: edge binomial generators, admissible paths, the
combinatorial reduced Groebner basis, initial ideals, and per-labeling
basis degree probing.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, permutations

from .errors import SizeLimitError
from .fields import QQ
from .graphs import Graph
from .ideals import Ideal
from .recognizers import Labeling
from .rings import Polynomial, RingContext

MIN_DEGREE_CAP = 7


def graph_ring(G: Graph, field=QQ) -> RingContext:
    return RingContext.for_graph(G.n, field)


def edge_binomial(R: RingContext, i: int, j: int) -> Polynomial:
    """f_ij = x_i y_j - x_j y_i with i < j."""
    if i > j:
        i, j = j, i
    return R.x(i) * R.y(j) - R.x(j) * R.y(i)


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
    """The set {u_pi * f_ij} over admissible paths, monic, deduplicated,
    sorted by leading monomial descending (the kernel's canonical order)."""
    R = graph_ring(G, field)
    elems = {}
    for p in admissible_paths(G):
        g = p.monomial(R) * edge_binomial(R, p.i, p.j)
        elems[g.terms] = g
    return sorted(elems.values(), key=lambda g: g.leading_monomial(), reverse=True)


def initial_ideal(G: Graph, field=QQ) -> Ideal:
    """Ideal of leading monomials of the combinatorial basis; a minimal
    generating set (no generator divides another)."""
    R = graph_ring(G, field)
    lms = sorted({g.leading_monomial() for g in groebner_combinatorial(G, field)})
    minimal = []
    for m in lms:
        if not any(all(a <= b for a, b in zip(k, m)) for k in minimal):
            minimal.append(m)
    gens = [Polynomial(R, ((m, R.field.one),)) for m in minimal]
    return Ideal(R, gens)


def gb_max_degree(G: Graph, lab: Labeling | None = None) -> int:
    """Maximum total degree over the combinatorial reduced basis of the
    relabeled graph, read off its admissible paths without building the
    basis: u_pi * f_ij has degree len(interior) + 2."""
    H = lab.apply(G) if lab is not None else G
    return max((len(p.interior) + 2 for p in admissible_paths(H)), default=0)


def min_gb_degree(G: Graph) -> int:
    """Minimum of gb_max_degree over all labelings (exhaustive; capped)."""
    if G.n > MIN_DEGREE_CAP:
        raise SizeLimitError(f"labeling minimum capped at n={MIN_DEGREE_CAP}")
    if not G.edges:
        return 0
    best = None
    for perm in permutations(range(1, G.n + 1)):
        d = gb_max_degree(G, Labeling(perm))
        if best is None or d < best:
            best = d
            if best == 2:
                break  # edge binomials are quadratic; no labeling does better
    return best
