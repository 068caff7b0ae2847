"""Prime components P_U, minimal primes, symbolic powers, and the
ordinary-versus-symbolic equality verdict with witnesses.

Minimal primes by containment walk the 2^n subsets U by size.  P_T lies
inside P_U exactly when T lies inside U and each component of G minus T,
less U, lies inside one component of G minus U, so a non-minimal P_U is
discarded from the components of G minus U alone.  Each P_U that is kept
is confirmed by Groebner non-membership, which is the only place the
kernel runs: once for each kept prime after the first, not once per
subset.

Symbolic powers are evaluated through the minimal-prime intersection
formula: the binomial edge ideal is the intersection of the primes P_U,
each P_U is a maximal-minor prime whose symbolic and ordinary powers
agree, so the t-th symbolic power is the intersection of the P_U^t over
the minimal primes.  The intersection is folded top-dimensional first:
P_U has height |U| + n - c(U) (Herzog, Hibi, Hreinsdottir, Kahle, Rauh
2010, Lemma 3.1), c(U) the number of components of G minus U, so each
prime's dimension comes from the graph without any algebra.

The equality verdict is theorem first.  The source paper proves
J_G^t = J_G^(t) for every t >= 1 when J_G has exactly two associated
primes and when G is a caterpillar tree; J_G is radical (Herzog, Hibi,
Hreinsdottir, Kahle, Rauh 2010), so its associated primes are its
minimal primes.  Both hypotheses are decided combinatorially
(``graphs.ass_count_is_two``, ``recognizers.is_caterpillar``), and a
graph meeting one gets ``equal=True`` with the theorem named as its
certificate, without building any ideal.  Every other graph takes
``groebner_verdict``, which compares canonical reduced Groebner bases and
stays the authority that the tests and the suite check the theorems
against.  The theorem path applies over QQ only: the paper's abstract,
which is all this project has of it, names no coefficient field, so
prime fields keep the Groebner route.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations

from .bei import binomial_edge_ideal, edge_binomial, graph_ring
from .errors import SizeLimitError
from .fields import QQ
from .graphs import Graph, ass_count_is_two, components_within, is_connected
from .ideals import Ideal, intersect_all
from .recognizers import is_caterpillar
from .rings import Polynomial

MINIMAL_PRIMES_CAP = 8


@dataclass(frozen=True)
class PrimeComponent:
    """A vertex subset U with the prime it generates: the variables of U
    plus the edge binomials of the complete closures of the components of
    the induced graph on the rest."""

    U: frozenset
    components: tuple  # vertex sets of the induced components, as frozensets
    ideal: Ideal

    @property
    def c(self) -> int:
        return len(self.components)

    @property
    def dim(self) -> int:
        """Krull dimension n - |U| + c(U): P_U has height |U| + n - c(U)
        in the 2n variables (HHHKR 2010, Lemma 3.1), and the components
        cover the n - |U| vertices outside U."""
        return sum(map(len, self.components)) + self.c


def prime_component(G: Graph, U, field=QQ) -> PrimeComponent:
    U = frozenset(U)
    if not U <= set(G.vertices):
        raise ValueError("U must be a subset of the vertex set")
    R = graph_ring(G, field)
    rest = set(G.vertices) - U
    comps = tuple(frozenset(c) for c in components_within(G, rest))
    gens = []
    for i in sorted(U):
        gens.append(R.x(i))
        gens.append(R.y(i))
    for comp in comps:
        for a, b in combinations(sorted(comp), 2):
            gens.append(edge_binomial(R, a, b))
    return PrimeComponent(U, comps, Ideal(R, gens))


def _subsets(vertices):
    vs = sorted(vertices)
    return chain.from_iterable(combinations(vs, r) for r in range(len(vs) + 1))


def _lies_inside(pt: PrimeComponent, U: frozenset, where: dict) -> bool:
    """Whether P_T (``pt``) lies inside P_U, read off the definition of the
    two primes; ``where`` maps each vertex outside U to the index of its
    component of G minus U.

    The test is T inside U and every component of G minus T, less U,
    inside one component of G minus U.  That suffices: then x_t and y_t
    for t in T are generators of P_U, and an edge binomial f_ab of a
    component of G minus T is a generator of P_U when a and b both lie
    outside U, and lies in (x_u, y_u) when one of them is a vertex u of U.
    It is also necessary, which is why the Groebner step of
    ``_inclusion_minimal`` never discards: the degree-1 part of P_U is
    spanned by the variables of U, so x_t is outside P_U for t outside U;
    and if a component of G minus T meets two components A and B of G
    minus U at a and b, the point with x = 1, y = 0 on A, x = 0, y = 1 on
    B and 0 elsewhere kills every generator of P_U but gives f_ab = 1.
    """
    return pt.U <= U and all(len({where[v] for v in comp - U}) <= 1 for comp in pt.components)


def _inclusion_minimal(G: Graph, subsets, field=QQ) -> list:
    """The inclusion-minimal P_U over the subsets U, in input order; the
    input must ascend in |U|.

    P_U is homogeneous and its degree-1 part is spanned by the variables
    of U, so P_T inside P_U forces T inside U, and strict containment
    forces |T| < |U|: a P_U can only lie strictly inside a later one, so
    comparing each P_U with the survivors so far suffices.  Every
    non-minimal P_U lies strictly above a minimal one, met earlier and
    kept.  A U is discarded as soon as the components of G minus U show
    a survivor inside P_U (``_lies_inside``), with no Groebner call.  Only
    the rest get ``prime_component``, and one is kept unless Groebner
    membership finds a survivor P_T with T inside U inside it.  So every
    discard rests on an explicit membership and every keep on a Groebner
    non-membership.  Since ``_lies_inside`` is exact, that membership
    never holds, and as the empty set lies inside every U, Buchberger runs
    once for each kept prime after P_emptyset.
    """
    kept = []
    for U in map(frozenset, subsets):
        comps = components_within(G, set(G.vertices) - U)
        where = {v: i for i, comp in enumerate(comps) for v in comp}
        if any(_lies_inside(q, U, where) for q in kept):
            continue
        pc = prime_component(G, U, field)
        if not any(q.U <= U and pc.ideal.contains_ideal(q.ideal) for q in kept):
            kept.append(pc)
    return kept


def _check_cap(G: Graph, cap: int):
    if G.n > cap:
        raise SizeLimitError(f"minimal-prime enumeration capped at n={cap} (2^n subsets)")


def minimal_primes(G: Graph, field=QQ, cap: int = MINIMAL_PRIMES_CAP, method: str = "containment") -> list:
    """All P_U, filtered to the inclusion-minimal ideals, by |U| and then
    lexicographically.

    method "containment" (the authority) walks the subsets U by size and
    keeps P_U unless an earlier survivor lies inside it, shown by the
    components of G minus U or by Groebner membership
    (``_inclusion_minimal``).  "cutpoint" uses the combinatorial criterion
    that every vertex of U must disconnect the induced graph on the rest
    plus that vertex.  The method is checked before the size cap.
    """
    if method not in ("containment", "cutpoint"):
        raise ValueError(f"unknown method {method!r}")
    _check_cap(G, cap)
    if method == "cutpoint":
        out = []
        for U in _subsets(G.vertices):
            Uset = set(U)
            rest = set(G.vertices) - Uset
            c = len(components_within(G, rest))
            if all(len(components_within(G, rest | {i})) < c for i in Uset):
                out.append(prime_component(G, U, field))
        return out
    return _inclusion_minimal(G, _subsets(G.vertices), field)


def symbolic_power(G: Graph, t: int, field=QQ, cap: int = MINIMAL_PRIMES_CAP) -> Ideal:
    """Intersection over the minimal primes of their t-th powers, folded
    top-dimensional first.

    P_U has height |U| + n - c(U) (Herzog, Hibi, Hreinsdottir, Kahle,
    Rauh 2010, Lemma 3.1), so its Krull dimension n - |U| + c(U)
    (``PrimeComponent.dim``) is read off the graph.  The powers are
    intersected in descending dimension, ties by fewer generators of
    P_U^t, and the sort is stable over the minimal_primes order.  Each
    elimination step then meets the big primes while the accumulated
    ideal is still small, rather than last, after intersections of primes
    with disjoint U that are nearly products.  The reduced basis of the
    result is unique, so the order changes only the cost.
    """
    if t < 1:
        raise ValueError("symbolic power exponent must be >= 1")
    primes = minimal_primes(G, field, cap=cap)
    if not primes:
        raise ValueError("graph has no prime components")
    powers = [(pc.dim, pc.ideal.power(t)) for pc in primes]
    powers.sort(key=lambda dp: (-dp[0], len(dp[1].gens)))
    return intersect_all([P for _, P in powers])


@dataclass(frozen=True)
class EqualityVerdict:
    """Outcome of comparing the t-th ordinary and symbolic powers."""

    graph: Graph
    t: int
    equal: bool
    witness: Polynomial | None  # in the symbolic but not the ordinary power
    certificate: str = "groebner"  # or the theorem that decided it: "ass_two", "caterpillar"

    def check_witness(self, ordinary: Ideal, symbolic: Ideal) -> bool:
        if self.equal:
            return self.witness is None
        if self.witness is None:
            return False
        return symbolic.contains(self.witness) and not ordinary.contains(self.witness)


def equality_verdict(G: Graph, t: int, field=QQ, cap: int = MINIMAL_PRIMES_CAP) -> EqualityVerdict:
    """Decide J_G^t = J_G^(t): by the paper's theorems when G is connected
    and J_G has two associated primes or G is a caterpillar tree (over QQ
    only), otherwise by groebner_verdict.  The size cap and t >= 1 are
    enforced either way."""
    if t < 1:
        raise ValueError("power exponent must be >= 1")
    _check_cap(G, cap)
    if field == QQ and is_connected(G):
        if ass_count_is_two(G):
            return EqualityVerdict(G, t, True, None, "ass_two")
        if is_caterpillar(G):
            return EqualityVerdict(G, t, True, None, "caterpillar")
    return groebner_verdict(G, t, field, cap)


def groebner_verdict(G: Graph, t: int, field=QQ, cap: int = MINIMAL_PRIMES_CAP) -> EqualityVerdict:
    """Decide J_G^t = J_G^(t) by comparing reduced Groebner bases; on
    inequality, the witness is the first reduced-GB element of the
    symbolic power outside the ordinary power."""
    ordinary = binomial_edge_ideal(G, field).power(t)
    symbolic = symbolic_power(G, t, field, cap=cap)
    if ordinary.equal(symbolic):
        return EqualityVerdict(G, t, True, None)
    witness = None
    for g in symbolic.groebner():
        if not ordinary.contains(g):
            witness = g
            break
    if witness is None:
        raise AssertionError("unequal ideals with no witness: ordinary not inside symbolic")
    return EqualityVerdict(G, t, False, witness)
