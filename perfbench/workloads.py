"""The three benchmark workloads: seeded query generators, the library calls
each query makes, canonical answers, and the independent oracles that
produce the expected answers.

Every query is a single-graph call sequence that mirrors one ``bel``
command with its default arguments (field QQ, ``--max-n 8``).  A workload
is a fixed batch of such queries drawn from ``random.Random(f"{name}:{seed}")``,
so the same seed always gives the same batch.

Why these three (see README.md for the full layer -> metric table):

* ``powers`` -- ``bel powers``: build-heavy use of the kernel.  Elimination
  Groebner bases inside ``Ideal.intersect`` dominate.  The family is bounded
  by the number of minimal primes, because verdict cost is wildly uneven
  (C5 at t=2 takes seconds, a sparse 6-vertex graph tens of seconds), and
  one unbounded query would swamp the batch.  The net at t=2 is pinned: it
  is the one unequal case, so the witness search always runs.
* ``primes`` -- ``bel primes`` with the default ``containment`` method:
  read-heavy use of the same kernel, many normal forms against small,
  already-built prime bases.
* ``combinatorial`` -- ``bel gb``, ``bel classify``,
  ``bel complex --special-odd-cycles`` and the isomorphism key: runs
  ``bei``, ``recognizers``, ``complexes`` and ``corpus`` and almost no
  kernel, so a kernel change is predicted to leave it unchanged.

Steadiness across seeds.  The end-to-end figures are order statistics of a
batch of a few dozen queries, and query cost varies two- to four-fold
between graphs of one size, so freely drawn batches move the median and
the tail by 10-30% from seed to seed.  Each batch therefore mixes
seed-dependent queries with fixed anchors, arranged so that the median
and tail ranks fall inside a stratum of many similar queries or on an
anchor:

* ``powers`` draws its t=2 and t=3 graphs from the cheap strata (at most
  two minimal primes) and pins the net and three three-prime graphs, which
  are dearer than anything drawn and carry the tail;
* ``primes`` and ``combinatorial`` fix a list of graph shapes (drawn once
  from a constant stream) and let the seed choose the vertex labelling of
  the light ones, which is what the lex-ordered kernel and the labelling
  searches see; the heavy queries that carry the tail (n=7 and n=8 for
  ``primes``, the dense n=9 graphs for ``combinatorial``) are pinned.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from itertools import combinations

import networkx as nx

from bel import bei, complexes, corpus, decomp, recognizers
from bel.fields import QQ, PrimeField
from bel.graphs import Graph, complement, edge, is_connected, net_graph, relabel

CAP = 8  # the CLI's --max-n default, passed exactly as `bel primes/powers` do
FP = PrimeField(32003)

# Batch composition.  Every batch has 25 queries: with at least 4 passes a
# run has 100 or more samples, so the tail rung (run.tail_percentile) is
# always p90, at rank 22.5 of 25, and the median sits at rank 12.5.
#
# powers: drawn (t, n, count) slots, each admitting connected graphs with at
# most POWERS_MAX_PRIMES minimal primes.  Measured on the pure-Python kernel
# with Fraction coefficients: every admitted graph takes under 0.35 s, while
# 3-prime graphs at n=5 take 0.08-1.2 s depending on the labelling and C5
# (6 primes) takes 5 s, so unbounded draws would swamp the batch.  There are
# 22 admitted labelled graphs at n=4; drawing 19 of them keeps the median
# (rank 12.5) steady from seed to seed.
POWERS_MAX_PRIMES = 2
POWERS_MIX = ((2, 4, 19), (2, 5, 1), (3, 4, 1))
# powers: pinned at t=2.  Three 3-prime graphs of similar cost (0.5-0.9 s),
# dearer than any drawn query, so p90 falls in the middle of their block;
# then the net (2.5-4 s).
HOUSE = Graph.from_edges(5, [(1, 3), (1, 4), (2, 3), (2, 4), (3, 5), (4, 5)])
HOUSE_DIAGONAL = Graph.from_edges(5, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 5), (4, 5)])
K23 = Graph.from_edges(5, [(1, 2), (1, 5), (2, 3), (2, 4), (3, 5), (4, 5)])
POWERS_PINNED = (HOUSE, HOUSE_DIAGONAL, K23, net_graph())
# primes: (n, count, relabel) of fixed shapes.  The n=6 shapes are relabelled
# per seed; the n=7 and n=8 ones, which carry p90 and most of the batch time
# and whose cost moves up to 1.7-fold with the labelling, are pinned.
PRIMES_MIX = ((6, 20, True), (7, 4, False), (8, 1, False))
COMBINATORIAL_MIX = ((7, 17, True), (8, 4, True))  # (n, count, relabel) of fixed shapes
# combinatorial: pinned gb-only queries, K9 minus the first k edges of the
# cycle 1-2-...-9-1 (33 down to 30 edges; 0.6-1.3 s each), so p90 falls
# inside their block.
DENSE_N = 9
DENSE_REMOVED = (3, 4, 5, 6)

# The net's t=2 witness (first reduced-GB element of J^(2) outside J^2), as
# (exponent vector over x1..x6, y1..y6, coefficient).  Pinned so the oracle
# need not recompute the symbolic power; it is re-verified on every oracle run.
NET_WITNESS_TERMS = (
    ((1, 0, 0, 1, 1, 0, 0, 1, 1, 0, 0, 1), 1),
    ((1, 0, 0, 1, 0, 1, 0, 1, 1, 0, 1, 0), -1),
    ((0, 1, 0, 1, 1, 0, 1, 0, 1, 0, 0, 1), -1),
    ((0, 1, 0, 0, 1, 1, 1, 0, 1, 1, 0, 0), 1),
    ((0, 0, 1, 1, 0, 1, 1, 1, 0, 0, 1, 0), 1),
    ((0, 0, 1, 0, 1, 1, 1, 1, 0, 1, 0, 0), -1),
)


@dataclass(frozen=True)
class Query:
    graph: Graph
    t: int = 0  # powers exponent; 0 elsewhere
    full: bool = True  # combinatorial: False for the gb-only dense queries

    def key(self):
        return [self.graph.n, sorted(map(list, self.graph.edges)), self.t, self.full]


def digest(answer) -> str:
    """Digest of a canonical (JSON-serialisable) answer."""
    text = json.dumps(answer, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:24]


def inputs_digest(queries) -> str:
    return digest([q.key() for q in queries])


def _random_connected(rng: random.Random, n: int, accept=lambda G: True, seen=()) -> Graph:
    """A labelled connected graph on n vertices, not in `seen`."""
    pairs = list(combinations(range(1, n + 1), 2))
    for _ in range(10000):
        p = rng.uniform(0.25, 0.65)
        G = Graph.from_edges(n, [e for e in pairs if rng.random() < p])
        if is_connected(G) and G not in seen and accept(G):
            return G
    raise RuntimeError(f"no admissible connected graph on {n} vertices")


def _relabelled(rng: random.Random, G: Graph, seen=()) -> Graph:
    """G under a random vertex relabelling, not in `seen`."""
    while True:
        perm = list(G.vertices)
        rng.shuffle(perm)
        H = relabel(G, {v: perm[v - 1] for v in G.vertices})
        if H not in seen:
            return H


def _shapes(workload: str, mix) -> list:
    """The workload's fixed graph shapes, the same for every seed, each with
    its relabel flag."""
    rng = random.Random(f"{workload}:shapes")
    out = []
    for n, count, relabel_it in mix:
        for _ in range(count):
            out.append((_random_connected(rng, n, seen=[G for G, _ in out]), relabel_it))
    return out


def _from_shapes(rng: random.Random, shapes) -> list:
    """The shapes with the flagged ones relabelled by rng, all distinct."""
    out = []
    for G, relabel_it in shapes:
        out.append(_relabelled(rng, G, out) if relabel_it else G)
    return out


def prime_count(G: Graph) -> int:
    return len(decomp.minimal_primes(G, method="cutpoint"))


def powers_admissible(q: Query) -> bool:
    """The bound on the powers family: a pinned graph at t=2, or a drawn
    connected graph with n=4..5 at t=2 or n=4 at t=3 and at most
    POWERS_MAX_PRIMES minimal primes."""
    if q.graph in POWERS_PINNED:
        return q.t == 2
    max_n = 5 if q.t == 2 else 4
    return (4 <= q.graph.n <= max_n and q.t in (2, 3) and is_connected(q.graph)
            and prime_count(q.graph) <= POWERS_MAX_PRIMES)


# ------------------------------------------------------------------ powers

def generate_powers(rng: random.Random) -> list:
    out = []
    seen = set(POWERS_PINNED)
    for t, n, count in POWERS_MIX:
        for _ in range(count):
            G = _random_connected(rng, n, lambda H: prime_count(H) <= POWERS_MAX_PRIMES, seen)
            seen.add(G)
            out.append(Query(G, t))
    return out + [Query(G, 2) for G in POWERS_PINNED]


def call_powers(q: Query):
    return decomp.equality_verdict(q.graph, q.t, QQ, cap=CAP)


def answer_powers(q: Query, v) -> dict:
    return {"equal": v.equal, "witness": str(v.witness) if v.witness is not None else None}


class _PrimePowers:
    """Membership in J^(t) decided prime by prime (cutpoint primes), with no
    intersection; stands in for the symbolic ideal in check_witness."""

    def __init__(self, G: Graph, t: int):
        self.powers = [pc.ideal.power(t) for pc in decomp.minimal_primes(G, method="cutpoint")]

    def contains(self, f) -> bool:
        return all(P.contains(f) for P in self.powers)


def _witness_holds(G: Graph, t: int, v) -> bool:
    """check_witness over QQ plus non-membership over F_32003 (criterion 6)."""
    ordinary = bei.binomial_edge_ideal(G).power(t)
    if not v.check_witness(ordinary, _PrimePowers(G, t)):
        return False
    ordinary_p = bei.binomial_edge_ideal(G, FP).power(t)
    w_p = ordinary_p.ring.from_terms([(m, FP.from_rational(c)) for m, c in v.witness.terms])
    return not ordinary_p.contains(w_p)


def oracle_powers(q: Query) -> dict:
    """The net's pinned witness, re-verified; every other query must come
    out equal over F_32003 (no drawn or pinned graph but the net is
    expected unequal, so anything else is reported as a failure)."""
    if q.graph == net_graph() and q.t == 2:
        R = bei.graph_ring(q.graph)
        w = R.from_terms([(m, QQ.from_int(c)) for m, c in NET_WITNESS_TERMS])
        v = decomp.EqualityVerdict(q.graph, 2, False, w)
        return answer_powers(q, v) if _witness_holds(q.graph, 2, v) else {"oracle_rejected": "net"}
    if decomp.equality_verdict(q.graph, q.t, FP, cap=CAP).equal:
        return {"equal": True, "witness": None}
    return {"oracle_rejected": "unequal over F_32003"}


# ------------------------------------------------------------------ primes

def generate_primes(rng: random.Random) -> list:
    return [Query(G) for G in _from_shapes(rng, _shapes("primes", PRIMES_MIX))]


def call_primes(q: Query):
    return decomp.minimal_primes(q.graph, QQ, cap=CAP)


def answer_primes(q: Query, pcs) -> list:
    return [[sorted(pc.U), sorted(sorted(c) for c in pc.components)] for pc in pcs]


def oracle_primes(q: Query) -> list:
    return answer_primes(q, decomp.minimal_primes(q.graph, QQ, cap=CAP, method="cutpoint"))


# ----------------------------------------------------------- combinatorial

def dense_graph(removed: int) -> Graph:
    cycle = [(i, i % DENSE_N + 1) for i in range(1, DENSE_N + 1)]
    return Graph(DENSE_N, Graph.complete(DENSE_N).edges - {edge(*e) for e in cycle[:removed]})


def generate_combinatorial(rng: random.Random) -> list:
    shapes = _from_shapes(rng, _shapes("combinatorial", COMBINATORIAL_MIX))
    return [Query(G) for G in shapes] + [Query(dense_graph(k), full=False) for k in DENSE_REMOVED]


def call_combinatorial(q: Query) -> dict:
    G = q.graph
    # bel gb
    raw = {"gb": bei.groebner_combinatorial(G, QQ), "max_degree": bei.gb_max_degree(G)}
    if not q.full:
        return raw
    # bel classify
    raw["closed"] = recognizers.find_closed_labeling(G)
    raw["weak"] = recognizers.find_weakly_closed_labeling(G)
    raw["gencat"] = recognizers.is_generalized_caterpillar(G)
    tree = recognizers.is_tree(G)
    raw["tree"] = tree
    raw["caterpillar"] = tree and recognizers.is_caterpillar(G)
    raw["net_free"] = recognizers.is_net_free(G)
    raw["comparability"] = recognizers.is_comparability(G)
    raw["complement_comparability"] = recognizers.is_comparability(complement(G))
    # bel complex --special-odd-cycles
    raw["complex"] = cx = complexes.delta_of(bei.initial_ideal(G))
    raw["cycle"] = complexes.find_special_odd_cycle(cx)
    # isomorphism key
    raw["canonical_form"] = corpus.canonical_form(G)
    return raw


def answer_combinatorial(q: Query, raw: dict) -> dict:
    out = {"gb": [str(g) for g in raw["gb"]], "max_degree": raw["max_degree"]}
    if not q.full:
        return out
    closed, weak, cyc = raw["closed"], raw["weak"], raw["cycle"]
    out["classify"] = {
        "tree": raw["tree"],
        "caterpillar": raw["caterpillar"],
        "generalized_caterpillar": raw["gencat"] is not None,
        "net_free": raw["net_free"],
        "closed_labeling": list(closed.sigma) if closed else None,
        "weakly_closed_labeling": list(weak.sigma) if weak else None,
        "comparability": raw["comparability"],
        "complement_comparability": raw["complement_comparability"],
    }
    out["complex"] = {
        "facets": sorted(sorted(f) for f in raw["complex"].facets),
        "special_odd_cycle": (
            {"vertices": list(cyc.cycle_vertices), "facets": [sorted(f) for f in cyc.cycle_facets]}
            if cyc else None),
    }
    out["canonical_form"] = list(raw["canonical_form"])
    return out


def _combinatorial_problems(q: Query, raw: dict) -> list:
    """Independent checks of one reference answer; empty when all hold."""
    G = q.graph
    problems = []
    if raw["closed"] and not recognizers.is_closed_with_labeling(G, raw["closed"]):
        problems.append("closed labeling fails replay")
    if raw["weak"] and not recognizers.is_weakly_closed_with_labeling(G, raw["weak"]):
        problems.append("weakly closed labeling fails replay")
    if raw["closed"] and not raw["weak"]:
        problems.append("closed but not weakly closed")
    if (raw["weak"] is not None) != raw["complement_comparability"]:
        problems.append("weak closedness disagrees with co-comparability")
    if raw["gencat"] is not None and raw["gencat"].replay() != G:
        problems.append("generalized-caterpillar witness fails replay")
    if raw["tree"] != nx.is_tree(G.to_networkx()):
        problems.append("tree verdict disagrees with networkx")
    cyc = raw["cycle"]
    if cyc is not None:
        try:
            cyc.validate(raw["complex"])
        except ValueError as exc:
            problems.append(f"special odd cycle fails validation: {exc}")
        if cyc.length < 3 or cyc.length % 2 == 0:
            problems.append("special cycle is not odd")
    n, bits = raw["canonical_form"]
    pairs = list(combinations(range(1, n + 1), 2))
    H = Graph.from_edges(n, [p for i, p in enumerate(pairs) if bits >> i & 1])
    if not nx.is_isomorphic(H.to_networkx(), G.to_networkx()):
        problems.append("canonical form decodes to a non-isomorphic graph")
    return problems


def oracle_combinatorial(q: Query) -> dict:
    """Buchberger for the basis; for the rest, one reference run whose
    labelings, witnesses, cycles and key are replayed independently."""
    gb = bei.binomial_edge_ideal(q.graph).groebner()
    ref = {"gb": gb, "max_degree": max((g.total_degree() for g in gb), default=0)}
    if q.full:
        raw = call_combinatorial(q)
        raw.update(ref)
        problems = _combinatorial_problems(q, raw)
        if problems:
            return {"oracle_rejected": problems}
        ref = raw
    return answer_combinatorial(q, ref)


# ---------------------------------------------------------------- registry

@dataclass(frozen=True)
class Workload:
    name: str
    generate: object  # rng -> list[Query]
    call: object  # Query -> raw result (the timed part)
    answer: object  # (Query, raw) -> canonical answer
    oracle: object  # Query -> expected canonical answer, by another path


WORKLOADS = {
    "powers": Workload("powers", generate_powers, call_powers, answer_powers, oracle_powers),
    "primes": Workload("primes", generate_primes, call_primes, answer_primes, oracle_primes),
    "combinatorial": Workload("combinatorial", generate_combinatorial, call_combinatorial,
                              answer_combinatorial, oracle_combinatorial),
}


def generate(workload: str, seed: int) -> list:
    return WORKLOADS[workload].generate(random.Random(f"{workload}:{seed}"))
