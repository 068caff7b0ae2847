"""The verification suite: one table of criteria and one runner.

``CRITERIA`` holds one ``(name, check)`` row per verified claim, in id
order from 1.  A check takes nothing and returns ``(passed, detail)``;
its docstring states the claim.  ``run_criterion`` times one check and
turns a crash into a failure that names its cause, and ``run_suite``
runs the table, skipping the ids in ``QUICK_SKIP`` under ``--quick``.
The CLI and the acceptance tests share that runner, so a new criterion
is one row here plus one ``DETAILS`` entry in
``tests/test_acceptance.py``.  All verdicts are exact (canonical reduced
Groebner bases over the rationals).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from . import corpus
from .bei import binomial_edge_ideal, gb_max_degree, groebner_combinatorial
from .complexes import equality_criterion_via_cycles
from .decomp import (
    _subsets,
    groebner_verdict,
    minimal_primes,
    prime_component,
    symbolic_power,
)
from .fields import PrimeField
from .graphs import Graph, ass_count_is_two, complement, is_connected, net_graph
from .ideals import Ideal, intersect_all
from .recognizers import (
    _search_labeling,
    _weakly_closed_triple,
    gencat_labeling,
    is_comparability,
    is_net_free,
    is_weakly_closed,
    is_weakly_closed_with_labeling,
)


@dataclass
class CriterionResult:
    cid: int
    name: str
    passed: bool
    seconds: float
    detail: str = ""
    skipped: bool = False

    @property
    def status(self) -> str:
        return "SKIP" if self.skipped else ("PASS" if self.passed else "FAIL")

    def to_json(self) -> dict:
        return {
            "id": self.cid,
            "name": self.name,
            "status": self.status,
            "seconds": round(self.seconds, 3),
            "detail": self.detail,
        }


def _labeled_connected_upto5() -> list:
    return [G for n in range(1, 6) for G in corpus.connected_graphs(n)]


def _gb_combinatorial() -> tuple:
    """Combinatorial reduced basis == Buchberger output, termwise."""
    graphs = _labeled_connected_upto5() + corpus.random_connected_graphs(6, 25)
    bad = sum(list(groebner_combinatorial(G)) != list(binomial_edge_ideal(G).groebner())
              for G in graphs)
    return bad == 0, f"{len(graphs)} graphs checked, {bad} mismatches"


def _decomposition() -> tuple:
    """J_G equals the intersection of all 2^n prime components P_U,
    folded in subset order, P_emptyset first."""
    graphs = [G for G in corpus.graphs_upto(5) if is_connected(G)]
    bad = 0
    for G in graphs:
        primes = [prime_component(G, U).ideal for U in _subsets(G.vertices)]
        bad += not intersect_all(primes).equal(binomial_edge_ideal(G))
    return bad == 0, f"{len(graphs)} graphs checked, {bad} mismatches"


def _ass_two() -> tuple:
    """Combinatorial two-associated-primes test agrees with the count of
    minimal primes."""
    graphs = _labeled_connected_upto5()
    bad = sum(ass_count_is_two(G) != (len(minimal_primes(G)) == 2) for G in graphs)
    return bad == 0, f"{len(graphs)} graphs checked, {bad} disagreements"


def _ass_two_powers() -> tuple:
    """Graphs with two associated primes have equal powers at t = 2, 3."""
    graphs = [G for G in corpus.graphs_upto(5) if is_connected(G) and ass_count_is_two(G)]
    bad = sum(not groebner_verdict(G, t).equal for G in graphs for t in (2, 3))
    return bad == 0, f"{len(graphs)} graphs at t=2,3, {bad} inequalities"


def _caterpillars() -> tuple:
    """Caterpillar trees: equal powers at t=2 (t=3 for the 3-star), no
    special odd cycles under `gencat_labeling`, basis degree <= 3."""
    cats = corpus.caterpillars_upto(6)
    problems = []
    for G in cats:
        if not groebner_verdict(G, 2).equal:
            problems.append(f"t=2 inequality on {sorted(G.edges)}")
        lab = gencat_labeling(G)
        if not equality_criterion_via_cycles(lab.apply(G)):
            problems.append(f"special odd cycle on {sorted(G.edges)}")
        if gb_max_degree(G, lab) > 3:
            problems.append(f"basis degree > 3 on {sorted(G.edges)}")
    if not groebner_verdict(Graph.star(3), 3).equal:
        problems.append("3-star t=3 inequality")
    return not problems, f"{len(cats)} caterpillars; " + ("; ".join(problems) or "all good")


def _net_negative() -> tuple:
    """The net has unequal second powers, with a doubly-verified witness."""
    net = net_graph()
    v = groebner_verdict(net, 2)
    if v.equal:
        return False, "net reported equal at t=2"
    w = v.witness
    # route 1: canonical GB membership
    ordinary = binomial_edge_ideal(net).power(2)
    symbolic = symbolic_power(net, 2)
    route1 = v.check_witness(ordinary, symbolic)
    # route 2: membership in every minimal-prime power separately, and
    # ordinary non-membership recomputed over a prime field
    in_all_primes = all(pc.ideal.power(2).contains(w) for pc in minimal_primes(net))
    Fp = PrimeField(32003)
    ordinary_p = binomial_edge_ideal(net, Fp).power(2)
    w_p = ordinary_p.ring.from_terms([(m, Fp.from_rational(c)) for m, c in w.terms])
    route2 = in_all_primes and not ordinary_p.contains(w_p)
    return route1 and route2, f"witness {w}"


def _gencat_positive() -> tuple:
    """Net-free generalized caterpillars: equal powers at t=2 and the
    constructed labeling is weakly closed."""
    graphs = corpus.gencat_corpus()
    problems = []
    for G in graphs:
        lab = gencat_labeling(G)
        if not is_weakly_closed_with_labeling(G, lab):
            problems.append(f"labeling failed on {sorted(G.edges)}")
        if not groebner_verdict(G, 2).equal:
            problems.append(f"t=2 inequality on {sorted(G.edges)}")
    return not problems, f"{len(graphs)} graphs; " + ("; ".join(problems) or "all good")


def _weakly_closed_comparability() -> tuple:
    """The weakly-closed-labeling search succeeds exactly on the
    co-comparability graphs with n <= 6; net-freeness matches weak
    closedness on the gencat corpus.  The search runs unguarded, since
    ``find_weakly_closed_labeling`` itself consults co-comparability.
    Its forward checking prunes only on the weak-closedness triples, not
    on co-comparability, so this still checks Matsuda's theorem."""
    atlas = corpus.graphs_upto(6)
    bad = sum((_search_labeling(G, _weakly_closed_triple) is not None)
              != is_comparability(complement(G)) for G in atlas)
    corpus_bad = sum(is_net_free(G) != is_weakly_closed(G)
                     for G in corpus.gencat_corpus() + [net_graph()])
    net_ok = not is_comparability(complement(net_graph()))
    ok = bad == 0 and corpus_bad == 0 and net_ok
    return ok, (
        f"{len(atlas)} atlas graphs, {bad} mismatches; "
        f"{corpus_bad} corpus mismatches; net complement comparability: {not net_ok}"
    )


def _properties() -> tuple:
    """Cross-cutting exactness properties: power containment, GB
    idempotence, intersection containments, field-agnostic verdicts."""
    problems = []
    paw = corpus.gencat_corpus()[2]
    for G in [Graph.path(3), Graph.complete(3), Graph.star(3), paw, net_graph()]:
        J = binomial_edge_ideal(G)
        sym = symbolic_power(G, 2)
        ordinary = J.power(2)
        if not all(sym.contains(g) for g in ordinary.gens):
            problems.append(f"containment J^2 not in J^(2) on {sorted(G.edges)}")
        gb = J.groebner()
        again = Ideal(J.ring, gb).groebner()
        if tuple(again) != tuple(gb):
            problems.append(f"GB not idempotent on {sorted(G.edges)}")
        inter = ordinary.intersect(sym)
        if not all(ordinary.contains(g) and sym.contains(g) for g in inter.gens):
            problems.append(f"intersection containment failed on {sorted(G.edges)}")
    # verdict agreement between exact and prime-field coefficients
    Fp = PrimeField(32003)
    for G, t in [(Graph.path(3), 2), (Graph.star(3), 2), (net_graph(), 2)]:
        if groebner_verdict(G, t).equal != groebner_verdict(G, t, Fp).equal:
            problems.append(f"field disagreement on {sorted(G.edges)} t={t}")
    return not problems, "; ".join(problems) or "all properties hold"


CRITERIA = (
    ("combinatorial reduced basis matches Buchberger", _gb_combinatorial),
    ("edge ideal equals the full prime-component intersection", _decomposition),
    ("two-associated-primes criterion agrees with minimal primes", _ass_two),
    ("two-associated-primes graphs: powers equal at t=2,3", _ass_two_powers),
    ("caterpillar trees: equality, no special odd cycles, degree <= 3", _caterpillars),
    ("net graph: powers differ at t=2 with verified witness", _net_negative),
    ("net-free generalized caterpillars: equality at t=2", _gencat_positive),
    ("weak closedness == co-comparability; net-free == weakly closed",
     _weakly_closed_comparability),
    ("property suite: containments, idempotence, field agreement", _properties),
)

QUICK_SKIP = {6}  # the net t=2 computation


def run_criterion(cid: int) -> CriterionResult:
    """Run the check of row ``cid`` (from 1), timed; a crash is a failure
    with a named cause."""
    name, check = CRITERIA[cid - 1]
    t0 = time.perf_counter()
    try:
        passed, detail = check()
    except Exception as exc:
        passed, detail = False, f"error: {exc}"
    return CriterionResult(cid, name, passed, time.perf_counter() - t0, detail)


def run_suite(quick: bool = False) -> list:
    return [CriterionResult(cid, name, True, 0.0, "skipped (--quick)", skipped=True)
            if quick and cid in QUICK_SKIP else run_criterion(cid)
            for cid, (name, _) in enumerate(CRITERIA, start=1)]
