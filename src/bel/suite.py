"""The verification suite: one runnable criterion per verified claim.

Each criterion returns a CriterionResult; the CLI and the acceptance
tests share these functions.  All verdicts are exact (canonical reduced
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


# Criterion names by id, shared by a run and by a skipped --quick entry.
NAMES = {
    1: "combinatorial reduced basis matches Buchberger",
    2: "edge ideal equals the full prime-component intersection",
    3: "two-associated-primes criterion agrees with minimal primes",
    4: "two-associated-primes graphs: powers equal at t=2,3",
    5: "caterpillar trees: equality, no special odd cycles, degree <= 3",
    6: "net graph: powers differ at t=2 with verified witness",
    7: "net-free generalized caterpillars: equality at t=2",
    8: "weak closedness == co-comparability; net-free == weakly closed",
    9: "property suite: containments, idempotence, field agreement",
}


def _timed(cid, name, fn) -> CriterionResult:
    t0 = time.perf_counter()
    try:
        passed, detail = fn()
    except Exception as exc:  # a crash is a failure with a named cause
        return CriterionResult(cid, name, False, time.perf_counter() - t0, f"error: {exc}")
    return CriterionResult(cid, name, passed, time.perf_counter() - t0, detail)


def _labeled_connected_upto5() -> list:
    out = []
    for n in range(1, 6):
        out.extend(corpus.connected_graphs(n))
    return out


def criterion_gb_combinatorial() -> CriterionResult:
    """Combinatorial reduced basis == Buchberger output, termwise."""

    def run():
        graphs = _labeled_connected_upto5()
        graphs += corpus.random_connected_graphs(6, 25)
        bad = 0
        for G in graphs:
            if list(groebner_combinatorial(G)) != list(binomial_edge_ideal(G).groebner()):
                bad += 1
        return bad == 0, f"{len(graphs)} graphs checked, {bad} mismatches"

    return _timed(1, NAMES[1], run)


def criterion_decomposition() -> CriterionResult:
    """J_G equals the intersection of all 2^n prime components P_U,
    folded in subset order, P_emptyset first."""

    def run():
        graphs = [G for G in corpus.graphs_upto(5) if is_connected(G)]
        bad = 0
        for G in graphs:
            J = binomial_edge_ideal(G)
            primes = [prime_component(G, U).ideal for U in _subsets(G.vertices)]
            if not intersect_all(primes).equal(J):
                bad += 1
        return bad == 0, f"{len(graphs)} graphs checked, {bad} mismatches"

    return _timed(2, NAMES[2], run)


def criterion_ass_two() -> CriterionResult:
    """Combinatorial two-associated-primes test agrees with the count of
    minimal primes."""

    def run():
        graphs = _labeled_connected_upto5()
        bad = 0
        for G in graphs:
            if ass_count_is_two(G) != (len(minimal_primes(G)) == 2):
                bad += 1
        return bad == 0, f"{len(graphs)} graphs checked, {bad} disagreements"

    return _timed(3, NAMES[3], run)


def criterion_ass_two_powers() -> CriterionResult:
    """Graphs with two associated primes have equal powers at t = 2, 3."""

    def run():
        graphs = [G for G in corpus.graphs_upto(5) if is_connected(G) and ass_count_is_two(G)]
        bad = []
        for G in graphs:
            for t in (2, 3):
                if not groebner_verdict(G, t).equal:
                    bad.append((G, t))
        return not bad, f"{len(graphs)} graphs at t=2,3, {len(bad)} inequalities"

    return _timed(4, NAMES[4], run)


def criterion_caterpillars() -> CriterionResult:
    """Caterpillar trees: equal powers at t=2 (t=3 for the 3-star), no
    special odd cycles under `gencat_labeling`, basis degree <= 3."""

    def run():
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
        star3 = Graph.star(3)
        if not groebner_verdict(star3, 3).equal:
            problems.append("3-star t=3 inequality")
        return not problems, f"{len(cats)} caterpillars; " + ("; ".join(problems) or "all good")

    return _timed(5, NAMES[5], run)


def criterion_net_negative() -> CriterionResult:
    """The net has unequal second powers, with a doubly-verified witness."""

    def run():
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
        in_all_primes = all(
            pc.ideal.power(2).contains(w) for pc in minimal_primes(net)
        )
        Fp = PrimeField(32003)
        ordinary_p = binomial_edge_ideal(net, Fp).power(2)
        w_p = ordinary_p.ring.from_terms(
            [(m, Fp.from_rational(c)) for m, c in w.terms]
        )
        route2 = in_all_primes and not ordinary_p.contains(w_p)
        ok = route1 and route2
        return ok, f"witness {w}"

    return _timed(6, NAMES[6], run)


def criterion_gencat_positive() -> CriterionResult:
    """Net-free generalized caterpillars: equal powers at t=2 and the
    constructed labeling is weakly closed."""

    def run():
        graphs = corpus.gencat_corpus()
        problems = []
        for G in graphs:
            lab = gencat_labeling(G)
            if not is_weakly_closed_with_labeling(G, lab):
                problems.append(f"labeling failed on {sorted(G.edges)}")
            if not groebner_verdict(G, 2).equal:
                problems.append(f"t=2 inequality on {sorted(G.edges)}")
        return not problems, f"{len(graphs)} graphs; " + ("; ".join(problems) or "all good")

    return _timed(7, NAMES[7], run)


def criterion_weakly_closed_comparability() -> CriterionResult:
    """The weakly-closed-labeling search succeeds exactly on the
    co-comparability graphs with n <= 6; net-freeness matches weak
    closedness on the gencat corpus.  The search runs unguarded, since
    ``find_weakly_closed_labeling`` itself consults co-comparability.
    Its forward checking prunes only on the weak-closedness triples, not
    on co-comparability, so this still checks Matsuda's theorem."""

    def run():
        atlas = corpus.graphs_upto(6)
        bad = sum((_search_labeling(G, _weakly_closed_triple) is not None)
                  != is_comparability(complement(G)) for G in atlas)
        corpus_bad = 0
        for G in corpus.gencat_corpus() + [net_graph()]:
            if is_net_free(G) != is_weakly_closed(G):
                corpus_bad += 1
        net_ok = not is_comparability(complement(net_graph()))
        ok = bad == 0 and corpus_bad == 0 and net_ok
        return ok, (
            f"{len(atlas)} atlas graphs, {bad} mismatches; "
            f"{corpus_bad} corpus mismatches; net complement comparability: {not net_ok}"
        )

    return _timed(8, NAMES[8], run)


def criterion_properties() -> CriterionResult:
    """Cross-cutting exactness properties: power containment, GB
    idempotence, intersection containments, field-agnostic verdicts."""

    def run():
        problems = []
        probes = [
            Graph.path(3),
            Graph.complete(3),
            Graph.star(3),
            corpus.gencat_corpus()[2],  # paw
            net_graph(),
        ]
        for G in probes:
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

    return _timed(9, NAMES[9], run)


ALL_CRITERIA = [
    criterion_gb_combinatorial,
    criterion_decomposition,
    criterion_ass_two,
    criterion_ass_two_powers,
    criterion_caterpillars,
    criterion_net_negative,
    criterion_gencat_positive,
    criterion_weakly_closed_comparability,
    criterion_properties,
]

QUICK_SKIP = {6}  # the net t=2 computation


def run_suite(quick: bool = False) -> list:
    results = []
    for cid, fn in enumerate(ALL_CRITERIA, start=1):
        if quick and cid in QUICK_SKIP:
            results.append(CriterionResult(cid, NAMES[cid], True, 0.0, "skipped (--quick)", skipped=True))
            continue
        results.append(fn())
    return results
