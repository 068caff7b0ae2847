"""Kernel-level tests: the pure-Python kernel against independent
oracles (a textbook Buchberger, a dict-based pair update) and its own
invariants."""

import heapq
import random
from fractions import Fraction

import pytest

from bel import _kernel_py, corpus, kernel
from bel.bei import binomial_edge_ideal
from bel.decomp import minimal_primes
from bel.errors import SizeLimitError
from bel.fields import QQ
from bel.graphs import Graph, net_graph
from bel.rings import RingContext

from conftest import oracle_buchberger, oracle_update_pairs


@pytest.fixture(params=[kernel.KERNEL_NAME])
def impl(request):
    """The kernel the package selects, named in the test id."""
    return kernel


def test_kernel_name_matches_selected_module():
    assert kernel.buchberger.__module__ == "bel._kernel_py"
    assert kernel.KERNEL_NAME == "python"


def _edge_systems():
    graphs = [
        Graph.path(3),
        Graph.complete(3),
        Graph.star(3),
        Graph.cycle(4),
        Graph.cycle(5),
        Graph.from_edges(5, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5), (2, 5)]),
    ]
    for G in graphs:
        I = binomial_edge_ideal(G)
        yield [g.terms for g in I.gens], I.ring.nvars


def test_buchberger_idempotent(impl):
    for gens, nvars in _edge_systems():
        gb = impl.buchberger(gens, nvars)
        assert impl.buchberger(gb, nvars) == gb


def _fresh_normal_form(f, basis, nvars):
    """The pure-Python normal form with the basis packed on this call,
    bypassing the kernel's memo."""
    st, guards = _kernel_py._layout(nvars)
    bp = [_kernel_py._prep(_kernel_py._to_packed(g, st)) for g in basis]
    return _kernel_py._to_pairs(_kernel_py._reduce_full(_kernel_py._to_packed(f, st), bp, guards), st)


def _reduced_basis(G):
    """The reduced basis of J_G as a tuple of term tuples, the shape in
    which Ideal hands a basis to the kernel."""
    I = binomial_edge_ideal(G)
    return tuple(tuple(t) for t in _kernel_py.buchberger([g.terms for g in I.gens], I.ring.nvars))


def _memo_calls(normal_form):
    """Call normal_form in orders that could expose a stale packed basis:
    alternating bases, an equal-content copy, a temporary tuple freed
    before the next one is made, and mutations of a list basis and of a
    tuple of lists between calls.  Returns (result, expected) pairs."""
    R = RingContext.for_graph(4, QQ)
    a, b = _reduced_basis(Graph.path(4)), _reduced_basis(Graph.complete(4))
    f = (R.x(1) * R.y(3) + R.x(1) * R.y(4) * R.y(2) + R.x(2) * R.y(4)).terms
    out = []

    def call(basis):
        out.append((normal_form(f, basis, R.nvars), _fresh_normal_form(f, basis, R.nvars)))

    for basis in (a, b, a, b, tuple(list(a)), a):
        call(basis)
    call(tuple(list(a)))  # freed after the call
    call(tuple(list(b)))
    lst = list(a)
    call(lst)
    lst[:] = b
    call(lst)
    nested = tuple(list(g) for g in a)
    call(nested)
    for g in nested:
        g[:] = (R.y(4) ** 5).terms  # divides no term of f
    call(nested)
    return out


def test_normal_form_memo_matches_fresh():
    results = _memo_calls(_kernel_py.normal_form)
    for got, want in results:
        assert got == want
    # the probe tells the two bases apart, so a stale basis would show
    assert results[0][1] != results[1][1]
    R = RingContext.for_graph(3, QQ)
    gb = _reduced_basis(Graph.path(3))
    probe = (R.x(1) * R.y(3)).terms
    _kernel_py.normal_form(probe, gb, R.nvars)
    assert _kernel_py._nf_memo[0] is gb
    # the same tuple with another nvars is packed afresh, so its 6-entry
    # exponent vectors fail to pack for 8 variables, as on a fresh packing
    wide = tuple((m + (0, 0), c) for m, c in probe)
    with pytest.raises(ValueError, match="length 6, expected 8"):
        _fresh_normal_form(wide, gb, R.nvars + 2)
    with pytest.raises(ValueError, match="length 6, expected 8"):
        _kernel_py.normal_form(wide, gb, R.nvars + 2)


def test_normal_form_membership(impl):
    for gens, nvars in _edge_systems():
        gb = impl.buchberger(gens, nvars)
        # generators reduce to zero; a fresh variable monomial does not
        for g in gens:
            assert impl.normal_form(g, gb, nvars) == []
        stray = [((2,) + (0,) * (nvars - 1), QQ.from_int(1))]
        # x1^2 is never in a binomial edge ideal
        assert impl.normal_form(stray, gb, nvars) != []


def test_principal_ideal(impl):
    R = RingContext.for_graph(2, QQ)
    f = (R.x(1) * R.y(2) - R.x(2) * R.y(1)) * R.constant(QQ.from_int(3))
    (gb_elem,) = impl.buchberger([f.terms], R.nvars)
    assert R.from_terms(gb_elem) == f.monic()


def test_monomial_ideal_minimalization(impl):
    R = RingContext.for_graph(2, QQ)
    x1, x2 = R.x(1), R.x(2)
    gens = [(x1 * x2).terms, (x1 * x1 * x2).terms, (x2 * x2).terms]
    gb = impl.buchberger(gens, R.nvars)
    got = {R.from_terms(t) for t in gb}
    assert got == {x1 * x2, x2 * x2}


def test_reduced_basis_property(impl):
    """No term of any basis element is divisible by the leading monomial
    of another element, and every element is monic."""
    for gens, nvars in _edge_systems():
        gb = impl.buchberger(gens, nvars)
        lms = [t[0][0] for t in gb]
        for i, g in enumerate(gb):
            assert g[0][1] == QQ.one
            for m, _ in g:
                for j, lm in enumerate(lms):
                    if i == j and m == g[0][0]:
                        continue
                    assert not all(a <= b for a, b in zip(lm, m)), (
                        f"term {m} divisible by foreign leading monomial {lm}"
                    )


def test_pure_python_exponent_limit():
    """Exponents above 2**15 - 1 raise instead of spilling into the next
    packed field, whether given or produced by a reduction."""
    R = RingContext.for_graph(2, QQ)
    x1, x2, y1, y2 = R.x(1), R.x(2), R.y(1), R.y(2)
    with pytest.raises(SizeLimitError):
        _kernel_py.normal_form((y1 ** 70000).terms, [x2.terms], R.nvars)
    with pytest.raises(SizeLimitError):
        _kernel_py.normal_form((x1 * y1 ** 20000).terms, [(x1 - y1 ** 20000).terms], R.nvars)
    # the s-polynomial of these two carries y1^20000 * y1^20000
    with pytest.raises(SizeLimitError):
        _kernel_py.buchberger([(x1 * x2 - y1 ** 20000).terms, (x1 * y1 ** 20000 - y2).terms], R.nvars)
    top = y1 ** (2 ** 15 - 1)
    assert _kernel_py.normal_form((x1 * y1 ** 16383).terms, [(x1 - y1 ** 16384).terms], R.nvars) == list(top.terms)
    assert _kernel_py.buchberger([(top - y2).terms], R.nvars) == [list((top - y2).terms)]


def test_pure_python_wrong_length_exponents():
    """An exponent vector that does not fit the ring's layout is a
    ValueError, not the SizeLimitError of an exponent above the limit."""
    R = RingContext.for_graph(2, QQ)
    f, g = (R.x(1) * R.y(2)).terms, (R.x(1) - R.y(1)).terms
    with pytest.raises(ValueError, match="length 4, expected 6") as exc:
        _kernel_py.normal_form(f, [g], 6)
    assert not isinstance(exc.value, SizeLimitError)


def _fold_system(G, t):
    """The w-extended (gens, nvars) that the first step of G's t-th
    symbolic-power fold, the intersection of the two P_U^t with the fewest
    generators, hands the kernel."""
    primes = minimal_primes(G, method="cutpoint")
    powers = sorted((pc.ideal.power(t) for pc in primes), key=lambda I: len(I.gens))
    captured = []
    real = kernel.buchberger
    kernel.buchberger = lambda gens, nvars: captured.append((gens, nvars)) or []
    try:
        powers[0].intersect(powers[1])
    finally:
        kernel.buchberger = real
    return captured[0]


def test_buchberger_matches_textbook_oracle():
    """The kernel's reduced basis equals the textbook Buchberger's on J_G
    for every connected graph with n <= 4, on J_{P_4}^2, and on three
    non-homogeneous intersection systems."""
    systems = []
    for G in corpus.connected_transversal_upto(4):
        I = binomial_edge_ideal(G)
        systems.append(([g.terms for g in I.gens], I.ring.nvars))
    I = binomial_edge_ideal(Graph.path(4)).power(2)
    systems.append(([g.terms for g in I.gens], I.ring.nvars))
    systems.append(_fold_system(Graph.from_edges(3, [(1, 2), (1, 3)]), 2))
    systems.append(_fold_system(Graph.star(3), 1))
    systems.append(_fold_system(Graph.path(4), 1))
    for gens, nvars in systems:
        got = [[(m, Fraction(c.numerator, c.denominator)) for m, c in g]
               for g in _kernel_py.buchberger(gens, nvars)]
        assert got == oracle_buchberger(gens)


def test_buchberger_stats_consistent():
    """Every pair formed is pruned by one rule or reduced, every reduction
    gives zero or a new basis element, the counters change no output, and
    one dict passed to several calls totals them."""
    systems = [_fold_system(net_graph(), 2), _fold_system(Graph.from_edges(3, [(1, 2), (1, 3)]), 2)]
    each, total = [], {}
    for gens, nvars in systems:
        stats = {}
        gb = _kernel_py.buchberger(gens, nvars, stats)
        assert gb == _kernel_py.buchberger(gens, nvars)
        peak = stats["basis_peak"]
        assert stats["pairs"] == peak * (peak - 1) // 2
        assert stats["pairs"] == (stats["pruned_bk"] + stats["pruned_m"]
                                  + stats["pruned_f"] + stats["reduced"])
        insertions = peak - len(_kernel_py.interreduce(gens, nvars))
        assert stats["reduced"] == stats["zero"] + insertions
        assert insertions > 0 and peak >= len(gb)
        _kernel_py.buchberger(gens, nvars, total)
        each.append(stats)
    assert total == {key: (max if key == "basis_peak" else sum)(s[key] for s in each)
                     for key in each[0]}
    assert all(total.values())


def _check_update(lms, sugars, heap, guards):
    """One _update_pairs step against the dict-based oracle; returns the heap."""
    j = len(lms) - 1
    expected = oracle_update_pairs(lms, sugars, {(a, b): s for s, _, a, b in heap}, j, guards)
    got = _kernel_py._update_pairs(lms, sugars, list(heap), guards)
    assert sorted((a, b) for _, _, a, b in got) == sorted(expected)
    assert all(L == _kernel_py._lcm(lms[a], lms[b], guards) for _, L, a, b in got)
    assert {(a, b): s for s, _, a, b in got} == expected
    assert all(got[(k - 1) // 2] <= got[k] for k in range(1, len(got)))
    return got


def test_update_pairs_matches_oracle():
    """The (sugar, lcm, a, b) pair heap holds exactly the pairs of the
    dict-based Gebauer-Moeller update, each with its own lcm and sugar, on
    the states met while computing the net's J^2 and the first step of its
    t=2 symbolic-power fold, and on seeded random leading-monomial runs."""
    J2 = binomial_edge_ideal(net_graph()).power(2)
    # the fold step is not homogeneous, so there sugars exceed degrees
    systems = [([g.terms for g in J2.gens], J2.ring.nvars), _fold_system(net_graph(), 2)]
    states = []
    update = _kernel_py._update_pairs

    def record(lms, sugars, pairs, guards, stats=None):
        states.append((list(lms), list(sugars), list(pairs), guards))
        return update(lms, sugars, pairs, guards, stats)

    _kernel_py._update_pairs = record
    try:
        for gens, nvars in systems:
            _kernel_py.buchberger(gens, nvars)
    finally:
        _kernel_py._update_pairs = update
    assert len(states) > 100 and max(len(p) for _, _, p, _ in states) > 50
    for lms, sugars, heap, guards in states:
        _check_update(lms, sugars, heap, guards)

    for seed in range(20):
        rng = random.Random(seed)
        nvars = rng.randint(3, 6)
        st, guards = _kernel_py._layout(nvars)
        lms, sugars, heap = [], [], []
        for _ in range(60):
            exps = [rng.randint(0, 4) for _ in range(nvars)]
            m = _kernel_py._pack(exps, st)
            if any(_kernel_py._divides(lm, m, guards) for lm in lms):
                continue  # a new remainder's lm is divisible by no earlier one
            lms.append(m)
            sugars.append(sum(exps) + rng.randint(0, 3))
            heap = _check_update(lms, sugars, heap, guards)
            for _ in range(min(rng.randint(0, 2), len(heap))):
                heapq.heappop(heap)
