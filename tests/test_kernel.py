"""Kernel-level tests: the pure-Python kernel against independent
oracles (a textbook Buchberger, a dict-based pair update) and its own
invariants."""

import hashlib
import heapq
import random
from fractions import Fraction
from itertools import combinations

import pytest

from bel import corpus, decomp, kernel
from bel.bei import binomial_edge_ideal
from bel.decomp import groebner_verdict, minimal_primes, prime_component, symbolic_power
from bel.errors import SizeLimitError
from bel.fields import QQ, PrimeField
from bel.graphs import Graph, net_graph
from bel.ideals import Ideal
from bel.rings import Polynomial, RingContext

from conftest import connected_classes, oracle_buchberger, oracle_update_pairs

FP = PrimeField(32003)


def test_kernel_name_matches_selected_module():
    assert kernel.buchberger.__module__ == "bel.kernel"
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


def test_buchberger_idempotent():
    for gens, nvars in _edge_systems():
        gb = kernel.buchberger(gens, nvars)
        assert kernel.buchberger(gb, nvars) == gb


def _fresh_normal_form(f, basis, nvars):
    """The normal form with the basis packed and made monic on this call."""
    st, guards = kernel._layout(nvars)
    bp = [kernel._prep(kernel._monic(kernel._to_packed(g, st, guards))) for g in basis]
    return kernel._to_terms(kernel._reduce_full(kernel._to_packed(f, st, guards), bp, guards), st)


def _gb(G, field=QQ):
    I = binomial_edge_ideal(G, field)
    return kernel.buchberger([g.terms for g in I.gens], I.ring.nvars)


def test_normal_form_reducers_match_fresh():
    """A Basis lends normal_form its own packed reducers and any other
    basis is packed on the call; both give the remainder of a fresh
    packing, on alternating Basis, tuple and list bases, on a list basis
    and a tuple of lists mutated between calls, and on a basis whose
    elements are not monic."""
    R = RingContext.for_graph(4, QQ)
    a, b = _gb(Graph.path(4)), _gb(Graph.complete(4))
    assert isinstance(a, kernel.Basis) and a.nvars == R.nvars
    f = (R.x(1) * R.y(3) + R.x(1) * R.y(4) * R.y(2) + R.x(2) * R.y(4)).terms

    def check(basis):
        got = kernel.normal_form(f, basis, R.nvars)
        assert got == _fresh_normal_form(f, basis, R.nvars)
        return got

    # the probe tells the two bases apart, so a stale basis would show
    assert check(a) != check(b)
    for basis in (tuple(a), list(b), a, tuple(b), b, list(a)):
        check(basis)
    lst = list(a)
    check(lst)
    lst[:] = b
    check(lst)
    nested = tuple(list(g) for g in a)
    check(nested)
    for g in nested:
        g[:] = (R.y(4) * R.y(4) * R.y(4) * R.y(4) * R.y(4)).terms  # divides no term of f
    assert check(nested) == f
    with pytest.raises(AttributeError):
        a.reducers = ()
    # a Basis for 6 variables passed with 8 is packed afresh, so its
    # 6-entry exponent vectors fail to pack, as on a fresh packing
    R3 = RingContext.for_graph(3, QQ)
    gb = _gb(Graph.path(3))
    wide = tuple((m + (0, 0), c) for m, c in (R3.x(1) * R3.y(3)).terms)
    with pytest.raises(ValueError, match="length 6, expected 8"):
        _fresh_normal_form(wide, gb, 8)
    with pytest.raises(ValueError, match="length 6, expected 8"):
        kernel.normal_form(wide, gb, 8)
    # a foreign basis scaled by a unit is made monic when it is packed, so
    # its remainders equal those of the monic Basis
    for field, unit in ((QQ, QQ.from_int(3)), (FP, FP.from_int(-12345))):
        Rf = RingContext.for_graph(4, field)
        probes = (Rf.x(1) * Rf.y(3) + Rf.x(1) * Rf.y(4) * Rf.y(2) + Rf.x(2) * Rf.y(4),
                  Rf.x(1) * Rf.x(1) * Rf.y(2) * Rf.y(4) - Rf.constant(7) * Rf.x(3) * Rf.y(1) * Rf.y(4))
        for G in (Graph.path(4), Graph.complete(4), Graph.cycle(4)):
            monic = _gb(G, field)
            scaled = [[(m, unit * c) for m, c in g] for g in monic]
            for p in probes:
                want = kernel.normal_form(p.terms, monic, Rf.nvars)
                assert want and want != p.terms
                assert all(type(c) is type(unit) for _, c in want)
                assert kernel.normal_form(p.terms, scaled, Rf.nvars) == want
                assert _fresh_normal_form(p.terms, scaled, Rf.nvars) == want


def test_negative_exponent_rejected():
    """A negative exponent would pack with its guard bit set."""
    R = RingContext(("x", "y"))
    with pytest.raises(ValueError, match="negative exponent"):
        Ideal(R, [Polynomial(R, (((-1, 0), QQ.one),))]).groebner()
    with pytest.raises(ValueError, match="negative exponent"):
        kernel.buchberger([[((-1, 0), 1), ((0, 1), 1)]], 2)
    with pytest.raises(ValueError, match="negative exponent"):
        kernel.normal_form([((0, 1), 1)], [[((1, -32768), 1)]], 2)


def test_normal_form_membership():
    for gens, nvars in _edge_systems():
        gb = kernel.buchberger(gens, nvars)
        # generators reduce to zero; a fresh variable monomial does not
        for g in gens:
            assert kernel.normal_form(g, gb, nvars) == ()
        stray = [((2,) + (0,) * (nvars - 1), QQ.from_int(1))]
        # x1^2 is never in a binomial edge ideal
        assert kernel.normal_form(stray, gb, nvars) != ()


def test_principal_ideal():
    R = RingContext.for_graph(2, QQ)
    f = R.x(1) * R.y(2) - R.x(2) * R.y(1)
    (gb_elem,) = kernel.buchberger([(f * R.constant(QQ.from_int(3))).terms], R.nvars)
    assert R.from_terms(gb_elem) == f


def test_monomial_ideal_minimalization():
    R = RingContext.for_graph(2, QQ)
    x1, x2 = R.x(1), R.x(2)
    gens = [(x1 * x2).terms, (x1 * x1 * x2).terms, (x2 * x2).terms]
    gb = kernel.buchberger(gens, R.nvars)
    got = {R.from_terms(t) for t in gb}
    assert got == {x1 * x2, x2 * x2}


def test_reduced_basis_property():
    """No term of any basis element is divisible by the leading monomial
    of another element, and every element is monic."""
    for gens, nvars in _edge_systems():
        gb = kernel.buchberger(gens, nvars)
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
    x1, x2, y2 = R.x(1), R.x(2), R.y(2)

    def y1(e):
        return R.from_terms([((0, 0, e, 0), QQ.one)])

    with pytest.raises(SizeLimitError):
        kernel.normal_form(y1(70000).terms, [x2.terms], R.nvars)
    with pytest.raises(SizeLimitError):
        kernel.normal_form((x1 * y1(20000)).terms, [(x1 - y1(20000)).terms], R.nvars)
    # the s-polynomial of these two carries y1^20000 * y1^20000
    with pytest.raises(SizeLimitError):
        kernel.buchberger([(x1 * x2 - y1(20000)).terms, (x1 * y1(20000) - y2).terms], R.nvars)
    top = y1(2 ** 15 - 1)
    assert kernel.normal_form((x1 * y1(16383)).terms, [(x1 - y1(16384)).terms], R.nvars) == top.terms
    assert kernel.buchberger([(top - y2).terms], R.nvars) == ((top - y2).terms,)


def test_pure_python_wrong_length_exponents():
    """An exponent vector that does not fit the ring's layout is a
    ValueError, not the SizeLimitError of an exponent above the limit."""
    R = RingContext.for_graph(2, QQ)
    f, g = (R.x(1) * R.y(2)).terms, (R.x(1) - R.y(1)).terms
    with pytest.raises(ValueError, match="length 4, expected 6") as exc:
        kernel.normal_form(f, [g], 6)
    assert not isinstance(exc.value, SizeLimitError)


def test_non_integer_exponent_is_not_a_size_error():
    """A non-integer or negative exponent handed to the kernel is a
    ValueError; only an exponent above the limit is a SizeLimitError."""
    with pytest.raises(ValueError, match="non-integer") as exc:
        kernel.buchberger([[((Fraction(1), 0), 1)]], 2)
    assert not isinstance(exc.value, SizeLimitError)
    with pytest.raises(ValueError, match="negative") as exc:
        kernel.buchberger([[((-40000, 0), 1)]], 2)  # too wide for a field, yet not too large
    assert not isinstance(exc.value, SizeLimitError)
    with pytest.raises(SizeLimitError):
        kernel.buchberger([[((40000, 0), 1)]], 2)


def test_monic_keeps_a_monic_input_without_dividing():
    class NoDivFraction(Fraction):
        def __truediv__(self, other):
            raise AssertionError("divided a monic polynomial")

    class NoDivFp(type(FP.one)):
        def __truediv__(self, other):
            raise AssertionError("divided a monic polynomial")

    for one, two in ((NoDivFraction(1), NoDivFraction(2)), (NoDivFp(1, FP.p), NoDivFp(2, FP.p))):
        g = [(5, one), (3, two)]
        assert kernel._monic(g) is g


# k[x, y, z, w] with x > y > z > w; the exponent vectors of its variables
_X, _Y, _Z, _W = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))


def _m(*factors):
    """The product of monomials given as exponent vectors."""
    return tuple(map(sum, zip(*factors, (0, 0, 0, 0))))


# QQ systems whose leading coefficients are 1, -1, 2, -3 and 1/3, with
# non-integral coefficients met on the way and in the reduced bases
_COEFF_SYSTEMS = (
    [[(_X, Fraction(2)), (_Y, Fraction(1))]],  # 2x + y: x + y/2, never y * 0.5
    [[(_X, Fraction(1, 3)), (_Y, Fraction(1))],  # x/3 + y
     [(_m(_Y, _Z), Fraction(2)), (_W, Fraction(-1))],  # 2yz - w
     [(_m(_Z, _Z), Fraction(-3)), (_W, Fraction(1))],  # -3z^2 + w
     [(_m(_X, _W), Fraction(-1)), (_Z, Fraction(1))]],  # -xw + z
    [[(_m(_X, _X), Fraction(1)), (_Y, Fraction(-2))],  # x^2 - 2y
     [(_m(_X, _Y), Fraction(-3)), (_m(_Z, _W), Fraction(1)), (_m(), Fraction(1, 2))],
     [(_Z, Fraction(2)), (_m(_Y, _W), Fraction(1))]],  # 2z + yw
)
# probes for normal_form with integral and non-integral coefficients; only
# the second system's basis reduces the last one
_COEFF_PROBES = (
    [(_m(_X, _X, _Y), Fraction(1)), (_m(_Z, _W), Fraction(3, 2)), (_Y, Fraction(-1))],
    [(_m(_X, _Z, _W), Fraction(-2)), (_m(_Y, _Y, _Z), Fraction(5)), (_W, Fraction(1))],
    [(_m(_W, _W, _W, _W), Fraction(-3))],
)


def _in_field(poly, field):
    """A QQ polynomial's image in field (QQ or a prime field)."""
    return [(m, c if field is QQ else field.from_rational(c)) for m, c in poly]


def _sub(f, g):
    """f - g as a term list, zero terms dropped."""
    acc = dict(f)
    for m, c in g:
        acc[m] = acc.get(m, 0) - c
    return [(m, c) for m, c in acc.items() if c]


def _divides(a, b):
    return all(x <= y for x, y in zip(a, b))


@pytest.mark.parametrize("field", [QQ, FP], ids=["QQ", "Fp"])
def test_every_entry_point_returns_field_coefficients(field):
    """buchberger, normal_form against a Basis and against a foreign basis
    with leading coefficients 1, -1, 2 and -3, interreduce and eliminated
    return the textbook oracle's polynomials, each coefficient of the
    field's own type (Fraction or FpElement): never an int, although the
    kernel computes over QQ on plain integers, and never a float, which an
    int divided by an int would give.  Over the prime field the oracle's
    rational basis is mapped term by term; 32003 divides no coefficient."""
    kind = type(field.one)

    def typed(polys):
        assert all(type(c) is kind for g in polys for _, c in g)
        return [list(g) for g in polys]

    for system in _COEFF_SYSTEMS:
        want = oracle_buchberger(system)
        gens = [_in_field(g, field) for g in system]
        gb = kernel.buchberger(gens, 4)
        assert typed(gb) == [_in_field(g, field) for g in want]
        # the elimination ideal of x is spanned by the oracle's x-free elements
        free = [[(m[1:], c) for m, c in g] for g in want if all(m[0] == 0 for m, _ in g)]
        assert typed(kernel.eliminated(gb, 1)) == [_in_field(g, field) for g in free]
        swept = kernel.interreduce(gens, 4)
        assert typed(swept) and kernel.buchberger(swept, 4) == gb
        units = [field.from_int(u) for u in (1, -1, 2, -3)]
        foreign = [[(m, units[i % 4] * c) for m, c in g] for i, g in enumerate(gb)]
        lms = [g[0][0] for g in want]
        for probe in _COEFF_PROBES:
            f = _in_field(probe, field)
            nf = kernel.normal_form(f, gb, 4)
            assert typed([nf]) == typed([kernel.normal_form(f, foreign, 4)])
            # no term of the remainder is divisible by a leading monomial
            assert not any(_divides(lm, m) for m, _ in nf for lm in lms)
            if field is QQ:  # and f - nf lies in the ideal
                assert oracle_buchberger(want + [_sub(f, nf)]) == want
            else:
                qq = kernel.normal_form(probe, kernel.buchberger(system, 4), 4)
                assert list(nf) == _in_field(qq, field)


def test_skipped_final_sweep_keeps_the_reduced_basis():
    """{xy - z, xy - w}: no S-polynomial joins the first sweep [xy - z,
    z - w], yet z divides a term of the earlier element, because the sweep
    lowered the leading monomial of the second; the reduced basis is
    [xy - w, z - w], as the textbook oracle finds."""
    gens = [[(_m(_X, _Y), Fraction(1)), (_Z, Fraction(-1))],
            [(_m(_X, _Y), Fraction(1)), (_W, Fraction(-1))]]
    stats = {}
    gb = kernel.buchberger(gens, 4, stats)
    assert stats["reduced"] == 0 and stats["basis_peak"] == 2
    assert [list(g) for g in gb] == oracle_buchberger(gens)
    assert gb == ((((1, 1, 0, 0), 1), ((0, 0, 0, 1), -1)), (((0, 0, 1, 0), 1), ((0, 0, 0, 1), -1)))


# sha256 of every kernel.buchberger output, its coefficients' type names
# included, and the number of calls, over the corpus of
# test_kernel_output_digest
_KERNEL_DIGEST = ("a261474c838fbcf0ce881e529cb03f2b3348c1020baa752741b8b8ef1173823f", 40)
# the same over the reduced bases of test_prime_component_digest
_PRIME_DIGEST = ("d361193b2456e188cdb98cb7cf23e5b1f7e3101f1dfad0e4300d6ea26c5cee33", 32)
# K_{2,3} with parts {3, 4} and {1, 2, 5}
K23_34 = Graph.from_edges(5, [(1, 3), (1, 4), (2, 3), (2, 4), (3, 5), (4, 5)])


def _record_buchberger(monkeypatch):
    """Hash every kernel.buchberger output from now on; the returned
    function gives (hex digest, number of calls) so far."""
    digest, calls = hashlib.sha256(), []
    real = kernel.buchberger

    def record(gens, nvars, stats=None):
        out = real(gens, nvars, stats)
        calls.append(nvars)
        digest.update(repr((nvars, [[(m, type(c).__name__, str(c)) for m, c in g]
                                    for g in out])).encode())
        return out

    monkeypatch.setattr(kernel, "buchberger", record)
    return lambda: (digest.hexdigest(), len(calls))


def test_kernel_output_digest(monkeypatch):
    """Every kernel.buchberger output met while computing J_G and J_G^2 of
    each connected graph with n <= 4, over QQ and F_32003, and folding
    K23_34's t=2 symbolic square, hashes to the pinned digest: the same
    polynomials, the same coefficient values and the same coefficient
    types.  K23_34's minimal primes are found before recording and
    handed to the fold freshly built, so the digest does not depend on how
    minimal_primes finds them."""
    primes = [prime_component(K23_34, pc.U) for pc in minimal_primes(K23_34)]
    monkeypatch.setattr(decomp, "minimal_primes", lambda *args, **kwargs: primes)
    recorded = _record_buchberger(monkeypatch)
    # the first labelled graph of each class, as when the digest was
    # pinned: the bases depend on the labelling, and graphs_upto labels
    # half of these classes differently
    graphs = [G for n in range(1, 5) for G in corpus.transversal(corpus.connected_graphs(n))]
    for field in (QQ, FP):
        for G in graphs:
            J = binomial_edge_ideal(G, field)
            J.groebner()
            J.power(2).groebner()
    symbolic_power(K23_34, 2).groebner()
    assert recorded() == _KERNEL_DIGEST


def test_prime_component_digest(monkeypatch):
    """The reduced bases of a freshly built prime_component(K23_34, U), for
    every U by size and then lexicographically, hash to the pinned digest,
    one kernel.buchberger call each."""
    recorded = _record_buchberger(monkeypatch)
    for r in range(K23_34.n + 1):
        for U in combinations(sorted(K23_34.vertices), r):
            prime_component(K23_34, U).ideal.groebner()
    assert recorded() == _PRIME_DIGEST


def test_kernel_output_is_canonical(monkeypatch):
    """Every polynomial the kernel returns is already in the shape of
    Polynomial.terms, so from_terms leaves it as it is: checked on each
    buchberger, normal_form and interreduce output met while computing
    J_G, J_G^2 and the t=2 symbolic power, and comparing the two powers,
    for every connected graph with n <= 4 and for the net."""
    outputs = {"buchberger": [], "normal_form": [], "interreduce": []}

    def record(name):
        fn = getattr(kernel, name)

        def wrapper(*args):
            out = fn(*args)
            # nvars is the last argument of each entry point
            outputs[name].append((args[-1], (out,) if name == "normal_form" else out))
            return out
        return wrapper

    for name in outputs:
        monkeypatch.setattr(kernel, name, record(name))
    for G in connected_classes(4) + [net_graph()]:
        binomial_edge_ideal(G).groebner()
        groebner_verdict(G, 2)
    for name, calls in outputs.items():
        assert calls, name
        for nvars, polys in calls:
            R = RingContext(tuple(f"v{i}" for i in range(nvars)))
            for t in polys:
                assert type(t) is tuple and R.from_terms(t).terms == t, name
    assert any(polys[0] for _, polys in outputs["normal_form"])


def _fold_system(G, t):
    """The w-extended (gens, nvars) that intersecting the two P_U^t of G
    with the fewest generators hands the kernel.  That is the first step
    of G's t-th symbolic-power fold when both primes have the top
    dimension, as on the net, where every minimal prime has dimension 7."""
    primes = minimal_primes(G, method="cutpoint")
    powers = sorted((pc.ideal.power(t) for pc in primes), key=lambda I: len(I.gens))
    captured = []
    real = kernel.buchberger
    kernel.buchberger = lambda gens, nvars: captured.append((gens, nvars)) or kernel.Basis((), nvars, ())
    try:
        powers[0].intersect(powers[1])
    finally:
        kernel.buchberger = real
    return captured[0]


def test_eliminated_basis_is_the_kernels(monkeypatch):
    """On every elimination step of K23_34's and the net's t=2
    symbolic-power folds, the basis Ideal.eliminate hands on, reducers and
    nvars included, equals kernel.buchberger recomputed on its polynomials
    in the smaller ring, and the result's groebner() runs no Buchberger."""
    steps = []
    real = Ideal.eliminate

    def record(self, k):
        out = real(self, k)
        steps.append(out)
        return out

    monkeypatch.setattr(Ideal, "eliminate", record)
    for G in (K23_34, net_graph()):
        symbolic_power(G, 2)
    assert len(steps) == 2 + 6
    monkeypatch.undo()
    for E in steps:
        basis = E._basis
        want = kernel.buchberger(list(basis), E.ring.nvars)
        assert isinstance(basis, kernel.Basis) and basis.nvars == want.nvars == E.ring.nvars
        assert basis == want and basis.reducers == want.reducers
        monkeypatch.setattr(kernel, "buchberger", None)
        assert [g.terms for g in E.groebner()] == list(want)
        monkeypatch.undo()
    # a basis with no element free of the block, and one with every element
    R = RingContext(("w", "a", "b"))
    w, a, b = (R.var(i) for i in range(3))
    for gens, kept in (([w - a, a * b], 1), ([w - a], 0), ([a - b, b * b], 2)):
        basis = kernel.buchberger([g.terms for g in gens], 3)
        got = kernel.eliminated(basis, 1)
        assert (got.nvars, len(got)) == (2, kept)
        assert got == kernel.buchberger(list(got), 2) and got.reducers == basis.reducers[len(basis) - kept:]


def test_buchberger_matches_textbook_oracle():
    """The kernel's reduced basis equals the textbook Buchberger's on J_G
    for every connected graph with n <= 4, on J_{P_4}^2, and on three
    non-homogeneous intersection systems."""
    systems = []
    for G in connected_classes(4):
        I = binomial_edge_ideal(G)
        systems.append(([g.terms for g in I.gens], I.ring.nvars))
    I = binomial_edge_ideal(Graph.path(4)).power(2)
    systems.append(([g.terms for g in I.gens], I.ring.nvars))
    systems.append(_fold_system(Graph.from_edges(3, [(1, 2), (1, 3)]), 2))
    systems.append(_fold_system(Graph.star(3), 1))
    systems.append(_fold_system(Graph.path(4), 1))
    for gens, nvars in systems:
        got = [[(m, Fraction(c.numerator, c.denominator)) for m, c in g]
               for g in kernel.buchberger(gens, nvars)]
        assert got == oracle_buchberger(gens)


def test_buchberger_stats_consistent():
    """Every pair formed is pruned by one rule or reduced, every reduction
    gives zero or a new basis element, the counters change no output, and
    one dict passed to several calls totals them."""
    systems = [_fold_system(net_graph(), 2), _fold_system(Graph.from_edges(3, [(1, 2), (1, 3)]), 2)]
    each, total = [], {}
    for gens, nvars in systems:
        stats = {}
        gb = kernel.buchberger(gens, nvars, stats)
        assert gb == kernel.buchberger(gens, nvars)
        peak = stats["basis_peak"]
        assert stats["pairs"] == peak * (peak - 1) // 2
        assert stats["pairs"] == (stats["pruned_bk"] + stats["pruned_m"]
                                  + stats["pruned_f"] + stats["reduced"])
        insertions = peak - len(kernel.interreduce(gens, nvars))
        assert stats["reduced"] == stats["zero"] + insertions
        assert insertions > 0 and peak >= len(gb)
        kernel.buchberger(gens, nvars, total)
        each.append(stats)
    assert total == {key: (max if key == "basis_peak" else sum)(s[key] for s in each)
                     for key in each[0]}
    assert all(total.values())


def _check_update(lms, sugars, heap, guards):
    """One _update_pairs step against the dict-based oracle; returns the heap."""
    j = len(lms) - 1
    expected = oracle_update_pairs(lms, sugars, {(a, b): s for s, _, a, b in heap}, j, guards)
    got = kernel._update_pairs(lms, sugars, list(heap), guards)
    assert sorted((a, b) for _, _, a, b in got) == sorted(expected)
    assert all(L == kernel._lcm(lms[a], lms[b], guards) for _, L, a, b in got)
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
    update = kernel._update_pairs

    def record(lms, sugars, pairs, guards, stats=None):
        states.append((list(lms), list(sugars), list(pairs), guards))
        return update(lms, sugars, pairs, guards, stats)

    kernel._update_pairs = record
    try:
        for gens, nvars in systems:
            kernel.buchberger(gens, nvars)
    finally:
        kernel._update_pairs = update
    assert len(states) > 100 and max(len(p) for _, _, p, _ in states) > 50
    for lms, sugars, heap, guards in states:
        _check_update(lms, sugars, heap, guards)

    for seed in range(20):
        rng = random.Random(seed)
        nvars = rng.randint(3, 6)
        st, guards = kernel._layout(nvars)
        lms, sugars, heap = [], [], []
        for _ in range(60):
            exps = [rng.randint(0, 4) for _ in range(nvars)]
            m = kernel._pack(exps, st, guards)
            if any(kernel._divides(lm, m, guards) for lm in lms):
                continue  # a new remainder's lm is divisible by no earlier one
            lms.append(m)
            sugars.append(sum(exps) + rng.randint(0, 3))
            heap = _check_update(lms, sugars, heap, guards)
            for _ in range(min(rng.randint(0, 2), len(heap))):
                heapq.heappop(heap)
