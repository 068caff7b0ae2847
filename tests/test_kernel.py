"""Kernel-level tests: both implementations (compiled and pure Python)
must produce bit-identical canonical bases.

The compiled kernel is built once per session by the project's own build
(``setup.py build_ext``) on a copy of the sources in a temporary directory,
so the checkout stays untouched and an unbuilt source tree still runs the
pure-Python kernel.
"""

import heapq
import importlib.machinery
import importlib.util
import json
import os
import random
import re
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

import pytest

from bel import _kernel_py, kernel
from bel.bei import binomial_edge_ideal
from bel.decomp import minimal_primes
from bel.errors import SizeLimitError
from bel.fields import QQ
from bel.graphs import Graph, net_graph
from bel.rings import RingContext

from conftest import oracle_update_pairs


ROOT = Path(__file__).resolve().parents[1]
BEL_SRC = ROOT / "src" / "bel"


def _can_compile():
    cc = os.environ.get("CC") or sysconfig.get_config_var("CC") or "cc"
    headers = Path(sysconfig.get_paths()["include"], "Python.h")
    return shutil.which(cc.split()[0]) is not None and headers.exists()


needs_compiler = pytest.mark.skipif(
    not _can_compile(), reason="no C compiler or Python.h to build bel._kernel_c"
)


@pytest.fixture(scope="session")
def build(tmp_path_factory):
    """Run ``setup.py build_ext`` on a copy of setup.py, pyproject.toml and
    src/.  Returns the built bel._kernel_c module (None when the build made
    none) and the build log."""
    root = tmp_path_factory.mktemp("build")
    for name in ("setup.py", "pyproject.toml"):
        shutil.copy(ROOT / name, root)
    shutil.copytree(ROOT / "src", root / "src")
    proc = subprocess.run(
        [sys.executable, "setup.py", "build_ext",
         "--build-lib", "lib", "--build-temp", "tmp"],
        cwd=root, capture_output=True, text=True, timeout=600,
    )
    log = proc.stdout + proc.stderr
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = root / "lib" / "bel" / f"_kernel_c{suffix}"
        if path.exists():
            spec = importlib.util.spec_from_file_location("bel._kernel_c", path)
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            return module, log
    return None, log


@pytest.fixture(scope="session")
def compiled(build):
    module, log = build
    assert module is not None, f"setup.py build_ext built no bel._kernel_c:\n{log}"
    return module


@pytest.fixture(params=["python", pytest.param("cython", marks=needs_compiler)])
def impl(request):
    if request.param == "python":
        return _kernel_py
    return request.getfixturevalue("compiled")


def test_kernel_name_matches_selected_module():
    expected = {"bel._kernel_py": "python", "bel._kernel_c": "cython"}
    assert kernel.KERNEL_NAME == expected[kernel.buchberger.__module__]


@needs_compiler
def test_compiled_kernel_available(build):
    # the build compiles the extension; if it silently builds nothing the
    # installed package degrades to the pure-Python kernel, which this test
    # is meant to catch
    module, log = build
    assert module is not None, f"setup.py build_ext built no bel._kernel_c:\n{log}"
    assert module.KERNEL_NAME == "cython"
    for gens, nvars in _edge_systems():
        assert module.buchberger(gens, nvars) == _kernel_py.buchberger(gens, nvars)


def test_generated_c_matches_pyx():
    """The committed _kernel_c.c was generated from the committed .pyx:
    every source block Cython quotes in the .c equals the matching .pyx
    lines, so an edit of the .pyx without regenerating the .c fails here."""
    pyx = (BEL_SRC / "_kernel_c.pyx").read_text().splitlines()
    c = (BEL_SRC / "_kernel_c.c").read_text()
    meta = re.search(r"/\* BEGIN: Cython Metadata\n(.*?)\nEND: Cython Metadata \*/", c, re.S)
    assert json.loads(meta.group(1))["distutils"]["sources"] == ["src/bel/_kernel_c.pyx"]
    marker = "             # <<<<<<<<<<<<<<"
    blocks = re.findall(r'/\* "bel/_kernel_c\.pyx":(\d+)\n((?: \*.*\n)*)\*/', c)
    assert blocks
    for lineno, body in blocks:
        # each quoted line is " * " + the source line; the marked line is
        # `lineno`, with up to two lines of context on either side
        quoted = [line[3:] for line in body.splitlines()]
        (k,) = [i for i, line in enumerate(quoted) if line.endswith(marker)]
        quoted[k] = quoted[k][: -len(marker)]
        first = int(lineno) - 1 - k
        assert first >= 0
        source = [line.rstrip() for line in pyx[first:first + len(quoted)]]
        assert [line.rstrip() for line in quoted] == source, (
            f"_kernel_c.c quotes stale source at _kernel_c.pyx:{lineno}"
        )


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


def _larger_systems(monkeypatch):
    """J_G for path(6), cycle(6), star(5), complete(5) and the net, the
    square of the net's ideal, and the w-extended system that the fourth
    step of the net's t=2 symbolic-power fold hands the kernel."""
    for G in (Graph.path(6), Graph.cycle(6), Graph.star(5), Graph.complete(5), net_graph()):
        I = binomial_edge_ideal(G)
        yield [g.terms for g in I.gens], I.ring.nvars
    I = binomial_edge_ideal(net_graph()).power(2)
    yield [g.terms for g in I.gens], I.ring.nvars
    primes = minimal_primes(net_graph(), method="cutpoint")
    powers = sorted((pc.ideal.power(2) for pc in primes), key=lambda I: len(I.gens))
    acc = powers[0]
    for J in powers[1:4]:
        acc = acc.intersect(J)
    captured = []
    with monkeypatch.context() as m:
        m.setattr(kernel, "buchberger", lambda gens, nvars: captured.append((gens, nvars)) or [])
        acc.intersect(powers[4])
    (system,) = captured
    yield system


@needs_compiler
def test_kernel_parity_buchberger(compiled, monkeypatch):
    for gens, nvars in [*_edge_systems(), *_larger_systems(monkeypatch)]:
        assert compiled.buchberger(gens, nvars) == _kernel_py.buchberger(gens, nvars)


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


@needs_compiler
def test_kernel_parity_normal_form_and_interreduce(compiled):
    # the compiled kernel does not read nvars, so the nvars case is not run
    # here; every other call order must give the pure-Python results
    for got, want in _memo_calls(compiled.normal_form):
        assert got == want
    for gens, nvars in _edge_systems():
        gb = _kernel_py.buchberger(gens, nvars)
        probe = gens[0]
        assert compiled.normal_form(probe, gb, nvars) == _kernel_py.normal_form(probe, gb, nvars)
        # x1^2 + gens[0] lies outside the ideal, so its remainder is non-zero
        outside = (((2,) + (0,) * (nvars - 1), QQ.from_int(1)),) + tuple(gens[0])
        remainder = _kernel_py.normal_form(outside, gb, nvars)
        assert remainder != []
        assert compiled.normal_form(outside, gb, nvars) == remainder
        assert compiled.interreduce(gens, nvars) == _kernel_py.interreduce(gens, nvars)


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


def _check_update(lms, heap, guards):
    """One _update_pairs step against the set-based oracle; returns the heap."""
    j = len(lms) - 1
    expected = oracle_update_pairs(lms, {(a, b) for _, a, b in heap}, j, guards)
    got = _kernel_py._update_pairs(lms, list(heap), guards)
    assert sorted((a, b) for _, a, b in got) == sorted(expected)
    assert all(L == _kernel_py._lcm(lms[a], lms[b], guards) for L, a, b in got)
    assert all(got[(k - 1) // 2] <= got[k] for k in range(1, len(got)))
    return got


def test_update_pairs_matches_oracle():
    """The (lcm, a, b) pair heap holds exactly the pairs of the set-based
    Gebauer-Moeller update, each with its own lcm, on the states met while
    computing the net's J^2 and on seeded random leading-monomial runs."""
    J2 = binomial_edge_ideal(net_graph()).power(2)
    nvars = J2.ring.nvars
    guards = _kernel_py._layout(nvars)[1]
    states = []
    update = _kernel_py._update_pairs

    def record(lms, pairs, guards):
        states.append((list(lms), list(pairs)))
        return update(lms, pairs, guards)

    _kernel_py._update_pairs = record
    try:
        _kernel_py.buchberger([g.terms for g in J2.gens], nvars)
    finally:
        _kernel_py._update_pairs = update
    assert len(states) > 100 and max(len(p) for _, p in states) > 50
    for lms, heap in states:
        _check_update(lms, heap, guards)

    for seed in range(20):
        rng = random.Random(seed)
        nvars = rng.randint(3, 6)
        st, guards = _kernel_py._layout(nvars)
        lms, heap = [], []
        for _ in range(60):
            m = _kernel_py._pack([rng.randint(0, 4) for _ in range(nvars)], st)
            if any(_kernel_py._divides(lm, m, guards) for lm in lms):
                continue  # a new remainder's lm is divisible by no earlier one
            lms.append(m)
            heap = _check_update(lms, heap, guards)
            for _ in range(min(rng.randint(0, 2), len(heap))):
                heapq.heappop(heap)
