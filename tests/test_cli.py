import json
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest
from click.testing import CliRunner

import bel
from bel import cli, corpus
from bel.bei import gb_max_degree
from bel.decomp import minimal_primes
from bel.fields import QQ, RATIONAL_BACKEND
from bel.graphs import Graph, clique_join, complement, net_graph, to_text
from bel.recognizers import is_comparability
from bel.suite import CriterionResult


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def graph_file(tmp_path):
    def write(G, name="g.graph"):
        p = tmp_path / name
        p.write_text(to_text(G))
        return str(p)

    return write


def test_classify_text(runner, graph_file):
    res = runner.invoke(cli.main, ["classify", graph_file(Graph.path(3))])
    assert res.exit_code == 0
    assert "caterpillar: True" in res.output
    assert "closed: True" in res.output


def test_classify_json(runner, graph_file):
    res = runner.invoke(cli.main, ["classify", "--json", graph_file(net_graph())])
    assert res.exit_code == 0
    rep = json.loads(res.output)
    assert rep["command"] == "classify"
    assert rep["graph"]["n"] == 6
    assert rep["results"]["net_free"] is False
    assert rep["results"]["generalized_caterpillar"] is True
    assert rep["results"]["weakly_closed"] is False
    assert "seconds" in rep and "kernel" in rep
    assert rep["rational"] == RATIONAL_BACKEND == type(QQ.one).__module__ == "fractions"


CLASSIFY_KEYS = ("tree", "caterpillar", "generalized_caterpillar", "net_free", "closed",
                 "closed_labeling", "weakly_closed", "weakly_closed_labeling",
                 "comparability", "complement_comparability")


def _labels(*sigma):
    return {str(v): lab for v, lab in enumerate(sigma, start=1)}


CLASSIFY_PINNED = {
    "net": (net_graph(),
            (False, False, True, False, False, None, False, None, False, False)),
    "K8": (Graph.complete(8),
           (False, False, True, True, True, _labels(*range(1, 9)), True,
            _labels(*range(1, 9)), True, True)),
    "C4": (Graph.cycle(4),
           (False, False, False, True, False, None, True, _labels(1, 2, 3, 4), True, True)),
    "spider_222": (Graph.from_edges(7, [(1, 2), (2, 3), (1, 4), (4, 5), (1, 6), (6, 7)]),
                   (True, False, False, True, False, None, False, None, True, False)),
    "P4_two_K4": (clique_join(clique_join(Graph.path(4), (1, 2), 4), (3, 4), 4),
                  (False, False, True, True, True, _labels(1, 4, 5, 6, 2, 3, 7, 8), True,
                   _labels(1, 2, 5, 6, 3, 4, 7, 8), True, True)),
    "K13": (Graph.star(3),
            (True, True, True, True, False, None, True, _labels(1, 2, 3, 4), True, True)),
    # not co-comparability, so no weakly closed labeling is searched for
    "C5": (Graph.cycle(5),
           (False, False, False, True, False, None, False, None, False, False)),
    # the 3-sun: claw-free, so the closed search runs and fails
    "sun_3": (Graph.from_edges(6, [(1, 2), (1, 3), (2, 3), (1, 4), (2, 4), (2, 5), (3, 5),
                                   (1, 6), (3, 6)]),
              (False, False, False, True, False, None, False, None, False, False)),
}


@pytest.mark.parametrize("name", sorted(CLASSIFY_PINNED))
def test_classify_results_pinned(runner, graph_file, name):
    """The full ``results`` of ``bel classify --json``, keys in order."""
    G, values = CLASSIFY_PINNED[name]
    res = runner.invoke(cli.main, ["classify", "--json", graph_file(G)])
    assert res.exit_code == 0
    assert list(json.loads(res.output)["results"].items()) == list(zip(CLASSIFY_KEYS, values))


def test_classify_complement_comparability(runner, graph_file):
    """``complement_comparability`` is read off the weakly closed search;
    on every class with n <= 6 it equals the comparability test run on the
    complement."""
    graphs = corpus.graphs_upto(6)
    assert len(graphs) == 208
    for G in graphs:
        res = runner.invoke(cli.main, ["classify", "--json", graph_file(G)])
        assert res.exit_code == 0
        got = json.loads(res.output)["results"]["complement_comparability"]
        assert got == is_comparability(complement(G)), sorted(G.edges)


@pytest.mark.parametrize("field", ["q", "fp:32003"])
def test_gb_max_degree_read_off_basis(runner, graph_file, field):
    """``max_degree`` of ``bel gb`` is the basis's largest total degree,
    which ``gb_max_degree`` reads off the admissible paths."""
    for G in (Graph.star(3), Graph.path(4), Graph.complete(4), net_graph(), Graph.empty(3)):
        res = runner.invoke(cli.main, ["gb", "--json", "--field", field, graph_file(G)])
        assert res.exit_code == 0
        assert json.loads(res.output)["results"]["max_degree"] == gb_max_degree(G)


def test_gb_with_check(runner, graph_file):
    res = runner.invoke(
        cli.main, ["gb", "--check-buchberger", "--json", graph_file(Graph.star(3))]
    )
    assert res.exit_code == 0
    rep = json.loads(res.output)
    assert rep["results"]["size"] == 6
    assert rep["results"]["buchberger_agrees"] is True
    assert rep["field"] == "QQ"


def test_gb_prime_field(runner, graph_file):
    res = runner.invoke(
        cli.main, ["gb", "--field", "fp:32003", "--json", graph_file(Graph.path(3))]
    )
    assert res.exit_code == 0
    assert json.loads(res.output)["field"] == "Fp(32003)"


def test_primes_json(runner, graph_file):
    res = runner.invoke(cli.main, ["primes", "--json", graph_file(Graph.path(3))])
    assert res.exit_code == 0
    rep = json.loads(res.output)
    assert rep["results"]["count"] == 2
    assert [c["U"] for c in rep["results"]["components"]] == [[], [2]]


def test_powers_equal(runner, graph_file):
    res = runner.invoke(cli.main, ["powers", "--t", "2", graph_file(Graph.path(3))])
    assert res.exit_code == 0
    assert "True" in res.output


def test_powers_unequal_exit_code(runner, graph_file):
    res = runner.invoke(cli.main, ["powers", "--t", "2", "--json", graph_file(net_graph())])
    assert res.exit_code == 1
    rep = json.loads(res.output)
    assert rep["results"]["equal"] is False
    assert rep["results"]["witness"]


def test_powers_certificate(runner, graph_file):
    """The powers report names the theorem, the initial containment or the
    Groebner route that decided it, beside the unchanged keys, in JSON and
    in text."""
    K23 = Graph.from_edges(5, [(1, 4), (1, 5), (2, 4), (2, 5), (3, 4), (3, 5)])
    for G, cert, code in [(Graph.path(3), "ass_two", 0), (Graph.path(4), "caterpillar", 0),
                          (K23, "initial_containment", 0), (net_graph(), "groebner", 1)]:
        res = runner.invoke(cli.main, ["powers", "--json", graph_file(G)])
        assert res.exit_code == code
        results = json.loads(res.output)["results"]
        assert list(results) == ["t", "equal", "witness", "certificate"]
        assert results["certificate"] == cert
        assert (results["t"], results["equal"]) == (2, code == 0)
    res = runner.invoke(cli.main, ["powers", graph_file(Graph.path(4))])
    assert res.output.splitlines()[-1] == "certificate: caterpillar"


def test_complex_cycles(runner, graph_file):
    res = runner.invoke(
        cli.main, ["complex", "--special-odd-cycles", "--json", graph_file(net_graph())]
    )
    assert res.exit_code == 0
    rep = json.loads(res.output)
    assert rep["results"]["special_odd_cycle"] is not None


def test_parse_error_exit_2(runner, tmp_path):
    bad = tmp_path / "bad.graph"
    bad.write_text("definitely not a graph\n")
    res = runner.invoke(cli.main, ["powers", str(bad)])
    assert res.exit_code == 2
    assert "error" in res.output


def test_bad_field_exit_2(runner, graph_file):
    res = runner.invoke(cli.main, ["gb", "--field", "gf:9", graph_file(Graph.path(3))])
    assert res.exit_code == 2


def test_bad_t_exit_2(runner, graph_file):
    res = runner.invoke(cli.main, ["powers", "--t", "0", graph_file(Graph.path(3))])
    assert res.exit_code == 2


def test_size_cap_exit_3(runner, graph_file):
    res = runner.invoke(cli.main, ["powers", graph_file(Graph.path(9))])
    assert res.exit_code == 3
    res = runner.invoke(cli.main, ["classify", graph_file(Graph.path(9))])
    assert res.exit_code == 3
    res = runner.invoke(cli.main, ["primes", graph_file(Graph.path(9))])
    assert res.exit_code == 3


def _json(command, results, graph, field=None):
    """A pinned ``--json`` report, keys in order, its ``seconds`` read as 0."""
    report = {"command": command, "kernel": "python", "rational": "fractions",
              "results": results, "seconds": 0, "graph": graph}
    if field is not None:
        report["field"] = field
    return json.dumps(report, indent=2) + "\n"


_P3 = {"n": 3, "edges": [[1, 2], [2, 3]]}
_NET = {"n": 6, "edges": [[1, 2], [1, 3], [1, 4], [2, 3], [2, 5], [3, 6]]}
_NET_WITNESS = ("x1*x4*x5*y2*y3*y6 - x1*x4*x6*y2*y3*y5 - x2*x4*x5*y1*y3*y6"
                " + x2*x5*x6*y1*y3*y4 + x3*x4*x6*y1*y2*y5 - x3*x5*x6*y1*y2*y4")
_NET_FACETS = [["x1", "y2"], ["x1", "y3"], ["x1", "y4"], ["x2", "y1", "y4"], ["x2", "y3"],
               ["x2", "y5"], ["x3", "y1", "y4"], ["x3", "y2", "y5"], ["x3", "y6"],
               ["x4", "y1", "y2", "y5"], ["x4", "y1", "y3", "y6"], ["x5", "y2", "y3", "y6"]]
_NET_CYCLE = {"vertices": ["x1", "y2", "x3", "y1", "y3"],
              "facets": [["x1", "y2"], ["x3", "y2", "y5"], ["x3", "y1", "y4"],
                         ["x4", "y1", "y3", "y6"], ["x1", "y3"]]}
_CAP_8 = "error: minimal-prime enumeration capped at n=8 (2^n subsets)\n"

# (arguments before GRAPH_FILE, graph, exit code, stdout with seconds read as 0, stderr)
REPORTS_PINNED = [
    (["classify"], Graph.path(3), 0, "\n".join([
        "tree: True", "caterpillar: True", "generalized_caterpillar: True", "net_free: True",
        "closed: True", "closed_labeling: {1: 1, 2: 2, 3: 3}", "weakly_closed: True",
        "weakly_closed_labeling: {1: 1, 2: 2, 3: 3}", "comparability: True",
        "complement_comparability: True", ""]), ""),
    (["classify", "--json"], Graph.path(3), 0, _json("classify", {
        "tree": True, "caterpillar": True, "generalized_caterpillar": True, "net_free": True,
        "closed": True, "closed_labeling": {"1": 1, "2": 2, "3": 3}, "weakly_closed": True,
        "weakly_closed_labeling": {"1": 1, "2": 2, "3": 3}, "comparability": True,
        "complement_comparability": True}, _P3), ""),
    (["gb", "--check-buchberger"], Graph.star(3), 0, "\n".join([
        "basis (6 elements, max degree 3):", "  x1*y2 - x2*y1", "  x1*y3 - x3*y1",
        "  x1*y4 - x4*y1", "  x2*y1*y3 - x3*y1*y2", "  x2*y1*y4 - x4*y1*y2",
        "  x3*y1*y4 - x4*y1*y3", "buchberger_agrees: True", ""]), ""),
    (["gb", "--field", "fp:7", "--json"], Graph.path(3), 0, _json("gb", {
        "basis": ["x1*y2 + 6*x2*y1", "x2*y3 + 6*x3*y2"], "size": 2, "max_degree": 2},
        _P3, "Fp(7)"), ""),
    (["primes"], Graph.star(3), 0,
     "2 minimal primes:\n  U=[] components=[[1, 2, 3, 4]]\n"
     "  U=[1] components=[[2], [3], [4]]\n", ""),
    (["primes", "--json"], Graph.path(3), 0, _json("primes", {"count": 2, "components": [
        {"U": [], "induced_components": [[1, 2, 3]]},
        {"U": [2], "induced_components": [[1], [3]]}]}, _P3, "QQ"), ""),
    (["complex", "--special-odd-cycles"], net_graph(), 0, "\n".join(
        ["12 facets:"] + [f"  {f}" for f in _NET_FACETS]
        + [f"special odd cycle: {_NET_CYCLE}", ""]), ""),
    (["complex", "--special-odd-cycles", "--json"], net_graph(), 0, _json("complex", {
        "facets": _NET_FACETS, "special_odd_cycle": _NET_CYCLE}, _NET), ""),
    (["powers"], Graph.path(3), 0,
     "t=2: ordinary == symbolic: True\ncertificate: ass_two\n", ""),
    (["powers"], net_graph(), 1, "t=2: ordinary == symbolic: False\n"
     f"witness (symbolic, not ordinary): {_NET_WITNESS}\ncertificate: groebner\n", ""),
    (["powers", "--json"], net_graph(), 1, _json("powers", {
        "t": 2, "equal": False, "witness": _NET_WITNESS, "certificate": "groebner"},
        _NET, "QQ"), ""),
    (["powers"], None, 2, "", "error: line 1: expected 'u v', got 'definitely not a graph'\n"),
    (["powers"], "missing.graph", 2, "",
     "error: cannot read missing.graph: No such file or directory\n"),
    (["gb", "--field", "gf:9"], Graph.path(3), 2, "",
     "error: unknown field spec 'gf:9' (expected 'q' or 'fp:<p>')\n"),
    (["powers", "--t", "0"], Graph.path(3), 2, "", "error: --t must be >= 1\n"),
    (["powers"], Graph.path(9), 3, "", _CAP_8),
    (["primes", "--json"], Graph.path(9), 3, "", _CAP_8),
]


def test_reports_pinned(runner, graph_file, tmp_path, monkeypatch):
    """Exact stdout (a ``--json`` report with its ``seconds`` read as 0),
    stderr and exit code of every command, on answers and on each error
    path; graph None stands for a malformed file, and a string for a file
    name that does not exist."""
    bad = tmp_path / "bad.graph"
    bad.write_text("definitely not a graph\n")
    monkeypatch.chdir(tmp_path)
    for args, G, code, stdout, stderr in REPORTS_PINNED:
        path = str(bad) if G is None else G if isinstance(G, str) else graph_file(G)
        res = runner.invoke(cli.main, [*args, path])
        out, timed = re.subn(r'(?<=\n  "seconds": )[0-9.]+(?=,\n)', "0", res.stdout)
        assert timed == (code < 2 and "--json" in args), args
        assert (res.exit_code, out, res.stderr) == (code, stdout, stderr), args


def test_max_n(runner, graph_file):
    """``--max-n`` moves the 2^n cap of ``primes`` and ``powers``: below
    the graph's n it exits 3, at it both commands answer."""
    res = runner.invoke(cli.main, ["primes", "--max-n", "3", graph_file(Graph.path(4))])
    assert res.exit_code == 3
    assert res.stderr == "error: minimal-prime enumeration capped at n=3 (2^n subsets)\n"
    P9 = graph_file(Graph.path(9))
    res = runner.invoke(cli.main, ["primes", "--max-n", "9", "--json", P9])
    assert res.exit_code == 0
    count = len(minimal_primes(Graph.path(9), cap=9, method="cutpoint"))
    assert json.loads(res.stdout)["results"]["count"] == count == 34
    res = runner.invoke(cli.main, ["powers", "--max-n", "9", "--json", P9])
    assert res.exit_code == 0
    assert json.loads(res.stdout)["results"]["certificate"] == "caterpillar"


def test_suite_command_exit_codes(runner, monkeypatch):
    def fake_suite(quick=False):
        return [CriterionResult(1, "stub", True, 0.1, "ok")]

    monkeypatch.setattr(cli, "run_suite", fake_suite)
    res = runner.invoke(cli.main, ["suite", "--json"])
    assert res.exit_code == 0
    rep = json.loads(res.output)
    assert rep["results"][0]["status"] == "PASS"

    def failing_suite(quick=False):
        return [CriterionResult(1, "stub", False, 0.1, "broken")]

    monkeypatch.setattr(cli, "run_suite", failing_suite)
    res = runner.invoke(cli.main, ["suite"])
    assert res.exit_code == 1
    assert "[FAIL]" in res.output


def test_runs_without_networkx(graph_file):
    """networkx is a dev dependency only: importing bel does not load it,
    and with every import of it made to fail (a None entry in
    sys.modules), the CLI, the generalized-caterpillar recognizer and
    suite criterion 8 still run. Every graph command answers; ``powers``
    exits 1, the net's powers being unequal."""
    script = textwrap.dedent("""
        import contextlib, io, json, sys
        import bel, bel.cli
        assert "networkx" not in sys.modules, "import bel loaded networkx"
        sys.modules["networkx"] = None
        from bel import suite
        from bel.graphs import net_graph
        from bel.recognizers import is_generalized_caterpillar
        for command in ("classify", "gb", "primes", "powers", "complex"):
            out = io.StringIO()
            try:
                with contextlib.redirect_stdout(out):
                    bel.cli.main([command, "--json", sys.argv[1]])
            except SystemExit as exc:
                assert exc.code == (1 if command == "powers" else 0), (command, exc.code)
            assert json.loads(out.getvalue())["command"] == command
        w = is_generalized_caterpillar(net_graph())
        assert w is not None and w.replay() == net_graph()
        r = suite.run_criterion(8)
        assert r.passed, r.detail
    """)
    src = str(Path(bel.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    res = subprocess.run([sys.executable, "-c", script, graph_file(net_graph())],
                         capture_output=True, text=True, env=env, timeout=120)
    assert res.returncode == 0, res.stderr
