"""Command-line interface.

Exit codes: 0 success, 1 verification failure (an equality/criterion
check came back negative), 2 usage or input-parse error, 3 size cap
exceeded.
"""

from __future__ import annotations

import json
import sys
import time

import click

from .bei import binomial_edge_ideal, groebner_combinatorial, initial_ideal
from .complexes import delta_of, find_special_odd_cycle
from .decomp import MINIMAL_PRIMES_CAP, equality_verdict, minimal_primes
from .errors import SizeLimitError
from .fields import RATIONAL_BACKEND, field_from_spec
from .graphs import Graph, GraphParseError, from_file
from .kernel import KERNEL_NAME
from .recognizers import (
    find_closed_labeling,
    find_weakly_closed_labeling,
    is_caterpillar,
    is_comparability,
    is_generalized_caterpillar,
    is_net_free,
    is_tree,
)
from .suite import run_suite

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_USAGE = 2
EXIT_SIZE = 3


def _load_graph(path: str) -> Graph:
    try:
        return from_file(path)
    except (GraphParseError, OSError, ValueError) as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(EXIT_USAGE)


def _field(spec: str):
    try:
        return field_from_spec(spec)
    except ValueError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(EXIT_USAGE)


def _emit(report: dict, as_json: bool, lines):
    if as_json:
        click.echo(json.dumps(report, indent=2, default=str))
    else:
        for line in lines:
            click.echo(line)


def _report(command: str, G: Graph | None, results: dict, t0: float, field=None) -> dict:
    rep = {
        "command": command,
        "kernel": KERNEL_NAME,
        "rational": RATIONAL_BACKEND,
        "results": results,
        "seconds": round(time.perf_counter() - t0, 3),
    }
    if G is not None:
        rep["graph"] = {"n": G.n, "edges": sorted(map(list, G.edges))}
    if field is not None:
        rep["field"] = repr(field)
    return rep


class _Main(click.Group):
    """The command group; a size cap hit in any command exits 3."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except SizeLimitError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(EXIT_SIZE)


@click.group(cls=_Main)
def main():
    """Exact binomial edge ideal toolkit: Groebner bases, prime
    decompositions, symbolic powers, and graph-class recognition."""


@main.command()
@click.argument("graph_file", type=click.Path(exists=True, dir_okay=False))
@click.option("--json", "as_json", is_flag=True, help="machine-readable output")
def classify(graph_file, as_json):
    """Run every graph-class recognizer on GRAPH_FILE."""
    t0 = time.perf_counter()
    G = _load_graph(graph_file)
    closed = find_closed_labeling(G)
    weak = find_weakly_closed_labeling(G)
    gencat = is_generalized_caterpillar(G)
    results = {
        "tree": is_tree(G),
        "caterpillar": is_caterpillar(G),
        "generalized_caterpillar": gencat is not None,
        "net_free": is_net_free(G),
        "closed": closed is not None,
        "closed_labeling": closed.as_dict() if closed else None,
        "weakly_closed": weak is not None,
        "weakly_closed_labeling": weak.as_dict() if weak else None,
        "comparability": is_comparability(G),
        # a weakly closed labeling exists iff the complement is comparability (Matsuda)
        "complement_comparability": weak is not None,
    }
    rep = _report("classify", G, results, t0)
    _emit(rep, as_json, [f"{k}: {v}" for k, v in results.items()])
    sys.exit(EXIT_OK)


@main.command()
@click.argument("graph_file", type=click.Path(exists=True, dir_okay=False))
@click.option("--json", "as_json", is_flag=True)
@click.option("--field", "field_spec", default="q", show_default=True, help="q or fp:<p>")
@click.option("--check-buchberger", is_flag=True,
              help="also run Buchberger and compare with the combinatorial basis")
def gb(graph_file, as_json, field_spec, check_buchberger):
    """Reduced Groebner basis of the edge ideal of GRAPH_FILE."""
    t0 = time.perf_counter()
    G = _load_graph(graph_file)
    field = _field(field_spec)
    basis = groebner_combinatorial(G, field)
    results = {
        "basis": [str(g) for g in basis],
        "size": len(basis),
        "max_degree": max((g.total_degree() for g in basis), default=0),
    }
    ok = True
    if check_buchberger:
        ok = list(basis) == list(binomial_edge_ideal(G, field).groebner())
        results["buchberger_agrees"] = ok
    rep = _report("gb", G, results, t0, field)
    _emit(rep, as_json,
          [f"basis ({len(basis)} elements, max degree {results['max_degree']}):"]
          + [f"  {g}" for g in basis]
          + ([f"buchberger_agrees: {ok}"] if check_buchberger else []))
    sys.exit(EXIT_OK if ok else EXIT_VERIFICATION)


@main.command()
@click.argument("graph_file", type=click.Path(exists=True, dir_okay=False))
@click.option("--json", "as_json", is_flag=True)
@click.option("--field", "field_spec", default="q", show_default=True)
@click.option("--max-n", default=MINIMAL_PRIMES_CAP, show_default=True,
              help="vertex cap for the 2^n subset scan")
def primes(graph_file, as_json, field_spec, max_n):
    """Minimal primes of the edge ideal of GRAPH_FILE."""
    t0 = time.perf_counter()
    G = _load_graph(graph_file)
    field = _field(field_spec)
    pcs = minimal_primes(G, field, cap=max_n)
    results = {
        "count": len(pcs),
        "components": [
            {"U": sorted(pc.U), "induced_components": sorted(sorted(c) for c in pc.components)}
            for pc in pcs
        ],
    }
    rep = _report("primes", G, results, t0, field)
    _emit(rep, as_json,
          [f"{len(pcs)} minimal primes:"]
          + [f"  U={sorted(pc.U)} components={sorted(sorted(c) for c in pc.components)}" for pc in pcs])
    sys.exit(EXIT_OK)


@main.command()
@click.argument("graph_file", type=click.Path(exists=True, dir_okay=False))
@click.option("--json", "as_json", is_flag=True)
@click.option("--t", "t", default=2, show_default=True, help="power to compare")
@click.option("--field", "field_spec", default="q", show_default=True)
@click.option("--max-n", default=MINIMAL_PRIMES_CAP, show_default=True)
def powers(graph_file, as_json, field_spec, t, max_n):
    """Compare the t-th ordinary and symbolic powers for GRAPH_FILE."""
    t0 = time.perf_counter()
    G = _load_graph(graph_file)
    field = _field(field_spec)
    if t < 1:
        click.echo("error: --t must be >= 1", err=True)
        sys.exit(EXIT_USAGE)
    v = equality_verdict(G, t, field, cap=max_n)
    results = {"t": t, "equal": v.equal, "witness": str(v.witness) if v.witness else None,
               "certificate": v.certificate}
    rep = _report("powers", G, results, t0, field)
    _emit(rep, as_json,
          [f"t={t}: ordinary == symbolic: {v.equal}"]
          + ([f"witness (symbolic, not ordinary): {v.witness}"] if v.witness else [])
          + [f"certificate: {v.certificate}"])
    sys.exit(EXIT_OK if v.equal else EXIT_VERIFICATION)


@main.command("complex")
@click.argument("graph_file", type=click.Path(exists=True, dir_okay=False))
@click.option("--json", "as_json", is_flag=True)
@click.option("--special-odd-cycles", "cycles", is_flag=True,
              help="search for a special odd cycle in the facet complex")
def complex_(graph_file, as_json, cycles):
    """Facet complex of the initial ideal of GRAPH_FILE."""
    t0 = time.perf_counter()
    G = _load_graph(graph_file)
    cx = delta_of(initial_ideal(G))
    results = {"facets": sorted(sorted(f) for f in cx.facets)}
    lines = [f"{len(cx.facets)} facets:"] + [f"  {sorted(f)}" for f in cx.facets]
    if cycles:
        cyc = find_special_odd_cycle(cx)
        results["special_odd_cycle"] = (
            {"vertices": list(cyc.cycle_vertices),
             "facets": [sorted(f) for f in cyc.cycle_facets]} if cyc else None
        )
        lines.append(f"special odd cycle: {results['special_odd_cycle']}")
    rep = _report("complex", G, results, t0)
    _emit(rep, as_json, lines)
    sys.exit(EXIT_OK)


@main.command()
@click.option("--json", "as_json", is_flag=True)
@click.option("--quick", is_flag=True, help="skip the long-running negative-example check")
def suite(as_json, quick):
    """Run the full verification suite."""
    t0 = time.perf_counter()
    results = run_suite(quick=quick)
    rep = _report("suite", None, [r.to_json() for r in results], t0)
    _emit(rep, as_json,
          [f"[{r.status}] {r.cid}: {r.name} ({r.seconds:.1f}s) - {r.detail}" for r in results])
    failed = [r for r in results if not r.passed]
    sys.exit(EXIT_OK if not failed else EXIT_VERIFICATION)


if __name__ == "__main__":
    main()
