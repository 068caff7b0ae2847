"""Command-line interface.

Each command computes only ``(results, lines, ok)``: its report's
``results``, its text output and its verdict. One runner, ``_command``,
owns the rest. It declares GRAPH_FILE and ``--json``, loads the graph and
the ``--field`` a command takes, times the command, writes the report
(keys command, kernel, rational, results, seconds, graph, field) or the
text lines, and decides the exit code: 0 success, 1 verification failure
(``ok`` false: an equality or criterion check came back negative), 2 usage
error, or a GRAPH_FILE or ``--field`` that cannot be read or parsed
(``error: <reason>`` on stderr), 3 size cap exceeded
(``SizeLimitError``).
"""

from __future__ import annotations

import functools
import json
import sys
import time

import click

from .bei import binomial_edge_ideal, groebner_combinatorial, initial_ideal
from .complexes import delta_of, find_special_odd_cycle
from .decomp import MINIMAL_PRIMES_CAP, equality_verdict, minimal_primes
from .errors import SizeLimitError
from .fields import RATIONAL_BACKEND, field_from_spec
from .graphs import from_file
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

_FIELD = click.option("--field", "field_spec", default="q", show_default=True, help="q or fp:<p>")
_MAX_N = click.option("--max-n", default=MINIMAL_PRIMES_CAP, show_default=True,
                      help="vertex cap for the 2^n subset scan")


@click.group()
def main():
    """Exact binomial edge ideal toolkit: Groebner bases, prime
    decompositions, symbolic powers, and graph-class recognition."""


def _fail(message, code: int):
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _command(name: str, graph: bool = True):
    """Register ``compute`` as command ``name`` of ``main``.

    ``compute`` is called with the loaded graph ``G`` (when ``graph``),
    the ``field`` (when it takes ``--field``) and its own options."""

    def register(compute):
        @functools.wraps(compute)  # carries compute's docstring (the help) and own options
        def run(as_json, graph_file=None, field_spec=None, **options):
            t0 = time.perf_counter()
            inputs = {}
            try:
                if graph:
                    inputs["G"] = from_file(graph_file)
                if field_spec is not None:
                    inputs["field"] = field_from_spec(field_spec)
            except OSError as exc:  # a GRAPH_FILE that is missing, a directory or unreadable
                _fail(f"cannot read {exc.filename}: {exc.strerror}", EXIT_USAGE)
            except ValueError as exc:  # GraphParseError is a ValueError
                _fail(exc, EXIT_USAGE)
            try:
                results, lines, ok = compute(**inputs, **options)
            except SizeLimitError as exc:
                _fail(exc, EXIT_SIZE)
            report = {"command": name, "kernel": KERNEL_NAME, "rational": RATIONAL_BACKEND,
                      "results": results, "seconds": round(time.perf_counter() - t0, 3)}
            if graph:
                G = inputs["G"]
                report["graph"] = {"n": G.n, "edges": sorted(map(list, G.edges))}
            if "field" in inputs:
                report["field"] = repr(inputs["field"])
            if as_json:
                lines = [json.dumps(report, indent=2, default=str)]
            for line in lines:
                click.echo(line)
            sys.exit(EXIT_OK if ok else EXIT_VERIFICATION)

        run = click.option("--json", "as_json", is_flag=True, help="machine-readable output")(run)
        if graph:
            run = click.argument("graph_file")(run)
        return main.command(name)(run)

    return register


@_command("classify")
def classify(G):
    """Run every graph-class recognizer on GRAPH_FILE."""
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
    return results, [f"{k}: {v}" for k, v in results.items()], True


@_command("gb")
@_FIELD
@click.option("--check-buchberger", is_flag=True,
              help="also run Buchberger and compare with the combinatorial basis")
def gb(G, field, check_buchberger):
    """Reduced Groebner basis of the edge ideal of GRAPH_FILE."""
    basis = groebner_combinatorial(G, field)
    results = {
        "basis": [str(g) for g in basis],
        "size": len(basis),
        "max_degree": max((g.total_degree() for g in basis), default=0),
    }
    lines = [f"basis ({len(basis)} elements, max degree {results['max_degree']}):"]
    lines += [f"  {g}" for g in basis]
    ok = True
    if check_buchberger:
        ok = list(basis) == list(binomial_edge_ideal(G, field).groebner())
        results["buchberger_agrees"] = ok
        lines.append(f"buchberger_agrees: {ok}")
    return results, lines, ok


@_command("primes")
@_FIELD
@_MAX_N
def primes(G, field, max_n):
    """Minimal primes of the edge ideal of GRAPH_FILE."""
    pcs = minimal_primes(G, field, cap=max_n)
    components = [(sorted(pc.U), sorted(sorted(c) for c in pc.components)) for pc in pcs]
    results = {
        "count": len(pcs),
        "components": [{"U": U, "induced_components": cs} for U, cs in components],
    }
    lines = [f"{len(pcs)} minimal primes:"] + [f"  U={U} components={cs}" for U, cs in components]
    return results, lines, True


@_command("powers")
@click.option("--t", "t", default=2, show_default=True, help="power to compare")
@_FIELD
@_MAX_N
def powers(G, field, t, max_n):
    """Compare the t-th ordinary and symbolic powers for GRAPH_FILE."""
    if t < 1:
        _fail("--t must be >= 1", EXIT_USAGE)
    v = equality_verdict(G, t, field, cap=max_n)
    results = {"t": t, "equal": v.equal, "witness": str(v.witness) if v.witness else None,
               "certificate": v.certificate}
    lines = ([f"t={t}: ordinary == symbolic: {v.equal}"]
             + ([f"witness (symbolic, not ordinary): {v.witness}"] if v.witness else [])
             + [f"certificate: {v.certificate}"])
    return results, lines, v.equal


@_command("complex")
@click.option("--special-odd-cycles", "cycles", is_flag=True,
              help="search for a special odd cycle in the facet complex")
def complex_(G, cycles):
    """Facet complex of the initial ideal of GRAPH_FILE."""
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
    return results, lines, True


@_command("suite", graph=False)
@click.option("--quick", is_flag=True, help="skip the long-running negative-example check")
def suite(quick):
    """Run the full verification suite."""
    results = run_suite(quick=quick)  # looked up at call time, so tests can replace it
    lines = [f"[{r.status}] {r.cid}: {r.name} ({r.seconds:.1f}s) - {r.detail}" for r in results]
    return [r.to_json() for r in results], lines, all(r.passed for r in results)


if __name__ == "__main__":
    main()
