"""Layer spans for the traced run, recorded from the benchmark's own files.

``Tracer.install`` wraps the public function at each layer boundary of
``src/bel`` and rebinds it in every namespace that holds it: the defining
module, each ``bel`` module that imported it by name, and class aliases
such as ``Ideal.__contains__``.  Nothing is wrapped unless a traced run
asks for it, and ``uninstall`` restores every original binding.

A span is (name, start, end, parent span, query id, measured value), kept
in parallel in-memory lists and written out once at the end.  A span's
self time is its duration minus the part of its interval that its child
spans cover.
"""

from __future__ import annotations

import gzip
import importlib
import json
import sys
from time import perf_counter

# (span name, "module" or "module:Class", attribute, measure)
# A measure maps (args, result) to the number a span records.
TARGETS = (
    ("kernel.buchberger", "bel.kernel", "buchberger", "out_terms"),
    ("kernel.normal_form", "bel.kernel", "normal_form", "basis_terms"),
    ("kernel.interreduce", "bel.kernel", "interreduce", None),
    ("ideals.groebner", "bel.ideals:Ideal", "groebner", None),
    ("ideals.contains", "bel.ideals:Ideal", "contains", "truthy"),
    ("ideals.equal", "bel.ideals:Ideal", "equal", None),
    ("ideals.power", "bel.ideals:Ideal", "power", None),
    ("ideals.intersect", "bel.ideals:Ideal", "intersect", None),
    ("ideals.eliminate", "bel.ideals:Ideal", "eliminate", None),
    ("ideals.intersect_all", "bel.ideals", "intersect_all", None),
    ("decomp.minimal_primes", "bel.decomp", "minimal_primes", "length"),
    ("decomp.prime_component", "bel.decomp", "prime_component", None),
    ("decomp.symbolic_power", "bel.decomp", "symbolic_power", None),
    ("decomp.equality_verdict", "bel.decomp", "equality_verdict", None),
    ("rings.mul", "bel.rings:Polynomial", "__mul__", None),
    ("graphs.components_within", "bel.graphs", "components_within", None),
    ("bei.admissible_paths", "bel.bei", "admissible_paths", "length"),
    ("bei.groebner_combinatorial", "bel.bei", "groebner_combinatorial", None),
    ("bei.initial_ideal", "bel.bei", "initial_ideal", None),
    ("complexes.delta_of", "bel.complexes", "delta_of", None),
    ("complexes.find_special_odd_cycle", "bel.complexes", "find_special_odd_cycle", "found"),
    ("recognizers.find_closed_labeling", "bel.recognizers", "find_closed_labeling", "found"),
    ("recognizers.find_weakly_closed_labeling", "bel.recognizers",
     "find_weakly_closed_labeling", "found"),
    ("recognizers.is_comparability", "bel.recognizers", "is_comparability", "found"),
    ("recognizers.is_net_free", "bel.recognizers", "is_net_free", "found"),
    ("recognizers.is_generalized_caterpillar", "bel.recognizers",
     "is_generalized_caterpillar", "found"),
    ("corpus.canonical_form", "bel.corpus", "canonical_form", None),
)

_MEASURES = {
    None: None,
    "out_terms": lambda args, r: sum(len(g) for g in r),
    "basis_terms": lambda args, r: sum(len(g) for g in args[1]),
    "length": lambda args, r: len(r),
    "truthy": lambda args, r: int(bool(r)),
    "found": lambda args, r: int(r is not None and r is not False),
}

# Wrappers that must fire at least once on each workload, so that a rename
# in the library cannot silently zero a layer metric.
COVERAGE = {
    "powers": (
        "kernel.buchberger", "kernel.normal_form", "kernel.interreduce",
        "ideals.groebner", "ideals.contains", "ideals.equal", "ideals.power",
        "ideals.intersect", "ideals.eliminate", "ideals.intersect_all",
        "decomp.minimal_primes", "decomp.prime_component", "decomp.symbolic_power",
        "decomp.equality_verdict", "rings.mul", "graphs.components_within",
    ),
    "primes": (
        "kernel.buchberger", "kernel.normal_form", "ideals.groebner", "ideals.contains",
        "decomp.minimal_primes", "decomp.prime_component", "graphs.components_within",
        "rings.mul",
    ),
    "combinatorial": (
        "bei.admissible_paths", "bei.groebner_combinatorial", "bei.initial_ideal",
        "complexes.delta_of", "complexes.find_special_odd_cycle",
        "recognizers.find_closed_labeling", "recognizers.find_weakly_closed_labeling",
        "recognizers.is_comparability", "recognizers.is_net_free",
        "recognizers.is_generalized_caterpillar", "corpus.canonical_form", "rings.mul",
    ),
}


def _resolve(owner: str):
    module, _, cls = owner.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


class Spans:
    """Spans in pre-order (a parent always precedes its children)."""

    def __init__(self):
        self.names: list = []
        self.starts: list = []
        self.ends: list = []
        self.parents: list = []
        self.qids: list = []
        self.values: list = []

    def add(self, name, start, end, parent=-1, qid=0, value=None) -> int:
        """Append one span; returns its index."""
        self.names.append(name)
        self.starts.append(start)
        self.ends.append(end)
        self.parents.append(parent)
        self.qids.append(qid)
        self.values.append(value)
        return len(self.names) - 1

    def __len__(self):
        return len(self.names)

    def duration(self, i: int) -> float:
        return self.ends[i] - self.starts[i]

    def children(self) -> list:
        kids = [[] for _ in self.names]
        for i, p in enumerate(self.parents):
            if p >= 0:
                kids[p].append(i)
        return kids

    def self_times(self) -> list:
        """Duration minus the union of the children's intervals."""
        kids = self.children()
        out = []
        for i in range(len(self.names)):
            covered = 0.0
            reach = None
            for k in sorted(kids[i], key=self.starts.__getitem__):
                s, e = max(self.starts[k], self.starts[i]), min(self.ends[k], self.ends[i])
                if reach is not None:
                    s = max(s, reach)
                if e > s:
                    covered += e - s
                reach = e if reach is None else max(reach, e)
            out.append(self.duration(i) - covered)
        return out

    def write(self, path):
        with gzip.open(path, "wt") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "query", "value"],
                       "spans": list(zip(self.names, self.starts, self.ends, self.parents,
                                         self.qids, self.values))}, fh)


class Tracer:
    """Installs the layer wrappers and records their spans into ``spans``."""

    def __init__(self):
        self.spans = Spans()
        self.qid = 0
        self._stack: list = []
        self._patched: list = []  # (module or class, attribute, original)

    def _wrap(self, name, fn, measure):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            i = spans.add(name, 0.0, 0.0, stack[-1] if stack else -1, self.qid)
            stack.append(i)
            spans.starts[i] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans.ends[i] = perf_counter()
                stack.pop()
            if measure is not None:
                spans.values[i] = measure(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Wrap every target in every bel namespace that binds it."""
        modules = [m for k, m in sorted(sys.modules.items()) if k == "bel" or k.startswith("bel.")]
        for name, owner, attr, measure in TARGETS:
            holder = _resolve(owner)
            original = getattr(holder, attr)
            wrapper = self._wrap(name, original, _MEASURES[measure])
            for h in [holder] if ":" in owner else modules:
                for key, value in list(vars(h).items()):
                    if value is original:
                        self._patched.append((h, key, original))
                        setattr(h, key, wrapper)

    def uninstall(self):
        for holder, key, original in reversed(self._patched):
            setattr(holder, key, original)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()


# --------------------------------------------------------------- metrics

_BUSY = ("kernel.buchberger", "kernel.normal_form", "kernel.interreduce", "ideals.contains",
         "ideals.intersect", "ideals.eliminate", "ideals.power", "ideals.equal",
         "decomp.minimal_primes", "decomp.prime_component", "decomp.symbolic_power",
         "decomp.equality_verdict", "rings.mul", "graphs.components_within",
         "bei.admissible_paths", "bei.groebner_combinatorial", "bei.initial_ideal",
         "complexes.delta_of", "complexes.find_special_odd_cycle",
         "recognizers.find_closed_labeling", "recognizers.find_weakly_closed_labeling",
         "recognizers.is_comparability", "recognizers.is_net_free",
         "recognizers.is_generalized_caterpillar", "corpus.canonical_form")
_CALLS = ("kernel.buchberger", "kernel.normal_form", "kernel.interreduce", "ideals.groebner",
          "ideals.contains", "ideals.intersect", "decomp.prime_component", "rings.mul",
          "graphs.components_within", "bei.admissible_paths", "corpus.canonical_form")
_SELF = ("ideals.intersect", "ideals.power", "decomp.minimal_primes")
_FOUND = ("complexes.find_special_odd_cycle", "recognizers.find_closed_labeling",
          "recognizers.find_weakly_closed_labeling", "recognizers.is_comparability",
          "recognizers.is_net_free", "recognizers.is_generalized_caterpillar")

# (name, unit, better) of every per-layer metric, in report order.
METRICS = sorted(
    [(f"{n}.calls", "count", "lower") for n in _CALLS]
    + [(f"{n}.busy_s", "s", "lower") for n in _BUSY]
    + [(f"{n}.self_s", "s", "lower") for n in _SELF]
    + [(f"{n}.found_ratio", "ratio", "higher") for n in _FOUND]
    + [
        ("kernel.buchberger.elim_busy_s", "s", "lower"),
        ("kernel.buchberger.out_terms", "count", "lower"),
        ("kernel.normal_form.basis_terms", "count", "lower"),
        ("ideals.groebner.miss_ratio", "ratio", "lower"),
        ("ideals.contains.true_ratio", "ratio", "higher"),
        ("ideals.intersect.max_ms", "ms", "lower"),
        ("decomp.minimal_primes.kept_ratio", "ratio", "higher"),
        ("decomp.witness_s", "s", "lower"),
        ("bei.admissible_paths.paths", "count", "lower"),
        ("trace.overhead_ratio", "ratio", "lower"),
    ]
)


def _ratio(num, den) -> float:
    return num / den if den else 0.0


class Analysis:
    """Per-name totals of one set of spans, from a single pre-order sweep.

    ``busy`` sums only the outermost span of each name (no double count
    under recursion); ``self_s`` sums every span's self time.
    """

    def __init__(self, spans: Spans):
        self.calls: dict = {}
        self.busy: dict = {}
        self.self_s: dict = {}
        self.value: dict = {}
        self.max_s: dict = {}
        self.bb_under_groebner = 0
        self.bb_under_intersect = 0
        self.elim_busy = 0.0
        self.witness = 0.0
        selfs = spans.self_times()
        path: list = []  # open spans, outermost first
        open_by_name: dict = {}
        equal_end: dict = {}  # equality_verdict span -> end of its equality test

        def nearest(n):
            stack = open_by_name.get(n)
            return stack[-1] if stack else -1

        for i, name in enumerate(spans.names):
            parent = spans.parents[i]
            while path and path[-1] != parent:
                open_by_name[spans.names[path.pop()]].pop()
            dur = spans.duration(i)
            self.calls[name] = self.calls.get(name, 0) + 1
            self.self_s[name] = self.self_s.get(name, 0.0) + selfs[i]
            self.max_s[name] = max(self.max_s.get(name, 0.0), dur)
            if spans.values[i] is not None:
                self.value[name] = self.value.get(name, 0) + spans.values[i]
            if nearest(name) < 0:
                self.busy[name] = self.busy.get(name, 0.0) + dur
            if name == "kernel.buchberger":
                self.bb_under_groebner += nearest("ideals.groebner") >= 0
                if nearest("ideals.intersect") >= 0:
                    self.bb_under_intersect += 1
                    self.elim_busy += dur
            verdict = nearest("decomp.equality_verdict")
            if verdict >= 0 and name == "ideals.equal":
                equal_end.setdefault(verdict, spans.ends[i])
            if (verdict >= 0 and name == "ideals.contains" and nearest(name) < 0
                    and verdict in equal_end and spans.starts[i] >= equal_end[verdict]):
                self.witness += dur
            path.append(i)
            open_by_name.setdefault(name, []).append(i)

    def metrics(self) -> dict:
        """Every per-layer metric except trace.overhead_ratio."""
        c, v = self.calls.get, self.value.get
        out = {f"{n}.calls": c(n, 0) for n in _CALLS}
        out.update({f"{n}.busy_s": self.busy.get(n, 0.0) for n in _BUSY})
        out.update({f"{n}.self_s": self.self_s.get(n, 0.0) for n in _SELF})
        out.update({f"{n}.found_ratio": _ratio(v(n, 0), c(n, 0)) for n in _FOUND})
        out.update({
            "kernel.buchberger.elim_busy_s": self.elim_busy,
            "kernel.buchberger.out_terms": v("kernel.buchberger", 0),
            "kernel.normal_form.basis_terms": v("kernel.normal_form", 0),
            "ideals.groebner.miss_ratio": _ratio(self.bb_under_groebner, c("ideals.groebner", 0)),
            "ideals.contains.true_ratio": _ratio(v("ideals.contains", 0), c("ideals.contains", 0)),
            "ideals.intersect.max_ms": 1000.0 * self.max_s.get("ideals.intersect", 0.0),
            "decomp.minimal_primes.kept_ratio": _ratio(
                v("decomp.minimal_primes", 0), c("decomp.prime_component", 0)),
            "decomp.witness_s": self.witness,
            "bei.admissible_paths.paths": v("bei.admissible_paths", 0),
        })
        return out

    def counts(self) -> dict:
        """The integers that must repeat exactly between two traced runs:
        every call count, every measured sum (terms, paths, ratio
        numerators) and the parent-filtered Buchberger counts."""
        out = {f"{n}.calls": k for n, k in self.calls.items()}
        out.update({f"{n}.value": k for n, k in self.value.items()})
        out["kernel.buchberger.under_groebner"] = self.bb_under_groebner
        out["kernel.buchberger.under_intersect"] = self.bb_under_intersect
        return dict(sorted(out.items()))

    def self_shares(self, total_s: float) -> dict:
        """Self time per span name as a share of total_s, largest first."""
        shares = {n: s / total_s for n, s in self.self_s.items()} if total_s > 0 else {}
        return dict(sorted(shares.items(), key=lambda kv: -kv[1]))


def coverage_problems(workload: str, analysis: Analysis) -> list:
    return [f"wrapper {n} never fired on {workload}"
            for n in COVERAGE[workload] if not analysis.calls.get(n)]


def count_differences(here: dict, again: dict) -> list:
    return [f"nondeterminism: {k} = {here.get(k)} here, {again.get(k)} in a second traced run"
            for k in sorted(set(here) | set(again)) if here.get(k) != again.get(k)]
