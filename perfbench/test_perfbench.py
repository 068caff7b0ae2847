"""Self-tests of the benchmark's own machinery.

    python3 -m pytest perfbench -q

They cover the tail-percentile rule, the reference calibration of
latencies, self-time arithmetic on nested spans,
the generators' bounds on each graph family, answer checking (a corrupted
expected digest must count as failed), the tracer's install/restore, and
the agreement of BENCHMARK.json with the metrics the code reports.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

import networkx as nx
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import bel  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from bel.graphs import Graph, is_connected, net_graph  # noqa: E402

SEEDS = range(5)


# ------------------------------------------------------------ percentiles

@pytest.mark.parametrize("n, expected", [
    (19, 50.0), (20, 50.0), (39, 50.0), (40, 75.0), (99, 75.0), (100, 90.0),
    (999, 90.0), (1000, 99.0), (9999, 99.0), (10000, 99.9),
])
def test_tail_percentile_picks_highest_rung_with_ten_beyond(n, expected):
    samples = list(range(n, 0, -1))  # value == rank once sorted
    p, value = run.tail_percentile(samples)
    assert p == expected
    if n >= 20:
        assert n - value >= run.MIN_BEYOND  # ten or more samples strictly beyond
        higher = [r / 10 for r in run.TAIL_LADDER if r / 10 > p]
        for q in higher:  # every higher rung has fewer than ten beyond
            assert n - -(-int(q * 10) * n // 1000) < run.MIN_BEYOND


def test_tail_percentile_uses_nearest_rank():
    xs = [float(i) for i in range(1, 101)]
    random.Random(0).shuffle(xs)
    assert run.tail_percentile(xs) == (90.0, 90.0)
    assert run.tail_percentile(xs[:99]) != (90.0, 90.0)


# ------------------------------------------------------------ calibration

def test_calibration_scales_by_the_local_reference_median():
    nominal = run.REF_NOMINAL_S
    lat = [1.0, 2.0, 3.0, 4.0]
    steady = [nominal] * 5
    assert run.calibrated(lat, steady) == pytest.approx(lat)
    slow = [2 * nominal] * 5  # a host at half speed halves nothing but the clock
    assert run.calibrated(lat, slow) == pytest.approx([x / 2 for x in lat])
    # one burst in a single reference sample does not move its neighbours
    burst = [nominal, nominal, 10 * nominal, nominal, nominal]
    assert run.calibrated(lat, burst) == pytest.approx(lat)
    with pytest.raises(AssertionError):
        run.calibrated(lat, steady[:-1])


def test_calibration_follows_a_drift_within_the_pass():
    nominal = run.REF_NOMINAL_S
    refs = [nominal] * 6 + [2 * nominal] * 6  # the host halves its speed mid-pass
    scaled = run.calibrated([1.0] * 4 + [2.0] * 7, refs)
    assert scaled[:4] == pytest.approx([1.0] * 4)
    assert scaled[-4:] == pytest.approx([1.0] * 4)


def test_run_speed_weighs_references_by_the_query_time_beside_them():
    nominal = run.REF_NOMINAL_S
    steady = ([1.0, 2.0], None, [2 * nominal] * 3)
    assert run.run_speed([steady, steady]) == pytest.approx(0.5)
    # the 9-second query, between a fast and a slow sample, outweighs the
    # 1-second one between two fast samples: mean reference (1 * 1 + 9 * 1.5) / 10
    mixed = ([1.0, 9.0], None, [nominal, nominal, 2 * nominal])
    assert run.run_speed([mixed]) == pytest.approx(10 * 1.0 / (1.0 * 1 + 9.0 * 1.5))


def test_reference_is_steady_work_outside_bel():
    assert run._reference_work() == run._reference_work()
    assert run.reference() > 0
    assert "bel" not in run._reference_work.__code__.co_names


# -------------------------------------------------------------- self time

def _spans(rows):
    s = tracing.Spans()
    for row in rows:
        s.add(*row)
    return s


def test_self_time_subtracts_children_and_not_grandchildren():
    s = _spans([
        ("root", 0.0, 10.0, -1),
        ("a", 1.0, 4.0, 0),
        ("b", 5.0, 9.0, 0),
        ("c", 6.0, 7.0, 2),
    ])
    assert s.self_times() == pytest.approx([3.0, 3.0, 3.0, 1.0])


def test_self_time_counts_overlapping_children_once_and_clips_to_parent():
    s = _spans([
        ("root", 0.0, 10.0, -1),
        ("a", 1.0, 5.0, 0),
        ("b", 3.0, 7.0, 0),  # overlaps a: the union 1..7 is covered once
        ("c", 9.0, 12.0, 0),  # runs past the parent's end: only 9..10 counts
    ])
    assert s.self_times()[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_analysis_busy_counts_outermost_and_witness_follows_equality():
    s = _spans([
        ("decomp.equality_verdict", 0.0, 20.0, -1),
        ("ideals.intersect", 1.0, 6.0, 0),
        ("ideals.groebner", 2.0, 5.0, 1),
        ("kernel.buchberger", 2.5, 4.5, 2, 0, 7),
        ("ideals.equal", 7.0, 9.0, 0),
        ("ideals.contains", 7.5, 8.0, 4, 0, 1),  # inside the equality test
        ("ideals.contains", 10.0, 12.0, 0, 0, 0),  # witness search
        ("ideals.contains", 12.0, 13.0, 6, 0, 1),  # nested: not counted twice
        ("kernel.buchberger", 14.0, 15.0, -1, 1, 3),  # no parent
    ])
    a = tracing.Analysis(s)
    m = a.metrics()
    assert m["kernel.buchberger.busy_s"] == pytest.approx(3.0)
    assert m["kernel.buchberger.elim_busy_s"] == pytest.approx(2.0)
    assert m["kernel.buchberger.out_terms"] == 10
    assert m["ideals.groebner.miss_ratio"] == pytest.approx(1.0)
    assert m["ideals.contains.busy_s"] == pytest.approx(2.5)
    assert m["ideals.contains.true_ratio"] == pytest.approx(2 / 3)
    assert m["decomp.witness_s"] == pytest.approx(2.0)
    assert m["ideals.intersect.self_s"] == pytest.approx(2.0)
    assert m["ideals.intersect.max_ms"] == pytest.approx(5000.0)
    assert a.counts()["kernel.buchberger.under_intersect"] == 1
    assert set(m) | {"trace.overhead_ratio"} == {name for name, _, _ in tracing.METRICS}


def test_coverage_and_repeat_checks_report_problems():
    empty = tracing.Analysis(tracing.Spans())
    for w in tracing.COVERAGE:
        assert len(tracing.coverage_problems(w, empty)) == len(tracing.COVERAGE[w])
    assert tracing.count_differences({"a.calls": 1}, {"a.calls": 1}) == []
    assert len(tracing.count_differences({"a.calls": 1}, {"a.calls": 2, "b.calls": 1})) == 2


# ---------------------------------------------------------------- tracer

def test_tracer_patches_every_namespace_and_restores():
    originals = (bel.decomp.minimal_primes, bel.minimal_primes, bel.ideals.Ideal.__contains__,
                 bel.kernel.normal_form, bel.rings.Polynomial.__rmul__)
    tracer = tracing.Tracer()
    with tracer:
        assert bel.decomp.minimal_primes is bel.minimal_primes
        assert bel.decomp.minimal_primes.__wrapped__ is originals[0]
        assert bel.ideals.Ideal.__contains__ is bel.ideals.Ideal.contains
        assert bel.ideals.Ideal.__contains__.__wrapped__ is originals[2]
        pc = bel.decomp.prime_component(Graph.path(3), {2})
        assert pc.ideal.contains(pc.ideal.gens[0])
    assert (bel.decomp.minimal_primes, bel.minimal_primes, bel.ideals.Ideal.__contains__,
            bel.kernel.normal_form, bel.rings.Polynomial.__rmul__) == originals
    a = tracing.Analysis(tracer.spans)
    assert a.calls["decomp.prime_component"] == 1
    assert a.calls["graphs.components_within"] == 1
    assert a.calls["kernel.buchberger"] == 1
    names = tracer.spans.names
    child = names.index("graphs.components_within")
    assert names[tracer.spans.parents[child]] == "decomp.prime_component"


# ------------------------------------------------------------- generators

@pytest.mark.parametrize("seed", SEEDS)
def test_powers_family_is_bounded(seed):
    qs = workloads.generate("powers", seed)
    assert len(qs) == sum(c for _, _, c in workloads.POWERS_MIX) + len(workloads.POWERS_PINNED)
    assert all(workloads.powers_admissible(q) for q in qs)
    assert [q.graph for q in qs if q.graph in workloads.POWERS_PINNED] == \
        list(workloads.POWERS_PINNED)
    assert len({q.graph for q in qs}) == len(qs)
    assert {q.t for q in qs} == {2, 3}


def test_powers_bound_rejects_the_expensive_cases():
    C5 = Graph.cycle(5)  # 6 minimal primes; seconds at t=2
    assert not workloads.powers_admissible(workloads.Query(C5, 2))
    assert not workloads.powers_admissible(workloads.Query(Graph.path(5), 3))
    assert not workloads.powers_admissible(workloads.Query(Graph.path(6), 2))
    assert not workloads.powers_admissible(workloads.Query(net_graph(), 3))
    for G in workloads.POWERS_PINNED[:3]:  # pinned, not drawn
        assert workloads.prime_count(G) == 3


@pytest.mark.parametrize("seed", SEEDS)
def test_primes_and_combinatorial_relabel_fixed_shapes(seed):
    for name, mix in (("primes", workloads.PRIMES_MIX),
                      ("combinatorial", workloads.COMBINATORIAL_MIX)):
        qs = [q for q in workloads.generate(name, seed) if q.full]
        shapes = workloads._shapes(name, mix)
        assert [q.graph.n for q in qs] == [n for n, c, _ in mix for _ in range(c)]
        for q, (S, relabelled) in zip(qs, shapes, strict=True):
            assert is_connected(q.graph)
            assert nx.is_isomorphic(q.graph.to_networkx(), S.to_networkx())
            if not relabelled:
                assert q.graph == S
        assert len({q.graph for q in qs}) == len(qs)
    dense = [q for q in workloads.generate("combinatorial", seed) if not q.full]
    assert [len(q.graph.edges) for q in dense] == [33, 32, 31, 30]


def test_generation_is_a_function_of_the_seed():
    for w in workloads.WORKLOADS:
        assert workloads.inputs_digest(workloads.generate(w, 3)) == \
            workloads.inputs_digest(workloads.generate(w, 3))
        assert workloads.inputs_digest(workloads.generate(w, 3)) != \
            workloads.inputs_digest(workloads.generate(w, 4))


# --------------------------------------------------------- answer checking

def test_corrupted_expected_digest_is_counted_as_failed():
    wl = workloads.WORKLOADS["primes"]
    queries = [q for q in workloads.generate("primes", 0) if q.graph.n == 6][:2]
    passes = [run.run_pass(wl, queries)[1] for _ in range(2)]
    expected = [workloads.digest(wl.oracle(q)) for q in queries]
    assert run.answer_failures(passes, expected) == 0
    corrupted = list(expected)
    corrupted[1] = "0" * len(corrupted[1])
    assert run.answer_failures(passes, corrupted) == 2  # once per pass


def test_pinned_net_witness_passes_the_oracle():
    answer = workloads.oracle_powers(workloads.Query(net_graph(), 2))
    assert answer["equal"] is False
    assert answer["witness"].startswith("x1*x4*x5*y2*y3*y6 - ")


# ------------------------------------------------------------- contract

def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        list(tracing.METRICS)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert list(workloads.WORKLOADS) == list(run.WORKLOAD_NAMES)
