"""Shared brute-force oracles, deliberately independent of the library
implementations they cross-check."""

from __future__ import annotations

import random
import struct
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, combinations_with_replacement, permutations, product

import pytest

from bel import corpus
from bel.errors import SizeLimitError
from bel.graphs import Graph, add_whisker, clique_join, edge, is_connected, relabel
from bel.complexes import SpecialCycle
from bel.recognizers import Labeling

MIN_DEGREE_CAP = 7


def connected_classes(max_n: int) -> list:
    """One connected graph per isomorphism class on 1..max_n vertices."""
    return [G for G in corpus.graphs_upto(max_n) if is_connected(G)]


@pytest.fixture(scope="session")
def small_transversal():
    return connected_classes(5)


@pytest.fixture(scope="session")
def classes_upto_7():
    """``corpus.graphs_upto(7)``, built once per session."""
    return corpus.graphs_upto(7)


def oracle_components(G: Graph) -> list:
    """Union-find connected components."""
    parent = {v: v for v in G.vertices}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for (u, v) in G.edges:
        parent[find(u)] = find(v)
    comps = {}
    for v in G.vertices:
        comps.setdefault(find(v), set()).add(v)
    return sorted(comps.values(), key=min)


def oracle_canonical_form(G: Graph) -> tuple:
    """The literal definition: the least edge bitmask over all n! vertex
    permutations, pair {a, b} being bit number i when it is the i-th pair
    of combinations(1..n, 2)."""
    pairs = list(combinations(range(1, G.n + 1), 2))
    index = {p: i for i, p in enumerate(pairs)}
    best = None
    for perm in permutations(range(1, G.n + 1)):
        bits = 0
        for (u, v) in G.edges:
            bits |= 1 << index[edge(perm[u - 1], perm[v - 1])]
        if best is None or bits < best:
            best = bits
    return (G.n, best)


def generate_gencat_forms(max_n: int) -> set:
    """Canonical forms of every generalized caterpillar with n <= max_n,
    built forward from the definition: a path, a clique glued along each
    chosen path edge, then whiskers on any path or clique vertices."""
    forms = set()

    def with_whiskers(G):
        budget = max_n - G.n
        attach_sets = []
        for w in range(budget + 1):
            attach_sets.extend(combinations_with_replacement(sorted(G.vertices), w))
        for attaches in attach_sets:
            H = G
            for v in attaches:
                H = add_whisker(H, v)
            forms.add(corpus.canonical_form(H))

    def grow(G, path_edges, k):
        if k == len(path_edges):
            with_whiskers(G)
            return
        e = path_edges[k]
        t = 2
        while G.n + (t - 2) <= max_n:
            grow(clique_join(G, e, t) if t > 2 else G, path_edges, k + 1)
            t += 1

    for p in range(1, max_n + 1):
        grow(Graph.path(p) if p > 1 else Graph.empty(1),
             [(i, i + 1) for i in range(1, p)], 0)
    return forms


def graph_of_form(form: tuple) -> Graph:
    """The graph a canonical form ``(n, bits)`` encodes: pair {a, b} is an
    edge when bit i is set, {a, b} the i-th pair of combinations(1..n, 2)."""
    n, bits = form
    return Graph.from_edges(n, (p for i, p in enumerate(combinations(range(1, n + 1), 2))
                                if bits >> i & 1))


def check_lifted_witness(G: Graph, f, g, t: int):
    """Assert that the product f*g witnesses J_G^t != J_G^(t): its normal
    form against the reduced basis of J_G^t is not zero, and it lies in
    P^t for every minimal prime P of J_G, which is membership in
    J_G^(t), the intersection of those P^t.  Lifting a witness f of a
    lower power by a product g of generators of J_G costs J_G^t's basis
    and the prime powers, with no intersection fold."""
    from bel.bei import binomial_edge_ideal
    from bel.decomp import minimal_primes

    fg = f * g
    assert not binomial_edge_ideal(G).power(t).normal_form(fg).is_zero
    for pc in minimal_primes(G):
        assert pc.ideal.power(t).contains(fg), sorted(pc.U)


def seeded_relabellings(G: Graph, count: int, rng) -> list:
    """count copies of G, each relabelled by a permutation drawn from rng."""
    out = []
    for _ in range(count):
        perm = list(G.vertices)
        rng.shuffle(perm)
        out.append(relabel(G, {v: perm[v - 1] for v in G.vertices}))
    return out


def seeded_graphs(sizes, count: int, seed: int) -> list:
    """count graphs with n drawn from sizes, each with its own edge
    density between 0.15 and 0.6, so sparse and dense ones both occur."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.choice(sizes)
        p = rng.uniform(0.15, 0.6)
        out.append(Graph.from_edges(
            n, (e for e in combinations(range(1, n + 1), 2) if rng.random() < p)))
    return out


def oracle_is_net_free(G: Graph) -> bool:
    """No 6-vertex subset induces a graph isomorphic to the net (a
    triangle with one pendant at each corner), by networkx isomorphism."""
    import networkx as nx

    net = nx.Graph([(1, 2), (1, 3), (2, 3), (1, 4), (2, 5), (3, 6)])
    g = G.to_networkx()
    return not any(nx.is_isomorphic(g.subgraph(sub), net)
                   for sub in combinations(G.vertices, 6))


def oracle_central_path(G: Graph) -> tuple:
    """The longest simple path of G, each read in its lexicographically
    smaller direction, least vertex sequence first, by networkx's
    enumeration of every simple path between every pair."""
    import networkx as nx

    g = G.to_networkx()
    paths = [(v,) for v in G.vertices] + [
        tuple(p) for u, v in combinations(G.vertices, 2) for p in nx.all_simple_paths(g, u, v)]
    return min((min(p, p[::-1]) for p in paths), key=lambda p: (-len(p), p))


def oracle_cutpoints(G: Graph) -> set:
    """A vertex is a cutpoint iff deleting it increases the number of
    components of its own component."""
    out = set()
    base = oracle_components(G)
    for v in G.vertices:
        rest = [u for u in G.vertices if u != v]
        sub = _induced(G, rest)
        before = sum(1 for c in base if v not in c)
        if len(oracle_components(sub)) - before > 1:
            out.add(v)
    return out


def _induced(G: Graph, verts) -> Graph:
    vs = sorted(verts)
    pos = {v: i + 1 for i, v in enumerate(vs)}
    return Graph.from_edges(
        max(1, len(vs)),
        ((pos[u], pos[v]) for (u, v) in G.edges if u in pos and v in pos),
    )


def oracle_is_biconnected_set(G: Graph, verts) -> bool:
    """verts induces a connected subgraph with no internal cutpoint (an
    edge counts as biconnected)."""
    sub = _induced(G, verts)
    if len(oracle_components(sub)) != 1:
        return False
    if len(verts) == 2:
        return sub.edges != frozenset()
    return not oracle_cutpoints(sub)


def oracle_blocks(G: Graph) -> list:
    """Maximal vertex sets of size >= 2 inducing biconnected subgraphs."""
    cands = []
    vs = sorted(G.vertices)
    for r in range(2, len(vs) + 1):
        for sub in combinations(vs, r):
            if oracle_is_biconnected_set(G, sub):
                cands.append(set(sub))
    out = [b for b in cands if not any(b < c for c in cands)]
    return sorted(out, key=lambda b: (-len(b), sorted(b)))


@lru_cache(maxsize=None)
def oracle_search_labeling(G: Graph, triple_ok):
    """The plain backtracking search for a vertex order whose induced
    labeling satisfies a triple-local condition: each vertex, tried in
    increasing order, is placed when every triple it closes with two
    placed vertices passes, and nothing is pruned ahead.  Returns the
    first complete order as a Labeling, or None.  Cached, since two tests
    ask it about the same n = 7 graphs, where it takes seconds."""
    adj = G.adj
    order = []
    used = set()

    def place():
        if len(order) == G.n:
            return True
        for v in G.vertices:
            if v in used:
                continue
            if all(triple_ok(adj, a, b, v) for a, b in combinations(order, 2)):
                order.append(v)
                used.add(v)
                if place():
                    return True
                used.discard(v)
                order.pop()
        return False

    if place():
        return Labeling.from_order(order)
    return None


def oracle_first_special_odd_cycle(cx):
    """The plain search that ``find_special_odd_cycle`` replaced, kept as
    it was: each step rescans every facet in the sequence, and each cycle
    found is validated before it is returned.

    A special cycle of odd length s >= 3 if one exists, else None.

    Exhaustive backtracking over alternating sequences; rotations and
    reflections are avoided by anchoring at the least vertex and ordering
    facets.  Partial sequences already violating the two-vertices-per-facet
    rule are pruned.
    """
    symbol_pos = {s: i for i, s in enumerate(cx.vertices)}
    facets = sorted(cx.facets, key=lambda f: sorted(symbol_pos[s] for s in f))
    by_vertex = {}
    for f in facets:
        for v in f:
            by_vertex.setdefault(v, []).append(f)

    def special_ok(vset, fseq):
        return all(len(f & vset) <= 2 for f in fseq)

    def search(start, vseq, fseq, vset, fset):
        v = vseq[-1]
        for f in by_vertex.get(v, ()):
            if f in fset:
                continue
            fseq.append(f)
            fset.add(f)
            if special_ok(vset, fseq):
                # close the cycle with odd length >= 3
                if len(vseq) >= 3 and len(vseq) % 2 == 1 and start in f:
                    result = SpecialCycle(tuple(vseq), tuple(fseq))
                    try:
                        result.validate(cx)
                    except ValueError:
                        result = None
                    if result is not None:
                        fseq.pop()
                        fset.discard(f)
                        return result
                for w in sorted(f, key=symbol_pos.get):
                    if w in vset or symbol_pos[w] < symbol_pos[start]:
                        continue
                    vseq.append(w)
                    vset.add(w)
                    if special_ok(vset, fseq):
                        got = search(start, vseq, fseq, vset, fset)
                        if got is not None:
                            return got
                    vseq.pop()
                    vset.discard(w)
            fseq.pop()
            fset.discard(f)
        return None

    for start in sorted(cx.vertices, key=symbol_pos.get):
        got = search(start, [start], [], {start}, set())
        if got is not None:
            return got
    return None


def oracle_min_gb_degree(G: Graph) -> int:
    """Least largest degree of the combinatorial reduced basis over all
    n! labelings of G, by exhaustion; capped at MIN_DEGREE_CAP."""
    from bel.bei import gb_max_degree

    if G.n > MIN_DEGREE_CAP:
        raise SizeLimitError(f"labeling minimum capped at n={MIN_DEGREE_CAP}")
    if not G.edges:
        return 0
    best = None
    for perm in permutations(range(1, G.n + 1)):
        d = gb_max_degree(G, Labeling(perm))
        if best is None or d < best:
            best = d
            if best == 2:
                break  # edge binomials are quadratic; no labeling does better
    return best


def oracle_is_comparability(G: Graph) -> bool:
    """Try every orientation of the edges and test transitivity directly.
    Exponential in the edge count; callers keep graphs tiny."""
    E = sorted(G.edges)
    for dirs in product((0, 1), repeat=len(E)):
        arcs = {((u, v) if d == 0 else (v, u)) for (u, v), d in zip(E, dirs)}
        if all((a, d) in arcs
               for (a, b) in arcs for (c, d) in arcs if b == c and a != d):
            return True
    return False


def oracle_special_odd_cycles(facets) -> list:
    """Every special odd cycle of a facet list, by exhaustive search over
    ordered facet sequences F_1, ..., F_s of odd length s >= 3, each
    v_{i+1} drawn from F_i & F_{i+1} (and v_1 from F_s & F_1), kept when
    the vertices are distinct and no F_i holds more than two of them.
    Feasible only for tiny complexes."""
    facets = list(facets)
    found = []
    for s in range(3, len(facets) + 1, 2):
        for fseq in permutations(range(len(facets)), s):
            fs = [facets[i] for i in fseq]
            for vseq in product(*(fs[i - 1] & fs[i] for i in range(s))):
                if len(set(vseq)) == s and all(len(f & set(vseq)) <= 2 for f in fs):
                    found.append((vseq, fseq))
    return found


def oracle_admissible_paths(G: Graph) -> list:
    """Admissible paths by conditions (i)-(iii) applied literally: every
    ordered interior drawn from the vertices below i or above j, kept when
    i, interior, j is a path and no proper subsequence of the interior
    gives an i-j path.  Returns sorted (i, j, interior) triples."""

    def is_path(seq):
        return all(G.has_edge(a, b) for a, b in zip(seq, seq[1:]))

    out = []
    for i, j in combinations(G.vertices, 2):
        allowed = [v for v in G.vertices if v < i or v > j]
        for r in range(len(allowed) + 1):
            for sub in combinations(allowed, r):
                for interior in permutations(sub):
                    if is_path((i,) + interior + (j,)) and not any(
                        is_path((i,) + shorter + (j,))
                        for s in range(r)
                        for shorter in combinations(interior, s)
                    ):
                        out.append((i, j, interior))
    return sorted(out)


def oracle_minimal_primes(G: Graph) -> list:
    """Minimal primes by the literal definition: every P_U compared with
    every other P_T by Groebner membership, kept when no P_T lies strictly
    inside it.  Subsets U by size, then lexicographically."""
    from bel.decomp import prime_component

    vs = sorted(G.vertices)
    comps = [prime_component(G, U) for r in range(len(vs) + 1) for U in combinations(vs, r)]
    out = []
    for pc in comps:
        minimal = True
        for other in comps:
            if other.U == pc.U:
                continue
            if pc.ideal.contains_ideal(other.ideal) and not other.ideal.contains_ideal(pc.ideal):
                minimal = False
                break
        if minimal:
            out.append(pc)
    return out


def oracle_update_pairs(lms, sugars, pairs, j, guards) -> dict:
    """Gebauer-Moeller pair update kept as a dict from (a, b) index pairs to
    their sugars, every lcm recomputed where it is used: pairs is the
    pending dict before generator j joined, lms the leading monomials packed
    as in the pure-Python kernel and sugars their sugars.  A new pair (a, j)
    gets max(sugars[a] - deg lm_a, sugars[j] - deg lm_j) + deg lcm, each
    total degree summed over the unpacked exponent vector."""
    from bel.kernel import _divides, _lcm

    nvars = guards.bit_length() // 16

    def degree(m):
        return sum(struct.unpack(">%dh" % nvars, m.to_bytes(2 * nvars, "big")))

    lmj = lms[j]
    kept = {}
    for (a, b), sugar in pairs.items():
        lab = _lcm(lms[a], lms[b], guards)
        if (not _divides(lmj, lab, guards)
                or lab == _lcm(lms[a], lmj, guards)
                or lab == _lcm(lms[b], lmj, guards)):
            kept[a, b] = sugar
    by_lcm: dict = {}
    for i in range(j):
        by_lcm.setdefault(_lcm(lms[i], lmj, guards), []).append(i)
    minimal = []
    for L in sorted(by_lcm):
        if all(not _divides(M, L, guards) for M in minimal):
            minimal.append(L)
    for L in minimal:
        if any(_lcm(lms[i], lmj, guards) == lms[i] + lmj for i in by_lcm[L]):
            continue
        a = min(by_lcm[L])
        kept[a, j] = max(sugars[a] - degree(lms[a]), sugars[j] - degree(lmj)) + degree(L)
    return kept


def oracle_buchberger(gens) -> list:
    """Reduced lex Groebner basis by the textbook Buchberger algorithm.

    Polynomials are dicts from exponent tuples to Fractions; the first
    variable is the most significant, so tuple order is the lex order.
    Every S-pair is reduced, with no criterion and no packing, and the
    final basis is made minimal, reduced and monic.  gens and the result
    are lists of (exponent_tuple, coeff) pairs, the result's terms and
    elements sorted descending."""

    def divides(a, b):
        return all(x <= y for x, y in zip(a, b))

    def shift(f, q, s):
        return {tuple(x + y for x, y in zip(m, q)): s * c for m, c in f.items()}

    def minus(f, g):
        out = dict(f)
        for m, c in g.items():
            v = out.get(m, 0) - c
            if v:
                out[m] = v
            else:
                out.pop(m, None)
        return out

    def reduce(f, basis):
        f, rest = dict(f), {}
        while f:
            m = max(f)
            for g in basis:
                lm = max(g)
                if divides(lm, m):
                    q = tuple(x - y for x, y in zip(m, lm))
                    f = minus(f, shift(g, q, f[m] / g[lm]))
                    break
            else:
                rest[m] = f.pop(m)
        return rest

    def spoly(f, g):
        lf, lg = max(f), max(g)
        lcm = tuple(max(x, y) for x, y in zip(lf, lg))
        return minus(shift(f, tuple(x - y for x, y in zip(lcm, lf)), 1 / f[lf]),
                     shift(g, tuple(x - y for x, y in zip(lcm, lg)), 1 / g[lg]))

    G = []
    for poly in gens:
        f = {}
        for m, c in poly:
            f[tuple(m)] = f.get(tuple(m), 0) + Fraction(c.numerator, c.denominator)
        f = {m: c for m, c in f.items() if c}
        if f:
            G.append(f)
    todo = list(combinations(range(len(G)), 2))
    while todo:
        i, j = todo.pop()
        r = reduce(spoly(G[i], G[j]), G)
        if r:
            todo += [(k, len(G)) for k in range(len(G))]
            G.append(r)
    # minimal: drop g_k when another leading monomial divides lm_k
    # strictly, or an earlier element has the same leading monomial
    lms = [max(g) for g in G]
    minimal = [g for k, g in enumerate(G)
               if not any(divides(lm, lms[k]) and (lm != lms[k] or i < k)
                          for i, lm in enumerate(lms) if i != k)]
    out = []
    for k, g in enumerate(minimal):
        r = reduce(g, minimal[:k] + minimal[k + 1:])
        lc = r[max(r)]
        out.append(sorted(((m, c / lc) for m, c in r.items()), reverse=True))
    return sorted(out, reverse=True)
