"""Graph-class recognizers and labeling constructions.

Covers caterpillar trees, closed and weakly closed graphs (per-labeling
checks plus labeling searches, run only where no theorem rules a
labeling out: a claw or a chordless cycle of length >= 4 rules out a
closed labeling), comparability by Golumbic's TRO theorem (*Algorithmic
Graph Theory and Perfect Graphs*, 1980, ch. 5: no implication class
holds an arc and its reverse), net-free graphs, and generalized
caterpillars with explicit construction witnesses.  The labeling search
returns the least vertex order and drops a prefix as soon as some
remaining vertex can no longer follow it.  Weak closedness is decided by
co-comparability at every n.  The generalized-caterpillar witness is
read off the block structure, and caterpillar trees, which are
generalized caterpillars, take its labeling.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .errors import SizeLimitError
from .graphs import (
    Graph,
    blocks,
    complement,
    edge,
    is_block_graph,
    is_connected,
    relabel,
)

LABELING_SEARCH_CAP = 8


@dataclass(frozen=True)
class Labeling:
    """A bijection vertex -> label in {1..n}."""

    sigma: tuple  # sigma[v-1] is the label of vertex v

    def __post_init__(self):
        n = len(self.sigma)
        if sorted(self.sigma) != list(range(1, n + 1)):
            raise ValueError("labeling is not a bijection onto 1..n")

    @staticmethod
    def from_order(order) -> "Labeling":
        """order[k] is the vertex that receives label k+1."""
        sigma = [0] * len(order)
        for pos, v in enumerate(order):
            sigma[v - 1] = pos + 1
        return Labeling(tuple(sigma))

    def as_dict(self) -> dict:
        return {v + 1: lab for v, lab in enumerate(self.sigma)}

    def apply(self, G: Graph) -> Graph:
        return relabel(G, self.as_dict())


# ------------------------------------------------------------- caterpillars

def is_tree(G: Graph) -> bool:
    return len(G.edges) == G.n - 1 and is_connected(G)


def is_caterpillar(G: Graph) -> bool:
    """Tree whose non-leaf vertices lie on one path: they span a subtree,
    which is a path iff none has more than two non-leaf neighbours."""
    if not is_tree(G):
        return False
    internal = {v for v in G.vertices if G.degree(v) >= 2}
    return all(len(G.adj[v] & internal) <= 2 for v in internal)


# ------------------------------------------------- closed / weakly closed

def is_closed_with_labeling(G: Graph, lab: Labeling) -> bool:
    """Literal closedness condition on the relabeled graph: for edges
    {i,j}, {k,l} with i<j, k<l: i=k forces {j,l}, j=l forces {i,k}."""
    H = lab.apply(G)
    E = H.edges
    for (i, j) in E:
        for (k, l) in E:
            if (i, j) == (k, l):
                continue
            if i == k and edge(j, l) not in E:
                return False
            if j == l and edge(i, k) not in E:
                return False
    return True


def is_weakly_closed_with_labeling(G: Graph, lab: Labeling) -> bool:
    """Literal weak closedness: for i<j<k with {i,k} an edge, {i,j} or
    {j,k} is an edge."""
    H = lab.apply(G)
    E = H.edges
    for (i, k) in E:
        for j in range(i + 1, k):
            if (i, j) not in E and (j, k) not in E:
                return False
    return True


def _search_labeling(G: Graph, triple_ok):
    """The lexicographically least vertex order whose induced labeling
    satisfies a triple-local condition, as a Labeling, or None.

    ``triple_ok(adj, a, b, c)`` reads only the three vertices, placed in
    the order a, b, c.  So a vertex r rejected after a prefix stays
    rejected: if ``triple_ok(a, v, r)`` fails for a placed before v, every
    extension of the prefix puts r after both, where that triple is read.
    The search drops the prefix as soon as it places such a v (forward
    checking).  Every unplaced vertex has then passed each triple with two
    placed vertices, read when the later of the two was placed, so any of
    them may come next.  Only prefixes with no completion are dropped, so
    the first order found is still the least one.
    """
    adj = G.adj
    order = []

    def place(remaining):
        if not remaining:
            return True
        for v in remaining:
            rest = [r for r in remaining if r != v]
            if all(triple_ok(adj, a, v, r) for a in order for r in rest):
                order.append(v)
                if place(rest):
                    return True
                order.pop()
        return False

    if place(list(G.vertices)):
        return Labeling.from_order(order)
    return None


def _closed_triple(adj, a, b, c):
    # labels of a < b < c; both directions of the closed condition
    ab, ac, bc = b in adj[a], c in adj[a], c in adj[b]
    if ab and ac and not bc:
        return False
    if ac and bc and not ab:
        return False
    return True


def _weakly_closed_triple(adj, a, b, c):
    if c in adj[a]:
        return b in adj[a] or c in adj[b]
    return True


def find_closed_labeling(G: Graph):
    """A closed labeling of G, or None.  A claw rules one out: of three
    pairwise non-adjacent neighbours of v, two lie on the same side of v,
    and their edges at v share the smaller end (i = k) or the larger
    (j = l), which forces an edge between them.  So does an induced cycle
    of length >= 4: its least vertex has both cycle neighbours above it,
    and those two edges share the smaller end, which forces an edge
    between the neighbours, a chord.  So G must be chordal."""
    if G.n > LABELING_SEARCH_CAP:
        raise SizeLimitError(
            f"exhaustive closed-labeling search capped at n={LABELING_SEARCH_CAP}"
        )
    adj = G.adj
    if any(not (b in adj[a] or c in adj[a] or c in adj[b])
           for v in G.vertices for a, b, c in combinations(adj[v], 3)):
        return None
    if not _is_chordal(G):
        return None
    return _search_labeling(G, _closed_triple)


def _is_chordal(G: Graph) -> bool:
    """Deletes simplicial vertices (neighbours pairwise adjacent) while
    there are any; G is chordal iff none is left.  Every chordal graph
    has a simplicial vertex (Dirac 1961) and its induced subgraphs are
    chordal, so a chordal G is deleted whole.  While an induced cycle of
    length >= 4 is left, each of its vertices has two non-adjacent
    neighbours on it, so none of them is ever deleted."""
    adj = G.adj
    left = set(G.vertices)
    while left:
        v = next((v for v in left
                  if all(c in adj[b] for b, c in combinations(adj[v] & left, 2))), None)
        if v is None:
            return False
        left.remove(v)
    return True


def find_weakly_closed_labeling(G: Graph):
    """A weakly closed labeling of G, searched for only if is_weakly_closed(G)."""
    if G.n > LABELING_SEARCH_CAP:
        raise SizeLimitError(
            f"exhaustive weakly-closed-labeling search capped at n={LABELING_SEARCH_CAP}"
        )
    if not is_weakly_closed(G):
        return None
    return _search_labeling(G, _weakly_closed_triple)


def is_weakly_closed(G: Graph) -> bool:
    """True iff the complement of G is a comparability graph (Matsuda
    2018).

    A labeling is weakly closed iff for labels i < j < k, non-edges
    {i, j} and {j, k} force the non-edge {i, k}: that is, iff orienting
    each non-edge from the smaller to the larger label is transitive.
    Conversely, a linear extension of a transitive orientation of the
    complement is a labeling whose non-edges point from smaller to
    larger label, so it is weakly closed.
    """
    return is_comparability(complement(G))


# ----------------------------------------------------------- comparability

def is_comparability(G: Graph) -> bool:
    """True iff G admits a transitive orientation.

    Golumbic's TRO theorem (*Algorithmic Graph Theory and Perfect Graphs*,
    1980, ch. 5).  Whenever b and c are non-adjacent neighbours of a, a
    transitive orientation holds (a, b) iff it holds (a, c), and (b, a)
    iff (c, a), since otherwise b, a, c would be a directed path with no
    arc between its ends.  The classes of arcs so linked are the
    implication classes, and G is a comparability graph iff no class
    holds both an arc and its reverse.
    """
    adj = G.adj
    parent = {(a, b): (a, b) for a in G.vertices for b in adj[a]}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a in G.vertices:
        for b, c in combinations(adj[a], 2):
            if c not in adj[b]:
                parent[find((a, b))] = find((a, c))
                parent[find((b, a))] = find((c, a))
    return all(find((a, b)) != find((b, a)) for a, b in G.edges)


# --------------------------------------------------------------- net-free

def is_net_free(G: Graph) -> bool:
    """No 6-vertex subset induces the net (triangle with three pendants).

    A graph on 6 vertices with degrees (1,1,1,3,3,3) is the net, so the
    induced degrees alone decide.  No two pendants are adjacent: if they
    were, the other four vertices (one pendant and the three of degree 3)
    would keep all their edges among themselves, so each degree-3 vertex
    would be adjacent to that pendant, giving it degree 3.  So each
    pendant hangs on a degree-3 vertex, and the degree-3 vertices span
    (9 - 3)/2 = 3 edges among themselves: a triangle, which leaves each
    of them exactly one pendant.
    """
    if G.n < 6:
        return True
    adj = G.adj
    for sub in combinations(G.vertices, 6):
        s = frozenset(sub)
        if sorted(len(adj[v] & s) for v in sub) == [1, 1, 1, 3, 3, 3]:
            return False
    return True


# -------------------------------------------------- generalized caterpillar

@dataclass(frozen=True)
class GenCatWitness:
    """Construction witness: a bare central path (the base caterpillar),
    clique joins on distinct path edges, then whiskers."""

    n: int
    path: tuple  # vertex sequence, consecutive vertices adjacent
    joins: tuple  # ((u, v), t, new_vertices) per clique join
    whiskers: tuple  # (attach_vertex, leaf)

    def replay(self) -> Graph:
        """Rebuild the host graph from the witness."""
        edges = set()
        for a, b in zip(self.path, self.path[1:]):
            edges.add(edge(a, b))
        for (e, t, new) in self.joins:
            members = sorted(set(e) | set(new))
            if len(members) != t:
                raise ValueError("inconsistent clique join in witness")
            for a, b in combinations(members, 2):
                edges.add(edge(a, b))
        for (v, leaf) in self.whiskers:
            edges.add(edge(v, leaf))
        return Graph(self.n, frozenset(edges))


def is_generalized_caterpillar(G: Graph):
    """Witness decomposition as a generalized caterpillar, or None.

    G is one iff it is a connected block graph whose core, the blocks
    holding no leaf, forms a path: no vertex lies in three core blocks
    and no core block shares three vertices with the others (pendant
    edges are leaves of the block-cutpoint tree, so the core is a
    subtree).  Only if: a leaf at an end of a witness path can be re-read
    as a whisker; then the core blocks are the path edges, each grown
    into a clique when joined, in path order.  If: every bridge between
    non-leaves must be a path edge, or replay misses it, so the path
    visits every core block and passes through each big block on exactly
    two vertices; the walk below builds it.  Each end is a non-cut vertex
    of an end block, one carrying a whisker first (else ``gencat_labeling``
    would place that whisker away from its vertex), then extended by its
    least whisker; a star's path is its centre so extended.  On a
    caterpillar tree the core is the spine of non-leaf vertices, so the
    path is the least longest path, read in its smaller direction: the
    spine with the least whisker at each end.  The witness is checked by
    replay.
    """
    if not is_connected(G) or not is_block_graph(G):
        return None
    if G.n <= 2:
        return GenCatWitness(G.n, tuple(G.vertices), (), ())
    leaves = {v for v in G.vertices if G.degree(v) == 1}
    core = [b for b in blocks(G) if not b & leaves]
    home = {}
    for i, b in enumerate(core):
        for v in b:
            home.setdefault(v, []).append(i)
    shared = [{v for v in b if len(home[v]) > 1} for b in core]
    if any(len(h) > 2 for h in home.values()) or any(len(s) > 2 for s in shared):
        return None
    whiskers = {v: sorted(G.adj[v] & leaves) for v in G.vertices}
    if core:
        i = next(i for i, s in enumerate(shared) if len(s) <= 1)
        first, cuts = i, []
        while nxt := shared[i] - set(cuts):
            (c,) = nxt
            cuts.append(c)
            (i,) = set(home[c]) - {i}
        rank = {v: (not whiskers[v], v) for v in G.vertices}
        a = min(core[first] - set(cuts), key=rank.get)
        b = min(core[i] - set(cuts) - {a}, key=rank.get)
        path = [a, *cuts, b]
    else:
        path = [v for v in G.vertices if v not in leaves]
    head = whiskers[path[0]][:1]
    tail = [w for w in whiskers[path[-1]] if w not in head][:1]
    path = head + path + tail
    path = tuple(min(path, path[::-1]))
    on_path = set(path)
    joins = sorted((edge(*(b & on_path)), len(b), tuple(sorted(b - on_path)))
                   for b in core if len(b) >= 3)
    witness = GenCatWitness(
        G.n,
        path,
        tuple(joins),
        tuple((min(G.adj[w]), w) for w in sorted(leaves - on_path)),
    )
    return witness if witness.replay() == G else None


def gencat_labeling(G: Graph) -> Labeling:
    """The weakly-closed labeling for net-free generalized caterpillars,
    caterpillar trees among them: walk the witness path, labeling each
    path vertex, then its whiskers, then the clique vertices on the next
    path edge with their whiskers."""
    if not is_net_free(G):
        raise ValueError("graph contains an induced net")
    witness = is_generalized_caterpillar(G)
    if witness is None:
        raise ValueError("not a generalized caterpillar")
    P = witness.path
    block_on_edge = {e: set(e) | set(new) for (e, t, new) in witness.joins}
    pend = {}
    for attach, leaf in witness.whiskers:
        pend.setdefault(attach, []).append(leaf)
    order = []
    for idx, v in enumerate(P):
        order.append(v)
        order.extend(sorted(pend.get(v, ())))
        if idx + 1 < len(P):
            e = edge(v, P[idx + 1])
            for z in sorted(block_on_edge.get(e, set()) - {v, P[idx + 1]}):
                order.append(z)
                order.extend(sorted(pend.get(z, ())))
    lab = Labeling.from_order(order)
    if not is_weakly_closed_with_labeling(G, lab):
        raise AssertionError("constructed labeling failed the weak-closedness check")
    return lab
