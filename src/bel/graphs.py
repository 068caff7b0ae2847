"""Simple graphs on labeled vertices 1..n and their structural
decompositions: components, blocks, whiskers, clique joins.

Graphs are immutable; all operations are pure functions.  Every layer
reads neighbourhoods from ``Graph.adj``, built once per graph;
components are a traversal over it, and blocks split a component at a
cutpoint those traversals find.  The library does not import networkx;
only ``Graph.to_networkx`` does, for the oracles that use it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations


def edge(u: int, v: int) -> tuple:
    if u == v:
        raise ValueError(f"loop at vertex {u}")
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class Graph:
    """Simple graph on vertex set {1..n}; edges as sorted pairs."""

    n: int
    edges: frozenset

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("vertex count must be positive")
        for (u, v) in self.edges:
            if not (1 <= u < v <= self.n):
                raise ValueError(f"bad edge ({u}, {v}) for n={self.n}")

    @staticmethod
    def from_edges(n: int, pairs) -> "Graph":
        return Graph(n, frozenset(edge(u, v) for u, v in pairs))

    @staticmethod
    def complete(n: int) -> "Graph":
        return Graph.from_edges(n, combinations(range(1, n + 1), 2))

    @staticmethod
    def path(n: int) -> "Graph":
        return Graph.from_edges(n, ((i, i + 1) for i in range(1, n)))

    @staticmethod
    def cycle(n: int) -> "Graph":
        if n < 3:
            raise ValueError("cycle needs at least 3 vertices")
        return Graph.from_edges(n, [(i, i + 1) for i in range(1, n)] + [(1, n)])

    @staticmethod
    def star(leaves: int) -> "Graph":
        """K_{1,leaves} with center 1."""
        return Graph.from_edges(leaves + 1, ((1, i) for i in range(2, leaves + 2)))

    @staticmethod
    def empty(n: int) -> "Graph":
        return Graph(n, frozenset())

    @property
    def vertices(self) -> range:
        return range(1, self.n + 1)

    @cached_property
    def adj(self) -> dict:
        """Vertex -> frozenset of neighbours; not part of == or hash."""
        nbrs = {v: set() for v in self.vertices}
        for a, b in self.edges:
            nbrs[a].add(b)
            nbrs[b].add(a)
        return {v: frozenset(s) for v, s in nbrs.items()}

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adj[u]

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def to_networkx(self) -> "networkx.Graph":
        """The same graph as a networkx.Graph on nodes 1..n, for oracles
        outside the library; networkx is a dev dependency, imported here."""
        import networkx as nx

        g = nx.Graph()
        g.add_nodes_from(self.vertices)
        g.add_edges_from(self.edges)
        return g

    def __str__(self):
        return to_text(self)


# ---------------------------------------------------------------- structure

def connected_components(G: Graph) -> list:
    """Maximal connected vertex sets, ordered by least vertex."""
    return components_within(G, G.vertices)


def is_connected(G: Graph) -> bool:
    return len(connected_components(G)) == 1


def blocks(G: Graph) -> list:
    """Vertex sets of the blocks (maximal 2-connected subgraphs or
    bridges), ordered by size descending then vertex sequence.  Isolated
    vertices form no block.

    A connected vertex set is split at its least cutpoint v: every block
    lies inside one component of the set minus v with v added back, and
    the blocks of those connected parts are blocks of G.  A set of two or
    more vertices with no cutpoint is a block."""
    out = []

    def split(verts):
        for v in sorted(verts):
            parts = components_within(G, verts - {v})
            if len(parts) > 1:
                for part in parts:
                    split(part | {v})
                return
        out.append(verts)

    for comp in connected_components(G):
        if len(comp) > 1:
            split(comp)
    return sorted(out, key=lambda b: (-len(b), sorted(b)))


def is_block_graph(G: Graph) -> bool:
    """True iff every block induces a complete graph."""
    return all(
        all(G.has_edge(u, v) for u, v in combinations(sorted(b), 2)) for b in blocks(G)
    )


def dominating_set_T(G: Graph) -> set:
    """Vertices adjacent to all others."""
    return {v for v in G.vertices if G.degree(v) == G.n - 1}


def components_within(G: Graph, verts) -> list:
    """Connected components of the induced subgraph on verts (original
    labels), ordered by least vertex (each one grows from its least)."""
    unseen = set(verts)
    comps = []
    for root in sorted(unseen):
        if root in unseen:
            unseen.discard(root)
            comp, stack = {root}, [root]
            while stack:
                new = G.adj[stack.pop()] & unseen
                unseen -= new
                comp |= new
                stack.extend(new)
            comps.append(comp)
    return comps


def ass_count_is_two(G: Graph) -> bool:
    """Combinatorial test for the binomial edge ideal having exactly two
    associated primes: T_G nonempty, the induced graph on the rest
    disconnected and a disjoint union of complete graphs."""
    if not is_connected(G):
        raise ValueError("requires a connected graph")
    T = dominating_set_T(G)
    if not T:
        return False
    rest = set(G.vertices) - T
    comps = components_within(G, rest)
    if len(comps) < 2:
        return False
    for comp in comps:
        if not all(G.has_edge(u, v) for u, v in combinations(sorted(comp), 2)):
            return False
    return True


# ------------------------------------------------------------ constructions

def add_whisker(G: Graph, v: int) -> Graph:
    """New pendant vertex n+1 attached to v."""
    if not 1 <= v <= G.n:
        raise ValueError(f"vertex {v} out of range")
    return Graph(G.n + 1, G.edges | {edge(v, G.n + 1)})


def clique_join(G: Graph, e: tuple, t: int) -> Graph:
    """Attach K_t to G on the existing edge e: t-2 new vertices adjacent
    to both endpoints of e and to each other."""
    if t < 2:
        raise ValueError("clique size must be at least 2")
    e = edge(*e)
    if e not in G.edges:
        raise ValueError(f"edge {e} not in graph")
    new = list(range(G.n + 1, G.n + t - 1))
    extra = set()
    for u in new:
        extra.add(edge(e[0], u))
        extra.add(edge(e[1], u))
    for u, v in combinations(new, 2):
        extra.add(edge(u, v))
    return Graph(G.n + t - 2, G.edges | extra)


def complement(G: Graph) -> Graph:
    all_pairs = {edge(u, v) for u, v in combinations(G.vertices, 2)}
    return Graph(G.n, frozenset(all_pairs - G.edges))


def disjoint_union(G: Graph, H: Graph) -> Graph:
    shifted = {edge(u + G.n, v + G.n) for (u, v) in H.edges}
    return Graph(G.n + H.n, G.edges | shifted)


def relabel(G: Graph, sigma: dict) -> Graph:
    """Image of G under a vertex bijection sigma: v -> new label."""
    if sorted(sigma) != list(G.vertices) or sorted(sigma.values()) != list(G.vertices):
        raise ValueError("sigma is not a bijection of the vertex set")
    return Graph(G.n, frozenset(edge(sigma[u], sigma[v]) for (u, v) in G.edges))


def net_graph() -> Graph:
    """Triangle {1,2,3} with pendants 4,5,6 at 1,2,3."""
    return Graph.from_edges(6, [(1, 2), (1, 3), (2, 3), (1, 4), (2, 5), (3, 6)])


# -------------------------------------------------------------------- text

class GraphParseError(ValueError):
    pass


def from_text(text: str) -> Graph:
    """Parse the graph text format: optional "n <count>" header, one
    "u v" edge per line, '#' comments and blank lines ignored."""
    n = None
    pairs = []
    max_seen = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "n":
            if len(parts) != 2 or n is not None:
                raise GraphParseError(f"line {lineno}: bad header {raw!r}")
            try:
                n = int(parts[1])
            except ValueError:
                raise GraphParseError(f"line {lineno}: bad vertex count {parts[1]!r}")
            if n < 1:
                raise GraphParseError(f"line {lineno}: vertex count must be positive, got {n}")
            continue
        if len(parts) != 2:
            raise GraphParseError(f"line {lineno}: expected 'u v', got {raw!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphParseError(f"line {lineno}: non-integer endpoint in {raw!r}")
        if u == v:
            raise GraphParseError(f"line {lineno}: loop at {u}")
        if u < 1 or v < 1:
            raise GraphParseError(f"line {lineno}: vertices are 1-indexed")
        pairs.append((u, v))
        max_seen = max(max_seen, u, v)
    if n is None:
        n = max_seen
    if n < 1:
        raise GraphParseError("empty input and no 'n' header")
    if max_seen > n:
        raise GraphParseError(f"edge endpoint {max_seen} exceeds declared n={n}")
    return Graph.from_edges(n, pairs)


def from_file(path) -> Graph:
    with open(path) as fh:
        return from_text(fh.read())


def to_text(G: Graph) -> str:
    lines = [f"n {G.n}"]
    lines += [f"{u} {v}" for (u, v) in sorted(G.edges)]
    return "\n".join(lines) + "\n"
