"""Topology of directed graphs, the analysis behind the theorems: strong
connectivity, egalitarian L-connectivity and the diameter, rooted balls,
their isomorphism and the dyadic ball metric ``rooted_distance``."""
from __future__ import annotations

import itertools

from .graphs import DirectedGraph, bfs_distances, bfs_rows

__all__ = [
    "RootedBall",
    "is_strongly_connected",
    "min_l_connectivity",
    "l_connectivity_and_diameter",
    "out_degree_bound",
    "extract_ball",
    "balls_isomorphic",
    "balls_isomorphic_bruteforce",
    "rooted_distance",
]


def is_strongly_connected(g: DirectedGraph) -> bool:
    """True iff every ordered vertex pair is joined by a directed path."""
    if g.n == 1:
        return True
    if any(d < 0 for d in bfs_distances(g, 0)):
        return False
    rev = DirectedGraph(g.n, g.pairs()[:, ::-1])
    return all(d >= 0 for d in bfs_distances(rev, 0))


def l_connectivity_and_diameter(g: DirectedGraph):
    """(``min_l_connectivity(g)``, the diameter) from one BFS per source,
    holding one distance row at a time: the row of j gives j's eccentricity
    and, at each i with an edge (i, j), that edge's return distance."""
    rev = DirectedGraph(g.n, g.pairs()[:, ::-1])
    L = diameter = 0
    for j, row in enumerate(bfs_rows(g, range(g.n))):
        if -1 in row:
            raise ValueError(
                "L-connectivity requires a strongly connected graph")
        diameter = max(diameter, max(row))
        L = max(L, max(map(row.__getitem__, rev.out_neighbors(j)), default=0))
    return L, diameter


def min_l_connectivity(g: DirectedGraph) -> int:
    """Smallest L such that every edge (i,j) has a return path j->i of
    length at most L (1 exactly when the edge set is symmetric), from the
    rows ``l_connectivity_and_diameter`` streams one at a time."""
    return l_connectivity_and_diameter(g)[0]


def out_degree_bound(g: DirectedGraph) -> int:
    """Max over vertices of |closed neighborhood| (self-inclusive)."""
    return int((g.indptr[1:] - g.indptr[:-1]).max()) + 1


class RootedBall:
    """Rooted subgraph induced by the vertices at directed distance <= radius
    from the root.  Vertex labels are those of the parent graph; ``distances``
    are those from the root found by the search that found the ball, and do
    not participate in equality; so a class, not a NamedTuple, whose
    equality would be the tuple's, ``distances`` included."""

    __slots__ = ("root", "radius", "vertices", "edges", "distances")

    def __init__(self, root: int, radius: int, vertices: frozenset,
                 edges: frozenset, distances: dict):
        if root not in vertices:
            raise ValueError("root must belong to the ball")
        if distances.keys() != vertices:
            raise ValueError("a ball needs the distance of every vertex")
        self.root, self.radius, self.vertices = root, radius, vertices
        self.edges, self.distances = edges, distances

    def _key(self):
        return self.root, self.radius, self.vertices, self.edges

    def __eq__(self, other):
        return type(other) is RootedBall and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    @property
    def n(self):
        return len(self.vertices)


def extract_ball(g: DirectedGraph, root: int, r: int) -> RootedBall:
    if not (0 <= root < g.n):
        raise ValueError(f"invalid root {root}")
    if r < 0:
        raise ValueError("radius must be nonnegative")
    dist = {v: d for v, d in enumerate(bfs_distances(g, root, r)) if d >= 0}
    edges = frozenset((i, j) for i in dist for j in g.out_neighbors(i)
                      if j in dist)
    return RootedBall(root, r, frozenset(dist), edges, dist)


def _iso_signature(ball: RootedBall):
    outdeg = {v: 0 for v in ball.vertices}
    indeg = {v: 0 for v in ball.vertices}
    for (i, j) in ball.edges:
        outdeg[i] += 1
        indeg[j] += 1
    return {v: (ball.distances[v], outdeg[v], indeg[v])
            for v in ball.vertices}


def balls_isomorphic(a: RootedBall, b: RootedBall):
    """Root-preserving, edge-preserving bijection test.

    Returns ``(True, mapping)`` with a witness dict a-vertex -> b-vertex, or
    ``(False, None)``.  Exhaustive backtracking pruned by distance-from-root
    and degree profiles; intended for desk-scale balls.
    """
    if a.n != b.n or len(a.edges) != len(b.edges):
        return False, None
    sig_a, sig_b = _iso_signature(a), _iso_signature(b)
    if sorted(sig_a.values()) != sorted(sig_b.values()):
        return False, None

    # order a-vertices by distance from root, then by label
    order = sorted(a.vertices, key=lambda v: (sig_a[v][0], v))
    by_sig = {}
    for v in b.vertices:
        by_sig.setdefault(sig_b[v], []).append(v)

    mapping = {}
    used = set()

    def consistent(v, w):
        for u, x in mapping.items():
            if ((u, v) in a.edges) != ((x, w) in b.edges):
                return False
            if ((v, u) in a.edges) != ((w, x) in b.edges):
                return False
        return True

    def backtrack(k):
        if k == len(order):
            return True
        v = order[k]
        candidates = by_sig.get(sig_a[v], [])
        if k == 0:
            candidates = [b.root]
        for w in candidates:
            if w in used or sig_b[w] != sig_a[v]:
                continue
            if not consistent(v, w):
                continue
            mapping[v] = w
            used.add(w)
            if backtrack(k + 1):
                return True
            del mapping[v]
            used.discard(w)
        return False

    if backtrack(0):
        return True, dict(mapping)
    return False, None


def balls_isomorphic_bruteforce(a: RootedBall, b: RootedBall) -> bool:
    """All-permutations oracle; only sensible for balls of <= 8 vertices."""
    if a.n != b.n or len(a.edges) != len(b.edges):
        return False
    a_rest = sorted(a.vertices - {a.root})
    b_rest = sorted(b.vertices - {b.root})
    for perm in itertools.permutations(b_rest):
        h = {a.root: b.root}
        h.update(zip(a_rest, perm))
        if all(((h[i], h[j]) in b.edges) for (i, j) in a.edges):
            # edge counts equal, so injective edge preservation is enough
            return True
    return False


def rooted_distance(g1: DirectedGraph, i1: int, g2: DirectedGraph, i2: int,
                    r_max: int):
    """Dyadic distance 2^(-r*) between rooted graphs, truncated at r_max.

    r* is the largest r <= r_max with isomorphic balls.  Returns a pair
    ``(value, truncated)``; value 0.0 means the balls agree at every radius
    up to r_max and exhaust both graphs identically.
    """
    if r_max < 0:
        raise ValueError(f"r_max must be >= 0, got {r_max}")
    for g, i in ((g1, i1), (g2, i2)):
        if not (0 <= i < g.n):
            raise ValueError(f"invalid root {i}")
        if not is_strongly_connected(g):
            raise ValueError("rooted_distance requires strongly connected graphs")
    r_good = -1
    for r in range(r_max + 1):
        b1 = extract_ball(g1, i1, r)
        b2 = extract_ball(g2, i2, r)
        ok, _ = balls_isomorphic(b1, b2)
        if not ok:
            break
        r_good = r
        if b1.n == g1.n and b2.n == g2.n:
            return 0.0, False
    if r_good == r_max:
        return 2.0 ** (-r_max), True
    return 2.0 ** (-r_good), False
