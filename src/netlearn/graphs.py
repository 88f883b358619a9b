"""Directed social-network graphs, family generators, rooted balls and the
dyadic ball metric.

All operations are pure functions over immutable graph values.  Neighborhoods
are self-inclusive throughout: ``closed_nbrs(i)`` always contains ``i``.
``generate`` builds a graph from a spec string such as ``royal_family(3,10)``;
``role_names`` names the roles of royal_family and mad_king vertices.
"""
from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

__all__ = [
    "DirectedGraph",
    "RootedBall",
    "generate",
    "role_names",
    "is_strongly_connected",
    "min_l_connectivity",
    "out_degree_bound",
    "bfs_distances",
    "all_balls",
    "extract_ball",
    "balls_isomorphic",
    "balls_isomorphic_bruteforce",
    "rooted_distance",
    "to_edge_list_text",
    "from_edge_list_text",
]


@dataclass(frozen=True)
class DirectedGraph:
    """Simple directed graph on vertices 0..n-1.

    ``family`` carries the generator tag and parameters when the graph came
    from a built-in family; it does not participate in equality.
    """

    n: int
    edges: frozenset
    family: Optional[tuple] = field(default=None, compare=False)

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("graph needs at least one vertex")
        out = [[] for _ in range(self.n)]
        for (i, j) in self.edges:
            if not (0 <= i < self.n and 0 <= j < self.n):
                raise ValueError(f"edge ({i},{j}) out of range")
            if i == j:
                raise ValueError(f"self-loop at {i} not allowed")
            out[i].append(j)
        object.__setattr__(self, "_out", tuple(tuple(sorted(o)) for o in out))
        object.__setattr__(
            self,
            "_closed",
            tuple(tuple(sorted(set(o) | {i})) for i, o in enumerate(out)),
        )

    def out_neighbors(self, i):
        return self._out[i]

    def closed_nbrs(self, i):
        """Out-neighbors of i together with i itself, sorted."""
        return self._closed[i]

    def has_edge(self, i, j):
        return (i, j) in self.edges

    @property
    def family_tag(self):
        return None if self.family is None else self.family[0]

    def family_params(self):
        return {} if self.family is None else dict(self.family[1])


def _csr(g: DirectedGraph):
    """(indptr, indices): the sorted out-neighbour lists as compressed
    rows, vertex v's being indices[indptr[v]:indptr[v + 1]]."""
    indptr = np.zeros(g.n + 1, dtype=np.int64)
    np.cumsum([len(o) for o in g._out], out=indptr[1:])
    indices = np.fromiter(itertools.chain.from_iterable(g._out),
                          dtype=np.int64, count=int(indptr[-1]))
    return indptr, indices


def _drop_known(keys, known):
    """The sorted ``keys`` that are not in the sorted ``known``."""
    if not len(known):
        return keys
    at = np.searchsorted(known, keys)
    np.minimum(at, len(known) - 1, out=at)
    return keys[known[at] != keys]


def _merge(a, b):
    """The sorted union of two disjoint sorted key arrays (a stable sort
    of two runs is one merge)."""
    if not len(a):
        return b
    union = np.concatenate((a, b))
    union.sort(kind="stable")
    return union


def _ball_levels(g: DirectedGraph, radius: int, cap: int):
    """The keys source * n + member of the members at distance 0, 1, ...,
    at most ``radius``, of every source, one sorted array per distance;
    None once there are more than ``cap``."""
    n = g.n
    if n > cap:
        return None
    indptr, indices = _csr(g)
    level = np.arange(n, dtype=np.int64) * (n + 1)
    levels, seen = [level], level
    for _ in range(radius):
        source, vertex = np.divmod(level, n)
        first = indptr[vertex]
        deg = indptr[vertex + 1] - first
        ends = np.cumsum(deg)
        found = level[:0]
        lo = 0
        while lo < len(level):
            base = int(ends[lo - 1]) if lo else 0
            hi = max(lo + 1, int(np.searchsorted(ends, base + cap, "right")))
            d = deg[lo:hi]
            # expanded entry e of the slice (e counted from its start) is
            # out-neighbour e - (ends[j] - d[j] - base) of frontier vertex j
            pos = np.repeat(first[lo:hi] - (ends[lo:hi] - d - base), d)
            pos += np.arange(len(pos))
            keys = np.repeat(source[lo:hi] * n, d)
            keys += indices[pos]
            keys.sort()
            distinct = np.empty(len(keys), dtype=bool)
            distinct[:1] = True
            np.not_equal(keys[1:], keys[:-1], out=distinct[1:])
            found = _merge(found, _drop_known(
                _drop_known(keys[distinct], seen), found))
            if len(seen) + len(found) > cap:
                return None
            lo = hi
        if not len(found):
            break
        seen = _merge(seen, found)
        levels.append(found)
        level = found
    return levels


def all_balls(g: DirectedGraph, radius: int, max_entries=None):
    """The balls of ``radius`` around every vertex, as three int64 arrays
    (distance, source, member) sorted by (distance, source, member): one
    entry per member within ``radius`` of its source, as in
    ``bfs_distances(g, source, radius)``.  Returns None once the balls
    hold more than ``max_entries`` entries (no limit when it is None).

    One breadth-first search runs from all sources at once, a level at a
    time.  A level expands its frontier through the out-neighbour arrays,
    in slices of at most ``max_entries`` expanded entries (plus one
    vertex's out-degree), dedupes each slice's keys source * n + member by
    sorting them and drops the keys already reached with ``searchsorted``
    against the sorted keys seen so far; so no temporary grows past a
    small multiple of ``max_entries``."""
    if radius < 0:
        return tuple(np.zeros(0, dtype=np.int64) for _ in range(3))
    levels = _ball_levels(g, radius,
                          g.n * g.n if max_entries is None else max_entries)
    if levels is None:
        return None
    counts = [len(x) for x in levels]
    keys = np.concatenate(levels)
    del levels
    source, member = np.divmod(keys, g.n)
    del keys
    return (np.repeat(np.arange(len(counts), dtype=np.int64), counts),
            source, member)


def bfs_distances(g: DirectedGraph, source: int,
                  radius: Optional[int] = None):
    """Distance from ``source`` to every vertex, -1 for every vertex the
    breadth-first search did not reach; the search stops expanding at
    ``radius`` (no limit when it is None, all -1 when it is negative)."""
    dist = [-1] * g.n
    if radius is None:
        radius = g.n  # above every distance
    elif radius < 0:
        return dist
    dist[source] = 0
    out = g._out
    q = deque([source])
    while q:
        v = q.popleft()
        d = dist[v] + 1
        if d > radius:
            break
        for w in out[v]:
            if dist[w] < 0:
                dist[w] = d
                q.append(w)
    return dist


def is_strongly_connected(g: DirectedGraph) -> bool:
    """True iff every ordered vertex pair is joined by a directed path."""
    if g.n == 1:
        return True
    if any(d < 0 for d in bfs_distances(g, 0)):
        return False
    rev = DirectedGraph(g.n, frozenset((j, i) for (i, j) in g.edges))
    return all(d >= 0 for d in bfs_distances(rev, 0))


def all_pairs_distances(g: DirectedGraph):
    """List of BFS distance lists, one per source; -1 marks unreachable."""
    return [bfs_distances(g, s) for s in range(g.n)]


def min_l_connectivity(g: DirectedGraph, dist=None) -> int:
    """Smallest L such that every edge (i,j) has a return path j->i of
    length at most L.  L = 1 exactly when the edge set is symmetric.

    ``dist`` is ``all_pairs_distances(g)``, for a caller that holds it
    already."""
    if dist is None:
        dist = all_pairs_distances(g)
    if min(map(min, dist)) < 0:
        raise ValueError("L-connectivity requires a strongly connected graph")
    if not g.edges:
        return 0
    return max(dist[j][i] for (i, j) in g.edges)


def out_degree_bound(g: DirectedGraph) -> int:
    """Max over vertices of |closed neighborhood| (self-inclusive)."""
    return max(len(g.closed_nbrs(i)) for i in range(g.n))


@dataclass(frozen=True)
class RootedBall:
    """Rooted subgraph induced by the vertices at directed distance <= radius
    from the root.  Vertex labels are those of the parent graph; ``distances``
    are those from the root found by the search that found the ball."""

    root: int
    radius: int
    vertices: frozenset
    edges: frozenset
    distances: dict = field(compare=False, repr=False)

    def __post_init__(self):
        if self.root not in self.vertices:
            raise ValueError("root must belong to the ball")
        if self.distances.keys() != self.vertices:
            raise ValueError("a ball needs the distance of every vertex")

    @property
    def n(self):
        return len(self.vertices)


def extract_ball(g: DirectedGraph, root: int, r: int) -> RootedBall:
    if not (0 <= root < g.n):
        raise ValueError(f"invalid root {root}")
    if r < 0:
        raise ValueError("radius must be nonnegative")
    dist = {v: d for v, d in enumerate(bfs_distances(g, root, r)) if d >= 0}
    edges = frozenset((i, j) for (i, j) in g.edges if i in dist and j in dist)
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


# ---------------------------------------------------------------------------
# family generators

def _undirected(pairs):
    out = set()
    for (i, j) in pairs:
        out.add((i, j))
        out.add((j, i))
    return out


def chain(n: int) -> DirectedGraph:
    """Undirected path on n vertices (both edge directions)."""
    if n < 1:
        raise ValueError("n >= 1 required")
    e = _undirected((i, i + 1) for i in range(n - 1))
    return DirectedGraph(n, frozenset(e), ("chain", (("n", n),)))


def dicycle(n: int) -> DirectedGraph:
    """Directed cycle 0 -> 1 -> ... -> n-1 -> 0."""
    if n < 2:
        raise ValueError("n >= 2 required")
    e = frozenset((i, (i + 1) % n) for i in range(n))
    return DirectedGraph(n, e, ("dicycle", (("n", n),)))


def cycle(n: int) -> DirectedGraph:
    """Undirected cycle on n vertices."""
    if n < 3:
        raise ValueError("n >= 3 required")
    e = _undirected((i, (i + 1) % n) for i in range(n))
    return DirectedGraph(n, frozenset(e), ("cycle", (("n", n),)))


def grid(a: int, b: int) -> DirectedGraph:
    """Undirected a x b grid with 4-neighbor adjacency."""
    if a < 1 or b < 1:
        raise ValueError("grid dimensions must be positive")
    idx = lambda r, c: r * b + c
    pairs = []
    for r in range(a):
        for c in range(b):
            if c + 1 < b:
                pairs.append((idx(r, c), idx(r, c + 1)))
            if r + 1 < a:
                pairs.append((idx(r, c), idx(r + 1, c)))
    return DirectedGraph(a * b, frozenset(_undirected(pairs)),
                         ("grid", (("a", a), ("b", b))))


def random_regular(n: int, d: int, seed: int) -> DirectedGraph:
    """Random d-regular undirected graph, drawn with seeds seed, seed + 1,
    ... until one is connected (at most 100 draws)."""
    import networkx as nx

    if not 0 <= d < n or n * d % 2:
        raise ValueError(f"no {d}-regular graph on {n} vertices: "
                         "0 <= d < n and an even n * d are required")
    for attempt in range(100):
        h = nx.random_regular_graph(d, n, seed=seed + attempt)
        if nx.is_connected(h):
            e = frozenset(_undirected(h.edges()))
            return DirectedGraph(
                n, e, ("random_regular", (("n", n), ("d", d), ("seed", seed))))
    raise ValueError(f"no connected {d}-regular graph on {n} vertices "
                     "in 100 draws")


def royal_family(R: int, n: int) -> DirectedGraph:
    """Clique of R mutually-observing royals; an undirected public chain of n
    agents who all observe every royal; royal 0 observes public agent 0."""
    if R < 1 or n < 1:
        raise ValueError("R >= 1 and n >= 1 required")
    royals = list(range(R))
    public = list(range(R, R + n))
    e = set()
    for i in royals:
        for j in royals:
            if i != j:
                e.add((i, j))
    e |= _undirected((public[k], public[k + 1]) for k in range(n - 1))
    for p in public:
        for r in royals:
            e.add((p, r))
    e.add((royals[0], public[0]))
    return DirectedGraph(R + n, frozenset(e),
                         ("royal_family", (("R", R), ("n", n))))


def mad_king(R_C: int, R_B: int, n: int) -> DirectedGraph:
    """Undirected star-of-stars: king u -- regent, court, people;
    regent -- bureaucracy.  Vertex order: king, regent, court, bureaucracy,
    people."""
    if R_C < 1 or R_B < 1 or n < 1:
        raise ValueError("all class sizes must be >= 1")
    king = 0
    regent = 1
    court = list(range(2, 2 + R_C))
    bureau = list(range(2 + R_C, 2 + R_C + R_B))
    people = list(range(2 + R_C + R_B, 2 + R_C + R_B + n))
    pairs = [(king, regent)]
    pairs += [(king, c) for c in court]
    pairs += [(king, p) for p in people]
    pairs += [(regent, b) for b in bureau]
    return DirectedGraph(
        2 + R_C + R_B + n, frozenset(_undirected(pairs)),
        ("mad_king", (("R_C", R_C), ("R_B", R_B), ("n", n))))


def role_names(g: DirectedGraph):
    """{vertex: role} for a royal_family or a mad_king graph, in the vertex
    order of the generators above; None for any other graph."""
    p = g.family_params()
    if g.family_tag == "royal_family":
        sizes = (("royal", p["R"]), ("public", p["n"]))
    elif g.family_tag == "mad_king":
        sizes = (("king", 1), ("regent", 1), ("court", p["R_C"]),
                 ("bureaucracy", p["R_B"]), ("person", p["n"]))
    else:
        return None
    return dict(enumerate(role for role, k in sizes for _ in range(k)))


_FAMILIES = {
    "chain": (chain, ("n",)),
    "dicycle": (dicycle, ("n",)),
    "cycle": (cycle, ("n",)),
    "grid": (grid, ("a", "b")),
    "random_regular": (random_regular, ("n", "d", "seed")),
    "royal_family": (royal_family, ("R", "n")),
    "mad_king": (mad_king, ("R_C", "R_B", "n")),
}


def generate(spec: str, seed: int = 0) -> DirectedGraph:
    """Build the graph of a compact spec like ``dicycle(6)`` or
    ``royal_family(3,10)``.  Positional arguments follow the family's
    parameter order; a family that takes a seed and is given none gets
    ``seed``."""
    text = spec.strip()
    if "(" not in text or not text.endswith(")"):
        raise ValueError(f"bad family spec {text!r}")
    tag, rest = text.split("(", 1)
    tag = tag.strip()
    if tag not in _FAMILIES:
        raise ValueError(f"unknown family {tag!r}")
    fn, names = _FAMILIES[tag]
    args = [a.strip() for a in rest[:-1].split(",") if a.strip()]
    if len(args) > len(names):
        raise ValueError(f"too many parameters for {tag}"
                         f"({', '.join(names)}): got {len(args)}")
    params = {}
    for name, a in zip(names, args):
        try:
            params[name] = int(a)
        except ValueError:
            raise ValueError(f"{tag} parameter {name} must be an integer, "
                             f"got {a!r}") from None
    if "seed" in names:
        params.setdefault("seed", seed)
    missing = [a for a in names if a not in params]
    if missing:
        raise ValueError(f"family {tag} missing parameters {missing}")
    return fn(**params)


# ---------------------------------------------------------------------------
# serialization

def to_edge_list_text(g: DirectedGraph) -> str:
    lines = [f"n={g.n}"]
    lines += [f"{i} {j}" for (i, j) in sorted(g.edges)]
    return "\n".join(lines) + "\n"


def from_edge_list_text(text: str) -> DirectedGraph:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("n="):
        raise ValueError("edge list must start with an 'n=<count>' header")
    n = int(lines[0][2:])
    edges = set()
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise ValueError(f"bad edge line {ln!r}")
        edges.add((int(parts[0]), int(parts[1])))
    return DirectedGraph(n, frozenset(edges))
