"""Directed social-network graphs: the graph value, family generators,
breadth-first distances, the balls around every vertex and the edge-list
text form.

All operations are pure functions over immutable graph values.  Neighborhoods
are self-inclusive throughout: ``closed_nbrs(i)`` always contains ``i``.
``generate`` builds a graph from a spec string such as ``royal_family(3,10)``;
``role_names`` names the roles of royal_family and mad_king vertices.
Connectivity, rooted balls and the dyadic ball metric are in ``topology``.
"""
from __future__ import annotations

import itertools
from collections import deque
from typing import Optional

import numpy as np

__all__ = [
    "DirectedGraph",
    "generate",
    "role_names",
    "bfs_distances",
    "all_pairs_distances",
    "all_balls",
    "to_edge_list_text",
    "from_edge_list_text",
]


class DirectedGraph:
    """Simple directed graph on vertices 0..n-1.

    ``family`` carries the generator tag and parameters when the graph came
    from a built-in family; it does not participate in equality.  A class:
    a NamedTuple would compare it, and cannot hold the derived rows.
    """

    __slots__ = ("n", "edges", "family", "_out", "_closed")

    def __init__(self, n: int, edges: frozenset,
                 family: Optional[tuple] = None):
        if n < 1:
            raise ValueError("graph needs at least one vertex")
        out = [[] for _ in range(n)]
        for (i, j) in edges:
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"edge ({i},{j}) out of range")
            if i == j:
                raise ValueError(f"self-loop at {i} not allowed")
            out[i].append(j)
        self.n, self.edges, self.family = n, edges, family
        self._out = tuple(tuple(sorted(o)) for o in out)
        self._closed = tuple(tuple(sorted(set(o) | {i}))
                             for i, o in enumerate(out))

    def __eq__(self, other):
        return (type(other) is DirectedGraph and self.n == other.n
                and self.edges == other.edges)

    def __hash__(self):
        return hash((self.n, self.edges))

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


def _bits(keys):
    """(byte, mask): key k is bit k & 7 of byte k >> 3 of a packed bitmap."""
    mask = keys.astype(np.uint8)
    mask &= 7
    return keys >> 3, np.left_shift(1, mask, out=mask)


def _ball_levels(g: DirectedGraph, radius: int, cap: int):
    """(distance, keys) pairs: the sorted keys source * n + member of the
    members at each distance up to ``radius`` of a block of sources, the
    blocks in source order; None once there are more than ``cap`` keys."""
    n = g.n
    if n > cap:
        return None
    indptr, indices = _csr(g)
    # a block of b sources marks its keys in b * n bits, at most cap bytes
    b = max(1, min(n, 8 * cap // n))
    reached = np.zeros((b * n + 7) // 8, dtype=np.uint8)
    parts, total = [], n
    for start in range(0, n, b):
        # the block's keys are local: (source - start) * n + member
        level = np.arange(start, min(n, start + b)) * (n + 1) - start * n
        np.bitwise_or.at(reached, *_bits(level))
        block = [level]
        while len(block) <= radius:
            source, vertex = np.divmod(level, n)
            first = indptr[vertex]
            deg = indptr[vertex + 1] - first
            ends = np.cumsum(deg)
            found = []
            lo = 0
            while lo < len(level):
                base = int(ends[lo - 1]) if lo else 0
                hi = max(lo + 1,
                         int(np.searchsorted(ends, base + cap, "right")))
                d = deg[lo:hi]
                # expanded entry e of the slice (e from its start) is
                # out-neighbour e - (ends[j] - d[j] - base) of vertex j
                pos = np.repeat(first[lo:hi] - (ends[lo:hi] - d - base), d)
                pos += np.arange(len(pos))
                keys = np.repeat(source[lo:hi] * n, d)
                keys += indices[pos]
                byte, mask = _bits(keys)
                mask &= reached[byte]
                keys = keys[mask == 0]
                keys.sort()
                keys = keys[np.diff(keys, prepend=-1) != 0]
                np.bitwise_or.at(reached, *_bits(keys))
                total += len(keys)
                if total > cap:
                    return None
                found.append(keys)
                lo = hi
            level = found[0] if len(found) == 1 else np.sort(
                np.concatenate(found))
            if not len(level):
                break
            block.append(level)
        # clear the block's bits for the next block; its keys go global
        for level in block:
            reached[level >> 3] = 0
            level += start * n
        parts += enumerate(block)
    return parts


def all_balls(g: DirectedGraph, radius: int, max_entries=None):
    """The balls of ``radius`` around every vertex, as three int64 arrays
    (distance, source, member) sorted by (distance, source, member): one
    entry per member within ``radius`` of its source, as in
    ``bfs_distances(g, source, radius)``.  Returns None once the balls
    hold more than ``max_entries`` entries (no limit when it is None).

    A breadth-first search runs from a block of b sources at once, a level
    at a time, for b = max(1, min(n, 8 * max_entries // n)): the block
    marks the keys source * n + member it has reached in a packed bitmap
    of b * n bits, at most ``max_entries`` bytes, which the next block
    clears and reuses.  A level expands its frontier through the
    out-neighbour arrays, in slices of at most ``max_entries`` expanded
    entries (plus one vertex's out-degree), drops the keys whose bit is
    set, sorts and dedupes the rest and sets their bits; so no temporary
    grows past a small multiple of ``max_entries``.  Within radius 1 there
    is nothing to search: the balls are the vertices themselves, then each
    vertex's out-neighbour list, straight from the compressed rows."""
    if radius < 0:
        return tuple(np.zeros(0, dtype=np.int64) for _ in range(3))
    cap = g.n * g.n if max_entries is None else max_entries
    if radius <= 1:
        indptr, indices = _csr(g)
        if radius == 0:  # no vertex has a ring at distance 1
            indptr, indices = np.zeros_like(indptr), indices[:0]
        if g.n + len(indices) > cap:
            return None
        vertices = np.arange(g.n)
        return (np.repeat(np.arange(2), [g.n, len(indices)]),
                np.concatenate([vertices,
                                np.repeat(vertices, np.diff(indptr))]),
                np.concatenate([vertices, indices]))
    parts = _ball_levels(g, radius, cap)
    if parts is None:
        return None
    parts.sort(key=lambda part: part[0])  # stable: blocks stay in order
    counts = [(d, len(keys)) for d, keys in parts]
    keys = np.concatenate([keys for _, keys in parts])
    del parts
    source, member = np.divmod(keys, g.n)
    del keys
    return np.repeat(*np.array(counts, dtype=np.int64).T), source, member


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


def all_pairs_distances(g: DirectedGraph):
    """List of BFS distance lists, one per source; -1 marks unreachable."""
    return [bfs_distances(g, s) for s in range(g.n)]



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
