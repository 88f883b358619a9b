"""Directed social-network graphs: the graph value, stored once as its
sorted compressed out-rows; family generators, breadth-first distances,
the balls around every vertex and the edge-list text form.

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
    "bfs_rows",
    "all_pairs_distances",
    "all_balls",
    "to_edge_list_text",
    "from_edge_list_text",
]


class DirectedGraph:
    """Simple directed graph on vertices 0..n-1, held only as read-only
    int64 compressed rows: vertex v's out-neighbours are
    ``indices[indptr[v]:indptr[v + 1]]``, sorted and distinct.

    ``edges`` is any iterable of (i, j) pairs or an (m, 2) array; repeats
    collapse.  ``family`` carries the generator tag and parameters when the
    graph came from a built-in family; it does not participate in equality.
    A class: a NamedTuple would compare it, and cannot hold the arrays.
    """

    __slots__ = ("n", "family", "indptr", "indices")

    def __init__(self, n: int, edges, family: Optional[tuple] = None):
        if n < 1:
            raise ValueError("graph needs at least one vertex")
        pairs = (edges if isinstance(edges, np.ndarray)
                 else np.array(list(edges), dtype=object)).reshape(-1, 2)
        bad = pairs[((pairs < 0) | (pairs >= n)).any(axis=1)]
        if len(bad):
            raise ValueError(f"edge ({bad[0, 0]},{bad[0, 1]}) out of range")
        loops = pairs[pairs[:, 0] == pairs[:, 1], 0]
        if len(loops):
            raise ValueError(f"self-loop at {loops[0]} not allowed")
        keys = np.sort(np.asarray(pairs[:, 0] * n + pairs[:, 1], np.int64))
        keys = keys[np.diff(keys, prepend=-1) != 0]
        self.indptr = np.searchsorted(keys, np.arange(n + 1) * n)
        self.indices = keys % n
        self.n, self.family = n, family
        self.indptr.flags.writeable = self.indices.flags.writeable = False

    def __setstate__(self, state):
        # a pickled array comes back writeable; a copy stays read-only
        for name, value in state[1].items():
            setattr(self, name, value)
        self.indptr.flags.writeable = self.indices.flags.writeable = False

    def __eq__(self, other):
        return (type(other) is DirectedGraph and self.n == other.n
                and np.array_equal(self.indptr, other.indptr)
                and np.array_equal(self.indices, other.indices))

    def __hash__(self):
        return hash((self.n, self.indptr.tobytes(), self.indices.tobytes()))

    def pairs(self):
        """The edges as an (m, 2) int64 array of (i, j) rows, sorted."""
        return np.column_stack([np.repeat(np.arange(self.n),
                                          np.diff(self.indptr)), self.indices])

    @property
    def edges(self):
        """The frozenset of (i, j) edge tuples, built at each access."""
        return frozenset(map(tuple, self.pairs().tolist()))

    def out_neighbors(self, i):
        return tuple(self.indices[self.indptr[i]:self.indptr[i + 1]].tolist())

    def closed_nbrs(self, i):
        """Out-neighbors of i together with i itself, sorted."""
        return tuple(sorted(self.out_neighbors(i) + (i,)))

    def has_edge(self, i, j):
        return j in self.out_neighbors(i)

    @property
    def family_tag(self):
        return None if self.family is None else self.family[0]

    def family_params(self):
        return {} if self.family is None else dict(self.family[1])


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
            first = g.indptr[vertex]
            deg = g.indptr[vertex + 1] - first
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
                keys += g.indices[pos]
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
    grows past a small multiple of ``max_entries``."""
    if radius < 0:
        return tuple(np.zeros(0, dtype=np.int64) for _ in range(3))
    cap = g.n * g.n if max_entries is None else max_entries
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


class _Rows:
    """The out-neighbour rows of ``g``, each read when it is indexed."""

    def __init__(self, g):
        self.g = g

    def __getitem__(self, v):
        return self.g.out_neighbors(v)


def _bfs(out, n: int, source: int, radius: Optional[int]):
    dist = [-1] * n
    if radius is None:
        radius = n  # above every distance
    elif radius < 0:
        return dist
    dist[source] = 0
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


def bfs_distances(g: DirectedGraph, source: int,
                  radius: Optional[int] = None):
    """Distance from ``source`` to every vertex, -1 for every vertex the
    breadth-first search did not reach; the search stops expanding at
    ``radius`` (no limit when it is None, all -1 when it is negative).  It
    reads the rows of the vertices it expands only."""
    return _bfs(_Rows(g), g.n, source, radius)


def bfs_rows(g: DirectedGraph, sources, radius: Optional[int] = None):
    """``bfs_distances(g, s, radius)`` for each s of ``sources``, one at a
    time, from the rows read into Python tuples once for all of them."""
    idx = g.indices.tolist()
    out = [tuple(idx[a:b])
           for a, b in itertools.pairwise(g.indptr.tolist())]
    return (_bfs(out, g.n, s, radius) for s in sources)


def all_pairs_distances(g: DirectedGraph):
    """List of BFS distance lists, one per source; -1 marks unreachable."""
    return list(bfs_rows(g, range(g.n)))


# ---------------------------------------------------------------------------
# family generators

def _undirected(pairs):
    """Both directions of each pair of a list or an (m, 2) array."""
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    return np.concatenate([pairs, pairs[:, ::-1]])


def chain(n: int) -> DirectedGraph:
    """Undirected path on n vertices (both edge directions)."""
    if n < 1:
        raise ValueError("n >= 1 required")
    i = np.arange(n - 1)
    return DirectedGraph(n, _undirected(np.column_stack([i, i + 1])),
                         ("chain", (("n", n),)))


def dicycle(n: int) -> DirectedGraph:
    """Directed cycle 0 -> 1 -> ... -> n-1 -> 0."""
    if n < 2:
        raise ValueError("n >= 2 required")
    i = np.arange(n)
    return DirectedGraph(n, np.column_stack([i, (i + 1) % n]),
                         ("dicycle", (("n", n),)))


def cycle(n: int) -> DirectedGraph:
    """Undirected cycle on n vertices."""
    if n < 3:
        raise ValueError("n >= 3 required")
    i = np.arange(n)
    return DirectedGraph(n, _undirected(np.column_stack([i, (i + 1) % n])),
                         ("cycle", (("n", n),)))


def grid(a: int, b: int) -> DirectedGraph:
    """Undirected a x b grid with 4-neighbor adjacency."""
    if a < 1 or b < 1:
        raise ValueError("grid dimensions must be positive")
    v = np.arange(a * b).reshape(a, b)
    pairs = [np.column_stack([v[:, :-1].ravel(), v[:, 1:].ravel()]),
             np.column_stack([v[:-1].ravel(), v[1:].ravel()])]
    return DirectedGraph(a * b, _undirected(np.concatenate(pairs)),
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
            return DirectedGraph(n, _undirected(list(h.edges())), (
                "random_regular", (("n", n), ("d", d), ("seed", seed))))
    raise ValueError(f"no connected {d}-regular graph on {n} vertices "
                     "in 100 draws")


def royal_family(R: int, n: int) -> DirectedGraph:
    """Clique of R mutually-observing royals; an undirected public chain of n
    agents who all observe every royal; royal 0 observes public agent 0."""
    if R < 1 or n < 1:
        raise ValueError("R >= 1 and n >= 1 required")
    e = [(i, j) for i in range(R) for j in range(R) if i != j]
    e += [(p, r) for p in range(R, R + n) for r in range(R)]
    e += [(p, q) for p in range(R, R + n) for q in (p - 1, p + 1)
          if R <= q < R + n]
    e.append((0, R))
    return DirectedGraph(R + n, e, ("royal_family", (("R", R), ("n", n))))


def mad_king(R_C: int, R_B: int, n: int) -> DirectedGraph:
    """Undirected star-of-stars: king u -- regent, court, people;
    regent -- bureaucracy.  Vertex order: king, regent, court, bureaucracy,
    people."""
    if R_C < 1 or R_B < 1 or n < 1:
        raise ValueError("all class sizes must be >= 1")
    people = range(2 + R_C + R_B, 2 + R_C + R_B + n)
    pairs = [(0, v) for v in (1, *range(2, 2 + R_C), *people)]
    pairs += [(1, b) for b in range(2 + R_C, 2 + R_C + R_B)]
    return DirectedGraph(
        2 + R_C + R_B + n, _undirected(pairs),
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
    lines += [f"{i} {j}" for i, j in g.pairs().tolist()]
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
