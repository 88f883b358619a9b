import copy
import pickle
import tracemalloc
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from netlearn import graphs, invariants, topology


def test_rejects_self_loops():
    with pytest.raises(ValueError):
        graphs.DirectedGraph(2, frozenset({(0, 0)}))


@pytest.mark.parametrize("n, edges, message", [
    (2, {(0, 2)}, "edge (0,2) out of range"),
    (3, [(0, 1), (-1, 2)], "edge (-1,2) out of range"),
    (4, {(3, 3)}, "self-loop at 3 not allowed"),
    (3, [(0, 1), (2, 2), (1, 0)], "self-loop at 2 not allowed")])
def test_constructor_messages(n, edges, message):
    with pytest.raises(ValueError) as e:
        graphs.DirectedGraph(n, edges)
    assert str(e.value) == message


def _undirected_pairs(pairs):
    out = set()
    for (i, j) in pairs:
        out |= {(i, j), (j, i)}
    return out


def _grid_pairs(a, b):
    pairs = [(r * b + c, r * b + c + 1)
             for r in range(a) for c in range(b - 1)]
    pairs += [(r * b + c, (r + 1) * b + c)
              for r in range(a - 1) for c in range(b)]
    return _undirected_pairs(pairs)


def _royal_pairs(R, n):
    e = {(i, j) for i in range(R) for j in range(R) if i != j}
    e |= _undirected_pairs((k, k + 1) for k in range(R, R + n - 1))
    e |= {(p, r) for p in range(R, R + n) for r in range(R)}
    return e | {(0, R)}


def _mad_king_pairs(R_C, R_B, n):
    court = range(2, 2 + R_C)
    bureau = range(2 + R_C, 2 + R_C + R_B)
    people = range(2 + R_C + R_B, 2 + R_C + R_B + n)
    pairs = [(0, 1)] + [(0, c) for c in court] + [(0, p) for p in people]
    return _undirected_pairs(pairs + [(1, b) for b in bureau])


# each family's reference: its edge set as the tuple-set generators built it
FAMILY_PAIRS = [
    (graphs.chain, lambda n: _undirected_pairs(
        (i, i + 1) for i in range(n - 1)), [(1,), (2,), (7,)]),
    (graphs.dicycle, lambda n: {(i, (i + 1) % n) for i in range(n)},
     [(2,), (3,), (9,)]),
    (graphs.cycle, lambda n: _undirected_pairs(
        (i, (i + 1) % n) for i in range(n)), [(3,), (4,), (10,)]),
    (graphs.grid, _grid_pairs, [(1, 1), (1, 4), (3, 1), (3, 4), (5, 5)]),
    (graphs.royal_family, _royal_pairs, [(1, 1), (1, 3), (3, 1), (3, 10)]),
    (graphs.mad_king, _mad_king_pairs, [(1, 1, 1), (2, 3, 4), (4, 1, 6)])]


@pytest.mark.parametrize("make, reference, sizes", FAMILY_PAIRS,
                         ids=[f.__name__ for f, _, _ in FAMILY_PAIRS])
def test_families_build_the_reference_edges(make, reference, sizes):
    """Each generator's rows hold the edge set of the tuple construction,
    sorted and distinct, as int64 arrays that cannot be written."""
    for args in sizes:
        g, want = make(*args), reference(*args)
        assert g.edges == want
        assert g.indices.dtype == g.indptr.dtype == np.int64
        assert len(g.indices) == len(want) == g.indptr[-1]
        assert g.pairs().tolist() == sorted(map(list, want))
        assert not (g.indptr.flags.writeable or g.indices.flags.writeable)
        for i in range(g.n):
            row = sorted(j for (v, j) in want if v == i)
            assert g.out_neighbors(i) == tuple(row)
            assert g.closed_nbrs(i) == tuple(sorted(row + [i]))


def test_graph_value_ignores_edge_order_repeats_and_family():
    g = graphs.royal_family(2, 4)
    pairs = sorted(g.edges)
    same = [graphs.DirectedGraph(g.n, pairs[::-1]),
            graphs.DirectedGraph(g.n, pairs + pairs[:3], ("other", ())),
            graphs.DirectedGraph(g.n, np.array(pairs)[::-1]),
            graphs.DirectedGraph(g.n, frozenset(pairs))]
    for h in same:
        assert h == g and hash(h) == hash(g)
    assert graphs.DirectedGraph(g.n, pairs[1:]) != g
    assert graphs.DirectedGraph(g.n + 1, pairs) != g
    assert graphs.DirectedGraph.__slots__ == (
        "n", "family", "indptr", "indices")
    assert not hasattr(graphs, "_csr")


def _as_received(g):
    """A pool worker's view of the graph it was sent: its rows' writeable
    flags, and the graph itself, to be sent back."""
    return g.indptr.flags.writeable, g.indices.flags.writeable, g


def test_pickled_graph_stays_read_only():
    """A graph that went through pickle, a deep copy or a spawned pool
    (there and back) has read-only rows and equals and hashes as the
    original does."""
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    g = graphs.royal_family(2, 3)
    with ProcessPoolExecutor(
            1, mp_context=multiprocessing.get_context("spawn")) as ex:
        *in_worker, back = ex.submit(_as_received, g).result(timeout=120)
    assert in_worker == [False, False]
    for h in (pickle.loads(pickle.dumps(g)), copy.deepcopy(g), back):
        assert not h.indptr.flags.writeable
        assert not h.indices.flags.writeable
        assert h == g and hash(h) == hash(g) and h.family == g.family
        with pytest.raises(ValueError):
            h.indices[0] = 0


def test_cycle_100000_holds_its_rows_only():
    """Building cycle(100000) holds its two int64 arrays, 2.4 MB, and
    peaks well under the 60 MB the tuple form took."""
    tracemalloc.start()
    try:
        g = graphs.cycle(100000)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert g.indptr.nbytes + g.indices.nbytes == 8 * 300001
    assert held < 4 << 20, held
    assert peak < 16 << 20, peak


def test_closed_nbrs_include_self():
    g = graphs.dicycle(5)
    for i in range(5):
        assert i in g.closed_nbrs(i)
        assert g.closed_nbrs(i) == tuple(sorted(set(g.out_neighbors(i)) | {i}))


def test_dicycle_connectivity_and_L():
    g = graphs.dicycle(6)
    assert topology.is_strongly_connected(g)
    assert topology.min_l_connectivity(g) == 5


def test_undirected_families_are_1_connected():
    for g in (graphs.cycle(7), graphs.chain(5), graphs.grid(3, 4)):
        assert topology.is_strongly_connected(g)
        assert topology.min_l_connectivity(g) == 1


def test_l_connectivity_requires_strong_connectivity():
    g = graphs.DirectedGraph(3, frozenset({(0, 1), (1, 2)}))
    assert not topology.is_strongly_connected(g)
    with pytest.raises(ValueError):
        topology.min_l_connectivity(g)


@pytest.mark.parametrize("n, edges, strong", [
    (1, [], True),
    (3, [(1, 0), (2, 1)], False)])  # 0 reaches no other vertex
def test_is_strongly_connected(n, edges, strong):
    assert topology.is_strongly_connected(
        graphs.DirectedGraph(n, edges)) == strong


def test_l_connectivity_holds_one_distance_row_at_a_time():
    """The pass streams its BFS rows: no n^2 table of distances is held."""
    g = graphs.cycle(1000)
    tracemalloc.start()
    try:
        assert topology.min_l_connectivity(g) == 1
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak


def test_out_degree_bound():
    assert topology.out_degree_bound(graphs.dicycle(4)) == 2
    assert topology.out_degree_bound(graphs.cycle(5)) == 3


def test_royal_family_structure():
    g = graphs.royal_family(3, 10)
    e = g.edges
    royals, public = range(3), range(3, 13)
    for i in royals:
        for j in royals:
            assert (i != j) == ((i, j) in e) or i == j
    for p in public:
        for r in royals:
            assert (p, r) in e
    assert (0, 3) in e and (1, 3) not in e
    assert topology.is_strongly_connected(g)
    # BFS oracle: longest return path runs royal_k -> royal_0 -> public_0
    # -> ... -> public_{n-1}, giving L = n + 1
    assert topology.min_l_connectivity(g) == 11


def test_mad_king_structure():
    g = graphs.mad_king(3, 5, 4)
    assert g.n == 2 + 3 + 5 + 4
    e = g.edges
    assert (0, 1) in e and (1, 0) in e
    for c in range(2, 5):
        assert (0, c) in e and (c, 0) in e
    for b in range(5, 10):
        assert (1, b) in e and (b, 1) in e
        assert (0, b) not in e
    for p in range(10, 14):
        assert (0, p) in e and (p, 0) in e
    assert topology.min_l_connectivity(g) == 1


def test_random_regular_is_connected_and_regular():
    g = graphs.random_regular(12, 3, seed=5)
    assert topology.is_strongly_connected(g)
    assert all(len(g.out_neighbors(i)) == 3 for i in range(12))


# --- rooted balls and the dyadic metric ------------------------------------

def test_extract_ball_radius_zero():
    b = topology.extract_ball(graphs.dicycle(5), 2, 0)
    assert b.vertices == frozenset({2}) and not b.edges


def test_ball_vertices_match_bfs():
    g = graphs.grid(3, 3)
    for r in range(3):
        b = topology.extract_ball(g, 0, r)
        dist = graphs.all_pairs_distances(g)[0]
        assert b.vertices == frozenset(
            v for v in range(g.n) if 0 <= dist[v] <= r)


@pytest.mark.parametrize("g", [
    graphs.grid(3, 4), graphs.dicycle(7), graphs.royal_family(2, 5),
    graphs.DirectedGraph(5, frozenset({(0, 1), (1, 2), (3, 4)})),
    graphs.dicycle(6), graphs.cycle(7), graphs.chain(5), graphs.chain(1),
    graphs.royal_family(3, 10), graphs.mad_king(3, 5, 4),
    graphs.random_regular(12, 3, seed=5)])
def test_ball_distances_truncate_the_full_bfs(g):
    """The BFS stopped at a radius keeps exactly the vertices within it, at
    their graph distance, and -1 for every other vertex; unreachable
    vertices are -1 at every radius, and a negative radius reaches none.
    The streamed pass reads L and the diameter off the same full rows."""
    dist = graphs.all_pairs_distances(g)
    if min(map(min, dist)) < 0:
        with pytest.raises(ValueError, match="strongly connected"):
            topology.l_connectivity_and_diameter(g)
    else:
        assert topology.l_connectivity_and_diameter(g) == (
            max((dist[j][i] for (i, j) in g.edges), default=0),
            max(map(max, dist)))
    for source in range(g.n):
        assert graphs.bfs_distances(g, source) == dist[source]
        assert graphs.bfs_distances(g, source, -1) == [-1] * g.n
        for r in range(g.n + 1):
            assert graphs.bfs_distances(g, source, r) == [
                d if d <= r else -1 for d in dist[source]]


@settings(max_examples=30, deadline=None)
@given(n1=st.integers(4, 7), n2=st.integers(4, 7),
       r=st.integers(0, 2))
def test_iso_matches_bruteforce_oracle(n1, n2, r):
    b1 = topology.extract_ball(graphs.dicycle(n1), 0, r)
    b2 = topology.extract_ball(graphs.dicycle(n2), 0, r)
    if max(b1.n, b2.n) <= 8:
        fast, mapping = topology.balls_isomorphic(b1, b2)
        assert fast == topology.balls_isomorphic_bruteforce(b1, b2)
        if fast:
            assert mapping[b1.root] == b2.root


def _random_ball(rng):
    """The ball of a random radius 0-3 about a random root of a random
    digraph on 2-8 vertices."""
    n = int(rng.integers(2, 9))
    g = graphs.DirectedGraph(n, [(i, j) for i in range(n) for j in range(n)
                                 if i != j and rng.random() < 0.35])
    return topology.extract_ball(g, int(rng.integers(n)),
                                 int(rng.integers(0, 4)))


def _relabelled_ball(ball, rng, swap):
    """``ball`` under a random relabelling, as the ball of the same radius
    of the graph it spans; with ``swap``, one double edge swap (a, b), (c, d)
    -> (a, d), (c, b), which keeps every in- and out-degree."""
    perm = dict(zip(sorted(ball.vertices),
                    rng.permutation(ball.n).tolist()))
    edges = [(perm[i], perm[j]) for i, j in sorted(ball.edges)]
    if swap and len(edges) >= 2:
        k, l = rng.choice(len(edges), 2, replace=False)
        (a, b), (c, d) = edges[k], edges[l]
        if a != d and c != b and (a, d) not in edges and (c, b) not in edges:
            edges[k], edges[l] = (a, d), (c, b)
    return topology.extract_ball(graphs.DirectedGraph(ball.n, edges),
                                 perm[ball.root], ball.radius)


def test_iso_backtracking_matches_bruteforce_oracle():
    """Random rooted balls of at most 8 vertices, each against a
    relabelling of itself, a degree-preserving edge swap of that, or an
    unrelated ball: the backtracking search answers as the all-permutations
    oracle, its witness maps root to root and edges onto edges, and some
    pairs with equal (distance, out-degree, in-degree) profiles get past
    the profile filter and are refused by the search itself."""
    rng = np.random.default_rng(0)
    searched_and_refused = 0
    for _ in range(1000):
        a = _random_ball(rng)
        b = (_relabelled_ball(a, rng, rng.random() < 0.5)
             if rng.random() < 0.7 else _random_ball(rng))
        ok, h = topology.balls_isomorphic(a, b)
        assert ok == topology.balls_isomorphic_bruteforce(a, b)
        if ok:
            assert h[a.root] == b.root and set(h.values()) == b.vertices
            assert {(h[i], h[j]) for i, j in a.edges} == b.edges
        elif (a.n == b.n and len(a.edges) == len(b.edges)
              and sorted(topology._iso_signature(a).values())
              == sorted(topology._iso_signature(b).values())):
            searched_and_refused += 1
    assert searched_and_refused > 0


def test_iso_witness_preserves_edges():
    b1 = topology.extract_ball(graphs.cycle(9), 0, 2)
    b2 = topology.extract_ball(graphs.cycle(11), 3, 2)
    ok, h = topology.balls_isomorphic(b1, b2)
    assert ok
    assert {(h[i], h[j]) for (i, j) in b1.edges} == set(b2.edges)


def test_rooted_distance_values():
    # two directed cycles look identical up to radius floor((n-1)/1) windows;
    # dicycle(8) vs dicycle(12) first differ once the smaller ball wraps
    d, truncated = topology.rooted_distance(graphs.dicycle(8), 0,
                                          graphs.dicycle(12), 0, 8)
    assert d == 2.0 ** -6 and not truncated
    d, truncated = topology.rooted_distance(graphs.dicycle(8), 0,
                                          graphs.dicycle(12), 0, 3)
    assert d == 2.0 ** -3 and truncated


def test_rooted_distance_rejects_negative_radius():
    with pytest.raises(ValueError, match="r_max"):
        topology.rooted_distance(graphs.dicycle(5), 0, graphs.dicycle(8), 0, -2)


PATH3 = graphs.DirectedGraph(3, [(0, 1), (1, 2)])


@pytest.mark.parametrize("fn, args, message", [
    (topology.extract_ball, (graphs.dicycle(5), 5, 1), "invalid root 5"),
    (topology.extract_ball, (graphs.dicycle(5), -1, 1), "invalid root -1"),
    (topology.extract_ball, (graphs.dicycle(5), 0, -1),
     "radius must be nonnegative"),
    (topology.rooted_distance, (graphs.dicycle(5), 5, graphs.dicycle(8), 0, 3),
     "invalid root 5"),
    (topology.rooted_distance, (graphs.dicycle(5), 0, graphs.dicycle(8), -1, 3),
     "invalid root -1"),
    (topology.rooted_distance, (graphs.dicycle(5), 0, PATH3, 0, 3),
     "rooted_distance requires strongly connected graphs"),
    (topology.rooted_distance, (PATH3, 2, graphs.dicycle(5), 0, 3),
     "rooted_distance requires strongly connected graphs")])
def test_balls_and_distances_refuse_bad_input(fn, args, message):
    with pytest.raises(ValueError) as e:
        fn(*args)
    assert str(e.value) == message


def test_l_connectivity_invariant_catches_wrong_distances(monkeypatch):
    """The invariant compares L with networkx shortest paths, so distances
    that are all off by one fail it."""
    assert all(ok for name, ok, _ in invariants.check_graph()
               if name.startswith("l_connectivity_bound"))
    real = graphs.bfs_rows
    monkeypatch.setattr(topology, "bfs_rows", lambda g, sources:
                        ([d + 1 for d in row] for row in real(g, sources)))
    bounds = [ok for name, ok, _ in invariants.check_graph()
              if name.startswith("l_connectivity_bound")]
    assert len(bounds) == 5 and not any(bounds)


@pytest.mark.parametrize("answer, fails", [(True, "r=2"), (False, "r=1")])
def test_iso_invariant_catches_a_constant_answer(monkeypatch, answer, fails):
    """The invariant compares distinct balls, one isomorphic pair and one
    not, so an isomorphism test that always answers the same fails one of
    its two checks, whatever the brute force says."""
    assert all(ok for name, ok, _ in invariants.check_graph()
               if name.startswith("iso_matches_bruteforce"))
    monkeypatch.setattr(topology, "balls_isomorphic",
                        lambda a, b: (answer, None))
    iso = {name: ok for name, ok, _ in invariants.check_graph()
           if name.startswith("iso_matches_bruteforce")}
    assert [name for name, ok in iso.items() if not ok] == [
        f"iso_matches_bruteforce[{fails}]"]
    assert len(iso) == 2


def test_rooted_distance_identity_and_symmetry():
    g = graphs.cycle(10)
    assert topology.rooted_distance(g, 0, g, 4, 10)[0] == 0.0
    a = topology.rooted_distance(graphs.dicycle(6), 0, graphs.dicycle(9), 0, 8)
    b = topology.rooted_distance(graphs.dicycle(9), 0, graphs.dicycle(6), 0, 8)
    assert a == b


@settings(max_examples=20, deadline=None)
@given(st.integers(3, 8), st.integers(3, 8), st.integers(3, 8))
def test_rooted_distance_ultrametric(na, nb, nc):
    """d(a, c) <= max(d(a, b), d(b, c)) on directed cycles."""
    r = 6
    ga, gb, gc = (graphs.dicycle(k) for k in (na, nb, nc))
    dab = topology.rooted_distance(ga, 0, gb, 0, r)[0]
    dbc = topology.rooted_distance(gb, 0, gc, 0, r)[0]
    dac = topology.rooted_distance(ga, 0, gc, 0, r)[0]
    assert dac <= max(dab, dbc) + 1e-12


def test_family_string_roundtrip():
    g = graphs.generate("royal_family(3, 10)")
    assert g.family_tag == "royal_family"
    assert g.family_params() == {"R": 3, "n": 10}
    assert g == graphs.royal_family(3, 10)


@pytest.mark.parametrize("spec, message", [
    ("dicycle", "bad family spec 'dicycle'"),
    ("dicycle(5", "bad family spec 'dicycle(5'"),
    ("no_such(3)", "unknown family 'no_such'"),
    ("dicycle(x)", "dicycle parameter n must be an integer, got 'x'"),
    ("grid(2,y)", "grid parameter b must be an integer, got 'y'"),
    ("dicycle(3,4)", "too many parameters for dicycle(n): got 2"),
    ("random_regular(10,3,1,2)",
     "too many parameters for random_regular(n, d, seed): got 4"),
    ("dicycle()", "family dicycle missing parameters ['n']"),
    ("mad_king(1,2)", "family mad_king missing parameters ['n']"),
    ("random_regular(10)", "family random_regular missing parameters ['d']"),
])
def test_generate_names_what_is_wrong_with_a_spec(spec, message):
    with pytest.raises(ValueError) as e:
        graphs.generate(spec)
    assert str(e.value) == message


def test_generate_seeds_a_family_that_takes_one():
    """A seed in the spec wins; otherwise the ``seed`` argument fills it."""
    g = graphs.generate("random_regular(10,3)", seed=7)
    assert g == graphs.random_regular(10, 3, seed=7)
    assert g.family_params()["seed"] == 7
    assert graphs.generate("random_regular(10,3,4)", seed=7) \
        == graphs.random_regular(10, 3, seed=4)
    assert graphs.generate("random_regular(10,3)") \
        == graphs.random_regular(10, 3, seed=0)


def _reference_role_map(g):
    """The role rules the trace CSV used before ``role_names``: ranges
    computed from the family parameters."""
    p = g.family_params()
    if g.family_tag == "royal_family":
        R, n = p["R"], p["n"]
        return {**{v: "royal" for v in range(R)},
                **{v: "public" for v in range(R, R + n)}}
    if g.family_tag == "mad_king":
        rc, rb, n = p["R_C"], p["R_B"], p["n"]
        roles = {0: "king", 1: "regent"}
        roles.update({v: "court" for v in range(2, 2 + rc)})
        roles.update({v: "bureaucracy" for v in range(2 + rc, 2 + rc + rb)})
        roles.update({v: "person"
                      for v in range(2 + rc + rb, 2 + rc + rb + n)})
        return roles
    return None


@pytest.mark.parametrize("g", [
    graphs.royal_family(1, 1), graphs.royal_family(3, 10),
    graphs.royal_family(5, 2), graphs.mad_king(1, 1, 1),
    graphs.mad_king(2, 3, 2), graphs.mad_king(4, 1, 6),
    graphs.mad_king(2, 200, 300)])
def test_role_names_match_the_family_ranges(g):
    roles = graphs.role_names(g)
    assert roles == _reference_role_map(g)
    assert sorted(roles) == list(range(g.n))


@pytest.mark.parametrize("g", [
    graphs.dicycle(5), graphs.cycle(6), graphs.chain(3), graphs.grid(2, 3),
    graphs.random_regular(8, 3, seed=1),
    graphs.from_edge_list_text(graphs.to_edge_list_text(
        graphs.royal_family(2, 3)))])
def test_role_names_is_none_outside_the_role_families(g):
    assert graphs.role_names(g) is None


def _reference_root_distances(ball):
    """A BFS over the ball's own edges (the search that balls ran a second
    time before they kept the first one's distances)."""
    out = {v: [] for v in ball.vertices}
    for (i, j) in ball.edges:
        out[i].append(j)
    dist = {ball.root: 0}
    q = deque([ball.root])
    while q:
        v = q.popleft()
        for w in out[v]:
            if w not in dist:
                dist[w] = dist[v] + 1
                q.append(w)
    return dist


@st.composite
def _rooted_graphs(draw):
    n = draw(st.integers(1, 9))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    edges = draw(st.frozensets(pairs, max_size=3 * n))
    g = graphs.DirectedGraph(n, frozenset((i, j) for i, j in edges if i != j))
    return g, draw(st.integers(0, n - 1))


@settings(max_examples=150, deadline=None)
@given(_rooted_graphs(), st.integers(0, 9))
def test_ball_keeps_the_distances_of_its_own_bfs(rooted, r):
    """A shortest path to a ball vertex never leaves the ball, so the
    distances the truncated search found equal a BFS over the ball."""
    g, root = rooted
    ball = topology.extract_ball(g, root, r)
    assert ball.distances == _reference_root_distances(ball)
    assert max(ball.distances.values()) <= r


def test_ball_needs_every_distance():
    with pytest.raises(ValueError, match="distance"):
        topology.RootedBall(0, 1, frozenset({0, 1}), frozenset({(0, 1)}),
                          {0: 0})


def test_edge_list_roundtrip():
    g = graphs.grid(2, 3)
    text = graphs.to_edge_list_text(g)
    g2 = graphs.from_edge_list_text(text)
    assert g2.n == g.n and g2.edges == g.edges


@pytest.mark.parametrize("text, message", [
    ("0 1\n1 0\n", "edge list must start with an 'n=<count>' header"),
    ("", "edge list must start with an 'n=<count>' header"),
    ("n=abc\n0 1\n", "bad edge list header 'n=abc'"),
    ("n=2\n0 x\n", "bad edge line '0 x'"),
    ("n=3\n0 1\n0 1 2\n", "bad edge line '0 1 2'"),
    ("n=2\n  0  \n", "bad edge line '0'"),
])
def test_edge_list_errors_quote_what_does_not_parse(text, message):
    with pytest.raises(ValueError) as e:
        graphs.from_edge_list_text(text)
    assert str(e.value) == message
