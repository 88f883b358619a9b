import tracemalloc
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from netlearn import graphs, invariants


def test_rejects_self_loops():
    with pytest.raises(ValueError):
        graphs.DirectedGraph(2, frozenset({(0, 0)}))


def test_closed_nbrs_include_self():
    g = graphs.dicycle(5)
    for i in range(5):
        assert i in g.closed_nbrs(i)
        assert g.closed_nbrs(i) == tuple(sorted(set(g.out_neighbors(i)) | {i}))


def test_dicycle_connectivity_and_L():
    g = graphs.dicycle(6)
    assert graphs.is_strongly_connected(g)
    assert graphs.min_l_connectivity(g) == 5


def test_undirected_families_are_1_connected():
    for g in (graphs.cycle(7), graphs.chain(5), graphs.grid(3, 4)):
        assert graphs.is_strongly_connected(g)
        assert graphs.min_l_connectivity(g) == 1


def test_l_connectivity_requires_strong_connectivity():
    g = graphs.DirectedGraph(3, frozenset({(0, 1), (1, 2)}))
    assert not graphs.is_strongly_connected(g)
    with pytest.raises(ValueError):
        graphs.min_l_connectivity(g)


def test_l_connectivity_holds_one_distance_row_at_a_time():
    """The pass streams its BFS rows: no n^2 table of distances is held."""
    g = graphs.cycle(1000)
    tracemalloc.start()
    try:
        assert graphs.min_l_connectivity(g) == 1
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak


def test_out_degree_bound():
    assert graphs.out_degree_bound(graphs.dicycle(4)) == 2
    assert graphs.out_degree_bound(graphs.cycle(5)) == 3


def test_royal_family_structure():
    g = graphs.royal_family(3, 10)
    royals, public = range(3), range(3, 13)
    for i in royals:
        for j in royals:
            assert (i != j) == g.has_edge(i, j) or i == j
    for p in public:
        for r in royals:
            assert g.has_edge(p, r)
    assert g.has_edge(0, 3) and not g.has_edge(1, 3)
    assert graphs.is_strongly_connected(g)
    # BFS oracle: longest return path runs royal_k -> royal_0 -> public_0
    # -> ... -> public_{n-1}, giving L = n + 1
    assert graphs.min_l_connectivity(g) == 11


def test_mad_king_structure():
    g = graphs.mad_king(3, 5, 4)
    assert g.n == 2 + 3 + 5 + 4
    assert g.has_edge(0, 1) and g.has_edge(1, 0)
    for c in range(2, 5):
        assert g.has_edge(0, c) and g.has_edge(c, 0)
    for b in range(5, 10):
        assert g.has_edge(1, b) and g.has_edge(b, 1)
        assert not g.has_edge(0, b)
    for p in range(10, 14):
        assert g.has_edge(0, p) and g.has_edge(p, 0)
    assert graphs.min_l_connectivity(g) == 1


def test_random_regular_is_connected_and_regular():
    g = graphs.random_regular(12, 3, seed=5)
    assert graphs.is_strongly_connected(g)
    assert all(len(g.out_neighbors(i)) == 3 for i in range(12))


# --- rooted balls and the dyadic metric ------------------------------------

def test_extract_ball_radius_zero():
    b = graphs.extract_ball(graphs.dicycle(5), 2, 0)
    assert b.vertices == frozenset({2}) and not b.edges


def test_ball_vertices_match_bfs():
    g = graphs.grid(3, 3)
    for r in range(3):
        b = graphs.extract_ball(g, 0, r)
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
            graphs.l_connectivity_and_diameter(g)
    else:
        assert graphs.l_connectivity_and_diameter(g) == (
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
    b1 = graphs.extract_ball(graphs.dicycle(n1), 0, r)
    b2 = graphs.extract_ball(graphs.dicycle(n2), 0, r)
    if max(b1.n, b2.n) <= 8:
        fast, mapping = graphs.balls_isomorphic(b1, b2)
        assert fast == graphs.balls_isomorphic_bruteforce(b1, b2)
        if fast:
            assert mapping[b1.root] == b2.root


def test_iso_witness_preserves_edges():
    b1 = graphs.extract_ball(graphs.cycle(9), 0, 2)
    b2 = graphs.extract_ball(graphs.cycle(11), 3, 2)
    ok, h = graphs.balls_isomorphic(b1, b2)
    assert ok
    assert {(h[i], h[j]) for (i, j) in b1.edges} == set(b2.edges)


def test_rooted_distance_values():
    # two directed cycles look identical up to radius floor((n-1)/1) windows;
    # dicycle(8) vs dicycle(12) first differ once the smaller ball wraps
    d, truncated = graphs.rooted_distance(graphs.dicycle(8), 0,
                                          graphs.dicycle(12), 0, 8)
    assert d == 2.0 ** -6 and not truncated
    d, truncated = graphs.rooted_distance(graphs.dicycle(8), 0,
                                          graphs.dicycle(12), 0, 3)
    assert d == 2.0 ** -3 and truncated


def test_rooted_distance_rejects_negative_radius():
    with pytest.raises(ValueError, match="r_max"):
        graphs.rooted_distance(graphs.dicycle(5), 0, graphs.dicycle(8), 0, -2)


def test_l_connectivity_invariant_catches_wrong_distances(monkeypatch):
    """The invariant compares L with networkx shortest paths, so distances
    that are all off by one fail it."""
    assert all(ok for name, ok, _ in invariants.check_graph()
               if name.startswith("l_connectivity_bound"))
    real = graphs.bfs_distances
    monkeypatch.setattr(graphs, "bfs_distances", lambda g, source, radius=None:
                        [d + 1 for d in real(g, source, radius)])
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
    monkeypatch.setattr(graphs, "balls_isomorphic",
                        lambda a, b: (answer, None))
    iso = {name: ok for name, ok, _ in invariants.check_graph()
           if name.startswith("iso_matches_bruteforce")}
    assert [name for name, ok in iso.items() if not ok] == [
        f"iso_matches_bruteforce[{fails}]"]
    assert len(iso) == 2


def test_rooted_distance_identity_and_symmetry():
    g = graphs.cycle(10)
    assert graphs.rooted_distance(g, 0, g, 4, 10)[0] == 0.0
    a = graphs.rooted_distance(graphs.dicycle(6), 0, graphs.dicycle(9), 0, 8)
    b = graphs.rooted_distance(graphs.dicycle(9), 0, graphs.dicycle(6), 0, 8)
    assert a == b


@settings(max_examples=20, deadline=None)
@given(st.integers(3, 8), st.integers(3, 8), st.integers(3, 8))
def test_rooted_distance_ultrametric(na, nb, nc):
    """d(a, c) <= max(d(a, b), d(b, c)) on directed cycles."""
    r = 6
    ga, gb, gc = (graphs.dicycle(k) for k in (na, nb, nc))
    dab = graphs.rooted_distance(ga, 0, gb, 0, r)[0]
    dbc = graphs.rooted_distance(gb, 0, gc, 0, r)[0]
    dac = graphs.rooted_distance(ga, 0, gc, 0, r)[0]
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
    ball = graphs.extract_ball(g, root, r)
    assert ball.distances == _reference_root_distances(ball)
    assert max(ball.distances.values()) <= r


def test_ball_needs_every_distance():
    with pytest.raises(ValueError, match="distance"):
        graphs.RootedBall(0, 1, frozenset({0, 1}), frozenset({(0, 1)}),
                          {0: 0})


def test_edge_list_roundtrip():
    g = graphs.grid(2, 3)
    text = graphs.to_edge_list_text(g)
    g2 = graphs.from_edge_list_text(text)
    assert g2.n == g.n and g2.edges == g.edges
