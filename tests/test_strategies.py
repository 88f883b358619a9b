import itertools
import math
import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from netlearn import beliefs, config, dynamics, graphs, signals, strategies
from netlearn.strategies import TieBreaker


def test_myopic_profile_rejects_jitter_tiebreak():
    g = graphs.dicycle(3)
    m = signals.symmetric_binary(0.7)
    with pytest.raises(ValueError):
        strategies.MyopicExactProfile(g, m, TieBreaker("jitter"))


def test_myopic_round_zero_follows_private_sign():
    g = graphs.dicycle(4)
    m = signals.symmetric_binary(0.7)
    prof = strategies.MyopicExactProfile(g, m)
    neg, pos = m.sign_atoms()
    assert prof.action(0, pos, ()) == 1
    assert prof.action(0, neg, ()) == 0


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_gossip_equals_myopic_through_round_one(seed):
    g = graphs.dicycle(5)
    m = signals.symmetric_binary(0.7)
    myo = strategies.MyopicExactProfile(g, m)
    gossip = strategies.GossipProfile()
    rng = np.random.default_rng(seed)
    s = int(rng.integers(0, 2))
    atoms = [int(a) for a in m.sample_atoms(rng, g.n, s)]
    fast = gossip.trace_actions(g, m, atoms, np.zeros(g.n), 2)
    slow = np.array(beliefs.simulate_actions(g, myo, atoms, 2),
                    dtype=np.uint8).T
    assert np.array_equal(fast, slow)


ENGINE_GRAPHS = ("dicycle(3)", "dicycle(4)", "dicycle(5)", "dicycle(6)",
                 "dicycle(7)", "cycle(4)", "cycle(5)", "cycle(6)", "chain(4)",
                 "grid(2,3)")
THREE_ATOMS = signals.SignalModel(tuple(signals.Atom(*t) for t in (
    (math.log(0.5 / 0.2), 0.2, 0.5), (0.0, 0.3, 0.3),
    (math.log(0.2 / 0.5), 0.5, 0.2))))
ENGINE_MODELS = st.one_of(
    st.sampled_from((0.6, 0.7, 0.75, 0.9)).map(signals.symmetric_binary),
    st.just(signals.royal_bounded()),
    st.just(THREE_ATOMS))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(ENGINE_GRAPHS), ENGINE_MODELS,
       st.sampled_from(("zero", "one")), st.integers(1, 4),
       st.integers(0, 10 ** 6))
def test_exact_myopic_engine_matches_oracles(spec, m, mode, horizon, pick):
    """In every world: the world-row trace equals the per-agent action loop
    (actions and tie counts), and every action is the best response to
    exact_posterior on its view.  The second check is inductive over rounds:
    exact_posterior replays the profile's earlier rounds, which are checked
    in every world too.  One trace_batch over all worlds equals the
    per-world traces."""
    g = graphs.generate(spec)
    assume(m.k ** g.n <= 729)
    tb = TieBreaker(mode)
    prof = strategies.MyopicExactProfile(g, m, tb)
    posts = {}
    worlds = list(itertools.product(range(m.k), repeat=g.n))
    traces, ties = [], 0
    for atoms in worlds:
        fast_log, slow_log = strategies.TieLog(), strategies.TieLog()
        fast = prof.trace_actions(g, m, np.array(atoms), np.zeros(g.n),
                                  horizon, fast_log)
        slow = strategies.Profile.trace_actions(
            prof, g, m, atoms, np.zeros(g.n), horizon, slow_log)
        assert np.array_equal(fast, slow)
        assert fast_log.count == slow_log.count
        traces.append(fast)
        ties += fast_log.count
        rounds = [tuple(int(a) for a in fast[:, t]) for t in range(horizon)]
        oracle_log = strategies.TieLog()
        for t in range(horizon):
            for i in range(g.n):
                view = beliefs.view_from_actions(g, rounds, atoms, i, t)
                if view not in posts:
                    posts[view] = beliefs.exact_posterior(g, m, prof, view)
                assert fast[i, t] == beliefs.best_response(posts[view], tb,
                                                           oracle_log)
        assert fast_log.count == oracle_log.count
    batch_log = strategies.TieLog()
    batch = prof.trace_batch(g, m, np.array(worlds),
                             np.zeros((len(worlds), g.n)), horizon, batch_log)
    assert batch.dtype == np.uint8
    assert np.array_equal(batch, np.array(traces))
    assert batch_log.count == ties

    # flipping an agent's own action in the last observed round gives a
    # history no world produces: it plays 0 and logs no tie
    atoms = worlds[pick % len(worlds)]
    agent = pick % g.n
    acts = beliefs.simulate_actions(g, prof, atoms, horizon)
    hist = beliefs.history_of(g, acts, agent, horizon)
    own = g.closed_nbrs(agent).index(agent)
    last = list(hist[-1])
    last[own] = 1 - last[own]
    off = hist[:-1] + (tuple(last),)
    log = strategies.TieLog()
    assert prof.action(agent, atoms[agent], off, log) == 0
    assert log.count == 0
    with pytest.raises(beliefs.InconsistentHistoryError):
        beliefs.exact_posterior(
            g, m, prof, beliefs.HistoryView(agent, horizon, atoms[agent], off))


# a hub that sees six leaves, each of which sees the hub
STAR = graphs.DirectedGraph(7, frozenset(
    e for j in range(1, 7) for e in ((0, j), (j, 0))))


class _PerAgentEngine:
    """The exact engine's per-agent loop, the oracle of the batched one:
    per round and per agent, two ``bincount``s of the agent's classes, one
    ``decide``, one gather, and a class split by ``np.unique`` on the split
    keys class << width | row.  ``play[t][i]`` is agent i's (action, tied)
    by class at round t, ``split[t][i]`` its sorted keys after round t."""

    def __init__(self, g, m, tie_breaker, rounds):
        cls, w0, w1 = strategies.worlds(m, g.n)
        self.nbrs = [g.closed_nbrs(i) for i in range(g.n)]
        self.acts = np.empty((rounds,) + cls.shape, dtype=np.uint8)
        self.ties = np.zeros((rounds, cls.shape[1]), dtype=np.int64)
        self.play, self.split = [], []
        for t in range(rounds):
            if t:
                split = []
                for i, key in enumerate(self.keys(cls, self.acts[t - 1])):
                    uniq, cls[i] = np.unique(key, return_inverse=True)
                    split.append(uniq)
                self.split.append(split)
            play = []
            for i, c in enumerate(cls):
                s0 = np.bincount(c, weights=w0)
                s1 = np.bincount(c, weights=w1)
                act, tied = tie_breaker.decide(s1 / (s0 + s1) - 0.5)
                self.acts[t, i] = act[c]
                self.ties[t] += tied[c]
                play.append((act, tied))
            self.play.append(play)

    def keys(self, cls, acts):
        return [(cls[i] << len(nbrs)) | sum(acts[v].astype(np.int64) << j
                                            for j, v in enumerate(nbrs))
                for i, nbrs in enumerate(self.nbrs)]

    def forced_trace(self, atoms, horizon, agent, forced):
        cls = np.asarray(atoms, dtype=np.int64).reshape(
            -1, len(self.nbrs)).T.copy()
        live = np.ones(cls.shape, dtype=bool)
        out = np.empty((horizon,) + cls.shape, dtype=np.uint8)
        for t in range(horizon):
            if t:
                for i, key in enumerate(self.keys(cls, out[t - 1])):
                    split = self.split[t - 1][i]
                    cls[i] = np.minimum(split.searchsorted(key),
                                        len(split) - 1)
                    live[i] &= split[cls[i]] == key
            for i, (act, _) in enumerate(self.play[t]):
                out[t, i] = act[cls[i]] & live[i]
            if t < len(forced):
                out[t, agent] = forced[t]
        return out.transpose(2, 1, 0)


@settings(max_examples=60, deadline=None)
@given(spec=st.sampled_from(ENGINE_GRAPHS + (
           "royal_family(2,3)", "mad_king(1,1,2)", "grid(3,3)", "chain(7)",
           "star(7)")),
       m=ENGINE_MODELS, mode=st.sampled_from(("zero", "one")),
       horizon=st.integers(1, 5), block=st.sampled_from((1, 2, None)),
       data=st.data())
def test_batched_engine_equals_the_per_agent_loop(spec, m, mode, horizon,
                                                  block, data):
    """The engine solved a chunk of agents at a time -- one agent
    (BLOCK_CELLS 1), two (2 k^n) or as many as the default holds -- equals
    the per-agent loop: the world table, the tie table, every class's
    action and tie, every split key, and forced_trace's rows."""
    g = graphs.generate(spec) if spec != "star(7)" else STAR
    tb = TieBreaker(mode)
    cap = strategies.BLOCK_CELLS if block is None else block * m.k ** g.n
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(strategies, "BLOCK_CELLS", cap)
        prof = strategies.MyopicExactProfile(g, m, tb)
        prof.trace_batch(g, m, np.zeros((0, g.n), dtype=int), None, horizon)
        old = _PerAgentEngine(g, m, tb, horizon)
        assert np.array_equal(prof._acts, old.acts)
        assert prof._ties.dtype == np.uint8
        assert np.array_equal(prof._ties, old.ties)
        for t in range(horizon):
            offs = prof._offs[t]
            for i, (act, tied) in enumerate(old.play[t]):
                lo, hi = offs[i], offs[i + 1]
                assert np.array_equal(prof._play[t][0][lo:hi], act)
                assert np.array_equal(prof._play[t][1][lo:hi], tied)
            if t:
                keys, base = prof._split[t - 1]
                assert np.all(keys[1:] > keys[:-1])
                for i, want in enumerate(old.split[t - 1]):
                    lo, hi = offs[i], offs[i + 1]
                    assert np.array_equal(keys[lo:hi] - base[i], want)
        atoms = strategies.worlds(m, g.n)[0].T
        rows = atoms[data.draw(st.lists(st.integers(0, len(atoms) - 1),
                                        max_size=40), label="rows")]
        agent = data.draw(st.integers(0, g.n - 1), label="agent")
        forced = data.draw(st.lists(st.integers(0, 1), max_size=horizon),
                           label="forced")
        assert np.array_equal(prof.forced_trace(rows, horizon, agent, forced),
                              old.forced_trace(rows, horizon, agent, forced))


LOOKAHEAD_GRAPHS = ("dicycle(3)", "dicycle(4)", "cycle(4)", "cycle(5)",
                    "chain(3)", "chain(4)", "grid(2,2)", "grid(2,3)")


def lookahead_oracle(g, m, prof, view, ell_max):
    """lookahead_certainty by brute force: every world through the generic
    per-agent loop, grouped in dicts by the rows the agent sees."""
    nbrs = g.closed_nbrs(view.agent)
    horizon = view.t + ell_max
    groups = [{} for _ in range(ell_max + 1)]
    norm = 0.0
    for atoms in itertools.product(range(m.k), repeat=g.n):
        if atoms[view.agent] != view.atom:
            continue
        acts = strategies.Profile.trace_actions(prof, g, m, atoms,
                                                np.zeros(g.n), horizon)
        rows = tuple(tuple(int(acts[j, t]) for j in nbrs)
                     for t in range(horizon))
        if rows[:view.t] != view.observed:
            continue
        w = [float(m.probs(s)[list(atoms)].prod()) for s in (0, 1)]
        norm += w[0] + w[1]
        for ell, group in enumerate(groups):
            mass = group.setdefault(rows[:view.t + ell], [0.0, 0.0])
            mass[0] += w[0]
            mass[1] += w[1]
    return [sum(abs(s1 - s0) for s0, s1 in group.values()) / (2.0 * norm)
            for group in groups]


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(LOOKAHEAD_GRAPHS), ENGINE_MODELS,
       st.sampled_from(("zero", "one")), st.integers(0, 3), st.integers(0, 3),
       st.integers(0, 10 ** 6))
@example("cycle(4)", THREE_ATOMS, "one", 0, 2, 120)
def test_lookahead_certainty_matches_bruteforce(spec, m, mode, t, ell_max,
                                                pick):
    """The lookahead read from the myopic engine's replay equals a
    brute-force grouping under the profile's own tie breaker.  The pinned
    example has a tie that mode 'one' breaks to 1 for the viewing agent."""
    g = graphs.generate(spec)
    assume(m.k ** g.n <= 729)
    prof = strategies.MyopicExactProfile(g, m, TieBreaker(mode))
    atoms = list(itertools.product(range(m.k), repeat=g.n))[
        pick % m.k ** g.n]
    acts = beliefs.simulate_actions(g, prof, atoms, t)
    view = beliefs.view_from_actions(g, acts, atoms, pick % g.n, t)
    got = beliefs.lookahead_certainty(g, m, prof, view, ell_max)
    assert len(got) == ell_max + 1
    assert got == pytest.approx(lookahead_oracle(g, m, prof, view, ell_max),
                                abs=1e-12)


class _Forced(strategies.Profile):
    """``base`` with ``agent``'s first len(forced) actions forced, whatever
    its atom and history, through the generic per-agent loop."""

    def __init__(self, base, agent, forced):
        self.base, self.agent, self.forced = base, agent, forced

    def action(self, agent, atom, history, tie_log=None):
        if agent == self.agent and len(history) < len(self.forced):
            return self.forced[len(history)]
        return self.base.action(agent, atom, history, tie_log)


def y_oracle(g, m, prof, view):
    """(Y, replays, off) by brute force: every world where the agent holds
    the view's atom (``replays`` stacks them, in world order) through the
    generic loop with the agent's observed actions forced.  ``off`` tells
    whether the forced rows showed some other agent a history that no
    world's unforced play shows it."""
    nbrs = g.closed_nbrs(view.agent)
    me = nbrs.index(view.agent)
    forced = _Forced(prof, view.agent, [row[me] for row in view.observed])
    worlds = list(itertools.product(range(m.k), repeat=g.n))
    on_path = set()
    for atoms in worlds:
        acts = beliefs.simulate_actions(g, prof, atoms, view.t)
        on_path.update((j, atoms[j], beliefs.history_of(g, acts, j, t))
                       for j in range(g.n) for t in range(view.t))
    mass, replays, off = [0.0, 0.0], [], False
    for atoms in worlds:
        if atoms[view.agent] != view.atom:
            continue
        acts = beliefs.simulate_actions(g, forced, atoms, view.t)
        replays.append(np.array(acts, dtype=np.uint8).T)
        off |= any((j, atoms[j], beliefs.history_of(g, acts, j, t))
                   not in on_path
                   for j in range(g.n) if j != view.agent
                   for t in range(view.t))
        if beliefs.history_of(g, acts, view.agent, view.t) == view.observed:
            for s in (0, 1):
                mass[s] += float(m.probs(s)[list(atoms)].prod())
    y = math.log(mass[1] / m.atom_prob(view.atom, 1)) \
        - math.log(mass[0] / m.atom_prob(view.atom, 0))
    return y, np.array(replays), off


# the pinned example sends an agent off-path at one round with a key
# whose clipped class would match a split key at the next
@example(spec="cycle(5)", m=signals.symmetric_binary(0.6), mode="zero", t=4,
         pick=1554)
@settings(max_examples=40, deadline=None)
@given(spec=st.sampled_from(ENGINE_GRAPHS), m=ENGINE_MODELS,
       mode=st.sampled_from(("zero", "one")), t=st.integers(1, 4),
       pick=st.integers(0, 10 ** 6))
def _check_y_decomposition(off_path, spec, m, mode, t, pick):
    g = graphs.generate(spec)
    assume(m.k ** g.n <= 729)
    prof = strategies.MyopicExactProfile(g, m, TieBreaker(mode))
    worlds = np.array(list(itertools.product(range(m.k), repeat=g.n)))
    atoms = worlds[pick % len(worlds)].tolist()
    acts = beliefs.simulate_actions(g, prof, atoms, t)
    view = beliefs.view_from_actions(g, acts, atoms, pick % g.n, t)
    y, replays, off = y_oracle(g, m, prof, view)
    me = g.closed_nbrs(view.agent).index(view.agent)
    got = prof.forced_trace(worlds[worlds[:, view.agent] == view.atom], t,
                            view.agent, [row[me] for row in view.observed])
    assert got.dtype == np.uint8 and np.array_equal(got, replays)
    dec = beliefs.y_decomposition(g, m, prof, view)
    assert dec.y == pytest.approx(y, rel=1e-12, abs=1e-12)
    assert dec.z0 == m.atoms[view.atom].z
    assert dec.z == beliefs.exact_posterior(g, m, prof, view).log_odds
    off_path.append(off)


def test_y_decomposition_matches_bruteforce():
    """The engine's forced replay, and Y read from it, equal a brute-force
    replay of every world through the generic loop with the viewing
    agent's observed actions forced, under tie modes zero and one.  Some
    drawn views must put another agent off-path in the replay, and some
    not."""
    off_path = []
    _check_y_decomposition(off_path)
    assert any(off_path) and not all(off_path)


def test_trace_batch_empty_batch_and_zero_horizon():
    """An empty batch and a zero horizon give empty arrays and no ties, on
    the engine's, the mad king's, the royal family's and the gossip
    kernels."""
    g = graphs.dicycle(4)
    m = signals.symmetric_binary(0.7)
    myo = strategies.MyopicExactProfile(g, m, TieBreaker("one"))
    gk = graphs.mad_king(1, 1, 2)
    king = strategies.MadKingProfile(gk, m, TieBreaker("one"))
    gr = graphs.royal_family(2, 2)
    royal = strategies.RoyalFamilyProfile(gr, m, TieBreaker("one"))
    gossip = strategies.GossipProfile(TieBreaker("one"))
    for g, prof in ((g, myo), (gk, king), (gr, royal), (g, gossip)):
        atoms = np.zeros((2, g.n), dtype=int)
        log = strategies.TieLog()
        empty = prof.trace_batch(g, m, np.zeros((0, g.n), dtype=int),
                                 np.zeros((0, g.n)), 3, log)
        assert empty.shape == (0, g.n, 3) and empty.dtype == np.uint8
        flat = prof.trace_batch(g, m, atoms, np.zeros(atoms.shape), 0, log)
        assert flat.shape == (2, g.n, 0) and flat.dtype == np.uint8
        assert log.count == 0


def test_myopic_copy_plays_the_solved_rounds_and_re_solves_more():
    """A pickled engine (what a pool worker receives) carries the world
    table but not the class state, and plays as the original: from the
    table up to the rounds solved, re-solving from round 0 beyond them.
    So it does with every agent in one chunk, and with two agents a chunk
    (three chunks)."""
    g = graphs.dicycle(5)
    m = signals.symmetric_binary(0.6)
    atoms, _, _ = strategies.worlds(m, g.n)
    atoms, jit = atoms.T, np.zeros(atoms.T.shape)
    for cap, chunks in ((strategies.BLOCK_CELLS, 1), (2 * 2 ** g.n, 3)):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(strategies, "BLOCK_CELLS", cap)
            want = strategies.MyopicExactProfile(g, m).trace_batch(
                g, m, atoms, jit, 6)
            prof = strategies.MyopicExactProfile(g, m)
            prof.trace_batch(g, m, atoms[:0], jit[:0], 3)
            assert len(prof._chunks) == chunks
            copy = pickle.loads(pickle.dumps(prof))
            assert copy._cls is None and copy._chunks is None
            assert len(copy._play) == 3
            assert np.array_equal(copy.trace_batch(g, m, atoms, jit, 2),
                                  want[:, :, :2])
            assert np.array_equal(copy.trace_batch(g, m, atoms, jit, 6),
                                  want)
            view = beliefs.view_from_actions(
                g, [tuple(r) for r in want[7].T.tolist()], atoms[7], 2, 4)
            assert copy.action(2, view.atom, view.observed) == want[7, 2, 4]


def test_myopic_tie_table_is_uint8_and_a_batch_sum_does_not_wrap():
    """The tie table counts tied agents per world in uint8, and a batch's
    tie count sums past 255: 300 rows of a world whose agents all hold the
    zero-ratio atom count 300 times one row's ties."""
    g = graphs.dicycle(4)
    prof = strategies.MyopicExactProfile(g, THREE_ATOMS, TieBreaker("one"))
    row = np.ones((1, g.n), dtype=int)
    one, many = strategies.TieLog(), strategies.TieLog()
    prof.trace_batch(g, THREE_ATOMS, row, None, 3, one)
    prof.trace_batch(g, THREE_ATOMS, row.repeat(300, 0), None, 3, many)
    assert prof._ties.dtype == np.uint8
    assert one.count >= g.n and many.count == 300 * one.count


def test_exact_myopic_relabel_tables_count_against_the_budget(monkeypatch):
    """Each class relabel table is counted, 9 B an entry, against
    DEFAULT_BUDGET before it is allocated.  Nine times the largest table's
    entries solve cycle(5) to T=6, a budget above its 2^5 * 5 world-agent
    cells; one byte fewer raises BudgetExceededError.  The profile that
    raised plays the rounds it solved, and re-solves from round 0 when asked
    for more under a budget that fits."""
    g = graphs.cycle(5)
    m = signals.symmetric_binary(0.7)
    atoms = strategies.worlds(m, g.n)[0].T
    entries = []
    relabel = strategies._relabel
    monkeypatch.setattr(strategies, "_relabel",
                        lambda ids, n: entries.append(n) or relabel(ids, n))
    want = strategies.MyopicExactProfile(g, m).trace_batch(g, m, atoms,
                                                           None, 6)
    top = 9 * max(entries)
    assert top > 2 ** g.n * g.n
    monkeypatch.setattr(strategies, "DEFAULT_BUDGET", top)
    assert np.array_equal(strategies.MyopicExactProfile(g, m).trace_batch(
        g, m, atoms, None, 6), want)
    monkeypatch.setattr(strategies, "DEFAULT_BUDGET", top - 1)
    prof = strategies.MyopicExactProfile(g, m)
    with pytest.raises(strategies.BudgetExceededError,
                       match=f"relabel table of {max(entries)} entries"):
        prof.trace_batch(g, m, atoms, None, 6)
    solved = len(prof._play)
    assert 1 <= solved < 6
    assert np.array_equal(prof.trace_batch(g, m, atoms, None, solved),
                          want[:, :, :solved])
    monkeypatch.setattr(strategies, "DEFAULT_BUDGET", top)
    assert np.array_equal(prof.trace_batch(g, m, atoms, None, 6), want)


def test_exact_myopic_budget_counts_world_agent_cells(monkeypatch):
    g = graphs.dicycle(5)
    m = signals.symmetric_binary(0.7)
    monkeypatch.setattr(strategies, "DEFAULT_BUDGET", 2 ** 5 * 5)
    ok = strategies.MyopicExactProfile(g, m)
    neg, pos = m.sign_atoms()
    assert ok.action(0, pos, ()) == 1
    # the belief functions count the same cells
    view = beliefs.HistoryView(0, 0, pos, ())
    assert beliefs.exact_posterior(g, m, ok, view).posterior > 0.5
    monkeypatch.setattr(strategies, "DEFAULT_BUDGET", 2 ** 5 * 5 - 1)
    tight = strategies.MyopicExactProfile(g, m)
    with pytest.raises(strategies.BudgetExceededError):
        tight.trace_actions(g, m, np.zeros(g.n, dtype=int), None, 1)
    with pytest.raises(strategies.BudgetExceededError):
        beliefs.exact_posterior(g, m, ok, view)


def _worlds_by_gather(m, n):
    """``worlds`` as one (n, k^n) gather per state and a product over
    agents: twice the memory of what it returns."""
    radix = m.k ** np.arange(n, dtype=np.int64)
    atoms = np.arange(m.k ** n)[None, :] // radix[:, None] % m.k
    return atoms, m.probs(0)[atoms].prod(axis=0), \
        m.probs(1)[atoms].prod(axis=0)


@pytest.mark.parametrize("m", [signals.symmetric_binary(0.7),
                               signals.royal_bounded(),
                               signals.mad_king_asym()])
def test_worlds_in_place_equal_the_gathered_product(m):
    for n in range(1, 15):
        if m.k ** n * n > strategies.DEFAULT_BUDGET:
            break
        got, want = strategies.worlds(m, n), _worlds_by_gather(m, n)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes()


def test_worlds_peak_near_what_they_return():
    """worlds(m, 16) returns 9.4 MB; the in-place build peaks near 10 MB,
    where the gathered product peaked at 17.8 MB."""
    tracemalloc.start()
    try:
        out = strategies.worlds(signals.symmetric_binary(0.7), 16)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < sum(a.nbytes for a in out) + (1 << 20), peak


def test_one_patched_budget_governs_both_engines(monkeypatch):
    """``strategies.DEFAULT_BUDGET`` is read when a world table or a ring set
    is built: patched just below the k^n * n world-agent cells of dicycle(5),
    a new myopic profile and an exact posterior raise BudgetExceededError,
    and so do the gossip rings of a dense graph whose balls hold n^2 = 400
    entries."""
    g = graphs.dicycle(5)
    m = signals.symmetric_binary(0.7)
    monkeypatch.setattr(strategies, "DEFAULT_BUDGET", 2 ** g.n * g.n - 1)
    prof = strategies.MyopicExactProfile(g, m)
    with pytest.raises(strategies.BudgetExceededError):
        prof.trace_actions(g, m, np.zeros(g.n, dtype=int), None, 1)
    with pytest.raises(strategies.BudgetExceededError):
        beliefs.exact_posterior(g, m, prof, beliefs.HistoryView(0, 0, 0, ()))
    dense = graphs.random_regular(20, 6, seed=1)
    with pytest.raises(strategies.BudgetExceededError, match="gossip rings"):
        strategies.GossipProfile().trace_batch(
            dense, m, np.zeros((1, dense.n), int), np.zeros((1, dense.n)), 6)


def test_gossip_action_is_trace_level_only():
    with pytest.raises(NotImplementedError):
        strategies.GossipProfile().action(0, 0, ())


GOSSIP_GRAPHS = [graphs.generate(spec)
                 for spec in ("dicycle(3)", "dicycle(8)", "cycle(5)",
                              "cycle(10)", "chain(1)", "chain(6)",
                              "grid(3,3)", "royal_family(2,3)",
                              "mad_king(1,2,2)")]
# {0, 1, 2} and {3, 4} cannot reach each other, and 5 reaches no one
GOSSIP_GRAPHS.append(graphs.DirectedGraph(
    6, frozenset({(0, 1), (1, 2), (2, 0), (2, 5), (3, 4), (4, 3)})))
GOSSIP_MODELS = (signals.symmetric_binary(0.7), signals.royal_bounded(),
                 signals.mad_king_asym(), signals.symmetric_binary(0.6))
# one profile per tie mode for the whole test, so that its ring slot
# serves several graphs and horizons in turn
GOSSIP_PROFILES = {mode: strategies.GossipProfile(TieBreaker(mode))
                   for mode in ("zero", "one", "jitter")}


def _dense_gossip(g, m, atoms, jitters, horizon, mode):
    """Reference: one dense n x n reach mask per round and one mat-vec
    each; returns the actions and the number of ties."""
    dist = np.array(graphs.all_pairs_distances(g))
    z = np.asarray(m.z_values)[np.asarray(atoms)]
    if mode == "jitter":
        tie_act = jitters < 0.5
    else:
        tie_act = np.full(g.n, mode == "one")
    out = np.empty((g.n, horizon), dtype=np.uint8)
    ties = 0
    for t in range(horizon):
        vals = ((dist >= 0) & (dist <= t)).astype(np.float64) @ z
        tied = np.abs(vals) <= strategies.TIE_TOL
        out[:, t] = np.where(tied, tie_act, vals > strategies.TIE_TOL)
        ties += int(np.count_nonzero(tied))
    return out, ties


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(range(len(GOSSIP_GRAPHS))),
       st.sampled_from(GOSSIP_MODELS), st.sampled_from(("zero", "one",
                                                        "jitter")),
       st.data(), st.integers(0, 2 ** 32 - 1))
def test_gossip_rings_match_dense_reach_masks(gi, m, mode, data, seed):
    """The ring kernel equals the dense reach-mask path in actions, dtype,
    shape and tie count, for every horizon up to the diameter plus two.
    The two sum in different orders; with these models every nonzero sum
    of at most ten ratios lies far above TIE_TOL, so equality is exact."""
    g = GOSSIP_GRAPHS[gi]
    diameter = max(map(max, graphs.all_pairs_distances(g)))
    horizon = data.draw(st.integers(1, diameter + 2), label="horizon")
    rng = np.random.default_rng(seed)
    atoms = m.sample_atoms(rng, g.n, int(rng.integers(0, 2)))
    jitters = rng.random(g.n)
    log = strategies.TieLog()
    fast = GOSSIP_PROFILES[mode].trace_actions(g, m, atoms, jitters, horizon,
                                               log)
    want, ties = _dense_gossip(g, m, atoms, jitters, horizon, mode)
    assert fast.dtype == np.uint8 and fast.shape == (g.n, horizon)
    assert np.array_equal(fast, want)
    assert log.count == ties


def _ring_sum_gossip(g, m, atoms, jitters, horizon, mode):
    """Reference for one row: each agent's ratios added ring by ring, in
    BFS order, then accumulated over the rings; returns the actions and the
    number of ties."""
    z = np.asarray(m.z_values)[np.asarray(atoms)]
    sums = np.zeros((g.n, horizon))
    for i in range(g.n):
        for j, d in enumerate(graphs.bfs_distances(g, i, horizon - 1)):
            if d >= 0:
                sums[i, d] += z[j]
    margin = sums.cumsum(axis=1)
    tied = np.abs(margin) <= strategies.TIE_TOL
    if mode == "jitter":
        tie_act = np.broadcast_to((jitters < 0.5)[:, None], margin.shape)
    else:
        tie_act = np.full(margin.shape, mode == "one")
    out = np.where(tied, tie_act, margin > strategies.TIE_TOL).astype(np.uint8)
    return out, int(np.count_nonzero(tied))


def _rows_with_cancelling_sums(data, m, n):
    """1-4 atom rows drawn by hypothesis, then one row alternating the
    positive and the negative atom, whose sums over an even number of
    agents cancel under a symmetric model."""
    neg, pos = m.sign_atoms()
    rows = data.draw(st.lists(st.lists(st.integers(0, m.k - 1), min_size=n,
                                       max_size=n), min_size=1, max_size=4),
                     label="rows")
    rows.append([(pos, neg)[i % 2] for i in range(n)])
    return np.array(rows, dtype=np.intp)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(range(len(GOSSIP_GRAPHS))),
       st.sampled_from(GOSSIP_MODELS), st.sampled_from(("zero", "one",
                                                        "jitter")),
       st.sampled_from((1, 7, 40, strategies.BLOCK_CELLS)), st.data(),
       st.integers(0, 2 ** 32 - 1))
def test_gossip_trace_batch_matches_per_row_ring_sums(gi, m, mode, cap, data,
                                                      seed):
    """R rows at once, in blocks of any size, equal the per-row ring-sum
    reference in actions and in the batch's tie count, every tie mode."""
    g = GOSSIP_GRAPHS[gi]
    horizon = data.draw(st.integers(1, 6), label="horizon")
    atoms = _rows_with_cancelling_sums(data, m, g.n)
    jitters = np.random.default_rng(seed).random(atoms.shape)
    log = strategies.TieLog()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(strategies, "BLOCK_CELLS", cap)
        fast = strategies.GossipProfile(TieBreaker(mode)).trace_batch(
            g, m, atoms, jitters, horizon, log)
    assert fast.dtype == np.uint8 and fast.shape == atoms.shape + (horizon,)
    ties = 0
    for row, a, j in zip(fast, atoms, jitters):
        want, k = _ring_sum_gossip(g, m, a, j, horizon, mode)
        assert np.array_equal(row, want)
        ties += k
    assert log.count == ties


def test_gossip_trace_holds_no_dense_structure():
    """One trace on cycle(1000) at T=30 touches 59,000 (agent, member)
    pairs; the dense masks it replaced took 240 MB."""
    g = graphs.cycle(1000)
    m = signals.symmetric_binary(0.7)
    atoms = m.sample_atoms(np.random.default_rng(0), g.n, 1)
    prof = strategies.GossipProfile()
    tracemalloc.start()
    try:
        prof.trace_actions(g, m, atoms, np.zeros(g.n), 30)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20


def test_gossip_rings_stop_past_the_budget(fake_pool, monkeypatch):
    """On a dense graph whose balls cover every agent the rings hold n^2
    entries: n^2 fits a budget of n^2, and one entry fewer raises
    BudgetExceededError while the rings are built, so run_ensemble fails
    before any replicate or pool."""
    g = graphs.random_regular(20, 6, seed=1)
    m = signals.symmetric_binary(0.7)
    monkeypatch.setattr(strategies, "DEFAULT_BUDGET", g.n ** 2)
    strategies.GossipProfile().trace_batch(g, m, np.zeros((1, g.n), int),
                                           np.zeros((1, g.n)), 6)
    monkeypatch.setattr(strategies, "DEFAULT_BUDGET", g.n ** 2 - 1)
    with pytest.raises(strategies.BudgetExceededError, match="gossip rings"):
        strategies.GossipProfile().trace_batch(
            g, m, np.zeros((1, g.n), int), np.zeros((1, g.n)), 6)
    chunks = []
    monkeypatch.setattr(dynamics, "_run_chunk",
                        lambda *a, **kw: chunks.append(a))
    monkeypatch.setattr(dynamics, "_usable_cpus", lambda: 8)
    cfg = dynamics.SimConfig(horizon=6, replicates=4, tail_window=2)
    with pytest.raises(strategies.BudgetExceededError):
        dynamics.run_ensemble(g, m, strategies.GossipProfile(), cfg,
                              workers=2)
    assert chunks == [] and fake_pool == []


@st.composite
def _digraphs(draw):
    """A random directed graph on 1-12 vertices, some of them sinks, often
    with parts that cannot reach each other."""
    n = draw(st.integers(1, 12))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    edges = draw(st.frozensets(pairs, max_size=3 * n))
    sinks = draw(st.frozensets(st.integers(0, n - 1), max_size=n))
    return graphs.DirectedGraph(n, frozenset(
        (i, j) for i, j in edges if i != j and i not in sinks))


@st.composite
def _ball_cases(draw):
    """(graph, radius, cap): a listed gossip graph or a random digraph, a
    radius from -1 to n + 1 and no cap or one from 0 to n^2 + 1."""
    g = draw(st.one_of(st.sampled_from(GOSSIP_GRAPHS), _digraphs()))
    radius = draw(st.integers(-1, g.n + 1), label="radius")
    cap = draw(st.one_of(st.none(), st.integers(0, g.n * g.n + 1)),
               label="cap")
    return g, radius, cap


# 50 vertices: a directed 20-cycle, a directed path 20 -> ... -> 34 that
# ends in a sink and 15 isolated sinks; 149 entries within distance 3
_PARTS = graphs.DirectedGraph(50, frozenset(
    [(i, (i + 1) % 20) for i in range(20)]
    + [(i, i + 1) for i in range(20, 34)]))
# every other vertex points at the sink 0: 199 entries, and the sources at
# one place in every block reach the same local key
_HUB = graphs.DirectedGraph(100, frozenset((i, 0) for i in range(1, 100)))


@settings(max_examples=200, deadline=None)
@given(_ball_cases())
# a cap under n^2 / 8 entries searches b = 8 * cap // n sources at a time:
# cycle(100) has 500 entries within distance 2, searched in blocks of 40,
# 40 and 20 sources (of 39, 39 and 22 under a cap of 499); the parts above
# in blocks of 23, 23 and 4, and at radius 60, over the cap, of 32 and 18;
# the hub in six blocks of 15 sources and one of 10
@example((graphs.cycle(100), 2, 500))
@example((graphs.cycle(100), 2, 499))
@example((_PARTS, 3, 149))
@example((_PARTS, 3, 148))
@example((_PARTS, 60, 200))
@example((_HUB, 2, 199))
# radius 0 holds the n sources, radius 1 also each out-neighbour list: 100
# and 199 entries on the hub, 13 and 13 + 55 = 68 on royal_family(3,10)
@example((_HUB, 0, 100))
@example((_HUB, 0, 99))
@example((_HUB, 1, 199))
@example((_HUB, 1, 198))
@example((graphs.royal_family(3, 10), 0, None))
@example((graphs.royal_family(3, 10), 1, 68))
@example((graphs.royal_family(3, 10), 1, 67))
@example((graphs.mad_king(2, 200, 300), 0, None))
@example((graphs.mad_king(2, 200, 300), 1, None))
def test_all_balls_equal_per_source_ball_distances(case):
    """The ring search lists exactly the per-source truncated BFS entries,
    sorted by (distance, source, member), for every radius from -1 to
    n + 1; under a cap it returns None exactly when there are more
    entries than the cap."""
    g, radius, cap = case
    want = sorted((d, source, member) for source in range(g.n)
                  for member, d in enumerate(graphs.bfs_distances(
                      g, source, radius)) if d >= 0)
    got = graphs.all_balls(g, radius, cap)
    if cap is not None and len(want) > cap:
        assert got is None
        return
    assert all(a.dtype == np.int64 for a in got)
    assert list(zip(*(a.tolist() for a in got))) == want


def test_ring_search_holds_its_output_and_a_bitmap():
    """On cycle(5000) at radius 9 under a cap of 2 * 10^5 entries, the
    search marks what a block of 320 sources has reached in a bitmap of at
    most cap bytes, and holds nothing else of the size of its output: its
    peak is within the three output arrays plus that bitmap."""
    g, cap = graphs.cycle(5000), 2 * 10 ** 5
    tracemalloc.start()
    try:
        balls = graphs.all_balls(g, 9, cap)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(balls[0]) == 19 * g.n
    assert peak <= sum(a.nbytes for a in balls) + cap


def test_gossip_ring_search_holds_at_most_a_few_budgets():
    """On a complete graph one level's expansion holds n(n - 1) entries,
    40 times the lowered budget; the search expands it in slices and stops
    with BudgetExceededError before any temporary outgrows a few budgets
    (beyond the graph's own 8 * (n + 1 + edges) bytes of out-neighbour
    arrays)."""
    n, budget = 400, 4000
    g = graphs.DirectedGraph(n, frozenset(
        (i, j) for i in range(n) for j in range(n) if i != j))
    m = signals.symmetric_binary(0.7)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(strategies, "DEFAULT_BUDGET", budget)
        tracemalloc.start()
        try:
            with pytest.raises(strategies.BudgetExceededError):
                strategies.GossipProfile().trace_batch(
                    g, m, np.zeros((1, n), int), np.zeros((1, n)), 3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert peak < 8 * (n + 1 + len(g.edges)) + 8 * 50 * budget


@pytest.mark.parametrize("n", [1, 2])
def test_gossip_ring_block_holds_no_unplayed_rows(n):
    """chain(n) at T=30 has fewer ring entries than (agent, round) cells,
    so the cells size the block: the profile holds at most BLOCK_CELLS
    entries at 24 B and as many cells at 8 B (chain(1) held 17.3 MB when
    the entries alone sized it), and plays as one row per block does."""
    g, m, horizon = graphs.chain(n), signals.symmetric_binary(0.6), 30
    prof = strategies.GossipProfile(TieBreaker("jitter"))
    tracemalloc.start()
    try:
        prof.trace_batch(g, m, np.zeros((0, n), int), np.zeros((0, n)),
                         horizon)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held < 32 * strategies.BLOCK_CELLS
    rng = np.random.default_rng(n)
    atoms = rng.integers(0, m.k, size=(
        2 * strategies.BLOCK_CELLS // (n * horizon) + 3, n))
    jitters = rng.random(atoms.shape)
    log, one_log = strategies.TieLog(), strategies.TieLog()
    got = prof.trace_batch(g, m, atoms, jitters, horizon, log)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(strategies, "BLOCK_CELLS", n * horizon)
        want = strategies.GossipProfile(TieBreaker("jitter")).trace_batch(
            g, m, atoms, jitters, horizon, one_log)
    assert np.array_equal(got, want) and log.count == one_log.count
    assert (log.count > 0) == (n == 2)


def test_gossip_profile_holds_only_its_newest_rings():
    """One profile played one row at a time on every graph of GOSSIP_GRAPHS
    at horizons 1 to n + 2 holds only the newest (graph, horizon)'s rings
    and one-row block afterwards (151.9 MB when every key's rings and
    BLOCK_CELLS-sized block were kept)."""
    m = signals.symmetric_binary(0.7)
    rows = [(g, np.zeros((1, g.n), int), np.zeros((1, g.n)))
            for g in GOSSIP_GRAPHS]
    tracemalloc.start()
    try:
        prof = strategies.GossipProfile()
        for g, atoms, jitters in rows:
            for horizon in range(1, g.n + 3):
                prof.trace_batch(g, m, atoms, jitters, horizon)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held < 32 * strategies.BLOCK_CELLS


@settings(max_examples=100, deadline=None)
@given(st.lists(st.sampled_from(range(len(GOSSIP_GRAPHS))), min_size=2,
                max_size=2),
       st.lists(st.integers(1, 6), min_size=2, max_size=2),
       st.lists(st.tuples(st.integers(0, 1), st.integers(0, 1)), min_size=5,
                max_size=5),
       st.sampled_from(("zero", "one", "jitter")),
       st.sampled_from((1, 7, 2 ** 16)), st.integers(2, 9),
       st.integers(0, 2 ** 32 - 1))
def test_gossip_profile_serves_batches_like_fresh_profiles(
        gis, horizons, keys, mode, cap, R, seed):
    """One profile serving batches of 0, 1, R, 1 and 2R rows, each on one of
    two graphs at one of two horizons, plays each batch as a fresh profile
    does, in actions and tie count, whether it searches the rings again,
    tiles a larger block or reuses its block."""
    m = signals.symmetric_binary(0.6)
    rng = np.random.default_rng(seed)
    prof = strategies.GossipProfile(TieBreaker(mode))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(strategies, "BLOCK_CELLS", cap)
        for rows, (gk, hk) in zip((0, 1, R, 1, 2 * R), keys):
            g, horizon = GOSSIP_GRAPHS[gis[gk]], horizons[hk]
            atoms = rng.integers(0, m.k, size=(rows, g.n))
            jitters = rng.random(atoms.shape)
            log, fresh_log = strategies.TieLog(), strategies.TieLog()
            got = prof.trace_batch(g, m, atoms, jitters, horizon, log)
            want = strategies.GossipProfile(TieBreaker(mode)).trace_batch(
                g, m, atoms, jitters, horizon, fresh_log)
            assert got.shape == (rows, g.n, horizon)
            assert np.array_equal(got, want)
            assert log.count == fresh_log.count


def test_gossip_profile_pickles_its_rings_only(monkeypatch):
    """A solved profile pickles to its one-row rings, 56 entries on
    cycle(8) at T=4, not to its 1.87 MB block of tiles and buffers; the
    copy tiles them on its first batch without searching the balls again,
    and plays bit-identically."""
    g, m, horizon = graphs.cycle(8), signals.symmetric_binary(0.7), 4
    prof = strategies.GossipProfile(TieBreaker("jitter"))
    rng = np.random.default_rng(3)
    atoms = rng.integers(0, m.k, size=(3000, g.n))
    jitters = rng.random(atoms.shape)
    log, copy_log = strategies.TieLog(), strategies.TieLog()
    want = prof.trace_batch(g, m, atoms, jitters, horizon, log)
    data = pickle.dumps(prof)
    assert len(data) < 4096

    def no_search(*args, **kw):
        raise AssertionError("the copy searched the balls again")

    monkeypatch.setattr(graphs, "all_balls", no_search)
    copy = pickle.loads(data)
    got = copy.trace_batch(g, m, atoms, jitters, horizon, copy_log)
    assert np.array_equal(got, want) and copy_log.count == log.count
    assert copy._block[0] > 1


@pytest.mark.parametrize("mode", ["zero", "one", "jitter"])
@pytest.mark.parametrize("spec", ["cycle(200)", "grid(12,12)"])
def test_gossip_ensemble_matches_ring_sums_past_small_diameters(spec, mode):
    """At T=30 the balls grow for 29 levels, past the diameters of
    GOSSIP_GRAPHS, and a ring block holds several rows: run_ensemble's
    report and kept actions equal a tally of the per-row ring-sum
    reference.  (On cycle(200) every ball holds an odd number of agents,
    so no sum of a symmetric model cancels; grid(12,12) has ties.)"""
    g = graphs.generate(spec)
    m = signals.symmetric_binary(0.6)
    prof = strategies.GossipProfile(TieBreaker(mode))
    cfg = dynamics.SimConfig(horizon=30, replicates=12, tail_window=4,
                             master_seed=5)
    rep, actions = dynamics.run_ensemble(g, m, prof, cfg, keep_actions=True)
    assert prof._block[0] > 1
    tally = dynamics.EnsembleTally(g.n)
    for r in range(cfg.replicates):
        tr = dynamics.run_trace(g, m, prof, cfg, r)
        want, ties = _ring_sum_gossip(g, m, tr.atoms, tr.jitters,
                                      cfg.horizon, mode)
        assert np.array_equal(actions[r], want)
        tally.add_batch([tr.state], want[None], ties, cfg.tail_window)
    assert (tally.tie_events > 0) == (spec == "grid(12,12)")
    assert rep == dynamics.report_from_tally(tally, cfg, g.family_tag)


def test_gossip_consensus_on_cycle():
    """On an undirected cycle every agent eventually pools all ratios, so
    all agents converge to sign(sum z) and stay there."""
    g = graphs.cycle(10)
    m = signals.symmetric_binary(0.7)
    gossip = strategies.GossipProfile()
    rng = np.random.default_rng(3)
    atoms = [int(a) for a in m.sample_atoms(rng, g.n, 1)]
    tr = gossip.trace_actions(g, m, atoms, np.zeros(g.n), 12)
    z = sum(m.atoms[a].z for a in atoms)
    want = 1 if z > 0 else 0
    assert (tr[:, 5:] == want).all()


# --- royal family ----------------------------------------------------------

def test_royal_family_profile_requires_family():
    m = signals.royal_bounded()
    with pytest.raises(ValueError):
        strategies.RoyalFamilyProfile(graphs.dicycle(4), m)


def test_royal_family_round_structure():
    g = graphs.royal_family(3, 6)
    m = signals.royal_bounded()
    prof = strategies.RoyalFamilyProfile(g, m)
    rng = np.random.default_rng(0)
    atoms = [int(a) for a in m.sample_atoms(rng, g.n, 1)]
    tr = prof.trace_actions(g, m, atoms, np.zeros(g.n), 8)
    neg, pos = m.sign_atoms()
    z = np.array([m.atoms[a].z for a in atoms])
    # round 0: private sign
    assert np.array_equal(tr[:, 0], (z > 0).astype(np.uint8))
    # round 1: sign of the closed-neighborhood sum
    for i in range(g.n):
        tot = sum(z[j] for j in g.closed_nbrs(i))
        assert tr[i, 1] == (1 if tot > 0 else 0)
    # rounds >= 2: frozen at the round-1 action
    assert (tr[:, 2:] == tr[:, [1]]).all()


def test_royal_family_trace_matches_action_loop():
    g = graphs.royal_family(2, 4)
    m = signals.royal_bounded()
    prof = strategies.RoyalFamilyProfile(g, m)
    rng = np.random.default_rng(5)
    for _ in range(5):
        s = int(rng.integers(0, 2))
        atoms = [int(a) for a in m.sample_atoms(rng, g.n, s)]
        fast = prof.trace_actions(g, m, atoms, np.zeros(g.n), 6)
        slow = np.array(beliefs.simulate_actions(g, prof, atoms, 6),
                        dtype=np.uint8).T
        assert np.array_equal(fast, slow)


def test_royal_family_profile_holds_no_dense_matrix():
    """The profile holds its closed neighbourhoods as gossip rings, about
    five entries per agent on royal_family(3,3000), built on the first
    trace; the dense n x n matrix they replaced took 72 MB."""
    g = graphs.royal_family(3, 3000)
    m = signals.royal_bounded()
    tracemalloc.start()
    try:
        prof = strategies.RoyalFamilyProfile(g, m)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20
    assert prof.trace_actions(g, m, np.zeros(g.n, dtype=int), np.zeros(g.n),
                              3).shape == (g.n, 3)


ROYAL_MODELS = st.one_of(
    st.sampled_from((0.6, 0.7, 0.9)).map(signals.symmetric_binary),
    st.sampled_from((signals.royal_bounded(), signals.mad_king_asym())))


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 4), st.integers(1, 8), ROYAL_MODELS,
       st.sampled_from(("zero", "one")), st.integers(1, 6),
       st.integers(0, 2 ** 32 - 1))
def test_royal_family_trace_matches_action_loop_in_every_tie_mode(
        R, n, m, mode, horizon, seed):
    """The fast path equals the per-agent action loop in actions and in
    tie counts."""
    g = graphs.royal_family(R, n)
    prof = strategies.RoyalFamilyProfile(g, m, TieBreaker(mode))
    rng = np.random.default_rng(seed)
    atoms = m.sample_atoms(rng, g.n, int(rng.integers(0, 2)))
    fast_log, slow_log = strategies.TieLog(), strategies.TieLog()
    fast = prof.trace_actions(g, m, atoms, np.zeros(g.n), horizon, fast_log)
    slow = strategies.Profile.trace_actions(prof, g, m, atoms, np.zeros(g.n),
                                            horizon, slow_log)
    assert np.array_equal(fast, slow)
    assert fast_log.count == slow_log.count


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 4), st.integers(1, 6), ROYAL_MODELS,
       st.sampled_from(("zero", "one")), st.integers(1, 5), st.data())
def test_royal_family_trace_batch_matches_the_generic_loop(R, n, m, mode,
                                                          horizon, data):
    """R rows at once equal the per-agent action loop row by row, in
    actions and in the batch's tie count, including rows whose round-1
    sums cancel."""
    g = graphs.royal_family(R, n)
    prof = strategies.RoyalFamilyProfile(g, m, TieBreaker(mode))
    atoms = _rows_with_cancelling_sums(data, m, g.n)
    log, slow_log = strategies.TieLog(), strategies.TieLog()
    fast = prof.trace_batch(g, m, atoms, np.zeros(atoms.shape), horizon, log)
    assert fast.dtype == np.uint8 and fast.shape == atoms.shape + (horizon,)
    for row, a in zip(fast, atoms):
        slow = strategies.Profile.trace_actions(prof, g, m, a, np.zeros(g.n),
                                             horizon, slow_log)
        assert np.array_equal(row, slow)
    assert log.count == slow_log.count


def test_scripted_profiles_reject_atoms_within_tie_tol():
    """An atom within TIE_TOL of 0 ties at round 0, so its action reveals
    nothing and the round-1 decoding is meaningless: both scripted profiles
    refuse such a model."""
    m = signals.symmetric_binary(0.5 + 1e-13)
    assert 0 < m.atoms[0].z < strategies.TIE_TOL
    with pytest.raises(ValueError, match="sign decoding"):
        strategies.RoyalFamilyProfile(graphs.royal_family(3, 4), m)
    with pytest.raises(ValueError, match="sign decoding"):
        strategies.MadKingProfile(graphs.mad_king(1, 2, 2), m)


def test_scripted_profiles_reject_jitter_tiebreak():
    """The royal and mad-king rules decide from the atoms alone, so a
    jitter tie rule would silently run as mode zero; both refuse it."""
    jitter = TieBreaker("jitter")
    with pytest.raises(ValueError, match="jitter"):
        strategies.RoyalFamilyProfile(graphs.royal_family(2, 3),
                                      signals.royal_bounded(), jitter)
    g = graphs.mad_king(1, 1, 1)
    with pytest.raises(ValueError, match="jitter"):
        strategies.MadKingProfile(g, signals.mad_king_asym(), jitter)


def test_royal_family_unanimous_royals_herd_everyone():
    """When every royal drew the + atom, the clique plays 1 from round 1 and
    the public follows regardless of its own signals: the all-minus public
    still locks on 1 because each public agent sees all R royals (R = 4
    beats a public agent's own ratio plus two chain neighbors)."""
    R, n = 4, 6
    g = graphs.royal_family(R, n)
    m = signals.royal_bounded()
    prof = strategies.RoyalFamilyProfile(g, m)
    neg, pos = m.sign_atoms()
    atoms = [pos] * R + [neg] * n
    # each public agent's round-1 sum is R*z_plus minus at most three
    # chain-neighbor ratios, positive because |z_minus| < 2 z_plus * R / 3
    tr = prof.trace_actions(g, m, atoms, np.zeros(g.n), 10)
    assert (tr[:R, 1:] == 1).all()
    assert (tr[R:, 1:] == 1).all()


# --- mad king ---------------------------------------------------------------

def make_mk(R_C=3, R_B=8, n=5):
    g = graphs.mad_king(R_C, R_B, n)
    m = signals.mad_king_asym()
    prof = strategies.MadKingProfile(g, m)
    return g, m, prof.roles, prof


def test_mad_king_requires_family():
    with pytest.raises(ValueError, match="mad_king"):
        strategies.MadKingProfile(graphs.dicycle(4), signals.mad_king_asym())


@pytest.mark.parametrize("sizes", [(1, 1, 1), (3, 8, 5), (2, 200, 300)])
def test_mad_king_roles_match_the_family_ranges(sizes):
    """The roles grouped from graphs.role_names equal the ranges computed
    from R_C and R_B, which is how they were derived before."""
    rc, rb, n = sizes
    g = graphs.mad_king(rc, rb, n)
    assert strategies.mad_king_roles_of(g) == strategies.MadKingRoles(
        king=0, regent=1, court=tuple(range(2, 2 + rc)),
        bureaucracy=tuple(range(2 + rc, 2 + rc + rb)),
        people=tuple(range(2 + rc + rb, 2 + rc + rb + n)))
    prof = strategies.MadKingProfile(g, signals.mad_king_asym())
    assert prof.roles == strategies.mad_king_roles_of(g)
    with pytest.raises(ValueError, match="mad_king"):
        strategies.mad_king_roles_of(graphs.royal_family(2, 3))


def test_mad_king_people_forced_silent_then_imitate():
    g, m, roles, prof = make_mk()
    neg, pos = m.sign_atoms()
    atoms = [pos] * g.n
    acts = np.array(beliefs.simulate_actions(g, prof, atoms, 6),
                    dtype=np.uint8).T
    # people play 0 in rounds 0 and 1 no matter what
    assert (acts[list(roles.people), :2] == 0).all()
    # from round 2 they copy the king's previous action
    for t in range(2, 6):
        for p in roles.people:
            assert acts[p, t] == acts[roles.king, t - 1]


def test_mad_king_court_round_structure():
    g, m, roles, prof = make_mk()
    neg, pos = m.sign_atoms()
    atoms = [neg] * g.n
    acts = np.array(beliefs.simulate_actions(g, prof, atoms, 5),
                    dtype=np.uint8).T
    z = m.atoms[neg].z
    for c in roles.court:
        assert acts[c, 0] == 0  # private sign
        assert acts[c, 1] == (1 if 2 * z > 0 else 0)  # own + decoded king
        # from round 2 the court imitates the king's previous action
        for t in range(2, 5):
            assert acts[c, t] == acts[roles.king, t - 1]


def test_mad_king_regent_lock():
    g, m, roles, prof = make_mk(R_B=8)
    neg, pos = m.sign_atoms()
    atoms = [pos] * g.n
    assert prof.regent_z1(atoms) == pytest.approx(
        2 * 1.0 + 8 * 1.0, abs=1e-9)
    # a lone + king against an all-minus bureaucracy pushes Z_1 negative
    atoms2 = list(atoms)
    for b in roles.bureaucracy:
        atoms2[b] = neg
    assert prof.regent_z1(atoms2) < 0


def test_mad_king_rage_rule():
    """A person who plays 1 at round 0 or 1, which play never produces,
    sends the king to 1 at every later round, whatever else it sees."""
    g, m, roles, prof = make_mk(R_C=2, R_B=4, n=2)
    neg, pos = m.sign_atoms()
    atoms = [neg] * g.n
    # without the rebellion the all-minus king stays at 0
    calm = prof.trace_actions(g, m, atoms, None, 5)
    assert (calm[roles.king] == 0).all()
    for rebel_round in (0, 1):
        acts = calm.copy()
        acts[roles.people[0], rebel_round] = 1
        rounds = [tuple(col) for col in acts.T.tolist()]
        for t in range(rebel_round + 1, 5):
            history = beliefs.history_of(g, rounds, roles.king, t)
            assert prof.action(roles.king, neg, history) == 1


@pytest.mark.parametrize("sign", [0, 1])
def test_mad_king_regent_deviation_falls_back_to_counting(sign):
    """Once the regent's run from round 1 breaks, which play never
    produces, the king and the bureaucrats stop imitating the regent and
    play their static counting response again.  With every atom of one
    sign that response is the sign, and the regent's broken run ends on
    the other action."""
    g = graphs.mad_king(2, 3, 2)
    m = signals.symmetric_binary(0.7)
    prof = strategies.MadKingProfile(g, m)
    r = prof.roles
    atom = m.sign_atoms()[sign]
    acts = prof.trace_actions(g, m, [atom] * g.n, None, 5)
    assert (acts[[r.regent, r.king, *r.bureaucracy]] == sign).all()
    acts[r.regent, 2:] = 1 - sign
    rounds = [tuple(col) for col in acts.T.tolist()]
    for t in (3, 4, 5):
        for agent in (r.king, *r.bureaucracy):
            history = beliefs.history_of(g, rounds, agent, t)
            assert prof.action(agent, atom, history) == sign


MAD_KING_MODELS = (signals.symmetric_binary(0.6),
                   signals.symmetric_binary(0.7), signals.royal_bounded(),
                   signals.mad_king_asym())


@example(sizes=(1, 1, 1), m=MAD_KING_MODELS[0], mode="zero", horizon=3,
         rows=3, seed=0)
@settings(max_examples=120, deadline=None)
@given(sizes=st.tuples(*[st.integers(1, 4)] * 3),
       m=st.sampled_from(MAD_KING_MODELS), mode=st.sampled_from(("zero",
                                                                "one")),
       horizon=st.integers(1, 6), rows=st.integers(1, 4),
       seed=st.integers(0, 2 ** 32 - 1))
def _check_mad_king_trace_batch(ties, sizes, m, mode, horizon, rows, seed):
    g = graphs.mad_king(*sizes)
    rng = np.random.default_rng(seed)
    atoms = np.array([m.sample_atoms(rng, g.n, int(rng.integers(0, 2)))
                      for _ in range(rows)])
    ties.append(_mad_king_batch_vs_loop(g, m, mode, atoms, horizon))


def _mad_king_batch_vs_loop(g, m, mode, atoms, horizon):
    """Assert that ``trace_batch`` on the rows of ``atoms``, one-row
    ``trace_actions`` calls and the generic loop over ``action`` agree;
    return the loop's tie count."""
    rows = len(atoms)
    prof = strategies.MadKingProfile(g, m, TieBreaker(mode))
    batch_log, one_log, slow_log = (strategies.TieLog() for _ in range(3))
    batch = prof.trace_batch(g, m, atoms, np.zeros(atoms.shape), horizon,
                             batch_log)
    ones = np.stack([prof.trace_actions(g, m, a, np.zeros(g.n), horizon,
                                        one_log) for a in atoms])
    slow = np.stack([strategies.Profile.trace_actions(
        prof, g, m, a, np.zeros(g.n), horizon, slow_log) for a in atoms])
    assert batch.dtype == ones.dtype == slow.dtype == np.uint8
    assert batch.shape == ones.shape == slow.shape == (rows, g.n, horizon)
    assert np.array_equal(batch, slow) and np.array_equal(ones, slow)
    assert batch_log.count == one_log.count == slow_log.count
    return slow_log.count


def test_mad_king_trace_batch_matches_action_loop():
    """The role-vectorized kernel equals the generic per-agent loop over
    action() in actions, dtype, shape and tie count, on mad_king graphs
    with every class size in 1..4, four sign models, tie modes zero and
    one and horizons 1..6; R rows at once equal R one-row calls.  The
    drawn cases must tie somewhere, or the tie path went unexercised."""
    ties = []
    _check_mad_king_trace_batch(ties)
    assert sum(ties) > 0


@pytest.mark.parametrize("mode", ["zero", "one"])
def test_mad_king_trace_batch_matches_action_loop_at_recipe_size(mode):
    """The same agreement on mad_king(2,200,300), the size that
    scripts/mad_king.cfg plays, for three rows at T = 12: one under S = 0,
    two under S = 1.  Court and bureaucrats tie at round 1 whenever their
    own atom and the one they decode differ, so the rows tie."""
    g = graphs.mad_king(2, 200, 300)
    m = signals.symmetric_binary(0.7)
    rng = np.random.default_rng(1)
    atoms = np.array([m.sample_atoms(rng, g.n, s) for s in (0, 1, 1)])
    assert _mad_king_batch_vs_loop(g, m, mode, atoms, 12) > 0


@pytest.mark.parametrize("mode", ["zero", "one"])
def test_mad_king_regent_ties_at_every_round_from_1(mode):
    """With the regent and bureaucrat 3 on + and every other agent on -,
    the regent's Z_1 and bureaucrat 4's round-1 sum are exactly 0.  The
    regent decides sign(Z_1) again at every round from 1, so a horizon of 5
    logs 5 ties: 4 of the regent's and 1 of bureaucrat 4's, in the batched
    kernel as in the per-agent loop."""
    g = graphs.mad_king(1, 2, 1)
    m = signals.symmetric_binary(0.7)
    prof = strategies.MadKingProfile(g, m, TieBreaker(mode))
    assert prof.roles.bureaucracy == (3, 4)
    neg, pos = m.sign_atoms()
    atoms = np.full(g.n, neg)
    atoms[[prof.roles.regent, 3]] = pos
    assert prof.regent_z1(atoms) == 0.0
    fast_log, slow_log = strategies.TieLog(), strategies.TieLog()
    fast = prof.trace_batch(g, m, atoms[None], None, 5, fast_log)[0]
    slow = strategies.Profile.trace_actions(prof, g, m, atoms, np.zeros(g.n),
                                            5, slow_log)
    assert np.array_equal(fast, slow)
    assert fast_log.count == slow_log.count == 5
    assert (fast[prof.roles.regent, 1:] == int(mode == "one")).all()


def test_mad_king_regime_inequality():
    """The intended parameter regime e^{R_C} << 1/(1-lam) << R_B leaves the
    king's court signal bounded while the bureaucracy overwhelms it."""
    R_C, R_B, lam = 2, 200, 0.99
    assert math.exp(R_C) < 1.0 / (1.0 - lam) < R_B


# --- deviation conditions ---------------------------------------------------

def test_myopic_condition_formulas():
    y = (0.2, 0.25, 0.3, 0.35)
    lam = 0.8
    out = beliefs.myopic_condition_check(y, lam)
    lhs = 0.4
    assert out["B1"] == (lhs > lam ** 2 * (0.5 - 0.2) / 0.2)
    assert out["B2"] == (lhs > lam ** 2 * (0.5 - 0.25) / 0.2)
    assert out["B3"] == (lhs > lam ** 2 * (0.5 - 0.3) / 0.2)
    assert out["B4"] == (lhs > lam ** 2 * (0.5 - 0.3)
                         + lam ** 3 * (0.5 - 0.35) / 0.2)


@settings(max_examples=60, deadline=None)
@given(st.floats(0.0, 0.5), st.floats(0.0, 0.5), st.floats(0.0, 0.5),
       st.floats(0.0, 0.5), st.floats(0.05, 0.95))
# Y_1 = Y_2 = Y_3, where B_4's bound in its own form rounds one ulp above
# B_3's; d1 lies past the drawn range, but any d in [0, 1] keeps Y monotone
@example(0.08191033247654755, 0.9770806806380895, 0.0, 0.0,
         0.9474889422102899)
def test_myopic_conditions_nested_for_monotone_y(y0, d1, d2, d3, lam):
    ys = [y0]
    for d in (d1, d2, d3):
        ys.append(min(0.5, ys[-1] + d * (0.5 - ys[-1])))
    out = beliefs.myopic_condition_check(ys, lam)
    assert (not out["B1"]) or out["B2"]
    assert (not out["B2"]) or out["B3"]
    assert (not out["B3"]) or out["B4"]


def test_myopic_condition_validation():
    with pytest.raises(ValueError):
        beliefs.myopic_condition_check((0.1, 0.2, 0.3, 0.4), 1.0)
    with pytest.raises(ValueError):
        beliefs.myopic_condition_check((0.1, 0.2, 0.7, 0.4), 0.5)
    with pytest.raises(ValueError):
        beliefs.myopic_condition_check((0.1, 0.2), 0.5)


def test_gossip_jitter_breaks_ties_below_one_half(tmp_path):
    """Built from a config, the gossip profile resolves a tie with the
    jitter rule: on dicycle(4) with alternating atoms every agent's round-1
    sum (its own atom and the one it observes) is exactly 0, and each tied
    agent plays 1 iff its U[0, 1) jitter < 1/2."""
    p = tmp_path / "jitter.cfg"
    p.write_text("[graph]\nfamily = dicycle(4)\n\n"
                 "[signal]\nkind = symmetric_binary\nq = 0.7\n\n"
                 "[profile]\nname = gossip\ntie = jitter\n\n"
                 "[sim]\nhorizon = 4\ntail_window = 2\n")
    rc = config.load_config(str(p))
    g = rc.build_graph()
    m = rc.build_signal_model()
    prof = rc.build_profile(g, m)
    neg, pos = m.sign_atoms()
    alternate = np.array([pos, neg, pos, neg])

    played = set()
    for r in range(12):
        # replicate r's jitters, played with the alternating atoms
        jitters = dynamics.run_trace(g, m, prof, rc.sim, r).jitters
        tie_log = strategies.TieLog()
        actions = prof.trace_actions(g, m, alternate, jitters,
                                     rc.sim.horizon, tie_log)
        tied = jitters < 0.5
        # rounds 1 and 3 sum an even number of alternating atoms: all tie
        assert tie_log.count == 2 * g.n
        for t in (1, 3):
            assert np.array_equal(actions[:, t], tied.astype(np.uint8))
        played.update(actions[:, 1].tolist())
    assert played == {0, 1}
