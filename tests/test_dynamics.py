import csv
import functools
import itertools
import os
import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from netlearn import beliefs, config, dynamics, graphs, signals, strategies
from netlearn.strategies import TieBreaker
from netlearn.dynamics import SimConfig


def small_setup():
    g = graphs.cycle(8)
    m = signals.symmetric_binary(0.7)
    return g, m, strategies.GossipProfile()


def test_simconfig_validation():
    with pytest.raises(ValueError):
        SimConfig(horizon=0)
    with pytest.raises(ValueError):
        SimConfig(discount=1.0)
    with pytest.raises(ValueError):
        SimConfig(tail_window=40, horizon=30)
    with pytest.raises(ValueError, match="seed"):
        SimConfig(master_seed=-1)


def test_run_trace_shapes_and_determinism():
    g, m, prof = small_setup()
    cfg = SimConfig(horizon=10, replicates=4, master_seed=42)
    t1 = dynamics.run_trace(g, m, prof, cfg, 2)
    t2 = dynamics.run_trace(g, m, prof, cfg, 2)
    assert t1.actions.shape == (8, 10)
    assert t1.state == t2.state
    assert np.array_equal(t1.atoms, t2.atoms)
    assert np.array_equal(t1.actions, t2.actions)
    t3 = dynamics.run_trace(g, m, prof, cfg, 3)
    assert t3.replicate_index == 3


def test_run_trace_draws_jitters_only_for_jitter_ties():
    """Replicate r's state is slot 0 of its replicate_rng row, its atoms
    map slots 1 .. n, and under tie mode jitter its jitters are slots
    n + 1 .. 2n; under the other modes they are zeros and take no slots, so
    its atoms are the same under all three modes."""
    g, m, _ = small_setup()
    cfg = SimConfig(horizon=6, replicates=1, master_seed=9)
    for r in (0, 4, 259, 2 ** 32 - 1):
        u = dynamics.replicate_rng(9, r, r + 1, 2 * g.n + 1)[0]
        traces = [dynamics.run_trace(g, m, strategies.GossipProfile(
            TieBreaker(mode)), cfg, r) for mode in ("zero", "one", "jitter")]
        for tr in traces:
            assert tr.state == int(u[0] < 0.5)
            assert np.array_equal(tr.atoms,
                                  m.atoms_of(u[1:g.n + 1], tr.state))
        for tr, want in zip(traces, (np.zeros(g.n), np.zeros(g.n),
                                     u[g.n + 1:])):
            assert np.array_equal(tr.jitters, want)


def test_run_ensemble_solves_the_profile_before_the_pool(fake_pool,
                                                         monkeypatch):
    """Each worker receives the myopic profile solved to the horizon, so
    none rebuilds the world table."""
    g = graphs.dicycle(5)
    m = signals.symmetric_binary(0.7)
    solved = []
    run_chunk = dynamics._run_chunk

    def chunk(g, m, profile, *args, **kw):
        solved.append(len(pickle.loads(pickle.dumps(profile))._play))
        return run_chunk(g, m, profile, *args, **kw)

    monkeypatch.setattr(dynamics, "_run_chunk", chunk)
    monkeypatch.setattr(dynamics, "_usable_cpus", lambda: 8)
    cfg = SimConfig(horizon=4, replicates=4, tail_window=2)
    dynamics.run_ensemble(g, m, strategies.MyopicExactProfile(g, m), cfg,
                          workers=2)
    assert fake_pool == [2] and solved == [4, 4]


def test_run_ensemble_builds_the_gossip_rings_before_the_pool(fake_pool,
                                                              monkeypatch):
    """The pool's initializer hands the workers the profile with its gossip
    rings built: the parent searches the balls once and no worker searches
    them again, and each task carries only its chunk's indices, not the
    profile."""
    g, m, prof = small_setup()
    searches, copies = [], []
    all_balls, run_chunk = graphs.all_balls, dynamics._run_chunk

    def search(*args, **kw):
        searches.append(len(copies))
        return all_balls(*args, **kw)

    def chunk(g, m, profile, *args, **kw):
        copies.append(profile is not prof)
        return run_chunk(g, m, profile, *args, **kw)

    monkeypatch.setattr(graphs, "all_balls", search)
    monkeypatch.setattr(dynamics, "_run_chunk", chunk)
    monkeypatch.setattr(dynamics, "_usable_cpus", lambda: 8)
    cfg = SimConfig(horizon=4, replicates=4, tail_window=2)
    dynamics.run_ensemble(g, m, prof, cfg, workers=2)
    assert fake_pool == [2] and copies == [True] * 2 and searches == [0]
    assert len(fake_pool.task_bytes) == 2
    assert max(fake_pool.task_bytes) < len(pickle.dumps(prof)) / 10


def test_replicate_rng_is_batch_independent():
    """A draw depends only on (master seed, replicate, slot): a range of
    replicates, or of slots, is the concatenation of its sub-ranges, so any
    partition of replicates over workers and blocks gives identical
    results; another seed draws other uniforms."""
    whole = dynamics.replicate_rng(7, 250, 530, 9)
    assert whole.shape == (280, 9) and whole.dtype == np.float64
    parts = [dynamics.replicate_rng(7, lo, hi, 9)
             for lo, hi in ((250, 251), (251, 256), (256, 512), (512, 530))]
    assert np.array_equal(whole, np.concatenate(parts))
    assert np.array_equal(whole[:, :4], dynamics.replicate_rng(7, 250, 530, 4))
    assert dynamics.replicate_rng(7, 3, 3, 9).shape == (0, 9)
    other = dynamics.replicate_rng(8, 250, 530, 9)
    assert not np.isin(other, whole).any()


def _splitmix_uniform(seed, r, j):
    """u(s, r, j) of the dynamics docstring in Python ints, the oracle of
    the uint64 array code."""
    def mix64(z):
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 % 2 ** 64
        z = (z ^ (z >> 27)) * 0x94D049BB133111EB % 2 ** 64
        return z ^ (z >> 31)
    gamma = 0x9E3779B97F4A7C15
    key = mix64((seed + gamma) % 2 ** 64)
    return (mix64((key + (r * 2 ** 32 + j) * gamma) % 2 ** 64) >> 11) \
        * 2.0 ** -53


def test_replicate_rng_known_answers():
    """The first uniforms of (seed 0, replicate 0) and of (seed 2^64 - 1,
    replicate 10^9), in units of 2^-53: the contract's output, pinned, and
    the Python-int oracle's."""
    cases = {
        (0, 0): (0x9043044DFE79A, 0x14E0DBA5E9A32F, 0x16705460BE8829,
                 0xC63522A9F757E),
        (2 ** 64 - 1, 10 ** 9): (0x1D11F66093A8B4, 0x1D997F989944EB,
                                 0x1D2DAB42D73A1C, 0x14FEBA98234454),
    }
    for (seed, r), want in cases.items():
        u = dynamics.replicate_rng(seed, r, r + 1, 4)[0]
        assert [int(x * 2.0 ** 53) for x in u] == list(want)
        assert u.tolist() == [_splitmix_uniform(seed, r, j)
                              for j in range(4)]


@pytest.mark.parametrize("seed", [0, 1, 12345, 2 ** 64 - 1])
def test_replicate_rng_is_uniform_and_uncorrelated(seed):
    """2^20 uniforms (4096 replicates x 256 slots) fill 256 equal bins with
    a chi-square within 4 SD of its mean 255, and their lag-1 correlations
    across slots, across replicates and against the next seed's lie within
    4 SE of 0."""
    u = dynamics.replicate_rng(seed, 0, 4096, 256)
    counts = np.bincount((u * 256).astype(np.intp).ravel(), minlength=256)
    chi2 = ((counts - 4096.0) ** 2).sum() / 4096.0
    assert abs(chi2 - 255) <= 4 * np.sqrt(2 * 255), chi2
    nxt = dynamics.replicate_rng((seed + 1) % 2 ** 64, 0, 4096, 256)
    for a, b in ((u[:, :-1], u[:, 1:]), (u[:-1], u[1:]), (u, nxt)):
        rho = np.corrcoef(a.ravel(), b.ravel())[0, 1]
        assert abs(rho) <= 4 / np.sqrt(a.size), rho


def _exact_learning(g, m, prof, horizon, window):
    """P(every agent's tail set is {state}) over all k^n worlds, each
    played once by trace_batch and weighted by its mass under each state."""
    worlds = np.array(list(itertools.product(range(m.k), repeat=g.n)))
    tail = prof.trace_batch(g, m, worlds, np.zeros(worlds.shape),
                            horizon)[:, :, -window:]
    p = 0.0
    for s in (0, 1):
        probs = np.array([a.p1 if s else a.p0 for a in m.atoms])
        p += 0.5 * probs[worlds].prod(axis=1)[(tail == s).all(axis=(1, 2))] \
            .sum()
    return p


def test_wilson_intervals_cover_the_exact_learning_probability():
    """The royal-family recipe's exact learning probability, summed over
    its 2^13 worlds, is 0.802988; the Wilson 95% intervals of 400 seeds x
    1000 replicates cover it in 367 to 393 runs, 95% within 3 binomial SE.
    A seeding fault (overlapping or correlated replicates) or a tally fault
    that no per-replicate test sees moves the count out of that band."""
    rc = config.load_config(os.path.join(os.path.dirname(__file__), "..",
                                         "scripts", "royal_family.cfg"))
    g = rc.build_graph()
    m = rc.build_signal_model()
    prof = rc.build_profile(g, m)
    sim = rc.sim
    p = _exact_learning(g, m, prof, sim.horizon, sim.tail_window)
    assert p == pytest.approx(0.802988, abs=5e-7)
    covered = 0
    for seed in range(400):
        report, _ = dynamics.run_ensemble(g, m, prof, SimConfig(
            sim.horizon, 1000, sim.discount, sim.tail_window, seed))
        lo, hi = report.learning_ci
        covered += lo <= p <= hi
    se = np.sqrt(400 * 0.95 * 0.05)
    assert abs(covered - 380) <= 3 * se, covered


def test_discounted_utility_bounds():
    g, m, prof = small_setup()
    cfg = SimConfig(horizon=20, replicates=1, master_seed=1)
    tr = dynamics.run_trace(g, m, prof, cfg, 0)
    u, rem = dynamics.discounted_utility(tr, 0, 0.9)
    assert 0.0 <= u <= 1.0 - 0.9 ** 20 + 1e-12
    assert rem == pytest.approx(0.9 ** 20)
    # an always-correct agent earns the full truncated mass
    perfect = dynamics.Trace(1, tr.atoms, tr.jitters,
                             np.ones_like(tr.actions), 0, 0)
    u_max, _ = dynamics.discounted_utility(perfect, 0, 0.9)
    assert u_max == pytest.approx(1.0 - 0.9 ** 20)


def test_injection_overrides_draw():
    g = graphs.royal_family(3, 5)
    m = signals.royal_bounded()
    prof = strategies.RoyalFamilyProfile(g, m)
    cfg = SimConfig(horizon=6, replicates=1, master_seed=0)
    neg, pos = m.sign_atoms()
    tr = dynamics.run_trace(g, m, prof, cfg, 0)
    # condition on every royal drawing +: edit the drawn atoms and play
    # them again (play never reads the state)
    atoms = tr.atoms.copy()
    atoms[:3] = pos
    actions = prof.trace_actions(g, m, atoms, tr.jitters, cfg.horizon)
    # the royals herd on 1 from round 1, wrongly whenever S = 0
    assert (actions[:3, 1:] == 1).all()


def test_ensemble_report_fields_and_merge():
    g, m, prof = small_setup()
    cfg = SimConfig(horizon=12, replicates=30, master_seed=9)
    report, actions = dynamics.run_ensemble(g, m, prof, cfg,
                                            keep_actions=True)
    traces = [dynamics.run_trace(g, m, prof, cfg, r) for r in range(30)]
    assert actions.shape == (30, g.n, 12) and actions.dtype == np.uint8
    assert np.array_equal(actions, [tr.actions for tr in traces])
    assert report.replicates == 30
    assert 0.0 <= report.learning_freq <= 1.0
    assert report.learning_ci[0] <= report.learning_freq \
        <= report.learning_ci[1]
    assert len(report.agent_learning) == g.n
    # split the same replicates over two tallies and merge
    t1, t2 = dynamics.EnsembleTally(g.n), dynamics.EnsembleTally(g.n)
    for tr in traces:
        (t1 if tr.replicate_index < 13 else t2).add_trace(tr, cfg.tail_window)
    merged = t1.merge(t2)
    again = dynamics.report_from_tally(merged, cfg, g.family_tag)
    assert again.learning_freq == report.learning_freq
    assert again.agreement_freq == report.agreement_freq
    assert again.agent_learning == report.agent_learning


def test_ensemble_workers_match_serial():
    """Two worker processes give the serial report and the serial actions,
    in replicate order."""
    g, m, prof = small_setup()
    cfg = SimConfig(horizon=12, replicates=9, master_seed=4)
    rep1, acts1 = dynamics.run_ensemble(g, m, prof, cfg, keep_actions=True)
    rep2, acts2 = dynamics.run_ensemble(g, m, prof, cfg, keep_actions=True,
                                        workers=2)
    assert rep1 == rep2
    assert acts2.shape == (9, g.n, 12)
    assert np.array_equal(acts1, acts2)


def test_exact_engine_through_a_spawn_pool(monkeypatch):
    """The solved myopic engine, pickled into spawned workers, plays there
    as here: one and two workers give equal reports and equal kept
    actions.  A pickled copy answers y_decomposition and action() as the
    original, on views within its solved rounds and past them."""
    g = graphs.dicycle(5)
    m = signals.symmetric_binary(0.7)
    prof = strategies.MyopicExactProfile(g, m)
    cfg = SimConfig(horizon=4, replicates=12, tail_window=2, master_seed=5)
    monkeypatch.setattr(dynamics, "_usable_cpus", lambda: 2)
    rep1, acts1 = dynamics.run_ensemble(g, m, prof, cfg, keep_actions=True)
    rep2, acts2 = dynamics.run_ensemble(g, m, prof, cfg, keep_actions=True,
                                        workers=2)
    assert rep1 == rep2
    assert np.array_equal(acts1, acts2)

    copy = pickle.loads(pickle.dumps(prof))
    assert copy._cls is None and len(copy._play) == 4
    tr = dynamics.run_trace(g, m, strategies.MyopicExactProfile(g, m),
                            SimConfig(horizon=6, tail_window=2), 3)
    rounds = [tuple(col) for col in tr.actions.T.tolist()]
    for agent, t in ((0, 1), (2, 3), (4, 5)):
        view = beliefs.view_from_actions(g, rounds, tr.atoms.tolist(), agent,
                                         t)
        assert beliefs.y_decomposition(g, m, copy, view) \
            == beliefs.y_decomposition(g, m, prof, view)
        assert copy.action(agent, view.atom, view.observed) \
            == prof.action(agent, view.atom, view.observed) \
            == tr.actions[agent, t]
    assert len(copy._play) == 6


@settings(max_examples=150, deadline=None)
@given(arrays(np.uint8, st.tuples(st.integers(0, 6), st.integers(1, 4),
                                  st.integers(1, 5)),
              elements=st.integers(0, 1)),
       st.data())
def test_add_batch_equals_a_per_row_tally(actions, data):
    """One add_batch over R rows counts what a plain loop over the rows
    counts, from each agent's set of tail actions."""
    R, n, T = actions.shape
    states = np.array(data.draw(st.lists(st.integers(0, 1), min_size=R,
                                         max_size=R), label="states"))
    window = data.draw(st.integers(1, T), label="window")
    _assert_tally_of_tail_sets(states, actions, window)


@pytest.mark.parametrize("window, T", [(1, 12), (2, 12), (11, 12), (12, 12),
                                       (256, 300)])
def test_add_batch_counts_tail_sets_of_wide_blocks(window, T):
    """Random 0/1 blocks of 40 agents, with rows of constant play mixed in
    so that some rows learn and agree: the tally equals the per-row
    tail-set count, from a one-round window to the whole trace, and for a
    window of 256 rounds, whose count of 1s needs more than 8 bits."""
    rng = np.random.default_rng(window)
    actions = rng.integers(0, 2, size=(30, 40, T), dtype=np.uint8)
    actions[::3] = rng.integers(0, 2, size=(10, 1, 1))
    actions[1::3, :, -window:] = rng.integers(0, 2, size=(10, 1, 1))
    _assert_tally_of_tail_sets(rng.integers(0, 2, size=30), actions, window)


def _assert_tally_of_tail_sets(states, actions, window):
    R, n, T = actions.shape
    tally = dynamics.EnsembleTally(n)
    tally.add_batch(states, actions, 7, window)
    learn = agree = 0
    agent = [0] * n
    for s, a in zip(states, actions):
        sets = [frozenset(a[i, -window:].tolist()) for i in range(n)]
        learned = [tail == {s} for tail in sets]
        agent = [k + x for k, x in zip(agent, learned)]
        learn += all(learned)
        agree += len(set(sets)) == 1
    assert (tally.replicates, tally.all_learn, tally.agree,
            tally.tie_events) == (R, learn, agree, 7)
    assert tally.agent_learn.tolist() == agent


def _ensemble_cases():
    """One small run per profile, each with ties to count."""
    m = signals.symmetric_binary(0.7)
    gk, gr, gm = (graphs.mad_king(1, 3, 2), graphs.royal_family(2, 4),
                  graphs.dicycle(4))
    return {
        "gossip": (graphs.dicycle(4), m,
                   strategies.GossipProfile(TieBreaker("jitter"))),
        "royal": (gr, signals.royal_bounded(), strategies.RoyalFamilyProfile(
            gr, signals.royal_bounded(), TieBreaker("one"))),
        "mad_king": (gk, m, strategies.MadKingProfile(gk, m)),
        "myopic": (gm, m, strategies.MyopicExactProfile(gm, m)),
    }


@pytest.mark.parametrize("keep", [False, True])
@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("block", [None, 3])
@pytest.mark.parametrize("name, replicates", [
    pytest.param(name, 23, id=name)
    for name in ("gossip", "royal", "mad_king", "myopic")] + [
    pytest.param("gossip", 549, id="gossip_549")])
def test_run_ensemble_equals_run_trace_and_add_trace(fake_pool, monkeypatch,
                                                     name, replicates, block,
                                                     workers, keep):
    """The block loop reports what one run_trace and one add_trace per
    replicate report, ties included, for blocks of any size and any
    worker count, over 23 replicates and over 549; kept actions are
    run_trace's."""
    g, m, prof = _ensemble_cases()[name]
    cfg = SimConfig(horizon=5, replicates=replicates, tail_window=2,
                    master_seed=6)
    if block:
        monkeypatch.setattr(strategies, "BLOCK_CELLS", block * g.n * 5)
    monkeypatch.setattr(dynamics, "_usable_cpus", lambda: 8)
    want = [dynamics.run_trace(g, m, prof, cfg, r)
            for r in range(replicates)]
    tally = dynamics.EnsembleTally(g.n)
    for tr in want:
        tally.add_trace(tr, cfg.tail_window)
    rep, actions = dynamics.run_ensemble(g, m, prof, cfg, keep_actions=keep,
                                         workers=workers)
    assert tally.tie_events > 0
    assert rep == dynamics.report_from_tally(tally, cfg, g.family_tag)
    assert fake_pool == ([2] if workers == 2 else [])
    if keep:
        assert actions.dtype == np.uint8
        assert np.array_equal(actions, [tr.actions for tr in want])
    else:
        assert actions is None


@pytest.mark.parametrize("name", ["gossip", "royal", "mad_king", "myopic"])
def test_an_edited_atom_block_plays_as_its_rows(name):
    """Conditioning on a draw as criteria 07 and 08 do: take run_trace's
    atoms and jitters as an (R, n) block, overwrite one agent's atoms and
    play the block with one trace_batch.  Play reads only atoms and
    jitters, so the unedited block plays run_trace's actions and ties, and
    the edited block plays what trace_actions plays row by row."""
    g, m, prof = _ensemble_cases()[name]
    cfg = SimConfig(horizon=5, replicates=12, tail_window=2, master_seed=6)
    traces = [dynamics.run_trace(g, m, prof, cfg, r) for r in range(12)]
    atoms = np.array([tr.atoms for tr in traces])
    jitters = np.array([tr.jitters for tr in traces])
    log = strategies.TieLog()
    played = prof.trace_batch(g, m, atoms, jitters, cfg.horizon, log)
    assert np.array_equal(played, [tr.actions for tr in traces])
    assert log.count == sum(tr.tie_count for tr in traces)

    # flip agent 0's sign in every replicate
    neg, pos = m.sign_atoms()
    atoms[:, 0] = neg + pos - atoms[:, 0]
    log = strategies.TieLog()
    edited = prof.trace_batch(g, m, atoms, jitters, cfg.horizon, log)
    row_log = strategies.TieLog()
    rows = [prof.trace_actions(g, m, a, j, cfg.horizon, row_log)
            for a, j in zip(atoms, jitters)]
    assert np.array_equal(edited, rows)
    assert log.count == row_log.count
    assert not np.array_equal(edited, played)


def _recorded_ensemble(g, m, prof, cfg, workers):
    """run_ensemble's kept actions, with the states it tallies and, per
    tallied block, (first replicate, end, ties)."""
    states, blocks = [], []
    add_batch = dynamics.EnsembleTally.add_batch

    def spy(self, block_states, actions, ties, window):
        states.extend(int(s) for s in block_states)
        blocks.append((len(states) - len(actions), len(states), ties))
        return add_batch(self, block_states, actions, ties, window)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dynamics.EnsembleTally, "add_batch", spy)
        _, actions = dynamics.run_ensemble(g, m, prof, cfg, keep_actions=True,
                                           workers=workers)
    return actions, states, blocks


@functools.lru_cache(maxsize=None)
def _replicate_traces(mode, seed):
    """run_trace of replicates 0 .. 784."""
    g, m = graphs.dicycle(4), signals.symmetric_binary(0.7)
    prof = strategies.GossipProfile(TieBreaker(mode))
    cfg = SimConfig(horizon=4, replicates=1, tail_window=2, master_seed=seed)
    return [dynamics.run_trace(g, m, prof, cfg, r)
            for r in range(785)]


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.integers(1, 785), st.integers(1, 3),
       st.sampled_from([1, 3, None]),
       st.sampled_from(["zero", "one", "jitter"]), st.integers(0, 3),
       st.data())
def test_block_streams_give_each_replicate_its_own_draw(
        fake_pool, replicates, workers, block, mode, seed, data):
    """Every row of an ensemble -- kept actions, state, and the ties of
    each block -- is run_trace's, however chunks and blocks of 1 row, 3
    rows or the default cut the replicates, and the first R' < R replicates
    of an R'-replicate run are the R-replicate run's."""
    g, m = graphs.dicycle(4), signals.symmetric_binary(0.7)
    prof = strategies.GossipProfile(TieBreaker(mode))
    want = _replicate_traces(mode, seed)[:replicates]
    fewer = data.draw(st.integers(1, max(1, replicates - 1)), label="fewer")
    workers2 = data.draw(st.integers(1, 3), label="workers for fewer")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dynamics, "_usable_cpus", lambda: 8)
        if block:
            mp.setattr(strategies, "BLOCK_CELLS", block * g.n * 4)
        runs = [_recorded_ensemble(g, m, prof, SimConfig(
            horizon=4, replicates=r, tail_window=2, master_seed=seed), w)
            for r, w in ((replicates, workers), (fewer, workers2))]
    actions, states, blocks = runs[0]
    assert np.array_equal(actions, [tr.actions for tr in want])
    assert states == [tr.state for tr in want]
    for lo, hi, ties in blocks:
        assert ties == sum(tr.tie_count for tr in want[lo:hi])
    assert blocks[-1][1] == replicates
    actions2, states2, _ = runs[1]
    assert np.array_equal(actions2, actions[:fewer])
    assert states2 == states[:fewer]


def _check_pool(fake_pool, monkeypatch, workers, replicates, cpus, pool):
    """The pool asked for is ``pool``, and the kept actions and the report
    are the serial run's."""
    monkeypatch.setattr(dynamics, "_usable_cpus", lambda: cpus)
    g, m, prof = small_setup()
    cfg = SimConfig(horizon=6, replicates=replicates, tail_window=2,
                    master_seed=3)
    rep, actions = dynamics.run_ensemble(g, m, prof, cfg, keep_actions=True,
                                         workers=workers)
    assert fake_pool == pool
    serial = dynamics.run_ensemble(g, m, prof, cfg, keep_actions=True)
    assert rep == serial[0]
    assert np.array_equal(actions, serial[1])


@pytest.mark.parametrize("workers, replicates, pool", [
    (1, 5, []), (500, 2, [2]), (3, 7, [3]), (4, 1, [])])
def test_ensemble_pool_is_capped_at_chunks(fake_pool, monkeypatch, workers,
                                           replicates, pool):
    _check_pool(fake_pool, monkeypatch, workers, replicates, 64, pool)


@pytest.mark.parametrize("workers, replicates, cpus, pool", [
    (5000, 5000, 2, [2]), (3, 7, 1, []), (4, 3, 3, [3])])
def test_ensemble_pool_is_capped_at_usable_cpus(fake_pool, monkeypatch,
                                                workers, replicates, cpus,
                                                pool):
    """min(workers, replicates, usable CPUs) processes; one runs in this
    process, with no pool."""
    _check_pool(fake_pool, monkeypatch, workers, replicates, cpus, pool)


def test_usable_cpus_reads_the_affinity_mask_where_it_exists(monkeypatch):
    monkeypatch.setattr(dynamics.os, "sched_getaffinity", lambda pid: {0, 3},
                        raising=False)
    monkeypatch.setattr(dynamics.os, "cpu_count", lambda: 16)
    assert dynamics._usable_cpus() == 2
    monkeypatch.delattr(dynamics.os, "sched_getaffinity", raising=False)
    assert dynamics._usable_cpus() == 16
    monkeypatch.setattr(dynamics.os, "cpu_count", lambda: None)
    assert dynamics._usable_cpus() == 1


def test_ensemble_rejects_fewer_than_one_worker():
    g, m, prof = small_setup()
    for workers in (0, -1):
        with pytest.raises(ValueError):
            dynamics.run_ensemble(g, m, prof, SimConfig(replicates=2),
                                  workers=workers)


def test_report_json_roundtrip():
    g, m, prof = small_setup()
    cfg = SimConfig(horizon=10, replicates=5, master_seed=0)
    report, _ = dynamics.run_ensemble(g, m, prof, cfg)
    d = report.to_dict()
    assert d["config"]["master_seed"] == 0
    assert d["graph_family"] == "cycle"
    assert d["seeding"] == 3  # counter-based draws
    import json
    assert json.loads(json.dumps(report.to_dict()))["replicates"] == 5


def test_report_dict_writes_the_text_of_a_deep_copy():
    """to_dict builds the report's dict from its fields, copying nothing:
    its JSON text equals that of a deep copy's fields byte for byte, key
    order included."""
    import copy
    import json
    g, m, prof = graphs.cycle(60), signals.symmetric_binary(0.7), \
        strategies.GossipProfile()
    report, _ = dynamics.run_ensemble(g, m, prof, SimConfig(
        horizon=8, replicates=40, tail_window=3, master_seed=5))
    deep = copy.deepcopy(report)
    copied = deep._asdict()
    copied["config"] = {f: getattr(deep.config, f)
                        for f in ("horizon", "replicates", "discount",
                                  "tail_window", "master_seed")}
    assert json.dumps(report.to_dict(), indent=2) \
        == json.dumps(copied, indent=2)


def test_locality_coupling_cycles():
    m = signals.symmetric_binary(0.7)
    prof = strategies.GossipProfile()
    for seed in range(6):
        assert dynamics.locality_coupling_test(
            graphs.cycle(12), 0, graphs.cycle(20), 3, 4, prof, prof, m, seed)


def test_locality_coupling_rejects_nonisomorphic_balls():
    m = signals.symmetric_binary(0.7)
    prof = strategies.GossipProfile()
    with pytest.raises(ValueError):
        dynamics.locality_coupling_test(
            graphs.cycle(12), 0, graphs.grid(3, 4), 0, 3, prof, prof, m, 0)


def test_trace_csv(tmp_path):
    g = graphs.royal_family(2, 3)
    m = signals.royal_bounded()
    prof = strategies.RoyalFamilyProfile(g, m)
    cfg = SimConfig(horizon=4, replicates=2, master_seed=0, tail_window=2)
    _, actions = dynamics.run_ensemble(g, m, prof, cfg, keep_actions=True)
    path = tmp_path / "trace.csv"
    roles = {0: "royal", 1: "royal", 2: "public", 3: "public", 4: "public"}
    dynamics.write_trace_csv(path, actions, roles)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "replicate,agent,role,t,action"
    assert len(lines) == 1 + 2 * g.n * 4


def _reference_trace_csv(path, actions, roles=None):
    """The row-by-row writer: one csv.writer row per (replicate, agent, t)."""

    def rows(r, acts):
        n, T = acts.shape
        for i in range(n):
            role = roles.get(i, "") if roles else ""
            for t in range(T):
                yield (r, i, role, t, int(acts[i, t]))

    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["replicate", "agent", "role", "t", "action"])
        for r, acts in enumerate(actions):
            w.writerows(rows(r, acts))


@pytest.mark.parametrize("roles", [None, {}, "mad_king", {0: 'a,"b"'},
                                   {1: "line\nbreak", 2: "court"},
                                   {3: "\u00e9\u2211"}, {0: "a\r\nb"}])
@pytest.mark.parametrize("horizon,replicates",
                         [(1, 3), (5, 4), (5, 0), (2, 12), (1, 101)])
def test_trace_csv_bytes_match_row_writer(tmp_path, roles, horizon,
                                          replicates):
    """The byte-template writer produces the row writer's bytes: CRLF line
    ends, roles quoted as csv.writer quotes them (a multi-byte role moves
    every later digit by its encoded length), replicate fields that grow
    from one digit to two and to three, no rows for no replicates."""
    g = graphs.mad_king(2, 3, 2)
    m = signals.mad_king_asym()
    if roles == "mad_king":
        roles = graphs.role_names(g)
    prof = strategies.MadKingProfile(g, m)
    cfg = SimConfig(horizon=horizon, replicates=max(replicates, 1),
                    master_seed=2, tail_window=1)
    _, actions = dynamics.run_ensemble(g, m, prof, cfg, keep_actions=True)
    actions = actions[:replicates]
    want, got = tmp_path / "want.csv", tmp_path / "got.csv"
    _reference_trace_csv(want, actions, roles)
    dynamics.write_trace_csv(got, actions, roles)
    assert got.read_bytes() == want.read_bytes()
    with open(got, newline="") as f:
        assert sum(1 for _ in csv.reader(f)) \
            == 1 + replicates * g.n * horizon


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(st.text(st.sampled_from(',"\r\n \ta\u00e9\u2211'),
                        max_size=4), min_size=1, max_size=5),
       st.integers(0, 4), st.integers(0, 12), st.integers(0, 2**32 - 1))
def test_trace_csv_quotes_any_role_as_the_row_writer(tmp_path, names,
                                                     horizon, replicates,
                                                     seed):
    """Roles of commas, quotes, CR, LF, spaces, tabs, non-ASCII letters or
    nothing at all (and agents with no role) come out as csv.writer
    writes them."""
    roles = {i: name for i, name in enumerate(names) if i % 3 != 2}
    actions = np.random.default_rng(seed).integers(
        0, 2, (replicates, len(names), horizon), dtype=np.uint8)
    want, got = tmp_path / "want.csv", tmp_path / "got.csv"
    _reference_trace_csv(want, actions, roles)
    dynamics.write_trace_csv(got, actions, roles)
    assert got.read_bytes() == want.read_bytes()


def test_trace_csv_holds_one_replicate(tmp_path):
    """The writer reuses one replicate's buffer: writing 100 replicates
    peaks within a small multiple of one replicate's bytes and within one
    replicate's bytes of writing 10 (the second width's rows are one digit
    longer each)."""
    actions = np.random.default_rng(5).integers(0, 2, (100, 200, 20),
                                                dtype=np.uint8)
    roles = {i: "royal" for i in range(0, 200, 7)}
    _reference_trace_csv(tmp_path / "one.csv", actions[:1], roles)
    # less the header and the closing line end
    one = (tmp_path / "one.csv").stat().st_size - 31
    peaks = []
    for replicates in (10, 100):
        tracemalloc.start()
        try:
            dynamics.write_trace_csv(tmp_path / "got.csv",
                                     actions[:replicates], roles)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 6 * one, (peaks, one)
    assert peaks[1] < peaks[0] + one, (peaks, one)
