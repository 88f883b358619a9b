import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from netlearn import dynamics, graphs, signals, strategies
from netlearn.beliefs import TieBreaker
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
    """A trace draws one U[0, 1) jitter per agent, after the state and the
    atoms, exactly when its profile breaks ties by jitter; under the other
    modes the jitters are zeros and the stream is not touched."""
    g, m, _ = small_setup()
    cfg = SimConfig(horizon=6, replicates=1, master_seed=9)
    tr = {mode: dynamics.run_trace(g, m, strategies.GossipProfile(
        TieBreaker(mode)), cfg, 4) for mode in ("zero", "one", "jitter")}
    rng = dynamics.replicate_rng(9, 4)
    state = int(rng.integers(0, 2))
    atoms = m.sample_atoms(rng, g.n, state)
    want = rng.random(g.n)
    for t in tr.values():
        assert t.state == state and np.array_equal(t.atoms, atoms)
    assert np.array_equal(tr["jitter"].jitters, want)
    assert not tr["zero"].jitters.any() and not tr["one"].jitters.any()
    rng = dynamics.replicate_rng(9, 4)
    TieBreaker("one").draw_jitters(rng, g.n)
    assert rng.random() == dynamics.replicate_rng(9, 4).random()


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
    """Each worker receives the gossip rings built, so none rebuilds
    them."""
    g, m, prof = small_setup()
    cached = []
    run_chunk = dynamics._run_chunk

    def chunk(g, m, profile, *args, **kw):
        cached.append(list(pickle.loads(pickle.dumps(profile))._ring_cache))
        return run_chunk(g, m, profile, *args, **kw)

    monkeypatch.setattr(dynamics, "_run_chunk", chunk)
    monkeypatch.setattr(dynamics, "_usable_cpus", lambda: 8)
    cfg = SimConfig(horizon=4, replicates=4, tail_window=2)
    dynamics.run_ensemble(g, m, prof, cfg, workers=2)
    key = (g.n, g.edges, 4)
    assert fake_pool == [2] and cached == [[key], [key]]


def test_replicate_rng_is_batch_independent():
    """Per-replicate streams depend only on (master seed, index), so any
    partition of replicates over workers gives identical results."""
    a = dynamics.replicate_rng(7, 5).random(4)
    b = dynamics.replicate_rng(7, 5).random(4)
    c = dynamics.replicate_rng(7, 6).random(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_tail_action_set():
    g, m, prof = small_setup()
    cfg = SimConfig(horizon=12, replicates=1, master_seed=0)
    tr = dynamics.run_trace(g, m, prof, cfg, 0)
    tail = dynamics.tail_action_set(tr, 0, 5)
    assert tail <= {0, 1} and len(tail) >= 1
    assert tail == frozenset(int(a) for a in tr.actions[0, -5:])


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

    def all_royals_plus(state, atoms):
        atoms = np.array(atoms)
        atoms[:3] = pos
        return 0, atoms

    tr = dynamics.run_trace(g, m, prof, cfg, 0, inject=all_royals_plus)
    assert tr.state == 0
    assert (tr.atoms[:3] == pos).all()
    assert (tr.actions[:3, 1:] == 1).all()  # royals herd on 1 despite S=0


def test_ensemble_report_fields_and_merge():
    g, m, prof = small_setup()
    cfg = SimConfig(horizon=12, replicates=30, master_seed=9)
    report, traces = dynamics.run_ensemble(g, m, prof, cfg, keep_traces=True)
    assert len(traces) == 30
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
    """Two worker processes give the serial report and the serial traces,
    in replicate order."""
    g, m, prof = small_setup()
    cfg = SimConfig(horizon=12, replicates=9, master_seed=4)
    rep1, tr1 = dynamics.run_ensemble(g, m, prof, cfg, keep_traces=True)
    rep2, tr2 = dynamics.run_ensemble(g, m, prof, cfg, keep_traces=True,
                                      workers=2)
    assert rep1 == rep2
    assert [t.replicate_index for t in tr2] == list(range(9))
    for a, b in zip(tr1, tr2):
        assert a.state == b.state and a.tie_count == b.tie_count
        assert np.array_equal(a.atoms, b.atoms)
        assert np.array_equal(a.jitters, b.jitters)
        assert np.array_equal(a.actions, b.actions)


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
        "mad_king": (gk, m, strategies.MadKingProfile(gk, m, 0.5, 0.9)),
        "myopic": (gm, m, strategies.MyopicExactProfile(gm, m)),
    }


@pytest.mark.parametrize("keep", [False, True])
@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("block", [None, 3])
@pytest.mark.parametrize("name", ["gossip", "royal", "mad_king", "myopic"])
def test_run_ensemble_equals_run_trace_and_add_trace(fake_pool, monkeypatch,
                                                     name, block, workers,
                                                     keep):
    """The block loop reports what one run_trace and one add_trace per
    replicate report, ties included, for blocks of any size and any
    worker count; kept traces are run_trace's."""
    g, m, prof = _ensemble_cases()[name]
    cfg = SimConfig(horizon=5, replicates=23, tail_window=2, master_seed=6)
    if block:
        monkeypatch.setattr(dynamics, "BLOCK_CELLS", block * g.n * 5)
    monkeypatch.setattr(dynamics, "_usable_cpus", lambda: 8)
    want = [dynamics.run_trace(g, m, prof, cfg, r) for r in range(23)]
    tally = dynamics.EnsembleTally(g.n)
    for tr in want:
        tally.add_trace(tr, cfg.tail_window)
    rep, traces = dynamics.run_ensemble(g, m, prof, cfg, keep_traces=keep,
                                        workers=workers)
    assert tally.tie_events > 0
    assert rep == dynamics.report_from_tally(tally, cfg, g.family_tag)
    assert fake_pool == ([2] if workers == 2 else [])
    if keep:
        for a, b in zip(traces, want, strict=True):
            assert (a.state, a.tie_count, a.replicate_index) \
                == (b.state, b.tie_count, b.replicate_index)
            for f in ("atoms", "jitters", "actions"):
                assert np.array_equal(getattr(a, f), getattr(b, f))
    else:
        assert traces is None


def _check_pool(fake_pool, monkeypatch, workers, replicates, cpus, pool):
    """The pool asked for is ``pool``, and the traces and the report are
    the serial run's."""
    monkeypatch.setattr(dynamics, "_usable_cpus", lambda: cpus)
    g, m, prof = small_setup()
    cfg = SimConfig(horizon=6, replicates=replicates, tail_window=2,
                    master_seed=3)
    rep, traces = dynamics.run_ensemble(g, m, prof, cfg, keep_traces=True,
                                        workers=workers)
    assert fake_pool == pool
    assert [t.replicate_index for t in traces] == list(range(replicates))
    assert rep == dynamics.run_ensemble(g, m, prof, cfg)[0]


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
    import json
    assert json.loads(report.to_json())["replicates"] == 5


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
    _, traces = dynamics.run_ensemble(g, m, prof, cfg, keep_traces=True)
    path = tmp_path / "trace.csv"
    roles = {0: "royal", 1: "royal", 2: "public", 3: "public", 4: "public"}
    dynamics.write_trace_csv(path, traces, roles)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "replicate,agent,role,t,action"
    assert len(lines) == 1 + 2 * g.n * 4


def _reference_trace_csv(path, traces, roles=None):
    """The row-by-row writer: one csv.writer row per (replicate, agent, t)."""
    import csv

    def rows(tr):
        n, T = tr.actions.shape
        for i in range(n):
            role = roles.get(i, "") if roles else ""
            for t in range(T):
                yield (tr.replicate_index, i, role, t, int(tr.actions[i, t]))

    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["replicate", "agent", "role", "t", "action"])
        for tr in traces:
            w.writerows(rows(tr))


@pytest.mark.parametrize("roles", [None, {}, "mad_king", {0: 'a,"b"'},
                                   {1: "line\nbreak", 2: "court"}])
@pytest.mark.parametrize("horizon,replicates", [(1, 3), (5, 4), (5, 0)])
def test_trace_csv_bytes_match_row_writer(tmp_path, roles, horizon,
                                          replicates):
    """The column-wise writer produces the row writer's bytes: CRLF line
    ends, roles quoted as csv.writer quotes them, no rows for no traces."""
    g = graphs.mad_king(2, 3, 2)
    m = signals.mad_king_asym()
    if roles == "mad_king":
        roles = graphs.role_names(g)
    prof = strategies.MadKingProfile(g, m, 1.0, 0.99)
    cfg = SimConfig(horizon=horizon, replicates=max(replicates, 1),
                    master_seed=2, tail_window=1)
    _, traces = dynamics.run_ensemble(g, m, prof, cfg, keep_traces=True)
    traces = traces[:replicates]
    want, got = tmp_path / "want.csv", tmp_path / "got.csv"
    _reference_trace_csv(want, traces, roles)
    dynamics.write_trace_csv(got, traces, roles)
    assert got.read_bytes() == want.read_bytes()
    assert got.read_bytes().count(b"\r\n") == 1 + replicates * g.n * horizon
