import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from netlearn import beliefs, dynamics, graphs, signals, strategies
from netlearn.beliefs import TieBreaker


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
THREE_ATOMS = signals.model_from_triples(
    [(math.log(0.5 / 0.2), 0.2, 0.5), (0.0, 0.3, 0.3),
     (math.log(0.2 / 0.5), 0.5, 0.2)])
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
    in every world too."""
    g = graphs.generate(graphs.parse_family_string(spec))
    assume(m.k ** g.n <= 729)
    tb = TieBreaker(mode)
    prof = strategies.MyopicExactProfile(g, m, tb)
    posts = {}
    worlds = list(itertools.product(range(m.k), repeat=g.n))
    for atoms in worlds:
        fast_log, slow_log = beliefs.TieLog(), beliefs.TieLog()
        fast = prof.trace_actions(g, m, np.array(atoms), np.zeros(g.n),
                                  horizon, fast_log)
        slow = strategies.Profile.trace_actions(
            prof, g, m, atoms, np.zeros(g.n), horizon, slow_log)
        assert np.array_equal(fast, slow)
        assert fast_log.count == slow_log.count
        rounds = [tuple(int(a) for a in fast[:, t]) for t in range(horizon)]
        oracle_log = beliefs.TieLog()
        for t in range(horizon):
            for i in range(g.n):
                view = beliefs.view_from_actions(g, rounds, atoms, i, t)
                if view not in posts:
                    posts[view] = beliefs.exact_posterior(g, m, prof, view)
                assert fast[i, t] == beliefs.best_response(posts[view], tb,
                                                           oracle_log)
        assert fast_log.count == oracle_log.count

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
    log = beliefs.TieLog()
    assert prof.action(agent, atoms[agent], off, log) == 0
    assert log.count == 0
    with pytest.raises(beliefs.InconsistentHistoryError):
        beliefs.exact_posterior(
            g, m, prof, beliefs.HistoryView(agent, horizon, atoms[agent], off))


def test_exact_myopic_budget_counts_world_agent_cells():
    g = graphs.dicycle(5)
    m = signals.symmetric_binary(0.7)
    ok = strategies.MyopicExactProfile(g, m, budget=2 ** 5 * 5)
    neg, pos = m.sign_atoms()
    assert ok.action(0, pos, ()) == 1
    tight = strategies.MyopicExactProfile(g, m, budget=2 ** 5 * 5 - 1)
    with pytest.raises(beliefs.BudgetExceededError):
        tight.trace_actions(g, m, np.zeros(g.n, dtype=int), None, 1)


def test_gossip_action_is_trace_level_only():
    with pytest.raises(NotImplementedError):
        strategies.GossipProfile().action(0, 0, ())


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


def test_forced_response_history_closure():
    strategies.ForcedResponse(((0, 0, 1), (0, 1, 1)))
    with pytest.raises(ValueError):
        strategies.ForcedResponse(((0, 1, 1),))
    with pytest.raises(ValueError):
        strategies.ForcedResponse(((0, 0, 1), (0, 0, 0)))
    with pytest.raises(ValueError):
        strategies.ForcedResponse(((0, 0, 2),))


def test_forced_overlay_defers_to_base():
    g = graphs.dicycle(3)
    m = signals.symmetric_binary(0.7)
    base = strategies.MyopicExactProfile(g, m)
    forced = strategies.ForcedResponse(((1, 0, 0), (1, 1, 0)))
    prof = strategies.ForcedOverlayProfile(forced, base)
    neg, pos = m.sign_atoms()
    assert prof.action(1, pos, ()) == 0  # forced despite + signal
    assert prof.action(0, pos, ()) == 1  # base myopic play


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


ROYAL_MODELS = st.one_of(
    st.sampled_from((0.6, 0.7, 0.9)).map(signals.symmetric_binary),
    st.just(signals.royal_bounded()))


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 4), st.integers(1, 8), ROYAL_MODELS,
       st.sampled_from(("zero", "one", "jitter")), st.integers(1, 6),
       st.integers(0, 2 ** 32 - 1))
def test_royal_family_trace_matches_action_loop_in_every_tie_mode(
        R, n, m, mode, horizon, seed):
    """The fast path equals the per-agent action loop in actions and in
    tie counts."""
    g = graphs.royal_family(R, n)
    prof = strategies.RoyalFamilyProfile(g, m, TieBreaker(mode))
    rng = np.random.default_rng(seed)
    atoms = m.sample_atoms(rng, g.n, int(rng.integers(0, 2)))
    fast_log, slow_log = beliefs.TieLog(), beliefs.TieLog()
    fast = prof.trace_actions(g, m, atoms, np.zeros(g.n), horizon, fast_log)
    slow = strategies.Profile.trace_actions(prof, g, m, atoms, np.zeros(g.n),
                                            horizon, slow_log)
    assert np.array_equal(fast, slow)
    assert fast_log.count == slow_log.count


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

def make_mk(R_C=3, R_B=8, n=5, delta=0.5, lam=0.9):
    g = graphs.mad_king(R_C, R_B, n)
    m = signals.mad_king_asym()
    roles = strategies.mad_king_roles_of(g)
    prof = strategies.MadKingProfile(g, m, roles, delta, lam)
    return g, m, roles, prof


def test_mad_king_requires_family_and_valid_lam():
    m = signals.mad_king_asym()
    g = graphs.mad_king(2, 3, 2)
    roles = strategies.mad_king_roles_of(g)
    with pytest.raises(ValueError):
        strategies.MadKingProfile(graphs.dicycle(4), m, roles, 0.5, 0.9)
    with pytest.raises(ValueError):
        strategies.MadKingProfile(g, m, roles, 0.5, 1.0)


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
    g, m, roles, prof = make_mk(R_B=8, delta=0.5)
    neg, pos = m.sign_atoms()
    atoms = [pos] * g.n
    assert prof.regent_z1(atoms) == pytest.approx(
        2 * 1.0 + 8 * 1.0, abs=1e-9)
    # eps = e^{-0.5*8} = e^-4; threshold = ln((1-e^-4)/e^-4) ~ 3.98
    assert prof.lock_threshold == pytest.approx(
        math.log((1 - math.exp(-4)) / math.exp(-4)), abs=1e-12)
    assert prof.is_locked(atoms)
    # a lone + king against an all-minus bureaucracy pushes Z_1 negative
    atoms2 = list(atoms)
    for b in roles.bureaucracy:
        atoms2[b] = neg
    assert prof.regent_z1(atoms2) < 0
    assert prof.is_locked(atoms2)


def test_mad_king_rage_rule():
    """A person defecting to 1 in the forced rounds sends the king to 1
    forever from round 1."""
    g, m, roles, prof = make_mk(R_C=2, R_B=4, n=2)
    neg, pos = m.sign_atoms()
    atoms = [neg] * g.n
    forced = strategies.ForcedResponse(
        ((roles.people[0], 0, 1), (roles.people[0], 1, 1)))
    rebel = strategies.ForcedOverlayProfile(forced, prof)
    acts = np.array(beliefs.simulate_actions(g, rebel, atoms, 5),
                    dtype=np.uint8).T
    assert (acts[roles.king, 1:] == 1).all()
    # without the rebellion the all-minus king stays at 0
    calm = np.array(beliefs.simulate_actions(g, prof, atoms, 5),
                    dtype=np.uint8).T
    assert (calm[roles.king] == 0).all()


def test_mad_king_regime_inequality():
    """The intended parameter regime e^{R_C} << 1/(1-lam) << R_B leaves the
    king's court signal bounded while the bureaucracy overwhelms it."""
    R_C, R_B, lam = 2, 200, 0.99
    assert math.exp(R_C) < 1.0 / (1.0 - lam) < R_B


# --- deviation conditions ---------------------------------------------------

def test_myopic_condition_formulas():
    y = (0.2, 0.25, 0.3, 0.35)
    lam = 0.8
    out = strategies.myopic_condition_check(y, lam)
    lhs = 0.4
    assert out["B1"] == (lhs > lam ** 2 * (0.5 - 0.2) / 0.2)
    assert out["B2"] == (lhs > lam ** 2 * (0.5 - 0.25) / 0.2)
    assert out["B3"] == (lhs > lam ** 2 * (0.5 - 0.3) / 0.2)
    assert out["B4"] == (lhs > lam ** 2 * (0.5 - 0.3)
                         + lam ** 3 * (0.5 - 0.35) / 0.2)


@settings(max_examples=60, deadline=None)
@given(st.floats(0.0, 0.5), st.floats(0.0, 0.5), st.floats(0.0, 0.5),
       st.floats(0.0, 0.5), st.floats(0.05, 0.95))
def test_myopic_conditions_nested_for_monotone_y(y0, d1, d2, d3, lam):
    ys = [y0]
    for d in (d1, d2, d3):
        ys.append(min(0.5, ys[-1] + d * (0.5 - ys[-1])))
    out = strategies.myopic_condition_check(ys, lam)
    assert (not out["B1"]) or out["B2"]
    assert (not out["B2"]) or out["B3"]
    assert (not out["B3"]) or out["B4"]


def test_myopic_condition_validation():
    with pytest.raises(ValueError):
        strategies.myopic_condition_check((0.1, 0.2, 0.3, 0.4), 1.0)
    with pytest.raises(ValueError):
        strategies.myopic_condition_check((0.1, 0.2, 0.7, 0.4), 0.5)
    with pytest.raises(ValueError):
        strategies.myopic_condition_check((0.1, 0.2), 0.5)


def test_make_profile_factory():
    g = graphs.royal_family(2, 3)
    m = signals.royal_bounded()
    assert isinstance(strategies.make_profile("royal_family", g, m),
                      strategies.RoyalFamilyProfile)
    gm = graphs.mad_king(2, 3, 2)
    mk = signals.mad_king_asym()
    assert isinstance(strategies.make_profile("mad_king", gm, mk,
                                              delta=0.5, lam=0.9),
                      strategies.MadKingProfile)
    with pytest.raises(ValueError):
        strategies.make_profile("nope", g, m)
