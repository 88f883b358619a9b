import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from netlearn import beliefs, graphs, signals, strategies
from netlearn.beliefs import HistoryView, TieBreaker


def two_agents():
    g = graphs.DirectedGraph(2, frozenset({(0, 1), (1, 0)}),
                             ("pair", (("n", 2),)))
    m = signals.symmetric_binary(0.75)
    return g, m, strategies.MyopicExactProfile(g, m)


def test_round_zero_posterior_is_private_belief():
    g, m, prof = two_agents()
    for atom in range(m.k):
        view = HistoryView(0, 0, atom, ())
        post = beliefs.exact_posterior(g, m, prof, view)
        assert post.posterior == pytest.approx(
            1.0 / (1.0 + math.exp(-m.atoms[atom].z)), abs=1e-12)


def test_two_agent_round_one_worked_example():
    """Agent 0 saw its own + atom and agent 1's round-0 action 1, which for
    a two-atom model reveals agent 1's atom; the posterior log-odds are the
    two private log-likelihood ratios summed.  With q = 0.75 this is
    log-odds 2*ln(3), posterior 0.9."""
    g, m, prof = two_agents()
    neg, pos = m.sign_atoms()
    view = HistoryView(0, 1, pos, ((1, 1),))
    post = beliefs.exact_posterior(g, m, prof, view)
    assert post.log_odds == pytest.approx(2 * math.log(3), abs=1e-9)
    assert post.posterior == pytest.approx(0.9, abs=1e-9)


def test_y_decomposition_identity_and_values():
    g, m, prof = two_agents()
    neg, pos = m.sign_atoms()
    view = HistoryView(0, 1, pos, ((1, 1),))
    dec = beliefs.y_decomposition(g, m, prof, view)
    # the history term carries the neighbor's revealed ratio plus the
    # agent's own action (which is implied by its atom, hence weight from
    # the clamp): here Y = ln(3) per the enumeration oracle
    assert dec.z == pytest.approx(dec.y + dec.z0, abs=1e-9)
    assert dec.z0 == pytest.approx(math.log(3), abs=1e-9)
    assert dec.z == pytest.approx(2 * math.log(3), abs=1e-9)


def test_inconsistent_history_raises():
    g, m, prof = two_agents()
    neg, pos = m.sign_atoms()
    # agent 0 holding the + atom cannot have played 0 at round 0
    view = HistoryView(0, 1, pos, ((0, 1),))
    with pytest.raises(beliefs.InconsistentHistoryError):
        beliefs.exact_posterior(g, m, prof, view)


def test_budget_guard():
    g = graphs.dicycle(30)
    m = signals.symmetric_binary(0.7)
    prof = strategies.MyopicExactProfile(g, m)
    with pytest.raises(beliefs.BudgetExceededError):
        beliefs.exact_posterior(g, m, prof, HistoryView(0, 0, 0, ()),
                                budget=10_000)


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 1), st.integers(0, 3))
def test_martingale_tower_property(atom, seed):
    """E[posterior at t+1 | view at t] equals the posterior at t."""
    g = graphs.dicycle(3)
    m = signals.symmetric_binary(0.7)
    prof = strategies.MyopicExactProfile(g, m)
    rng = np.random.default_rng(seed)
    atoms = [atom] + [int(a) for a in m.sample_atoms(rng, 2, 1)]
    acts = beliefs.simulate_actions(g, prof, atoms, 2)
    for t in (0, 1):
        view = beliefs.view_from_actions(g, acts, atoms, 0, t)
        now = beliefs.exact_posterior(g, m, prof, view).posterior
        outs = beliefs.outcome_distribution(g, m, prof, view)
        assert sum(p for _, p, _ in outs) == pytest.approx(1.0, abs=1e-12)
        nxt = sum(p * beliefs.exact_posterior(g, m, prof, v).posterior
                  for _, p, v in outs)
        assert nxt == pytest.approx(now, abs=1e-9)


def test_z_decomposition_identity_three_agents():
    g = graphs.dicycle(3)
    m = signals.symmetric_binary(0.8)
    prof = strategies.MyopicExactProfile(g, m)
    atoms = [0, 1, 0]
    acts = beliefs.simulate_actions(g, prof, atoms, 3)
    for t in range(3):
        view = beliefs.view_from_actions(g, acts, atoms, 1, t)
        dec = beliefs.y_decomposition(g, m, prof, view)
        assert dec.z == pytest.approx(dec.y + dec.z0, abs=1e-9)


def test_mc_posterior_tracks_exact():
    g = graphs.dicycle(3)
    m = signals.symmetric_binary(0.7)
    prof = strategies.MyopicExactProfile(g, m)
    atoms = [0, 0, 1]
    acts = beliefs.simulate_actions(g, prof, atoms, 2)
    view = beliefs.view_from_actions(g, acts, atoms, 0, 2)
    exact = beliefs.exact_posterior(g, m, prof, view)
    mc = beliefs.mc_posterior(g, m, prof, view, 20_000,
                              np.random.default_rng(7))
    assert mc.stderr is not None and mc.stderr > 0
    assert abs(mc.posterior - exact.posterior) < 4 * mc.stderr + 1e-3


def test_mc_posterior_degenerate_raises():
    g, m, prof = two_agents()
    neg, pos = m.sign_atoms()
    view = HistoryView(0, 1, pos, ((0, 1),))  # impossible own action
    with pytest.raises(beliefs.DegenerateEstimateError):
        beliefs.mc_posterior(g, m, prof, view, 200,
                             np.random.default_rng(0))


def test_best_response_and_ties():
    assert beliefs.best_response(0.7) == 1
    assert beliefs.best_response(0.3) == 0
    log = beliefs.TieLog()
    assert beliefs.best_response(0.5, TieBreaker("zero"), log) == 0
    assert beliefs.best_response(0.5, TieBreaker("one"), log) == 1
    assert log.count == 2
    jit = TieBreaker("jitter")
    assert beliefs.best_response(0.5, jit, jitter=0.1, width=0.5) == 1
    assert beliefs.best_response(0.5, jit, jitter=0.4, width=0.5) == 0
    with pytest.raises(ValueError):
        TieBreaker("coin")


def test_lookahead_certainty_nondecreasing():
    g = graphs.dicycle(3)
    m = signals.symmetric_binary(0.7)
    prof = strategies.MyopicExactProfile(g, m)
    view = HistoryView(0, 0, 0, ())
    ys = beliefs.lookahead_certainty(g, m, prof, view, ell_max=3)
    assert len(ys) == 4
    # Y_0 equals the current certainty
    post = beliefs.exact_posterior(g, m, prof, view).posterior
    assert ys[0] == pytest.approx(abs(post - 0.5), abs=1e-9)
    for a, b in zip(ys, ys[1:]):
        assert b >= a - 1e-9
    assert all(0.0 <= y <= 0.5 + 1e-12 for y in ys)


def test_lookahead_certainty_rejects_other_profiles():
    """Only myopic play is a base: any other raises ValueError before a
    world is enumerated, so an over-budget graph is no BudgetExceededError."""
    g = graphs.dicycle(30)
    m = signals.symmetric_binary(0.7)
    with pytest.raises(ValueError, match="MyopicExactProfile"):
        beliefs.lookahead_certainty(g, m, strategies.GossipProfile(),
                                    HistoryView(0, 0, 0, ()))


def test_history_view_validation():
    with pytest.raises(ValueError):
        HistoryView(0, 2, 0, ((1, 1),))
