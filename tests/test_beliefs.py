import itertools
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


def test_budget_guard(monkeypatch):
    g = graphs.dicycle(30)
    m = signals.symmetric_binary(0.7)
    prof = strategies.MyopicExactProfile(g, m)
    monkeypatch.setattr(strategies, "DEFAULT_BUDGET", 10_000)
    with pytest.raises(strategies.BudgetExceededError):
        beliefs.exact_posterior(g, m, prof, HistoryView(0, 0, 0, ()))


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


@pytest.mark.parametrize("q", [0.99, 0.999, 0.999999])
def test_log_odds_come_from_the_masses(q):
    """Z = Y + Z_0 to 1e-9 on all-positive views near certainty.  Log odds
    read from the rounded posterior would miss by 2.3e-8 at q = 0.99 and
    2.8e-3 at q = 0.999, and divide by zero at q = 0.999999, where the
    posterior rounds to 1."""
    m = signals.symmetric_binary(q)
    pos = m.sign_atoms()[1]
    for spec in ("dicycle(6)", "cycle(6)", "cycle(8)"):
        g = graphs.generate(spec)
        prof = strategies.MyopicExactProfile(g, m)
        atoms = [pos] * g.n
        acts = beliefs.simulate_actions(g, prof, atoms, 4)
        for t in range(5):
            view = beliefs.view_from_actions(g, acts, atoms, 0, t)
            dec = beliefs.y_decomposition(g, m, prof, view)
            assert dec.z > 0 and abs(dec.z - (dec.y + dec.z0)) <= 1e-9, \
                (spec, t)


def _per_agent_loop(g, m, prof, atoms, T):
    return np.array(beliefs.simulate_actions(g, prof, atoms, T)).T


GENERIC_REPLAYS = {
    "royal family, per-agent loop": (
        "royal_family(2,3)", signals.royal_bounded(),
        strategies.RoyalFamilyProfile, _per_agent_loop),
    "mad king, per-agent loop": (
        "mad_king(1,2,2)", signals.mad_king_asym(),
        strategies.MadKingProfile,
        _per_agent_loop),
    "gossip, one-row traces": (
        "dicycle(5)", signals.symmetric_binary(0.7),
        lambda g, m: strategies.GossipProfile(),
        lambda g, m, prof, atoms, T: prof.trace_actions(
            g, m, atoms, np.zeros(g.n), T)),
}


@pytest.mark.parametrize("case", list(GENERIC_REPLAYS))
def test_generic_replay_matches_bruteforce(case):
    """exact_posterior and outcome_distribution replay any pure profile
    through its batched ``trace_batch``.  On every view that some world
    gives some agent before round 4, they equal a brute force that replays
    each world on its own (the per-agent loop, or a one-row trace) and sums
    the masses of the worlds showing that view, and the next rows in
    them."""
    spec, m, make, replay = GENERIC_REPLAYS[case]
    g = graphs.generate(spec)
    prof, T = make(g, m), 4
    mass, nxt = {}, {}
    for atoms in itertools.product(range(m.k), repeat=g.n):
        w = [math.prod(m.atom_prob(a, s) for a in atoms) for s in (0, 1)]
        acts = replay(g, m, prof, list(atoms), T)
        for i in range(g.n):
            rows = tuple(map(tuple, acts[list(g.closed_nbrs(i))].T.tolist()))
            for t in range(T):
                view = HistoryView(i, t, atoms[i], rows[:t])
                s = mass.setdefault(view, [0.0, 0.0])
                s[0], s[1] = s[0] + w[0], s[1] + w[1]
                row = nxt.setdefault(view, {})
                row[rows[t]] = row.get(rows[t], 0.0) + w[0] + w[1]
    assert len(mass) > 100
    for view, (s0, s1) in mass.items():
        post = beliefs.exact_posterior(g, m, prof, view)
        assert post.posterior == pytest.approx(s1 / (s0 + s1), rel=1e-12)
        assert post.log_odds == pytest.approx(math.log(s1 / s0), rel=1e-12,
                                              abs=1e-12)
        got = {row: p for row, p, _ in
               beliefs.outcome_distribution(g, m, prof, view)}
        want = {row: w / (s0 + s1) for row, w in nxt[view].items()}
        assert got == pytest.approx(want, rel=1e-12)


def test_best_response_and_ties():
    assert beliefs.best_response(0.7) == 1
    assert beliefs.best_response(0.3) == 0
    log = strategies.TieLog()
    assert beliefs.best_response(0.5, TieBreaker("zero"), log) == 0
    assert beliefs.best_response(0.5, TieBreaker("one"), log) == 1
    assert log.count == 2
    jit = TieBreaker("jitter")
    assert beliefs.best_response(0.5, jit, jitter=0.3) == 1
    assert beliefs.best_response(0.5, jit, jitter=0.5) == 0
    assert beliefs.best_response(0.7, jit, jitter=0.9) == 1
    with pytest.raises(ValueError):
        TieBreaker("coin")


# The decision rules that TieBreaker.decide replaced, kept as references.
# They drew a jitter uniformly on [0, width) and compared it with width / 2.

def _old_resolve(mode, jitter=0.0, width=0.0):
    if mode == "zero":
        return 0
    if mode == "one":
        return 1
    return 1 if (width > 0 and jitter < width / 2.0) else 0


def _old_best_response(p, mode, tie_log, jitter=0.0, width=0.0):
    if p > 0.5 + strategies.TIE_TOL:
        return 1
    if p < 0.5 - strategies.TIE_TOL:
        return 0
    tie_log.add()
    return _old_resolve(mode, jitter, width)


def _old_engine_thresholds(post, tie_acts):
    """The myopic engine's posterior thresholds -> (actions, tie mask)."""
    act = (post > 0.5 + strategies.TIE_TOL).astype(np.uint8)
    tied = (act == 0) & (post >= 0.5 - strategies.TIE_TOL)
    act[tied] = tie_acts[tied]
    return act, tied


def _old_decide_signs(vals, tie_acts, tie_log=None):
    acts = (vals > strategies.TIE_TOL).astype(np.uint8)
    tie = np.abs(vals) <= strategies.TIE_TOL
    n_tie = int(np.count_nonzero(tie))
    if n_tie:
        acts[tie] = tie_acts[tie] if isinstance(tie_acts, np.ndarray) \
            else tie_acts
        if tie_log is not None:
            tie_log.add(n_tie)
    return acts


def _old_decide_sign(val, mode, tie_log=None, jitter=0.0, width=0.0):
    if abs(val) <= strategies.TIE_TOL:
        if tie_log is not None:
            tie_log.add()
        return _old_resolve(mode, jitter, width)
    return 1 if val > 0 else 0


def _ulps_around(x, k):
    """Every double within k ulps of the positive double x."""
    bits = np.array(x, dtype=np.float64).view(np.int64)
    return np.arange(bits - k, bits + k + 1).view(np.float64)


# width 0.0, the old default, matters only to the deterministic modes; the
# old jitter rule needed a positive width
@pytest.mark.parametrize("width, mode", [
    (0.0, "zero"), (0.0, "one"), (0.5, "zero"), (0.5, "one"),
    (0.5, "jitter"), (7.77, "jitter")])
def test_decide_matches_the_rules_it_replaced(mode, width):
    """decide on p - 1/2 equals the posterior thresholds at 1/2 +- TIE_TOL,
    and decide on a log-ratio equals the old sign rules, in actions, tie
    masks and tie counts: on every double within 40 000 ulps of 1/2 and of
    +-TIE_TOL, the posteriors 0, 1/4 and 1 and random draws.  The jitters U
    lie on both sides of 1/2, and the old rules see them scaled by the
    width, as their draw made them: width * U."""
    rng = np.random.default_rng(8)
    tol = _ulps_around(strategies.TIE_TOL, 40_000)
    posts = np.concatenate([_ulps_around(0.5, 40_000), [0.0, 0.25, 1.0],
                            rng.uniform(0.0, 1.0, 50_000),
                            0.5 + rng.uniform(-3e-12, 3e-12, 50_000)])
    ratios = np.concatenate([tol, -tol, [0.0, -0.0],
                             rng.normal(0.0, 2.0, 50_000),
                             rng.uniform(-3e-12, 3e-12, 50_000)])
    half = np.concatenate([_ulps_around(0.5, 50), [0.0, 1.0 - 2.0 ** -53]])
    tb = TieBreaker(mode)
    for margins, grid in ((posts - 0.5, posts), (ratios, ratios)):
        jit = np.resize(np.concatenate([half, rng.random(97)]), grid.shape)
        old_jit = width * jit
        tie_acts = (width > 0) & (old_jit < width / 2.0) if mode == "jitter" \
            else np.full(grid.shape, mode == "one")
        log, ref_log = strategies.TieLog(), strategies.TieLog()
        acts, tied = tb.decide(margins, log, jit)
        assert acts.dtype == np.uint8 and acts.shape == tied.shape == \
            grid.shape
        if grid is posts:
            want, want_tied = _old_engine_thresholds(posts, tie_acts)
            ref_log.add(int(want_tied.sum()))
        else:
            want = _old_decide_signs(ratios, tie_acts, ref_log)
            want_tied = np.abs(ratios) <= strategies.TIE_TOL
        assert np.array_equal(acts, want)
        assert np.array_equal(tied, want_tied)
        assert log.count == ref_log.count > 1000
        if mode == "jitter":
            assert 0 < acts[tied].sum() < tied.sum()

        # the scalar rules, on every 50th value and the specials
        pick = np.concatenate([np.arange(0, len(grid), 50), [-1, -2, -3]])
        log, ref_log = strategies.TieLog(), strategies.TieLog()
        for k in pick:
            if grid is posts:
                got = beliefs.best_response(posts[k], tb, log, jit[k])
                ref = _old_best_response(posts[k], mode, ref_log, old_jit[k],
                                         width)
            else:
                got = int(tb.decide(ratios[k], log, jit[k])[0])
                ref = _old_decide_sign(ratios[k], mode, ref_log, old_jit[k],
                                       width)
            assert type(got) is int and got == ref, grid[k]
        assert log.count == ref_log.count > 0


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


@pytest.mark.parametrize("fn", [beliefs.lookahead_certainty,
                                beliefs.y_decomposition])
def test_exact_functions_reject_other_profiles(fn):
    """Only myopic play is a base: any other raises ValueError before a
    world is enumerated, so an over-budget graph is no BudgetExceededError."""
    g = graphs.dicycle(30)
    m = signals.symmetric_binary(0.7)
    with pytest.raises(ValueError, match="MyopicExactProfile"):
        fn(g, m, strategies.GossipProfile(), HistoryView(0, 0, 0, ()))


def _no_worlds(*args, **kw):
    raise AssertionError("a world was enumerated")


@pytest.mark.parametrize("fn", [beliefs.exact_posterior,
                                beliefs.outcome_distribution])
def test_exact_functions_refuse_jitter_ties(monkeypatch, fn):
    """The replay draws no jitters, so under mode jitter every replayed tie
    would play 1: on chain(2) the play of jitters 0.9 would be called
    impossible, and that of jitters 0.1 get mode one's posterior.  Both
    functions refuse the profile before any world is enumerated."""
    g, m = graphs.chain(2), signals.symmetric_binary(0.7)
    prof = strategies.GossipProfile(TieBreaker("jitter"))
    acts = prof.trace_batch(g, m, np.array([[0, 1]]), np.full((1, 2), 0.9),
                            2)[0]
    assert acts.tolist() == [[1, 0], [0, 0]]
    view = beliefs.view_from_actions(g, [tuple(c) for c in acts.T.tolist()],
                                     [0, 1], 0, 2)
    monkeypatch.setattr(strategies, "worlds", _no_worlds)
    with pytest.raises(ValueError, match="jitter") as err:
        fn(g, m, prof, view)
    assert type(err.value) is ValueError


MALFORMED = {
    "exact_posterior, atom 5": (
        lambda g, m, p: beliefs.exact_posterior(
            g, m, p, HistoryView(0, 0, 5, ())), "atom 5"),
    "outcome_distribution, atom -1": (
        lambda g, m, p: beliefs.outcome_distribution(
            g, m, p, HistoryView(0, 0, -1, ())), "atom -1"),
    "one-entry row, two neighbours": (
        lambda g, m, p: beliefs.exact_posterior(
            g, m, p, HistoryView(0, 1, 1, ((1,),))), "row 0"),
    "agent 3 of three": (
        lambda g, m, p: beliefs.exact_posterior(
            g, m, p, HistoryView(3, 0, 1, ())), "agent 3"),
    "an entry 2": (
        lambda g, m, p: beliefs.y_decomposition(
            g, m, p, HistoryView(0, 1, 1, ((1, 2),))), "row 0"),
    "lookahead_certainty, ell_max -1": (
        lambda g, m, p: beliefs.lookahead_certainty(
            g, m, p, HistoryView(0, 0, 1, ()), ell_max=-1), "ell_max"),
}


@pytest.mark.parametrize("case", list(MALFORMED))
def test_malformed_views_fail_before_any_world(monkeypatch, case):
    """Each malformed input fails with one ValueError naming the fault,
    before any world is enumerated."""
    g = graphs.dicycle(3)
    m = signals.symmetric_binary(0.7)
    prof = strategies.MyopicExactProfile(g, m)
    monkeypatch.setattr(strategies, "worlds", _no_worlds)
    call, named = MALFORMED[case]
    with pytest.raises(ValueError, match=named) as err:
        call(g, m, prof)
    assert type(err.value) is ValueError


def test_history_view_validation():
    with pytest.raises(ValueError):
        HistoryView(0, 2, 0, ((1, 1),))
