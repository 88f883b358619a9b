"""Acceptance gate: eleven end-to-end checks with their tolerances pinned.

Each test prints one PASS/FAIL line (visible with ``pytest -s`` or in
captured output) and asserts the same condition.
"""
import itertools
import math

import numpy as np
import pytest

from netlearn import (beliefs, dynamics, estimators, graphs, signals, stats,
                      strategies, topology)
from netlearn.beliefs import HistoryView
from netlearn.dynamics import SimConfig
from netlearn.signals import logistic


def report(num, name, ok, detail=""):
    line = f"[criterion {num:02d}] {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def single_node_graph():
    return graphs.DirectedGraph(1, frozenset())


def test_criterion_01_single_agent_baseline():
    """A lone agent's learning frequency equals the single-signal MAP
    accuracy p* = 1/2 + d_TV/2, within 3 binomial SE at N = 1e5."""
    g = single_node_graph()
    N = 100_000
    ok_all, details = True, []
    for m, seed in ((signals.symmetric_binary(0.6), 101),
                    (signals.royal_bounded(), 102)):
        cfg = SimConfig(horizon=5, replicates=N, tail_window=5,
                        master_seed=seed)
        rep, _ = dynamics.run_ensemble(g, m, strategies.GossipProfile(), cfg)
        p = signals.p_star(m)
        se = math.sqrt(p * (1 - p) / N)
        ok = abs(rep.learning_freq - p) <= 3 * se
        ok_all &= ok
        details.append(f"freq={rep.learning_freq:.4f} p*={p:.4f}")
    report(1, "single-agent baseline", ok_all, "; ".join(details))


def _instance_sweep(rng, count):
    """Random (graph, model, profile, atoms, t) exact-engine instances with
    at most 6 agents and views at times t <= 3."""
    pool = []
    for gen in (graphs.dicycle(3), graphs.dicycle(4), graphs.dicycle(5),
                graphs.cycle(4), graphs.cycle(5), graphs.chain(4),
                graphs.dicycle(6)):
        for q in (0.6, 0.75):
            m = signals.symmetric_binary(q)
            pool.append((gen, m, strategies.MyopicExactProfile(gen, m)))
    for _ in range(count):
        g, m, prof = pool[rng.integers(len(pool))]
        s = int(rng.integers(0, 2))
        atoms = [int(a) for a in m.sample_atoms(rng, g.n, s)]
        t = int(rng.integers(0, 4))
        agent = int(rng.integers(g.n))
        acts = beliefs.simulate_actions(g, prof, atoms, t)
        view = beliefs.view_from_actions(g, acts, atoms, agent, t)
        yield g, m, prof, view


def test_criterion_02_z_decomposition():
    """|Z - Y - Z_0| <= 1e-9 on 1000 random exact-engine instances."""
    rng = np.random.default_rng(2)
    worst = 0.0
    for g, m, prof, view in _instance_sweep(rng, 1000):
        dec = beliefs.y_decomposition(g, m, prof, view)
        worst = max(worst, abs(dec.z - (dec.y + dec.z0)))
    report(2, "log-odds decomposition Z = Y + Z0", worst <= 1e-9,
           f"max |Z-(Y+Z0)| = {worst:.2e} over 1000 instances")


def test_criterion_03_posterior_martingale():
    """One-step tower identity to 1e-9 on the same kind of instance sweep."""
    rng = np.random.default_rng(3)
    worst = 0.0
    for g, m, prof, view in _instance_sweep(rng, 300):
        now = beliefs.exact_posterior(g, m, prof, view).posterior
        outs = beliefs.outcome_distribution(g, m, prof, view)
        nxt = sum(p * beliefs.exact_posterior(g, m, prof, v).posterior
                  for _, p, v in outs)
        worst = max(worst, abs(nxt - now))
    report(3, "posterior one-step martingale", worst <= 1e-9,
           f"max tower gap = {worst:.2e} over 300 instances")


def test_criterion_04_locality_coupling():
    """100 matched-ball pairs: coupled signals give identical root actions
    through round r."""
    rng = np.random.default_rng(4)
    m = signals.symmetric_binary(0.7)
    prof = strategies.GossipProfile()
    passed = 0
    for trial in range(100):
        r = int(rng.integers(1, 4))
        if rng.integers(2):
            n1 = int(rng.integers(2 * r + 4, 2 * r + 12))
            n2 = int(rng.integers(2 * r + 4, 2 * r + 12))
            g1, g2 = graphs.cycle(n1), graphs.cycle(n2)
        else:
            n1 = int(rng.integers(r + 3, r + 10))
            n2 = int(rng.integers(r + 3, r + 10))
            g1, g2 = graphs.dicycle(n1), graphs.dicycle(n2)
        i1 = int(rng.integers(n1))
        i2 = int(rng.integers(n2))
        passed += dynamics.locality_coupling_test(
            g1, i1, g2, i2, r, prof, prof, m, int(rng.integers(1 << 30)))
    report(4, "locality coupling", passed == 100, f"{passed}/100 pairs")


def test_criterion_05_agreement_surrogate():
    """Tail-window agreement frequency >= 0.99 on undirected cycles."""
    m = signals.symmetric_binary(0.6)
    ok_all, details = True, []
    for n in (10, 20):
        cfg = SimConfig(horizon=30, replicates=5000, tail_window=5,
                        master_seed=50 + n)
        rep, _ = dynamics.run_ensemble(graphs.cycle(n), m,
                                       strategies.GossipProfile(), cfg)
        ok_all &= rep.agreement_freq >= 0.99
        details.append(f"n={n}: agree={rep.agreement_freq:.4f} "
                       f"ties={rep.tie_rate:.4f}")
    report(5, "tail-window agreement", ok_all, "; ".join(details))


def test_criterion_06_egalitarian_trend():
    """Learning frequency nondecreasing in n over {5,10,20,40} up to
    one-sided 99% interval noise."""
    m = signals.symmetric_binary(0.6)
    reports = []
    for n in (5, 10, 20, 40):
        cfg = SimConfig(horizon=30, replicates=5000, tail_window=5,
                        master_seed=60)
        rep, _ = dynamics.run_ensemble(graphs.cycle(n), m,
                                       strategies.GossipProfile(), cfg)
        reports.append(rep)
    ok = True
    for a, b in zip(reports, reports[1:]):
        lo, _ = stats.wilson_interval(
            int(round(a.learning_freq * a.replicates)), a.replicates,
            z=2.326)
        ok &= b.learning_freq >= lo
    trend = " -> ".join(f"{r.learning_freq:.3f}" for r in reports)
    summary = estimators.compare_learning(reports)
    report(6, "learning nondecreasing with cycle size",
           ok and summary["monotone_ok"], trend)


def test_criterion_07_royal_family_non_learning():
    """Non-learning frequency >= (1/2)(1-q)^R - 3 SE, and the injected
    unanimous-clique event herds every agent onto 1 from round 1."""
    R, n, q, N = 5, 100, 0.6, 100_000
    g = graphs.royal_family(R, n)
    m = signals.symmetric_binary(q)
    prof = strategies.RoyalFamilyProfile(g, m)
    cfg = SimConfig(horizon=20, replicates=N, tail_window=5, master_seed=70)
    rep, _ = dynamics.run_ensemble(g, m, prof, cfg)
    non_learn = 1.0 - rep.learning_freq
    floor = 0.5 * (1 - q) ** R
    se = math.sqrt(max(non_learn * (1 - non_learn), 1e-12) / N)
    ok_floor = non_learn >= floor - 3 * se

    neg, pos = m.sign_atoms()
    # condition on a unanimous + clique under S = 0: draw the replicates,
    # give every royal the + atom and play the edited block
    cfg_j = SimConfig(horizon=20, replicates=100, tail_window=5,
                      master_seed=71)
    traces = [dynamics.run_trace(g, m, prof, cfg_j, rix)
              for rix in range(100)]
    atoms = np.array([tr.atoms for tr in traces])
    atoms[:, :R] = pos
    actions = prof.trace_batch(g, m, atoms,
                               np.array([tr.jitters for tr in traces]),
                               cfg_j.horizon)
    # every agent on 1 from round 1 is a herd on the wrong action under S = 0
    herded = int((actions[:, :, 1:] == 1).all(axis=(1, 2)).sum())
    report(7, "royal-family non-learning", ok_floor and herded == 100,
           f"non-learn={non_learn:.4f} floor={floor:.5f}; "
           f"injected herds {herded}/100")


def test_criterion_08_mad_king_forced_dynamics():
    R_C, R_B, n = 2, 500, 20
    lam, delta = 0.99, 0.01
    ok_regime = math.exp(R_C) < 1.0 / (1.0 - lam) < R_B

    g = graphs.mad_king(R_C, R_B, n)
    m = signals.mad_king_asym()
    prof = strategies.MadKingProfile(g, m)
    roles = prof.roles
    cfg = SimConfig(horizon=12, replicates=50, tail_window=4, master_seed=80)
    people = list(roles.people)
    traces = [dynamics.run_trace(g, m, prof, cfg, rix)
              for rix in range(cfg.replicates)]
    silent = all(bool((tr.actions[people, :2] == 0).all()) for tr in traces)

    # condition on an all-+ bureaucracy: the first 10 replicates' draws with
    # every bureaucrat's atom set to +, played as one block
    neg, pos = m.sign_atoms()
    atoms = np.array([tr.atoms for tr in traces[:10]])
    atoms[:, list(roles.bureaucracy)] = pos
    actions = prof.trace_batch(g, m, atoms, None, cfg.horizon)
    # the regent is locked once its posterior passes 1 - eps,
    # eps = exp(-delta * |bureaucracy|)
    lock_level = 1.0 - math.exp(-delta * R_B)
    ok_inject = all(logistic(prof.regent_z1(row)) > lock_level
                    for row in atoms)
    ok_inject &= bool((actions[:, :, 3:] == 1).all())
    report(8, "mad-king forced dynamics",
           ok_regime and silent and ok_inject,
           f"regime {math.exp(R_C):.2f}<{1/(1-lam):.0f}<{R_B}; "
           f"people silent={silent}; injected herd+lock={ok_inject}")


def test_criterion_09_myopic_condition_nesting():
    """B1 <= B2 <= B3 <= B4 on 1e4 random nondecreasing certainty tuples;
    bounded-ratio agents start with certainty >= 1/5."""
    rng = np.random.default_rng(9)
    ok_nest = True
    for _ in range(10_000):
        lam = float(rng.uniform(0.05, 0.95))
        ys = np.sort(rng.uniform(0.0, 0.5, size=4))
        out = beliefs.myopic_condition_check(tuple(ys), lam)
        ok_nest &= (not out["B1"] or out["B2"]) \
            and (not out["B2"] or out["B3"]) \
            and (not out["B3"] or out["B4"])

    g = graphs.DirectedGraph(2, frozenset({(0, 1), (1, 0)}))
    m = signals.royal_bounded()
    prof = strategies.MyopicExactProfile(g, m)
    y0_min = min(
        beliefs.lookahead_certainty(g, m, prof, HistoryView(0, 0, a, ()),
                                    ell_max=1)[0]
        for a in range(m.k))
    ok_floor = y0_min >= 0.2
    report(9, "deviation-condition nesting and certainty floor",
           ok_nest and ok_floor,
           f"nesting on 10^4 tuples; min Y0 = {y0_min:.4f} >= 0.2")


def test_criterion_10_majority_aggregation():
    """k = 25 conditionally independent estimators at accuracy 0.75 beat
    1 - e^{-2 (0.25)^2 * 25} minus 3 SE at N = 1e5."""
    N, k, acc, eps = 100_000, 25, 0.75, 0.25
    rng = np.random.default_rng(10)
    S = rng.integers(0, 2, size=N).astype(np.uint8)
    X = (S[:, None] ^ (rng.random((N, k)) < 1 - acc)).astype(np.uint8)
    sample = estimators.EstimatorSample(X, S)
    out = estimators.majority_aggregate(sample, epsilon=eps)
    bound = 1.0 - math.exp(-2 * eps ** 2 * k)
    se = math.sqrt(bound * (1 - bound) / N)
    ok = out["accuracy"] >= bound - 3 * se
    report(10, "majority aggregation beats exponential bound", ok,
           f"acc={out['accuracy']:.4f} >= {bound:.4f} - 3SE")


def test_criterion_11_graph_metric_and_connectivity():
    """Metric axioms on a 20-rooted-graph sample; the frozen cycle-pair
    distance; L-connectivity against an independent shortest-path oracle."""
    import networkx as nx

    sample = []
    for n in (5, 6, 8, 10, 12):
        sample.append((graphs.dicycle(n), 0))
        sample.append((graphs.cycle(n), n // 2))
    for dims in ((2, 3), (3, 3), (3, 4)):
        sample.append((graphs.grid(*dims), 0))
    sample.append((graphs.royal_family(3, 5), 0))
    sample.append((graphs.royal_family(3, 5), 4))
    for d, s in ((3, 1), (4, 2), (3, 3), (4, 4), (3, 5)):
        sample.append((graphs.random_regular(10, d, seed=s), 0))
    assert len(sample) == 20
    r_max = 4

    dmat = {}
    ok = True
    for a, b in itertools.combinations(range(20), 2):
        (ga, ia), (gb, ib) = sample[a], sample[b]
        dab = topology.rooted_distance(ga, ia, gb, ib, r_max)[0]
        dba = topology.rooted_distance(gb, ib, ga, ia, r_max)[0]
        ok &= dab == dba and 0.0 <= dab <= 1.0
        dmat[(a, b)] = dmat[(b, a)] = dab
    for i, (g, root) in enumerate(sample):
        val, truncated = topology.rooted_distance(g, root, g, root, r_max)
        # identity holds up to truncation: balls agree at every radius
        # checked, so the distance is 0 or the truncation floor 2^-r_max
        ok &= val == 0.0 or (truncated and val == 2.0 ** -r_max)
        dmat[(i, i)] = 0.0
    rng = np.random.default_rng(11)
    for _ in range(400):
        a, b, c = rng.integers(0, 20, size=3)
        ok &= dmat[(int(a), int(c))] <= max(
            dmat[(int(a), int(b))], dmat[(int(b), int(c))]) + 1e-12

    frozen = topology.rooted_distance(graphs.dicycle(5), 0,
                                    graphs.dicycle(8), 0, 8)[0]
    ok_frozen = frozen == 0.125

    ok_l = True
    for g, _ in sample:
        nxg = nx.DiGraph()
        nxg.add_nodes_from(range(g.n))
        nxg.add_edges_from(g.edges)
        oracle = max(nx.shortest_path_length(nxg, j, i)
                     for (i, j) in g.edges)
        ok_l &= topology.min_l_connectivity(g) == oracle
    report(11, "rooted-graph metric and L-connectivity oracle",
           ok and ok_frozen and ok_l,
           f"metric axioms on 20 graphs; d(C5,C8)={frozen}")
