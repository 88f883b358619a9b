"""Self-contained invariant checks, runnable without a test framework.

Each checker returns a list of (name, ok, detail) triples; ``run_scope``
dispatches on a scope name.  The pytest suite exercises the same properties
more aggressively; this module exists so the command-line harness can verify
an installation in seconds.
"""
from __future__ import annotations

import math

import numpy as np

from . import (beliefs, dynamics, estimators, graphs, signals, stats,
               strategies, topology)


def _check(results, name, ok, detail=""):
    results.append((name, bool(ok), detail))


def check_graph(seed: int = 0):
    import networkx as nx
    res = []
    for spec in ("dicycle(7)", "cycle(8)", "grid(3,4)", "royal_family(3,6)",
                 "mad_king(2,5,4)"):
        g = graphs.generate(spec)
        _check(res, f"strongly_connected[{spec}]",
               topology.is_strongly_connected(g))
        L = topology.min_l_connectivity(g)
        # independent oracle: the longest shortest return path over edges
        h = nx.DiGraph(list(g.edges))
        want = max(nx.shortest_path_length(h, j, i) for (i, j) in g.edges)
        _check(res, f"l_connectivity_bound[{spec}]", L == want, f"L={L}")
    g = graphs.cycle(8)
    _check(res, "undirected_is_1_connected",
           topology.min_l_connectivity(g) == 1)
    # ball metric: symmetry, dyadic values, triangle-by-construction
    g1, g2 = graphs.dicycle(8), graphs.dicycle(12)
    d12, _ = topology.rooted_distance(g1, 0, g2, 0, 6)
    d21, _ = topology.rooted_distance(g2, 0, g1, 0, 6)
    _check(res, "rooted_distance_symmetric", d12 == d21, f"d={d12}")
    same, _ = topology.rooted_distance(g1, 0, g1, 3, 8)
    _check(res, "rooted_distance_vertex_transitive_zero", same == 0.0)
    # backtracking isomorphism agrees with the brute-force oracle on distinct
    # balls: two corners of grid(3,3) (isomorphic), and chain(5) rooted at an
    # end and at the middle (5 vertices, 8 edges, not root-isomorphic)
    grid, chain = graphs.grid(3, 3), graphs.chain(5)
    for r, a, b, want in ((1, (grid, 0, 2), (grid, 8, 2), True),
                          (2, (chain, 0, 4), (chain, 2, 2), False)):
        b1, b2 = topology.extract_ball(*a), topology.extract_ball(*b)
        fast, _ = topology.balls_isomorphic(b1, b2)
        slow = topology.balls_isomorphic_bruteforce(b1, b2)
        _check(res, f"iso_matches_bruteforce[r={r}]", fast == slow == want)
    return res


def check_signal(seed: int = 0):
    res = []
    rng = np.random.default_rng(seed)
    for m in (signals.symmetric_binary(0.7), signals.royal_bounded(),
              signals.mad_king_asym()):
        _check(res, f"masses_sum_to_one[{m.k} atoms]",
               abs(sum(m.probs(0)) - 1) < 1e-12
               and abs(sum(m.probs(1)) - 1) < 1e-12)
        zs = [math.log(a.p1 / a.p0) for a in m.atoms]
        _check(res, "log_likelihood_consistent",
               all(abs(z - a.z) < 1e-12 for z, a in zip(zs, m.atoms)))
        tv = signals.total_variation(m)
        _check(res, "p_star_identity",
               abs(signals.p_star(m) - (0.5 + 0.5 * tv)) < 1e-12,
               f"tv={tv:.6f}")
        draws = m.sample_atoms(rng, 20000, 1)
        emp = np.bincount(draws, minlength=m.k) / 20000
        _check(res, "sampler_matches_masses",
               np.abs(emp - m.probs(1)).max() < 0.02)
    return res


def check_belief(seed: int = 0):
    res = []
    g = graphs.dicycle(3)
    m = signals.symmetric_binary(0.75)
    prof = strategies.MyopicExactProfile(g, m)
    rng = np.random.default_rng(seed)
    atoms = [int(a) for a in m.sample_atoms(rng, g.n, 1)]
    acts = beliefs.simulate_actions(g, prof, atoms, 3)
    for t in (0, 1, 2):
        view = beliefs.view_from_actions(g, acts, atoms, 0, t)
        exact = beliefs.exact_posterior(g, m, prof, view)
        dec = beliefs.y_decomposition(g, m, prof, view)
        _check(res, f"z_equals_y_plus_z0[t={t}]",
               abs(dec.z - (dec.y + dec.z0)) < 1e-9)
        # tower property: expected next-round posterior equals today's
        outs = beliefs.outcome_distribution(g, m, prof, view)
        mean_next = sum(
            p * beliefs.exact_posterior(g, m, prof, v).posterior
            for _, p, v in outs)
        _check(res, f"posterior_martingale[t={t}]",
               abs(mean_next - exact.posterior) < 1e-9)
    ys = beliefs.lookahead_certainty(
        g, m, prof, beliefs.view_from_actions(g, acts, atoms, 0, 0))
    _check(res, "lookahead_nondecreasing",
           all(ys[i] <= ys[i + 1] + 1e-9 for i in range(len(ys) - 1)),
           f"Y={tuple(round(y, 4) for y in ys)}")
    return res


def check_strategy(seed: int = 0):
    res = []
    m = signals.symmetric_binary(0.7)
    g = graphs.dicycle(4)
    gossip = strategies.GossipProfile()
    myo = strategies.MyopicExactProfile(g, m)
    rng = np.random.default_rng(seed)
    ok01 = True
    for _ in range(20):
        s = int(rng.integers(0, 2))
        atoms = list(map(int, m.sample_atoms(rng, g.n, s)))
        tr = gossip.trace_actions(g, m, atoms, np.zeros(g.n), 2)
        acts = beliefs.simulate_actions(g, myo, atoms, 2)
        exact = np.array(acts, dtype=np.uint8).T
        ok01 &= bool(np.array_equal(tr[:, :2], exact[:, :2]))
    _check(res, "gossip_matches_myopic_rounds_0_1", ok01)
    conds = beliefs.myopic_condition_check((0.1, 0.2, 0.3, 0.4), 0.6)
    _check(res, "deviation_conditions_nested",
           (not conds["B1"] or conds["B2"])
           and (not conds["B2"] or conds["B3"])
           and (not conds["B3"] or conds["B4"]), str(conds))
    return res


def check_dynamics(seed: int = 0):
    res = []
    g = graphs.cycle(10)
    m = signals.symmetric_binary(0.7)
    cfg = dynamics.SimConfig(horizon=12, replicates=20, master_seed=seed)
    prof = strategies.GossipProfile()
    rep1, _ = dynamics.run_ensemble(g, m, prof, cfg)
    rep2, _ = dynamics.run_ensemble(g, m, prof, cfg)
    _check(res, "ensemble_deterministic_given_seed",
           rep1.learning_freq == rep2.learning_freq
           and rep1.agent_learning == rep2.agent_learning)
    t = dynamics.run_trace(g, m, prof, cfg, 0)
    u, rem = dynamics.discounted_utility(t, 0, cfg.discount)
    _check(res, "utility_in_unit_interval", 0.0 <= u <= 1.0 and rem >= 0.0)
    ok = dynamics.locality_coupling_test(
        graphs.cycle(12), 0, graphs.cycle(16), 0, 3, prof, prof, m, seed)
    _check(res, "locality_coupling", ok)
    return res


def check_stats(seed: int = 0):
    res = []
    rng = np.random.default_rng(seed)
    N, k = 4000, 5
    S = rng.integers(0, 2, size=N)
    noise = rng.random((N, k)) < 0.2
    X = (S[:, None] ^ noise).astype(np.uint8)
    sample = estimators.EstimatorSample(X, S)
    dep = estimators.dep_s_estimate(sample)
    _check(res, "independent_coords_low_dep", dep < 0.08, f"dep={dep:.4f}")
    copies = estimators.EstimatorSample(np.repeat(S[:, None], k, axis=1), S)
    _check(res, "perfect_copies_zero_dep",
           estimators.dep_s_estimate(copies) < 1e-9)
    agg = estimators.majority_aggregate(sample, 0.25)
    _check(res, "majority_beats_bound",
           agg["accuracy"] >= 1.0 - agg["error_bound"] - 0.03,
           f"acc={agg['accuracy']:.4f} bound={1 - agg['error_bound']:.4f}")
    lo, hi = stats.wilson_interval(50, 100)
    _check(res, "wilson_contains_point", lo < 0.5 < hi)
    return res


_DISPATCH = {
    "graph": check_graph,
    "signal": check_signal,
    "belief": check_belief,
    "strategy": check_strategy,
    "dynamics": check_dynamics,
    "stats": check_stats,
}


def run_scope(scope: str, seed: int = 0):
    if scope == "all":
        out = []
        for check in _DISPATCH.values():
            out.extend(check(seed))
        return out
    if scope not in _DISPATCH:
        raise ValueError(f"unknown scope {scope!r}; choose from "
                         f"{tuple(_DISPATCH) + ('all',)}")
    return _DISPATCH[scope](seed)
