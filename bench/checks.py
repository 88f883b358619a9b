"""Output checks behind the benchmark's ``failed`` count.

After the timed passes, every replicate of the run is recomputed with
``dynamics.run_trace``, the per-replicate reference path, which is assumed
to reproduce replicate r of the ensemble.  Each trace's actions are compared
with an oracle that lives here, outside netlearn, and recomputed from the
trace's own atoms; the report JSON the passes wrote is compared with the
report rebuilt from those traces and with a tally kept here.  Nothing in this
module is timed.
"""
from __future__ import annotations

import csv
import json
import math

import networkx as nx
import numpy as np

import netlearn
from netlearn import beliefs, config, dynamics, strategies

# Replicates whose tie events are counted twice, by the program and by the
# reference; royal-herding's 200 keep the known royal tie-count gap visible
# (the fast path logs no ties; the generic loop does).
TIE_SAMPLE = {"royal-herding": 200, "gossip-large": 20, "mad-king-csv": 6,
              "exact-myopic": 10}
VIEWS_PER_TRACE = 2
Z_TOL = 1e-9


def _decide(values, mode):
    """Sign decision with the package's tie tolerance -> (actions, ties)."""
    if mode not in ("zero", "one"):
        raise ValueError(f"oracle has no rule for tie mode {mode!r}")
    tie = np.abs(values) <= beliefs.TIE_TOL
    acts = (values > beliefs.TIE_TOL).astype(np.uint8)
    acts[tie] = 1 if mode == "one" else 0
    return acts, int(tie.sum())


def _generic_ties(prof, g, m, tr, horizon):
    """Ties logged by the base-class per-agent loop, the slow reference."""
    log = beliefs.TieLog()
    strategies.Profile.trace_actions(prof, g, m, tr.atoms, tr.jitters,
                                     horizon, log)
    return log.count


class _Summary:
    """Learning and agreement counts over the tail window, kept here."""

    def __init__(self, n, window):
        self.window = window
        self.replicates = self.all_learn = self.agree = self.ties = 0
        self.agent_learn = np.zeros(n, dtype=np.int64)

    def add(self, tr):
        tail = tr.actions[:, -self.window:].astype(np.int64)
        # an agent learns when its tail action set is {state}; agents agree
        # when their tail sets, fixed by (min, max) of binary actions, match
        learned = (tail == tr.state).all(axis=1)
        lo, hi = tail.min(axis=1), tail.max(axis=1)
        self.replicates += 1
        self.all_learn += bool(learned.all())
        self.agree += bool((lo == lo[0]).all() and (hi == hi[0]).all())
        self.agent_learn += learned
        self.ties += tr.tie_count


def run(name, cfg_path, seed, passes, tally):
    """Check one run's outputs, counting into ``tally`` (see run.Tally)."""
    rc = config.load_config(str(cfg_path), environ={})
    g = rc.build_graph()
    m = rc.build_signal_model()
    prof = rc.build_profile(g, m)
    R, T, n = rc.sim.replicates, rc.sim.horizon, g.n
    tally.sizes = {"graph": rc.graph_family, "n_agents": n, "horizon": T,
                   "replicates": R, "profile": rc.profile_name,
                   "tie": rc.tie_mode, "signal": rc.signal_kind}

    for p in passes:
        tally.check(p["replicates"] == R, "pass replicate count")
        tally.check(p["report_sha256"] == passes[0]["report_sha256"],
                    "report identical across passes")

    rng = np.random.default_rng(seed)
    sample = set(int(r) for r in rng.choice(
        R, size=min(TIE_SAMPLE[name], R), replace=False))
    oracle = _ORACLES[name](tally, g, m, prof, rc, rng)
    ens = dynamics.EnsembleTally(n)
    mine = _Summary(n, rc.sim.tail_window)
    for r in range(R):
        tr = dynamics.run_trace(g, m, prof, rc.sim, r)
        ens.add_trace(tr, rc.sim.tail_window)
        mine.add(tr)
        oracle.check(tr)
        if r in sample:
            tally.report_tie_events += tr.tie_count
            tally.oracle_tie_events += oracle.ties(tr)
    oracle.finish()

    with open(rc.report_json) as f:
        rep = json.load(f)
    want = dynamics.report_from_tally(ens, rc.sim, g.family_tag).to_dict()
    want["version"] = netlearn.__version__
    tally.check(rep == json.loads(json.dumps(want)),
                "report equals the one rebuilt from run_trace")
    N = mine.replicates
    tally.check(rep["replicates"] == N and rep["n_agents"] == n,
                "report sizes")
    tally.check(rep["learning_freq"] == mine.all_learn / N,
                "report learning_freq")
    tally.check(rep["agreement_freq"] == mine.agree / N,
                "report agreement_freq")
    tally.check(rep["agent_learning"] == (mine.agent_learn / N).tolist(),
                "report agent_learning")
    tally.check(rep["tie_rate"] == mine.ties / (N * n * T), "report tie_rate")
    for key in ("learning", "agreement"):
        lo, hi = rep[f"{key}_ci"]
        tally.check(0.0 <= lo <= rep[f"{key}_freq"] <= hi <= 1.0,
                    f"report {key} CI")


class _Royal:
    """Round 0: own sign; round 1: sign of the closed-neighbourhood sum;
    then every agent repeats its round-1 action."""

    def __init__(self, tally, g, m, prof, rc, rng):
        self.tally, self.g, self.m, self.prof, self.rc = tally, g, m, prof, rc
        self.z = np.asarray(m.z_values)
        self.closed = np.zeros((g.n, g.n))
        for i in range(g.n):
            self.closed[i, list(g.closed_nbrs(i))] = 1.0

    def check(self, tr):
        zi = self.z[tr.atoms]
        r0, _ = _decide(zi, self.rc.tie_mode)
        r1, _ = _decide(self.closed @ zi, self.rc.tie_mode)
        want = np.empty_like(tr.actions)
        want[:, 0] = r0
        want[:, 1:] = r1[:, None]
        self.tally.check(np.array_equal(want, tr.actions),
                         f"royal actions, replicate {tr.replicate_index}")

    def ties(self, tr):
        return _generic_ties(self.prof, self.g, self.m, tr,
                             self.rc.sim.horizon)

    def finish(self):
        pass


class _Gossip:
    """Action at round t: sign of the signals summed over the radius-t
    out-ball, with distances from networkx."""

    def __init__(self, tally, g, m, prof, rc, rng):
        self.tally, self.rc = tally, rc
        self.n, self.T = g.n, rc.sim.horizon
        self.z = np.asarray(m.z_values)
        G = nx.DiGraph()
        G.add_nodes_from(range(g.n))
        G.add_edges_from(g.edges)
        cell, member = [], []
        for i in range(g.n):
            for j, d in nx.single_source_shortest_path_length(
                    G, i, cutoff=self.T - 1).items():
                cell.append(i * self.T + d)
                member.append(j)
        self.cell, self.member = np.array(cell), np.array(member)

    def _play(self, tr):
        rings = np.bincount(self.cell, weights=self.z[tr.atoms][self.member],
                            minlength=self.n * self.T).reshape(self.n, self.T)
        return _decide(rings.cumsum(axis=1), self.rc.tie_mode)

    def check(self, tr):
        self.tally.check(np.array_equal(self._play(tr)[0], tr.actions),
                         f"gossip actions, replicate {tr.replicate_index}")

    def ties(self, tr):
        return self._play(tr)[1]

    def finish(self):
        pass


class _MadKing:
    """People stay silent in rounds 0-1; the regent plays sign(Z_1) from
    round 1; the CSV holds R*n*T rows, which equal the traces' actions."""

    def __init__(self, tally, g, m, prof, rc, rng):
        self.tally, self.g, self.m, self.prof, self.rc = tally, g, m, prof, rc
        self.z = np.asarray(m.z_values)
        self.roles = strategies.mad_king_roles_of(g)
        self.actions = {}

    def check(self, tr):
        a, ro, r = tr.actions, self.roles, tr.replicate_index
        self.actions[r] = a
        self.tally.check(not a[list(ro.people), :2].any(),
                         f"people silent, replicate {r}")
        zi = self.z[tr.atoms]
        z1 = zi[ro.regent] + zi[ro.king] + zi[list(ro.bureaucracy)].sum()
        want, _ = _decide(np.array([z1]), self.rc.tie_mode)
        self.tally.check(bool((a[ro.regent, 1:] == want[0]).all()),
                         f"regent plays sign(Z_1), replicate {r}")

    def ties(self, tr):
        return _generic_ties(self.prof, self.g, self.m, tr,
                             self.rc.sim.horizon)

    def finish(self):
        ro, (n, T) = self.roles, (self.g.n, self.rc.sim.horizon)
        role = {ro.king: "king", ro.regent: "regent"}
        role.update({v: "court" for v in ro.court})
        role.update({v: "bureaucracy" for v in ro.bureaucracy})
        role.update({v: "person" for v in ro.people})
        got = {r: np.full((n, T), 255, dtype=np.int64) for r in self.actions}
        rows, roles_ok, known = 0, True, True
        with open(self.rc.trace_csv, newline="") as f:
            reader = csv.reader(f)
            self.tally.check(next(reader) == ["replicate", "agent", "role",
                                              "t", "action"], "CSV header")
            for rep, agent, rname, t, act in reader:
                rows += 1
                acts = got.get(int(rep))
                if acts is None:
                    known = False
                    continue
                acts[int(agent), int(t)] = int(act)
                roles_ok &= role[int(agent)] == rname
        want = len(self.actions) * n * T
        self.tally.check(rows == want, f"CSV has {rows} rows, want {want}")
        self.tally.check(known, "CSV replicate indices")
        self.tally.check(roles_ok, "CSV roles")
        for r, a in self.actions.items():
            self.tally.check(np.array_equal(got[r], a),
                             f"CSV rows, replicate {r}")


class _ExactMyopic:
    """Rounds 0-1 equal gossip play; on views taken from the traces the
    log-odds identity Z = Y + Z_0 holds to 1e-9, and the traced action is
    the best response to Z."""

    def __init__(self, tally, g, m, prof, rc, rng):
        self.tally, self.g, self.m, self.prof, self.rc = tally, g, m, prof, rc
        self.rng = rng
        self.gossip = strategies.GossipProfile(beliefs.TieBreaker(rc.tie_mode))

    def check(self, tr):
        g, T, r = self.g, self.rc.sim.horizon, tr.replicate_index
        early = min(2, T)
        want = self.gossip.trace_actions(g, self.m, tr.atoms, tr.jitters,
                                         early)
        self.tally.check(np.array_equal(want, tr.actions[:, :early]),
                         f"rounds 0-1 equal gossip, replicate {r}")
        rounds = [tuple(int(x) for x in tr.actions[:, t]) for t in range(T)]
        atoms = [int(a) for a in tr.atoms]
        for _ in range(VIEWS_PER_TRACE):
            agent = int(self.rng.integers(g.n))
            t = int(self.rng.integers(1, T)) if T > 1 else 0
            view = beliefs.view_from_actions(g, rounds, atoms, agent, t)
            d = beliefs.y_decomposition(g, self.m, self.prof, view)
            where = f"agent {agent}, t {t}, replicate {r}"
            self.tally.check(abs(d.z - (d.y + d.z0)) <= Z_TOL,
                             f"Z = Y + Z0 at {where}")
            p = 1.0 / (1.0 + math.exp(-d.z))
            if abs(p - 0.5) <= beliefs.TIE_TOL:
                best = 1 if self.rc.tie_mode == "one" else 0
            else:
                best = int(p > 0.5)
            self.tally.check(int(tr.actions[agent, t]) == best,
                             f"best response to Z at {where}")

    def ties(self, tr):
        return _generic_ties(self.prof, self.g, self.m, tr,
                             self.rc.sim.horizon)

    def finish(self):
        pass


_ORACLES = {"royal-herding": _Royal, "gossip-large": _Gossip,
            "mad-king-csv": _MadKing, "exact-myopic": _ExactMyopic}
