"""Ensemble simulation of the repeated-action game.

A trace is one replicate: a hidden state, one signal atom per agent, and the
(n, horizon) action matrix produced by a profile.  Ensembles aggregate
learning/agreement frequencies over replicates with Wilson confidence
intervals.  Tail windows play the role of limiting action sets at a finite
horizon.

The ensemble loop works on blocks of replicates: each block draws its
rows, plays them with one ``trace_batch`` call and tallies them at once.  A
fixed cell budget, ``beliefs.BLOCK_CELLS`` cells of (replicate, agent,
round), sizes a block, with at least one replicate; a run that keeps its
actions (for the trace CSV) keeps each block's, as one (replicates, n,
horizon) uint8 array in replicate order.

Determinism: replicate r of an ensemble with master seed s always uses
``np.random.default_rng([s, r])``, and draws from it its state, then its
atoms, then its jitters.  Results are therefore independent of worker
count and block size, and ``run_ensemble`` merges its chunks in replicate
order.
"""
from __future__ import annotations

import csv
import functools
import io
import json
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, asdict
from typing import Optional, Tuple

import numpy as np

from .beliefs import BLOCK_CELLS, TieLog
from .stats import wilson_interval

__all__ = [
    "SimConfig",
    "Trace",
    "EnsembleTally",
    "EnsembleReport",
    "run_trace",
    "run_ensemble",
    "tail_action_set",
    "discounted_utility",
    "locality_coupling_test",
    "write_trace_csv",
]


@dataclass(frozen=True)
class SimConfig:
    horizon: int = 30
    replicates: int = 100
    discount: float = 0.9
    tail_window: int = 5
    master_seed: int = 0

    def __post_init__(self):
        if self.horizon < 1 or self.replicates < 1:
            raise ValueError("horizon and replicates must be >= 1")
        if not (0.0 < self.discount < 1.0):
            raise ValueError("discount must lie in (0, 1)")
        if not (1 <= self.tail_window <= self.horizon):
            raise ValueError("tail_window must lie in [1, horizon]")
        if self.master_seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.master_seed}")


@dataclass(frozen=True)
class Trace:
    state: int
    atoms: np.ndarray
    jitters: np.ndarray
    actions: np.ndarray  # (n, horizon) uint8
    tie_count: int
    replicate_index: int


def replicate_rng(master_seed: int, replicate_index: int):
    return np.random.default_rng([master_seed, replicate_index])


def _draw(g, m, profile, config: SimConfig, indices):
    """States (R,), atoms (R, n) and jitters (R, n) of the replicates
    ``indices``.  Each row draws from its own stream, in the order state,
    atom uniforms, jitters; one inverse-CDF call maps every row's uniforms
    to atoms."""
    states = np.empty(len(indices), dtype=np.int64)
    u = np.empty((len(indices), g.n))
    jitters = np.empty((len(indices), g.n))
    for i, r in enumerate(indices):
        rng = replicate_rng(config.master_seed, r)
        states[i] = rng.integers(0, 2)
        rng.random(out=u[i])
        jitters[i] = profile.tie_breaker.draw_jitters(rng, g.n)
    return states, m.atoms_of(u, states), jitters


def run_trace(g, m, profile, config: SimConfig, replicate_index: int,
              inject=None) -> Trace:
    """Simulate one replicate, as the ensemble loop does.

    ``inject`` optionally overrides the random draw: a callable
    (state, atoms) -> (state, atoms) applied after sampling, used to
    condition on rare events.
    """
    states, atoms, jitters = _draw(g, m, profile, config, [replicate_index])
    state, atoms, jitters = int(states[0]), atoms[0], jitters[0]
    if inject is not None:
        state, atoms = inject(state, atoms)
        atoms = np.asarray(atoms)
    tie_log = TieLog()
    actions = profile.trace_actions(g, m, atoms, jitters, config.horizon,
                                    tie_log)
    return Trace(state, atoms, jitters, actions, tie_log.count,
                 replicate_index)


def tail_action_set(trace: Trace, agent: int, window: int) -> frozenset:
    """Set of actions the agent plays in the last ``window`` rounds -- the
    finite-horizon surrogate for its limiting action set."""
    return frozenset(int(a) for a in trace.actions[agent, -window:])


def discounted_utility(trace: Trace, agent: int, discount: float):
    """Realized discounted payoff (1-d) * sum d^t 1{A_t = S} over the
    simulated horizon, plus the maximum mass beyond it.

    Returns (value, remainder_bound): the infinite-horizon payoff lies in
    [value, value + remainder_bound].
    """
    T = trace.actions.shape[1]
    correct = (trace.actions[agent] == trace.state).astype(np.float64)
    weights = (1.0 - discount) * discount ** np.arange(T)
    return float(weights @ correct), float(discount ** T)


@dataclass
class EnsembleTally:
    """Mergeable sufficient statistics for an ensemble; addition over
    disjoint replicate sets is exact."""

    n_agents: int
    replicates: int = 0
    all_learn: int = 0
    agree: int = 0
    agent_learn: np.ndarray = None
    tie_events: int = 0

    def __post_init__(self):
        if self.agent_learn is None:
            self.agent_learn = np.zeros(self.n_agents, dtype=np.int64)

    def add_batch(self, states, actions, ties: int, window: int):
        """Tally a block of replicates: their states (R,), their actions
        (R, n, T) and the block's tie events."""
        tail = actions[:, :, -window:]
        has0 = ~tail.all(axis=2)
        has1 = tail.any(axis=2)
        state = np.asarray(states, dtype=bool)[:, None]
        # learned <=> the tail set is exactly {state}
        learned = (has1 == state) & (has0 != state)
        self.replicates += len(actions)
        self.tie_events += ties
        self.agent_learn += learned.sum(axis=0)
        self.all_learn += int(learned.all(axis=1).sum())
        # agreement <=> every agent has the same tail action set
        self.agree += int(((has0 == has0[:, :1]).all(axis=1)
                           & (has1 == has1[:, :1]).all(axis=1)).sum())

    def add_trace(self, trace: Trace, window: int):
        self.add_batch([trace.state], trace.actions[None], trace.tie_count,
                       window)

    def merge(self, other: "EnsembleTally"):
        if other.n_agents != self.n_agents:
            raise ValueError("tally shape mismatch")
        self.replicates += other.replicates
        self.all_learn += other.all_learn
        self.agree += other.agree
        self.agent_learn += other.agent_learn
        self.tie_events += other.tie_events
        return self


@dataclass(frozen=True)
class EnsembleReport:
    config: SimConfig
    n_agents: int
    replicates: int
    learning_freq: float
    learning_ci: Tuple[float, float]
    agreement_freq: float
    agreement_ci: Tuple[float, float]
    agent_learning: Tuple[float, ...]
    tie_rate: float
    graph_family: Optional[str] = None

    def to_dict(self):
        d = asdict(self)
        d["config"] = asdict(self.config)
        return d

    def to_json(self, **kw):
        return json.dumps(self.to_dict(), indent=2, **kw)


def report_from_tally(tally: EnsembleTally, config: SimConfig,
                      graph_family=None) -> EnsembleReport:
    N = tally.replicates
    lf = tally.all_learn / N
    af = tally.agree / N
    return EnsembleReport(
        config=config,
        n_agents=tally.n_agents,
        replicates=N,
        learning_freq=lf,
        learning_ci=wilson_interval(tally.all_learn, N),
        agreement_freq=af,
        agreement_ci=wilson_interval(tally.agree, N),
        agent_learning=tuple(tally.agent_learn / N),
        tie_rate=tally.tie_events / (N * tally.n_agents * config.horizon),
        graph_family=graph_family,
    )


def _run_chunk(g, m, profile, config: SimConfig, indices, keep_actions):
    """Tally one chunk of replicates in this process, a block at a time.
    Returns (tally, the chunk's (R, n, horizon) actions or None).
    Top-level so it pickles."""
    tally = EnsembleTally(g.n)
    kept = np.empty((len(indices), g.n, config.horizon), dtype=np.uint8) \
        if keep_actions else None
    rows = max(1, BLOCK_CELLS // (g.n * config.horizon))
    for lo in range(0, len(indices), rows):
        block = indices[lo:lo + rows]
        states, atoms, jitters = _draw(g, m, profile, config, block)
        tie_log = TieLog()
        actions = profile.trace_batch(g, m, atoms, jitters, config.horizon,
                                      tie_log)
        tally.add_batch(states, actions, tie_log.count, config.tail_window)
        if keep_actions:
            kept[lo:lo + len(block)] = actions
    return tally, kept


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_ensemble(g, m, profile, config: SimConfig, keep_actions: bool = False,
                 workers: int = 1):
    """Run all replicates and summarize.  Returns (report, actions) where
    actions, row r being replicate r's (n, horizon) uint8 actions, is None
    unless keep_actions is set.

    The replicates are split into at most ``workers`` contiguous chunks, and
    no more chunks than usable CPUs; a single chunk runs in this process,
    several run in a pool of one spawned process per chunk.  The chunks'
    tallies and actions are merged in chunk order, so the result does not
    depend on ``workers``.

    A zero-row ``trace_batch`` solves the profile to the horizon here first:
    pool workers get the solved profile (the myopic world table, the gossip
    rings) instead of each rebuilding it, and an over-budget run fails
    before any pool starts."""
    if workers < 1:
        raise ValueError("workers must be >= 1")
    profile.trace_batch(g, m, np.zeros((0, g.n), dtype=np.intp),
                        np.zeros((0, g.n)), config.horizon)
    R = config.replicates
    k = min(workers, R, _usable_cpus())
    chunks = [range(i * R // k, (i + 1) * R // k) for i in range(k)]
    run = functools.partial(_run_chunk, g, m, profile, config,
                            keep_actions=keep_actions)
    if k == 1:
        parts = [run(chunks[0])]
    else:
        # spawned, not forked: a forked child may inherit a lock held by
        # one of numpy's threads
        spawn = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(max_workers=k, mp_context=spawn) as ex:
            parts = list(ex.map(run, chunks))
    tally = EnsembleTally(g.n)
    for part, _ in parts:
        tally.merge(part)
    actions = np.concatenate([a for _, a in parts]) if keep_actions else None
    return report_from_tally(tally, config, g.family_tag), actions


def _csv_cells(n: int, horizon: int, roles):
    """(2, n * horizon) object array: the text after ``replicate,`` of the
    row of (agent, t), agent-major, when the agent plays 0 and when it plays
    1.  Each agent's ``agent,role`` is rendered by ``csv.writer``, so the
    role is quoted exactly as in a row written by it."""
    buf = io.StringIO()
    w = csv.writer(buf)
    heads = []
    for i in range(n):
        buf.seek(0)
        buf.truncate()
        w.writerow([i, roles.get(i, "") if roles else ""])
        heads.append(buf.getvalue()[:-2])  # drop the "\r\n" terminator
    return np.array([[f"{h},{t},{a}" for h in heads for t in range(horizon)]
                     for a in (0, 1)], dtype=object)


def write_trace_csv(path, actions, roles=None):
    """Write (replicate, agent, role, t, action) rows for the (R, n, horizon)
    ``actions``, row r as replicate r, agent-major within a replicate, as
    ``csv.writer`` would: CRLF line ends, roles quoted where needed.  The
    cells are built once; each replicate is one ``join`` over its flattened
    actions."""
    R, n, horizon = np.shape(actions)
    cells = _csv_cells(n, horizon, roles)
    cols = np.arange(n * horizon)
    with open(path, "w", newline="") as f:
        csv.writer(f).writerow(["replicate", "agent", "role", "t", "action"])
        for r, acts in enumerate(np.reshape(actions, (R, n * horizon))):
            head = f"{r},"
            text = f"\r\n{head}".join(cells[acts, cols].tolist())
            f.write(f"{head}{text}\r\n")


def locality_coupling_test(g1, i1, g2, i2, r: int, profile1, profile2, m,
                           seed: int) -> bool:
    """Check the finite-speed-of-information property: when the radius-(r+1)
    balls around (g1, i1) and (g2, i2) are isomorphic, coupling the signals
    through the witness map makes the roots' actions agree for all t <= r.

    Returns True when every checked round matches; raises ValueError when
    the balls are not isomorphic.
    """
    from .graphs import extract_ball, balls_isomorphic

    ok, mapping = balls_isomorphic(extract_ball(g1, i1, r + 1),
                                   extract_ball(g2, i2, r + 1))
    if not ok:
        raise ValueError("radius r+1 balls are not isomorphic")
    rng = np.random.default_rng(seed)
    state = int(rng.integers(0, 2))
    atoms1 = m.sample_atoms(rng, g1.n, state)
    atoms2 = np.array(m.sample_atoms(rng, g2.n, state))
    for v1, v2 in mapping.items():
        atoms2[v2] = atoms1[v1]
    a1 = profile1.trace_actions(g1, m, atoms1, np.zeros(g1.n), r + 1)
    a2 = profile2.trace_actions(g2, m, atoms2, np.zeros(g2.n), r + 1)
    return bool(np.array_equal(a1[i1], a2[i2]))
