"""Ensemble simulation of the repeated-action game.

A trace is one replicate: a hidden state, one signal atom per agent, and the
(n, horizon) action matrix produced by a profile.  Ensembles aggregate
learning/agreement frequencies over replicates with Wilson confidence
intervals.  Tail windows play the role of limiting action sets at a finite
horizon.

The ensemble loop works on blocks of replicates: each block draws its
rows, plays them with one ``trace_batch`` call and tallies them at once.  A
fixed cell budget, ``strategies.BLOCK_CELLS`` cells of (replicate, agent,
round), sizes a block, with at least one replicate; a run that keeps its
actions (for the trace CSV) keeps each block's, as one (replicates, n,
horizon) uint8 array in replicate order.

Determinism (seeding contract 3, ``EnsembleReport.seeding``): the draws
are counter-based.  Replicate r of master seed s takes uniform j from
SplitMix64's mixer (Steele, Lea & Flood, OOPSLA 2014) at the counter
r * 2^32 + j, offset by a key of s, in wrapping uint64 arithmetic:

    u(s, r, j) = (mix64(key(s) + (r * 2^32 + j) * GAMMA) >> 11) * 2^-53,
    key(s) = mix64(s + GAMMA),

so that u is a multiple of 2^-53 in [0, 1).  Slot 0 gives the state (1
when u < 1/2), slots 1 to n the atoms and, under tie mode ``jitter`` only,
slots n + 1 to 2n the jitters.  A draw depends only on (s, r, j), as in the
counter-based generators of Salmon et al. (SC 2011): results are
independent of the replicate count, the worker count and the block size,
a replicate's atoms do not depend on the tie mode, and ``run_ensemble``
merges its chunks in replicate order.  Seeds are uint64s; replicate indices
below 2^32 get distinct counters.
"""
from __future__ import annotations

import functools
import os
from typing import NamedTuple, Optional, Tuple

import numpy as np

from . import strategies
from .strategies import TieLog
from .stats import wilson_interval

__all__ = [
    "check_seed",
    "SimConfig",
    "Trace",
    "EnsembleTally",
    "EnsembleReport",
    "run_trace",
    "run_ensemble",
    "discounted_utility",
    "locality_coupling_test",
    "write_trace_csv",
]


def check_seed(seed: int) -> None:
    """Raise ValueError unless ``seed`` is a uint64, the draws' key."""
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    if seed >= 2 ** 64:
        raise ValueError(f"seed must be < 2**64, got {seed}")


class SimConfig:
    """The sizes and the master seed of an ensemble; ``_fields`` are in the
    report's order.  Equal configs hash equal."""

    __slots__ = _fields = ("horizon", "replicates", "discount", "tail_window",
                           "master_seed")

    def __init__(self, horizon: int = 30, replicates: int = 100,
                 discount: float = 0.9, tail_window: int = 5,
                 master_seed: int = 0):
        if horizon < 1 or replicates < 1:
            raise ValueError("horizon and replicates must be >= 1")
        if not (0.0 < discount < 1.0):
            raise ValueError("discount must lie in (0, 1)")
        if not (1 <= tail_window <= horizon):
            raise ValueError("tail_window must lie in [1, horizon]")
        check_seed(master_seed)
        self.horizon = horizon
        self.replicates = replicates
        self.discount = discount
        self.tail_window = tail_window
        self.master_seed = master_seed

    def _key(self):
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other):
        return type(other) is SimConfig and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())


class Trace(NamedTuple):
    state: int
    atoms: np.ndarray
    jitters: np.ndarray
    actions: np.ndarray  # (n, horizon) uint8
    tie_count: int
    replicate_index: int


# version of the contract by which a replicate's draw follows from its seed
SEEDING = 3
# SplitMix64's increment (the golden gamma) and its mixer's multipliers
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


def _mix64(z):
    """SplitMix64's mixer, in place on the uint64 array ``z``; arrays, not
    numpy scalars, so that wrapping raises no overflow warning."""
    z ^= z >> 30
    z *= _MIX1
    z ^= z >> 27
    z *= _MIX2
    z ^= z >> 31
    return z


@functools.lru_cache(maxsize=1)
def _stream(master_seed: int, slots: int):
    """key(s) and the slot offsets j * GAMMA, j < slots, read-only: the
    terms of u(s, r, j) that no replicate changes, so that the blocks of
    one run make them once."""
    key = _mix64(np.array([master_seed], dtype=np.uint64) + _GAMMA)
    offsets = np.arange(slots, dtype=np.uint64) * _GAMMA
    key.flags.writeable = offsets.flags.writeable = False
    return key, offsets


def replicate_rng(master_seed: int, lo: int, hi: int, slots: int):
    """The (hi - lo, slots) uniforms u(s, r, j) of replicates lo to hi - 1
    of master seed s, slots 0 to slots - 1 (see the module docstring)."""
    key, offsets = _stream(master_seed, slots)
    rows = np.arange(lo, hi, dtype=np.uint64) << 32
    rows *= _GAMMA
    rows += key
    z = _mix64(np.add.outer(rows, offsets))
    z >>= 11
    return z * 2.0 ** -53


def _draws(g, m, profile, config: SimConfig, indices, rows: int):
    """Yield the states (k,), atoms (k, n) and jitters (k, n) of the
    consecutive replicates ``indices``, a range, ``rows`` replicates at a
    time: one ``replicate_rng`` call per block, then one inverse-CDF call
    maps its atom slots to atoms."""
    breaker = profile.tie_breaker
    slots = 1 + breaker.row_width(g.n)
    for lo in range(indices.start, indices.stop, rows):
        u = replicate_rng(config.master_seed, lo,
                          min(lo + rows, indices.stop), slots)
        states = (u[:, 0] < 0.5).astype(np.int64)
        yield (states, m.atoms_of(u[:, 1:g.n + 1], states),
               breaker.jitters_of(u[:, 1:], g.n))


def run_trace(g, m, profile, config: SimConfig,
              replicate_index: int) -> Trace:
    """Simulate one replicate, as the ensemble loop does, from its own
    slots alone: O(n) draws."""
    states, atoms, jitters = next(_draws(
        g, m, profile, config,
        range(replicate_index, replicate_index + 1), 1))
    tie_log = TieLog()
    actions = profile.trace_actions(g, m, atoms[0], jitters[0],
                                    config.horizon, tie_log)
    return Trace(int(states[0]), atoms[0], jitters[0], actions,
                 tie_log.count, replicate_index)


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


class EnsembleTally:
    """Mergeable sufficient statistics for an ensemble; addition over
    disjoint replicate sets is exact."""

    def __init__(self, n_agents: int):
        self.n_agents = n_agents
        self.replicates = self.all_learn = self.agree = self.tie_events = 0
        self.agent_learn = np.zeros(n_agents, dtype=np.int64)

    def add_batch(self, states, actions, ties: int, window: int):
        """Tally a block of replicates: their states (R,), their actions
        (R, n, T) and the block's tie events."""
        # each agent's 1s in the window, in the narrowest type that holds it
        tail = actions[:, :, -window:]
        ones = tail[:, :, 0].astype(np.min_scalar_type(window))
        for t in range(1, window):
            ones += tail[:, :, t]
        has0, has1 = ones < window, ones > 0
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


class EnsembleReport(NamedTuple):
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
    seeding: int = SEEDING

    def to_dict(self):
        """The fields, ``config`` as a dict too; nothing is copied."""
        d = self._asdict()
        d["config"] = {f: getattr(self.config, f)
                       for f in self.config._fields}
        return d


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


def _run_chunk(g, m, profile, config: SimConfig, indices, kept):
    """Tally one chunk of replicates in this process, a block at a time,
    and write their actions into ``kept`` (len(indices), n, horizon) unless
    it is None.  Returns (tally, kept).  Top-level so it pickles."""
    tally = EnsembleTally(g.n)
    rows = max(1, strategies.BLOCK_CELLS // (g.n * config.horizon))
    blocks = _draws(g, m, profile, config, indices, rows)
    for lo, (states, atoms, jitters) in zip(range(0, len(indices), rows),
                                            blocks):
        tie_log = TieLog()
        actions = profile.trace_batch(g, m, atoms, jitters, config.horizon,
                                      tie_log)
        tally.add_batch(states, actions, tie_log.count, config.tail_window)
        if kept is not None:
            kept[lo:lo + len(actions)] = actions
    return tally, kept


# a pool worker's (g, m, profile, config, keep_actions), set once per worker
# by the pool's initializer, so that each task carries only its indices
_worker_args = None


def _init_worker(*args):
    global _worker_args
    _worker_args = args


def _run_worker_chunk(indices):
    g, m, profile, config, keep_actions = _worker_args
    kept = np.empty((len(indices), g.n, config.horizon), dtype=np.uint8) \
        if keep_actions else None
    return _run_chunk(g, m, profile, config, indices, kept)


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

    The kept actions are allocated first, then a zero-row ``trace_batch``
    solves the profile to the horizon here, so a run too large to keep them
    (MemoryError) or over budget fails before any replicate or pool; pool
    workers get the solved profile (the myopic world table, the gossip
    rings) instead of each rebuilding it.  The pool's initializer hands
    each worker the profile once, so this process pickles one copy at a
    time and each task carries only its chunk's indices."""
    if workers < 1:
        raise ValueError("workers must be >= 1")
    R = config.replicates
    actions = np.empty((R, g.n, config.horizon), dtype=np.uint8) \
        if keep_actions else None
    profile.trace_batch(g, m, np.zeros((0, g.n), dtype=np.intp),
                        np.zeros((0, g.n)), config.horizon)
    k = min(workers, R, _usable_cpus())
    chunks = [range(i * R // k, (i + 1) * R // k) for i in range(k)]
    if k == 1:
        parts = [_run_chunk(g, m, profile, config, chunks[0], actions)]
    else:
        # imported here, so that a one-worker run never loads the pool
        # stack (logging, socket, subprocess and more)
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        # spawned, not forked: a forked child may inherit a lock held by
        # one of numpy's threads
        spawn = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(
                max_workers=k, mp_context=spawn, initializer=_init_worker,
                initargs=(g, m, profile, config, keep_actions)) as ex:
            parts = list(ex.map(_run_worker_chunk, chunks))
    tally = EnsembleTally(g.n)
    for chunk, (part, kept) in zip(chunks, parts):
        tally.merge(part)
        if kept is not actions:  # a pool worker's
            actions[chunk.start:chunk.stop] = kept
    return report_from_tally(tally, config, g.family_tag), actions


def write_trace_csv(path, actions, roles=None):
    """Write (replicate, agent, role, t, action) rows for the (R, n, horizon)
    ``actions``, row r as replicate r, agent-major within a replicate, as
    ``csv.writer`` would: CRLF line ends, roles quoted where needed.

    Each agent's ``agent,role`` is rendered by ``csv.writer``, so a role is
    quoted exactly as in a row written by it.  The rows after
    ``replicate,`` are rendered once, each with action 0.  Replicate r is
    then one ``join`` of them, each led by ``"\\r\\n{r},"``, and one encode
    in the file's own encoding, whose action digits are set in place
    through a uint8 view; the line end that these leading separators take
    from each row closes the file."""
    import csv
    import io
    R, n, horizon = np.shape(actions)
    buf = io.StringIO()
    w = csv.writer(buf)
    heads = []
    for i in range(n):
        buf.seek(0)
        buf.truncate()
        w.writerow([i, roles.get(i, "") if roles else ""])
        heads.append(buf.getvalue()[:-2])  # drop the "\r\n" terminator
    tails = [f",{t},0" for t in range(horizon)]
    # a leading "" puts the separator before the first row as well
    rows = [""] + [h + s for h in heads for s in tails]
    with open(path, "w", newline="") as f:
        # the bytes a text write would produce; the rows are ASCII after
        # their heads, and so is every separator
        encoding = f.encoding, f.errors
        out = f.buffer
        out.write("replicate,agent,role,t,action".encode(*encoding))
        # rows 0..k are each led by "\r\n{r},", so in replicate r the digit
        # that ends row k is byte digit[k] + len(f"{r},") * (k + 1)
        lengths = np.add.outer([len(h.encode(*encoding)) for h in heads],
                               [len(s) for s in tails]).ravel()
        digit = np.cumsum(lengths + 2) - 1
        step = np.arange(1, n * horizon + 1)
        for r, acts in enumerate(np.reshape(actions, (R, n * horizon))):
            sep = f"\r\n{r},"
            text = bytearray(sep.join(rows).encode(*encoding))
            np.frombuffer(text, dtype=np.uint8)[
                digit + (len(sep) - 2) * step] += acts
            out.write(text)
        out.write("\r\n".encode(*encoding))


def locality_coupling_test(g1, i1, g2, i2, r: int, profile1, profile2, m,
                           seed: int) -> bool:
    """Check the finite-speed-of-information property: when the radius-(r+1)
    balls around (g1, i1) and (g2, i2) are isomorphic, coupling the signals
    through the witness map makes the roots' actions agree for all t <= r.

    Returns True when every checked round matches; raises ValueError when
    the balls are not isomorphic.
    """
    from .topology import extract_ball, balls_isomorphic

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
