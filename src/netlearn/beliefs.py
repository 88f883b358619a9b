"""Posterior computation for repeated-action games under a known pure
strategy profile.

Every exact computation runs on one enumeration of the possible worlds: all
k^n joint atom assignments, with their masses under each state (``worlds``;
``DEFAULT_BUDGET`` bounds the world-agent cells k^n * n at 10^7, which
admits n <= 19 at k = 2).  One function, ``_seen``, decides which worlds a
belief sums over: it replays the profile in every world where the viewing
agent holds its atom, with one call of the profile's ``trace_batch`` (or,
for ``y_decomposition``, of the myopic profile's ``forced_trace``, with the
agent's observed actions forced), and keeps the worlds whose replay shows
the agent its observed neighbour rows.  Every belief function sums their
masses.  A malformed view, or a profile other than the myopic one where
only it will do, fails with a ValueError before any world is enumerated.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

DEFAULT_BUDGET = 10_000_000
TIE_TOL = 1e-12
# cells -- (row, agent, round), or (row, ring entry) -- that the temporaries
# of one block of replicate rows may hold; a block has at least one row
BLOCK_CELLS = 2 ** 16

__all__ = [
    "BudgetExceededError",
    "InconsistentHistoryError",
    "HistoryView",
    "BeliefState",
    "Profile",
    "YDecomposition",
    "TieBreaker",
    "TieLog",
    "best_response",
    "exact_posterior",
    "y_decomposition",
    "lookahead_certainty",
    "outcome_distribution",
    "simulate_actions",
    "history_of",
    "view_from_actions",
    "worlds",
]


class BudgetExceededError(RuntimeError):
    """Over the budget: a joint atom space too large for exact enumeration
    (fewer agents or atoms fit), or gossip rings with too many entries."""


class InconsistentHistoryError(ValueError):
    """The observed history has zero probability under the profile."""


@dataclass(frozen=True)
class HistoryView:
    """What agent ``agent`` knows at time ``t``: its own signal atom and the
    actions of its closed neighborhood in rounds [0, t), stored round-major
    in the canonical (sorted) neighbor order."""

    agent: int
    t: int
    atom: int
    observed: Tuple[tuple, ...]

    def __post_init__(self):
        if len(self.observed) != self.t:
            raise ValueError("observed history length must equal t")


@dataclass(frozen=True)
class BeliefState:
    """A posterior at time ``time`` and its log odds, the latter taken from
    the two states' masses, not from the rounded posterior."""

    posterior: float
    time: int
    log_odds: float


@dataclass(frozen=True)
class YDecomposition:
    y: float
    z0: float
    z: float


class TieLog:
    """Mutable tie-event counter threaded through trace generation."""

    def __init__(self):
        self.count = 0

    def add(self, k=1):
        self.count += k


@dataclass(frozen=True)
class TieBreaker:
    """The decision rule every profile plays by.  A margin -- a
    log-likelihood ratio, or a posterior minus 1/2 -- above TIE_TOL plays 1,
    below -TIE_TOL plays 0, and within TIE_TOL of 0 is a tie, counted and
    broken by the mode: 0, 1, or under ``jitter`` 1 exactly when the
    agent's jitter, a U[0, 1) draw that carries no information, lies below
    1/2.  The breaker is the only code that knows what a jitter is, how many
    draws it takes from a replicate row (``row_width``, ``jitters_of``)
    and how it breaks a tie."""

    mode: str = "zero"

    def __post_init__(self):
        if self.mode not in ("zero", "one", "jitter"):
            raise ValueError(f"unknown tie-breaker mode {self.mode!r}")

    def reject_jitter(self, name: str):
        """Refuse mode ``jitter`` for a profile whose decisions never see a
        jitter draw and so cannot honour it."""
        if self.mode == "jitter":
            raise ValueError(
                f"jitter tie-breaking is not supported by the {name} "
                "profile; use mode 'zero' or 'one'")

    def row_width(self, n: int) -> int:
        """U[0, 1) draws per replicate row of n agents: n for the atoms,
        then, under mode ``jitter`` only, one jitter per agent."""
        return 2 * n if self.mode == "jitter" else n

    def jitters_of(self, draws, n: int):
        """The (rows, n) jitters of rows of ``row_width(n)`` draws: the
        draws after the atoms' under mode ``jitter``; otherwise zeros."""
        if self.mode == "jitter":
            return draws[:, n:]
        return np.zeros((len(draws), n))

    def decide(self, margin, tie_log: Optional[TieLog] = None, jitters=0.0):
        """(uint8 actions, tie mask), both shaped like ``margin``, a float
        or an array; ``jitters`` broadcasts against it.  Ties are counted in
        ``tie_log``."""
        margin = np.asarray(margin)
        acts = np.array(margin > TIE_TOL, dtype=np.uint8)
        # |margin| <= TIE_TOL, without a float temporary the size of margin
        tied = (margin <= TIE_TOL) & (margin >= -TIE_TOL)
        n_tied = int(np.count_nonzero(tied))
        if n_tied:
            if self.mode == "jitter":
                acts[tied] = np.broadcast_to(np.asarray(jitters) < 0.5,
                                             margin.shape)[tied]
            else:
                acts[tied] = self.mode == "one"
            if tie_log is not None:
                tie_log.add(n_tied)
        return acts, tied


def best_response(belief, tie_breaker: TieBreaker = TieBreaker("zero"),
                  tie_log: Optional[TieLog] = None,
                  jitter: float = 0.0) -> int:
    """MAP action for a posterior, by the breaker's rule on the margin
    p - 1/2.  That difference is exact for every double p in [1/4, 1]
    (Sterbenz), so the rule thresholds p itself at 1/2 +- TIE_TOL; below
    1/4 it plays 0 with no tie either way."""
    p = belief.posterior if isinstance(belief, BeliefState) else float(belief)
    return int(tie_breaker.decide(p - 0.5, tie_log, jitter)[0])


# ---------------------------------------------------------------------------
# the generic per-agent loop

class Profile:
    """Base class of the pure strategy profiles.  Subclasses implement
    ``action`` and ``trace_batch(g, m, atoms, jitters, horizon, tie_log)``:
    the (R, n, horizon) uint8 actions of the rows of ``atoms`` and
    ``jitters`` (R, n), in one batched kernel, ties counted over the whole
    batch.  The myopic, gossip, royal-family and mad-king profiles answer
    ``trace_actions`` with a one-row batch; the generic per-agent loop
    below stays as the oracle they are tested against.
    ``tie_breaker`` is the rule a profile decides by; a trace draws its
    jitters from it."""

    tie_breaker = TieBreaker("zero")

    def action(self, agent: int, atom: int, history, tie_log=None) -> int:
        raise NotImplementedError

    def trace_actions(self, g, m, atoms, jitters, horizon: int,
                      tie_log=None) -> np.ndarray:
        """(n, horizon) uint8 action matrix for one joint atom draw.  Each
        agent's history grows by its newest closed-neighbourhood row once
        per round."""
        nbrs = [g.closed_nbrs(i) for i in range(g.n)]
        atoms = [int(a) for a in atoms]
        hists = [()] * g.n
        out = np.empty((g.n, horizon), dtype=np.uint8)
        for t in range(horizon):
            row = [self.action(i, atoms[i], hists[i], tie_log)
                   for i in range(g.n)]
            out[:, t] = row
            hists = [h + (tuple([row[j] for j in nb]),)
                     for h, nb in zip(hists, nbrs)]
        return out


def history_of(g, actions, i: int, t: int):
    """Round-major history tuple of agent i's closed neighborhood over
    [0, t); ``actions`` is round-major (list of per-agent tuples)."""
    nbrs = g.closed_nbrs(i)
    return tuple(tuple(actions[tau][j] for j in nbrs) for tau in range(t))


def simulate_actions(g, profile, atoms, horizon: int, tie_log=None):
    """Replay ``profile`` for ``horizon`` rounds given a full atom
    assignment, through the generic per-agent loop.  Returns the round-major
    action list."""
    acts = Profile.trace_actions(profile, g, None, atoms, None, horizon,
                                 tie_log)
    return [tuple(row) for row in acts.T.tolist()]


def view_from_actions(g, actions, atoms, agent: int, t: int) -> HistoryView:
    return HistoryView(agent, t, atoms[agent],
                       history_of(g, actions, agent, t))


# ---------------------------------------------------------------------------
# possible worlds

def worlds(m, n: int):
    """Every joint atom assignment ("world") of n agents, in mixed radix:
    column w of the (n, k^n) atom array holds agent i's atom as digit i of
    w, base k.  Returns (atoms, w0, w1), w_s being each world's mass under
    S = s.  ``DEFAULT_BUDGET``, read at the call, bounds the world-agent
    cells k^n * n and is checked before anything is allocated."""
    k = m.k
    cells = k ** n * n
    if cells > DEFAULT_BUDGET:
        raise BudgetExceededError(
            f"{k}^{n} worlds x {n} agents = {cells} world-agent cells "
            f"exceed the exact budget of {DEFAULT_BUDGET}; lower the number "
            "of agents or atoms")
    radix = k ** np.arange(n, dtype=np.int64)
    atoms = np.arange(k ** n)[None, :] // radix[:, None] % k
    return atoms, m.probs(0)[atoms].prod(axis=0), \
        m.probs(1)[atoms].prod(axis=0)


def _require_myopic(profile, name: str):
    from .strategies import MyopicExactProfile
    if not isinstance(profile, MyopicExactProfile):
        raise ValueError(f"{name} needs a MyopicExactProfile")


def _seen(g, m, profile, view: HistoryView, horizon: int,
          forced: bool = False):
    """The worlds a belief about ``view`` sums over.  First ``view`` must be
    a view of (g, m) -- an agent of g, an atom of m, and rows of 0/1
    actions, one per member of the agent's closed neighbourhood -- or a
    ValueError names the fault before any world is enumerated.  Then
    ``profile`` is replayed for ``horizon`` >= view.t rounds, with one
    ``trace_batch`` call, in the worlds where the agent holds the view's
    atom, and the worlds that show it the observed rows are kept.  With
    ``forced``, the replay is the myopic profile's ``forced_trace``, in
    which the agent plays its observed actions whatever its atom.  Returns
    the kept worlds' masses (w0, w1) under the two states and the (worlds,
    neighbours, horizon) rows the agent sees in them."""
    if not 0 <= view.agent < g.n:
        raise ValueError(f"view agent {view.agent} is not in 0..{g.n - 1}")
    if not 0 <= view.atom < m.k:
        raise ValueError(f"view atom {view.atom} is not in 0..{m.k - 1}")
    nbrs = list(g.closed_nbrs(view.agent))
    for tau, row in enumerate(view.observed):
        if len(row) != len(nbrs) or any(a not in (0, 1) for a in row):
            raise ValueError(
                f"observed row {tau} {row!r} is not {len(nbrs)} actions of "
                f"0 or 1, one per closed neighbour of agent {view.agent}")
    atoms, w0, w1 = worlds(m, g.n)
    own = np.flatnonzero(atoms[view.agent] == view.atom)
    rows = atoms[:, own].T
    if forced:
        me = nbrs.index(view.agent)
        acts = profile.forced_trace(rows, horizon, view.agent,
                                    [row[me] for row in view.observed])
    else:
        acts = profile.trace_batch(g, m, rows, np.zeros(rows.shape), horizon)
    seen = acts[:, nbrs]
    obs = np.array(view.observed, dtype=np.int64).reshape(view.t, len(nbrs))
    ok = (seen[:, :, :view.t] == obs.T).all(axis=(1, 2))
    keep = own[ok]
    return w0[keep], w1[keep], seen[ok]


def exact_posterior(g, m, profile, view: HistoryView) -> BeliefState:
    """P(S=1 | own signal, observed neighbor actions) over every world.

    Requires a pure (deterministic) profile.  The uniform prior on the state
    cancels in the ratio."""
    w0, w1, _ = _seen(g, m, profile, view, view.t)
    s0, s1 = w0.sum(), w1.sum()
    if s0 <= 0.0 or s1 <= 0.0:
        raise InconsistentHistoryError(
            "observed history has zero probability under this profile")
    return BeliefState(float(s1 / (s0 + s1)), view.t,
                       math.log(s1) - math.log(s0))


def y_decomposition(g, m, profile, view: HistoryView) -> YDecomposition:
    """Split the posterior log-odds into the history term Y and the private
    term Z_0; Z is ``exact_posterior``'s log odds, and the identity
    Z = Y + Z_0 holds to 1e-9 on the exact engine, however close the
    posterior lies to 0 or 1.  ``profile`` must be a ``MyopicExactProfile``.

    Y comes from its own replay, the profile's ``forced_trace``, in which
    the viewing agent plays its observed actions whatever its atom: the log
    ratio of the two states' masses of the matching worlds, the agent's own
    atom mass divided out."""
    _require_myopic(profile, "y_decomposition")
    z = exact_posterior(g, m, profile, view).log_odds
    z0 = m.atoms[view.atom].z
    if view.t == 0:
        return YDecomposition(0.0, z0, z)
    w0, w1, _ = _seen(g, m, profile, view, view.t, forced=True)
    s0 = w0.sum() / m.atom_prob(view.atom, 0)
    s1 = w1.sum() / m.atom_prob(view.atom, 1)
    if s0 <= 0.0 or s1 <= 0.0:
        raise InconsistentHistoryError(
            "history carries zero mass under one of the states")
    return YDecomposition(math.log(s1 / s0), z0, z)


def outcome_distribution(g, m, profile, view: HistoryView):
    """Distribution of the next observable neighbor-action row given the
    view.  Returns a list of (row, probability, extended_view)."""
    w0, w1, seen = _seen(g, m, profile, view, view.t + 1)
    rows, which = np.unique(seen[:, :, view.t], axis=0, return_inverse=True)
    masses = np.bincount(which, weights=w0 + w1, minlength=len(rows))
    total = masses.sum()
    if total <= 0.0:
        raise InconsistentHistoryError("view has zero mass")
    out = []
    for row, w in zip(map(tuple, rows.tolist()), masses):
        ext = HistoryView(view.agent, view.t + 1, view.atom,
                          view.observed + (row,))
        out.append((row, float(w / total), ext))
    return out


def lookahead_certainty(g, m, profile, view: HistoryView, ell_max: int = 3):
    """Expected posterior certainty (|P(S=1|F) - 1/2|) ell rounds ahead,
    when the viewing agent plays myopically from the view's time onward.
    Returns a tuple of length ell_max + 1; the sequence is nondecreasing
    (submartingale property, checked in tests).

    ``profile`` must be a ``MyopicExactProfile``: a one-agent myopic deviation
    from myopic play is that play, with the profile's own tie breaker.

    The worlds consistent with the view are grouped by the rows the agent
    sees through round t + ell; a group with masses (s0, s1) contributes
    (s0 + s1) * |s1 / (s0 + s1) - 1/2| = |s1 - s0| / 2."""
    _require_myopic(profile, "lookahead_certainty")
    if ell_max < 0:
        raise ValueError(f"ell_max must be >= 0, got {ell_max}")
    w0, w1, seen = _seen(g, m, profile, view, view.t + ell_max)
    norm = (w0 + w1).sum()
    if norm <= 0.0:
        raise InconsistentHistoryError("view has zero mass")
    out = []
    for ell in range(ell_max + 1):
        hist = seen[:, :, :view.t + ell].reshape(len(seen), -1)
        group = np.unique(hist, axis=0, return_inverse=True)[1]
        gap = np.bincount(group, weights=w1) - np.bincount(group, weights=w0)
        out.append(float(np.abs(gap).sum() / (2.0 * norm)))
    return tuple(out)
