"""Posterior computation for repeated-action games under a known pure
strategy profile.

Every exact computation runs on one enumeration of the possible worlds: all
k^n joint atom assignments, with their masses under each state
(``strategies.worlds``, within ``strategies.DEFAULT_BUDGET``), made once
per belief call, ``y_decomposition``'s two replays included.  One function, ``_seen``, decides which worlds a
belief sums over: it replays the profile in every world where the viewing
agent holds its atom, with one call of the profile's ``trace_batch`` (or,
for ``y_decomposition``, of the myopic profile's ``forced_trace``, with the
agent's observed actions forced), and keeps the worlds whose replay shows
the agent its observed neighbour rows.  Every belief function sums their
masses.  A malformed view, a profile in tie mode ``jitter`` (the replay
draws no jitters) or one other than the myopic one where only it will do
fails with a ValueError before any world is enumerated.
"""
from __future__ import annotations

import math
from typing import NamedTuple, Optional

import numpy as np

from . import strategies
# re-exported: the decision core's names that readers of beliefs use
from .strategies import TIE_TOL, TieBreaker, TieLog  # noqa: F401

__all__ = [
    "InconsistentHistoryError",
    "HistoryView",
    "BeliefState",
    "YDecomposition",
    "best_response",
    "exact_posterior",
    "y_decomposition",
    "lookahead_certainty",
    "outcome_distribution",
    "simulate_actions",
    "history_of",
    "view_from_actions",
    "myopic_condition_check",
]


class InconsistentHistoryError(ValueError):
    """The observed history has zero probability under the profile."""


class HistoryView(NamedTuple("HistoryView", [
        ("agent", int), ("t", int), ("atom", int), ("observed", tuple)])):
    """What agent ``agent`` knows at time ``t``: its own signal atom and the
    actions of its closed neighborhood in rounds [0, t), stored round-major
    in the canonical (sorted) neighbor order.  ``__new__`` checks the
    history's length; a view equals the plain tuple of its fields."""

    __slots__ = ()

    def __new__(cls, agent: int, t: int, atom: int, observed: tuple):
        if len(observed) != t:
            raise ValueError("observed history length must equal t")
        return super().__new__(cls, agent, t, atom, observed)


class BeliefState(NamedTuple):
    """A posterior at time ``time`` and its log odds, the latter taken from
    the two states' masses, not from the rounded posterior."""

    posterior: float
    time: int
    log_odds: float


class YDecomposition(NamedTuple):
    y: float
    z0: float
    z: float


def best_response(belief, tie_breaker: TieBreaker = TieBreaker("zero"),
                  tie_log: Optional[TieLog] = None,
                  jitter: float = 0.0) -> int:
    """MAP action for a posterior, by the breaker's rule on the margin
    p - 1/2.  That difference is exact for every double p in [1/4, 1]
    (Sterbenz), so the rule thresholds p itself at 1/2 +- TIE_TOL; below
    1/4 it plays 0 with no tie either way."""
    p = belief.posterior if isinstance(belief, BeliefState) else float(belief)
    return int(tie_breaker.decide(p - 0.5, tie_log, jitter)[0])


def history_of(g, actions, i: int, t: int):
    """Round-major history tuple of agent i's closed neighborhood over
    [0, t); ``actions`` is round-major (list of per-agent tuples)."""
    nbrs = g.closed_nbrs(i)
    return tuple(tuple(actions[tau][j] for j in nbrs) for tau in range(t))


def simulate_actions(g, profile, atoms, horizon: int, tie_log=None):
    """Replay ``profile`` for ``horizon`` rounds given a full atom
    assignment, through the generic per-agent loop.  Returns the round-major
    action list."""
    acts = strategies.Profile.trace_actions(profile, g, None, atoms, None,
                                            horizon, tie_log)
    return [tuple(row) for row in acts.T.tolist()]


def view_from_actions(g, actions, atoms, agent: int, t: int) -> HistoryView:
    return HistoryView(agent, t, atoms[agent],
                       history_of(g, actions, agent, t))


def _require_myopic(profile, name: str):
    if not isinstance(profile, strategies.MyopicExactProfile):
        raise ValueError(f"{name} needs a MyopicExactProfile")


def _worlds_of(g, m, profile, view: HistoryView):
    """The worlds where the viewing agent holds its atom: their (worlds, n)
    atoms and their masses (w0, w1) under the two states, of one
    ``worlds(m, g.n)``.  First ``view`` must be a view of (g, m) -- an agent
    of g, an atom of m, and rows of 0/1 actions, one per member of the
    agent's closed neighbourhood -- and ``profile`` must not break ties by
    jitter, or a ValueError names the fault before any world is
    enumerated."""
    if not 0 <= view.agent < g.n:
        raise ValueError(f"view agent {view.agent} is not in 0..{g.n - 1}")
    if not 0 <= view.atom < m.k:
        raise ValueError(f"view atom {view.atom} is not in 0..{m.k - 1}")
    width = len(g.closed_nbrs(view.agent))
    for tau, row in enumerate(view.observed):
        if len(row) != width or any(a not in (0, 1) for a in row):
            raise ValueError(
                f"observed row {tau} {row!r} is not {width} actions of "
                f"0 or 1, one per closed neighbour of agent {view.agent}")
    profile.tie_breaker.reject_jitter("exact beliefs, which draw no jitters")
    atoms, w0, w1 = strategies.worlds(m, g.n)
    own = np.flatnonzero(atoms[view.agent] == view.atom)
    return atoms[:, own].T, w0[own], w1[own]


def _seen(g, m, profile, view: HistoryView, horizon: int,
          forced: bool = False, table=None):
    """The worlds a belief about ``view`` sums over, of ``table``, the
    view's ``_worlds_of`` (found here when None).  ``profile`` is replayed
    in them for ``horizon`` >= view.t rounds, with one ``trace_batch``
    call, and the worlds that show the agent the observed rows are kept.
    With ``forced``, the replay is the myopic profile's ``forced_trace``,
    in which the agent plays its observed actions whatever its atom.
    Returns the kept worlds' masses (w0, w1) under the two states and the
    (worlds, neighbours, horizon) rows the agent sees in them."""
    if table is None:
        table = _worlds_of(g, m, profile, view)
    rows, w0, w1 = table
    nbrs = list(g.closed_nbrs(view.agent))
    if forced:
        me = nbrs.index(view.agent)
        acts = profile.forced_trace(rows, horizon, view.agent,
                                    [row[me] for row in view.observed])
    else:
        acts = profile.trace_batch(g, m, rows, np.zeros(rows.shape), horizon)
    seen = acts[:, nbrs]
    obs = np.array(view.observed, dtype=np.int64).reshape(view.t, len(nbrs))
    ok = (seen[:, :, :view.t] == obs.T).all(axis=(1, 2))
    return w0[ok], w1[ok], seen[ok]


def _belief(w0, w1, t: int) -> BeliefState:
    """The posterior at time ``t`` of the kept worlds' masses."""
    s0, s1 = w0.sum(), w1.sum()
    if s0 <= 0.0 or s1 <= 0.0:
        raise InconsistentHistoryError(
            "observed history has zero probability under this profile")
    return BeliefState(float(s1 / (s0 + s1)), t, math.log(s1) - math.log(s0))


def exact_posterior(g, m, profile, view: HistoryView) -> BeliefState:
    """P(S=1 | own signal, observed neighbor actions) over every world.

    Requires a pure (deterministic) profile.  The uniform prior on the state
    cancels in the ratio."""
    w0, w1, _ = _seen(g, m, profile, view, view.t)
    return _belief(w0, w1, view.t)


def y_decomposition(g, m, profile, view: HistoryView) -> YDecomposition:
    """Split the posterior log-odds into the history term Y and the private
    term Z_0; Z is ``exact_posterior``'s log odds, and the identity
    Z = Y + Z_0 holds to 1e-9 on the exact engine, however close the
    posterior lies to 0 or 1.  ``profile`` must be a ``MyopicExactProfile``.

    Y comes from its own replay, the profile's ``forced_trace``, in which
    the viewing agent plays its observed actions whatever its atom: the log
    ratio of the two states' masses of the matching worlds, the agent's own
    atom mass divided out.  Both replays read one enumeration of the
    worlds."""
    _require_myopic(profile, "y_decomposition")
    table = _worlds_of(g, m, profile, view)
    w0, w1, _ = _seen(g, m, profile, view, view.t, table=table)
    z = _belief(w0, w1, view.t).log_odds
    z0 = m.atoms[view.atom].z
    if view.t == 0:
        return YDecomposition(0.0, z0, z)
    w0, w1, _ = _seen(g, m, profile, view, view.t, forced=True,
                      table=table)
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


def myopic_condition_check(y_values, lam: float):
    """Evaluate the four lookahead deviation conditions B_1..B_4 from a
    nondecreasing certainty sequence (Y_0, Y_1, Y_2, Y_3).

    B_ell (ell = 1, 2, 3):  2*Y_0 > lam**2 * (1/2 - Y_{ell-1}) / (1 - lam)
    B_4:                    2*Y_0 > lam**2 * (1/2 - Y_2)
                                     + lam**3 * (1/2 - Y_3) / (1 - lam)

    Returns {"B1": bool, ..., "B4": bool}.  For nondecreasing Y the sets are
    nested: B1 implies B2 implies B3 implies B4.
    """
    if not (0.0 < lam < 1.0):
        raise ValueError("lam must lie in (0, 1)")
    y = [float(v) for v in y_values]
    if len(y) < 4:
        raise ValueError("need Y_0..Y_3")
    for v in y:
        if not (-1e-9 <= v <= 0.5 + 1e-9):
            raise ValueError("certainty values must lie in [0, 1/2]")
    lhs = 2.0 * y[0]
    bound = [lam ** 2 * (0.5 - v) / (1.0 - lam) for v in y[:3]]
    # B_4's bound is B_3's minus lam**3 (Y_3 - Y_2) / (1 - lam): B3 => B4
    bound.append(bound[2] - lam ** 3 * (y[3] - y[2]) / (1.0 - lam))
    return {f"B{ell}": lhs > b for ell, b in enumerate(bound, 1)}
