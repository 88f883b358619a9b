"""Posterior computation for repeated-action games under a known pure
strategy profile.

Every exact computation runs on one enumeration of the possible worlds: all
k^n joint atom assignments, with their masses under each state (``worlds``;
``DEFAULT_BUDGET`` bounds the world-agent cells k^n * n at 10^7, which
admits n <= 19 at k = 2).  A belief function replays the profile in every
world where the viewing agent holds its atom, with one call of the profile's
``trace_batch``, keeps the worlds whose replay shows the agent its observed
neighbour rows, and sums their masses; ``y_decomposition`` replays them
through the myopic profile's ``forced_trace`` instead, with the agent's
observed actions forced.  The Monte Carlo engine replays sampled worlds
through the same filter.  A malformed view, or a profile other than the
myopic one where only it will do, fails with a ValueError before any world
is enumerated.
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
    "DegenerateEstimateError",
    "HistoryView",
    "BeliefState",
    "Profile",
    "YDecomposition",
    "TieBreaker",
    "TieLog",
    "best_response",
    "exact_posterior",
    "mc_posterior",
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
    (use mc_posterior), or gossip rings with too many entries."""


class InconsistentHistoryError(ValueError):
    """The observed history has zero probability under the profile."""


class DegenerateEstimateError(RuntimeError):
    """Every Monte Carlo particle was inconsistent with the history."""


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
    posterior: float
    time: int
    stderr: Optional[float] = None

    @property
    def log_odds(self) -> float:
        return math.log(self.posterior / (1.0 - self.posterior))


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
            f"exceed the exact budget of {DEFAULT_BUDGET}; use mc_posterior "
            "instead")
    radix = k ** np.arange(n, dtype=np.int64)
    atoms = np.arange(k ** n)[None, :] // radix[:, None] % k
    return atoms, m.probs(0)[atoms].prod(axis=0), \
        m.probs(1)[atoms].prod(axis=0)


def _check_view(g, m, view: HistoryView):
    """Raise ValueError, naming the fault, unless ``view`` is a view of
    (g, m): an agent of g, an atom of m, and rows of 0/1 actions, one per
    member of the agent's closed neighbourhood."""
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


def _require_myopic(profile, name: str):
    from .strategies import MyopicExactProfile
    if not isinstance(profile, MyopicExactProfile):
        raise ValueError(f"{name} needs a MyopicExactProfile")


def _seen(g, m, profile, view: HistoryView, atoms, horizon: int,
          forced: bool = False):
    """Replay ``profile`` for ``horizon`` >= view.t rounds, with one
    ``trace_batch`` call, in the worlds (columns of ``atoms``) where the
    viewing agent holds the view's atom, and keep those that show it the
    observed closed-neighbourhood rows.  With ``forced``, the replay is the
    myopic profile's ``forced_trace``, in which the agent plays its observed
    actions whatever its atom.  Returns (kept columns, the (worlds,
    neighbours, horizon) rows the agent sees in them)."""
    own = np.flatnonzero(atoms[view.agent] == view.atom)
    nbrs = list(g.closed_nbrs(view.agent))
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
    return own[ok], seen[ok]


def exact_posterior(g, m, profile, view: HistoryView) -> BeliefState:
    """P(S=1 | own signal, observed neighbor actions) over every world.

    Requires a pure (deterministic) profile.  The uniform prior on the state
    cancels in the ratio."""
    _check_view(g, m, view)
    atoms, w0, w1 = worlds(m, g.n)
    keep, _ = _seen(g, m, profile, view, atoms, view.t)
    s0, s1 = w0[keep].sum(), w1[keep].sum()
    if s0 + s1 <= 0.0:
        raise InconsistentHistoryError(
            "observed history has zero probability under this profile")
    return BeliefState(float(s1 / (s0 + s1)), view.t)


def mc_posterior(g, m, profile, view: HistoryView, particles: int,
                 rng) -> BeliefState:
    """Likelihood-weighting estimate of the exact posterior.

    For each state, ``particles`` joint assignments are drawn from the
    conditional signal law (own atom clamped); the weight of a particle is
    the indicator that the replayed history matches the observation.
    """
    if particles < 1:
        raise ValueError("particles must be >= 1")
    _check_view(g, m, view)
    others = [j for j in range(g.n) if j != view.agent]
    own = (m.atom_prob(view.atom, 0), m.atom_prob(view.atom, 1))
    hits = []
    for s in (0, 1):
        atoms = np.full((g.n, particles), view.atom)
        if others:
            atoms[others] = m.sample_atoms(
                rng, particles * len(others), s).reshape(particles, -1).T
        hits.append(len(_seen(g, m, profile, view, atoms, view.t)[0]))
    if hits[0] == 0 and hits[1] == 0:
        raise DegenerateEstimateError(
            "all particles inconsistent with the observed history")
    # masses m_s = P(own atom | s) * empirical consistency rate
    rate = [hits[s] / particles for s in (0, 1)]
    m0 = own[0] * rate[0]
    m1 = own[1] * rate[1]
    post = m1 / (m0 + m1)
    # delta-method standard error with an Agresti-style variance floor so a
    # zero observed variance never reports false certainty
    var = []
    for s in (0, 1):
        r = (hits[s] + 0.5) / (particles + 1.0)
        var.append(r * (1.0 - r) / particles)
    d1 = own[1] * m0 / (m0 + m1) ** 2
    d0 = own[0] * m1 / (m0 + m1) ** 2
    se = math.sqrt((d1 ** 2) * var[1] + (d0 ** 2) * var[0])
    return BeliefState(post, view.t, stderr=se)


def y_decomposition(g, m, profile, view: HistoryView) -> YDecomposition:
    """Split the posterior log-odds into the history term Y and the private
    term Z_0; the identity Z = Y + Z_0 holds to 1e-9 on the exact engine.
    ``profile`` must be a ``MyopicExactProfile``.

    Y comes from its own replay, the profile's ``forced_trace``, in which
    the viewing agent plays its observed actions whatever its atom: the log
    ratio of the two states' masses of the matching worlds, the agent's own
    atom mass divided out."""
    _require_myopic(profile, "y_decomposition")
    z = exact_posterior(g, m, profile, view).log_odds
    z0 = m.atoms[view.atom].z
    if view.t == 0:
        return YDecomposition(0.0, z0, z)
    atoms, w0, w1 = worlds(m, g.n)
    keep, _ = _seen(g, m, profile, view, atoms, view.t, forced=True)
    s0 = w0[keep].sum() / m.atom_prob(view.atom, 0)
    s1 = w1[keep].sum() / m.atom_prob(view.atom, 1)
    if s0 <= 0.0 or s1 <= 0.0:
        raise InconsistentHistoryError(
            "history carries zero mass under one of the states")
    return YDecomposition(math.log(s1 / s0), z0, z)


def outcome_distribution(g, m, profile, view: HistoryView):
    """Distribution of the next observable neighbor-action row given the
    view.  Returns a list of (row, probability, extended_view)."""
    _check_view(g, m, view)
    atoms, w0, w1 = worlds(m, g.n)
    keep, seen = _seen(g, m, profile, view, atoms, view.t + 1)
    rows, which = np.unique(seen[:, :, view.t], axis=0, return_inverse=True)
    masses = np.bincount(which, weights=w0[keep] + w1[keep],
                         minlength=len(rows))
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
    _check_view(g, m, view)
    atoms, w0, w1 = worlds(m, g.n)
    keep, seen = _seen(g, m, profile, view, atoms, view.t + ell_max)
    w0, w1 = w0[keep], w1[keep]
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
