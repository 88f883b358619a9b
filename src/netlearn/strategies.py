"""Pure strategy profiles for the repeated-action game.

A profile maps (agent, own atom, observed neighbor history) to an action in
{0, 1}.  Histories are round-major tuples over the agent's closed
neighborhood in sorted vertex order (the agent itself included).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from . import beliefs
from .beliefs import TieBreaker

__all__ = [
    "Profile",
    "MyopicExactProfile",
    "GossipProfile",
    "ForcedResponse",
    "ForcedOverlayProfile",
    "RoyalFamilyProfile",
    "MadKingRoles",
    "MadKingProfile",
    "myopic_condition_check",
    "make_profile",
    "mad_king_roles_of",
]


class Profile:
    """Base class.  Subclasses implement ``action``; ``trace_actions`` has a
    generic loop implementation that fast profiles override."""

    def action(self, agent: int, atom: int, history, tie_log=None) -> int:
        raise NotImplementedError

    def trace_actions(self, g, m, atoms, jitters, horizon: int,
                      tie_log=None) -> np.ndarray:
        """(n, horizon) uint8 action matrix for one joint atom draw."""
        actions = []
        for t in range(horizon):
            row = tuple(
                self.action(i, int(atoms[i]),
                            beliefs.history_of(g, actions, i, t), tie_log)
                for i in range(g.n))
            actions.append(row)
        return np.array(actions, dtype=np.uint8).T


class MyopicExactProfile(Profile):
    """Every agent best-responds to its exact posterior each round, assuming
    all agents do the same.

    Play is solved for every possible world at once.  The k^n joint atom
    assignments ("worlds") are enumerated once, in mixed radix (agent i's
    atom is digit i, base k).  Each (world, agent) pair carries an
    information class: the worlds the agent cannot tell apart given its own
    atom and the closed-neighbourhood actions seen so far, i.e. the atom of
    the sigma-algebra F_i(t) holding that world.  A class's posterior is the
    ratio of its summed world masses under the two states; after each round
    every class splits by the action row the agent observed.  Rounds are
    solved lazily, up to the largest horizon asked for.

    The budget bounds the world-agent cells k^n * n; it is checked before
    any world array is allocated.  Only deterministic tie modes are
    supported: one world's response cannot depend on a jitter draw.
    """

    def __init__(self, g, m, tie_breaker: TieBreaker = TieBreaker("zero"),
                 budget: int = beliefs.DEFAULT_BUDGET):
        if tie_breaker.mode == "jitter":
            raise ValueError(
                "jitter tie-breaking is not supported by the exact myopic "
                "profile; use mode 'zero' or 'one'")
        self.g = g
        self.m = m
        self.tie_breaker = tie_breaker
        self.budget = budget
        self._cls = None     # (n, worlds) class ids at the newest round
        self._acts = []      # per round: (n, worlds) uint8 actions
        self._ties = []      # per round: (worlds,) tied agents per world
        self._play = []      # per round, per agent: (action, tied) by class
        self._split = []     # per round, per agent: sorted (class, row) keys

    def _start(self):
        n, k = self.g.n, self.m.k
        cells = k ** n * n
        if cells > self.budget:
            raise beliefs.BudgetExceededError(
                f"{k}^{n} worlds x {n} agents = {cells} world-agent cells "
                f"exceed the exact myopic budget of {self.budget}")
        self._radix = k ** np.arange(n, dtype=np.int64)
        # a world's initial class for agent i is agent i's own atom
        self._cls = np.arange(k ** n)[None, :] // self._radix[:, None] % k
        self._w0 = self.m.probs(0)[self._cls].prod(axis=0)
        self._w1 = self.m.probs(1)[self._cls].prod(axis=0)
        self._nbrs = [self.g.closed_nbrs(i) for i in range(n)]

    def _refine(self):
        """Split every class by the closed-neighbourhood row of the newest
        round."""
        acts = self._acts[-1]
        keys = []
        for i, nbrs in enumerate(self._nbrs):
            code = np.zeros(acts.shape[1], dtype=np.int64)
            for j, v in enumerate(nbrs):
                code |= acts[v].astype(np.int64) << j
            uniq, self._cls[i] = np.unique(
                (self._cls[i] << len(nbrs)) | code, return_inverse=True)
            keys.append(uniq)
        self._split.append(keys)

    def _extend(self, rounds: int):
        if self._cls is None:
            self._start()
        while len(self._acts) < rounds:
            if self._acts:
                self._refine()
            acts = np.empty_like(self._cls, dtype=np.uint8)
            ties = np.zeros(acts.shape[1], dtype=np.int32)
            play = []
            for i, cls in enumerate(self._cls):
                s0 = np.bincount(cls, weights=self._w0)
                s1 = np.bincount(cls, weights=self._w1)
                post = s1 / (s0 + s1)
                act = (post > 0.5 + beliefs.TIE_TOL).astype(np.uint8)
                tied = (act == 0) & (post >= 0.5 - beliefs.TIE_TOL)
                act[tied] = self.tie_breaker.resolve()
                acts[i] = act[cls]
                ties += tied[cls]
                play.append((act, tied))
            self._acts.append(acts)
            self._ties.append(ties)
            self._play.append(play)

    def action(self, agent, atom, history, tie_log=None):
        t = len(history)
        self._extend(t + 1)
        width = len(self._nbrs[agent])
        cls = int(atom)
        for tau, row in enumerate(history):
            key = cls << width
            for j, a in enumerate(row):
                if a == 1:
                    key |= 1 << j
                elif a != 0:
                    return 0  # not an action: off-path, as below
            keys = self._split[tau][agent]
            cls = int(keys.searchsorted(key))
            if len(row) != width or cls == len(keys) or keys[cls] != key:
                # zero-probability (off-path) history: the posterior is
                # undefined, so complete the profile with a fixed default;
                # such branches are filtered out by any outer consistency
                # check against realizable observations
                return 0
        act, tied = self._play[t][agent]
        if tied[cls] and tie_log is not None:
            tie_log.add()
        return int(act[cls])

    def trace_actions(self, g, m, atoms, jitters, horizon, tie_log=None):
        self._extend(horizon)
        w = int(np.asarray(atoms, dtype=np.int64) @ self._radix)
        if tie_log is not None:
            tie_log.add(sum(int(t[w]) for t in self._ties[:horizon]))
        return np.stack([a[:, w] for a in self._acts[:horizon]], axis=1)


def _decide_signs(vals, tie_acts, tie_log=None):
    """Sign of each value, with |value| <= TIE_TOL a tie: a tie takes its
    entry of ``tie_acts`` (a scalar or an array shaped like ``vals``) and is
    counted in ``tie_log``."""
    acts = (vals > beliefs.TIE_TOL).astype(np.uint8)
    tie = np.abs(vals) <= beliefs.TIE_TOL
    n_tie = int(np.count_nonzero(tie))
    if n_tie:
        acts[tie] = tie_acts[tie] if isinstance(tie_acts, np.ndarray) \
            else tie_acts
        if tie_log is not None:
            tie_log.add(n_tie)
    return acts


class GossipProfile(Profile):
    """Information-pooling dynamic for two-atom sign models: agent i's action
    at round t is the sign of the summed log-likelihood ratios of every agent
    within graph distance t of i.

    This coincides with myopic play at rounds 0 and 1 (round-0 actions reveal
    the atoms of the in-neighborhood exactly), and from round 2 on is an
    idealization in which log-likelihood ratios propagate along edges one hop
    per round.  It is *not* measurable with respect to the observed action
    history in general, so only ``trace_actions`` is provided.
    """

    def __init__(self, tie_breaker: TieBreaker = TieBreaker("zero"),
                 jitter_width: float = 0.0):
        self.tie_breaker = tie_breaker
        self.jitter_width = jitter_width
        self._reach_cache = {}

    def action(self, agent, atom, history, tie_log=None):
        raise NotImplementedError(
            "the gossip profile is defined at the trace level only; "
            "use trace_actions")

    def _reach_masks(self, g, horizon):
        key = (g.n, g.edges, horizon)
        masks = self._reach_cache.get(key)
        if masks is None:
            from .graphs import all_pairs_distances
            dist = np.array(all_pairs_distances(g))
            # row i of mask t marks the agents within observation distance t
            # of i (dist[i][j] = length of the shortest path i -> j)
            masks = [
                ((dist >= 0) & (dist <= t)).astype(np.float64)
                for t in range(horizon)
            ]
            self._reach_cache[key] = masks
        return masks

    def trace_actions(self, g, m, atoms, jitters, horizon, tie_log=None):
        z = np.asarray(m.z_values)[np.asarray(atoms)]
        masks = self._reach_masks(g, horizon)
        if self.tie_breaker.mode == "jitter":
            jw = self.jitter_width
            tie_acts = (jw > 0) & (np.asarray(jitters) < jw / 2.0)
        else:
            tie_acts = self.tie_breaker.resolve()
        out = np.empty((g.n, horizon), dtype=np.uint8)
        for t in range(horizon):
            out[:, t] = _decide_signs(masks[t] @ z, tie_acts, tie_log)
        return out


@dataclass(frozen=True)
class ForcedResponse:
    """A table of forced moves.

    ``moves`` maps (agent, time) -> action and applies to every history at
    that time.  For the table to describe a well-defined pure profile
    restriction, forcing an agent at time t > 0 requires its moves at all
    earlier times to be forced too (history-closure); the constructor
    enforces this.
    """

    moves: Tuple[Tuple[int, int, int], ...]

    def __post_init__(self):
        seen = {}
        for agent, t, act in self.moves:
            if act not in (0, 1):
                raise ValueError("forced actions must be 0 or 1")
            key = (agent, t)
            if key in seen and seen[key] != act:
                raise ValueError(f"conflicting forced moves for {key}")
            seen[key] = act
        for agent, t, _ in self.moves:
            for tau in range(t):
                if (agent, tau) not in seen:
                    raise ValueError(
                        f"forcing agent {agent} at time {t} requires a "
                        f"forced move at time {tau} as well")
        object.__setattr__(self, "_table", seen)

    def lookup(self, agent: int, t: int) -> Optional[int]:
        return self._table.get((agent, t))


class ForcedOverlayProfile(Profile):
    """Play the forced move where one is defined, else defer to a base
    profile."""

    def __init__(self, forced: ForcedResponse, base: Profile):
        self.forced = forced
        self.base = base

    def action(self, agent, atom, history, tie_log=None):
        f = self.forced.lookup(agent, len(history))
        if f is not None:
            return f
        return self.base.action(agent, atom, history, tie_log)


class RoyalFamilyProfile(Profile):
    """Equilibrium-style play on the royal-family graphs: myopic at rounds 0
    and 1 (round 1 sums the decoded neighborhood log-likelihood ratios), then
    every agent repeats its own round-1 action forever.

    The freeze is history-measurable and captures the herding outcome: after
    round 1 the royal clique is unanimous and no later observation flips it.
    """

    def __init__(self, g, m, tie_breaker: TieBreaker = TieBreaker("zero")):
        if g.family_tag != "royal_family":
            raise ValueError("RoyalFamilyProfile requires a royal_family graph")
        self.g = g
        self.m = m
        self.tie_breaker = tie_breaker
        self._z = np.asarray(m.z_values)
        self._sign_z = self._z[list(m.sign_atoms())]  # (negative, positive)

    def action(self, agent, atom, history, tie_log=None):
        t = len(history)
        nbrs = self.g.closed_nbrs(agent)
        if t == 0:
            val = self._z[atom]
        elif t == 1:
            # round-0 actions of a two-atom sign model reveal each
            # neighbor's atom: sum the decoded log-likelihood ratios
            val = sum(self._sign_z[int(a == 1)] for a in history[0])
        else:
            self_pos = nbrs.index(agent)
            return history[-1][self_pos]
        if abs(val) <= beliefs.TIE_TOL:
            if tie_log is not None:
                tie_log.add()
            return self.tie_breaker.resolve()
        return 1 if val > 0 else 0

    def trace_actions(self, g, m, atoms, jitters, horizon, tie_log=None):
        tie_act = self.tie_breaker.resolve()
        out = np.empty((g.n, horizon), dtype=np.uint8)
        out[:, 0] = _decide_signs(self._z[np.asarray(atoms)], tie_act,
                                  tie_log)
        if horizon >= 2:
            decoded = self._sign_z[out[:, 0]]
            out[:, 1:] = _decide_signs(self._nbr_matrix(g) @ decoded,
                                       tie_act, tie_log)[:, None]
        return out

    _nbr_cache = {}

    @classmethod
    def _nbr_matrix(cls, g):
        key = (g.n, g.edges)
        mat = cls._nbr_cache.get(key)
        if mat is None:
            mat = np.zeros((g.n, g.n))
            for i in range(g.n):
                mat[i, list(g.closed_nbrs(i))] = 1.0
            cls._nbr_cache[key] = mat
        return mat


@dataclass(frozen=True)
class MadKingRoles:
    king: int
    regent: int
    court: Tuple[int, ...]
    bureaucracy: Tuple[int, ...]
    people: Tuple[int, ...]


class MadKingProfile(Profile):
    """Scripted profile on the mad-king graphs.

    Role rules:
      * the regent plays its private sign at round 0 and from round 1 the
        sign of Z_1 = own + king's decoded + the summed bureaucracy decoded
        log-likelihood ratios (exact counting myopic play; when
        |Z_1| >= ln((1-eps)/eps) with eps = exp(-delta * |bureaucracy|) the
        regent is *locked*: its belief is pinned regardless of anything it
        sees later);
      * the king plays its private sign at round 0 and a counting response
        over the decoded regent and court atoms at round 1 -- unless any
        person played 1 at round 0 or 1, in which case the king plays 1
        forever from round 1 on (the rage rule); from round 2 it imitates
        the regent's previous action while the regent's run from round 1 is
        unbroken, reverting to its static counting response otherwise;
      * bureaucrats play their private sign at round 0 and the sign of
        their own plus the regent's decoded ratio at round 1; from round 2
        they imitate the regent in the same until-deviation sense;
      * court members play their private sign at round 0, the sign of their
        own plus the decoded king ratio at round 1, and from round 2 copy
        the king's previous action;
      * the people play 0 at rounds 0 and 1 and copy the king's previous
        action from round 2 on.  (The king's switch from counting play to
        regent-imitation between rounds 1 and 2 is on-path, so the
        followers imitate unconditionally; only the regent-watchers carry
        the until-deviation fallback.)

    Round-0 actions of any counting player reveal its atom exactly, which is
    what makes the decoded ratios exact posteriors rather than heuristics.
    """

    def __init__(self, g, m, roles: MadKingRoles, delta: float, lam: float,
                 tie_breaker: TieBreaker = TieBreaker("zero")):
        if g.family_tag != "mad_king":
            raise ValueError("MadKingProfile requires a mad_king graph")
        m.sign_atoms()  # raises unless m is a two-atom sign model
        if not (0.0 < lam < 1.0):
            raise ValueError("lam must lie in (0, 1)")
        self.g = g
        self.m = m
        self.roles = roles
        self.delta = delta
        self.lam = lam
        self.tie_breaker = tie_breaker
        self._z = np.asarray(m.z_values)
        eps = math.exp(-delta * len(roles.bureaucracy))
        self.lock_threshold = math.log((1.0 - eps) / eps)
        self._role_of = {}
        self._role_of[roles.king] = "king"
        self._role_of[roles.regent] = "regent"
        for v in roles.court:
            self._role_of[v] = "court"
        for v in roles.bureaucracy:
            self._role_of[v] = "bureau"
        for v in roles.people:
            self._role_of[v] = "person"
        # position of each observed vertex inside the agent's sorted closed
        # neighborhood, so decoding avoids repeated tuple.index scans
        self._pos = {
            i: {v: p for p, v in enumerate(g.closed_nbrs(i))}
            for i in range(g.n)
        }

    # -- helpers ----------------------------------------------------------
    def _sign(self, val, tie_log):
        if abs(val) <= beliefs.TIE_TOL:
            if tie_log is not None:
                tie_log.add()
            return self.tie_breaker.resolve()
        return 1 if val > 0 else 0

    def _decode(self, agent, row_actions, verts):
        neg, pos = self.m.sign_atoms()
        at = self._pos[agent]
        tot = 0.0
        for v in verts:
            a = row_actions[at[v]]
            tot += self._z[pos] if a == 1 else self._z[neg]
        return tot

    def _counting_z(self, agent, atom, history, include):
        """Own log-likelihood ratio plus the decoded ratios of ``include``
        (read from their round-0 actions)."""
        return self._z[atom] + self._decode(agent, history[0], include)

    def _imitate_or_revert(self, agent, history, leader, static_val, tie_log):
        """Copy the leader's previous action while its run from round 1 is
        unbroken; after an observed deviation fall back to the static
        counting response."""
        t = len(history)
        p = self._pos[agent][leader]
        seq = [history[tau][p] for tau in range(1, t)]
        if any(a != seq[0] for a in seq):
            return self._sign(static_val, tie_log)
        return seq[-1]

    # -- main rule --------------------------------------------------------
    def action(self, agent, atom, history, tie_log=None):
        t = len(history)
        role = self._role_of[agent]
        nbrs = self.g.closed_nbrs(agent)
        r = self.roles

        if role == "person":
            if t <= 1:
                return 0
            # the king's t=1 -> t=2 transition is on-path behavior, so the
            # people imitate unconditionally rather than deviation-watching
            return history[-1][self._pos[agent][r.king]]

        if role == "court":
            if t == 0:
                return self._sign(self._z[atom], tie_log)
            if t == 1:
                static = self._counting_z(agent, atom, history, [r.king])
                return self._sign(static, tie_log)
            return history[-1][self._pos[agent][r.king]]

        if role == "bureau":
            if t == 0:
                return self._sign(self._z[atom], tie_log)
            static = self._counting_z(agent, atom, history, [r.regent])
            if t == 1:
                return self._sign(static, tie_log)
            return self._imitate_or_revert(agent, history, r.regent, static,
                                           tie_log)

        if role == "regent":
            if t == 0:
                return self._sign(self._z[atom], tie_log)
            z1 = self._counting_z(agent, atom, history,
                                  [r.king] + list(r.bureaucracy))
            # locked or not, the continuation is sign(Z_1): nothing the
            # regent observes later is informative under this profile; the
            # lock threshold is exposed for analysis via is_locked
            return self._sign(z1, tie_log)

        # king
        if t == 0:
            return self._sign(self._z[atom], tie_log)
        at = self._pos[agent]
        people_pos = [at[v] for v in r.people]
        if any(history[tau][p] == 1
               for tau in range(min(t, 2)) for p in people_pos):
            return 1  # the rage rule
        static = self._counting_z(agent, atom, history,
                                  [r.regent] + list(r.court))
        if t == 1:
            return self._sign(static, tie_log)
        return self._imitate_or_revert(agent, history, r.regent, static,
                                       tie_log)

    def regent_z1(self, atoms) -> float:
        r = self.roles
        z = self._z[np.asarray(atoms)]
        return float(z[r.regent] + z[r.king] + z[list(r.bureaucracy)].sum())

    def is_locked(self, atoms) -> bool:
        return abs(self.regent_z1(atoms)) >= self.lock_threshold


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
    out = {}
    for ell in (1, 2, 3):
        out[f"B{ell}"] = lhs > lam ** 2 * (0.5 - y[ell - 1]) / (1.0 - lam)
    out["B4"] = lhs > lam ** 2 * (0.5 - y[2]) + lam ** 3 * (0.5 - y[3]) / (1.0 - lam)
    if all(y[i] <= y[i + 1] + 1e-12 for i in range(3)):
        assert (not out["B1"] or out["B2"]) and (not out["B2"] or out["B3"]) \
            and (not out["B3"] or out["B4"])
    return out


def make_profile(name: str, g, m, **kwargs) -> Profile:
    """Factory used by the CLI.  Known names: myopic, gossip, royal_family,
    mad_king."""
    if name == "myopic":
        return MyopicExactProfile(g, m, **kwargs)
    if name == "gossip":
        return GossipProfile(**kwargs)
    if name == "royal_family":
        return RoyalFamilyProfile(g, m, **kwargs)
    if name == "mad_king":
        roles = mad_king_roles_of(g)
        delta = kwargs.pop("delta", 1.0)
        lam = kwargs.pop("lam", 0.99)
        return MadKingProfile(g, m, roles, delta, lam, **kwargs)
    raise ValueError(f"unknown profile {name!r}")


def mad_king_roles_of(g) -> MadKingRoles:
    """Derive the role partition from a mad_king graph's family parameters
    (vertex order: king, regent, court, bureaucracy, people)."""
    if g.family_tag != "mad_king":
        raise ValueError("not a mad_king graph")
    p = g.family_params()
    rc, rb, n = p["R_C"], p["R_B"], p["n"]
    return MadKingRoles(
        king=0, regent=1,
        court=tuple(range(2, 2 + rc)),
        bureaucracy=tuple(range(2 + rc, 2 + rc + rb)),
        people=tuple(range(2 + rc + rb, 2 + rc + rb + n)))
