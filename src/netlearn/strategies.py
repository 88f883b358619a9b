"""Pure strategy profiles for the repeated-action game.

A profile maps (agent, own atom, observed neighbor history) to an action in
{0, 1}.  Histories are round-major tuples over the agent's closed
neighborhood in sorted vertex order (the agent itself included).  The
mad-king profile takes its roles from ``graphs.role_names``.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from . import beliefs, graphs
from .beliefs import Profile, TieBreaker  # noqa: F401  (re-exported)

__all__ = [
    "Profile",
    "MyopicExactProfile",
    "GossipProfile",
    "RoyalFamilyProfile",
    "MadKingRoles",
    "MadKingProfile",
    "myopic_condition_check",
    "mad_king_roles_of",
]


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
    solved lazily, up to the largest horizon asked for, into one table of
    every world's actions, which ``trace_batch`` reads.  ``forced_trace``
    walks the class splits instead, for rows with one agent forced.

    ``beliefs.DEFAULT_BUDGET`` bounds the world-agent cells k^n * n; it is
    checked before any world array is allocated.  Only deterministic tie
    modes are supported: one world's response cannot depend on a jitter
    draw.
    """

    def __init__(self, g, m, tie_breaker: TieBreaker = TieBreaker("zero")):
        tie_breaker.reject_jitter("exact myopic")
        self.g = g
        self.m = m
        self.tie_breaker = tie_breaker
        self._cls = None     # (n, worlds) class ids at the newest round
        self._acts = None    # the world table: (rounds, n, worlds) uint8
        self._ties = None    # (rounds, worlds) tied agents per world
        self._play = []      # per round, per agent: (action, tied) by class
        self._split = []     # per round, per agent: sorted (class, row) keys

    def __getstate__(self):
        """A copy (a pool worker's) keeps the solved rounds, not the class
        ids and world masses: asked for more rounds, it re-solves."""
        return {**self.__dict__, "_cls": None, "_w0": None, "_w1": None}

    def _start(self):
        n = self.g.n
        # a world's initial class for agent i is agent i's own atom
        self._cls, self._w0, self._w1 = beliefs.worlds(self.m, n)
        self._radix = self.m.k ** np.arange(n, dtype=np.int64)
        self._nbrs = [self.g.closed_nbrs(i) for i in range(n)]
        self._acts = np.empty((0,) + self._cls.shape, dtype=np.uint8)
        self._ties = np.empty((0, self._cls.shape[1]), dtype=np.int32)
        self._play, self._split = [], []

    def _keys(self, cls, acts):
        """Per agent, the split key of each column: its class in the (n,
        columns) ids ``cls``, then bit j set where closed neighbour j plays
        1 in the (n, columns) actions ``acts``."""
        return [(cls[i] << len(nbrs)) | sum(acts[v].astype(np.int64) << j
                                            for j, v in enumerate(nbrs))
                for i, nbrs in enumerate(self._nbrs)]

    def _refine(self, acts):
        """Split every class by the closed-neighbourhood row of the newest
        round, whose (n, worlds) actions are ``acts``."""
        split = []
        for i, key in enumerate(self._keys(self._cls, acts)):
            uniq, self._cls[i] = np.unique(key, return_inverse=True)
            split.append(uniq)
        self._split.append(split)

    def _extend(self, rounds: int):
        """Solve rounds up to ``rounds``, growing the world table once; a
        copy asked for more rounds than it holds starts from round 0."""
        if self._cls is None and (self._acts is None
                                  or rounds > len(self._play)):
            self._start()
        done = len(self._play)
        if rounds <= done:
            return
        acts = np.empty((rounds,) + self._cls.shape, dtype=np.uint8)
        ties = np.zeros((rounds, self._cls.shape[1]), dtype=np.int32)
        acts[:done], ties[:done] = self._acts[:done], self._ties[:done]
        self._acts, self._ties = acts, ties
        for t in range(done, rounds):
            if t:
                self._refine(acts[t - 1])
            play = []
            for i, cls in enumerate(self._cls):
                s0 = np.bincount(cls, weights=self._w0)
                s1 = np.bincount(cls, weights=self._w1)
                act, tied = self.tie_breaker.decide(s1 / (s0 + s1) - 0.5)
                acts[t, i] = act[cls]
                ties[t] += tied[cls]
                play.append((act, tied))
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

    def trace_batch(self, g, m, atoms, jitters, horizon, tie_log=None):
        """One read of the world table: the columns of the worlds
        w = atoms @ radix, gathered at once, ties summed over the batch."""
        self._extend(horizon)
        w = np.asarray(atoms, dtype=np.int64).reshape(-1, g.n) @ self._radix
        if tie_log is not None:
            tie_log.add(int(self._ties[:horizon, w].sum()))
        return np.ascontiguousarray(self._acts[:horizon, :, w].T)

    def trace_actions(self, g, m, atoms, jitters, horizon, tie_log=None):
        return self.trace_batch(g, m, [atoms], None, horizon, tie_log)[0]

    def forced_trace(self, atoms, horizon, agent, forced):
        """(R, n, horizon) uint8 actions of the rows of ``atoms`` (R, n)
        when ``agent`` plays ``forced``, its first len(forced) actions,
        whatever its atom.  Each round every agent plays its class's action,
        then moves its class by ``searchsorted`` in the split keys, as
        ``action`` walks a history; a key that no world produces is
        off-path, and plays 0 from then on.  Ties are not counted."""
        self._extend(horizon)
        cls = np.asarray(atoms, dtype=np.int64).reshape(-1, self.g.n).T.copy()
        live = np.ones(cls.shape, dtype=bool)
        out = np.empty((horizon,) + cls.shape, dtype=np.uint8)
        for t in range(horizon):
            if t:
                for i, key in enumerate(self._keys(cls, out[t - 1])):
                    split = self._split[t - 1][i]
                    cls[i] = np.minimum(split.searchsorted(key),
                                        len(split) - 1)
                    live[i] &= split[cls[i]] == key
            for i, (act, _) in enumerate(self._play[t]):
                out[t, i] = act[cls[i]] & live[i]
            if t < len(forced):
                out[t, agent] = forced[t]
        return np.ascontiguousarray(out.transpose(2, 1, 0))


class GossipProfile(Profile):
    """Information-pooling dynamic for two-atom sign models: agent i's action
    at round t is the sign of the summed log-likelihood ratios of every agent
    within graph distance t of i.

    This coincides with myopic play at rounds 0 and 1 (round-0 actions reveal
    the atoms of the in-neighborhood exactly), and from round 2 on is an
    idealization in which log-likelihood ratios propagate along edges one hop
    per round.  It is *not* measurable with respect to the observed action
    history in general, so only traces (``trace_batch``) are provided.

    The balls are held as rings: for every agent i and every j at distance
    d <= T-1 from i (T the horizon), one entry pairs the round-major cell
    d*n + i with the member j, the entries sorted by (d, i, j).  A batch of
    traces sums each ring's ratios, a block of rows at a time, and
    accumulates the rings over d.  The rings come from one array BFS,
    truncated at radius T-1 (``graphs.all_balls``; no per-agent search).

    The profile holds one slot: the rings of the newest (graph, horizon),
    found on its first batch, an empty one included, and found again only
    when a batch comes for another; and one block of them, tiled for as
    many rows as the largest batch since then needs, with one work float
    per entry: 24 B per entry.  A one-row block has sum_i |ball_{T-1}(i)|
    entries (1.42 MB on cycle(1000) at T=30, where the build peaks at
    what it keeps; n^2 entries in the worst case, on dense graphs; past
    ``beliefs.DEFAULT_BUDGET`` entries the build stops with
    BudgetExceededError); a larger block at most ``beliefs.BLOCK_CELLS``
    entries, and a batch 8 B per (row, agent, round) cell of its block.
    A pickled copy carries the one-row rings only.
    """

    def __init__(self, tie_breaker: TieBreaker = TieBreaker("zero")):
        self.tie_breaker = tie_breaker
        # the newest (n, edges, horizon), its one-row rings (cell, member)
        # and its block (rows, cell, member, weights)
        self._key = self._entries = self._block = None

    def __getstate__(self):
        """A copy (a pool worker's) keeps the one-row rings, not the block:
        it tiles them and allocates its buffers on its first batch."""
        return {**self.__dict__, "_block": None}

    def action(self, agent, atom, history, tie_log=None):
        raise NotImplementedError(
            "the gossip profile is defined at the trace level only; "
            "use trace_actions")

    def _block_for(self, g, horizon, batch):
        """(rows, cell, member, weights) for a batch of ``batch`` rows:
        the ring entries of a block of ``rows`` trace rows, row r's cells
        offset by r * n * horizon and its members by r * n, and a work
        buffer of one float per entry.  The rings are searched again only
        for a new (graph, horizon): more than ``beliefs.DEFAULT_BUDGET``
        entries raise BudgetExceededError, before the search holds more
        than a few times that many.  The block is tiled again only when the
        batch needs more rows than it holds, up to as many as keep its
        entries and its cells within ``beliefs.BLOCK_CELLS``, unless one
        row's pass it."""
        key = (g.n, g.edges, horizon)
        if key != self._key:
            balls = graphs.all_balls(g, horizon - 1, beliefs.DEFAULT_BUDGET)
            if balls is None:
                raise beliefs.BudgetExceededError(
                    f"gossip rings over budget: more than "
                    f"{beliefs.DEFAULT_BUDGET} entries for {g.n} agents "
                    f"at horizon {horizon}; lower the horizon or use a "
                    "sparser graph")
            # round-major cells d * n + i, in entry order
            cell, source, member = balls
            del balls
            cell *= g.n
            cell += source
            del source
            self._key, self._entries, self._block = key, (cell, member), None
        cell, member = self._entries
        rows = min(max(batch, 1), max(1, beliefs.BLOCK_CELLS // max(
            len(cell), g.n * horizon, 1)))
        if self._block is None or self._block[0] < rows:
            if rows > 1:
                r = np.arange(rows)[:, None]
                cell = (cell + r * (g.n * horizon)).ravel()
                member = (member + r * g.n).ravel()
            self._block = (rows, cell, member, np.empty(len(cell)))
        return self._block

    def trace_batch(self, g, m, atoms, jitters, horizon, tie_log=None):
        """(R, n, horizon) actions of the rows of ``atoms`` and ``jitters``
        (R, n): per block of rows, one ``bincount`` of the entries' ratios
        into the cells.  It adds them one at a time in entry order, so every
        sum equals a one-row trace's.  The cells are round-major, so the
        running sum over rounds is one in-place ``np.add`` of each round's
        agent row into the next's.  Each block's sums are a fresh array: on
        cycle(1000), T=30, 50 rows in a fresh process fault in 284 pages
        against 116 with a held buffer (malloc may trim a freed one), and
        take about 45 us less per row.  Not reentrant: the ratios go to the
        work buffer held with the rings."""
        atoms = np.asarray(atoms, dtype=np.intp).reshape(-1, g.n)
        rows, cell, member, weights = self._block_for(g, horizon, len(atoms))
        jitters = np.asarray(jitters, dtype=np.float64).reshape(atoms.shape)
        z = np.asarray(m.z_values)[atoms]
        out = np.empty((len(atoms), g.n, horizon), dtype=np.uint8)
        for lo in range(0, len(atoms), rows):
            k = min(rows, len(atoms) - lo)
            e = k * (len(cell) // rows)
            # members are in range by construction; under mode "raise"
            # take would write through a temporary as large as its output
            w = np.take(z[lo:lo + k].ravel(), member[:e], out=weights[:e],
                        mode="wrap")
            acc = np.bincount(cell[:e], weights=w, minlength=k * g.n * horizon)
            # round t sums the ratios within distance t of each agent
            acc = acc.reshape(k, horizon, g.n)
            for t in range(1, horizon):
                np.add(acc[:, t], acc[:, t - 1], out=acc[:, t])
            acts = self.tie_breaker.decide(acc, tie_log,
                                           jitters[lo:lo + k, None])[0]
            out[lo:lo + k] = acts.transpose(0, 2, 1)
        return out

    def trace_actions(self, g, m, atoms, jitters, horizon, tie_log=None):
        return self.trace_batch(g, m, [atoms], [jitters], horizon, tie_log)[0]


class _ScriptedProfile(Profile):
    """Scripted play on a two-atom sign model (``sign_atoms``): round 0
    plays each agent's own sign, round 1 the sign of its own ratio plus the
    decoded ratios of its out-neighbours in ``_decoding``, and round t >= 2
    the round-1 action of leader^(t-1)(agent), ``_leader`` the leader map.
    By default the decoding graph is ``g`` and every agent leads itself.

    A round-0 action reveals its atom, so a decoded ratio is the atom's z
    and rounds 0-1 are the gossip rule on the decoding graph: a held
    ``GossipProfile`` plays them, ties counted there, its round-1 ring
    adding the members in sorted order from 0.0 as ``action`` decodes them.
    Subclasses set ``family``, their graph family tag, and keep ``action``
    as the oracle.  Only deterministic tie modes are supported: ``action``
    never sees a jitter draw.
    """

    def __init__(self, g, m, tie_breaker: TieBreaker = TieBreaker("zero")):
        if g.family_tag != self.family:
            raise ValueError(
                f"{type(self).__name__} requires a {self.family} graph")
        tie_breaker.reject_jitter(self.family.replace("_", "-"))
        self.g, self.m, self.tie_breaker = g, m, tie_breaker
        self._z = np.asarray(m.z_values)
        # (negative, positive); raises unless m is a two-atom sign model
        self._sign_z = self._z[list(m.sign_atoms())]
        self._gossip = GossipProfile(tie_breaker)
        self._decoding, self._leader = g, np.arange(g.n)

    def trace_batch(self, g, m, atoms, jitters, horizon, tie_log=None):
        """(R, n, horizon) actions of the rows of ``atoms`` (R, n): rounds
        0 and 1 of the gossip kernel, then one gather along the leader
        chains."""
        first = self._gossip.trace_batch(
            self._decoding, m, atoms, np.zeros(np.shape(atoms)),
            min(horizon, 2), tie_log)
        who = np.empty((g.n, horizon), dtype=np.intp)
        who[:, :2] = np.arange(g.n)[:, None]
        for t in range(2, horizon):
            who[:, t] = self._leader[who[:, t - 1]]
        return first[:, who, np.minimum(np.arange(horizon), 1)]

    def trace_actions(self, g, m, atoms, jitters, horizon, tie_log=None):
        return self.trace_batch(g, m, [atoms], None, horizon, tie_log)[0]


class RoyalFamilyProfile(_ScriptedProfile):
    """Equilibrium-style play on the royal-family graphs: myopic at rounds 0
    and 1 (round 1 sums the decoded neighborhood log-likelihood ratios), then
    every agent repeats its own round-1 action forever.

    The freeze is history-measurable and captures the herding outcome: after
    round 1 the royal clique is unanimous and no later observation flips it.
    It is the default script: each agent decodes its whole neighbourhood
    and leads itself.
    """

    family = "royal_family"

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
        return int(self.tie_breaker.decide(val, tie_log)[0])


@dataclass(frozen=True)
class MadKingRoles:
    king: int
    regent: int
    court: Tuple[int, ...]
    bureaucracy: Tuple[int, ...]
    people: Tuple[int, ...]


class MadKingProfile(_ScriptedProfile):
    """Scripted profile on the mad-king graphs.

    Role rules:
      * the regent plays its private sign at round 0 and from round 1 the
        sign of Z_1 = own + king's decoded + the summed bureaucracy decoded
        log-likelihood ratios (exact counting myopic play: nothing it sees
        later moves it).  Whether |Z_1| is large enough to *lock* the
        regent, |Z_1| >= ln((1-eps)/eps) with eps = exp(-delta *
        |bureaucracy|), is acceptance criterion 08's analysis of
        ``regent_z1``, not an attribute of the profile;
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

    ``trace_batch`` is the scripted kernel on ``g`` less every edge that
    touches a person, with the regent leading itself, the bureaucracy and
    the king, and the king leading the court and the people; then the
    people are silenced at rounds 0-1 and the regent's tie counted at each
    round from 2, where ``action`` decides sign(Z_1) again.  This relies on
    two facts of the profile's own play: the people's silence means the
    rage rule never fires, and the regent's repeated sign(Z_1) means its
    run never breaks.  ``action`` stays as the oracle, and also answers
    histories that play never produces, such as a person's rebellion.
    """

    family = "mad_king"

    def __init__(self, g, m, tie_breaker: TieBreaker = TieBreaker("zero")):
        super().__init__(g, m, tie_breaker)
        self.roles = r = mad_king_roles_of(g)
        self._role_of = graphs.role_names(g)
        # position of each vertex in each agent's sorted closed neighborhood
        self._pos = {i: {v: p for p, v in enumerate(g.closed_nbrs(i))}
                     for i in range(g.n)}
        # round 1 decodes no person: the people are silent at round 0
        self._decoding = graphs.DirectedGraph(g.n, frozenset(
            (i, j) for i, j in g.edges
            if "person" not in (self._role_of[i], self._role_of[j])))
        self._leader = np.full(g.n, r.king)
        self._leader[[r.regent, r.king, *r.bureaucracy]] = r.regent

    def _decode(self, agent, row_actions, verts):
        neg, pos = self._sign_z
        at = self._pos[agent]
        tot = 0.0
        for v in verts:
            tot += pos if row_actions[at[v]] == 1 else neg
        return tot

    def _counting_z(self, agent, atom, history, include):
        """Own log-likelihood ratio plus the decoded ratios of ``include``
        (read from their round-0 actions)."""
        return self._z[atom] + self._decode(agent, history[0], include)

    def action(self, agent, atom, history, tie_log=None):
        t = len(history)
        role = self._role_of[agent]
        at = self._pos[agent]
        r = self.roles

        if role == "person":
            # the king's t=1 -> t=2 transition is on-path behavior, so the
            # people imitate unconditionally rather than deviation-watching
            return 0 if t <= 1 else history[-1][at[r.king]]
        if role == "court" and t >= 2:
            return history[-1][at[r.king]]

        if t == 0:
            val = self._z[atom]
        elif role == "court":
            val = self._counting_z(agent, atom, history, [r.king])
        elif role == "regent":
            # locked or not, the continuation is sign(Z_1): nothing the
            # regent observes later is informative under this profile; the
            # lock level is criterion 08's analysis of regent_z1
            val = self._counting_z(agent, atom, history,
                                   [r.king] + list(r.bureaucracy))
        else:  # the king and the bureaucracy
            if role == "king" and any(history[tau][at[v]] == 1
                                      for tau in range(min(t, 2))
                                      for v in r.people):
                return 1  # the rage rule
            include = [r.regent] + (list(r.court) if role == "king" else [])
            val = self._counting_z(agent, atom, history, include)
            # from round 2, copy the regent's previous action while its run
            # from round 1 is unbroken; after an observed deviation fall
            # back to the static counting response
            seq = [history[tau][at[r.regent]] for tau in range(1, t)]
            if seq and all(a == seq[0] for a in seq):
                return seq[-1]
        return int(self.tie_breaker.decide(val, tie_log)[0])

    def trace_batch(self, g, m, atoms, jitters, horizon, tie_log=None):
        out = super().trace_batch(g, m, atoms, jitters, horizon, tie_log)
        out[:, list(self.roles.people), :2] = 0
        if tie_log is not None and horizon > 2:
            tied = self.tie_breaker.decide(self.regent_z1(atoms))[1]
            tie_log.add((horizon - 2) * int(np.count_nonzero(tied)))
        return out

    def regent_z1(self, atoms):
        """Z_1 of each row of ``atoms`` (..., n): the regent's own ratio
        plus the king's and then each bureaucrat's, added in the order
        ``action`` decodes them, so a tie falls as it does there."""
        r = self.roles
        z = self._z[np.asarray(atoms)]
        seen = z[..., [r.king, *r.bureaucracy]].cumsum(axis=-1)[..., -1]
        return z[..., r.regent] + seen


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


def mad_king_roles_of(g) -> MadKingRoles:
    """The role partition of a mad_king graph: ``graphs.role_names`` grouped
    by role."""
    if g.family_tag != "mad_king":
        raise ValueError("not a mad_king graph")
    by_role = {}
    for v, role in graphs.role_names(g).items():
        by_role.setdefault(role, []).append(v)
    return MadKingRoles(*by_role["king"], *by_role["regent"],
                        *(tuple(by_role[r])
                          for r in ("court", "bureaucracy", "person")))
