"""Pure strategy profiles for the repeated-action game, and the core that
``simulate`` and the posterior queries of ``beliefs`` share: the decision
rule (``TieBreaker``), the ``Profile`` base class, the possible worlds
(``worlds``) and the budgets.

A profile maps (agent, own atom, observed neighbor history) to an action in
{0, 1}.  Histories are round-major tuples over the agent's closed
neighborhood in sorted vertex order (the agent itself included).  The
mad-king profile takes its roles from ``mad_king_roles_of``.
"""
from __future__ import annotations

from typing import NamedTuple, Optional, Tuple

import numpy as np

from . import graphs

# world-agent cells k^n * n (n <= 19 at k = 2), and gossip ring entries
DEFAULT_BUDGET = 10_000_000
TIE_TOL = 1e-12
# cells -- (row, agent, round), or (row, ring entry) -- that the temporaries
# of one block of replicate rows may hold; a block has at least one row
BLOCK_CELLS = 2 ** 16

__all__ = [
    "BudgetExceededError",
    "TieLog",
    "TieBreaker",
    "Profile",
    "worlds",
    "MyopicExactProfile",
    "GossipProfile",
    "RoyalFamilyProfile",
    "MadKingRoles",
    "MadKingProfile",
    "mad_king_roles_of",
]


class BudgetExceededError(RuntimeError):
    """Over the budget: a joint atom space too large for exact enumeration
    (fewer agents or atoms fit), or gossip rings with too many entries."""


class TieLog:
    """Mutable tie-event counter threaded through trace generation."""

    def __init__(self):
        self.count = 0

    def add(self, k=1):
        self.count += k


class TieBreaker(NamedTuple("TieBreaker", [("mode", str)])):
    """The decision rule every profile plays by.  A margin -- a
    log-likelihood ratio, or a posterior minus 1/2 -- above TIE_TOL plays 1,
    below -TIE_TOL plays 0, and within TIE_TOL of 0 is a tie, counted and
    broken by the mode: 0, 1, or under ``jitter`` 1 exactly when the
    agent's jitter, a U[0, 1) draw that carries no information, lies below
    1/2.  The breaker is the only code that knows what a jitter is, how many
    draws it takes from a replicate row (``row_width``, ``jitters_of``)
    and how it breaks a tie.  ``__new__`` checks the mode; a breaker equals
    the plain tuple ``(mode,)``, so breakers of one mode are equal."""

    __slots__ = ()

    def __new__(cls, mode: str = "zero"):
        if mode not in ("zero", "one", "jitter"):
            raise ValueError(f"unknown tie-breaker mode {mode!r}")
        return super().__new__(cls, mode)

    def reject_jitter(self, what: str):
        """Refuse mode ``jitter`` for ``what``, whose decisions never see a
        jitter draw and so cannot honour it."""
        if self.mode == "jitter":
            raise ValueError(
                f"jitter tie-breaking is not supported by {what}; use mode "
                "'zero' or 'one'")

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
    atoms = np.arange(k ** n)[None, :] // radix[:, None]
    atoms %= k
    # each mass a running product over agents, as prod(axis=0) forms it
    w0, w1 = m.probs(0)[atoms[0]], m.probs(1)[atoms[0]]
    for row in atoms[1:]:
        w0 *= m.probs(0)[row]
        w1 *= m.probs(1)[row]
    return atoms, w0, w1


def _starts(sizes):
    """The (len(sizes) + 1,) starts of consecutive blocks of ``sizes``: 0,
    then the running sum."""
    return np.concatenate(([0], np.cumsum(sizes)))


def _relabel(ids, entries: int):
    """Replace the int64 ``ids``, each in [0, entries), by their ranks among
    the distinct ids, in place and with no sort: mark them in a bool table,
    then scatter each marked entry's rank, in the narrowest type that holds
    it, into a table that a gather reads.  Returns the marked entries,
    sorted.  The tables take at most 9 B an entry, counted against
    ``DEFAULT_BUDGET`` before either is allocated."""
    if 9 * entries > DEFAULT_BUDGET:
        raise BudgetExceededError(
            f"a class relabel table of {entries} entries ({9 * entries} "
            f"bytes) exceeds the exact budget of {DEFAULT_BUDGET}; lower the "
            "horizon or the number of agents")
    seen = np.zeros(entries, dtype=bool)
    seen[ids] = True
    marked = seen.nonzero()[0]
    del seen
    rank = np.empty(entries, dtype=np.min_scalar_type(len(marked)))
    rank[marked] = np.arange(len(marked))
    # in range: under mode "raise" take would copy ids
    ids[...] = np.take(rank, ids, mode="wrap")
    return marked


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

    Each round is a few numpy calls per chunk of agents, never per agent.
    A chunk holds max(1, ``BLOCK_CELLS`` // k^n) agents, each agent's class
    ids offset by the class counts of the agents before it in the chunk, so
    one ``bincount`` pair sums every class's masses, one ``decide`` plays
    every class and one gather writes the chunk's actions.  Classes only
    split, so the split needs no sort: each agent's rows are ranked
    through a table over its 2^width rows, then each (class, row rank) pair
    through a table over the chunk's pairs (``_relabel``); the new classes
    come out in the order of their split keys.  A table past
    ``DEFAULT_BUDGET`` bytes raises BudgetExceededError before it is
    allocated.

    Per round, the profile keeps every class's action and tie in flat
    arrays (``_play``), each agent's classes from its offset in ``_offs``,
    and the sorted split keys class << width | row, each agent's raised
    past the key spans of the agents before it (``_split``).

    ``DEFAULT_BUDGET`` bounds the world-agent cells k^n * n; it is
    checked before any world array is allocated.  Only deterministic tie
    modes are supported: one world's response cannot depend on a jitter
    draw.
    """

    def __init__(self, g, m, tie_breaker: TieBreaker = TieBreaker("zero")):
        tie_breaker.reject_jitter("the exact myopic profile")
        self.g = g
        self.m = m
        self.tie_breaker = tie_breaker
        self._cls = None     # (n, worlds) class ids at the newest round
        self._acts = None    # the world table: (rounds, n, worlds) uint8
        self._ties = None    # (rounds, worlds) tied agents per world
        self._play = []      # per round: (action, tied) of every class
        self._offs = []      # per round: (n + 1,) class offsets by agent
        self._split = []     # per round: (sorted offset keys, key offsets)

    def __getstate__(self):
        """A copy (a pool worker's) keeps the solved rounds, not the class
        ids, world masses and chunks: asked for more rounds, it re-solves."""
        return {**self.__dict__, "_cls": None, "_w0": None, "_w1": None,
                "_chunks": None}

    def _start(self):
        n, k = self.g.n, self.m.k
        atoms, w0, w1 = worlds(self.m, n)
        size = max(1, BLOCK_CELLS // atoms.shape[1])
        self._chunks = [(lo, min(lo + size, n)) for lo in range(0, n, size)]
        # a world's round-0 class for agent i is agent i's own atom, offset
        # by k for each agent before i in its chunk
        atoms += k * (np.arange(n) % size)[:, None]
        self._cls, self._w0, self._w1 = atoms, w0, w1
        self._radix = k ** np.arange(n, dtype=np.int64)
        nbrs = list(map(self.g.closed_nbrs, range(n)))
        self._width = np.array(list(map(len, nbrs)))
        # key bits from the highest: step s shifts by 1 and sets bit 0 from
        # closed neighbour width - 1 - s; past the width, a step shifts by 0
        # and sets bit 0 from neighbour 0 again
        pad = int(self._width.max())
        self._nbr = np.array([v[::-1] + v[:1] * (pad - len(v)) for v in nbrs])
        self._step = (np.arange(pad) < self._width[:, None]).astype(np.int64)
        self._acts = np.empty((0,) + atoms.shape, dtype=np.uint8)
        self._ties = np.empty((0, atoms.shape[1]),
                              dtype=np.min_scalar_type(n))
        self._play, self._split = [], []
        self._offs = [k * np.arange(n + 1)]

    def _keys(self, cls, acts, lo, hi):
        """The split keys of agents lo..hi-1, (hi - lo, columns): the class
        in the (n, columns) ids ``cls``, shifted past the agent's width,
        then bit j set where closed neighbour j plays 1 in the (n, columns)
        actions ``acts``."""
        key = cls[lo:hi].copy()
        for s in range(self._nbr.shape[1]):
            key <<= self._step[lo:hi, s, None]
            key |= acts[self._nbr[lo:hi, s]]
        return key

    def _refine(self, acts):
        """Split every class by the closed-neighbourhood row of the newest
        round, whose (n, worlds) actions are ``acts``, a chunk at a time:
        rank each agent's rows through a table over its 2^width rows, then
        each (class, row rank) pair through a table over the chunk's
        pairs, agent i's count_i x d_i of them from koff_i."""
        width, offs = self._width, self._offs[-1]
        # agent i's split keys lie in [base_i, base_i + count_i << width_i)
        base = _starts((offs[1:] - offs[:-1]) << width)[:-1]
        new = np.empty_like(base)
        split = []
        for lo, hi in self._chunks:
            w = width[lo:hi]
            row = self._keys(self._cls, acts, lo, hi)
            row &= ((1 << w) - 1)[:, None]
            roff = _starts(1 << w)
            row += roff[:-1, None]
            rows = _relabel(row, roff[-1])
            rbase = rows.searchsorted(roff)
            d = rbase[1:] - rbase[:-1]
            coff = offs[lo:hi + 1] - offs[lo]
            koff = _starts((coff[1:] - coff[:-1]) * d)
            cls = self._cls[lo:hi]
            cls *= d[:, None]
            cls += row
            del row
            cls += (koff[:-1] - coff[:-1] * d - rbase[:-1])[:, None]
            pairs = _relabel(cls, koff[-1])
            # the split keys, decoded from the pairs in class order
            ag = koff.searchsorted(pairs, "right") - 1
            new[lo:hi] = np.bincount(ag, minlength=hi - lo)
            key, r = np.divmod(pairs - koff[ag], d[ag])
            key <<= w[ag]
            key |= rows[r + rbase[ag]] - roff[ag]
            key += base[lo:hi][ag]
            split.append(key)
        self._split.append((np.concatenate(split), base))
        self._offs.append(_starts(new))

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
        ties = np.zeros((rounds, self._cls.shape[1]), dtype=self._ties.dtype)
        acts[:done], ties[:done] = self._acts[:done], self._ties[:done]
        self._acts, self._ties = acts, ties
        for t in range(done, rounds):
            if t:
                try:
                    self._refine(acts[t - 1])
                except BudgetExceededError:
                    # some chunks are split: a later call starts again
                    self._cls = None
                    raise
            offs = self._offs[t]
            play = []
            for lo, hi in self._chunks:
                cls = self._cls[lo:hi]
                x, size = cls.ravel(), offs[hi] - offs[lo]
                s0 = np.bincount(x, self._w0[None].repeat(hi - lo, 0).ravel(),
                                 size)
                s1 = np.bincount(x, self._w1[None].repeat(hi - lo, 0).ravel(),
                                 size)
                act, tied = self.tie_breaker.decide(s1 / (s0 + s1) - 0.5)
                np.take(act, cls, out=acts[t, lo:hi], mode="wrap")
                if tied.any():
                    ties[t] += tied[cls].sum(axis=0, dtype=ties.dtype)
                play.append((act, tied))
            self._play.append(tuple(map(np.concatenate, zip(*play))))

    def action(self, agent, atom, history, tie_log=None):
        t = len(history)
        self._extend(t + 1)
        width = int(self._width[agent])
        cls = int(atom)
        for tau, row in enumerate(history):
            key = cls << width
            for j, a in enumerate(row):
                if a == 1:
                    key |= 1 << j
                elif a != 0:
                    return 0  # not an action: off-path, as below
            keys, base = self._split[tau]
            keys = keys[self._offs[tau + 1][agent]:
                        self._offs[tau + 1][agent + 1]]
            key += int(base[agent])
            cls = int(keys.searchsorted(key))
            if len(row) != width or cls == len(keys) or keys[cls] != key:
                # zero-probability (off-path) history: the posterior is
                # undefined, so complete the profile with a fixed default;
                # such branches are filtered out by any outer consistency
                # check against realizable observations
                return 0
        lo, hi = self._offs[t][agent], self._offs[t][agent + 1]
        act, tied = self._play[t][0][lo:hi], self._play[t][1][lo:hi]
        if tied[cls] and tie_log is not None:
            tie_log.add()
        return int(act[cls])

    def trace_batch(self, g, m, atoms, jitters, horizon, tie_log=None):
        """One read of the world table: the columns of the worlds
        w = atoms @ radix, gathered at once, ties summed over the batch.
        The result is a transposed view of the gathered (horizon, n, R)
        table, as ``forced_trace``'s is."""
        self._extend(horizon)
        w = np.asarray(atoms, dtype=np.int64).reshape(-1, g.n) @ self._radix
        if tie_log is not None:
            tie_log.add(int(self._ties[:horizon, w].sum()))
        return self._acts[:horizon, :, w].transpose(2, 1, 0)

    def trace_actions(self, g, m, atoms, jitters, horizon, tie_log=None):
        return self.trace_batch(g, m, [atoms], None, horizon, tie_log)[0]

    def forced_trace(self, atoms, horizon, agent, forced):
        """(R, n, horizon) uint8 actions of the rows of ``atoms`` (R, n)
        when ``agent`` plays ``forced``, its first len(forced) actions,
        whatever its atom.  Each round every agent plays its class's action,
        then moves its class by ``searchsorted`` in the split keys, as
        ``action`` walks a history; a key that no world produces is
        off-path, and plays 0 from then on.  Agents go a chunk of at most
        ``BLOCK_CELLS`` (agent, row) cells at a time, one ``searchsorted``
        of their offset keys each.  Ties are not counted.  The result is a
        transposed view of the (horizon, n, R) table, so that a caller's
        gather of a few agents makes the only copy."""
        self._extend(horizon)
        n = self.g.n
        cls = np.asarray(atoms, dtype=np.int64).reshape(-1, n).T.copy()
        live = np.ones(cls.shape, dtype=bool)
        out = np.empty((horizon,) + cls.shape, dtype=np.uint8)
        size = max(1, BLOCK_CELLS // max(cls.shape[1], 1))
        for t in range(horizon):
            offs = self._offs[t]
            for lo in range(0, n, size):
                hi = min(lo + size, n)
                if t:
                    keys, base = self._split[t - 1]
                    key = self._keys(cls, out[t - 1], lo, hi)
                    key += base[lo:hi, None]
                    # past its agent's last key, a key clips to that key
                    at = np.minimum(keys.searchsorted(key),
                                    offs[lo + 1:hi + 1, None] - 1)
                    live[lo:hi] &= keys[at] == key
                    np.subtract(at, offs[lo:hi, None], out=cls[lo:hi])
                np.take(self._play[t][0], cls[lo:hi] + offs[lo:hi, None],
                        out=out[t, lo:hi])
            out[t] &= live
            if t < len(forced):
                out[t, agent] = forced[t]
        return out.transpose(2, 1, 0)


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
    ``DEFAULT_BUDGET`` entries the build stops with
    BudgetExceededError); a larger block at most ``BLOCK_CELLS``
    entries, and a batch 8 B per (row, agent, round) cell of its block.
    A pickled copy carries the one-row rings only.
    """

    def __init__(self, tie_breaker: TieBreaker = TieBreaker("zero")):
        self.tie_breaker = tie_breaker
        # the newest (graph, horizon), its one-row rings (cell, member)
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
        for a new (graph, horizon): more than ``DEFAULT_BUDGET``
        entries raise BudgetExceededError, before the search holds more
        than a few times that many.  The block is tiled again only when the
        batch needs more rows than it holds, up to as many as keep its
        entries and its cells within ``BLOCK_CELLS``, unless one
        row's pass it."""
        key = (g, horizon)
        if key != self._key:
            balls = graphs.all_balls(g, horizon - 1, DEFAULT_BUDGET)
            if balls is None:
                raise BudgetExceededError(
                    f"gossip rings over budget: more than "
                    f"{DEFAULT_BUDGET} entries for {g.n} agents "
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
        rows = min(max(batch, 1), max(1, BLOCK_CELLS // max(
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
        tie_breaker.reject_jitter(f"the {self.family} profile")
        self.g, self.tie_breaker = g, tie_breaker
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


class MadKingRoles(NamedTuple):
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
    histories that play never produces, such as a person's rebellion; it
    reads roles from ``roles`` and positions from ``g`` at each call.
    """

    family = "mad_king"

    def __init__(self, g, m, tie_breaker: TieBreaker = TieBreaker("zero")):
        super().__init__(g, m, tie_breaker)
        self.roles = r = mad_king_roles_of(g)
        self._people = frozenset(r.people)
        # round 1 decodes no person: the people are silent at round 0
        self._decoding = graphs.DirectedGraph(g.n, g.pairs()[
            ~np.isin(g.pairs(), r.people).any(axis=1)])
        self._leader = np.full(g.n, r.king)
        self._leader[[r.regent, r.king, *r.bureaucracy]] = r.regent

    def action(self, agent, atom, history, tie_log=None):
        t = len(history)
        r = self.roles
        # position of each vertex in the agent's sorted closed neighborhood
        at = {v: p for p, v in enumerate(self.g.closed_nbrs(agent))}

        def counting_z(include):
            # own ratio + include's ratios decoded from round 0, in order
            return self._z[atom] + sum(
                (self._sign_z[int(history[0][at[v]] == 1)] for v in include),
                0.0)

        if agent in self._people:
            # the king's t=1 -> t=2 transition is on-path behavior, so the
            # people imitate unconditionally rather than deviation-watching
            return 0 if t <= 1 else history[-1][at[r.king]]
        if agent in r.court and t >= 2:
            return history[-1][at[r.king]]

        if t == 0:
            val = self._z[atom]
        elif agent in r.court:
            val = counting_z([r.king])
        elif agent == r.regent:
            # locked or not, the continuation is sign(Z_1): nothing the
            # regent observes later is informative under this profile; the
            # lock level is criterion 08's analysis of regent_z1
            val = counting_z([r.king, *r.bureaucracy])
        else:  # the king and the bureaucracy
            if agent == r.king and any(history[tau][at[v]] == 1
                                       for tau in range(min(t, 2))
                                       for v in r.people):
                return 1  # the rage rule
            val = counting_z([r.regent, *r.court] if agent == r.king
                             else [r.regent])
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
