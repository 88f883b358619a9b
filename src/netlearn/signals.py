"""Private-signal models: finite log-likelihood-ratio atoms.  A model
carries only its atoms; the information-free jitter that may break exact
ties belongs to ``strategies.TieBreaker``."""
from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .strategies import TIE_TOL

ATOL = 1e-12

__all__ = [
    "Atom",
    "SignalModel",
    "symmetric_binary",
    "two_atom_from_logits",
    "royal_bounded",
    "mad_king_asym",
    "total_variation",
    "p_star",
]


class Atom(NamedTuple):
    z: float    # log-likelihood ratio ln(p1/p0)
    p0: float
    p1: float


class SignalModel:
    """Pair of mutually absolutely continuous measures on a finite set of
    log-likelihood atoms.

    Invariants enforced at construction: both rows sum to one, every atom has
    positive mass under both states, z matches ln(p1/p0) to 1e-12, z values
    are distinct, and the two measures differ (d_TV > 0).  Models of equal
    atoms are equal; a class, as a tuple cannot hold its derived arrays.
    """

    __slots__ = ("atoms", "_p0", "_p1", "_z", "_cum")

    def __init__(self, atoms: tuple):
        if not atoms:
            raise ValueError("need at least one atom")
        s0 = sum(a.p0 for a in atoms)
        s1 = sum(a.p1 for a in atoms)
        if abs(s0 - 1.0) > ATOL or abs(s1 - 1.0) > ATOL:
            raise ValueError(f"atom masses must sum to 1 (got {s0}, {s1})")
        zs = set()
        for a in atoms:
            if a.p0 <= 0 or a.p1 <= 0:
                raise ValueError(
                    "mutual absolute continuity requires positive mass "
                    "under both states for every atom")
            if abs(a.z - math.log(a.p1 / a.p0)) > ATOL:
                raise ValueError(f"atom z={a.z} inconsistent with masses")
            if a.z in zs:
                raise ValueError("atoms must carry distinct z values")
            zs.add(a.z)
        self.atoms = atoms
        if total_variation(self) <= 0:
            raise ValueError("measures must differ (d_TV > 0)")
        self._p0 = np.array([a.p0 for a in atoms])
        self._p1 = np.array([a.p1 for a in atoms])
        self._z = np.array([a.z for a in atoms])
        self._cum = np.cumsum([self._p0, self._p1], axis=1)

    def __eq__(self, other):
        return type(other) is SignalModel and self.atoms == other.atoms

    def __hash__(self):
        return hash(self.atoms)

    @property
    def k(self):
        return len(self.atoms)

    @property
    def z_values(self):
        return self._z

    def probs(self, s: int):
        return self._p1 if s == 1 else self._p0

    def atom_prob(self, idx: int, s: int) -> float:
        a = self.atoms[idx]
        return a.p1 if s == 1 else a.p0

    def sign_atoms(self):
        """(negative-z index, positive-z index) of a two-atom sign model;
        an atom within TIE_TOL of 0 ties, so its action reveals nothing."""
        if self.k != 2:
            raise ValueError("sign decoding needs exactly two atoms")
        zs = self._z
        if not (min(zs) < -TIE_TOL and max(zs) > TIE_TOL):
            raise ValueError(f"sign decoding needs one atom above {TIE_TOL} "
                             f"and one below -{TIE_TOL}, got {zs.tolist()}")
        return int(np.argmin(zs)), int(np.argmax(zs))

    def sample_atoms(self, rng, size: int, s: int):
        """Vectorized atom-index draws conditioned on the state."""
        return self.atoms_of(rng.random(size), s)

    def atoms_of(self, u, states):
        """Atom indices of the U[0, 1) draws ``u`` by inverse CDF, under
        ``states``: one state, or one per row of ``u``.  An index counts
        the state's first k - 1 cumulative masses that lie below its draw,
        which is ``searchsorted(cumsum(p), u)`` capped at k - 1."""
        u = np.asarray(u)
        cum = self._cum[np.asarray(states)][..., None, :]
        out = np.zeros(u.shape, dtype=np.intp)
        for j in range(self.k - 1):
            out += cum[..., j] < u
        return out


def total_variation(m: SignalModel) -> float:
    return 0.5 * sum(abs(a.p1 - a.p0) for a in m.atoms)


def p_star(m: SignalModel) -> float:
    """Single-signal MAP accuracy: 1/2 + d_TV/2."""
    return 0.5 + 0.5 * total_variation(m)


# ---------------------------------------------------------------------------
# built-in families

def symmetric_binary(q: float) -> SignalModel:
    """Two atoms at z = +-ln(q/(1-q)) with symmetric masses (1-q, q)."""
    if not 0.5 < q < 1.0:
        raise ValueError("q must lie in (1/2, 1)")
    z = math.log(q / (1.0 - q))
    return SignalModel((Atom(z, 1.0 - q, q), Atom(-z, q, 1.0 - q)))


def two_atom_from_logits(z_plus: float, z_minus: float) -> SignalModel:
    """Solve for the unique two-atom model with the given log-likelihood
    ratios: p0 solves p0+ + p0- = 1 and e^{z+} p0+ + e^{z-} p0- = 1."""
    if z_plus <= 0 or z_minus >= 0:
        raise ValueError("need z_plus > 0 > z_minus for a valid model")
    ep, em = math.exp(z_plus), math.exp(z_minus)
    p0_plus = (1.0 - em) / (ep - em)
    p0_minus = 1.0 - p0_plus
    return SignalModel((Atom(z_plus, p0_plus, p0_plus * ep),
                        Atom(z_minus, p0_minus, p0_minus * em)))


def royal_bounded() -> SignalModel:
    """Atoms at z = +-1.5."""
    return two_atom_from_logits(1.5, -1.5)


def mad_king_asym() -> SignalModel:
    """Atoms exactly at z = 1 and z = -sqrt(7)."""
    return two_atom_from_logits(1.0, -math.sqrt(7.0))

