"""Private-signal models: finite log-likelihood-ratio atoms with an
information-free jitter used only to break exact posterior ties."""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

ATOL = 1e-12

__all__ = [
    "Atom",
    "Signal",
    "SignalModel",
    "symmetric_binary",
    "two_atom_from_logits",
    "royal_bounded",
    "mad_king_asym",
    "builtin_family",
    "sample_signal",
    "total_variation",
    "p_star",
    "private_belief",
    "logistic",
]


def logistic(z: float) -> float:
    if z >= 0:
        return 1.0 / (1.0 + math.exp(-z))
    e = math.exp(z)
    return e / (1.0 + e)


@dataclass(frozen=True)
class Atom:
    z: float    # log-likelihood ratio ln(p1/p0)
    p0: float
    p1: float


@dataclass(frozen=True)
class Signal:
    atom: int
    jitter: float


@dataclass(frozen=True)
class SignalModel:
    """Pair of mutually absolutely continuous measures on a finite set of
    log-likelihood atoms.

    Invariants enforced at construction: both rows sum to one, every atom has
    positive mass under both states, z matches ln(p1/p0) to 1e-12, z values
    are distinct, and the two measures differ (d_TV > 0).
    """

    atoms: Tuple[Atom, ...]
    jitter_width: float = 0.0

    def __post_init__(self):
        if not self.atoms:
            raise ValueError("need at least one atom")
        if self.jitter_width < 0:
            raise ValueError("jitter width must be nonnegative")
        s0 = sum(a.p0 for a in self.atoms)
        s1 = sum(a.p1 for a in self.atoms)
        if abs(s0 - 1.0) > ATOL or abs(s1 - 1.0) > ATOL:
            raise ValueError(f"atom masses must sum to 1 (got {s0}, {s1})")
        zs = set()
        for a in self.atoms:
            if a.p0 <= 0 or a.p1 <= 0:
                raise ValueError(
                    "mutual absolute continuity requires positive mass "
                    "under both states for every atom")
            if abs(a.z - math.log(a.p1 / a.p0)) > ATOL:
                raise ValueError(f"atom z={a.z} inconsistent with masses")
            if a.z in zs:
                raise ValueError("atoms must carry distinct z values")
            zs.add(a.z)
        if total_variation(self) <= 0:
            raise ValueError("measures must differ (d_TV > 0)")
        object.__setattr__(self, "_p0", np.array([a.p0 for a in self.atoms]))
        object.__setattr__(self, "_p1", np.array([a.p1 for a in self.atoms]))
        object.__setattr__(self, "_z", np.array([a.z for a in self.atoms]))

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
        """(negative-z index, positive-z index) for two-atom sign models."""
        if self.k != 2:
            raise ValueError("sign decoding needs exactly two atoms")
        zs = self._z
        if not (min(zs) < 0 < max(zs)):
            raise ValueError("sign decoding needs one positive and one "
                             "negative atom")
        return int(np.argmin(zs)), int(np.argmax(zs))

    def sample_atoms(self, rng, size: int, s: int):
        """Vectorized atom-index draws conditioned on the state."""
        p = self.probs(s)
        u = rng.random(size)
        return np.searchsorted(np.cumsum(p), u).clip(0, self.k - 1)


def total_variation(m: SignalModel) -> float:
    return 0.5 * sum(abs(a.p1 - a.p0) for a in m.atoms)


def p_star(m: SignalModel) -> float:
    """Single-signal MAP accuracy: 1/2 + d_TV/2."""
    return 0.5 + 0.5 * total_variation(m)


def private_belief(sig, m: SignalModel) -> float:
    """P(S=1 | signal); the jitter never contributes."""
    idx = sig.atom if isinstance(sig, Signal) else int(sig)
    return logistic(m.atoms[idx].z)


def sample_signal(m: SignalModel, s: int, rng) -> Signal:
    if s not in (0, 1):
        raise ValueError("state must be 0 or 1")
    p = m.probs(s)
    idx = int(np.searchsorted(np.cumsum(p), rng.random()).clip(0, m.k - 1))
    jit = float(rng.random() * m.jitter_width)
    return Signal(idx, jit)


# ---------------------------------------------------------------------------
# built-in families

def symmetric_binary(q: float, jitter_width: float = 0.0) -> SignalModel:
    """Two atoms at z = +-ln(q/(1-q)) with symmetric masses (1-q, q)."""
    if not 0.5 < q < 1.0:
        raise ValueError("q must lie in (1/2, 1)")
    z = math.log(q / (1.0 - q))
    return SignalModel(
        (Atom(z, 1.0 - q, q), Atom(-z, q, 1.0 - q)), jitter_width)


def two_atom_from_logits(z_plus: float, z_minus: float,
                         jitter_width: float = 0.0) -> SignalModel:
    """Solve for the unique two-atom model with the given log-likelihood
    ratios: p0 solves p0+ + p0- = 1 and e^{z+} p0+ + e^{z-} p0- = 1."""
    if z_plus <= 0 or z_minus >= 0:
        raise ValueError("need z_plus > 0 > z_minus for a valid model")
    ep, em = math.exp(z_plus), math.exp(z_minus)
    p0_plus = (1.0 - em) / (ep - em)
    p0_minus = 1.0 - p0_plus
    return SignalModel(
        (Atom(z_plus, p0_plus, p0_plus * ep),
         Atom(z_minus, p0_minus, p0_minus * em)),
        jitter_width)


def royal_bounded(z_plus: float = 1.5, z_minus: float = -1.5,
                  jitter_width: float = 0.0) -> SignalModel:
    return two_atom_from_logits(z_plus, z_minus, jitter_width)


def mad_king_asym(jitter_width: float = 0.0) -> SignalModel:
    """Atoms exactly at z = 1 and z = -sqrt(7); the jitter supplies the
    tie-breaking slack."""
    return two_atom_from_logits(1.0, -math.sqrt(7.0), jitter_width)


def builtin_family(name: str, **params) -> SignalModel:
    builders = {
        "symmetric_binary": symmetric_binary,
        "royal_bounded": royal_bounded,
        "mad_king_asym": mad_king_asym,
        "two_atom": two_atom_from_logits,
    }
    if name not in builders:
        raise ValueError(f"unknown signal family {name!r}")
    return builders[name](**params)


def model_from_triples(triples, jitter_width: float = 0.0) -> SignalModel:
    return SignalModel(tuple(Atom(z, p0, p1) for (z, p0, p1) in triples),
                       jitter_width)
