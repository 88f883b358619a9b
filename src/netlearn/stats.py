"""Estimator quality metrics, dependence diagnostics, and aggregation.

The central objects are samples of k binary estimates of a hidden binary
state: accuracy per coordinate, conditional dependence across coordinates,
and majority-style aggregation with an exponential error bound.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "EstimatorSample",
    "wilson_interval",
    "dep_s_estimate",
    "good_estimator_check",
    "majority_aggregate",
    "compare_learning",
]

DEP_S_MAX_K = 10


def wilson_interval(successes: int, trials: int, z: float = 1.96):
    """Wilson score interval for a binomial proportion."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not (0 <= successes <= trials):
        raise ValueError("successes out of range")
    p = successes / trials
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = (z / denom) * math.sqrt(p * (1 - p) / trials
                                   + z * z / (4 * trials * trials))
    # the exact endpoints at 0 and N successes are 0 and 1; computed, they
    # can round to just inside and exclude the observed frequency
    lo = 0.0 if successes == 0 else max(0.0, center - half)
    hi = 1.0 if successes == trials else min(1.0, center + half)
    return lo, hi


@dataclass(frozen=True)
class EstimatorSample:
    """N joint observations of k binary estimators plus the true state.

    ``X`` has shape (N, k) with entries in {0, 1}; ``S`` has shape (N,).
    """

    X: np.ndarray
    S: np.ndarray

    def __post_init__(self):
        X = np.asarray(self.X, dtype=np.uint8)
        S = np.asarray(self.S, dtype=np.uint8)
        if X.ndim != 2 or S.ndim != 1 or X.shape[0] != S.shape[0]:
            raise ValueError("X must be (N, k) and S must be (N,)")
        if X.shape[0] < 1:
            raise ValueError("need at least one observation")
        if not (np.isin(X, (0, 1)).all() and np.isin(S, (0, 1)).all()):
            raise ValueError("entries must be 0/1")
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "S", S)

    @property
    def n_obs(self):
        return self.X.shape[0]

    @property
    def k(self):
        return self.X.shape[1]

    def accuracies(self) -> np.ndarray:
        """Per-coordinate empirical P(X_l = S)."""
        return (self.X == self.S[:, None]).mean(axis=0)


def _joint_counts(X: np.ndarray) -> np.ndarray:
    """Counts over the 2^k joint outcomes, bit-packed little endian."""
    k = X.shape[1]
    codes = X @ (1 << np.arange(k))
    return np.bincount(codes, minlength=1 << k)


def dep_s_estimate(sample: EstimatorSample) -> float:
    """Maximum over states of the total-variation distance between the
    empirical joint law of the estimators and the product of their
    empirical marginals, conditional on the state.

    Limited to k <= 10 coordinates (2^k joint cells).
    """
    if sample.k > DEP_S_MAX_K:
        raise ValueError(f"dep_s_estimate supports k <= {DEP_S_MAX_K}")
    worst = 0.0
    k = sample.k
    grid = np.array(
        [[(c >> l) & 1 for l in range(k)] for c in range(1 << k)],
        dtype=np.float64)
    for s in (0, 1):
        rows = sample.X[sample.S == s]
        if rows.shape[0] == 0:
            raise ValueError(f"no observations with state {s}")
        joint = _joint_counts(rows) / rows.shape[0]
        marg = rows.mean(axis=0)
        prod = np.prod(np.where(grid == 1, marg, 1.0 - marg), axis=1)
        worst = max(worst, 0.5 * np.abs(joint - prod).sum())
    return float(worst)


def good_estimator_check(sample: EstimatorSample, p: float, delta: float):
    """Point-estimate check that every coordinate has accuracy >= p and the
    conditional dependence is <= delta.

    Returns a dict with the verdict, per-coordinate accuracies with Wilson
    intervals, and the dependence estimate.
    """
    if not (0.5 <= p <= 1.0):
        raise ValueError("p must lie in [1/2, 1]")
    if delta < 0:
        raise ValueError("delta must be nonnegative")
    acc = sample.accuracies()
    N = sample.n_obs
    cis = [wilson_interval(int(round(a * N)), N) for a in acc]
    dep = dep_s_estimate(sample)
    ok = bool((acc >= p - 1e-12).all() and dep <= delta + 1e-12)
    return {
        "ok": ok,
        "p": p,
        "delta": delta,
        "accuracies": acc.tolist(),
        "accuracy_intervals": cis,
        "dep_s": dep,
    }


def majority_aggregate(sample: EstimatorSample, epsilon: float,
                       alpha1: Optional[float] = None):
    """Aggregate k estimators by thresholding their mean.

    Y_hat is the fraction of coordinates equal to 1; alpha_1 is the mean of
    Y_hat on state-1 observations (estimated from the sample unless given);
    the aggregate decision is 1{Y_hat > alpha_1 - epsilon}.  For independent
    coordinates each of accuracy >= p the misclassification probability is
    at most exp(-2 * epsilon**2 * k) per state, reported as
    ``error_bound``; when k <= 10 the dependence estimate is attached so the
    bound's slack can be judged.
    """
    if not (0.0 < epsilon < 0.5):
        raise ValueError("epsilon must lie in (0, 1/2)")
    y_hat = sample.X.mean(axis=1)
    ones = sample.S == 1
    if alpha1 is None:
        if not ones.any():
            raise ValueError("no state-1 observations to estimate alpha_1")
        alpha1 = float(y_hat[ones].mean())
    decisions = (y_hat > alpha1 - epsilon).astype(np.uint8)
    acc = float((decisions == sample.S).mean())
    out = {
        "alpha1": alpha1,
        "epsilon": epsilon,
        "decisions": decisions,
        "accuracy": acc,
        "accuracy_interval": wilson_interval(
            int((decisions == sample.S).sum()), sample.n_obs),
        "error_bound": math.exp(-2.0 * epsilon ** 2 * sample.k),
    }
    both_states = bool(ones.any() and (~ones).any())
    if sample.k <= DEP_S_MAX_K and both_states:
        out["dep_s"] = dep_s_estimate(sample)
    return out


def compare_learning(reports: Sequence, royal_floor: Optional[float] = None):
    """Cross-ensemble learning comparison.

    ``reports`` is a sequence of EnsembleReport-like objects ordered by
    network size.  For egalitarian families the learning frequency should
    not decrease with size beyond confidence-interval noise; for
    royal-family ensembles a non-learning floor can be supplied and the
    observed non-learning frequency is checked against it (minus three
    binomial standard errors).

    Returns {"rows": [...], "monotone_ok": bool, "floor_ok": Optional[bool],
    "warnings": [...]}.
    """
    rows = []
    warnings = []
    for rep in reports:
        rows.append({
            "n_agents": rep.n_agents,
            "family": rep.graph_family,
            "learning_freq": rep.learning_freq,
            "learning_ci": tuple(rep.learning_ci),
            "replicates": rep.replicates,
        })
    monotone_ok = True
    if len(rows) < 2:
        warnings.append("fewer than two ensembles; trend not assessable")
    else:
        for a, b in zip(rows, rows[1:]):
            # a decrease is flagged only when the intervals separate
            if b["learning_ci"][1] < a["learning_ci"][0]:
                monotone_ok = False
    floor_ok = None
    if royal_floor is not None:
        floor_ok = True
        for rep, row in zip(reports, rows):
            non_learn = 1.0 - rep.learning_freq
            se = math.sqrt(max(non_learn * (1 - non_learn), 1e-12)
                           / rep.replicates)
            row["non_learning_freq"] = non_learn
            row["floor"] = royal_floor
            if non_learn < royal_floor - 3 * se:
                floor_ok = False
    return {"rows": rows, "monotone_ok": monotone_ok, "floor_ok": floor_ok,
            "warnings": warnings}
