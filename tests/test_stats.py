import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from netlearn import stats
from netlearn.stats import EstimatorSample


def noisy_sample(rng, N=3000, k=5, flip=0.2):
    S = rng.integers(0, 2, size=N)
    noise = rng.random((N, k)) < flip
    return EstimatorSample((S[:, None] ^ noise).astype(np.uint8), S)


def test_sample_validation():
    with pytest.raises(ValueError):
        EstimatorSample(np.zeros((3, 2)), np.zeros(4))
    with pytest.raises(ValueError):
        EstimatorSample(np.array([[2, 0]]), np.array([1]))


def test_wilson_interval_oracle():
    # frozen against the closed-form Wilson score at z = 1.96
    lo, hi = stats.wilson_interval(50, 100)
    assert lo == pytest.approx(0.40383, abs=1e-4)
    assert hi == pytest.approx(0.59617, abs=1e-4)
    lo, hi = stats.wilson_interval(0, 20)
    assert lo == 0.0 and hi == pytest.approx(0.16113, abs=1e-4)
    with pytest.raises(ValueError):
        stats.wilson_interval(5, 0)


def test_wilson_interval_exact_endpoints():
    assert stats.wilson_interval(100, 100)[1] == 1.0
    assert stats.wilson_interval(0, 100)[0] == 0.0


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 10 ** 6), st.integers(0, 10 ** 6))
def test_wilson_interval_contains_point(n, s):
    s = min(s, n)
    lo, hi = stats.wilson_interval(s, n)
    assert 0.0 <= lo <= s / n <= hi <= 1.0


def test_dep_s_independent_coordinates_small():
    rng = np.random.default_rng(0)
    sample = noisy_sample(rng, N=8000)
    assert stats.dep_s_estimate(sample) < 0.06


def test_dep_s_perfect_copies():
    """Estimators that are exact copies of each other are conditionally
    *independent* given S when each is a deterministic function of S alone:
    the conditional law is a point mass, so the product equals the joint."""
    S = np.tile([0, 1], 50)
    sample = EstimatorSample(np.repeat(S[:, None], 4, axis=1), S)
    assert stats.dep_s_estimate(sample) < 1e-9


def test_dep_s_detects_common_noise():
    rng = np.random.default_rng(1)
    N, k = 6000, 4
    S = rng.integers(0, 2, size=N)
    shared = rng.random(N) < 0.5  # one coin flips all coordinates together
    X = (S[:, None] ^ shared[:, None]).astype(np.uint8)
    X = np.repeat(X, k // X.shape[1], axis=1) if X.shape[1] != k else X
    X = np.tile(X[:, :1], (1, k))
    sample = EstimatorSample(X, S)
    assert stats.dep_s_estimate(sample) > 0.3


def test_dep_s_k_limit():
    rng = np.random.default_rng(2)
    sample = noisy_sample(rng, N=100, k=11)
    with pytest.raises(ValueError):
        stats.dep_s_estimate(sample)


def test_good_estimator_check():
    rng = np.random.default_rng(3)
    sample = noisy_sample(rng, N=5000, k=5, flip=0.2)
    res = stats.good_estimator_check(sample, p=0.75, delta=0.1)
    assert res["ok"]
    assert len(res["accuracies"]) == 5
    res2 = stats.good_estimator_check(sample, p=0.9, delta=0.1)
    assert not res2["ok"]
    # perfect copies of S pass at p = 1, delta = 0
    S = np.tile([0, 1], 50)
    copies = EstimatorSample(np.repeat(S[:, None], 3, axis=1), S)
    assert stats.good_estimator_check(copies, p=1.0, delta=0.0)["ok"]
    with pytest.raises(ValueError):
        stats.good_estimator_check(sample, p=0.3, delta=0.1)


def test_majority_aggregate_beats_exponential_bound():
    rng = np.random.default_rng(4)
    sample = noisy_sample(rng, N=6000, k=9, flip=0.25)
    out = stats.majority_aggregate(sample, epsilon=0.2)
    # Hoeffding-style bound on the aggregate error, 1 - e^{-2 eps^2 k}
    floor = 1.0 - out["error_bound"]
    assert out["error_bound"] == pytest.approx(
        math.exp(-2 * 0.2 ** 2 * 9), abs=1e-12)
    assert out["accuracy"] >= floor - 0.02
    assert "dep_s" in out
    assert out["alpha1"] == pytest.approx(0.75, abs=0.02)


def test_majority_aggregate_validation():
    rng = np.random.default_rng(5)
    sample = noisy_sample(rng, N=200)
    with pytest.raises(ValueError):
        stats.majority_aggregate(sample, epsilon=0.6)
    only0 = EstimatorSample(np.zeros((10, 3), dtype=np.uint8),
                            np.zeros(10, dtype=np.uint8))
    with pytest.raises(ValueError):
        stats.majority_aggregate(only0, epsilon=0.2)
    # supplying alpha1 sidesteps the estimation requirement
    out = stats.majority_aggregate(only0, epsilon=0.2, alpha1=0.9)
    assert out["accuracy"] == 1.0


class FakeReport:
    def __init__(self, n, freq, ci, family="cycle", reps=100):
        self.n_agents = n
        self.learning_freq = freq
        self.learning_ci = ci
        self.graph_family = family
        self.replicates = reps


def test_compare_learning_monotone_trend():
    reps = [FakeReport(5, 0.68, (0.58, 0.77)),
            FakeReport(10, 0.73, (0.63, 0.81)),
            FakeReport(20, 0.81, (0.72, 0.88))]
    out = stats.compare_learning(reps)
    assert out["monotone_ok"] and not out["warnings"]
    bad = [FakeReport(5, 0.9, (0.85, 0.94)),
           FakeReport(10, 0.3, (0.22, 0.39))]
    assert not stats.compare_learning(bad)["monotone_ok"]


def test_compare_learning_single_report_warns():
    out = stats.compare_learning([FakeReport(5, 0.7, (0.6, 0.8))])
    assert out["monotone_ok"] and out["warnings"]


def test_compare_learning_floor():
    rep = FakeReport(13, 0.90, (0.83, 0.95), family="royal_family",
                     reps=1000)
    out = stats.compare_learning([rep], royal_floor=0.005)
    assert out["floor_ok"] is True
    high = FakeReport(13, 1.0, (0.99, 1.0), family="royal_family",
                      reps=100000)
    assert stats.compare_learning([high], royal_floor=0.01)["floor_ok"] \
        is False
