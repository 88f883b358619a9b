import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from netlearn import signals


def test_symmetric_binary_values():
    m = signals.symmetric_binary(0.7)
    # oracle: z = ln(0.7/0.3) = 0.8472978603872036
    assert m.atoms[0].z == pytest.approx(0.8472978603872036, abs=1e-12)
    assert m.atoms[1].z == pytest.approx(-0.8472978603872036, abs=1e-12)
    assert signals.total_variation(m) == pytest.approx(0.4, abs=1e-12)
    assert signals.p_star(m) == pytest.approx(0.7, abs=1e-12)


def test_symmetric_binary_rejects_bad_q():
    for q in (0.5, 1.0, 0.2):
        with pytest.raises(ValueError):
            signals.symmetric_binary(q)


def test_model_validation():
    with pytest.raises(ValueError):  # masses do not sum to one
        signals.model_from_triples([(0.5, 0.4, 0.6), (-0.5, 0.5, 0.4)])
    with pytest.raises(ValueError):  # z inconsistent with masses
        signals.model_from_triples([(0.3, 0.4, 0.6), (-0.9, 0.6, 0.4)])
    with pytest.raises(ValueError):  # zero mass breaks mutual continuity
        signals.model_from_triples([(0.0, 0.0, 0.0), (0.0, 1.0, 1.0)])


def test_degenerate_model_rejected():
    # equal masses under both states carry no information (d_TV = 0)
    with pytest.raises(ValueError):
        signals.model_from_triples([(0.0, 1.0, 1.0)])


@settings(max_examples=50, deadline=None)
@given(st.floats(0.501, 0.999))
def test_p_star_identity(q):
    m = signals.symmetric_binary(q)
    tv = signals.total_variation(m)
    assert signals.p_star(m) == pytest.approx(0.5 + 0.5 * tv, abs=1e-12)
    assert 0.0 < tv <= 1.0


@settings(max_examples=30, deadline=None)
@given(st.floats(0.1, 5.0), st.floats(-5.0, -0.1))
def test_two_atom_from_logits_consistent(z_plus, z_minus):
    m = signals.two_atom_from_logits(z_plus, z_minus)
    for a in m.atoms:
        assert a.z == pytest.approx(math.log(a.p1 / a.p0), abs=1e-10)
    assert sum(m.probs(0)) == pytest.approx(1.0, abs=1e-12)
    assert sum(m.probs(1)) == pytest.approx(1.0, abs=1e-12)


def test_two_atom_from_logits_rejects_same_sign():
    with pytest.raises(ValueError):
        signals.two_atom_from_logits(2.0, 0.5)
    with pytest.raises(ValueError):
        signals.two_atom_from_logits(-1.0, -2.0)


def test_royal_bounded_frozen_values():
    m = signals.royal_bounded()
    # oracle: p0+ = (1 - e^{-1.5}) / (e^{1.5} - e^{-1.5})
    assert m.atoms[0].z == pytest.approx(1.5, abs=1e-12)
    assert m.atoms[0].p0 == pytest.approx(0.18242552380635635, abs=1e-12)
    assert m.atoms[0].p1 == pytest.approx(0.8175744761936437, abs=1e-12)
    assert abs(m.atoms[0].z) <= 2.0 and abs(m.atoms[1].z) <= 2.0
    # private log-likelihood ratios stay inside (1, 2) in magnitude
    assert 1.0 < abs(m.atoms[0].z) < 2.0 and 1.0 < abs(m.atoms[1].z) < 2.0


def test_mad_king_asym_frozen_values():
    m = signals.mad_king_asym()
    assert m.atoms[0].z == pytest.approx(1.0, abs=1e-12)
    assert m.atoms[1].z == pytest.approx(-math.sqrt(7.0), abs=1e-12)
    # oracle via the two-equation solve
    assert m.atoms[0].p0 == pytest.approx(0.35093775346925193, abs=1e-10)
    assert m.atoms[0].p1 == pytest.approx(0.9539477181757078, abs=1e-10)
    assert m.atoms[1].p0 == pytest.approx(0.6490622465307481, abs=1e-10)


def test_sign_atoms():
    m = signals.symmetric_binary(0.6)
    neg, pos = m.sign_atoms()
    assert m.atoms[neg].z < 0 < m.atoms[pos].z
    three = signals.model_from_triples([
        (math.log(3), 0.2, 0.6), (0.0, 0.3, 0.3),
        (math.log(0.5 / 0.1) * -1, 0.5, 0.1)])
    with pytest.raises(ValueError):
        three.sign_atoms()


def test_sampler_distribution():
    m = signals.mad_king_asym()
    rng = np.random.default_rng(0)
    for s in (0, 1):
        draws = m.sample_atoms(rng, 50000, s)
        emp = np.bincount(draws, minlength=2) / 50000
        assert np.abs(emp - m.probs(s)).max() < 0.01


def _model(p0, p1):
    return signals.model_from_triples(
        [(math.log(b / a), a, b) for a, b in zip(p0, p1)])


ATOM_MODELS = (signals.symmetric_binary(0.7), signals.mad_king_asym(),
               _model((0.5, 0.3, 0.2), (0.2, 0.3, 0.5)),
               _model((0.1, 0.2, 0.3, 0.4), (0.4, 0.3, 0.2, 0.1)))


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(ATOM_MODELS), st.integers(0, 5), st.integers(1, 6),
       st.integers(0, 2 ** 32 - 1))
def test_atoms_of_is_searchsorted_on_each_rows_cumsum(m, R, n, seed):
    """The block mapping from uniforms to atoms equals a per-row
    ``searchsorted`` on the cumulative masses of that row's state, capped
    at k - 1, also for draws that land exactly on a cumulative mass."""
    rng = np.random.default_rng(seed)
    states = rng.integers(0, 2, R)
    u = rng.random((R, n))
    cuts = np.concatenate([np.cumsum(m.probs(0)), np.cumsum(m.probs(1))])
    u.flat[::2] = rng.choice(np.minimum(cuts, 0.999), size=u.flat[::2].size)
    got = m.atoms_of(u, states)
    assert got.shape == (R, n)
    for row, s, a in zip(u, states, got):
        want = np.searchsorted(np.cumsum(m.probs(s)), row).clip(0, m.k - 1)
        assert np.array_equal(a, want)
        assert np.array_equal(m.atoms_of(row, s), want)
