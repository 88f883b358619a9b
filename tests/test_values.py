"""The records' value semantics: what equality ignores, what pickling keeps
and what construction refuses."""
import math
import pickle

import numpy as np
import pytest

from netlearn import estimators, graphs, signals, strategies, topology
from netlearn.beliefs import HistoryView, TieBreaker
from netlearn.dynamics import SimConfig
from netlearn.signals import Atom, SignalModel

EDGES = frozenset({(0, 1), (1, 2), (2, 0)})
VERTICES = frozenset({0, 1, 2})
Q = 0.7
Z = math.log(Q / (1 - Q))


def _round_trip(value):
    return value, pickle.loads(pickle.dumps(value))


def _gossip_play():
    """The play of a solved gossip profile and of its pickled copy."""
    g, m = graphs.cycle(8), signals.symmetric_binary(Q)
    prof = strategies.GossipProfile()
    atoms = np.random.default_rng(3).integers(0, 2, size=(5, g.n))
    jitters = np.zeros(atoms.shape)
    play = prof.trace_batch(g, m, atoms, jitters, 4)
    copy = pickle.loads(pickle.dumps(prof))
    return play.tobytes(), copy.trace_batch(g, m, atoms, jitters, 4).tobytes()


def _model(*atoms):
    return lambda: SignalModel(tuple(Atom(*a) for a in atoms))


# (make, fault): make() returns two values that must be equal and hash
# equal, or, where fault is given, raises a ValueError that matches it
CASES = {
    "graph-ignores-family": (lambda: (
        graphs.DirectedGraph(3, EDGES, ("a", ())),
        graphs.DirectedGraph(3, EDGES, ("b", (("n", 3),)))), None),
    "ball-ignores-distances": (lambda: (
        topology.RootedBall(0, 1, VERTICES, EDGES, {0: 0, 1: 1, 2: 2}),
        topology.RootedBall(0, 1, VERTICES, EDGES, {0: 0, 1: 5, 2: 5})), None),
    "view": (lambda: (HistoryView(1, 2, 0, ((1, 0), (0, 0))),
                      HistoryView(1, 2, 0, ((1, 0), (0, 0)))), None),
    "tie-breaker": (lambda: (TieBreaker("one"), TieBreaker("one")), None),
    "sim-config": (lambda: (SimConfig(horizon=7, master_seed=3),
                            SimConfig(7, 100, 0.9, 5, 3)), None),
    "pickled-graph": (lambda: _round_trip(graphs.royal_family(2, 3)), None),
    "pickled-signal-model": (lambda: _round_trip(signals.mad_king_asym()),
                             None),
    "pickled-sim-config": (lambda: _round_trip(SimConfig(horizon=7)), None),
    "pickled-tie-breaker": (lambda: _round_trip(TieBreaker("jitter")), None),
    "pickled-view": (lambda: _round_trip(HistoryView(0, 1, 1, ((1, 0),))),
                     None),
    "pickled-gossip-play": (_gossip_play, None),
    "sim-horizon": (lambda: SimConfig(horizon=0), "horizon and replicates"),
    "sim-replicates": (lambda: SimConfig(replicates=0),
                       "horizon and replicates"),
    "sim-discount": (lambda: SimConfig(discount=1.0), "discount"),
    "sim-tail-window": (lambda: SimConfig(horizon=3, tail_window=4),
                        "tail_window"),
    "sim-seed": (lambda: SimConfig(master_seed=-1), "seed must be >= 0"),
    "tie-mode": (lambda: TieBreaker("coin"), "unknown tie-breaker mode"),
    "view-length": (lambda: HistoryView(0, 2, 0, ((1, 1),)),
                    "length must equal t"),
    "model-no-atoms": (_model(), "at least one atom"),
    "model-sums": (_model((0.0, 0.5, 0.5), (Z, 0.3, 0.7)), "sum to 1"),
    "model-mass": (_model((0.0, 1.0, 1.0), (Z, 0.0, 0.0)), "positive mass"),
    "model-z": (_model((Z, 0.3, 0.7), (Z + 1, 0.7, 0.3)), "inconsistent"),
    "model-distinct-z": (_model((0.0, 0.5, 0.5), (0.0, 0.5, 0.5)),
                         "distinct"),
    "model-differ": (_model((0.0, 1.0, 1.0)), "must differ"),
    "graph-empty": (lambda: graphs.DirectedGraph(0, frozenset()),
                    "at least one vertex"),
    "graph-self-loop": (lambda: graphs.DirectedGraph(2, frozenset({(1, 1)})),
                        "self-loop"),
    "graph-range": (lambda: graphs.DirectedGraph(2, frozenset({(0, 2)})),
                    "out of range"),
    "ball-root": (lambda: topology.RootedBall(
        3, 1, VERTICES, EDGES, {0: 1, 1: 1, 2: 1}), "root must belong"),
    "ball-distances": (lambda: topology.RootedBall(
        0, 1, VERTICES, EDGES, {0: 0, 1: 1}), "distance of every vertex"),
    "sample-shapes": (lambda: estimators.EstimatorSample(
        np.zeros((3, 2)), np.zeros(2)), "must be"),
    "sample-empty": (lambda: estimators.EstimatorSample(
        np.zeros((0, 2)), np.zeros(0)), "at least one observation"),
    "sample-entries": (lambda: estimators.EstimatorSample(
        np.full((2, 2), 2), np.zeros(2)), "0/1"),
}


@pytest.mark.parametrize("make, fault", list(CASES.values()), ids=list(CASES))
def test_records_keep_their_value_semantics(make, fault):
    """Equal values hash equal, a graph's family and a ball's distances
    aside; a pickled graph, signal model, config, breaker or view is equal
    to its original, and a pickled solved gossip profile plays as it does;
    each record refuses what it refused as a dataclass."""
    if fault is not None:
        with pytest.raises(ValueError, match=fault):
            make()
        return
    a, b = make()
    assert a is not b and a == b and hash(a) == hash(b)


@pytest.mark.parametrize("record, field", [
    (SimConfig(), "horizon"), (HistoryView(0, 0, 1, ()), "atom"),
    (TieBreaker("one"), "mode")], ids=["sim-config", "view", "tie-breaker"])
def test_records_are_immutable(record, field):
    """A config, a view or a breaker is a value: its fields cannot be
    assigned."""
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(record, field))
