"""Simulators and diagnostics for repeated Bayesian learning games on
directed social networks."""

__version__ = "0.1.0"

from .graphs import (  # noqa: F401
    DirectedGraph, RootedBall, balls_isomorphic, extract_ball, generate,
    is_strongly_connected, min_l_connectivity, out_degree_bound,
    role_names, rooted_distance,
)
from .signals import (  # noqa: F401
    Atom, SignalModel, mad_king_asym, p_star, royal_bounded,
    symmetric_binary, total_variation, two_atom_from_logits,
)
from .beliefs import (  # noqa: F401
    BeliefState, HistoryView, TieBreaker, YDecomposition, best_response,
    exact_posterior, lookahead_certainty, y_decomposition,
)
from .strategies import (  # noqa: F401
    GossipProfile, MadKingProfile, MadKingRoles, MyopicExactProfile, Profile,
    RoyalFamilyProfile, myopic_condition_check,
)
from .dynamics import (  # noqa: F401
    EnsembleReport, SimConfig, Trace, discounted_utility,
    locality_coupling_test, run_ensemble, run_trace,
)
from .stats import (  # noqa: F401
    EstimatorSample, compare_learning, dep_s_estimate, good_estimator_check,
    majority_aggregate, wilson_interval,
)
