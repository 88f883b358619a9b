"""Simulators and diagnostics for repeated Bayesian learning games on
directed social networks.

The public names resolve on first use (PEP 562), so importing the package
or one of its modules loads only what that module needs: ``simulate``
never compiles the posterior queries (``beliefs``), the topology analysis
(``topology``) or the estimator panel (``estimators``)."""

__version__ = "0.1.0"

# each public name, by the module that defines it
_HOMES = {
    "graphs": ("DirectedGraph", "generate", "role_names"),
    "topology": ("RootedBall", "balls_isomorphic", "extract_ball",
                 "is_strongly_connected", "min_l_connectivity",
                 "out_degree_bound", "rooted_distance"),
    "signals": ("Atom", "SignalModel", "mad_king_asym", "p_star",
                "royal_bounded", "symmetric_binary", "total_variation",
                "two_atom_from_logits"),
    "beliefs": ("BeliefState", "HistoryView", "YDecomposition",
                "best_response", "exact_posterior", "lookahead_certainty",
                "myopic_condition_check", "y_decomposition"),
    "strategies": ("GossipProfile", "MadKingProfile", "MadKingRoles",
                   "MyopicExactProfile", "Profile", "RoyalFamilyProfile",
                   "TieBreaker"),
    "dynamics": ("EnsembleReport", "SimConfig", "Trace",
                 "discounted_utility", "locality_coupling_test",
                 "run_ensemble", "run_trace"),
    "stats": ("wilson_interval",),
    "estimators": ("EstimatorSample", "compare_learning", "dep_s_estimate",
                   "good_estimator_check", "majority_aggregate"),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}
__all__ = sorted(_HOME)


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    value = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted({*globals(), *__all__})


def _register_beliefs():
    """Put ``beliefs`` in ``sys.modules`` and on the package unexecuted:
    its code runs on its first attribute access.  Code that looks the
    posterior queries up there (a tracer that wraps them) finds them, and a
    run that never uses them never compiles them."""
    import sys
    from importlib.util import LazyLoader, find_spec, module_from_spec
    spec = find_spec(f"{__name__}.beliefs")
    spec.loader = LazyLoader(spec.loader)
    sys.modules[spec.name] = globals()["beliefs"] = module_from_spec(spec)
    spec.loader.exec_module(sys.modules[spec.name])


_register_beliefs()
