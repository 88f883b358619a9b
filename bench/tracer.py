"""Outside-in span tracer for netlearn's public functions.

``install`` replaces each traced function with a wrapper, in every netlearn
module that binds it, and leaves the package's source untouched.  Spans are
aggregated per name as (calls, total seconds, self seconds), so memory stays
flat however many calls a run makes.  Self time is a span's duration minus
the durations of the traced spans it directly encloses; this is what splits
the exact engine's recursion action -> exact_posterior -> simulate_actions.
"""
from __future__ import annotations

import functools
import sys
import time

# (span name, module, attribute path) for each boundary traced.
FUNCTIONS = (
    ("config.load_config", "netlearn.config", "load_config"),
    ("graphs.generate", "netlearn.graphs", "generate"),
    ("graphs.all_pairs_distances", "netlearn.graphs", "all_pairs_distances"),
    ("signals.sample_atoms", "netlearn.signals", "SignalModel.sample_atoms"),
    ("dynamics.replicate_rng", "netlearn.dynamics", "replicate_rng"),
    ("dynamics.run_trace", "netlearn.dynamics", "run_trace"),
    ("dynamics.add_trace", "netlearn.dynamics", "EnsembleTally.add_trace"),
    ("dynamics.report_from_tally", "netlearn.dynamics", "report_from_tally"),
    ("dynamics.write_trace_csv", "netlearn.dynamics", "write_trace_csv"),
    ("beliefs.exact_posterior", "netlearn.beliefs", "exact_posterior"),
    ("beliefs.simulate_actions", "netlearn.beliefs", "simulate_actions"),
    ("beliefs.history_of", "netlearn.beliefs", "history_of"),
    ("stats.wilson_interval", "netlearn.stats", "wilson_interval"),
)

# Methods traced on every netlearn.strategies class that defines them; the
# span is named strategies.<Class>.<method>.
STRATEGY_METHODS = ("trace_actions", "action")


class Tracer:
    def __init__(self):
        self.spans = {}    # name -> [calls, total_s, self_s]
        self._stack = []   # child seconds accumulated per open span
        self.absent = []   # boundaries that no longer exist

    def wrap(self, name, fn):
        agg = self.spans.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                agg[0] += 1
                agg[1] += dur
                agg[2] += dur - stack.pop()
                if stack:
                    stack[-1] += dur
        return traced

    def install(self):
        """Wrap every boundary; call after netlearn is imported."""
        for name, mod_name, path in FUNCTIONS:
            owner = sys.modules.get(mod_name)
            *parents, attr = path.split(".")
            for p in parents:
                owner = getattr(owner, p, None)
            fn = getattr(owner, attr, None)
            if fn is None:
                self.absent.append(name)
                continue
            wrapped = self.wrap(name, fn)
            if parents:
                setattr(owner, attr, wrapped)
            else:
                _rebind(fn, wrapped)
        strategies = sys.modules["netlearn.strategies"]
        for cls in list(vars(strategies).values()):
            if not (isinstance(cls, type)
                    and cls.__module__ == strategies.__name__):
                continue
            for meth in STRATEGY_METHODS:
                if meth in cls.__dict__:
                    setattr(cls, meth, self.wrap(
                        f"strategies.{cls.__name__}.{meth}",
                        cls.__dict__[meth]))


def _rebind(fn, wrapped):
    """Point every netlearn module attribute bound to ``fn`` at ``wrapped``
    (covers ``from .stats import wilson_interval`` style imports)."""
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not mod_name.startswith("netlearn"):
            continue
        for attr, val in list(vars(mod).items()):
            if val is fn:
                setattr(mod, attr, wrapped)
