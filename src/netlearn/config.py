"""Run configuration loading: INI or JSON files, environment overrides.

Sections/keys:
  [graph]   family = dicycle(20)  (a ``graphs.generate`` spec)
            file = path           (an edge list; set family or file, not both)
  [signal]  kind = symmetric_binary | royal_bounded | mad_king_asym
            q = 0.7               (symmetric_binary only)
  [profile] name = myopic | gossip | royal_family | mad_king
            tie = zero | one | jitter
                                  (jitter, gossip only: a tie plays 1 when
                                   the agent's U[0, 1) jitter is below 1/2)
            delta = 1.0           (mad_king; > 0)
            lam = 0.99            (mad_king; 0 < lam < 1)
  [sim]     horizon, replicates, discount, tail_window, seed (0 <= seed < 2**64)
  [output]  trace_csv = path, report_json = path

Three keys are dead: ``delta`` and ``lam`` are range-checked here and read
by no profile, and ``discount`` is only echoed in the report.  They go once
the benchmark's workload configs, which set them, stop doing so.

Environment variables NETLEARN_<SECTION>_<KEY> override file values, e.g.
NETLEARN_SIM_SEED=7.
"""
from __future__ import annotations

import configparser
import json
import os
from typing import NamedTuple, Optional

from . import graphs, signals, strategies
from .dynamics import SimConfig

ENV_PREFIX = "NETLEARN"

_DEFAULTS = {
    "graph": {"family": "", "file": ""},
    "signal": {"kind": "symmetric_binary", "q": "0.7"},
    "profile": {"name": "myopic", "tie": "zero", "delta": "1.0",
                "lam": "0.99"},
    "sim": {"horizon": "30", "replicates": "100", "discount": "0.9",
            "tail_window": "5", "seed": "0"},
    "output": {"trace_csv": "", "report_json": ""},
}


class RunConfig(NamedTuple):
    """Fully resolved run description."""

    graph_family: str
    graph_file: str
    signal_kind: str
    signal_q: float
    profile_name: str
    tie_mode: str
    delta: float
    lam: float
    sim: SimConfig
    trace_csv: str
    report_json: str

    def build_graph(self):
        if self.graph_file and self.graph_family:
            raise ValueError("config sets both graph.family and graph.file; "
                             "set one")
        if self.graph_file:
            with open(self.graph_file) as f:
                return graphs.from_edge_list_text(f.read())
        if not self.graph_family:
            raise ValueError("config needs graph.family or graph.file")
        return graphs.generate(self.graph_family, seed=self.sim.master_seed)

    def build_signal_model(self):
        if self.signal_kind == "symmetric_binary":
            return signals.symmetric_binary(self.signal_q)
        if self.signal_kind == "royal_bounded":
            return signals.royal_bounded()
        if self.signal_kind == "mad_king_asym":
            return signals.mad_king_asym()
        raise ValueError(f"unknown signal kind {self.signal_kind!r}; use "
                         "symmetric_binary, royal_bounded or mad_king_asym")

    def build_profile(self, g, m):
        tb = strategies.TieBreaker(self.tie_mode)
        if self.profile_name == "myopic":
            return strategies.MyopicExactProfile(g, m, tb)
        if self.profile_name == "gossip":
            return strategies.GossipProfile(tb)
        if self.profile_name == "royal_family":
            return strategies.RoyalFamilyProfile(g, m, tb)
        if self.profile_name == "mad_king":
            if not self.delta > 0.0:
                raise ValueError(f"delta must be > 0, got {self.delta}")
            if not (0.0 < self.lam < 1.0):
                raise ValueError("lam must lie in (0, 1)")
            return strategies.MadKingProfile(g, m, tb)
        raise ValueError(f"unknown profile {self.profile_name!r}; use "
                         "myopic, gossip, royal_family or mad_king")


def _merged(sections: dict) -> dict:
    if not (isinstance(sections, dict)
            and all(isinstance(kv, dict) for kv in sections.values())):
        raise ValueError("a config must map each section to a table of keys")
    data = {s: dict(kv) for s, kv in _DEFAULTS.items()}
    for s, kv in sections.items():
        if s not in data:
            raise ValueError(f"unknown config section [{s}]")
        for k, v in kv.items():
            if k not in data[s]:
                raise ValueError(f"unknown key {k!r} in section [{s}]")
            data[s][k] = str(v)
    return data


def _apply_env(data: dict, environ=None) -> dict:
    environ = os.environ if environ is None else environ
    for s, kv in data.items():
        for k in kv:
            name = f"{ENV_PREFIX}_{s.upper()}_{k.upper()}"
            if name in environ:
                kv[k] = environ[name]
    return data


def load_config(path: Optional[str] = None, overrides: Optional[dict] = None,
                environ=None) -> RunConfig:
    """Load an INI or JSON config file; missing path = all defaults.

    ``overrides`` is a {section: {key: value}} mapping applied last (used by
    CLI flags such as --seed).
    """
    sections = {}
    if path:
        if path.endswith(".json"):
            with open(path) as f:
                sections = json.load(f)
        else:
            cp = configparser.ConfigParser()
            try:
                if not cp.read(path):
                    raise FileNotFoundError(path)
                sections = {s: dict(cp.items(s)) for s in cp.sections()}
            except configparser.Error as e:  # no header, a duplicate key
                raise ValueError(" ".join(str(e).split())) from None
    data = _apply_env(_merged(sections), environ)
    if overrides:
        for s, kv in overrides.items():
            for k, v in kv.items():
                if v is not None:
                    data[s][k] = str(v)
    sim = SimConfig(
        horizon=int(data["sim"]["horizon"]),
        replicates=int(data["sim"]["replicates"]),
        discount=float(data["sim"]["discount"]),
        tail_window=int(data["sim"]["tail_window"]),
        master_seed=int(data["sim"]["seed"]),
    )
    return RunConfig(
        graph_family=data["graph"]["family"],
        graph_file=data["graph"]["file"],
        signal_kind=data["signal"]["kind"],
        signal_q=float(data["signal"]["q"]),
        profile_name=data["profile"]["name"],
        tie_mode=data["profile"]["tie"],
        delta=float(data["profile"]["delta"]),
        lam=float(data["profile"]["lam"]),
        sim=sim,
        trace_csv=data["output"]["trace_csv"],
        report_json=data["output"]["report_json"],
    )
